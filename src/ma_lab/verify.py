"""Corpus generator and inequality harness.

Every named estimate exercised by the package is registered here as a
check with an opaque citation label; the labels are cross-referenced
against the in-scope list at import time.  A check runs over the
deterministic seed-indexed corpus and reports the number of instances,
the failures beyond the slack, and the rawest (smallest) margin seen.

Margins are signed so that nonnegative means the inequality holds;
failures are counted only beyond a relative slack of 1e-7 times the
scale of the quantities involved.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

import ma_lab.capacity as cap_mod

from . import energy, ma, solver
from .errors import InvalidInput
from .models import RADIAL_P2, psi_fs, radial_p2, require
from .profiles import (RelativeProfile, compose_weight, max_offsets, scale,
                       truncate)

SLACK = 1e-7

IN_SCOPE = frozenset({
    "Lemma 1.1", "Prop 1.2", "Prop 1.3", "Prop 1.5", "Cor 1.6",
    "Thm 2.1", "Cor 2.2", "Prop 2.3", "Example 2.5",
    "Thm 3.1", "Prop 3.2", "Thm 3.3", "Thm 3.4", "Lemma 3.6",
    "Def 4.1", "Lemma 4.2", "Cor 4.3", "Thm 4.4", "Cor 4.5",
    "Prop 4.6", "Lemma 4.7", "Thm 4.8",
    "Thm 5.1", "Thm 5.2", "Lemma 5.3", "Lemma 5.4", "Lemma 5.5",
    "Prop 6.1", "Lemma 6.2", "Eq (6)", "Eq (7)", "Examples 6.3",
    "Prop 6.4", "Prop 6.5", "Eq (8)", "Eq (9)",
})


@dataclass(frozen=True)
class CorpusEntry:
    phi: RelativeProfile
    tags: dict


@dataclass(frozen=True)
class Corpus:
    seed: int
    profiles: tuple

    def with_tag(self, tag):
        return [e for e in self.profiles if tag in e.tags]

    def digest(self):
        h = hashlib.sha256()
        for e in self.profiles:
            h.update(e.phi.offset.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    citation: str
    instances: int
    failures: int
    worst_margin: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.failures == 0


def _bounded_member(base, rng):
    """Monotone bounded offset: mixture of shifted reference potentials."""
    n = rng.integers(2, 6)
    w = rng.dirichlet(np.ones(n))
    a = -rng.uniform(0.0, 8.0, size=n)
    g = base.grid
    full = np.zeros_like(g)
    for wi, ai in zip(w, a):
        full += wi * psi_fs(g - ai)
    off = full - base.values
    p = RelativeProfile(base, off)
    return p.normalized(-1.0)


def _lelong_member(base, rng):
    """Positive mass at the fixed point: mix in a slice of full slope."""
    lam = rng.uniform(0.15, 0.85)
    bounded = _bounded_member(base, rng)
    full = lam * (base.grid / 2) + (1 - lam) * (base.values + bounded.offset)
    p = RelativeProfile(base, full - base.values)
    return p.normalized(-1.0), lam


def _alpha_member(base, alpha):
    """Power-of-singularity family along the divisor at infinity."""
    seed_phi = RelativeProfile(base, -base.values - 1.0)
    return compose_weight(seed_phi, ("power", alpha))


def _point_alpha_member(base, alpha):
    """Power-of-singularity family at the fixed point; bounded near the
    divisor, hence also tagged as divisor-bounded."""
    seed_phi = RelativeProfile(base, base.grid / 2 - base.values - 1.0)
    return compose_weight(seed_phi, ("power", alpha))


def generate_corpus(seed, size):
    """Deterministic corpus of tagged admissible potentials.

    Families: bounded monotone perturbations, positive-mass potentials,
    the two power families (singularity on the divisor / at the fixed
    point), and decreasing truncation chains of finite-energy members.
    Every tag covers at least 10% of the corpus.
    """
    if size < 1:
        raise InvalidInput("corpus size must be >= 1")
    rng = np.random.default_rng(seed)
    base = radial_p2().reference_potential
    entries = []
    chain_id = 0
    slot = 0
    while len(entries) < size:
        k = slot % 9
        slot += 1
        if k in (0, 1):
            entries.append(CorpusEntry(_bounded_member(base, rng), {"bounded": True}))
        elif k in (2, 3):
            phi, lam = _lelong_member(base, rng)
            entries.append(CorpusEntry(phi, {"lelong_positive": lam}))
        elif k in (4, 5):
            alpha = float(rng.uniform(0.15, 0.8))
            entries.append(CorpusEntry(_alpha_member(base, alpha),
                                       {"alpha_family": alpha}))
        elif k in (6, 7):
            alpha = float(rng.uniform(0.2, 0.45))
            phi = _point_alpha_member(base, alpha)
            lam = float(rng.uniform(0.6, 1.0))
            entries.append(CorpusEntry(scale(phi, lam).normalized(-1.0),
                                       {"divisor_bounded": alpha}))
        else:
            if size - len(entries) < 4:
                # not enough room for a full chain; pad with bounded members
                entries.append(CorpusEntry(_bounded_member(base, rng),
                                           {"bounded": True}))
                continue
            alpha = float(rng.uniform(0.25, 0.5))
            phi = _point_alpha_member(base, alpha)
            n_links = 4
            for idx in range(n_links):
                k_cut = 2.0 * 2.0 ** (idx + 1)  # deeper cutoffs along the chain
                link = truncate(phi, k_cut) if idx < n_links - 1 else phi
                entries.append(CorpusEntry(
                    link, {"decreasing_chain": (chain_id, idx)}))
            chain_id += 1
    return Corpus(int(seed), tuple(entries[:size]))


def seed_profile(seed):
    """Deterministic demo potential: first bounded corpus member."""
    return generate_corpus(seed, 12).with_tag("bounded")[0].phi


def corpus_chains(corpus):
    """Group the chain-tagged entries by chain id, sorted by index."""
    chains = {}
    for e in corpus.profiles:
        if "decreasing_chain" in e.tags:
            cid, idx = e.tags["decreasing_chain"]
            chains.setdefault(cid, []).append((idx, e.phi))
    out = [[phi for _, phi in sorted(v)] for _, v in sorted(chains.items())]
    return [c for c in out if len(c) >= 2]


def ordered_pairs(corpus, limit=None):
    """Deterministic ordered pairs phi <= psi <= 0 from bounded members."""
    bounded = [e.phi for e in corpus.with_tag("bounded")]
    pairs = []
    for i, phi in enumerate(bounded):
        psi = max_offsets(phi, bounded[(i + 1) % len(bounded)])
        pairs.append((phi, psi))
        pairs.append((phi, scale(phi, 0.5)))
        if limit and len(pairs) >= limit:
            break
    return pairs[:limit] if limit else pairs


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------

def _report(cid, margins, scale_hint=1.0, details=None):
    """Report of check cid, with its citation read from CHECKS."""
    margins = np.asarray(margins, dtype=float)
    tol = SLACK * max(scale_hint, 1.0)
    failures = int(np.sum(margins < -tol))
    worst = float(margins.min()) if margins.size else 0.0
    return CheckReport(cid, CHECKS[cid][0], int(margins.size), failures, worst,
                       details or {})


def check_mixed_mass(corpus, model):
    margins = []
    members = [e.phi for e in corpus.profiles]
    for i, phi in enumerate(members):
        psi = members[(i + 1) % len(members)]
        m = ma.mixed_measure(model, phi, psi)
        margins.append(1e-9 - abs(m.total_mass - model.volume))
    return _report("mixed-mass-probability", margins)


def check_star_shaped(corpus, model):
    margins = []
    for e in corpus.with_tag("bounded") + corpus.with_tag("divisor_bounded"):
        g = energy.gradient_energy_verdict(model, e.phi)
        if not g.finite:
            continue
        lam = energy.gradient_energy_verdict(model, scale(e.phi, 0.5))
        margins.append(1.0 if lam.finite else -1.0)
    return _report("class-star-shaped", margins)


def check_max_stable(corpus, model):
    margins = []
    members = [e.phi for e in corpus.profiles]
    for i, phi in enumerate(members):
        psi = members[(i + 1) % len(members)]
        top = max_offsets(phi, psi)
        gp = energy.gradient_energy_verdict(model, phi)
        gt = energy.gradient_energy_verdict(model, top)
        if gp.finite:
            margins.append(1.0 if gt.finite else -1.0)
    return _report("max-stable", margins)


def check_chain_sobolev(corpus, model):
    margins = []
    for chain in corpus_chains(corpus):
        tail = chain[-1]
        d = [energy.sobolev_distance(model, phi, tail) for phi in chain[:-1]]
        margins.append(1e-3 - d[-1])
        margins.extend(np.diff(d) * -1.0)  # distances decrease along the chain
    return _report("chain-sobolev-convergence", margins, 10.0)


def check_capacity_decay(corpus, model):
    margins = []
    ts = np.geomspace(1.0, 64.0, 25)
    for e in corpus.profiles:
        phi = e.phi
        if np.any(np.diff(phi.offset) < -1e-12):
            continue
        C = cap_mod.decay_constant(model, phi)
        if not np.isfinite(C):
            continue
        for t in ts:
            c = cap_mod.capacity(model, cap_mod.phi_sublevel(phi, t))
            margins.append(C / t ** 2 - c)
    return _report("sublevel-capacity-decay", margins)


def check_ma_continuity(corpus, model):
    margins = []
    for chain in corpus_chains(corpus):
        limit = ma.ma_measure(model, chain[-1])
        d = [ma.cdf_sup_distance(ma.ma_measure(model, phi), limit)
             for phi in chain[:-1]]
        # convergence, not monotonicity: only the terminal distance counts
        margins.append(1e-3 - d[-1])
    return _report("ma-continuity-decreasing", margins)


def check_energy_functional_convergence(corpus, model):
    # convergence of the mixed linear energy forces Sobolev convergence
    margins = []
    for chain in corpus_chains(corpus):
        tail = chain[-1]
        e_tail = energy.ep_integral(model, tail, 1.0, 1)
        e_last = energy.ep_integral(model, chain[-2], 1.0, 1)
        if abs(e_last - e_tail) < 1e-3:
            margins.append(1e-2 - energy.sobolev_distance(model, chain[-2], tail))
    return _report("energy-to-sobolev", margins)


def _test_functions(grid):
    centers = np.linspace(-22.0, 23.0, 10)
    return [np.exp(-((grid - c) ** 2) / 50.0) for c in centers]


def weak_continuity_error(model, phi_j, phi, test_fns=None):
    """Worst weak-pairing error of (-phi_j) MA(phi_j) against (-phi) MA(phi)."""
    g = phi.base.grid
    fns = test_fns if test_fns is not None else _test_functions(g)
    mj = ma.ma_measure(model, phi_j)
    m0 = ma.ma_measure(model, phi)
    err = 0.0
    for u in fns:
        a = ma.weighted_mass(mj, u * np.maximum(-phi_j.offset, 0.0), 0.0, 0.0)
        b = ma.weighted_mass(m0, u * np.maximum(-phi.offset, 0.0), 0.0, 0.0)
        err = max(err, abs(a - b))
    return err


def check_weak_continuity(corpus, model):
    margins = []
    for chain in corpus_chains(corpus):
        margins.append(1e-4 - weak_continuity_error(model, chain[-2], chain[-1]))
    return _report("weighted-ma-weak-continuity", margins)


def check_energy_order(corpus, model):
    margins = []
    for e in corpus.with_tag("bounded"):
        phi = e.phi
        e0 = energy.ep_integral(model, phi, 1.0, 0)
        e1 = energy.ep_integral(model, phi, 1.0, 1)
        e2 = energy.ep_integral(model, phi, 1.0, 2)
        margins.extend([e1 - e0, e2 - e1])
    return _report("linear-energy-order", margins, 10.0)


def check_cross_energy(corpus, model):
    margins = []
    bounded = [e.phi for e in corpus.with_tag("bounded")]
    for i, phi in enumerate(bounded):
        psi = bounded[(i + 1) % len(bounded)]
        data = energy.energy_concavity_data(model, phi, psi, 1.0)
        margins.extend([data["margin_phi"], data["margin_psi"]])
    return _report("cross-energy-six-bound", margins, 10.0)


def check_gradient_self_bound(corpus, model):
    margins = []
    for e in corpus.with_tag("bounded"):
        phi = e.phi
        lhs = ma.gradient_current_mass(model, phi, phi)
        rhs = energy.ep_integral(model, phi, 1.0, 2)
        margins.append(rhs - lhs)
    return _report("gradient-energy-bound", margins, 10.0)


def check_uniqueness(corpus, model):
    margins = []
    for e in corpus.with_tag("bounded"):
        res = solver.solve_radial(model, ma.ma_measure(model, e.phi))
        rec = solver.uniqueness_check(model, res.psi, e.phi)
        margins.append(1e-5 - rec["deviation"])
    return _report("uniqueness-up-to-constant", margins)


def check_triple_continuity(corpus, model):
    margins = []
    for chain in corpus_chains(corpus):
        u = chain[0]  # bounded member of the chain
        tail = chain[-1]
        a = energy.ep_integral(model, u, 1.0, 2)  # placeholder scale
        vals = []
        for phi in chain[-3:]:
            m = ma.mixed_measure(model, phi, tail)
            vals.append(energy._moment(m, u, 1.0))
        margins.append(1e-3 * max(1.0, a) - abs(vals[-1] - vals[-2]))
    return _report("triple-decreasing-continuity", margins)


def _fit_holdout(pairs_lhs_rhs, power):
    """Fit A on the first half so lhs <= A * rhs**power, verify on the rest."""
    fit = pairs_lhs_rhs[0::2]
    hold = pairs_lhs_rhs[1::2]
    ratios = [l / max(r ** power, 1e-300) for l, r in fit]
    A = 2.0 * max(ratios) if ratios else 1.0
    margins = [A * r ** power - l for l, r in hold]
    return A, margins


def check_l1_criterion(corpus, model):
    singular = corpus.with_tag("divisor_bounded")
    if not singular:
        return _report("l1-criterion-constant", [])
    mu = ma.ma_measure(model, singular[0].phi)
    data = []
    for e in corpus.with_tag("bounded"):
        phi = e.phi
        lhs = ma.weighted_mass(mu, np.maximum(-phi.offset, 0.0), 1.0, 1.0)
        rhs = energy.ep_integral(model, phi, 1.0, 2)
        data.append((lhs, rhs))
    A, margins = _fit_holdout(data, 0.5)
    return _report("l1-criterion-constant", margins, 10.0,
                   {"fitted_constant": A})


def check_lp_criterion(corpus, model, p=2.0):
    singular = corpus.with_tag("divisor_bounded")
    if not singular:
        return _report("lp-criterion-constant", [])
    mu = ma.ma_measure(model, singular[-1].phi)
    data = []
    for e in corpus.with_tag("bounded"):
        phi = e.phi
        w = np.power(np.maximum(-phi.offset, 0.0), p)
        lhs = ma.weighted_mass(mu, w, 1.0, 1.0)
        rhs = energy.ep_integral(model, phi, p, 2)
        data.append((lhs, rhs))
    A, margins = _fit_holdout(data, p / (p + 1.0))
    return _report("lp-criterion-constant", margins, 10.0,
                   {"fitted_constant": A})


def check_weighted_chain(corpus, model, p=2.0):
    margins = []
    for phi, psi in ordered_pairs(corpus):
        wphi = np.power(np.maximum(-phi.offset, 0.0), p)
        wpsi = np.power(np.maximum(-psi.offset, 0.0), p)
        a0 = ma.weighted_mass(ma.ma_measure(model, None), wphi, 0.0, 0.0)
        a1 = ma.weighted_mass(ma.mixed_measure(model, phi, None), wphi, 0.0, 0.0)
        a2 = ma.weighted_mass(ma.ma_measure(model, phi), wphi, 0.0, 0.0)
        b1 = ma.weighted_mass(ma.mixed_measure(model, psi, None), wpsi, 0.0, 0.0)
        b2 = ma.weighted_mass(ma.ma_measure(model, psi), wpsi, 0.0, 0.0)
        margins.extend([
            a1 - a0, a2 - a1,                      # ordered wedge chain
            (p + 1.0) * a1 - b1,                   # linear-wedge comparison
            (p + 1.0) ** 2 * a2 - b2,              # full-measure comparison
        ])
    return _report("weighted-energy-chain", margins, 100.0)


def check_truncation_free(corpus, model):
    margins = []
    for e in corpus.with_tag("alpha_family") + corpus.with_tag("divisor_bounded"):
        v2 = energy.ep_limit(model, e.phi, 1.0, 2)
        if 0.9 <= v2.rho <= 1.02:
            continue  # inside the classifier's resolution band

        # a different cutoff subsequence must give the same verdict
        depth, cut = energy._truncations(e.phi, model)
        ks = energy.cutoff_ladder(depth, start=1.5)
        alt = energy.ladder_verdict(
            ks, [energy.ep_integral(model, cut(k), 1.0, 2) for k in ks], depth)
        margins.append(1.0 if alt.finite == v2.finite else -1.0)
    return _report("cutoff-sequence-free", margins)


def check_convergence_in_capacity(corpus, model):
    margins = []
    for e in corpus.with_tag("divisor_bounded"):
        phi = e.phi
        caps = [cap_mod.capacity(model, cap_mod.phi_sublevel(phi, k))
                for k in (4.0, 16.0, 64.0)]
        margins.extend(-np.diff(caps))
        margins.append(0.05 - caps[-1])
    return _report("truncation-capacity-convergence", margins)


def check_max_in_ep(corpus, model, p=2.0):
    margins = []
    members = corpus.with_tag("alpha_family")
    bounded = corpus.with_tag("bounded")
    for e, b in zip(members, bounded):
        if energy.ep_limit(model, e.phi, p, 2).finite:
            top = max_offsets(e.phi, b.phi)
            margins.append(1.0 if energy.ep_limit(model, top, p, 2).finite else -1.0)
    return _report("max-stable-in-ep", margins)


def check_cross_energy_p(corpus, model, p=2.0):
    margins = []
    bounded = [e.phi for e in corpus.with_tag("bounded")]
    for i, phi in enumerate(bounded):
        psi = bounded[(i + 1) % len(bounded)]
        data = energy.energy_concavity_data(model, phi, psi, p)
        margins.extend([data["margin_phi"], data["margin_psi"]])
        # weighted gradient pairing stays finite for bounded members
        g = phi.base.grid
        mid_off = 0.5 * (phi.offset[:-1] + phi.offset[1:])
        w = np.power(np.maximum(-mid_off, 0.0), p - 1.0)
        val = ma.gradient_current_mass(model, phi, phi, weight=w)
        margins.append(1.0 if np.isfinite(val) else -1.0)
    return _report("weighted-cross-energy", margins, 10.0)


def check_demailly(corpus, model):
    margins = []
    members = [e.phi for e in corpus.profiles]
    for i, phi in enumerate(members):
        psi = members[(i + 1) % len(members)]
        margins.append(ma.demailly_margin(model, phi, psi, c=0.5))
    return _report("local-max-domination", margins)


def check_a_priori_energy(corpus, model):
    margins = []
    for e in corpus.with_tag("divisor_bounded")[:5]:
        phi = e.phi
        lhs_rhs = []
        for k in (2.0, 4.0, 8.0, 16.0, 32.0):
            mu = ma.ma_measure(model, truncate(phi, k))
            res = solver.solve_radial(model, mu)
            sol = res.psi
            lhs = energy.ep_integral(model, sol, 1.0, 2)
            rhs = ma.weighted_mass(mu, np.maximum(-sol.offset, 0.0), 0.0, 0.0)
            lhs_rhs.append((lhs, rhs))
        C = 2.0 * max(l / max(r, 1e-300) for l, r in lhs_rhs[:2])
        margins.extend([C * r - l for l, r in lhs_rhs[2:]])
    return _report("solver-energy-a-priori", margins, 10.0)


def check_mollification_consistency(corpus, model):
    margins = []
    for e in corpus.with_tag("divisor_bounded")[:10]:
        phi = e.phi
        vals = []
        for k in (4.0, 16.0, 64.0):
            cut = truncate(phi, k)
            mu = ma.ma_measure(model, cut)
            diff = np.abs(cut.offset - phi.offset)
            vals.append(ma.weighted_mass(mu, diff, 0.0, 0.0))
        # the sequence converges to zero; it need not be monotone
        margins.append(vals[0] - vals[-1])
        margins.append(1e-3 - vals[-1])
    return _report("mollification-consistency", margins)


def check_uniform_l2(corpus, model):
    bounded = [e.phi for e in corpus.with_tag("bounded")]
    data = []
    for i, phi in enumerate(bounded):
        u = scale(bounded[(i + 1) % len(bounded)].normalized(0.0), 1.0)
        u = RelativeProfile(u.base, np.maximum(u.offset, -1.0))
        w = np.power(np.maximum(-phi.offset, 0.0), 2.0)
        lhs = ma.weighted_mass(ma.ma_measure(model, u), w, 0.0, 0.0)
        rhs = ma.weighted_mass(ma.ma_measure(model, phi), w, 0.0, 0.0)
        data.append((lhs, rhs))
    A, margins = _fit_holdout(data, 0.5)
    return _report("uniform-l2-bound", margins, 10.0,
                   {"fitted_constant": A})


def check_comparison(corpus, model):
    margins = []
    bounded = [e.phi for e in corpus.with_tag("bounded")]
    for i, phi in enumerate(bounded):
        psi = bounded[(i + 1) % len(bounded)]
        lhs, rhs = ma.comparison_masses(model, phi, psi)
        margins.append(rhs - lhs)
    return _report("comparison-principle", margins)


def check_sandwich(corpus, model, p=1.0):
    margins = []
    members = [e for e in corpus.profiles
               if not np.any(np.diff(e.phi.offset) < -1e-12)]
    for e in members[::max(1, len(members) // 40)]:
        vals = cap_mod.capacity_energy_sandwich(model, e.phi, p)
        if not np.isfinite(vals["sandwich_upper"]):
            continue
        margins.append(vals["sandwich_mid"] - vals["sandwich_lower"])
        margins.append(vals["sandwich_upper"] - vals["sandwich_mid"])
    return _report("capacity-energy-sandwich", margins, 100.0)


def check_eq6(corpus, model):
    margins = []
    ts = np.geomspace(1.0, 64.0, 15)
    for e in corpus.profiles:
        phi = e.phi
        if np.any(np.diff(phi.offset) < -1e-12):
            continue
        m = ma.ma_measure(model, phi)
        masses = cap_mod.sublevel_masses(m, phi, ts)
        for t, mass in zip(ts, masses):
            c = cap_mod.capacity(model, cap_mod.phi_sublevel(phi, t))
            margins.append(t ** 2 * c - mass)
    return _report("sublevel-mass-vs-capacity", margins, 100.0)


def check_eq7(corpus, model):
    margins = []
    ts = np.geomspace(1.0, 32.0, 10)
    for e in corpus.profiles:
        phi = e.phi
        if np.any(np.diff(phi.offset) < -1e-12):
            continue
        m0 = ma.ma_measure(model, None)
        m1 = ma.mixed_measure(model, phi, None)
        m2 = ma.ma_measure(model, phi)
        for t in ts:
            rhs = cap_mod.sublevel_masses(m0, phi, [t])[0] \
                + 2.0 / t * cap_mod.sublevel_masses(m1, phi, [t])[0] \
                + 1.0 / t ** 2 * cap_mod.sublevel_masses(m2, phi, [t])[0]
            lhs = cap_mod.capacity(model, cap_mod.phi_sublevel(phi, 2.0 * t))
            margins.append(rhs - lhs)
    return _report("capacity-split-bound", margins, 10.0)


def check_divisor_integrability(corpus, model, p=1.0):
    margins = []
    for e in corpus.with_tag("divisor_bounded"):
        v = energy.ep_limit(model, e.phi, p + 1.0, 1)
        in_ep = energy.ep_limit(model, e.phi, p, 2).finite
        if in_ep:
            margins.append(1.0 if v.finite else -1.0)
    return _report("divisor-bounded-integrability", margins)


def check_energy_holder(corpus, model, p=2.0):
    gamma = 0.25 if p == 1.0 else (1.0 - 1.0 / p) ** 2
    bounded = [e.phi for e in corpus.with_tag("bounded")]
    psi = bounded[0]
    mu = ma.ma_measure(model, psi)
    data = []
    for phi in bounded[1:]:
        u = phi.normalized(0.0)
        u = RelativeProfile(u.base, np.maximum(u.offset, -1.0))
        w = np.power(np.maximum(-u.offset, 0.0), p)
        lhs = ma.weighted_mass(mu, w, 0.0, 0.0)
        rhs = ma.weighted_mass(ma.ma_measure(model, u), w, 0.0, 0.0)
        data.append((lhs, rhs))
    A, margins = _fit_holdout(data, gamma)
    return _report("energy-holder-domination", margins, 10.0,
                   {"fitted_constant": A, "gamma": gamma})


def check_capacity_domination(corpus, model, p=2.0):
    gamma = 0.25 if p == 1.0 else (1.0 - 1.0 / p) ** 2
    bounded = [e.phi for e in corpus.with_tag("bounded")]
    singular = [e.phi for e in corpus.with_tag("divisor_bounded")]
    if not singular:
        return _report("measure-capacity-domination", [])
    mu = ma.ma_measure(model, bounded[0])
    data = []
    ts = np.geomspace(1.0, 32.0, 8)
    for phi in singular:
        masses = cap_mod.sublevel_masses(mu, phi, ts)
        for t, mass in zip(ts, masses):
            c = cap_mod.capacity(model, cap_mod.phi_sublevel(phi, t))
            data.append((mass, c))
    A, margins = _fit_holdout(data, gamma)
    return _report("measure-capacity-domination", margins, 1.0,
                   {"fitted_constant": A, "alpha": gamma})


def check_gradient_threshold(corpus, model):
    margins = []
    for e in corpus.with_tag("alpha_family"):
        alpha = e.tags["alpha_family"]
        g = energy.gradient_energy_verdict(model, e.phi)
        if alpha <= 0.49:
            margins.append(1.0 if g.finite else -1.0)
        elif alpha >= 0.51:
            margins.append(1.0 if not g.finite else -1.0)
    return _report("gradient-energy-threshold", margins)


CHECKS = {
    "mixed-mass-probability": ("Prop 1.3", check_mixed_mass),
    "class-star-shaped": ("Prop 1.3", check_star_shaped),
    "max-stable": ("Prop 1.3", check_max_stable),
    "gradient-energy-threshold": ("Prop 1.5", check_gradient_threshold),
    "chain-sobolev-convergence": ("Lemma 1.1", check_chain_sobolev),
    "sublevel-capacity-decay": ("Prop 2.3", check_capacity_decay),
    "ma-continuity-decreasing": ("Cor 2.2", check_ma_continuity),
    "energy-to-sobolev": ("Thm 2.1", check_energy_functional_convergence),
    "weighted-ma-weak-continuity": ("Thm 3.1", check_weak_continuity),
    "linear-energy-order": ("Prop 3.2", check_energy_order),
    "cross-energy-six-bound": ("Prop 3.2", check_cross_energy),
    "gradient-energy-bound": ("Prop 3.2", check_gradient_self_bound),
    "uniqueness-up-to-constant": ("Thm 3.4", check_uniqueness),
    "triple-decreasing-continuity": ("Thm 3.3", check_triple_continuity),
    "l1-criterion-constant": ("Lemma 3.6", check_l1_criterion),
    "lp-criterion-constant": ("Lemma 4.7", check_lp_criterion),
    "weighted-energy-chain": ("Lemma 4.2", check_weighted_chain),
    "cutoff-sequence-free": ("Cor 4.3", check_truncation_free),
    "truncation-capacity-convergence": ("Thm 4.4", check_convergence_in_capacity),
    "max-stable-in-ep": ("Cor 4.5", check_max_in_ep),
    "weighted-cross-energy": ("Prop 4.6", check_cross_energy_p),
    "local-max-domination": ("Thm 4.8", check_demailly),
    "solver-energy-a-priori": ("Lemma 5.3", check_a_priori_energy),
    "mollification-consistency": ("Lemma 5.4", check_mollification_consistency),
    "uniform-l2-bound": ("Lemma 5.5", check_uniform_l2),
    "comparison-principle": ("Prop 6.1", check_comparison),
    "capacity-energy-sandwich": ("Lemma 6.2", check_sandwich),
    "sublevel-mass-vs-capacity": ("Eq (6)", check_eq6),
    "capacity-split-bound": ("Eq (7)", check_eq7),
    "divisor-bounded-integrability": ("Prop 6.4", check_divisor_integrability),
    "energy-holder-domination": ("Eq (9)", check_energy_holder),
    "measure-capacity-domination": ("Prop 6.5", check_capacity_domination),
}

for _cid, (_cit, _) in CHECKS.items():
    if _cit not in IN_SCOPE:
        raise ImportError(f"check {_cid} cites out-of-scope item {_cit}")


def run_checks(corpus, model, checks=None):
    """Run the registered checks; deterministic per (seed, model, list)."""
    require(model, RADIAL_P2, "the verify checks")
    if checks is None:
        checks = list(CHECKS)
    reports = []
    for cid in checks:
        if cid not in CHECKS:
            raise InvalidInput(f"unknown check id {cid!r}")
        citation, fn = CHECKS[cid]
        reports.append(fn(corpus, model))
    return sorted(reports, key=lambda r: r.check_id)
