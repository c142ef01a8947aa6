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
from functools import partial

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


def divisor_seed(base):
    """Zero-slope potential, singular along the divisor at infinity."""
    return RelativeProfile(base, -base.values - 1.0)


def point_seed(base):
    """Full-slope potential, singular at the fixed point, Lelong mass 1."""
    return RelativeProfile(base, base.grid / 2 - base.values - 1.0)


def _alpha_member(base, alpha):
    """Power-of-singularity family along the divisor at infinity."""
    return compose_weight(divisor_seed(base), ("power", alpha))


def _point_alpha_member(base, alpha):
    """Power-of-singularity family at the fixed point; bounded near the
    divisor, hence also tagged as divisor-bounded."""
    return compose_weight(point_seed(base), ("power", alpha))


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
    """Deterministic demo potential: the first member of the seed's corpus,
    which is bounded, drawn without building the corpus."""
    return _bounded_member(radial_p2().reference_potential, np.random.default_rng(seed))


def corpus_chains(corpus):
    """Group the chain-tagged entries by chain id, sorted by index."""
    chains = {}
    for e in corpus.profiles:
        if "decreasing_chain" in e.tags:
            cid, idx = e.tags["decreasing_chain"]
            chains.setdefault(cid, []).append((idx, e.phi))
    out = [[phi for _, phi in sorted(v)] for _, v in sorted(chains.items())]
    return [c for c in out if len(c) >= 2]


def _cyclic_pairs(xs):
    """Each member of the list xs with the next one, the last with the first."""
    return list(zip(xs, xs[1:] + xs[:1]))


def _bounded(corpus):
    """The potentials of the bounded members."""
    return [e.phi for e in corpus.with_tag("bounded")]


def _monotone(corpus):
    """The members whose sublevels are sets {t <= T} (capacity.is_monotone)."""
    return [corpus.profiles[i].phi for i in _monotone_members(corpus)]


def _monotone_members(corpus):
    """Indices in corpus.profiles of the monotone members (:func:`_monotone`)."""
    return [i for i, e in enumerate(corpus.profiles) if cap_mod.is_monotone(e.phi)]


def _tagged(corpus, tag):
    """Indices in corpus.profiles of the members tagged tag."""
    return [i for i, e in enumerate(corpus.profiles) if tag in e.tags]


def _divisor_bounded(corpus):
    """The divisor-bounded members."""
    return _tagged(corpus, "divisor_bounded")


def _singular(corpus):
    """The alpha-family members, then the divisor-bounded ones."""
    return _tagged(corpus, "alpha_family") + _divisor_bounded(corpus)


def _sandwiched(corpus):
    """The monotone members that the sandwich check reads: every (n // 40)-th
    of the n monotone members, or all of them when n < 80."""
    members = _monotone_members(corpus)
    return members[::max(1, len(members) // 40)]


def _paired_alpha(corpus):
    """The alpha-family members that max-stable-in-ep pairs with a bounded one."""
    return _tagged(corpus, "alpha_family")[:len(_tagged(corpus, "bounded"))]


def _holder_exponent(p):
    """Exponent of the Holder-type dominations Eq (9) and Prop 6.5 at p."""
    return 0.25 if p == 1.0 else (1.0 - 1.0 / p) ** 2


def ordered_pairs(corpus):
    """Deterministic ordered pairs phi <= psi <= 0 from bounded members."""
    pairs = []
    for phi, nxt in _cyclic_pairs(_bounded(corpus)):
        pairs += [(phi, max_offsets(phi, nxt)), (phi, scale(phi, 0.5))]
    return pairs


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------

def _report(cid, margins, scale_hint=1.0, details=None):
    """Report of check cid, with its citation read from CHECKS."""
    margins = np.asarray(margins, dtype=float)
    tol = SLACK * max(scale_hint, 1.0)
    failures = int(np.sum(~(margins >= -tol)))  # a NaN margin fails too
    worst = float(margins.min()) if margins.size else 0.0
    return CheckReport(cid, CHECKS[cid][0], int(margins.size), failures, worst,
                       details or {})


def check_mixed_mass(corpus, model):
    margins = []
    for phi, psi in _cyclic_pairs([e.phi for e in corpus.profiles]):
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
    for phi, psi in _cyclic_pairs([e.phi for e in corpus.profiles]):
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


def check_capacity_decay(corpus, model, limits=None):
    limits = limits or member_limits(corpus, model, ["sublevel-capacity-decay"])
    margins = []
    ts = np.geomspace(1.0, 64.0, 25)
    for i in _monotone_members(corpus):
        C = cap_mod.decay_constant(model, partial(limits, i))
        if not np.isfinite(C):
            continue
        caps = cap_mod.sublevel_capacity(model, corpus.profiles[i].phi, ts)
        margins.extend(C / ts ** 2 - caps)
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


def weak_continuity_error(model, phi_j, phi):
    """Worst weak-pairing error of (-phi_j) MA(phi_j) against (-phi) MA(phi)."""
    mj = ma.ma_measure(model, phi_j)
    m0 = ma.ma_measure(model, phi)
    err = 0.0
    for u in _test_functions(phi.base.grid):
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
    for phi in _bounded(corpus):
        e0 = energy.ep_integral(model, phi, 1.0, 0)
        e1 = energy.ep_integral(model, phi, 1.0, 1)
        e2 = energy.ep_integral(model, phi, 1.0, 2)
        margins.extend([e1 - e0, e2 - e1])
    return _report("linear-energy-order", margins, 10.0)


def check_cross_energy(corpus, model):
    margins = []
    for phi, psi in _cyclic_pairs(_bounded(corpus)):
        data = energy.energy_concavity_data(model, phi, psi, 1.0)
        margins.extend([data["margin_phi"], data["margin_psi"]])
    return _report("cross-energy-six-bound", margins, 10.0)


def check_gradient_self_bound(corpus, model):
    margins = []
    for phi in _bounded(corpus):
        lhs = ma.gradient_current_mass(model, phi, phi)
        rhs = energy.ep_integral(model, phi, 1.0, 2)
        margins.append(rhs - lhs)
    return _report("gradient-energy-bound", margins, 10.0)


def check_uniqueness(corpus, model):
    margins = []
    for phi in _bounded(corpus):
        res = solver.solve_radial(model, ma.ma_measure(model, phi))
        rec = solver.uniqueness_check(model, res.psi, phi)
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


def _criterion(corpus, model, check_id, p, singular_index):
    """Fit A with int (-phi)^p dmu <= A E_p(phi)^(p/(p+1)) over the bounded
    members, mu the measure of one divisor-bounded member."""
    singular = corpus.with_tag("divisor_bounded")
    if not singular:
        return _report(check_id, [])
    mu = ma.ma_measure(model, singular[singular_index].phi)
    data = []
    for phi in _bounded(corpus):
        lhs = energy._moment(mu, phi, p)
        rhs = energy.ep_integral(model, phi, p, 2)
        data.append((lhs, rhs))
    A, margins = _fit_holdout(data, p / (p + 1.0))
    return _report(check_id, margins, 10.0, {"fitted_constant": A})


def check_l1_criterion(corpus, model):
    return _criterion(corpus, model, "l1-criterion-constant", 1.0, 0)


def check_lp_criterion(corpus, model):
    return _criterion(corpus, model, "lp-criterion-constant", 2.0, -1)


def check_weighted_chain(corpus, model):
    p = 2.0
    margins = []
    for phi, psi in ordered_pairs(corpus):
        a0, a1, a2 = (energy.ep_integral(model, phi, p, j) for j in range(3))
        b1, b2 = (energy.ep_integral(model, psi, p, j) for j in (1, 2))
        margins.extend([
            a1 - a0, a2 - a1,                      # ordered wedge chain
            (p + 1.0) * a1 - b1,                   # linear-wedge comparison
            (p + 1.0) ** 2 * a2 - b2,              # full-measure comparison
        ])
    return _report("weighted-energy-chain", margins, 100.0)


def check_truncation_free(corpus, model, limits=None):
    limits = limits or member_limits(corpus, model, ["cutoff-sequence-free"])
    margins = []
    for i in _singular(corpus):
        v2 = limits(i, 1.0, 2)
        if 0.9 <= v2.rho <= 1.02:
            continue  # inside the classifier's resolution band

        # a different cutoff subsequence must give the same verdict
        phi = corpus.profiles[i].phi
        alt = energy.ladder_limit(model, energy.cutoffs(model, phi, start=1.5), 1.0)
        margins.append(1.0 if alt.finite == v2.finite else -1.0)
    return _report("cutoff-sequence-free", margins)


def check_convergence_in_capacity(corpus, model):
    margins = []
    for e in corpus.with_tag("divisor_bounded"):
        caps = cap_mod.sublevel_capacity(model, e.phi, [4.0, 16.0, 64.0])
        margins.extend(-np.diff(caps))
        margins.append(0.05 - caps[-1])
    return _report("truncation-capacity-convergence", margins)


def check_max_in_ep(corpus, model, limits=None):
    limits = limits or member_limits(corpus, model, ["max-stable-in-ep"])
    margins = []
    for i, b in zip(_paired_alpha(corpus), corpus.with_tag("bounded")):
        if limits(i, 2.0, 2).finite:
            top = max_offsets(corpus.profiles[i].phi, b.phi)
            margins.append(1.0 if energy.ep_limit(model, top, 2.0).finite else -1.0)
    return _report("max-stable-in-ep", margins)


def check_cross_energy_p(corpus, model):
    p = 2.0
    margins = []
    for phi, psi in _cyclic_pairs(_bounded(corpus)):
        data = energy.energy_concavity_data(model, phi, psi, p)
        margins.extend([data["margin_phi"], data["margin_psi"]])
        # weighted gradient pairing stays finite for bounded members
        mid_off = 0.5 * (phi.offset[:-1] + phi.offset[1:])
        w = np.power(np.maximum(-mid_off, 0.0), p - 1.0)
        val = ma.gradient_current_mass(model, phi, phi, weight=w)
        margins.append(1.0 if np.isfinite(val) else -1.0)
    return _report("weighted-cross-energy", margins, 10.0)


def check_demailly(corpus, model):
    margins = []
    for phi, psi in _cyclic_pairs([e.phi for e in corpus.profiles]):
        margins.append(ma.demailly_margin(model, phi, psi))
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
            rhs = energy._moment(mu, sol, 1.0)
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
    data = []
    for phi, nxt in _cyclic_pairs(_bounded(corpus)):
        u = truncate(nxt.normalized(0.0), 1.0)
        lhs = energy._moment(ma.ma_measure(model, u), phi, 2.0)
        rhs = energy.ep_integral(model, phi, 2.0)
        data.append((lhs, rhs))
    A, margins = _fit_holdout(data, 0.5)
    return _report("uniform-l2-bound", margins, 10.0,
                   {"fitted_constant": A})


def check_comparison(corpus, model):
    margins = []
    for phi, psi in _cyclic_pairs(_bounded(corpus)):
        lhs, rhs = ma.comparison_masses(model, phi, psi)
        margins.append(rhs - lhs)
    return _report("comparison-principle", margins)


def check_sandwich(corpus, model, limits=None):
    limits = limits or member_limits(corpus, model, ["capacity-energy-sandwich"])
    margins = []
    for i in _sandwiched(corpus):
        vals = cap_mod.capacity_energy_sandwich(model, corpus.profiles[i].phi,
                                                partial(limits, i))
        if not np.isfinite(vals["sandwich_upper"]):
            continue
        margins.append(vals["sandwich_mid"] - vals["sandwich_lower"])
        margins.append(vals["sandwich_upper"] - vals["sandwich_mid"])
    return _report("capacity-energy-sandwich", margins, 100.0)


def check_eq6(corpus, model):
    margins = []
    ts = np.geomspace(1.0, 64.0, 15)
    for phi in _monotone(corpus):
        masses = cap_mod.sublevel_masses(ma.ma_measure(model, phi), phi, ts)
        caps = cap_mod.sublevel_capacity(model, phi, ts)
        margins.extend(ts ** 2 * caps - masses)
    return _report("sublevel-mass-vs-capacity", margins, 100.0)


def check_eq7(corpus, model):
    margins = []
    ts = np.geomspace(1.0, 32.0, 10)
    m0 = ma.ma_measure(model, None)
    for phi in _monotone(corpus):
        m1 = ma.mixed_measure(model, phi, None)
        m2 = ma.ma_measure(model, phi)
        rhs = cap_mod.sublevel_masses(m0, phi, ts) \
            + 2.0 / ts * cap_mod.sublevel_masses(m1, phi, ts) \
            + 1.0 / ts ** 2 * cap_mod.sublevel_masses(m2, phi, ts)
        lhs = cap_mod.sublevel_capacity(model, phi, 2.0 * ts)
        margins.extend(rhs - lhs)
    return _report("capacity-split-bound", margins, 10.0)


def check_divisor_integrability(corpus, model, limits=None):
    # at p = 1: a finite E_1 must give a finite E_2 against the mixed wedge
    limits = limits or member_limits(corpus, model, ["divisor-bounded-integrability"])
    margins = []
    for i in _divisor_bounded(corpus):
        if limits(i, 1.0, 2).finite:
            margins.append(1.0 if limits(i, 2.0, 1).finite else -1.0)
    return _report("divisor-bounded-integrability", margins)


def check_energy_holder(corpus, model, p=2.0):
    gamma = _holder_exponent(p)
    bounded = _bounded(corpus)
    mu = ma.ma_measure(model, bounded[0])
    data = []
    for phi in bounded[1:]:
        u = truncate(phi.normalized(0.0), 1.0)
        lhs = energy._moment(mu, u, p)
        rhs = energy.ep_integral(model, u, p)
        data.append((lhs, rhs))
    A, margins = _fit_holdout(data, gamma)
    return _report("energy-holder-domination", margins, 10.0,
                   {"fitted_constant": A, "gamma": gamma})


def check_capacity_domination(corpus, model, p=2.0):
    gamma = _holder_exponent(p)
    singular = [e.phi for e in corpus.with_tag("divisor_bounded")]
    if not singular:
        return _report("measure-capacity-domination", [])
    mu = ma.ma_measure(model, _bounded(corpus)[0])
    data = []
    ts = np.geomspace(1.0, 32.0, 8)
    for phi in singular:
        masses = cap_mod.sublevel_masses(mu, phi, ts)
        caps = cap_mod.sublevel_capacity(model, phi, ts)
        data.extend(zip(masses, caps))
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


# The verdicts that a check reads off the start-1 cutoff ladders of corpus
# members: check id -> (its members, as indices into corpus.profiles, and
# the (p, j) orders of ladder_limit it may read for each).
LADDER_READS = {
    "sublevel-capacity-decay": (_monotone_members, ((2.0, 0), (1.0, 1))),
    "cutoff-sequence-free": (_singular, ((1.0, 2),)),
    "max-stable-in-ep": (_paired_alpha, ((2.0, 2),)),
    "capacity-energy-sandwich": (_sandwiched, ((1.0, 2), (2.0, 1), (3.0, 0))),
    "divisor-bounded-integrability": (_divisor_bounded, ((1.0, 2), (2.0, 1))),
}


def member_limits(corpus, model, checks):
    """limits(i, p, j): the (p, j) ladder_limit verdict of member i of
    corpus along its start-1 cutoff ladder, for every verdict that the
    checks read (LADDER_READS).  Corpus members have sup <= 0, so these
    are also the verdicts along the ladder that
    :func:`capacity.capacity_energy_sandwich` builds by default.

    The first read of a member builds its ladder, takes every verdict the
    checks read of it, and drops the ladder: each member's ladder is built
    once, and one ladder is held at a time.  Nothing is kept past the
    returned function.
    """
    orders = {}
    for members, pjs in (LADDER_READS[cid] for cid in checks if cid in LADDER_READS):
        for i in members(corpus):
            orders.setdefault(i, {}).update(dict.fromkeys(pjs))
    verdicts = {}

    def limits(i, p, j):
        if i not in verdicts:
            ladder = energy.cutoffs(model, corpus.profiles[i].phi)
            verdicts[i] = {pj: energy.ladder_limit(model, ladder, *pj) for pj in orders[i]}
        return verdicts[i][p, j]

    return limits


def run_checks(corpus, model, checks=None):
    """Run the registered checks, each id once; deterministic per (seed,
    model, list).  The checks share one :func:`member_limits`, so a run
    builds each member's start-1 cutoff ladder at most once."""
    require(model, RADIAL_P2, "the verify checks")
    checks = list(dict.fromkeys(CHECKS if checks is None else checks))
    for cid in checks:
        if cid not in CHECKS:
            raise InvalidInput(f"unknown check id {cid!r}")
    limits = member_limits(corpus, model, checks)
    reports = []
    for cid in checks:
        fn = CHECKS[cid][1]
        reports.append(fn(corpus, model, limits) if cid in LADDER_READS else fn(corpus, model))
    return sorted(reports, key=lambda r: r.check_id)
