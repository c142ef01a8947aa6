"""Quantitative acceptance gates.

Each test pins one end-to-end claim of the package at a stated
tolerance: mass normalization, the Dirac anchor, the gradient and E^p
membership thresholds, the capacity decay law, the inequality harness
at corpus scale, solver round trips with refinement, uniqueness and its
failure mode, weak continuity along chains, and the fitted-constant
dominations.  The slow corpus fixtures are session-scoped (conftest).
"""

import numpy as np
import pytest

import ma_lab.capacity as cap_mod
from ma_lab import energy, ma, models, solver, verify
from ma_lab.profiles import RelativeProfile, compose_weight, max_offsets, scale


def singular_profile(model):
    base = model.reference_potential
    return RelativeProfile(base, base.grid / 2 - base.values - 1.0)


# 1 ------------------------------------------------------------------

def test_mass_normalization(radial, product):
    m = ma.ma_measure(radial, None)
    assert abs(m.total_mass / radial.volume - 1.0) <= 1e-10
    m = ma.ma_measure(product, None)
    assert abs(m.total_mass / product.volume - 1.0) <= 1e-10
    toric = models.toric_p1p1(64)
    m = ma.ma_measure(toric, None)
    assert abs(m.total_mass / toric.volume - 1.0) <= 1e-6


# 2 ------------------------------------------------------------------

def test_dirac_anchor(radial):
    base = radial.reference_potential
    psi = RelativeProfile(base, base.grid / 2 - base.values)
    m = ma.ma_measure(radial, psi)
    assert len(m.atoms) == 1
    assert abs(m.atom_mass(ma.FIXED_POINT) - 1.0) <= 1e-12
    assert np.abs(m.density).max() <= 1e-12


# 3 ------------------------------------------------------------------

def test_gradient_energy_threshold(radial):
    base = radial.reference_potential
    seed = RelativeProfile(base, -base.values - 1.0)
    for alpha in (0.30, 0.40, 0.49):
        g = energy.gradient_energy_verdict(radial, compose_weight(seed, ("power", alpha)))
        assert g.finite, alpha
        assert g.value <= alpha ** 2 / (1.0 - 2.0 * alpha) + 1e-6, alpha
    for alpha in (0.51, 0.60):
        g = energy.gradient_energy_verdict(radial, compose_weight(seed, ("power", alpha)))
        assert not g.finite, alpha


# 4 ------------------------------------------------------------------

def test_capacity_decay_law(radial):
    phi = singular_profile(radial)
    curve = cap_mod.capacity_curve(radial, phi, np.geomspace(1.0, 512.0, 41))
    assert abs(curve.fitted_exponent + 2.0) <= 0.1
    # explicit decay constant: no violation across a 200-profile corpus
    corpus = verify.generate_corpus(0, 200)
    rep = verify.check_capacity_decay(
        corpus, radial, verify.member_limits(corpus, radial, ["sublevel-capacity-decay"]))
    assert rep.instances > 0
    assert rep.failures == 0, rep.worst_margin


# 5 ------------------------------------------------------------------

def test_ep_membership_flips(radial):
    phi = singular_profile(radial)
    for p in (1.0, 2.0, 3.0):
        crit = 2.0 / (p + 2.0)
        below = energy.ep_limit(radial, compose_weight(phi, ("power", crit - 0.05)), p)
        above = energy.ep_limit(radial, compose_weight(phi, ("power", crit + 0.05)), p)
        assert below.finite, (p, below.rho)
        assert not above.finite, (p, above.rho)


# 6 ------------------------------------------------------------------

def ordered_pairs_500(corpus):
    bounded = [e.phi for e in corpus.with_tag("bounded")]
    pairs = []
    n = len(bounded)
    for i, phi in enumerate(bounded):
        pairs.append((phi, max_offsets(phi, bounded[(i + 1) % n])))
        pairs.append((phi, max_offsets(phi, bounded[(i + 2) % n])))
        pairs.append((phi, max_offsets(phi, bounded[(i + 3) % n])))
        pairs.append((phi, scale(phi, 0.5)))
        pairs.append((scale(phi, 0.8), scale(phi, 0.4)))
        pairs.append((phi, phi.normalized(0.0)))
        if len(pairs) >= 500:
            break
    return pairs[:500]


def test_inequality_suite(radial, corpus500):
    reports = verify.run_checks(corpus500, radial, [
        "linear-energy-order",        # wedge-count monotonicity
        "gradient-energy-bound",      # gradient mass below self energy
        "comparison-principle",
        "sublevel-mass-vs-capacity",
        "capacity-split-bound",
        "capacity-energy-sandwich",
    ])
    for r in reports:
        assert r.instances > 0, r.check_id
        assert r.failures == 0, (r.check_id, r.failures, r.worst_margin)

    # weighted wedge chain on 500 ordered pairs phi <= psi <= 0
    p = 2.0
    pairs = ordered_pairs_500(corpus500)
    assert len(pairs) == 500
    margins = []
    for phi, psi in pairs:
        wphi = np.power(np.maximum(-phi.offset, 0.0), p)
        wpsi = np.power(np.maximum(-psi.offset, 0.0), p)
        a0 = ma.weighted_mass(ma.ma_measure(radial, None), wphi, 0.0, 0.0)
        a1 = ma.weighted_mass(ma.mixed_measure(radial, phi, None), wphi, 0.0, 0.0)
        a2 = ma.weighted_mass(ma.ma_measure(radial, phi), wphi, 0.0, 0.0)
        b1 = ma.weighted_mass(ma.mixed_measure(radial, psi, None), wpsi, 0.0, 0.0)
        b2 = ma.weighted_mass(ma.ma_measure(radial, psi), wpsi, 0.0, 0.0)
        margins.extend([a1 - a0, a2 - a1,
                        (p + 1.0) * a1 - b1,
                        (p + 1.0) ** 2 * a2 - b2])
    assert min(margins) >= -1e-7 * 100.0


# 7 ------------------------------------------------------------------

def test_radial_round_trip_50(radial):
    rng = np.random.default_rng(2024)
    g = radial.reference_potential.grid
    for _ in range(50):
        w = np.where(np.abs(g) <= 200.0, rng.random(g.size), 0.0)
        w[0] = w[-1] = 0.0
        target = solver.radial_target(radial, w / w.sum())
        res = solver.solve_radial(radial, target)
        assert res.residual <= 1e-8


def smooth_toric_target(model, seed):
    t1, t2, _ = model.reference_potential
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.2, 0.8, size=2)
    vals = np.logaddexp(0.0, c[0] * t1[:, None] + c[1] * t2[None, :])
    vals += np.logaddexp(0.0, (1 - c[0]) * t1[:, None] + (1 - c[1]) * t2[None, :])
    areas, _, _ = ma.toric_cells(t1, t2, vals)
    dens = 2.0 * areas.reshape(vals.shape)
    return ma.MaMeasure("TwoD", (t1, t2), dens, (), float(dens.sum()))


def test_toric_round_trip_64(radial):
    # solved coarse to fine: one level at each of R = 8, 16, 32 and 64
    toric = models.toric_p1p1(64)
    for seed in range(10):
        target = smooth_toric_target(toric, seed)
        res = solver.solve_newton_toric(toric, target)
        why = (seed, res.diagnostics["stop_reasons"], res.diagnostics["l1_residual"])
        assert res.verdict == "solved", why
        assert res.residual <= 1e-5, (seed, res.residual)
        assert res.diagnostics["level_resolutions"] == (8, 16, 32, 64), why


# refinement study: a fixed smooth continuum density solved at three
# resolutions; the sup deviation from the generating potential on the
# core must drop by at least 2.5x per grid doubling (second-order decay
# would give 4x; the boundary ring is only first-order accurate)

REFINE_TERMS = (
    (0.55, (1.0, 0.0), 0.0),
    (0.55, (0.0, 1.0), 0.0),
    (0.25, (0.8, 0.6), -1.0),
    (0.30, (0.5, 0.0), 2.0),
    (0.20, (0.0, 0.3), -1.5),
)
REFINE_LIN = (0.025, 0.035)


def refine_phi(T1, T2):
    out = REFINE_LIN[0] * T1 + REFINE_LIN[1] * T2
    for c, a, b in REFINE_TERMS:
        out = out + c * np.logaddexp(0.0, a[0] * T1 + a[1] * T2 + b)
    return out


def refine_det_hess(T1, T2):
    # Hessian is a sum of rank-one sigmoid terms; its determinant is the
    # sum of squared cross products over pairs
    sigs = []
    for c, a, b in REFINE_TERMS:
        u = a[0] * T1 + a[1] * T2 + b
        sigs.append(c / (2.0 * np.cosh(u / 2.0)) ** 2)
    out = np.zeros(np.broadcast_shapes(T1.shape, T2.shape))
    n = len(REFINE_TERMS)
    for i in range(n):
        for j in range(i + 1, n):
            ai, aj = REFINE_TERMS[i][1], REFINE_TERMS[j][1]
            cross = ai[0] * aj[1] - ai[1] * aj[0]
            out += sigs[i] * sigs[j] * cross ** 2
    return out


def refine_deviation(res_n):
    model = models.toric_p1p1(res_n)
    t1, t2, _ = model.reference_potential
    h = float(t1[1] - t1[0])
    n1 = len(t1)
    # interior target: 4-point Gauss quadrature of det D^2 phi per cell
    q = h / (2.0 * np.sqrt(3.0))
    T = np.zeros((n1, n1))
    for dx in (-q, q):
        for dy in (-q, q):
            T += 0.25 * refine_det_hess(t1[:, None] + dx, t2[None, :] + dy) * h * h
    # boundary ring from the sampled potential: the unattained far
    # slopes all land on boundary cells, which quadrature cannot see
    S = refine_phi(t1[:, None], t2[None, :])
    samp, _, _ = ma.toric_cells(t1, t2, S)
    samp = samp.reshape(n1, n1)
    edge = np.zeros((n1, n1), bool)
    edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
    T[edge] = samp[edge]
    T[~edge] *= (1.0 - T[edge].sum()) / T[~edge].sum()
    dens = model.volume * T
    res = solver.solve_newton_toric(
        model, ma.MaMeasure("TwoD", (t1, t2), dens, (), float(dens.sum())))
    assert res.verdict == "solved", (res_n, res.diagnostics["stop_reasons"])
    dev = res.psi.values - S
    core = (np.abs(t1[:, None]) <= 6.0) & (np.abs(t2[None, :]) <= 6.0)
    d = dev[core] - np.median(dev[core])
    return float(np.sqrt(np.mean(d * d)))


def test_toric_refinement_decay():
    devs = [refine_deviation(n) for n in (32, 64, 128)]
    assert devs[0] / devs[1] >= 2.5, devs
    assert devs[1] / devs[2] >= 2.5, devs


# 8 ------------------------------------------------------------------

def test_uniqueness_dual_method(radial, corpus500):
    for e in corpus500.with_tag("bounded")[:10]:
        res = solver.solve_radial(radial, ma.ma_measure(radial, e.phi))
        rec = solver.uniqueness_check(radial, res.psi, e.phi)
        assert rec["passed"], rec
        assert rec["deviation"] <= 1e-5


def test_uniqueness_fails_for_dirac(radial):
    phi1, phi2 = solver.dirac_preimages(radial)
    rec = solver.uniqueness_check(radial, phi1, phi2)
    assert not rec["passed"]
    d = phi1.offset - phi2.offset
    assert np.abs(d - d.mean()).max() > 1.0  # non-constant difference


# 9 ------------------------------------------------------------------

def test_weak_continuity_on_chains(radial):
    corpus = verify.generate_corpus(0, 612)
    chains = verify.corpus_chains(corpus)
    assert len(chains) >= 50
    for chain in chains[:50]:
        err = verify.weak_continuity_error(radial, chain[-2], chain[-1])
        assert err < 1e-4, err


# 10 -----------------------------------------------------------------

def test_fitted_constant_checks(radial, corpus500):
    reports = verify.run_checks(corpus500, radial, [
        "l1-criterion-constant",
        "uniform-l2-bound",
        "measure-capacity-domination",
        "energy-holder-domination",
    ])
    for r in reports:
        assert r.instances > 0, r.check_id
        assert r.failures == 0, (r.check_id, r.failures, r.worst_margin)
    # the Holder domination exponent depends on p: 1/4 at p = 1 and
    # (1 - 1/p)^2 above
    for p in (1.0, 2.0, 3.0):
        rep = verify.check_energy_holder(corpus500, radial, p=p)
        want = 0.25 if p == 1.0 else (1.0 - 1.0 / p) ** 2
        assert rep.details["gamma"] == pytest.approx(want)
        assert rep.failures == 0, (p, rep.worst_margin)
    for p in (1.0, 2.0):
        rep = verify.check_capacity_domination(corpus500, radial, p=p)
        assert rep.failures == 0, (p, rep.worst_margin)
