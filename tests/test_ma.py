"""Measure layer: slope laws, polarization, toric cells.

Quantitative cases are pinned by closed forms (polarization identity on
slopes, separable linearity, quadrature oracle for the gradient
pairing) rather than by re-running the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from radial_strategies import radial_profiles
from scipy.integrate import quad
from scipy.special import expit

from ma_lab import ma, models
from ma_lab.errors import InvalidInput, NotOmegaPsh
from ma_lab.models import ToricGrid
from ma_lab.profiles import RelativeProfile, zero_offset


def _bounded(radial, shifts=(0.0, -2.0), weights=(0.6, 0.4)):
    base = radial.reference_potential
    full = sum(w * models.psi_fs(base.grid - a) for w, a in zip(weights, shifts))
    return RelativeProfile(base, full - base.values).normalized(-1.0)


def test_measure_pair_telescopes(radial):
    g = radial.reference_potential.grid
    ns = np.clip((np.tanh(np.linspace(-3, 3, g.size + 1)) + 1) / 2, 0, 1)
    ns = np.sort(ns)
    m = ma._measure_1d(g, *ma.pair_rows(ns, ns))
    assert m.total_mass == 1.0
    # cdf_seq is exact: density plus atoms telescope back to it
    cum = m.atom_mass(ma.FIXED_POINT) + np.cumsum(m.density)
    assert np.abs(cum - m.cdf_seq[1:]).max() < 1e-14
    assert m.cdf_seq[-1] + m.atom_mass(ma.DIVISOR) == pytest.approx(1.0)


def test_polarization_identity(radial):
    # MA of the midpoint potential = 1/4 m(phi) + 1/2 mixed + 1/4 m(psi),
    # exactly, because the slope of the average is the average slope
    phi = _bounded(radial)
    psi = _bounded(radial, shifts=(1.0, -4.0), weights=(0.3, 0.7))
    mid = RelativeProfile(phi.base, 0.5 * (phi.full_values() + psi.full_values())
                          - phi.base.values)
    lhs = ma.ma_measure(radial, mid).cdf_seq
    rhs = 0.25 * ma.ma_measure(radial, phi).cdf_seq \
        + 0.5 * ma.mixed_measure(radial, phi, psi).cdf_seq \
        + 0.25 * ma.ma_measure(radial, psi).cdf_seq
    assert np.abs(lhs - rhs).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(radial_profiles(), radial_profiles(), st.booleans())
def test_mass_conservation_and_polarization(phi, psi, psi_is_zero):
    # every measure has unit mass, node masses and atoms together, and the
    # midpoint's sublevel masses polarize into the two full measures and
    # the mixed one; the zero potential goes through the model's shared
    # slope map
    radial = models.radial_p2()
    if psi_is_zero:
        psi = radial.zero
    mid = RelativeProfile(phi.base, 0.5 * (phi.full_values() + psi.full_values())
                          - phi.base.values)
    m_phi, m_psi = ma.ma_measure(radial, phi), ma.ma_measure(radial, psi)
    mixed = ma.mixed_measure(radial, phi, None if psi_is_zero else psi)
    swapped = ma.mixed_measure(radial, psi, phi)
    m_mid = ma.ma_measure(radial, mid)
    for m in (m_phi, m_psi, mixed, swapped, m_mid):
        assert m.total_mass == 1.0
        assert m.density.sum() + sum(a for _, a in m.atoms) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(swapped.cdf_seq, mixed.cdf_seq)
    rhs = 0.25 * m_phi.cdf_seq + 0.5 * mixed.cdf_seq + 0.25 * m_psi.cdf_seq
    assert np.abs(m_mid.cdf_seq - rhs).max() < 1e-12


def test_mixed_degenerates_to_full(radial):
    phi = _bounded(radial)
    a = ma.mixed_measure(radial, phi, phi)
    b = ma.ma_measure(radial, phi)
    assert np.abs(a.cdf_seq - b.cdf_seq).max() == 0.0


def test_reference_wedge_mass(radial):
    phi = _bounded(radial)
    assert ma.mixed_measure(radial, phi, None).total_mass == pytest.approx(1.0, abs=1e-12)


def test_product_measure_linearity(product):
    # integral of -(u + v) against 2 m1 (x) m2 splits by Fubini
    from ma_lab.energy import ep_integral

    b1, b2 = product.reference_potential
    u = zero_offset(b1).shifted(-1.5)
    v = zero_offset(b2).shifted(-2.5)
    got = ep_integral(product, (u, v), 1.0, 2)
    assert got == pytest.approx(2.0 * (1.5 + 2.5), rel=1e-12)


def test_gradient_mass_quadrature_oracle(radial):
    # phi interpolating between reference shapes; the pairing integrand
    # has the closed form (phi')^2 psi' / cap^2 dt
    base = radial.reference_potential
    lam = 0.35
    full = (1 - lam) * base.values + lam * models.psi_fs(base.grid - 3.0)
    phi = RelativeProfile(base, full - base.values)
    got = ma.gradient_current_mass(radial, phi)

    def integrand(t):
        dphi = lam * (0.5 * expit(t - 3.0) - 0.5 * expit(t))
        return dphi * dphi * 0.5 * expit(t) / 0.25

    want, _ = quad(integrand, -60, 60, limit=200)
    assert got == pytest.approx(want, rel=1e-4)


def test_weighted_mass_atoms(radial):
    base = radial.reference_potential
    dirac = RelativeProfile(base, base.grid / 2 - base.values)
    m = ma.ma_measure(radial, dirac)
    w = np.zeros_like(base.grid)
    assert ma.weighted_mass(m, w, 3.0, 0.0) == pytest.approx(3.0)
    assert ma.weighted_mass(m, w, np.inf, 0.0) == np.inf
    with pytest.raises(InvalidInput):
        ma.weighted_mass(m, w)


def test_cdf_sup_distance(radial):
    phi = _bounded(radial)
    psi = _bounded(radial, shifts=(1.0, -4.0), weights=(0.3, 0.7))
    m1 = ma.ma_measure(radial, phi)
    m2 = ma.ma_measure(radial, psi)
    assert ma.cdf_sup_distance(m1, m1) == 0.0
    d = ma.cdf_sup_distance(m1, m2)
    assert d == ma.cdf_sup_distance(m2, m1)
    assert d > 0.0


def test_comparison_principle_pair(radial):
    phi = _bounded(radial)
    psi = _bounded(radial, shifts=(1.0, -4.0), weights=(0.3, 0.7))
    lhs, rhs = ma.comparison_masses(radial, phi, psi)
    assert lhs <= rhs + 1e-10


def test_demailly_margin_nonnegative(radial):
    phi = _bounded(radial)
    psi = _bounded(radial, shifts=(1.0, -4.0), weights=(0.3, 0.7))
    assert ma.demailly_margin(radial, phi, psi) >= -1e-10


def test_toric_cells_tile_the_square():
    m = models.toric_p1p1(16)
    t1, t2, base = m.reference_potential
    areas, mom, _ = ma.toric_cells(t1, t2, base)
    assert areas.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(areas >= 0)
    # first moments also tile: they sum to the square's centroid
    assert np.allclose(mom.sum(axis=0), [0.5, 0.5], atol=1e-9)


def test_toric_jacobian_finite_differences():
    m = models.toric_p1p1(16)
    t1, t2, base = m.reference_potential
    rng = np.random.default_rng(0)
    Psi = base + 0.05 * (t1[:, None] ** 2 + t2[None, :] ** 2) / 64.0
    areas0, _, H = ma.toric_cells(t1, t2, Psi, want_jac=True)
    eps = 1e-6
    n1 = len(t1)
    for k in rng.integers(0, n1 * n1, size=4):
        e = np.zeros_like(Psi)
        e[np.unravel_index(k, Psi.shape)] = eps
        ap, _, _ = ma.toric_cells(t1, t2, Psi + e)
        am, _, _ = ma.toric_cells(t1, t2, Psi - e)
        fd = (ap - am) / (2 * eps)
        col = np.asarray(H[:, k].todense()).ravel()
        assert np.abs(fd - col).max() < 1e-4


def test_toric_jacobian_row_sums_vanish():
    m = models.toric_p1p1(16)
    t1, t2, base = m.reference_potential
    _, _, H = ma.toric_cells(t1, t2, base, want_jac=True)
    assert np.abs(np.asarray(H.sum(axis=1))).max() < 1e-10
    assert (H - H.T).count_nonzero() == 0 or abs(H - H.T).max() < 1e-12


def test_toric_measure_rejects_nonconvex():
    m = models.toric_p1p1(16)
    t1, t2, base = m.reference_potential
    bad = base.copy()
    bad[8, 8] += 0.5
    with pytest.raises(NotOmegaPsh):
        ma.toric_measure(m, ToricGrid(t1, t2, bad))


def test_toric_hull_projection_identity_on_convex():
    m = models.toric_p1p1(16)
    t1, t2, base = m.reference_potential
    low, dist = ma.toric_hull_projection(t1, t2, base)
    assert dist < 1e-9
    assert np.abs(low - base).max() < 1e-9


def test_toric_mixed_polarization(toric32):
    t1, t2, base = toric32.reference_potential
    a = ToricGrid(t1, t2, base)
    b = ToricGrid(t1, t2, models.psi_line(t1 - 1.0)[:, None]
                  + models.psi_line(t2 + 1.0)[None, :])
    mix = ma.mixed_measure(toric32, a, b)
    assert mix.total_mass == pytest.approx(2.0, abs=1e-6)
    assert mix.density.min() >= 0.0


def test_cdf_sup_distance_product_measures(product):
    # omega_phi^2 as one tensor term (coefficient 2) and as the mixed
    # measure of phi with itself (two terms, coefficient 1) are one measure
    b1, b2 = product.reference_potential
    g = b1.grid
    u = RelativeProfile(b1, 0.5 * models.psi_line(g - 2.0) + 0.5 * models.psi_line(g + 1.0)
                        - b1.values)
    v = RelativeProfile(b2, models.psi_line(g - 3.0) - b2.values)
    full = ma.ma_measure(product, (u, v))
    assert len(full.factors) == 1
    mixed = ma.mixed_measure(product, (u, v), (u, v))
    assert len(mixed.factors) == 2
    assert ma.cdf_sup_distance(full, mixed) < 1e-14
    ref = ma.ma_measure(product, None)
    d = ma.cdf_sup_distance(full, ref)
    assert d == ma.cdf_sup_distance(ref, full) and d > 0.1


def test_cdf_sup_distance_product_matches_dense(monkeypatch):
    rng = np.random.default_rng(5)
    g = np.linspace(-3.0, 3.0, 40)

    def line_measure():
        ns = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, g.size - 1)), [1.0]])
        return ma._measure_1d(g, *ma.pair_rows(ns, np.ones_like(ns)))

    a = ma.product_measure(((2.0, line_measure(), line_measure()),))
    b = ma.product_measure(((1.0, line_measure(), line_measure()),
                            (1.0, line_measure(), line_measure())))

    def dense(m):
        return sum(c * np.outer(f.cdf_seq, h.cdf_seq) for c, f, h in m.factors)

    want = np.abs(dense(a) - dense(b)).max()
    assert ma.cdf_sup_distance(a, b) == pytest.approx(want, abs=1e-15)
    monkeypatch.setattr(ma, "CDF_BLOCK", 100)  # many row blocks
    assert ma.cdf_sup_distance(a, b) == pytest.approx(want, abs=1e-15)
