"""Energy functionals and divergence verdicts.

Membership verdicts are checked against the analytic thresholds of the
two power families; bounded cases against exact constants.
"""

import numpy as np
import pytest

from ma_lab import energy, ma, models, profiles, solver
from ma_lab.errors import InvalidInput
from ma_lab.profiles import (RelativeProfile, compose_weight, truncate,
                             zero_offset)


@pytest.fixture(scope="module")
def point_family(radial):
    base = radial.reference_potential

    def make(alpha):
        seed = RelativeProfile(base, base.grid / 2 - base.values - 1.0)
        return compose_weight(seed, ("power", alpha))

    return make


@pytest.fixture(scope="module")
def divisor_family(radial):
    base = radial.reference_potential

    def make(alpha):
        seed = RelativeProfile(base, -base.values - 1.0)
        return compose_weight(seed, ("power", alpha))

    return make


def test_constant_offset_closed_form(radial):
    phi = zero_offset(radial.reference_potential).shifted(-3.0)
    for p in (1.0, 2.0, 3.0):
        assert energy.ep_integral(radial, phi, p, 2) == pytest.approx(3.0 ** p,
                                                                      rel=1e-10)
        v = energy.ep_limit(radial, phi, p, 2)
        assert v.finite and v.rho == 0.0
        assert v.value == pytest.approx(3.0 ** p, rel=1e-10)


def test_wedge_index_validation(radial):
    phi = zero_offset(radial.reference_potential).shifted(-1.0)
    with pytest.raises(InvalidInput):
        energy.ep_integral(radial, phi, 1.0, 3)


def test_point_family_threshold(radial, point_family):
    # membership in E^p flips at alpha = 2/(p+2)
    for p, lo, hi in ((1.0, 0.5, 0.8), (2.0, 0.35, 0.65), (3.0, 0.3, 0.5)):
        below = energy.ep_limit(radial, point_family(lo), p, 2)
        above = energy.ep_limit(radial, point_family(hi), p, 2)
        assert below.finite, (p, lo)
        assert not above.finite, (p, hi)
        assert above.rho >= 1.0


def test_truncation_monotone(radial, point_family):
    phi = point_family(0.6)
    vals = [energy.ep_integral(radial, truncate(phi, k), 1.0, 2)
            for k in (2.0, 4.0, 8.0, 16.0)]
    assert np.all(np.diff(vals) >= -1e-12)


def test_partial_final_doubling_regression(radial, divisor_family):
    # a divergent member whose cutoff ladder ends between doublings:
    # the short final increment must not drag the ratio into the
    # convergent band
    phi = divisor_family(0.5)
    for p in (2.0, 3.0):
        v = energy.ep_limit(radial, phi, p, 2)
        assert not v.finite, (p, v.rho)
        assert v.rho >= energy.RHO_INF_EP


def test_product_separable_threshold(product):
    # u = 0, v singular of exponent alpha on one factor: joint p-energy
    # is finite iff p < 1/alpha - 1
    b1, b2 = product.reference_potential
    u = zero_offset(b1)
    v = compose_weight(RelativeProfile(b2, -b2.values - 1.0), ("power", 0.4))
    fin = energy.ep_limit(product, (u, v), 1.0, 2)
    div = energy.ep_limit(product, (u, v), 3.0, 2)
    assert fin.finite
    assert not div.finite
    assert div.rho == pytest.approx(2.0 * np.sqrt(2.0), rel=0.05)


def test_gradient_energy_bounded(radial):
    base = radial.reference_potential
    full = 0.7 * base.values + 0.3 * models.psi_fs(base.grid - 2.0)
    phi = RelativeProfile(base, full - base.values)
    g = energy.gradient_energy_verdict(radial, phi)
    assert g.finite
    assert g.value == pytest.approx(ma.gradient_current_mass(radial, phi), rel=1e-6)


def test_gradient_threshold(radial, divisor_family):
    for alpha in (0.3, 0.49):
        g = energy.gradient_energy_verdict(radial, divisor_family(alpha))
        assert g.finite, alpha
        assert g.value <= alpha ** 2 / (1.0 - 2.0 * alpha) + 1e-6
    for alpha in (0.51, 0.6):
        g = energy.gradient_energy_verdict(radial, divisor_family(alpha))
        assert not g.finite, alpha


def test_sobolev_distance(radial):
    phi = zero_offset(radial.reference_potential).shifted(-1.0)
    psi = zero_offset(radial.reference_potential).shifted(-5.0)
    # constants are invisible to the gradient seminorm
    assert energy.sobolev_distance(radial, phi, psi) == 0.0
    base = radial.reference_potential
    other = RelativeProfile(base, 0.5 * models.psi_fs(base.grid - 2.0)
                            + 0.5 * base.values - base.values)
    d = energy.sobolev_distance(radial, phi, other)
    assert d > 0.0
    assert d == energy.sobolev_distance(radial, other, phi)


def test_energy_report_consistency(radial):
    base = radial.reference_potential
    full = 0.5 * base.values + 0.5 * models.psi_fs(base.grid + 1.0)
    phi = RelativeProfile(base, full - base.values).shifted(2.0)
    rep = energy.energy_report(radial, phi, 2.0)
    assert rep.sup_shift > 0.0  # positive sup gets renormalized
    assert rep.E_p_mixed[2] == rep.E_p_full
    assert set(rep.memberships) == {"in_E", "in_E1", "in_Ep"}
    assert all(rep.memberships.values())
    assert rep.sobolev_norm == pytest.approx(np.sqrt(rep.gradient_energy))
    with pytest.raises(InvalidInput):
        energy.energy_report(radial, phi, 0.5)


def test_energy_mixed_order(radial):
    # for nonpositive phi the weighted masses grow with the number of
    # omega_phi factors
    base = radial.reference_potential
    full = 0.5 * base.values + 0.5 * models.psi_fs(base.grid - 3.0)
    phi = RelativeProfile(base, full - base.values).normalized(-1.0)
    e = [energy.ep_integral(radial, phi, 1.0, j) for j in range(3)]
    assert e[0] <= e[1] + 1e-12 <= e[2] + 2e-12


def test_concavity_margins(radial):
    base = radial.reference_potential
    phi = RelativeProfile(base, 0.6 * models.psi_fs(base.grid - 1.0)
                          + 0.4 * base.values - base.values).normalized(-1.0)
    psi = RelativeProfile(base, 0.2 * models.psi_fs(base.grid + 2.0)
                          + 0.8 * base.values - base.values).normalized(-1.0)
    for p in (1.0, 2.0):
        data = energy.energy_concavity_data(radial, phi, psi, p)
        assert data["margin_phi"] >= -1e-9
        assert data["margin_psi"] >= -1e-9


def test_cutoff_ladder():
    assert energy.cutoff_ladder(10.0) == [1.0, 2.0, 4.0, 8.0, 16.0]
    assert energy.cutoff_ladder(10.0, start=1.5) == [1.5, 3.0, 6.0, 12.0]
    assert energy.cutoff_ladder(0.5) == [1.0]
    assert len(energy.cutoff_ladder(np.inf, max_doublings=7)) == 7


# synthetic ladders, one per branch of the classifier
KS20 = [2.0 ** i for i in range(20)]


def test_ladder_verdict_stabilized():
    es = [1.0, 2.0, 3.0] + [3.5] * 17
    v = energy.ladder_verdict(KS20, es, np.inf)
    assert (v.finite, v.value, v.rho) == (True, 3.5, 0.0)
    assert v.trace == tuple(zip(KS20, es))
    # too short to judge counts as stabilized too
    assert energy.ladder_verdict([1.0, 2.0], [1.0, 5.0], np.inf).value == 5.0


def test_ladder_verdict_full_depth_within_12_doublings():
    ks = [1.0, 2.0, 4.0, 8.0, 16.0]
    v = energy.ladder_verdict(ks, [1.0, 2.0, 4.0, 8.0, 16.0], 10.0)
    assert (v.finite, v.value, v.rho) == (True, 16.0, 0.0)


def test_ladder_verdict_partial_final_doubling():
    # increments double, but the last rung is a short partial step past
    # the grid depth; it must not enter the ratio
    es = list(np.cumsum([2.0 ** i for i in range(19)] + [1e-3]))
    v = energy.ladder_verdict(KS20, es, 0.6 * KS20[-1])
    assert not v.finite and v.value == np.inf
    assert v.rho == pytest.approx(2.0, rel=1e-12)
    # with the depth past the last rung the short step is a full doubling
    assert energy.ladder_verdict(KS20, es, np.inf).finite


def test_ladder_verdict_convergent_adds_geometric_tail():
    es = list(np.cumsum([0.5 ** i for i in range(20)]))
    v = energy.ladder_verdict(KS20, es, np.inf)
    assert v.finite
    assert v.rho == pytest.approx(0.5, rel=1e-12)
    assert es[-1] < v.value
    assert v.value == pytest.approx(2.0, rel=1e-14)  # sum of 2^-i


def test_ladder_verdict_divergent():
    es = [float(i) for i in range(20)]  # log-type growth: rho = 1
    v = energy.ladder_verdict(KS20, es, np.inf)
    assert not v.finite and v.value == np.inf
    assert v.rho == 1.0 >= energy.RHO_INF_EP


def test_ladder_classifier_is_shared(radial, corpus36, monkeypatch, tmp_path):
    # the cutoff-sequence-free check and example 6.3.3 classify their own
    # ladders with the production classifier, not with copies of it
    from ma_lab import cli, verify

    real = energy.ladder_verdict
    calls = []

    def spy(ks, es, depth):
        v = real(ks, es, depth)
        calls.append((ks, v))
        return v

    monkeypatch.setattr(energy, "ladder_verdict", spy)
    rep = verify.check_truncation_free(corpus36, radial)
    alt = [v for ks, v in calls if ks[0] == 1.5]
    assert rep.instances > 0 and len(alt) == rep.instances

    calls.clear()
    # the joint energies are not what is checked here; skip their cost
    monkeypatch.setattr(energy, "ep_limit",
                        lambda *a, **k: energy.DivergenceVerdict(True, 0.0, 0.0))
    payload, _, _ = cli._ex_separable_integrability(tmp_path)
    assert len(calls) == 2
    for (ks, v), p in zip(calls, ("p=1.0", "p=3.0")):
        assert ks[0] == 1.0 and len(ks) == 22
        assert payload[p]["factor_rho"] == v.rho
        assert payload[p]["factor_finite"] == v.finite


def _oracle_inputs(model):
    """Factor pairs covering every branch of the product E_p integral."""
    b1, b2 = model.reference_potential
    zero_u, zero_v = zero_offset(b1), zero_offset(b2)
    # Example 6.3.3: u = 0 and a power-singular v, at shallow and deep cutoffs
    v = compose_weight(RelativeProfile(b2, -b2.values - 1.0), ("power", 0.4))
    cases = {f"6.3.3-k={k}": (zero_u, truncate(v, k)) for k in (4.0, 2.0 ** 20)}
    # shifted constants; in the second u > 0, while u + v < 0
    cases["constants"] = (zero_u.shifted(-1.5), zero_v.shifted(-2.5))
    cases["positive-u"] = (zero_u.shifted(0.75), zero_v.shifted(-2.0))
    # the separable solver's round-trip potential
    g = b1.grid
    rng = np.random.default_rng(5)
    targets = []
    for _ in range(2):
        w = np.where(np.abs(g) <= 200.0, rng.random(g.size), 0.0)
        w[0] = w[-1] = 0.0
        w /= w.sum()
        targets.append(ma.MaMeasure("OneD", g, w, (), 1.0,
                                    cdf_seq=np.concatenate([[0.0], np.cumsum(w)])))
    cases["round-trip"] = solver.solve_separable(model, tuple(targets)).psi
    # slope 1/4 at -inf: a fixed-point atom of mass 1/4 at the limit -inf; with
    # u = 0 the moments M_k(u), k >= 1, are 0, so inf * 0 terms arise
    cases["infinite-atom"] = (zero_u, RelativeProfile(b2, 0.25 * g - 0.25 * b2.values - 1.0))
    return cases


def _assert_matches_oracle(model, phi, p, j, label):
    from product_reference import reference_product_ep

    got = energy.ep_integral(model, phi, float(p), j)
    want = reference_product_ep(model, phi, float(p), j)
    if np.isinf(want):
        assert got == want, label
    else:
        assert abs(got - want) <= 1e-12 * abs(want), (label, got, want)


@pytest.fixture(scope="module")
def coarse_product():
    """The product model on a coarse grid of the same reach, so the dense
    oracle runs in milliseconds."""
    g = profiles.default_grid(core_half_width=8.0, core_step=0.25, octaves=45, per_octave=2)
    f = profiles.Profile(g, models.psi_line(g), 0.0, 1.0, 1.0)
    return models.KahlerModel(models.PRODUCT_P1P1, (f, f), 2.0, 1.0, 1)


def test_product_ep_matches_dense_oracle(coarse_product):
    cases = _oracle_inputs(coarse_product)
    assert cases["positive-u"][0].sup_value > 0
    for name, phi in cases.items():
        for p in (1, 2, 3):
            for j in (0, 1, 2):
                _assert_matches_oracle(coarse_product, phi, p, j, (name, p, j))
    atom = cases["infinite-atom"]
    assert ma.ma_measure(coarse_product, atom).factors[0][2].atoms
    assert np.isinf(energy.ep_integral(coarse_product, atom, 1.0, 2))
    assert np.isinf(energy.ep_integral(coarse_product, atom, 1.0, 1))
    assert np.isfinite(energy.ep_integral(coarse_product, atom, 1.0, 0))


def test_product_ep_matches_dense_oracle_on_model_grid(product):
    cases = _oracle_inputs(product)
    for name in ("6.3.3-k=1048576.0", "round-trip"):
        for p in (1, 3):
            _assert_matches_oracle(product, cases[name], p, 2, (name, p))


def test_product_ep_needs_integer_p_and_nonpositive_sum(product):
    b1, b2 = product.reference_potential
    u, v = zero_offset(b1).shifted(-1.0), zero_offset(b2).shifted(-1.0)
    for p in (1.5, 0.0, np.inf, np.nan):
        with pytest.raises(InvalidInput, match="integer p >= 1"):
            energy.ep_integral(product, (u, v), p)
    with pytest.raises(InvalidInput, match="and u \\+ v <= 0"):
        energy.ep_integral(product, (u.shifted(2.5), v), 1.0)
    # u + v = 0 at its top is still fine
    assert energy.ep_integral(product, (u.shifted(1.0), v.shifted(1.0)), 2.0) == 0.0
