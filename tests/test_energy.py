"""Energy functionals and divergence verdicts.

Membership verdicts are checked against the analytic thresholds of the
two power families; bounded cases against exact constants.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings

from ladder_reference import reference_cutoffs, reference_ladder_limit
from ma_lab import energy, ma, models, profiles, solver, verify
from ma_lab.errors import InvalidInput
from ma_lab.profiles import (RelativeProfile, compose_weight, truncate,
                             zero_offset)
from radial_strategies import radial_profiles


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
        v = energy.ep_limit(radial, phi, p)
        assert v.finite and v.rho == 0.0
        assert v.value == pytest.approx(3.0 ** p, rel=1e-10)


def test_wedge_index_validation(radial):
    phi = zero_offset(radial.reference_potential).shifted(-1.0)
    with pytest.raises(InvalidInput):
        energy.ep_integral(radial, phi, 1.0, 3)


def test_point_family_threshold(radial, point_family):
    # membership in E^p flips at alpha = 2/(p+2)
    for p, lo, hi in ((1.0, 0.5, 0.8), (2.0, 0.35, 0.65), (3.0, 0.3, 0.5)):
        below = energy.ep_limit(radial, point_family(lo), p)
        above = energy.ep_limit(radial, point_family(hi), p)
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
        v = energy.ep_limit(radial, phi, p)
        assert not v.finite, (p, v.rho)
        assert v.rho >= energy.RHO_INF_EP


def test_product_separable_threshold(product):
    # u = 0, v singular of exponent alpha on one factor: joint p-energy
    # is finite iff p < 1/alpha - 1
    b1, b2 = product.reference_potential
    u = zero_offset(b1)
    v = compose_weight(RelativeProfile(b2, -b2.values - 1.0), ("power", 0.4))
    fin = energy.ep_limit(product, (u, v), 1.0)
    div = energy.ep_limit(product, (u, v), 3.0)
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
    rep = energy.energy_report(radial, phi, (2.0,))[2.0]
    assert rep.sup_shift > 0.0  # positive sup gets renormalized
    assert rep.E_p_mixed[2] == rep.E_p_full
    assert set(rep.memberships) == {"in_E", "in_E1", "in_Ep"}
    assert all(rep.memberships.values())
    assert rep.sobolev_norm == pytest.approx(np.sqrt(rep.gradient_energy))
    with pytest.raises(InvalidInput):
        energy.energy_report(radial, phi, (2.0, 0.5))


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
    assert len(energy.cutoff_ladder(np.inf)) == energy.MAX_DOUBLINGS


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
    # per exponent, the joint verdict (ladder_limit) and then the factor's
    payload, _, _ = cli._ex_separable_integrability(tmp_path)
    assert len(calls) == 4
    for (ks, joint), (_, factor), p in zip(calls[::2], calls[1::2], ("p=1.0", "p=3.0")):
        assert ks[0] == 1.0 and len(ks) == 22
        assert payload[p]["factor_rho"] == factor.rho
        assert payload[p]["factor_finite"] == factor.finite
        assert payload[p]["joint_rho"] == joint.rho


def _spy_checked_rows(monkeypatch):
    """Spy on the ladder's row checks; returns the list of rows per call."""
    rows = []
    real = energy._checked_rows

    def spy(base, off):
        rows.append(len(off))
        return real(base, off)

    monkeypatch.setattr(energy, "_checked_rows", spy)
    return rows


def test_one_ladder_per_potential(radial, corpus36, monkeypatch):
    # a caller needing several energies of one potential cuts it once: each
    # rung's row is checked once, not once per (p, j), and no rung is a
    # truncated potential
    from ma_lab import capacity, verify

    truncated = []
    monkeypatch.setattr(energy, "truncate", lambda f, k: truncated.append(k))
    rows = _spy_checked_rows(monkeypatch)
    singular = [e.phi for e in corpus36.with_tag("divisor_bounded")]
    phi = singular[0]
    n = len(energy.cutoffs(radial, phi).ks)
    assert n >= 10
    for ps in ((1.0,), (2.0,), energy.P_SWEEP):
        rows.clear()
        energy.energy_report(radial, phi, ps)
        assert sum(rows) == n, ps
    rows.clear()
    capacity.decay_constant(radial, partial(energy.ladder_limit, radial,
                                            energy.cutoffs(radial, phi)))
    assert sum(rows) == n
    rows.clear()
    verify.check_divisor_integrability(corpus36, radial)
    assert sum(rows) == sum(len(energy.cutoff_ladder(-f.offset.min())) for f in singular)
    assert truncated == []


def test_energy_report_counts_its_ladder_work(radial, product, corpus36, monkeypatch):
    # one energy_report builds no RelativeProfile per rung, checks its rows
    # in blocks of at most LADDER_BLOCK entries, and builds the j = 1 and
    # j = 2 measure rows of its one ladder once each, whatever the exponents
    b1, b2 = product.reference_potential
    uv = (zero_offset(b1),
          compose_weight(RelativeProfile(b2, -b2.values - 1.0), ("power", 0.4)))
    phi = corpus36.with_tag("divisor_bounded")[0].phi
    profiles_built, measure_rows = [], []
    post_init = RelativeProfile.__post_init__
    measure = ma.measure_rows

    def build_spy(self):
        profiles_built.append(self)
        post_init(self)

    def measure_spy(c, fp, dv):
        measure_rows.append(len(c))
        return measure(c, fp, dv)

    monkeypatch.setattr(RelativeProfile, "__post_init__", build_spy)
    monkeypatch.setattr(ma, "measure_rows", measure_spy)
    rows = _spy_checked_rows(monkeypatch)
    for model, pot, ps, n_factors in ((radial, phi, energy.P_SWEEP, 1),
                                      (product, uv, (1.0, 3.0), 2)):
        n = len(energy.cutoffs(model, pot).ks)
        assert n >= 10
        block = max(1, energy.LADDER_BLOCK // b1.grid.size)
        profiles_built.clear(), measure_rows.clear(), rows.clear()
        energy.energy_report(model, pot, ps)
        assert profiles_built == []
        assert sum(rows) == n * n_factors and max(rows) <= block
        # j = 1 and j = 2, each once per rung (and per factor)
        assert sum(measure_rows) == 2 * n * n_factors and max(measure_rows) <= block


def test_energy_report_matches_ep_limit(radial, product, corpus36):
    # every energy in the report is bitwise the independent ladder_limit value
    b1, b2 = product.reference_potential
    uv = (zero_offset(b1),
          compose_weight(RelativeProfile(b2, -b2.values - 1.0), ("power", 0.4)))
    phi = corpus36.with_tag("divisor_bounded")[0].phi
    for model, pot, ps in ((radial, phi, (1.0, 1.5, 3.0)), (product, uv, (1.0, 3.0))):
        reports = energy.energy_report(model, pot, ps)
        assert tuple(reports) == ps
        for p in ps:
            rep = reports[p]
            assert rep.p == p
            lim = {(q, j): energy.ladder_limit(model, energy.cutoffs(model, pot), q, j)
                   for q, j in ((p, 0), (p, 1), (p, 2), (1.0, 2), (p + 1.0, 1), (p + 2.0, 0))}
            full = lim[p, 2]
            assert rep.sup_shift == 0.0
            assert rep.E_p_full == full.value
            assert rep.E_p_mixed == tuple(lim[p, j].value for j in range(3))
            assert rep.e_p == full.value + 2.0 * lim[p + 1.0, 1].value + lim[p + 2.0, 0].value
            assert rep.memberships["in_Ep"] == full.finite
            assert rep.memberships["in_E1"] == lim[1.0, 2].finite
            assert rep.truncation_trace == full.trace
            assert rep.gradient_energy == models.backend(model).gradient_energy(model, pot).value


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
    # slope 3/4 of the cap at +inf: a divisor atom of mass 1/4 at the limit -inf
    cases["divisor-atom"] = (zero_u.shifted(-0.5), RelativeProfile(b2, -0.25 * b2.values - 1.0))
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


def test_line_factor_slope_deficit_is_a_divisor_atom(product):
    # each line factor's end atoms follow its own slope deficit
    b1, b2 = product.reference_potential
    u, v = zero_offset(b1).shifted(-0.5), RelativeProfile(b2, -0.25 * b2.values - 1.0)
    assert ma.factor_measure(v).atoms == ((ma.DIVISOR, pytest.approx(0.25)),)
    assert ma.factor_measure(u).atoms == ()
    assert energy.ep_integral(product, (u, v), 1.0, 2) == np.inf


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


def test_profile_validated_once_per_cutoff(radial, product, corpus36, monkeypatch):
    # a cutoff ladder checks each rung's row once, in row blocks, the last
    # rung (phi itself, no deeper than its cutoff) too; measures and
    # integrals of an existing potential and of the cached zero potential
    # check none.  check_slopes is the one slope validation of Profile and
    # RelativeProfile construction and of a ladder's rows.
    phi = corpus36.with_tag("divisor_bounded")[0].phi
    psi = corpus36.with_tag("bounded")[0].phi
    u = zero_offset(product.reference_potential[0])
    v = RelativeProfile(product.reference_potential[1],
                        -product.reference_potential[1].values - 1.0)
    for model in (radial, product):
        ma.ma_measure(model, None)
    builds = []
    check_slopes = profiles.check_slopes

    def spy(*args):
        builds.append(args)
        check_slopes(*args)

    monkeypatch.setattr(profiles, "check_slopes", spy)
    rungs = len(energy.cutoff_ladder(-phi.offset.min()))
    assert rungs >= 10
    for j in range(3):
        builds.clear()
        energy.ladder_limit(radial, energy.cutoffs(radial, phi), 1.0, j)
        assert sum(len(s) for s, *_ in builds) == rungs
    builds.clear()
    for model, a, b in ((radial, phi, psi), (product, (u, v), (v, u))):
        ma.ma_measure(model, a)
        ma.ma_measure(model, None)
        ma.mixed_measure(model, a, b)
        ma.mixed_measure(model, a, None)
        for j in range(3):
            energy.ep_integral(model, a, 2.0, j)
    assert builds == []


# every exponent an energy report reads: P_SWEEP and the p + 1, p + 2 of e_p
LADDER_PS = sorted({q for p in energy.P_SWEEP for q in (p, p + 1.0, p + 2.0)})


def _assert_ladder_matches_reference(model, phi, ps, start=1.0):
    ladder = energy.cutoffs(model, phi, start)
    ref = reference_cutoffs(model, phi, start)
    assert ladder.ks == ref[0] and ladder.depth == ref[2]
    for p in ps:
        for j in range(3):
            got = energy.ladder_limit(model, ladder, p, j)
            want = reference_ladder_limit(model, ref, p, j)
            # DivergenceVerdict equality: flag, value, rho and trace, bit for bit
            assert got == want, (p, j, got, want)
    return ladder


def test_ladder_matches_the_per_rung_reference(radial):
    base = radial.reference_potential
    point, divisor = verify.point_seed(base), verify.divisor_seed(base)
    cases = {
        "point-seed": (point, 1.0),
        "divisor-seed": (divisor, 1.0),
        "divisor-alpha-0.3": (compose_weight(divisor, ("power", 0.3)), 1.0),
        "divisor-alpha-0.6": (compose_weight(divisor, ("power", 0.6)), 1.0),
        "point-alpha-0.4": (compose_weight(point, ("power", 0.4)), 1.0),
        "point-alpha-0.4-from-1.5": (compose_weight(point, ("power", 0.4)), 1.5),
        "neglog": (compose_weight(point.shifted(-1.0), ("neglog",)), 1.0),
        "shallow": (zero_offset(base).shifted(-0.75), 1.0),
        "shallow-from-0.5": (zero_offset(base).shifted(-0.75), 0.5),
    }
    rungs = {}
    for name, (phi, start) in cases.items():
        rungs[name] = len(_assert_ladder_matches_reference(radial, phi, LADDER_PS, start).ks)
    assert rungs["point-seed"] == rungs["divisor-seed"] == 51
    assert rungs["shallow"] == 1


def test_ladder_matches_the_per_rung_reference_on_the_corpus(radial, corpus36):
    for e in corpus36.profiles[::3]:
        _assert_ladder_matches_reference(radial, e.phi, LADDER_PS)


@settings(max_examples=15, deadline=None)
@given(radial_profiles())
def test_ladder_matches_the_per_rung_reference_on_drawn_potentials(phi):
    _assert_ladder_matches_reference(models.radial_p2(), phi, LADDER_PS)


def test_product_ladder_matches_the_per_rung_reference(product):
    b1, b2 = product.reference_potential
    u, v = zero_offset(b1), compose_weight(RelativeProfile(b2, -b2.values - 1.0), ("power", 0.4))
    # the first factor's sup is not 0 on any rung: each rung's constant moves
    shifted = (RelativeProfile(b1, np.minimum(-0.5 * b1.values, 0.0) - 0.25), v.shifted(-2.0))
    assert all(u_k.shift == 0.25 for u_k, _ in energy.cutoffs(product, shifted).rungs)
    # a fixed-point atom at the infinite limit of the second factor
    atom = (u.shifted(-0.5), RelativeProfile(b2, 0.25 * b2.grid - 0.25 * b2.values - 1.0))
    # a fixed-point atom at a finite limit: the second factor's tail slope
    # 5e-11 lies between ATOM_SLOPE_TOL and TOL_CONVEX; the first factor's
    # constant moves onto it, limit included
    g = b2.grid
    finite_atom = (u.shifted(-0.5), RelativeProfile(b2, 5e-11 * np.minimum(g + 1e3, 0.0) - 1.0))
    m = ma.factor_measure(finite_atom[1])
    assert m.atoms[0][0] == ma.FIXED_POINT and np.isfinite(finite_atom[1].limit_values()[0])
    for pair in ((u, v), shifted, atom, finite_atom, (v, u)):
        _assert_ladder_matches_reference(product, pair, (1.0, 2.0, 3.0))


def test_ladder_arrays_are_read_only(radial, product, corpus36):
    b1, b2 = product.reference_potential
    for model, phi in ((radial, corpus36.with_tag("divisor_bounded")[0].phi),
                       (product, (zero_offset(b1), zero_offset(b2).shifted(-3.0)))):
        ladder = energy.cutoffs(model, phi)
        for j in (1, 2):
            for m in ladder.measures(j):
                for d in ([m.density] if m.density is not None else
                          [f.density for _, *fs in m.factors for f in fs]):
                    assert not d.flags.writeable
        for maps in ladder._maps:
            assert all(not ns.flags.writeable for ns in maps)
