"""Solver round trips and failure modes on the three backends."""

import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from radial_strategies import radial_profiles
from toric_reference import reference_newton_matrix, reference_newton_step

from ma_lab import energy, ma, models, solver
from ma_lab.errors import InvalidInput, NotSolvableInModel, PreconditionViolated
from ma_lab.models import ToricGrid
from ma_lab.profiles import RelativeProfile


def random_radial_target(model, rng, reach=200.0):
    g = model.reference_potential.grid
    w = np.where(np.abs(g) <= reach, rng.random(g.size), 0.0)
    # mass on the outermost nodes is only expressible through tail
    # atoms; keep those nodes empty so the law is exactly realizable
    w[0] = w[-1] = 0.0
    return solver.radial_target(model, w / w.sum())


def test_radial_round_trip(radial):
    rng = np.random.default_rng(11)
    for _ in range(5):
        target = random_radial_target(radial, rng)
        res = solver.solve_radial(radial, target)
        assert res.residual <= 1e-10
        assert res.verdict == "solved"
        assert res.psi.sup_value == pytest.approx(-1.0)


@settings(max_examples=50, deadline=None)
@given(radial_profiles())
def test_radial_measure_solve_round_trip(phi):
    # the measure of a random admissible potential solves back to it, up
    # to the additive constant the measure cannot see
    radial = models.radial_p2()
    res = solver.solve_radial(radial, ma.ma_measure(radial, phi))
    assert res.residual <= 1e-10
    assert solver.uniqueness_check(radial, res.psi, phi)["passed"]


def test_radial_deep_tail_target(radial):
    # mass pushed to the far tail still round-trips, but the solution is
    # honestly flagged outside the finite-energy classes
    rng = np.random.default_rng(12)
    target = random_radial_target(radial, rng, reach=np.inf)
    res = solver.solve_radial(radial, target)
    assert res.residual <= 1e-10
    assert res.verdict == "not_in_Ep"


def test_radial_input_validation(radial, product):
    g = radial.reference_potential.grid
    with pytest.raises(InvalidInput):
        solver.solve_radial(product, solver.dirac_target(radial))
    with pytest.raises(InvalidInput):
        solver.solve_radial(radial, solver.radial_target(radial, np.full(g.size, 2.0 / g.size)))
    short = ma.MaMeasure("OneD", g[:-1], np.ones(g.size - 1) / (g.size - 1), (),
                         1.0, cdf_seq=np.linspace(0, 1, g.size))
    with pytest.raises(InvalidInput):
        solver.solve_radial(radial, short)


def test_radial_overfull_cdf(radial):
    # distribution function exceeding 1 demands slopes above the cap
    g = radial.reference_potential.grid
    w = np.zeros(g.size)
    w[100] = 1.2
    w[-1] = -0.2
    bad = ma.MaMeasure("OneD", g, w, (), 1.0,
                       cdf_seq=np.concatenate([[0.0], np.cumsum(w)]))
    with pytest.raises(NotSolvableInModel):
        solver.solve_radial(radial, bad)


def test_dirac_target(radial):
    res = solver.solve_radial(radial, solver.dirac_target(radial))
    assert res.residual <= 1e-12
    m = ma.ma_measure(radial, res.psi)
    assert m.atom_mass(ma.FIXED_POINT) == pytest.approx(1.0, abs=1e-12)
    assert res.verdict == "not_in_Ep"


def test_dirac_preimages_nonunique(radial):
    phi1, phi2 = solver.dirac_preimages(radial)
    m1 = ma.ma_measure(radial, phi1)
    m2 = ma.ma_measure(radial, phi2)
    assert ma.cdf_sup_distance(m1, m2) <= 2.1e-8
    rec = solver.uniqueness_check(radial, phi1, phi2)
    assert not rec["passed"]
    # the two preimages drift apart linearly; even on the trusted core
    # window the deviation clears the uniqueness tolerance
    assert rec["deviation"] > 1e-5


def test_inverse_square_cdf_target(radial):
    # target law mass{t <= T} = min(4/|T|, 1): solvable, in E^p exactly
    # for p < 2, with finite gradient energy
    g = radial.reference_potential.grid
    F = np.where(g < -4.0, 4.0 / np.maximum(-g, 4.0), 1.0)
    target = solver.radial_target(radial, np.diff(F, prepend=F[0]),
                                  atom_a=float(F[0]))
    assert target.total_mass == pytest.approx(1.0, abs=1e-12)
    res = solver.solve_radial(radial, target)
    assert res.residual <= 1e-10
    assert res.verdict == "solved"
    psi = res.psi
    assert energy.ep_limit(radial, psi, 1.0).finite
    assert energy.ep_limit(radial, psi, 1.5).finite
    assert not energy.ep_limit(radial, psi, 3.0).finite
    assert energy.gradient_energy_verdict(radial, psi).finite


def _factor_target(g, rng):
    w = np.where(np.abs(g) <= 200.0, rng.random(g.size), 0.0)
    w[0] = w[-1] = 0.0
    w /= w.sum()
    return ma.MaMeasure("OneD", g, w, (), 1.0, cdf_seq=np.concatenate([[0.0], np.cumsum(w)]))


def test_separable_round_trip(product):
    g = product.reference_potential[0].grid
    rng = np.random.default_rng(5)
    targets = [_factor_target(g, rng) for _ in range(2)]
    res = solver.solve_separable(product, tuple(targets))
    assert res.residual <= 1e-10
    u, v = res.psi
    assert u.sup_value + v.sup_value == pytest.approx(-1.0)


def test_separable_validation(product, radial):
    with pytest.raises(InvalidInput):
        solver.solve_separable(radial, ())
    g = product.reference_potential[0].grid
    heavy = ma.MaMeasure("OneD", g, np.full(g.size, 2.0 / g.size), (), 2.0,
                         cdf_seq=np.linspace(0.0, 2.0, g.size + 1))
    with pytest.raises(InvalidInput):
        solver.solve_separable(product, (heavy, heavy))


def test_separable_off_grid_factor_target(product):
    g = product.reference_potential[0].grid
    good = _factor_target(g, np.random.default_rng(6))
    short = ma.MaMeasure("OneD", g, good.density, (), 1.0, cdf_seq=good.cdf_seq[:-1])
    with pytest.raises(InvalidInput):
        solver.solve_separable(product, (good, short))


@pytest.mark.parametrize("count", [0, 1, 3])
def test_separable_needs_two_factor_targets(product, count):
    g = product.reference_potential[0].grid
    good = _factor_target(g, np.random.default_rng(9))
    with pytest.raises(InvalidInput):
        solver.solve_separable(product, (good,) * count)


def test_separable_factor_cdf_below_zero(product):
    # the radial solver rejects the same distribution function
    g = product.reference_potential[0].grid
    w = np.zeros(g.size)
    w[100], w[200] = -0.3, 1.3
    dip = ma.MaMeasure("OneD", g, w, (), 1.0, cdf_seq=np.concatenate([[0.0], np.cumsum(w)]))
    good = _factor_target(g, np.random.default_rng(7))
    with pytest.raises(NotSolvableInModel):
        solver.solve_separable(product, (dip, good))


def test_separable_fixed_point_atom_is_not_in_ep(product):
    # the factor analogue of the radial Dirac target
    g = product.reference_potential[0].grid
    atom = ma.MaMeasure("OneD", g, np.zeros(g.size), ((ma.FIXED_POINT, 1.0),), 1.0,
                        cdf_seq=np.ones(g.size + 1))
    res = solver.solve_separable(product, (atom, _factor_target(g, np.random.default_rng(8))))
    assert res.verdict == "not_in_Ep"
    assert res.diagnostics["in_Ep"] is False


def test_target_without_a_distribution_function(radial, product):
    g = radial.reference_potential.grid
    no_cdf = ma.MaMeasure("OneD", g, np.full(g.size, 1.0 / g.size), (), 1.0)
    with pytest.raises(InvalidInput):
        solver.solve_radial(radial, no_cdf)
    with pytest.raises(InvalidInput):
        solver.solve_separable(product, (no_cdf, no_cdf))


def smooth_toric_target(model, seed):
    t1, t2, _ = model.reference_potential
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.2, 0.8, size=2)
    vals = np.logaddexp(0.0, c[0] * t1[:, None] + c[1] * t2[None, :])
    vals += np.logaddexp(0.0, (1 - c[0]) * t1[:, None] + (1 - c[1]) * t2[None, :])
    areas, _, _ = ma.toric_cells(t1, t2, vals)
    dens = 2.0 * areas.reshape(vals.shape)
    return ma.MaMeasure("TwoD", (t1, t2), dens, (), float(dens.sum())), vals


def test_toric_direct_solve(toric32):
    target, vals = smooth_toric_target(toric32, 0)
    res = solver.solve_newton_toric(toric32, target)
    assert res.verdict == "solved"
    assert res.residual <= 1e-6
    # recovered potential matches the generator up to a constant
    d = res.psi.values - vals
    assert np.abs(d - d.mean()).max() <= 1e-5


@pytest.mark.parametrize("p", [1e300, 400.0])
def test_toric_energy_trace_overflow_names_the_exponent(p):
    # the trace's moment (-off)^p past the float range is an InvalidInput
    # naming p, as every other moment's is, and no warning
    model = models.toric_p1p1(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=re.escape(f"overflows at exponent p = {p!r}")):
            solver.solve_newton_toric(model, solver._toric_demo_target(model, 0), p=p)


def _solve_counting_hulls(model, target, **options):
    """solve_newton_toric, with the lower hulls it builds counted, and
    the Newton iterations of each level of the result (an abandoned
    coarse start's levels left out), coarsest first."""
    hulls, iterations = [], []
    real_hull, real_newton = ma._lower_hull, solver._newton

    def counting_hull(*args):
        hulls.append(1)
        return real_hull(*args)

    def counting_newton(*args, **kwargs):
        out = real_newton(*args, **kwargs)
        iterations.append(out[2]["iterations"])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ma, "_lower_hull", counting_hull)
        mp.setattr(solver, "_newton", counting_newton)
        res = solver.solve_newton_toric(model, target, **options)
    # the result's levels are the last ones run: a fallback runs after
    # the coarse start it abandons
    return res, len(hulls), tuple(iterations[-len(res.energy_trace):])


def _separable_only(model, target):
    """solve_newton_toric with the coarse-to-fine recursion switched off:
    the coarsest grid's rule, one Newton level from _separable_init, on
    the model's own grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "COARSEST_RESOLUTION", 1 << 30)
        return solver.solve_newton_toric(model, target)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_toric_schedule_boundary_target(toric32):
    # boundary-touching slopes, and the target of `ma-lab solve --model
    # toric-p1p1:32 --seed 2`: a level's full Newton step used to reach
    # the tolerance yet fail the Armijo test on merit rounding noise,
    # stalling the level and poisoning the whole solve with a "diverged"
    # verdict
    t1, t2, _ = toric32.reference_potential
    vals = np.logaddexp(0.0, 0.35 * t1[:, None] + 0.65 * t2[None, :])
    vals += np.logaddexp(0.0, 0.65 * t1[:, None] + 0.35 * t2[None, :])
    areas, _, _ = ma.toric_cells(t1, t2, vals)
    dens = 2.0 * areas.reshape(vals.shape)
    boundary = ma.MaMeasure("TwoD", (t1, t2), dens, (), float(dens.sum()))
    cli_seed2, _ = smooth_toric_target(toric32, 2)
    for name, target in (("boundary", boundary), ("cli seed 2", cli_seed2)):
        res, hulls, iterations = _solve_counting_hulls(toric32, target)
        stops = res.diagnostics["stop_reasons"]
        assert res.verdict == "solved", (name, stops, res.diagnostics["l1_residual"])
        assert res.residual <= 1e-5, (name, res.residual)
        # one level on each grid of the hierarchy, coarsest first
        assert res.diagnostics["level_resolutions"] == (8, 16, 32)
        assert stops == ("tol",) * 3, (name, stops)
    # rejecting trials by the chord check before their hull is built
    # moves no bit of the solve, and builds fewer hulls
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_above_a_chord", lambda Psi: np.zeros(Psi.shape, bool))
        off, off_hulls, off_iterations = _solve_counting_hulls(toric32, cli_seed2)
    assert _bits(res.psi.values) == _bits(off.psi.values)
    assert _bits(res.energy_trace) == _bits(off.energy_trace)
    assert _bits(res.residual) == _bits(off.residual)
    assert (_bits(res.diagnostics["l1_residual"])
            == _bits(off.diagnostics["l1_residual"]))
    assert res.diagnostics["stop_reasons"] == off.diagnostics["stop_reasons"]
    assert iterations == off_iterations
    assert hulls < off_hulls, (hulls, off_hulls)


def _near_dirac_target(model, node, eps):
    """Mass 1 - eps on one node (in units of the model volume), eps
    spread evenly over every node."""
    t1, t2, _ = model.reference_potential
    dens = np.full((len(t1), len(t2)), eps / (len(t1) * len(t2)))
    dens[node] += 1.0 - eps
    dens *= model.volume
    return ma.MaMeasure("TwoD", (t1, t2), dens, (), float(dens.sum()))


@pytest.mark.parametrize("kind, arg", [("cli", 0), ("cli", 1), ("cli", 2),
                                       ("centre", 1e-3), ("corner", 1e-2)])
def test_the_hierarchy_matches_one_separable_level(toric32, kind, arg):
    # coarse to fine, a target is solved to the potential and energy of
    # one Newton level from the separable start at R = 32, the fallback
    # rule, wherever that level solves it.  On the smooth CLI targets the
    # hierarchy's level at R = 32 takes fewer steps, and within itmax = 40
    # only the hierarchy solves seed 2.  The centre target finds no
    # admissible start, so its result is the fallback's to the bit
    if kind == "cli":  # arg is the CLI seed
        target = solver._toric_demo_target(toric32, arg)
    else:
        n = len(toric32.reference_potential[0])
        node = (n // 2, n // 2) if kind == "centre" else (0, 0)
        target = _near_dirac_target(toric32, node, arg)
    res, one = solver.solve_newton_toric(toric32, target), _separable_only(toric32, target)
    assert res.verdict == "solved"
    assert res.diagnostics["stop_reasons"] == ("tol",) * len(res.energy_trace)
    if kind == "centre":
        assert res.diagnostics.pop("coarse_start_abandoned") == "no admissible start at R = 32"
        assert _bits(res.psi.values) == _bits(one.psi.values)
        assert res.diagnostics == one.diagnostics
        return
    assert res.diagnostics["level_resolutions"] == (8, 16, 32)
    if kind == "cli":
        steps = res.diagnostics["newton"]["iterations"], one.diagnostics["newton"]["iterations"]
        assert steps[0] < steps[1], steps
    if (kind, arg) == ("cli", 2):
        assert one.verdict == "diverged" and one.diagnostics["stop_reasons"] == ("itmax",)
        return
    assert one.verdict == "solved"
    d = res.psi.values - one.psi.values
    assert np.abs(d - d.mean()).max() <= 1e-9
    e, one_e = res.energy_trace[-1], one.energy_trace[-1]
    assert abs(e - one_e) <= 1e-10 * abs(one_e)


def _emptied_demo_target(model):
    """The demo target of seed 0 with no mass on the nodes [12:20, 12:20]."""
    demo = solver._toric_demo_target(model, 0)
    dens = demo.density.copy()
    dens[12:20, 12:20] = 0.0
    dens *= 2.0 / dens.sum()
    return ma.MaMeasure("TwoD", demo.grid, dens, (), float(dens.sum()))


def test_toric_zero_mass_region_needs_the_hull_projection(toric32):
    # the demo target of seed 0 with no mass on a block of interior nodes:
    # accepted steps lift nodes of the empty region off the lower hull,
    # and only projecting them back onto it lets the last level converge
    # (without the projection its line search is exhausted)
    res = solver.solve_newton_toric(toric32, _emptied_demo_target(toric32))
    assert res.verdict == "solved", res.diagnostics["stop_reasons"]
    assert max(res.diagnostics["newton"]["projection_distances"]) > 0


def _newton_systems(model, name):
    """The (jac, act, r, Z, areas) of the 3 Newton systems _newton solves
    first on the smooth or the emptied target: the edge-form Jacobian,
    active nodes and residual _newton_step receives, and the hull heights
    and cell areas of the evaluation they come from."""
    t1, t2, _ = model.reference_potential
    if name == "smooth":
        target, _ = smooth_toric_target(model, 0)
    else:
        target = _emptied_demo_target(model)
    tgt = target.density.ravel() / model.volume
    last, systems = {}, []
    real_cells, real_step = ma._hull_cells, solver._newton_step

    def recording_cells(hull, want_jac=False):
        out = real_cells(hull, want_jac)
        last.update(Z=hull.Z, areas=out[0])
        return out

    def recording_step(jac, act, r):
        systems.append((jac, act, r, last["Z"], last["areas"]))
        return real_step(jac, act, r)

    Psi0 = solver._separable_init(t1, t2, tgt.reshape(len(t1), len(t2)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ma, "_hull_cells", recording_cells)
        mp.setattr(solver, "_newton_step", recording_step)
        solver._newton(t1, t2, Psi0, tgt, itmax=3)
    return systems, tgt


NEWTON_SYSTEMS = [pytest.param(32, "smooth", id="smooth"),
                  pytest.param(32, "emptied", id="emptied"),
                  pytest.param(16, "smooth", id="smooth-R16"),
                  pytest.param(64, "smooth", id="smooth-R64")]


@pytest.mark.parametrize("resolution, name", NEWTON_SYSTEMS)
def test_newton_matrix_is_the_sliced_shifted_jacobian(resolution, name):
    # every Newton step is, to the bit, the banded solve of the full
    # Jacobian's shifted active block from the one-call cell kernel, in
    # that CSC matrix's own Cuthill-McKee order: the step is the same
    # whichever form the matrix is kept in
    model = models.toric_p1p1(resolution)
    t1, t2, _ = model.reference_potential
    systems, tgt = _newton_systems(model, name)
    assert len(systems) == 3
    sizes = []
    for jac, act, r, Z, areas in systems:
        assert np.array_equal(act, (areas > 0) | (tgt > 0))
        _, _, H = ma.toric_cells(t1, t2, Z.reshape(len(t1), len(t2)), want_jac=True)
        d = solver._newton_step(jac, act, r)
        assert not d[~act].any()
        assert d[act].tobytes() == reference_newton_step(H, act, r).tobytes()
        sizes.append(int(act.sum()))
    # the separable start's hull has zero-weight edges, which the matrix drops
    assert (systems[0][0][2] == 0).any()
    if name == "smooth":
        assert sizes == [tgt.size] * 3
    else:
        assert min(sizes) < tgt.size  # inactive nodes: zero area and zero target


@pytest.mark.parametrize("name", ["smooth", "emptied"])
def test_banded_solve_matches_superlu(toric32, name):
    # the banded Cholesky step in Cuthill-McKee order is SuperLU's step up
    # to rounding, on the part Newton moves by; the constant part is the
    # shifted null vector's, set by rounding / 1e-14 in either solver
    t1, t2, _ = toric32.reference_potential
    systems, _ = _newton_systems(toric32, name)
    assert len(systems) == 3
    for jac, act, r, Z, _ in systems:
        _, _, H = ma.toric_cells(t1, t2, Z.reshape(len(t1), len(t2)), want_jac=True)
        x = solver._newton_step(jac, act, r)[act]
        y = spla.spsolve(reference_newton_matrix(H, act), r[act])
        x, y = x - x.mean(), y - y.mean()
        assert np.abs(x - y).max() <= 1e-8 * np.abs(y).max()


def test_a_newton_step_makes_no_coo_round_trip(toric32, monkeypatch):
    # a step keeps its matrix in triplets and builds one CSR pattern from
    # them for the ordering: no compressed matrix is turned into a COO one,
    # and no COO matrix into a CSC one
    conversions = []
    for cls, name in ((sp.csc_matrix, "tocoo"), (sp.coo_matrix, "tocsc")):
        def spy(self, *args, _real=getattr(cls, name), _name=name, **kwargs):
            conversions.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    systems, _ = _newton_systems(toric32, "smooth")
    assert len(systems) == 3
    assert conversions == []


@pytest.mark.parametrize("resolution", [16, 32])
@pytest.mark.parametrize("corners", [(0,), (0, 1, 2, 3)])
def test_a_target_its_start_solves_is_solved(corners, resolution):
    # a target on the corners has an affine separable start, which solves
    # it on the coarsest grid; its prolongation is affine too, so every
    # level of the hierarchy stops on "tol" after no step
    model = models.toric_p1p1(resolution)
    t1, t2, _ = model.reference_potential
    dens = np.zeros((len(t1), len(t2)))
    for c in corners:
        dens[(0, -1, 0, -1)[c], (0, 0, -1, -1)[c]] = model.volume / len(corners)
    res = solver.solve_newton_toric(model, ma.MaMeasure("TwoD", (t1, t2), dens, (), model.volume))
    assert res.verdict == "solved"
    grids = tuple(r for r in (8, 16, 32) if r <= resolution)
    assert res.diagnostics["level_resolutions"] == grids
    assert res.diagnostics["stop_reasons"] == ("tol",) * len(grids)
    assert res.diagnostics["newton"]["iterations"] == 0
    assert res.residual == 0.0 and res.diagnostics["l1_residual"] == 0.0


@pytest.mark.parametrize("node, eps, verdict, stops, steps", [
    ("centre", 1e-3, "solved", ("tol",), 10),
    ("centre", 1e-4, "solved", ("tol",), 9),
    ("corner", 1e-2, "solved", ("tol", "tol", "tol"), 13),
    ("corner", 1e-3, "solved", ("tol", "tol", "tol"), 13),
])
def test_near_dirac_targets_keep_their_newton_run(toric32, node, eps, verdict, stops, steps):
    # the near-Dirac targets keep their verdicts, stop reasons and
    # last-level steps, and no factorization fails on them.  The corner
    # targets are solved coarse to fine (one level each at R = 8, 16 and
    # 32); the centre ones find no admissible start at R = 32, so theirs
    # is the fallback's one level from the separable start at R = 32.  A
    # step count is rounding's and may move with the BLAS kernel
    n = len(toric32.reference_potential[0])
    idx = (n // 2, n // 2) if node == "centre" else (0, 0)
    res = solver.solve_newton_toric(toric32, _near_dirac_target(toric32, idx, eps))
    assert res.verdict == verdict
    assert res.diagnostics["stop_reasons"] == stops
    assert res.diagnostics["newton"]["iterations"] == steps


def test_toric_validation(toric32, radial):
    target, _ = smooth_toric_target(toric32, 1)
    with pytest.raises(InvalidInput):
        solver.solve_newton_toric(radial, target)
    heavy = ma.MaMeasure("TwoD", target.grid, target.density * 1.5, (),
                         target.total_mass * 1.5)
    with pytest.raises(InvalidInput):
        solver.solve_newton_toric(toric32, heavy)
    atomic = ma.MaMeasure("TwoD", target.grid, target.density,
                          (("corner:x|y", 0.1),), target.total_mass)
    with pytest.raises(InvalidInput):
        solver.solve_newton_toric(toric32, atomic)
    dens = target.density.copy()
    dens[5, 5] *= -1.0
    negative = ma.MaMeasure("TwoD", target.grid, dens, (), target.total_mass)
    with pytest.raises(InvalidInput, match="nonnegative"):
        solver.solve_newton_toric(toric32, negative)


def test_nan_target_fails_the_mass_check(radial, product, toric32):
    # nan - v compares false both ways; the mass check must still reject
    # it, before any profile or hull is built from the target
    for model, solve in ((radial, solver.solve_radial),
                         (product, lambda m, t: solver.solve_separable(m, (t, t)))):
        g = models.backend(model).factors(model.zero)[0].base.grid
        w = np.zeros(g.size)
        w[g.size // 2] = 1.0
        w[g.size // 2 + 1] = np.nan
        nan_target = ma.MaMeasure("OneD", g, w, (), float(w.sum()),
                                  cdf_seq=np.concatenate([[0.0], np.cumsum(w)]))
        with pytest.raises(InvalidInput, match="target mass must be 1"):
            solve(model, nan_target)
    target, _ = smooth_toric_target(toric32, 1)
    dens = target.density.copy()
    dens[5, 5] = np.nan
    nan_target = ma.MaMeasure("TwoD", target.grid, dens, (), float(dens.sum()))
    with pytest.raises(InvalidInput, match="target mass must equal the model volume"):
        solver.solve_newton_toric(toric32, nan_target)


def test_uniqueness_check_contract(radial):
    base = radial.reference_potential
    phi = RelativeProfile(base, 0.5 * models.psi_fs(base.grid - 2.0)
                          + 0.5 * base.values - base.values).normalized(-1.0)
    rec = solver.uniqueness_check(radial, phi, phi.shifted(0.0))
    assert rec["passed"] and rec["deviation"] == 0.0
    other = RelativeProfile(base, 0.5 * models.psi_fs(base.grid + 3.0)
                            + 0.5 * base.values - base.values).normalized(-1.0)
    with pytest.raises(PreconditionViolated):
        solver.uniqueness_check(radial, phi, other)


def test_toric_itmax_exhaustion_is_not_solved(toric32):
    # a hard target starved of iterations must not masquerade as solved:
    # the hierarchy runs out of them on a coarse grid, and so does its
    # fallback, one level at R = 32
    target, _ = smooth_toric_target(toric32, 2)
    res = solver.solve_newton_toric(toric32, target, itmax=10)
    assert res.verdict == "diverged"
    assert res.diagnostics["stop_reasons"] == ("itmax",)
    assert res.diagnostics["newton"]["iterations"] == 10
    assert res.diagnostics["coarse_start_abandoned"] == "the solve at R = 16 diverged"


def test_uniqueness_toric(toric32):
    target, vals = smooth_toric_target(toric32, 2)
    res = solver.solve_newton_toric(toric32, target)
    t1, t2, _ = toric32.reference_potential
    gen = ToricGrid(t1, t2, vals - (vals - res.psi.values).mean())
    rec = solver.uniqueness_check(toric32, res.psi, gen, measure_tol=1e-5,
                                  deviation_tol=1e-4)
    assert rec["passed"]


@pytest.mark.parametrize("resolution", [32, 64])
def test_restriction_keeps_mass_and_prolongation_keeps_the_coarse_nodes(resolution):
    # full weighting moves every fine node's mass onto the coarse nodes
    # around it, none of it lost and none turned negative; prolongation
    # copies the coarse nodes bit for bit and keeps affine potentials affine
    rng = np.random.default_rng(resolution)
    n = resolution + 1
    model = models.toric_p1p1(resolution)
    holes = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    for dens in (holes, solver._toric_demo_target(model, 0).density,
                 _near_dirac_target(model, (0, 0), 1e-3).density):
        T = dens / dens.sum()
        Tc = solver._restrict(T)
        assert Tc.shape == (resolution // 2 + 1,) * 2
        assert abs(Tc.sum() - 1.0) <= 1e-15
        assert (Tc >= 0).all()
    Psi = (models.toric_p1p1(resolution // 2).reference_potential[2]
           + rng.normal(size=(resolution // 2 + 1,) * 2))
    fine = solver._prolong(Psi)
    assert fine.shape == (n, n)
    assert fine[::2, ::2].tobytes() == Psi.tobytes()
    t1, t2, _ = model.reference_potential
    affine = 0.3 * t1[:, None] - 0.7 * t2[None, :] + 2.0
    assert np.abs(solver._prolong(affine[::2, ::2]) - affine).max() <= 1e-13


@pytest.mark.parametrize("resolution", [32, 64, 128])
def test_the_sliced_coarse_grid_is_the_coarser_models(resolution):
    # the hierarchy's coarser grid, every other node of the finer one, is
    # toric_p1p1(R/2)'s grid and reference potential to the bit
    t1, t2, base = models.toric_p1p1(resolution).reference_potential
    c1, c2, coarse = models.toric_p1p1(resolution // 2).reference_potential
    assert _bits(t1[::2]) == _bits(c1) and _bits(t2[::2]) == _bits(c2)
    assert _bits(base[::2, ::2]) == _bits(coarse)


def test_a_stalled_level_at_r_gives_the_schedules_bytes(toric32):
    # the level at R = 32, forced to stall (no step allowed), abandons the
    # coarse start: the result is the fallback's on R = 32 to the bit, one
    # level from the separable start, plus the reason it was abandoned
    target = solver._toric_demo_target(toric32, 1)
    real = solver._newton

    def stalling(t1, t2, Psi0, tgt, itmax=40, evaluation=None):
        if len(t1) == 33 and evaluation is not None and not stalled:
            stalled.append(1)  # the first level at R = 32 with an evaluation: the coarse start's
            itmax = 0
        return real(t1, t2, Psi0, tgt, itmax=itmax, evaluation=evaluation)

    stalled = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton", stalling)
        res = solver.solve_newton_toric(toric32, target)
    assert stalled
    old = _separable_only(toric32, target)
    why = res.diagnostics.pop("coarse_start_abandoned")
    assert why == "the level at R = 32 stopped on 'itmax'"
    assert "coarse_start_abandoned" not in old.diagnostics
    assert res.verdict == old.verdict == "solved"
    assert _bits(res.psi.values) == _bits(old.psi.values)
    assert _bits(res.energy_trace) == _bits(old.energy_trace)
    assert _bits(res.residual) == _bits(old.residual)
    assert res.diagnostics == old.diagnostics
    assert old.diagnostics["level_resolutions"] == (32,)


def _verdict_family(model):
    """The targets of the verdict test at the model's resolution: the CLI
    demo targets of seeds 0-7, the four near-Dirac targets, the emptied
    demo target, and the targets on one corner and on the four corners."""
    n = len(model.reference_potential[0])
    out = [(f"cli {seed}", solver._toric_demo_target(model, seed)) for seed in range(8)]
    out += [(f"{node} {eps}", _near_dirac_target(model, idx, eps))
            for node, idx in (("centre", (n // 2, n // 2)), ("corner", (0, 0)))
            for eps in (1e-3, 1e-4 if node == "centre" else 1e-2)]
    out.append(("emptied", _emptied_demo_target(model)))
    t1, t2, _ = model.reference_potential
    for corners in ((0,), (0, 1, 2, 3)):
        dens = np.zeros((n, n))
        for c in corners:
            dens[(0, -1, 0, -1)[c], (0, 0, -1, -1)[c]] = model.volume / len(corners)
        out.append((f"corners {corners}", ma.MaMeasure("TwoD", (t1, t2), dens, (), model.volume)))
    return out


def test_the_coarse_start_moves_no_verdict(toric32):
    # every target of the family is solved, coarse to fine or by the
    # fallback at R = 32; the family's R = 64 members, the 10 acceptance
    # targets, are solved by tests/test_acceptance.py::test_toric_round_trip_64
    abandoned = {}
    for name, target in _verdict_family(toric32):
        res = solver.solve_newton_toric(toric32, target)
        assert res.verdict == "solved", (name, res.diagnostics["stop_reasons"])
        if "coarse_start_abandoned" in res.diagnostics:
            abandoned[name] = res.diagnostics["coarse_start_abandoned"]
    assert abandoned == {"centre 0.001": "no admissible start at R = 32",
                         "centre 0.0001": "no admissible start at R = 32",
                         "emptied": "the level at R = 32 stopped on 'line_search'"}


def test_cli_solves_count_their_r32_hulls_and_steps(tmp_path):
    # one pass of the toric-solve benchmark's calls, `ma-lab solve --model
    # toric-p1p1:32 --seed {0,1,2}`: lower hulls and Newton steps per
    # grid; 3 of the hulls at R = 32 are the demo targets' own
    from ma_lab import cli

    hulls, steps = [], []
    real_hull, real_step = ma._lower_hull, solver._newton_step

    def counting_hull(t1, t2, Psi):
        hulls.append(len(t1))
        return real_hull(t1, t2, Psi)

    def counting_step(jac, act, r):
        steps.append(act.size)
        return real_step(jac, act, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ma, "_lower_hull", counting_hull)
        mp.setattr(solver, "_newton_step", counting_step)
        for seed in range(3):
            assert cli.main(["solve", "--model", "toric-p1p1:32", "--seed", str(seed),
                             "--out", str(tmp_path / str(seed))]) == 0
    counts = {n - 1: (hulls.count(n), steps.count(n * n)) for n in sorted(set(hulls))}
    assert counts == {8: (56, 53), 16: (30, 21), 32: (33, 20)}, counts


def test_the_held_evaluation_is_the_measure_of_the_solution(toric32):
    # the final measure read off the last level's cells is toric_measure's
    # of the returned potential, which differs from the level's by a constant
    for seed in range(3):
        target = solver._toric_demo_target(toric32, seed)
        res = solver.solve_newton_toric(toric32, target)
        got = ma.toric_measure(toric32, res.psi)
        assert abs(ma.cdf_sup_distance(got, target) - res.residual) <= 1e-15
        l1 = float(np.abs(got.density - target.density).sum())
        assert abs(l1 - res.diagnostics["l1_residual"]) <= 1e-14


def test_an_admissible_start_stops_when_a_round_changes_nothing(toric32):
    # lowering a plane region of equal targets by one depth leaves it
    # plane: on the centre near-Dirac target the prolonged R = 16 solution
    # has the same 1,080 empty cells after a round as before it, and the
    # search stops there, after two hulls, not after ADMISSIBLE_ROUNDS
    n = len(toric32.reference_potential[0])
    T = _near_dirac_target(toric32, (n // 2, n // 2), 1e-3).density / toric32.volume
    t1, t2, base = toric32.reference_potential
    Psi, info, _, _ = solver._coarse_to_fine((t1[::2], t2[::2], base[::2, ::2]),
                                             solver._restrict(T), 1.0, toric32.volume, 40)
    assert not info["stalled"]
    hulls = []
    real = ma._lower_hull

    def counting(*args):
        hulls.append(1)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ma, "_lower_hull", counting)
        assert solver._admissible_start(t1, t2, solver._prolong(Psi), T.ravel()) == (None, None)
    assert len(hulls) == 2 < solver.ADMISSIBLE_ROUNDS
    res = solver.solve_newton_toric(toric32, _near_dirac_target(toric32, (n // 2, n // 2), 1e-3))
    assert res.diagnostics["coarse_start_abandoned"] == "no admissible start at R = 32"
