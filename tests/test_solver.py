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


SHORT_WIDTHS = (0.125, 0.03125)  # two-level warm start for smooth targets


def test_toric_direct_solve(toric32):
    target, vals = smooth_toric_target(toric32, 0)
    res = solver.solve_newton_toric(toric32, target, widths=())
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
    """solve_newton_toric, with the lower hulls it builds and each
    level's Newton iterations counted."""
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
    return res, len(hulls), tuple(iterations)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_toric_schedule_boundary_target(toric32):
    # boundary-touching slopes, and the target of `ma-lab solve --model
    # toric-p1p1:32 --seed 2`: a level's full Newton step used to reach
    # the tolerance yet fail the Armijo test on merit rounding noise,
    # stalling the level and poisoning the whole schedule with a
    # "diverged" verdict
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
        assert len(res.energy_trace) == len(solver.DEFAULT_WIDTHS) + 1
        assert stops == ("tol",) * len(res.energy_trace), (name, stops)
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


EIGHT_WIDTHS = tuple(2.0 ** -j for j in range(3, 11))  # the default before (0.125,)


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
def test_one_width_schedule_matches_eight_in_fewer_steps(toric32, kind, arg):
    # the default one-level warm start solves what the eight-width
    # schedule solves, to the same potential and energy, in fewer steps
    if kind == "cli":  # arg is the CLI seed
        target = solver._toric_demo_target(toric32, arg)
    else:
        n = len(toric32.reference_potential[0])
        node = (n // 2, n // 2) if kind == "centre" else (0, 0)
        target = _near_dirac_target(toric32, node, arg)
    res, _, iterations = _solve_counting_hulls(toric32, target)
    old, _, old_iterations = _solve_counting_hulls(toric32, target, widths=EIGHT_WIDTHS)
    assert res.verdict == "solved" and old.verdict == "solved"
    assert res.diagnostics["stop_reasons"] == ("tol", "tol")
    d = res.psi.values - old.psi.values
    assert np.abs(d - d.mean()).max() <= 1e-9
    e, old_e = res.energy_trace[-1], old.energy_trace[-1]
    assert abs(e - old_e) <= 1e-10 * abs(old_e)
    assert sum(iterations) < sum(old_iterations), (iterations, old_iterations)


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


@pytest.mark.parametrize("widths", [solver.DEFAULT_WIDTHS, (0.25, 0.125)])
@pytest.mark.parametrize("corners", [(0,), (0, 1, 2, 3)])
def test_a_target_its_start_solves_is_solved(corners, widths):
    # a target on the corners has an affine separable start, which solves
    # it; the first mollified level stalls there, the schedule goes on to
    # the last level, and that level stops on "tol" after no step
    model = models.toric_p1p1(16)
    t1, t2, _ = model.reference_potential
    dens = np.zeros((len(t1), len(t2)))
    for c in corners:
        dens[(0, -1, 0, -1)[c], (0, 0, -1, -1)[c]] = model.volume / len(corners)
    res = solver.solve_newton_toric(model, ma.MaMeasure("TwoD", (t1, t2), dens, (), model.volume),
                                    widths=widths)
    assert res.verdict == "solved"
    assert res.diagnostics["stop_reasons"] == ("line_search", "tol")
    assert res.diagnostics["newton"]["iterations"] == 0
    assert res.residual == 0.0 and res.diagnostics["l1_residual"] == 0.0
    assert len(res.energy_trace) == 2


@pytest.mark.parametrize("node, eps, verdict, stops, steps", [
    ("centre", 1e-3, "solved", ("tol", "tol"), 14),
    ("centre", 1e-4, "diverged", ("line_search",), 0),
    ("corner", 1e-2, "solved", ("tol", "tol"), 9),
    ("corner", 1e-3, "diverged", ("line_search",), 2),
])
def test_near_dirac_targets_keep_their_newton_run(toric32, node, eps, verdict, stops, steps):
    # the near-Dirac targets at the edge of what the default schedule
    # solves keep their verdicts, stop reasons and last-level steps, and
    # no factorization fails on them.  The centre target's step count is
    # rounding's: it took 13 steps under SuperLU's step and with qhull's
    # premerge on every hull, and it moves with the BLAS kernel
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
    with pytest.raises(InvalidInput):
        solver.solve_newton_toric(toric32, target, widths=(0.1, 0.2))


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
    # a hard target starved of iterations must not masquerade as solved
    target, _ = smooth_toric_target(toric32, 2)
    res = solver.solve_newton_toric(toric32, target, widths=(), itmax=10)
    assert res.verdict == "diverged"
    assert res.diagnostics["stop_reasons"] == ("itmax",)
    assert res.diagnostics["newton"]["iterations"] == 10


def test_uniqueness_toric(toric32):
    target, vals = smooth_toric_target(toric32, 2)
    res = solver.solve_newton_toric(toric32, target, widths=SHORT_WIDTHS)
    t1, t2, _ = toric32.reference_potential
    gen = ToricGrid(t1, t2, vals - (vals - res.psi.values).mean())
    rec = solver.uniqueness_check(toric32, res.psi, gen, measure_tol=1e-5,
                                  deviation_tol=1e-4)
    assert rec["passed"]
