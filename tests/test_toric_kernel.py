"""Toric kernel against the per-node reference, and the one-hull rule.

The vectorized dual-cell kernel in ``ma`` must agree with the
Sutherland-Hodgman loop and the Delaunay-interpolated hull projection in
``toric_reference`` on smooth, degenerate and non-convex potentials, and
build one lower hull per evaluation, held by the caller.  On one hull,
``ma._hull_cells`` must equal, bit for bit, the kernel that clipped every
dual edge (``toric_reference.reference_hull_cells``).  The Newton
solver's chord check, which rejects a trial before its hull is built,
may flag only nodes that qhull leaves off the lower hull.  A strictly
convex lift is built without qhull's premerge, and must give the lower
triangles, cells and moments of the merged build; every other lift keeps
the merge.  The kernel pairs the dual edges through qhull's facet
adjacency (``_LowerHull.nbrs``), and must give the oracle's sort-based
pairing on merged, affine, folded and nearly planar hulls.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ma_lab import ma, models, solver
from ma_lab.errors import PreconditionViolated
from ma_lab.models import ToricGrid
from test_solver import _emptied_demo_target
from toric_reference import _dual_segments as reference_dual_segments
from toric_reference import reference_cells, reference_hull_cells, reference_hull_projection

TOL = 1e-12


@pytest.fixture(scope="module")
def grid16():
    t1, t2, base = models.toric_p1p1(16).reference_potential
    return t1, t2, base


def assert_matches_reference(t1, t2, Psi):
    areas, mom, H = ma.toric_cells(t1, t2, Psi, want_jac=True)
    ref_areas, ref_mom, ref_H = reference_cells(t1, t2, Psi, want_jac=True)
    assert np.abs(areas - ref_areas).max() <= TOL
    assert np.abs(mom - ref_mom).max() <= TOL
    assert abs(H - ref_H).max() <= TOL
    assert areas.sum() == pytest.approx(1.0, abs=TOL)
    assert_bit_identical(ma._lower_hull(t1, t2, Psi))


def assert_bit_identical(hull):
    """_hull_cells equals the clip-every-edge kernel by bytes: areas,
    moments and the four Jacobian arrays, with and without the Jacobian."""
    for want_jac in (False, True):
        areas, mom, jac = ma._hull_cells(hull, want_jac)
        ref_areas, ref_mom, ref_jac = reference_hull_cells(hull, want_jac)
        got, want = [areas, mom], [ref_areas, ref_mom]
        if want_jac:
            got += list(jac)
            want += list(ref_jac)
        else:
            assert jac is None and ref_jac is None
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def _degenerate(name, t1, t2, base):
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    if name == "separable":
        return base  # lifted grid quads are coplanar
    if name == "kinked":
        return 0.3 * T1 ** 2 / 64 + 0.4 * np.abs(T2)
    if name == "ruled":
        return 0.5 * T1 ** 2 / 64  # dual edges lie on the side y = 0
    # gradients leave the square on every side
    return 2.0 * base - 0.5 * (T1 + T2) + 0.01 * T1 ** 2


@pytest.mark.parametrize("name", ["separable", "kinked", "ruled", "leaving"])
def test_cells_match_reference_on_degenerate_potentials(grid16, name):
    t1, t2, base = grid16
    assert_matches_reference(t1, t2, _degenerate(name, t1, t2, base))


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from([16, 32]), e=st.floats(0.0, 2 * ma.INTERIOR_MARGIN),
       jump=st.floats(0.05, 0.9), at=st.integers(1, 15), lin=st.floats(0.1, 0.9),
       q=st.floats(0.0, 0.35), axis=st.integers(0, 1), flip=st.booleans())
def test_cells_are_bit_identical_with_ends_near_a_side(r, e, jump, at, lin, q, axis, flip):
    # along one axis the slopes are 1 - e - jump, then 1 - e past a kink
    # (e and e + jump when flipped), so many dual edges end within
    # 0-2 * INTERIOR_MARGIN of a side, on both sides of the margin
    t1, t2, _ = models.toric_p1p1(r).reference_potential
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    A, C = (T1, T2) if axis == 0 else (T2, T1)
    c = t1[at * r // 16]  # an inner grid line, so Psi is not affine

    def g(x):
        return (1.0 - e - jump) * x + jump * np.maximum(x - c, 0.0)

    Psi = lin * A + q * A ** 2 / 64 + (C + g(-C) if flip else g(C))
    assert_bit_identical(ma._lower_hull(t1, t2, Psi))


def test_affine_potential_puts_its_mass_on_the_corners():
    # qhull rejects the flat lift; the hull is the plane, and the cell of
    # each corner is the rectangle the gradient (a, b) cuts off the square
    model = models.toric_p1p1(16)
    t1, t2, _ = model.reference_potential
    a, b = 0.3, 0.65
    dens = ma.toric_measure(model, ToricGrid(t1, t2, a * t1[:, None] + b * t2[None, :] + 0.7)).density
    corners = dens[[0, -1, 0, -1], [0, 0, -1, -1]]
    want = [2 * a * b, 2 * (1 - a) * b, 2 * a * (1 - b), 2 * (1 - a) * (1 - b)]
    assert corners == pytest.approx(want, abs=TOL)
    assert np.count_nonzero(dens) == 4


def test_a_rejected_lift_off_the_corner_plane_raises(grid16, monkeypatch):
    t1, t2, base = grid16

    def rejecting(*args, **kwargs):
        raise ma.QhullError("QH6154 initial simplex is flat")

    monkeypatch.setattr(ma, "ConvexHull", rejecting)
    with pytest.raises(PreconditionViolated, match="qhull rejects the lifted toric grid"):
        ma._lower_hull(t1, t2, base)
    assert ma._lower_hull(t1, t2, 0.5 * t1[:, None] - 0.1 * t2[None, :]).tris.shape == (2, 3)


def assert_neighbours(hull):
    """hull.nbrs is qhull's adjacency of the lower facets: the facet
    across the edge opposite vertex j of a facet holds that edge and
    names the facet back."""
    nbrs, tris = hull.nbrs, hull.tris
    assert nbrs.dtype == np.int32 and nbrs.shape == tris.shape
    f, j = np.nonzero(nbrs >= 0)
    g = nbrs[f, j]
    for end in (tris[f, (j + 1) % 3], tris[f, (j + 2) % 3]):
        assert (tris[g] == end[:, None]).any(axis=1).all()
    assert (nbrs[g] == f[:, None]).any(axis=1).all()


def _folded(hull):
    """Whether the half-edges of hull.nbrs's shared edges fail to split
    into one with k -> l per edge, so _dual_segments pairs by sorting."""
    src, dst = hull.tris.ravel(), hull.tris[:, [1, 2, 0]].ravel()
    shared = hull.nbrs[:, [2, 0, 1]].ravel() >= 0
    key = np.sort((src * len(hull.V) + dst)[shared & (src < dst)])
    return 2 * len(key) != shared.sum() or bool((key[1:] == key[:-1]).any())


def _neighbour_case(name, t1, t2, base):
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    if name == "separable":
        return base
    if name == "affine":  # qhull rejects it: the two-triangle fallback
        return 0.3 * T1 - 0.2 * T2 + 1.0
    if name == "two planes":  # they meet on the diagonal
        return np.maximum(0.3 * T1 + 0.1 * T2, 0.1 * T1 + 0.3 * T2)
    if name == "quantized":
        return np.round(8.0 * base) / 8.0
    # nearly planar: qhull folds its lower facets
    return T1 + 0.5 * T2 + 1e-13 * (T1 ** 2 + T2 ** 2)


@pytest.mark.parametrize("r", [16, 32])
@pytest.mark.parametrize("name", ["separable", "affine", "two planes", "quantized", "folded"])
def test_dual_edges_pair_through_the_neighbour_table(r, name):
    # merged builds and the affine fallback; a folded hull pairs by the
    # stable sort of every key, as the oracle does
    t1, t2, base = models.toric_p1p1(r).reference_potential
    hull = ma._lower_hull(t1, t2, _neighbour_case(name, t1, t2, base))
    assert_neighbours(hull)
    assert _folded(hull) == (name == "folded")
    if name == "affine":
        assert hull.tris.shape == (2, 3)
    for got, want in zip(ma._dual_segments(hull), reference_dual_segments(hull)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert_bit_identical(hull)


def test_dual_edges_sort_one_key_per_shared_edge(monkeypatch):
    # qhull's adjacency pairs the half-edges: only the shared edges'
    # keys are sorted, at most half as many as there are half-edges
    t1, t2, _ = models.toric_p1p1(32).reference_potential
    hull = ma._lower_hull(t1, t2, _smooth(t1, t2, (0.3, 0.6)))
    assert_neighbours(hull)
    sizes = []
    real = np.argsort

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return real(a, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np, "argsort", counting)
        ma._dual_segments(hull)
    assert 0 < sum(sizes) <= hull.tris.size // 2


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from([16, 32]),
       plane=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-2.0, 2.0)),
       eps=st.floats(-13.0, -6.0), bump=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_nearly_planar_lifts_build_and_match_the_oracle(r, plane, eps, bump, seed):
    # a plane plus noise of relative size 10**eps, or plus a convex bump
    # of that size with a tenth of the noise: the hull builds, and its
    # cells are the oracle's, folded or not
    t1, t2, _ = models.toric_p1p1(r).reference_potential
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    flat = plane[0] * T1 + plane[1] * T2 + plane[2]
    lift = np.random.default_rng(seed).uniform(-1.0, 1.0, flat.shape)
    if bump:
        lift = 0.1 * lift + (T1 ** 2 + T2 ** 2) / (T1 ** 2 + T2 ** 2).max()
    hull = ma._lower_hull(t1, t2, flat + 10.0 ** eps * max(1.0, np.abs(flat).max()) * lift)
    assert_bit_identical(hull)


@pytest.mark.parametrize("r", [64, 128])
def test_cells_are_bit_identical_on_the_smooth_family(r):
    t1, t2, _ = models.toric_p1p1(r).reference_potential
    for seed in (301, 302):
        c = np.random.default_rng(seed).uniform(0.2, 0.8, 2)
        vals = (np.logaddexp(0.0, c[0] * t1[:, None] + c[1] * t2[None, :])
                + np.logaddexp(0.0, (1 - c[0]) * t1[:, None] + (1 - c[1]) * t2[None, :]))
        assert_bit_identical(ma._lower_hull(t1, t2, vals))


@settings(max_examples=100, deadline=None)
@given(w=st.floats(0.0, 2.0), q=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
       lin=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       kink=st.floats(0.0, 0.6), at=st.integers(0, 16),
       bump=st.floats(0.0, 0.5), node=st.tuples(st.integers(0, 16), st.integers(0, 16)))
def test_cells_match_reference(grid16, w, q, lin, kink, at, bump, node):
    t1, t2, base = grid16
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    # the quadratic part keeps dual edges off the sides of the square,
    # where the area map is not differentiable and the Jacobian entry is
    # a convention read from rounded data (see the "ruled" case above)
    Psi = (w * base + (q[0] * T1 ** 2 + q[1] * T2 ** 2) / 64 + lin[0] * T1 + lin[1] * T2
           + kink * np.abs(T2 - t2[at]))
    Psi[node] += bump  # may lift a node off the hull
    assert_matches_reference(t1, t2, Psi)


def test_hull_projection_matches_reference_off_hull(grid16):
    t1, t2, base = grid16
    bad = base.copy()
    bad[8, 8] += 0.5
    low, dist = ma.toric_hull_projection(t1, t2, bad)
    ref_low, ref_dist = reference_hull_projection(t1, t2, bad)
    assert dist > 0.1 and low[8, 8] < bad[8, 8]
    assert np.abs(low - ref_low).max() <= TOL
    assert abs(dist - ref_dist) <= TOL


@pytest.fixture
def hull_calls(monkeypatch):
    calls = []
    real = ma.ConvexHull

    def counting(*args, **kwargs):
        calls.append(kwargs["qhull_options"])
        return real(*args, **kwargs)

    monkeypatch.setattr(ma, "ConvexHull", counting)
    return calls


MERGED, UNMERGED = "Qt", "Qt Q0"


def _smooth(t1, t2, c):
    return (np.logaddexp(0.0, c[0] * t1[:, None] + c[1] * t2[None, :])
            + np.logaddexp(0.0, (1 - c[0]) * t1[:, None] + (1 - c[1]) * t2[None, :]))


def test_lifts_with_nodes_on_the_hull_surface_keep_the_merge(grid16, hull_calls):
    t1, t2, base = grid16
    lifts = [_degenerate(name, t1, t2, base) for name in ("separable", "kinked", "ruled", "leaving")]
    lifts.append(0.3 * t1[:, None] - 0.2 * t2[None, :] + 1.0)  # affine: qhull rejects it
    # a target with no mass on a block of nodes: its separable start, and
    # the first Newton iterate, projected onto its hull
    demo = solver._toric_demo_target(models.toric_p1p1(16), 0).density.copy()
    demo[6:10, 6:10] = 0.0
    T = demo / demo.sum()
    start = solver._separable_init(t1, t2, T)
    P, _, info = solver._newton(t1, t2, start, T.ravel(), itmax=1)
    assert info["projection_distances"][0] > 0
    lifts += [start, P]
    del hull_calls[:]
    for Psi in lifts:
        assert not ma._strictly_convex(Psi)
        ma._lower_hull(t1, t2, Psi)
    assert hull_calls == [MERGED] * len(lifts)


@pytest.mark.parametrize("r", [64, 128])
def test_the_smooth_family_is_built_without_the_merge(r, hull_calls):
    t1, t2, _ = models.toric_p1p1(r).reference_potential
    for seed in (301, 302):
        rng = np.random.default_rng(seed)
        for _ in range(2):  # perfbench's toric-measure inputs at these seeds
            ma._lower_hull(t1, t2, _smooth(t1, t2, rng.uniform(0.2, 0.8, 2)))
    assert hull_calls == [UNMERGED] * 4


def test_a_strictly_convex_lift_the_unmerged_build_rejects_is_built_with_the_merge(
        monkeypatch):
    # qhull's unmerged build can raise on a nearly planar lift that passes
    # the screen, from rounding on its upper side; the merged build of the
    # same lift is the hull, bit for bit
    t1, t2, _ = models.toric_p1p1(32).reference_potential
    Psi = _smooth(t1, t2, (0.3, 0.6))
    assert ma._strictly_convex(Psi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ma, "_strictly_convex", lambda Psi: False)
        merged = ma._lower_hull(t1, t2, Psi)
    options = []
    real = ma.ConvexHull

    def rejecting_unmerged(*args, **kwargs):
        options.append(kwargs["qhull_options"])
        if kwargs["qhull_options"] == UNMERGED:
            raise ma.QhullError("QH6115 qhull precision error: f1 is concave to f13")
        return real(*args, **kwargs)

    monkeypatch.setattr(ma, "ConvexHull", rejecting_unmerged)
    hull = ma._lower_hull(t1, t2, Psi)
    assert options == [UNMERGED, MERGED]
    for name, want in vars(merged).items():
        got = getattr(hull, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _lower_triangles(hull):
    return sorted(map(tuple, np.sort(hull.tris, axis=1)))


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from([16, 32]), c=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
       w=st.floats(0.0, 1.0), eig=st.tuples(st.floats(-6.0, 0.0), st.floats(-6.0, 0.0)),
       angle=st.floats(0.0, np.pi), lin=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_unmerged_build_of_a_strictly_convex_lift_matches_the_merged(r, c, w, eig, angle, lin):
    # the smooth family plus a quadratic with Hessian eigenvalues down to
    # 1e-6 along a drawn axis; only lifts that pass the screen count
    t1, t2, _ = models.toric_p1p1(r).reference_potential
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    u = np.cos(angle) * T1 + np.sin(angle) * T2
    v = np.cos(angle) * T2 - np.sin(angle) * T1
    Psi = (w * _smooth(t1, t2, c) + (10.0 ** eig[0] * u ** 2 + 10.0 ** eig[1] * v ** 2) / 64
           + lin[0] * T1 + lin[1] * T2)
    assume(ma._strictly_convex(Psi))
    options = []
    real = ma.ConvexHull

    def recording(*args, **kwargs):
        options.append(kwargs["qhull_options"])
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ma, "ConvexHull", recording)
        fast = ma._lower_hull(t1, t2, Psi)
        mp.setattr(ma, "_strictly_convex", lambda Psi: False)
        merged = ma._lower_hull(t1, t2, Psi)
    assert options == [UNMERGED, MERGED]
    assert _lower_triangles(fast) == _lower_triangles(merged)
    (areas, mom, _), (ref_areas, ref_mom, _) = ma._hull_cells(fast), ma._hull_cells(merged)
    assert np.abs(areas - ref_areas).max() <= TOL
    assert np.abs(mom - ref_mom).max() <= TOL


def test_measure_builds_one_hull(grid16, hull_calls):
    t1, t2, base = grid16
    model = models.toric_p1p1(16)
    psi = ToricGrid(t1, t2, base + 0.01 * t1[:, None] ** 2)
    ma.toric_measure(model, psi)
    assert len(hull_calls) == 1


def test_newton_builds_no_more_hulls_than_cell_calls(monkeypatch, hull_calls):
    model = models.toric_p1p1(16)
    t1, t2, _ = model.reference_potential
    c = (0.35, 0.6)
    vals = (np.logaddexp(0.0, c[0] * t1[:, None] + c[1] * t2[None, :])
            + np.logaddexp(0.0, (1 - c[0]) * t1[:, None] + (1 - c[1]) * t2[None, :]))
    areas, _, _ = ma.toric_cells(t1, t2, vals)
    target = ma.MaMeasure("TwoD", (t1, t2), 2.0 * areas.reshape(vals.shape), (),
                          2.0 * float(areas.sum()))
    cell_calls = []
    real_cells = ma._hull_cells

    def counting_cells(*args, **kwargs):
        cell_calls.append(1)
        return real_cells(*args, **kwargs)

    monkeypatch.setattr(ma, "_hull_cells", counting_cells)
    del hull_calls[:]
    res = solver.solve_newton_toric(model, target)
    assert res.verdict == "solved"
    assert 0 < len(hull_calls) <= len(cell_calls)


def test_returned_arrays_do_not_reach_the_cached_hull(grid16):
    t1, t2, base = grid16
    Psi = base + 0.02 * t2[None, :] ** 2
    areas, mom, H = ma.toric_cells(t1, t2, Psi, want_jac=True)
    low, dist = ma.toric_hull_projection(t1, t2, Psi)
    want = (areas.copy(), mom.copy(), H.toarray(), low.copy())
    areas[:] = -1.0
    mom[:] = -1.0
    H.data[:] = 0.0
    low[:] = -1.0
    hull = ma._lower_hull(t1, t2, Psi)
    assert not any(a.flags.writeable for a in vars(hull).values())
    areas2, mom2, H2 = ma.toric_cells(t1, t2, Psi, want_jac=True)
    low2, dist2 = ma.toric_hull_projection(t1, t2, Psi)
    assert np.array_equal(areas2, want[0]) and np.array_equal(mom2, want[1])
    assert np.array_equal(H2.toarray(), want[2])
    assert np.array_equal(low2, want[3]) and dist2 == dist
    # mutating the caller's input after the call must not leave a stale hull
    Psi[4, 4] += 1.0
    low3, dist3 = ma.toric_hull_projection(t1, t2, Psi)
    assert dist3 > 0.5 and low3[4, 4] < Psi[4, 4]


def assert_flagged_nodes_are_off_hull(t1, t2, Psi):
    """Every node solver._above_a_chord flags is off qhull's lower hull
    and has an empty cell; returns how many it flags."""
    flagged = np.flatnonzero(solver._above_a_chord(Psi))
    if flagged.size:
        hull = ma._lower_hull(t1, t2, Psi)
        areas, _, _ = ma._hull_cells(hull)
        assert not hull.on_hull[flagged].any(), flagged[hull.on_hull[flagged]]
        assert (areas[flagged] == 0.0).all()
    return flagged.size


def test_chord_check_on_newton_trials():
    # every trial potential that the solves of the CLI's R = 32 demo
    # targets (seeds 0-2) send to the check, each on its own grid: the
    # coarse levels' trials are on the 9 x 9 and 17 x 17 grids of every
    # fourth and every other node
    model = models.toric_p1p1(32)
    t = model.reference_potential[0]
    trials = []
    real = solver._above_a_chord

    def recording(Psi):
        trials.append(Psi.copy())
        return real(Psi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_above_a_chord", recording)
        for seed in range(3):
            solver.solve_newton_toric(model, solver._toric_demo_target(model, seed))
    axes = [t[::32 // (len(Psi) - 1)] for Psi in trials]
    flagged = [assert_flagged_nodes_are_off_hull(s, s, Psi) for s, Psi in zip(axes, trials)]
    assert {len(Psi) for Psi in trials} == {9, 17, 33}
    assert sum(n > 0 for n in flagged) >= 50, (len(trials), flagged)


@settings(max_examples=100, deadline=None)
@given(w=st.floats(0.0, 2.0), q=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       lin=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       bumps=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16),
                                st.sampled_from([-1.0, 1.0]), st.floats(-13.0, 0.0)),
                      min_size=1, max_size=12))
def test_chord_check_on_bumped_convex_grids(grid16, w, q, lin, bumps):
    # convex grids with bumps up and down, from well above qhull's
    # rounding down to the check's own margin
    t1, t2, base = grid16
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    Psi = w * base + (q[0] * T1 ** 2 + q[1] * T2 ** 2) / 64 + lin[0] * T1 + lin[1] * T2
    for i, j, sign, exponent in bumps:
        Psi[i, j] += sign * 10.0 ** exponent
    assert_flagged_nodes_are_off_hull(t1, t2, Psi)


@pytest.mark.parametrize("resolution", [16, 32, 64])
def test_the_projection_block_moves_no_bit(resolution):
    # PROJECTION_BLOCK bounds the facet-plane values held at once (1 << 16,
    # 512 kB); the projections are those of the former 1 << 20 block to
    # the bit, on a lift with about half its nodes pushed off the hull and
    # through the whole Newton run of the emptied target, which moves nodes
    model = models.toric_p1p1(resolution)
    t1, t2, base = model.reference_potential
    rng = np.random.default_rng(resolution)
    hull = ma._lower_hull(t1, t2, base + rng.uniform(0, 0.3, base.shape)
                          * (rng.random(base.shape) < 0.5))
    assert (~hull.on_hull).sum() > base.size // 5
    low, dist = ma._hull_projection(hull)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ma, "PROJECTION_BLOCK", 1 << 20)
        wide, wide_dist = ma._hull_projection(hull)
    assert low.tobytes() == wide.tobytes() and dist == wide_dist
    # nor does a block of k times the facet count: no block is left with
    # one node, which numpy would take by a matrix-vector product
    for k in (1, 2, 3, 4, 8, 16, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ma, "PROJECTION_BLOCK", k * len(hull.icpt))
            blocked, blocked_dist = ma._hull_projection(hull)
        assert low.tobytes() == blocked.tobytes() and dist == blocked_dist, k
    if resolution == 32:
        emptied = _emptied_demo_target(model)
        res = solver.solve_newton_toric(model, emptied)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ma, "PROJECTION_BLOCK", 1 << 20)
            wide = solver.solve_newton_toric(model, emptied)
        assert max(res.diagnostics["newton"]["projection_distances"]) > 0
        assert res.psi.values.tobytes() == wide.psi.values.tobytes()
        assert res.diagnostics == wide.diagnostics
