"""Solvers for the measure equation on each backend.

The radial backend inverts the sublevel-mass law in closed form: the
target's distribution function F determines the solution slopes
s = cap * sqrt(F) cell by cell, and one cumulative sum recovers the
potential.  The separable product backend runs the same routine per
factor with s = F.  The toric backend runs a damped Newton method on the
Aleksandrov cell areas, with a convex dual merit function and an
active-set reduced Jacobian, by one rule on every grid of a hierarchy:
the target is restricted to the grid of every other node by full
weighting and solved there, down to a grid of COARSEST_RESOLUTION = 8
cells per axis, below the model floor (models.MIN_TORIC_RESOLUTION);
each solution is prolonged to the next grid, lowered where a target cell
is empty, and finished by one Newton level there.  The coarsest grid,
and a grid whose coarse start is abandoned, get one Newton level from
the separable start.  No level is mollified.  The line search keeps every
target cell above a mass floor and asks for an Armijo decrease of the
merit; once the predicted decrease falls below the merit's computed
rounding bound it asks for a decrease of the L1 area residual instead,
as in the damped Newton scheme of Kitagawa, Merigot and Thibert for
semi-discrete optimal transport, so no step is judged by rounding noise.
A trial step that lifts a target node above the chord of two grid
neighbours empties that node's cell, so it fails the floor; it is
rejected before its lower hull is built.  Each Newton step is solved
once, on the active nodes, from the edge-form Jacobian of the accepted
evaluation, kept as (row, col, value) triplets, and a level on a finer
grid starts from the evaluation (hull, cells and Jacobian) that its
admissible start built.  The matrix is a
weighted graph Laplacian with its diagonal shifted down, so it is
symmetric negative definite: each step is solved by a banded Cholesky
factorization after a reverse Cuthill-McKee ordering, which at
resolution 32 narrows the band from up to 609 to 33-74.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # noqa: F401 -- perfbench's traced mode patches solver.spla
from scipy.linalg import solveh_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import energy, ma
from .errors import InvalidInput, NotSolvableInModel, PreconditionViolated
from .models import PRODUCT_P1P1, RADIAL_P2, TORIC_P1P1, ToricGrid, backend, require
from .profiles import RelativeProfile, integrate_slopes

FINAL_TOL = 1e-11  # L1 area residual at which a Newton level stops
COARSEST_RESOLUTION = 8  # cells per axis of the coarsest grid of a toric solve's hierarchy
ADMISSIBLE_ROUNDS = 8  # lowering rounds of _admissible_start before it gives up
LOWERED_AREA = 1e-6  # a lowered node's cell over its target area (_admissible_start)
LEVEL_KEYS = ("energy_trace", "stop_reasons", "level_resolutions", "mollification_consistency")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve.

    psi is normalized to sup = -1.  residual is the sup distance of the
    sublevel-mass functions of the recovered measure and the target, on
    the target's own discretization.
    """

    psi: object
    residual: float
    energy_trace: tuple
    verdict: str
    diagnostics: dict = field(default_factory=dict)


def radial_target(model, node_mass, atom_a=0.0, atom_div=0.0):
    """Package raw node masses and end atoms as a radial target measure."""
    g = model.reference_potential.grid
    node_mass = np.asarray(node_mass, dtype=float)
    c = atom_a + np.concatenate([[0.0], np.cumsum(node_mass)])
    atoms = []
    if atom_a > 0:
        atoms.append((ma.FIXED_POINT, float(atom_a)))
    if atom_div > 0:
        atoms.append((ma.DIVISOR, float(atom_div)))
    total = float(c[-1] + atom_div)
    return ma.MaMeasure("OneD", g, node_mass, tuple(atoms), total, cdf_seq=c)


def _radial_json_target(model, d):
    """A radial target from its JSON object: node masses on the model grid
    and the two end atoms, none of them negative."""
    node_mass = np.asarray(d["node_mass"], dtype=float)
    neg = np.flatnonzero(node_mass < 0)
    if neg.size:
        i = neg[0]
        raise InvalidInput(f"target node_mass[{i}] = {float(node_mass.flat[i])!r} is negative")
    atoms = {key: float(d.get(key, 0.0)) for key in ("atom_fixed_point", "atom_divisor")}
    for key, a in atoms.items():
        if a < 0:
            raise InvalidInput(f"target {key} = {a!r} is negative")
    return radial_target(model, node_mass, *atoms.values())


def _toric_json_target(model, d):
    """A toric target from its JSON object, a density on the model grid."""
    t1, t2, _ = model.reference_potential
    dens = np.asarray(d["density"], dtype=float)
    if dens.shape != (len(t1), len(t2)):
        raise InvalidInput("density shape must match the model grid")
    return ma.MaMeasure("TwoD", (t1, t2), dens, (), float(dens.sum()))


def _toric_demo_target(model, seed):
    """The measure of a smooth convex potential drawn from the seed."""
    t1, t2, _ = model.reference_potential
    c = np.random.default_rng(seed).uniform(0.2, 0.8, size=2)
    vals = np.logaddexp(0.0, c[0] * t1[:, None] + c[1] * t2[None, :])
    vals += np.logaddexp(0.0, (1 - c[0]) * t1[:, None] + (1 - c[1]) * t2[None, :])
    return ma.toric_measure(model, ToricGrid(t1, t2, vals))


def dirac_target(model):
    """The unit atom at the fixed point."""
    g = model.reference_potential.grid
    return radial_target(model, np.zeros(g.size), atom_a=1.0)


def dirac_preimages(model):
    """Two profiles whose measures agree with the fixed-point atom.

    The first is the cusp solution the closed-form solver returns.  The
    second runs at slope cap*(1 - d) left of the kink t = -100, with the
    slope deficit d = 1e-8, so its measure is within 2d of the atom in
    sup distance while the potentials differ non-constantly, by cap * d
    per unit length.  The atom target is not in the finite-self-energy
    class, and there the measure pins the potential down no better than
    this: the solution set of the exact problem has infinite dimension.
    """
    base = model.reference_potential
    g = base.grid
    cap = model.slope_cap
    full1 = cap * g
    full2 = cap * g - cap * 1e-8 * np.minimum(g + 100.0, 0.0)
    phi1 = RelativeProfile(base, full1 - base.values).normalized(-1.0)
    phi2 = RelativeProfile(base, full2 - base.values).normalized(-1.0)
    return phi1, phi2


def _closed_form(model, factor_targets):
    """The closed-form solution, factor by factor: slopes cap *
    F**(1/cdf_power) from each factor target's distribution function F,
    and sup psi = -1."""
    fs = []
    for zero, m in zip(backend(model).factors(model.zero), factor_targets):
        base = zero.base
        if not abs(m.total_mass - 1.0) <= 1e-10:  # nan fails too
            raise InvalidInput("target mass must be 1")
        F = m.cdf_seq
        if F is None or F.shape != (base.grid.size + 1,):
            raise InvalidInput("target must be a 1-D measure on the model grid")
        if F.max() > 1.0 + 1e-12 or F.min() < -1e-15:
            raise NotSolvableInModel("target distribution function leaves [0, 1]")
        s = model.slope_cap * np.clip(F, 0.0, 1.0) ** (1 / model.cdf_power)
        # anchored at the grid center, where the cells are small: integrating
        # from a far tail would carry values ~1e14 into the core, where the
        # ULP exceeds the cell width times any slope jitter budget
        i0 = int(np.searchsorted(base.grid, 0.0))
        fs.append(RelativeProfile(base, integrate_slopes(base.grid, s[1:-1], i0) - base.values))
    shift = sum(f.sup_value for f in fs) + 1.0
    return backend(model).join((fs[0].shifted(-shift),) + tuple(fs[1:]))


def _solve_closed_form(model, factor_targets, target, p):
    """Closed-form solve (:func:`_closed_form`), with the residual against
    target, the measure the factor targets describe, and the E_p verdict
    of the solution."""
    energy.check_exponent(p)
    psi = _closed_form(model, factor_targets)
    residual = ma.cdf_sup_distance(ma.ma_measure(model, psi), target)
    e = energy.ep_limit(model, psi, p)
    return SolveResult(psi, residual, (e.value,), "solved" if e.finite else "not_in_Ep",
                       {"in_Ep": e.finite})


def solve_radial(model, target, p=1.0):
    """Closed-form radial solve: slopes s = cap * sqrt(F).

    Parameters
    ----------
    model : KahlerModel (radial)
    target : MaMeasure
        1-D measure of mass 1 on the model grid.
    p : float
        Exponent used for the energy trace entry and the E_p verdict.

    Raises
    ------
    InvalidInput
        Mass differs from 1 beyond 1e-10, or the target has no
        distribution function on the model grid.
    NotSolvableInModel
        The target distribution function leaves [0, 1]; above 1 it
        would demand slopes above the cap.
    """
    require(model, RADIAL_P2, "solve_radial")
    return _solve_closed_form(model, (target,), target, p)


def radial_potential(model, target):
    """The solution psi of :func:`solve_radial`, with the same checks and
    errors on the target, without its residual or its E_p verdict, for a
    caller that reads only psi."""
    require(model, RADIAL_P2, "radial_potential")
    return _closed_form(model, (target,))


def solve_separable(model, factor_targets, p=1.0):
    """Per-factor closed-form solve on the product model: slopes s = F.

    factor_targets is a pair of 1-D measures of mass 1, one per line
    factor, describing the target 2 * m1 (x) m2.  Checks, errors and
    verdicts are those of :func:`solve_radial`, factor by factor.
    """
    require(model, PRODUCT_P1P1, "solve_separable")
    factor_targets = tuple(factor_targets)
    if len(factor_targets) != 2:
        raise InvalidInput("the product model takes two factor targets, "
                           "one per line factor")
    target = ma.product_measure(((2.0,) + factor_targets,))
    return _solve_closed_form(model, factor_targets, target, p)


def _dual_merit(areas, mom, V, P, tgt):
    """The convex dual merit of the cell-area map and its rounding bound.

    The merit's gradient is tgt - areas.  The bound eps * sum|terms| caps
    the rounding error of the sum, so two merit values closer than their
    bounds are not ordered by it.
    """
    mv = mom[:, 0] * V[:, 0] + mom[:, 1] * V[:, 1]
    pa = P * areas
    merit = float(np.sum(mv - pa) + np.dot(tgt, P))
    bound = float(np.finfo(float).eps * (np.abs(mv).sum() + np.abs(pa).sum()
                                         + np.dot(tgt, np.abs(P))))
    return merit, bound


def _separable_init(t1, t2, T):
    def pot(t, mrg):
        return integrate_slopes(t, np.clip(np.cumsum(mrg)[:-1], 0.0, 1.0), 0)

    return pot(t1, T.sum(axis=1))[:, None] + pot(t2, T.sum(axis=0))[None, :]


def _above_a_chord(Psi):
    """Nodes of a grid potential that lie above a chord by more than the
    margin of ma._chord_gaps: the chord of two grid neighbours placed
    symmetrically about the node on its row, its column or either
    diagonal, or along the edge line for a node on the boundary.

    On a uniform grid the neighbours' midpoint is the node, so a node
    above their chord lies above the lower hull: it is no hull vertex
    and its cell is empty.  The margin keeps the test clear of qhull's
    rounding.
    """
    tol, gaps = ma._chord_gaps(Psi)
    above = np.zeros(Psi.shape, bool)
    above[1:-1] = gaps[0] < -tol
    above[:, 1:-1] |= gaps[1] < -tol
    above[1:-1, 1:-1] |= (gaps[2] < -tol) | (gaps[3] < -tol)
    return above


def _newton_step(jac, act, r):
    """The Newton step on the active nodes act, from the edge-form
    Jacobian of _hull_cells and the residual r; it is 0 off act.

    The matrix A is the Jacobian's block on the active nodes, its
    diagonal lowered by 1e-14 * max|diag| (at least 1e-300) so that the
    graph Laplacian's constant null vector does not make it singular.
    The Jacobian is symmetric, with nonnegative dual-edge weights off the
    diagonal and rows summing to zero, so it is negative semidefinite;
    the shift makes the block negative definite.  A stays in triplets:
    the renumbered edges (k, l, wt) with wt != 0, and the diagonal.
    Reverse Cuthill-McKee reads their pattern, both triangles as one
    canonical CSR matrix, and orders the nodes into a narrow band; the
    lower half of that band of -A, filled from the same triplets, goes to
    a banded Cholesky factorization (LAPACK pbtrf/pbtrs), which solves
    -A x = -r.  A -A that is not positive definite raises
    numpy.linalg.LinAlgError.
    """
    k, l, wt, diag = jac
    new = np.cumsum(act) - 1
    e = act[k] & act[l] & (wt != 0)
    k, l, wt = new[k[e]], new[l[e]], wt[e]
    d = diag[act]
    n = len(d)
    d = d - max(1e-14 * float(np.abs(d).max()), 1e-300)
    idx = np.arange(n)
    pattern = sp.csr_matrix((np.concatenate([wt, wt, d]),
                             (np.concatenate([k, l, idx]), np.concatenate([l, k, idx]))),
                            shape=(n, n))
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    pos = np.empty_like(perm)  # each node's place in the new order
    pos[perm] = np.arange(n, dtype=perm.dtype)
    i, j = pos.take(k), pos.take(l)
    below, col = np.abs(i - j), np.minimum(i, j)  # each edge's lower entry
    ab = np.zeros((int(below.max(initial=0)) + 1, n))
    ab[below, col] = -wt
    ab[0, pos] = -d
    step = np.zeros(act.size)
    step[np.flatnonzero(act).take(perm)] = solveh_banded(ab, -r[act].take(perm), lower=True,
                                                         check_finite=False)
    return step


def _newton(t1, t2, Psi0, tgt, itmax=40, evaluation=None):
    """Damped Newton on cell areas; returns (Psi, residual, info).

    A trial step P + tau*d must keep every target cell above the mass
    floor.  While its predicted decrease tau*|r.d| of the dual merit
    exceeds the merit's rounding bound, the step must also pass the
    Armijo test on the merit.  Below that bound merit differences are
    rounding noise, so the step must instead cut the L1 residual by the
    factor 1 - tau/2, the acceptance rule of the damped Newton scheme of
    Kitagawa, Merigot and Thibert (JEMS 2019).  tau halves from 1 down
    to 2**-20.

    A trial that lifts a target node above a chord of its grid
    neighbours (_above_a_chord) empties that node's cell, so with a
    positive floor it fails the floor; it is rejected before its hull is
    built.  Every other trial builds one lower hull and its cells; an
    accepted step is projected onto its trial's hull.  Each step comes
    from the accepted evaluation's edge-form Jacobian (_newton_step), a
    graph Laplacian whose shifted diagonal makes it negative definite,
    solved by banded Cholesky in reverse Cuthill-McKee order.  Along the
    constant vector, which only the shift keeps out of the null space,
    rounding sets the step.

    evaluation is Psi0's (hull, areas, mom, jac) from _hull_cells, if
    the caller holds it, typically the previous level's last one.

    residual is the L1 distance of the cell areas from tgt.  info holds
    the accepted step count, the hull projection distances, the stop
    reason -- "tol" (residual below FINAL_TOL), "line_search" (no tau
    accepted) or "itmax" --, stalled, true unless the stop is "tol", and
    the returned Psi's evaluation (None if the last projection moved a
    node).
    """
    if evaluation is None:
        hull = ma._lower_hull(t1, t2, Psi0)
        evaluation = (hull,) + ma._hull_cells(hull, want_jac=True)
    hull, areas, mom, jac = evaluation
    V, P = hull.V, hull.Z
    F, F_bound = _dual_merit(areas, mom, V, P, tgt)
    res = float(np.abs(areas - tgt).sum())
    supp = tgt > 0
    floor = 0.5 * min(areas[supp].min(), tgt[supp].min()) if supp.any() else 0.0
    proj_dists = []
    iters = 0
    stop = None
    for _ in range(itmax):
        if res < FINAL_TOL:
            break
        r = tgt - areas
        act = (areas > 0) | supp
        d = _newton_step(jac, act, r)
        gd = float(np.dot(r, d))
        tau, ok = 1.0, False
        while tau > 2.0 ** -20:
            Pt = P + tau * d
            # an empty target cell fails any positive floor
            if floor > 0 and _above_a_chord(Pt.reshape(Psi0.shape)).ravel()[supp].any():
                tau *= 0.5
                continue
            hull_t = ma._lower_hull(t1, t2, Pt)
            at, mt, jt = ma._hull_cells(hull_t, want_jac=True)
            Ft, Ft_bound = _dual_merit(at, mt, V, Pt, tgt)
            if not supp.any() or at[supp].min() >= floor:
                if tau * abs(gd) <= F_bound:
                    ok = float(np.abs(at - tgt).sum()) <= (1.0 - 0.5 * tau) * res
                else:
                    ok = Ft <= F + 1e-4 * tau * min(gd, 0.0)
                if ok:
                    break
            tau *= 0.5
        if not ok:
            stop = "line_search"
            break
        hull, areas, mom, jac, F, F_bound = hull_t, at, mt, jt, Ft, Ft_bound
        iters += 1
        # convexity safeguard: replace by the lower hull; only nodes with
        # zero area and zero target move, so areas and merit are unchanged
        P, dist = ma._hull_projection(hull)
        proj_dists.append(dist)
        res = float(np.abs(areas - tgt).sum())
    if stop is None:
        stop = "tol" if res < FINAL_TOL else "itmax"
    # a P that the last projection moved needs a new hull
    last = None if proj_dists and proj_dists[-1] > 0 else (hull, areas, mom, jac)
    return P.reshape(Psi0.shape), res, {"iterations": iters,
                                        "stalled": stop != "tol",
                                        "stop": stop,
                                        "projection_distances": tuple(proj_dists),
                                        "evaluation": last}


def _restrict(T):
    """Node masses on a grid of 2n + 1 nodes per axis, moved by full
    weighting onto the n + 1 nodes of even index: a node of even index
    keeps its mass, and one of odd index gives half of it to each
    neighbour on its axis, so in 2-D the weights are 1, 1/2 and 1/4.  The
    total mass is kept, up to the rounding of the sums, and no mass turns
    negative."""
    def rows(A):
        half = 0.5 * A[1::2]
        out = A[::2].copy()
        out[:-1] += half
        out[1:] += half
        return out

    return rows(rows(T).T).T


def _prolong(Psi):
    """A grid potential on n + 1 nodes per axis, on the 2n + 1 nodes of
    the grid of half the spacing: its nodes are copied bit for bit, each
    midpoint takes the 4-point cubic (-a + 9b + 9c - d) / 16 of the nodes
    around it on its axis, and the two end midpoints the mean of their
    two nodes.  Both passes keep affine potentials affine."""
    def rows(A):
        out = np.empty((2 * len(A) - 1,) + A.shape[1:])
        out[::2] = A
        mid = 0.5 * (A[:-1] + A[1:])
        mid[1:-1] = (9.0 * (A[1:-2] + A[2:-1]) - A[:-3] - A[3:]) / 16.0
        out[1::2] = mid
        return out

    return rows(rows(Psi).T).T


def _admissible_start(t1, t2, Psi, tgt):
    """Psi with every target node whose cell is empty lowered below its
    lower hull, and the evaluation (hull, areas, mom, jac) of the result;
    (None, None) if ADMISSIBLE_ROUNDS rounds leave a target cell empty,
    or as soon as a round leaves the same target cells empty as the round
    before.

    A round projects Psi onto its hull (ma._hull_projection) and lowers
    each target node of empty cell to h * sqrt(LOWERED_AREA * tgt / 2)
    below its hull value, h the grid spacing.  A node lowered by d below
    a plane through its 8 grid neighbours becomes a hull vertex whose
    cell is the square of diagonals 2d/h, of area 2 (d/h)**2: the
    fraction LOWERED_AREA of its target.  The chord through a neighbour
    drops by d/2, so a neighbour whose own cell is the same picture at
    its target area keeps its depth to within sqrt(LOWERED_AREA)/2 and
    its area to about sqrt(LOWERED_AREA), far inside what the prolonged
    start misses by.  A lowered node can still empty a neighbour's cell,
    or stay empty where its cell is clipped to a corner of the square;
    the next round lowers those again.  Lowering by one depth leaves a
    plane region of equal targets plane (a near-Dirac target's flat
    cone faces), so its cells stay empty round after round.
    """
    supp = tgt > 0
    depth = float(t1[1] - t1[0]) * np.sqrt(0.5 * LOWERED_AREA * tgt)
    P = Psi.ravel()
    before = None
    for _ in range(ADMISSIBLE_ROUNDS):
        hull = ma._lower_hull(t1, t2, P)
        evaluation = (hull,) + ma._hull_cells(hull, want_jac=True)
        empty = supp & (evaluation[1] == 0)
        if not empty.any():
            return P.reshape(Psi.shape), evaluation
        if np.array_equal(empty, before):
            break
        before = empty
        P, _ = ma._hull_projection(hull)
        P[empty] -= depth[empty]
    return None, None


def _add_level(levels, base, volume, Psi, tgt, p, stop):
    """Append one level's energy, stop reason and grid resolution to
    levels, and its mollification consistency with the level before, if
    there is one.  base is the level's reference potential, and volume
    the model's.  A level on a finer grid than the one before is compared
    with it on the nodes the two grids share, weighted by its target
    restricted to the coarser grid (_restrict)."""
    off = Psi - base
    off = off - off.max() - 1.0
    w, _ = energy._moment_weights(off.ravel(), (), p)
    levels["energy_trace"].append(float(np.sum(tgt.ravel() * w) * volume))
    prev = levels.pop("offset", None)
    if prev is not None:
        shared, weight = off, tgt
        if prev.shape != off.shape:
            shared, weight = off[::2, ::2], _restrict(tgt)
        levels["mollification_consistency"].append(
            float(np.sum(np.abs(shared - prev).ravel() * weight.ravel()) * volume))
    levels["offset"] = off
    levels["stop_reasons"].append(stop)
    levels["level_resolutions"].append(len(base) - 1)


def _level(levels, grid, Psi, T, p, volume, itmax, evaluation):
    """One Newton level on the grid (t1, t2, base) from Psi, recorded in
    levels (_add_level); returns its Psi, Newton info and evaluation."""
    t1, t2, base = grid
    Psi, _, info = _newton(t1, t2, Psi, T.ravel(), itmax=itmax, evaluation=evaluation)
    _add_level(levels, base, volume, Psi, T, p, info.pop("stop"))
    return Psi, info, info.pop("evaluation")


def _coarse_to_fine(grid, T, p, volume, itmax):
    """Psi, the last level's Newton info and evaluation, and the levels'
    diagnostics of the toric solve of T (cell areas, sum 1) on the grid
    (t1, t2, base): coarse to fine where R, the grid's cells per axis, is
    even and R/2 is at least COARSEST_RESOLUTION, on the grid of every
    other node; from _separable_init where it is not, or where the coarse
    start is abandoned, with the reason under "coarse_start_abandoned"."""
    t1, t2, base = grid
    R = len(t1) - 1
    why = None
    if R % 2 == 0 and R // 2 >= COARSEST_RESOLUTION:
        Psi, info, _, levels = _coarse_to_fine((t1[::2], t2[::2], base[::2, ::2]),
                                               _restrict(T), p, volume, itmax)
        levels.pop("coarse_start_abandoned", None)
        why = f"the solve at R = {R // 2} diverged"
        if not info["stalled"]:
            Psi, evaluation = _admissible_start(t1, t2, _prolong(Psi), T.ravel())
            why = f"no admissible start at R = {R}"
            if Psi is not None:
                Psi, info, evaluation = _level(levels, grid, Psi, T, p, volume, itmax,
                                               evaluation)
                if not info["stalled"]:
                    return Psi, info, evaluation, levels
                why = f"the level at R = {R} stopped on {levels['stop_reasons'][-1]!r}"
    levels = {key: [] for key in LEVEL_KEYS}
    Psi, info, evaluation = _level(levels, grid, _separable_init(t1, t2, T), T, p, volume,
                                   itmax, None)
    if why is not None:
        levels["coarse_start_abandoned"] = why
    return Psi, info, evaluation, levels


def solve_newton_toric(model, target, p=1.0, itmax=40):
    """Damped Newton solve of the 2-D discrete measure equation.

    One rule on every grid of a hierarchy (Merigot, "A multiscale
    approach to optimal transport", 2011).  On a grid of even resolution
    R whose half has at least COARSEST_RESOLUTION cells, the target is
    restricted to R/2 by full weighting (_restrict) and solved there the
    same way, recursively, on the grid of every other node: below the
    model floor models.MIN_TORIC_RESOLUTION too, down to 8 cells.  The
    coarse solution is prolonged to R (_prolong), every target node
    whose cell is empty is lowered below its hull (_admissible_start),
    and one Newton level at R runs from there.  The coarsest grid's one
    level starts from _separable_init.  No level is mollified: damped
    Newton converges from any start whose cells all carry mass
    (Kitagawa, Merigot and Thibert, JEMS 2019), and the coarser grid
    supplies such starts.  If the coarse solve diverges, no admissible
    start is found, or the level at R stops short of FINAL_TOL, R is
    solved by the coarsest grid's rule, one level from _separable_init,
    and diagnostics["coarse_start_abandoned"] says why.

    A level stagnates when its line search is exhausted -- no step passes
    the mass floor and the Armijo test while the predicted merit decrease
    lies above the merit's rounding bound, nor the mass floor and the L1
    residual decrease once it lies below -- or when itmax steps leave the
    residual above FINAL_TOL.  A stagnating level at R, after its
    fallback, yields a diverged verdict; otherwise the verdict is solved.
    A target whose separable start already solves it (a target on the
    corners, whose start is affine) stops on "tol" after no step.  There
    is no not_in_Ep verdict on this model: nonnegative node masses
    summing to the square's area are a semi-discrete transport target,
    whose solution is a finite vector of node values, so no infinite
    energy can be certified.

    diagnostics holds the last level's Newton info under "newton" and,
    one entry per level, coarsest first: the energy trace's grid
    resolutions under "level_resolutions" and the stop reasons ("tol",
    "line_search" or "itmax") under "stop_reasons";
    "mollification_consistency" compares each pair of consecutive levels
    (_add_level).  The measure of the solution is read off the last
    level's evaluation when that level made a step and its last
    projection moved no node, and is built by ma.toric_measure otherwise.
    """
    require(model, TORIC_P1P1, "solve_newton_toric")
    energy.check_exponent(p)
    if target.atoms:
        raise InvalidInput("atoms interior to the moment square are not solvable "
                           "on the Newton path")
    t1, t2, base = model.reference_potential
    if not abs(target.total_mass - model.volume) <= 1e-10:  # nan fails too
        raise InvalidInput("target mass must equal the model volume")
    if (target.density < 0).any():
        raise InvalidInput("target density must be nonnegative")
    T = target.density / model.volume  # cell areas, sum 1
    Psi, info, evaluation, levels = _coarse_to_fine((t1, t2, base), T, p, model.volume, itmax)
    off = Psi - base
    psi = ToricGrid(t1, t2, Psi - off.max() - 1.0)
    if info["iterations"] and evaluation is not None:
        # Psi is the last accepted trial's lift, on its hull: the cells are psi's
        dens = 2.0 * evaluation[1].reshape(T.shape)
        got = ma.MaMeasure("TwoD", (t1, t2), dens, (), float(dens.sum()))
    else:
        got = ma.toric_measure(model, psi)
    residual = ma.cdf_sup_distance(got, target)
    verdict = "diverged" if info["stalled"] else "solved"
    diagnostics = {"newton": info, **{k: tuple(levels[k]) for k in LEVEL_KEYS[1:]},
                   "l1_residual": float(np.abs(got.density - target.density).sum())}
    if "coarse_start_abandoned" in levels:
        diagnostics["coarse_start_abandoned"] = levels["coarse_start_abandoned"]
    return SolveResult(psi, residual, tuple(levels["energy_trace"]), verdict, diagnostics)


def uniqueness_check(model, psi1, psi2, measure_tol=1e-7, deviation_tol=1e-5):
    """Compare two candidate solutions of one target.

    Raises PreconditionViolated if their measures disagree beyond
    measure_tol.  Reports the sup deviation of psi1 - psi2 from its
    mean; within the finite-self-energy class this deviation vanishes,
    and the check passes iff it is below deviation_tol.
    """
    m1 = ma.ma_measure(model, psi1)
    m2 = ma.ma_measure(model, psi2)
    dist = ma.cdf_sup_distance(m1, m2)
    if dist > measure_tol:
        raise PreconditionViolated("candidate measures disagree")
    view = backend(model).factors
    if view is None:  # a 2-D potential: compare every node
        d = (psi1.values - psi2.values).ravel()
    else:
        f1, f2 = view(psi1), view(psi2)
        d = sum(f.offset for f in f1) - sum(f.offset for f in f2)
        # beyond |t| ~ 1e4 the potentials are affine continuations whose
        # value ULP exceeds any sensible tolerance; the measure cannot
        # pin the potential below representation error there
        d = d[np.abs(f1[0].base.grid) <= 1e4]
    dev = float(np.abs(d - d.mean()).max())
    return {"measure_distance": dist, "deviation": dev,
            "passed": dev <= deviation_tol}
