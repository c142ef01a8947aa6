"""Solvers for the measure equation on each backend.

The radial backend inverts the sublevel-mass law in closed form: the
target's distribution function F determines the solution slopes
s = cap * sqrt(F) cell by cell, and one cumulative sum recovers the
potential.  The separable product backend runs the same routine per
factor with s = F.  The toric backend runs a damped Newton method on the
Aleksandrov cell areas, with a convex dual merit function and an
active-set reduced Jacobian.  By default it warm-starts from one level,
the target mollified at width 1/8: at resolution 32 the narrower widths
smoothed nothing (the Gaussian weight one node away is at most 1.3e-14)
and only mixed in the reference measure, at the cost of Newton steps.
The line search keeps every target cell above a mass floor and asks for
an Armijo decrease of the merit; once the predicted decrease falls below
the merit's computed rounding bound it asks for a decrease of the L1
area residual instead, as in the damped Newton scheme of Kitagawa,
Merigot and Thibert for semi-discrete optimal transport, so no step is
judged by rounding noise.  A trial step that lifts a target node above
the chord of two grid neighbours empties that node's cell, so it fails
the floor; it is rejected before its lower hull is built.  The Newton
matrix is assembled once per step, on the active nodes, from the
edge-form Jacobian of the accepted evaluation, and each level hands its
last evaluation (hull, cells and Jacobian) to the next.  The matrix is a
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
from .models import (PRODUCT_P1P1, RADIAL_P2, TORIC_P1P1, ToricGrid, backend,
                     require)
from .profiles import RelativeProfile, integrate_slopes

DEFAULT_WIDTHS = (0.125,)


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


def _solve_closed_form(model, factor_targets, target, p):
    """Closed-form solve, factor by factor: slopes cap * F**(1/cdf_power)
    from each factor target's distribution function F, sup psi = -1, and
    the residual against target, the measure the factor targets describe."""
    energy.check_exponent(p)
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
    psi = backend(model).join((fs[0].shifted(-shift),) + tuple(fs[1:]))
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
        s = np.clip(np.cumsum(mrg)[:-1], 0.0, 1.0)
        return np.concatenate([[0.0], np.cumsum(s * np.diff(t))])

    return pot(t1, T.sum(axis=1))[:, None] + pot(t2, T.sum(axis=0))[None, :]


def _above_a_chord(Psi):
    """Nodes of a grid potential that lie above a chord, by more than
    1e-12 * max(1, max|Psi|): the chord of two grid neighbours placed
    symmetrically about the node on its row, its column or either
    diagonal, or along the edge line for a node on the boundary.

    On a uniform grid the neighbours' midpoint is the node, so a node
    above their chord lies above the lower hull: it is no hull vertex
    and its cell is empty.  The margin keeps the test clear of qhull's
    rounding.
    """
    tol = 1e-12 * max(1.0, float(np.abs(Psi).max()))
    above = np.zeros(Psi.shape, bool)
    above[1:-1] = Psi[1:-1] - 0.5 * (Psi[:-2] + Psi[2:]) > tol
    above[:, 1:-1] |= Psi[:, 1:-1] - 0.5 * (Psi[:, :-2] + Psi[:, 2:]) > tol
    inner = Psi[1:-1, 1:-1]
    above[1:-1, 1:-1] |= ((inner - 0.5 * (Psi[:-2, :-2] + Psi[2:, 2:]) > tol)
                          | (inner - 0.5 * (Psi[:-2, 2:] + Psi[2:, :-2]) > tol))
    return above


def _newton_matrix(jac, act):
    """The Newton system's matrix from the edge-form Jacobian of _hull_cells.

    It is the Jacobian's block on the active nodes, its diagonal lowered
    by 1e-14 * max|diag| (at least 1e-300) so that the graph Laplacian's
    constant null vector does not make it singular.  The Jacobian is
    symmetric, with nonnegative dual-edge weights off the diagonal and
    rows summing to zero, so it is negative semidefinite; the shift makes
    the block negative definite, as _banded_solve needs.  It is built as
    a canonical CSC matrix, sorted and with no stored zeros, so its
    arrays are those of H[act][:, act].tocsc() - shift * eye for the CSR
    matrix H of toric_cells, and the solve reads the same input.
    """
    k, l, wt, diag = jac
    new = np.cumsum(act) - 1
    e = act[k] & act[l] & (wt != 0)
    k, l, wt = new[k[e]], new[l[e]], wt[e]
    d = diag[act]
    n = len(d)
    shift = max(1e-14 * float(np.abs(d).max()), 1e-300)
    idx = np.arange(n)
    return sp.csc_matrix((np.concatenate([wt, wt, d - shift]),
                          (np.concatenate([k, l, idx]), np.concatenate([l, k, idx]))),
                         shape=(n, n))


def _banded_solve(A, r):
    """Solve A x = r for a symmetric negative definite sparse matrix A.

    Reverse Cuthill-McKee (on the pattern of both triangles) orders the
    nodes into a narrow band; a banded Cholesky factorization (LAPACK
    pbtrf/pbtrs) of the lower half of that band of -A then solves
    -A x = -r.  A -A that is not positive definite raises
    numpy.linalg.LinAlgError.
    """
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    pos = np.argsort(perm)  # each node's place in the new order
    coo = A.tocoo()
    i, j = pos[coo.row], pos[coo.col]
    low = i >= j
    i, j = i[low], j[low]
    ab = np.zeros((int((i - j).max()) + 1, len(perm)))
    ab[i - j, j] = -coo.data[low]
    x = np.empty(len(perm))
    x[perm] = solveh_banded(ab, -r[perm], lower=True, check_finite=False)
    return x


def _newton(t1, t2, Psi0, tgt, itmax=40, tol=1e-11, evaluation=None):
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
    accepted step is projected onto its trial's hull.  The Newton matrix
    is assembled once per step, from the accepted evaluation's edge-form
    Jacobian (_newton_matrix), a graph Laplacian whose shifted diagonal
    makes it negative definite, and the step is its banded Cholesky
    solve in reverse Cuthill-McKee order (_banded_solve).  Along the
    constant vector, which only the shift keeps out of the null space,
    rounding sets the step.

    evaluation is Psi0's (hull, areas, mom, jac) from _hull_cells, if
    the caller holds it, typically the previous level's last one.

    residual is the L1 distance of the cell areas from tgt.  info holds
    the accepted step count, the hull projection distances, the stop
    reason -- "tol" (residual below tol), "line_search" (no tau
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
        if res < tol:
            break
        r = tgt - areas
        act = (areas > 0) | supp
        d = np.zeros(tgt.size)
        d[act] = _banded_solve(_newton_matrix(jac, act), r[act])
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
        stop = "tol" if res < tol else "itmax"
    # a P that the last projection moved needs a new hull
    last = None if proj_dists and proj_dists[-1] > 0 else (hull, areas, mom, jac)
    return P.reshape(Psi0.shape), res, {"iterations": iters,
                                        "stalled": stop != "tol",
                                        "stop": stop,
                                        "projection_distances": tuple(proj_dists),
                                        "evaluation": last}


def _gauss_smooth(T, h, eps):
    """Discrete Gaussian mollification of node masses, mass preserving."""
    half = int(np.ceil(4 * eps / h))
    if half == 0:
        return T
    x = np.arange(-half, half + 1) * h
    k = np.exp(-0.5 * (x / eps) ** 2)
    k /= k.sum()
    pad = np.pad(T, half, mode="constant")
    # separable convolution; mass leaking off the box is renormalized back
    for axis in (0, 1):
        pad = np.apply_along_axis(lambda m: np.convolve(m, k, mode="same"), axis, pad)
    core = pad[half:pad.shape[0] - half, half:pad.shape[1] - half].copy()
    if core.sum() > 0:
        core *= T.sum() / core.sum()
    return core


def solve_newton_toric(model, target, p=1.0, widths=DEFAULT_WIDTHS, itmax=40):
    """Damped Newton solve of the 2-D discrete measure equation.

    The target is approximated by a decreasing-width schedule
    mu_j = c_j * (G_{eps_j} * mu + eps_j * reference), each level solved
    by warm-started Newton, then the unmollified target is solved last.
    The default schedule is the one width 1/8.  Narrower widths smooth
    nothing on a grid of node spacing h once eps <= h/8 (the Gaussian
    weight one node away is at most 1.3e-14), which at resolution 32
    (h = 1/2) is every width from 1/16 down: such a level only mixes in
    the reference measure, yet costs Newton steps.  The energy trace
    holds one entry per level.

    A level stagnates when its line search is exhausted -- no step passes
    the mass floor and the Armijo test while the predicted merit decrease
    lies above the merit's rounding bound, nor the mass floor and the L1
    residual decrease once it lies below -- or when itmax steps leave the
    residual above the level's tolerance.  Stagnation stops the schedule
    and yields a diverged verdict with the trace so far; otherwise the
    verdict is solved.  There is no not_in_Ep verdict on this model:
    nonnegative node masses summing to the square's area are a
    semi-discrete transport target, whose solution is a finite vector of
    node values, so no infinite energy can be certified.  diagnostics
    holds the last level's Newton info under "newton" and every level's
    stop reason ("tol", "line_search" or "itmax") under "stop_reasons".
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
    ref = model.reference_measure.density / model.volume
    h = float(t1[1] - t1[0])
    widths = tuple(widths)
    if len(widths) > 1 and not all(b < a for a, b in zip(widths, widths[1:])):
        raise InvalidInput("mollification widths must decrease strictly")
    Psi = _separable_init(t1, t2, T)
    evaluation = None
    trace = []
    stops = []
    consistency = []
    prev_offset = None
    for eps in list(widths) + [None]:
        if eps is None:
            tgt = T
        else:
            sm = _gauss_smooth(T, h, eps)
            mix = sm + eps * ref
            tgt = mix / mix.sum()
        # intermediate levels are warm starts; only the final level needs
        # the full tolerance
        lvl_tol = 1e-9 if eps is not None else 1e-11
        Psi, res, info = _newton(t1, t2, Psi, tgt.ravel(), itmax=itmax, tol=lvl_tol,
                                 evaluation=evaluation)
        stops.append(info.pop("stop"))
        evaluation = info.pop("evaluation")
        off = Psi - base
        off = off - off.max() - 1.0
        trace.append(float(np.sum(tgt.ravel() * (-off.ravel()) ** p) * model.volume))
        if prev_offset is not None:
            consistency.append(float(np.sum(np.abs(off - prev_offset).ravel()
                                            * tgt.ravel()) * model.volume))
        prev_offset = off
        if info["stalled"]:
            break
    off = Psi - base
    psi = ToricGrid(t1, t2, Psi - off.max() - 1.0)
    got = ma.toric_measure(model, psi)
    residual = ma.cdf_sup_distance(got, target)
    verdict = "diverged" if info["stalled"] else "solved"
    return SolveResult(psi, residual, tuple(trace), verdict,
                       {"newton": info, "stop_reasons": tuple(stops),
                        "mollification_consistency": tuple(consistency),
                        "l1_residual": float(np.abs(got.density - target.density).sum())})


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
