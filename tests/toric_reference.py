"""Reference implementations of the toric kernel, kept as test oracles.

These are the straightforward forms of what ``ma.toric_cells`` and
``ma.toric_hull_projection`` compute: every Aleksandrov cell is found by
clipping the unit square with the half-planes of the node's lower-hull
neighbours (Sutherland-Hodgman, one node at a time), and the hull
projection interpolates the hull vertices linearly over their Delaunay
triangulation.  They build their own hulls and share no code with the
package kernel.

``reference_hull_cells`` is the package's ``ma._hull_cells`` as it was
before it skipped the clip of interior dual segments: every dual edge
goes through one Liang-Barsky clip and one side-term pass, and the edge
keys are sorted stably.  It reads a hull built by ``ma._lower_hull`` and
must agree with the package kernel bit for bit.

``reference_newton_step`` is the solver's Newton step as it was while
the step's matrix was a compressed one: the banded Cholesky solve, in
its reverse Cuthill-McKee order, of the shifted active block of the
whole CSR Jacobian of ``ma.toric_cells``, its band read off the CSC
matrix's index arrays.  ``solver._newton_step`` must agree with it bit
for bit.
"""

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import LinearNDInterpolator
from scipy.linalg import solveh_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.spatial import ConvexHull


def _lifted(t1, t2, Psi):
    X, Y = np.meshgrid(t1, t2, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel(), np.asarray(Psi, float).ravel()])


def _lower_triangles(pts):
    hull = ConvexHull(pts, qhull_options="Qt")
    return hull.simplices[hull.equations[:, 2] < -1e-12]


def reference_cells(t1, t2, Psi, want_jac=False):
    """Cell areas, first moments and area Jacobian, one node at a time."""
    pts = _lifted(t1, t2, Psi)
    tris = _lower_triangles(pts)
    N = len(pts)
    nbrs = [set() for _ in range(N)]
    for a, b, c in tris:
        nbrs[a].update((b, c))
        nbrs[b].update((a, c))
        nbrs[c].update((a, b))
    V = pts[:, :2]
    Z = pts[:, 2]
    areas = np.zeros(N)
    mom = np.zeros((N, 2))
    rows, cols, vals = [], [], []
    on_hull = np.zeros(N, bool)
    if tris.size:
        on_hull[tris.ravel()] = True
    for k in range(N):
        if not on_hull[k]:
            continue
        # clip the unit square by the half-planes of k's neighbors,
        # tracking which neighbor produced each polygon edge
        poly = [((0.0, 0.0), -1), ((1.0, 0.0), -1), ((1.0, 1.0), -1), ((0.0, 1.0), -1)]
        for l in nbrs[k]:
            d = V[l] - V[k]
            rhs = Z[l] - Z[k]
            out = []
            n = len(poly)
            for i in range(n):
                (p, lab), (q, _) = poly[i], poly[(i + 1) % n]
                fp = d[0] * p[0] + d[1] * p[1] - rhs
                fq = d[0] * q[0] + d[1] * q[1] - rhs
                if fp <= 0:
                    out.append((p, lab))
                    if fq > 0:
                        s = fp / (fp - fq)
                        out.append(((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])), l))
                elif fq < 0:
                    s = fp / (fp - fq)
                    out.append(((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])), lab))
            poly = out
            if not poly:
                break
        if len(poly) >= 3:
            A = mx = my = 0.0
            n = len(poly)
            for i in range(n):
                (x1, y1), lab = poly[i]
                (x2, y2), _ = poly[(i + 1) % n]
                cr = x1 * y2 - x2 * y1
                A += cr
                mx += (x1 + x2) * cr
                my += (y1 + y2) * cr
                if want_jac and lab >= 0:
                    L = np.hypot(x2 - x1, y2 - y1)
                    if L > 0:
                        rows.append(k)
                        cols.append(lab)
                        vals.append(L / np.hypot(*(V[lab] - V[k])))
            sgn = 1.0 if A >= 0 else -1.0
            areas[k] = 0.5 * abs(A)
            mom[k, 0] = sgn * mx / 6.0
            mom[k, 1] = sgn * my / 6.0
    H = None
    if want_jac:
        H = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
        H = 0.5 * (H + H.T)
        H = H - sp.diags(np.asarray(H.sum(axis=1)).ravel())
    return areas, mom, H


def reference_hull_projection(t1, t2, Psi):
    """Lower-hull projection by linear interpolation of the hull vertices."""
    pts = _lifted(t1, t2, Psi)
    verts = np.unique(_lower_triangles(pts).ravel())
    interp = LinearNDInterpolator(pts[verts, :2], pts[verts, 2])
    low = interp(pts[:, :2])
    low = np.where(np.isnan(low), pts[:, 2], low)
    low = np.minimum(low, pts[:, 2])
    dist = float((pts[:, 2] - low).max())
    return low.reshape(len(t1), len(t2)), dist


def _cross(u, v):
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _dual_segments(hull):
    V, tris = hull.V, hull.tris
    N = len(V)
    src = tris.ravel()
    dst = tris[:, [1, 2, 0]].ravel()
    fac = np.repeat(np.arange(len(tris)), 3)
    k, l = np.minimum(src, dst), np.maximum(src, dst)
    left = src < dst
    edge = k * N + l
    order = np.argsort(edge, kind="stable")
    pair = edge[order][1:] == edge[order][:-1]
    i1, i2 = order[:-1][pair], order[1:][pair]
    single = np.ones(len(k), bool)
    single[i1] = single[i2] = False
    i0 = np.flatnonzero(single)

    fL = np.where(left[i1], fac[i1], fac[i2])
    fR = np.where(left[i1], fac[i2], fac[i1])
    d = V[l[i0]] - V[k[i0]]
    rot = np.column_stack([-d[:, 1], d[:, 0]])
    outgoing = ~left[i0]
    n_pair = len(i1)
    B = np.concatenate([hull.grad[fR], hull.grad[fac[i0]]])
    D = np.concatenate([hull.grad[fL] - hull.grad[fR], rot])
    s0 = np.concatenate([np.zeros(n_pair), np.where(outgoing, 0.0, -np.inf)])
    s1 = np.concatenate([np.ones(n_pair), np.where(outgoing, np.inf, 0.0)])
    return (np.concatenate([k[i1], k[i0]]), np.concatenate([l[i1], l[i0]]),
            B, D, s0, s1)


def _clip_to_square(B, D, s0, s1):
    with np.errstate(divide="ignore", invalid="ignore"):
        at0, at1 = -B / D, (1.0 - B) / D
    lo = np.where(D > 0, at0, np.where(D < 0, at1, -np.inf))
    hi = np.where(D > 0, at1, np.where(D < 0, at0, np.inf))
    s_in = np.maximum(s0, lo.max(axis=1))
    s_out = np.minimum(s1, hi.min(axis=1))
    inside = ((D != 0) | ((B >= 0) & (B <= 1))).all(axis=1)
    keep = np.flatnonzero(inside & (s_in < s_out))
    B, D, lo, hi = B[keep], D[keep], lo[keep], hi[keep]
    s_in, s_out = s_in[keep, None], s_out[keep, None]
    P = np.where(lo == s_in, np.where(D > 0, 0.0, 1.0), B + s_in * D)
    Q = np.where(hi == s_out, np.where(D > 0, 1.0, 0.0), B + s_out * D)
    return keep, np.clip(P, 0.0, 1.0), np.clip(Q, 0.0, 1.0)


def _side_terms(P, Q):
    ends = np.concatenate([P, Q])
    x, y = ends[:, 0], ends[:, 1]
    low_side = ((x == 0) | (y == 0)) & (x != 1) & (y != 1)
    v = np.where(x == 0, 1.0 - y, 1.0 + x)
    marks = np.sort(np.concatenate([[0.0, 2.0], v[low_side]]))
    i = np.argmax(np.diff(marks))
    v_jump = 0.5 * (marks[i] + marks[i + 1])
    phi = np.zeros((len(ends), 3))
    phi[low_side & (v < v_jump)] = (2.0, 3.0, 3.0)
    right = x == 1
    phi[right] = np.column_stack([y, 2.0 * y, y * y])[right]
    top = (y == 1) & ~right
    phi[top] = np.column_stack([2.0 - x, 3.0 - x * x, 3.0 - 2.0 * x])[top]
    return phi[:len(P)] - phi[len(P):]


def reference_hull_cells(hull, want_jac=False):
    """Areas, moments and edge-form Jacobian with every dual edge clipped."""
    N = len(hull.Z)
    k, l, B, D, s0, s1 = _dual_segments(hull)
    keep, P, Q = _clip_to_square(B, D, s0, s1)
    k, l = k[keep], l[keep]
    cr = _cross(P, Q)
    w = np.column_stack([cr, (P[:, 0] + Q[:, 0]) * cr, (P[:, 1] + Q[:, 1]) * cr])
    w += _side_terms(P, Q)
    S = np.array([np.bincount(k, w[:, i], N) - np.bincount(l, w[:, i], N)
                  for i in range(3)], dtype=float)
    c = np.argmin(S[0])
    if S[0, c] >= -0.5:
        c = np.argmax(hull.V.sum(axis=1) * 0.5 - hull.Z)
    S[:, c] += (2.0, 3.0, 3.0)
    areas = np.maximum(0.5 * S[0], 0.0)
    mom = S[1:].T / 6.0
    jac = None
    if want_jac:
        dV = hull.V[l] - hull.V[k]
        wt = np.hypot(*(Q - P).T) / np.hypot(*dV.T)
        on_side = ((P == Q) & ((P == 0) | (P == 1))).any(axis=1)
        wt[on_side] *= 0.5
        jac = (k, l, wt, -(np.bincount(k, wt, N) + np.bincount(l, wt, N)))
    return areas, mom, jac


def reference_newton_matrix(H, act):
    """The Newton matrix on the active nodes act of the Jacobian H from
    ma.toric_cells: H[act][:, act] as a CSC matrix, its diagonal lowered
    by 1e-14 * max|diag| (at least 1e-300), explicit zeros dropped."""
    Ha = H[act][:, act].tocsc()
    return Ha - sp.eye(Ha.shape[0]) * max(1e-14 * np.abs(Ha.diagonal()).max(), 1e-300)


def reference_newton_step(H, act, r):
    """The Newton step on the active nodes, one entry per active node: the
    banded Cholesky solve of A x = r[act] for A = reference_newton_matrix,
    with the band of -A in A's reverse Cuthill-McKee order read off its
    CSC index arrays."""
    A = reference_newton_matrix(H, act)
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    pos = np.empty_like(perm)
    pos[perm] = np.arange(len(perm), dtype=perm.dtype)
    i, j = pos.take(A.indices), np.repeat(pos, np.diff(A.indptr))
    low = i >= j
    i, j = i.compress(low), j.compress(low)
    ab = np.zeros((int((i - j).max()) + 1, len(perm)))
    ab[i - j, j] = -A.data.compress(low)
    x = np.empty(len(perm))
    x[perm] = solveh_banded(ab, -r[act].take(perm), lower=True, check_finite=False)
    return x
