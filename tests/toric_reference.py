"""Reference implementations of the toric kernel, kept as test oracles.

These are the straightforward forms of what ``ma.toric_cells`` and
``ma.toric_hull_projection`` compute: every Aleksandrov cell is found by
clipping the unit square with the half-planes of the node's lower-hull
neighbours (Sutherland-Hodgman, one node at a time), and the hull
projection interpolates the hull vertices linearly over their Delaunay
triangulation.  They build their own hulls and share no code with the
package kernel.
"""

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import LinearNDInterpolator
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
