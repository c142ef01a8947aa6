"""Monge-Ampere, mixed, and gradient measures on the model surfaces.

On the 1-D backends every measure is the pushforward of the slope map:
for the invariant potential with normalized slopes s(t)/s_max, the mass
of {t <= T} is the product of the normalized slopes of the two wedge
factors at T.  A piecewise-linear potential therefore has a purely
atomic measure supported on the grid nodes, and all identities below
(mass conservation, polarization, comparison) hold exactly at the
discrete level because the discrete objects are honest admissible
potentials.

The toric backend uses the Aleksandrov subgradient measure: the mass at
a node is the area of its cell in the moment square.  The cells are the
discrete Legendre dual of the lower convex hull of the lifted grid: the
cell of a hull vertex is the polygon of the gradients of its incident
lower facets, clipped to the square, the power-diagram picture of
semi-discrete optimal transport.  Every edge of the cell diagram is
dual to one hull edge, so areas, first moments and the area Jacobian
come from one vectorized pass over the hull edges; qhull's facet
adjacency names the two lower facets of each edge.  The hull is a value
its caller builds and holds: toric_measure reads its convexity check and
its cells off one hull, and the Newton solver projects an accepted step
onto the hull of that trial.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import ConvexHull, QhullError

from .errors import InvalidInput, NotOmegaPsh, PreconditionViolated
from .models import RADIAL_P2, ToricGrid, backend, factors, potential, require
from .profiles import max_offsets

ATOM_SLOPE_TOL = 1e-12  # slope deficits below this are treated as zero
CDF_BLOCK = 1 << 21  # entries per row block of a product-measure cdf difference

FIXED_POINT = "fixed_point_a"
DIVISOR = "divisor_at_infinity"


@dataclass(frozen=True)
class MaMeasure:
    """A measure with grid-node masses plus named atoms.

    Parameters
    ----------
    kind : str
        "OneD" or "TwoD".
    grid : ndarray or tuple
        Node abscissae (1-D), or the pair of axis grids (2-D).
    density : ndarray or None
        Lumped mass per grid node.  None for product-form measures,
        which carry their factor measures instead.
    atoms : tuple of (str, float)
        Named atoms off the grid (fixed point, divisor at infinity,
        product corners).
    total_mass : float
    cdf_seq : ndarray or None
        For 1-D measures, mass of {t <= T} sampled just right of each
        node, prefixed by the fixed-point atom; kept exact (no cumsum).
    factors : tuple or None
        Product measures: ((coef, m1, m2), ...) meaning
        sum coef * m1 (x) m2 over the two line factors.
    """

    kind: str
    grid: object
    density: object
    atoms: tuple
    total_mass: float
    cdf_seq: object = None
    factors: tuple = None

    def frozen(self):
        """self with every array read-only, factor measures' too (for a cache)."""
        for a in (self.density, self.cdf_seq):
            if a is not None:
                a.setflags(write=False)
        for _, m1, m2 in self.factors or ():
            m1.frozen(), m2.frozen()
        return self

    def atom_mass(self, tag):
        return dict(self.atoms).get(tag, 0.0)


def _normalized_ext_slopes(u, cap):
    """u's full slopes over the cap, clipped to [0, 1], bracketed by the
    boundary cell slopes as tails."""
    return slope_rows(np.diff(u.base.values + u.offset) / u.base.widths, cap)


def slope_rows(s, cap):
    """Normalized slope maps of the full cell slopes s, one per row of s:
    s over the cap, clipped to [0, 1], bracketed by the boundary cell
    slopes as tails."""
    ns = np.concatenate([s[..., :1], s, s[..., -1:]], axis=-1)
    ns /= cap
    return np.clip(ns, 0.0, 1.0, out=ns)


def pair_rows(ns1, ns2):
    """Sublevel masses and end-atom flags (c, fixed_point_atom,
    divisor_atom) of the measures whose sublevel mass is the product of
    two normalized slope maps, one per row of ns1 and ns2 (either may be
    one map for every row)."""
    return (ns1 * ns2, np.minimum(ns1[..., 0], ns2[..., 0]) > ATOM_SLOPE_TOL,
            np.minimum(1.0 - ns1[..., -1], 1.0 - ns2[..., -1]) > ATOM_SLOPE_TOL)


def measure_rows(c, fixed_point_atom, divisor_atom):
    """Node masses and end atoms of the 1-D measures with sublevel masses
    c, one per row of c: each end's mass is an atom where the row's flag is
    set, and is lumped onto the end node where it is not.  Returns the node
    masses, one row per measure, and each measure's atoms."""
    node_mass = c[..., 1:] - c[..., :-1]
    atoms = []
    for mass, row, fp, dv in zip(node_mass, c, fixed_point_atom, divisor_atom):
        ends = ()
        if fp:
            ends = ((FIXED_POINT, float(row[0])),)
        else:
            mass[0] += row[0]
        if dv:
            ends += ((DIVISOR, float(1.0 - row[-1])),)
        else:
            mass[-1] += 1.0 - row[-1]
        atoms.append(ends)
    return node_mass, atoms


def _measure_1d(grid, c, fixed_point_atom, divisor_atom):
    """The measure of :func:`measure_rows` for one sequence c."""
    (node_mass,), (atoms,) = measure_rows(c[None], (fixed_point_atom,), (divisor_atom,))
    return MaMeasure("OneD", grid, node_mass, atoms, 1.0, cdf_seq=c)


def ma_measure(model, phi):
    """Full Monge-Ampere measure of a potential.

    Parameters
    ----------
    model : KahlerModel
    phi : RelativeProfile, (RelativeProfile, RelativeProfile),
          ToricGrid, or None
        None means the zero potential: the reference measure, built once
        per model and shared (model.reference_measure, read-only).  The
        product model accepts separable potentials u (+) v as a pair.

    Returns
    -------
    MaMeasure
        Mass equal to the model volume.  Atoms appear iff the slope
        deficits at the ends exceed the detection threshold.
    """
    if phi is None:
        return model.reference_measure
    return backend(model).measure(model, potential(model, phi))


def _slope_map(model, u):
    """u's normalized slope map; the zero potential's is built once per model."""
    return model.zero_slopes if u is model.zero else _normalized_ext_slopes(u, model.slope_cap)


def _slope_measure(model, phi, psi):
    """Radial measure of phi and psi: the product of their slope maps."""
    ns1 = _slope_map(model, phi)
    ns2 = ns1 if psi is phi else _slope_map(model, psi)
    return _measure_1d(phi.base.grid, *pair_rows(ns1, ns2))


def _product_measure(model, phi):
    fs = tuple(map(factor_measure, phi))
    return product_wedge(fs, fs)


def _product_mixed(model, phi, psi):
    return product_wedge(tuple(map(factor_measure, phi)), tuple(map(factor_measure, psi)))


def _slope_ladder(model, grid, blocks, j):
    """Every cutoff rung's radial measure of order j = 1 or 2 from the
    blocks of the rungs' slope maps: the product of a rung's map with
    itself (j = 2) or with the zero potential's (j = 1), each with
    read-only node masses and no cdf_seq: a cutoff ladder reads only
    their masses and atoms."""
    out = []
    for ns in blocks:
        node_mass, atoms = measure_rows(*pair_rows(ns, ns if j == 2 else model.zero_slopes))
        node_mass.setflags(write=False)
        out += [MaMeasure("OneD", grid, d, a, 1.0) for d, a in zip(node_mass, atoms)]
    return out


def product_wedge(a, b):
    """The product measure of omega_phi ^ omega_psi from the factor
    measures a = (mu, mv) of phi and b of psi: 2 mu (x) mv when b is a,
    else the polarized pair of tensor terms."""
    if b is a:
        return product_measure(((2.0, *a),))
    return product_measure(((1.0, a[0], b[1]), (1.0, b[0], a[1])))


def _toric_mixed(model, phi, psi):
    midpoint = ToricGrid(phi.t1, phi.t2, 0.5 * phi.values + 0.5 * psi.values)
    mid = toric_measure(model, midpoint)
    m1 = toric_measure(model, phi)
    m2 = toric_measure(model, psi)
    dens = 2.0 * mid.density - 0.5 * m1.density - 0.5 * m2.density
    if dens.min() < -1e-9:
        raise NotOmegaPsh("polarization produced negative mass")
    dens = np.maximum(dens, 0.0)
    return MaMeasure("TwoD", mid.grid, dens, (), float(dens.sum()))


def factor_measure(u):
    """Measure of one line factor (normalized slope is the sublevel mass);
    its end atoms follow its own slope deficits."""
    ns = _normalized_ext_slopes(u, u.base.slope_cap)
    return _measure_1d(u.base.grid, ns, ns[0] > ATOM_SLOPE_TOL, 1.0 - ns[-1] > ATOM_SLOPE_TOL)


def product_measure(factor_pairs):
    """Assemble a product-model measure from factor tensor terms."""
    total = sum(c * m1.total_mass * m2.total_mass for c, m1, m2 in factor_pairs)
    atoms = {}
    for c, m1, m2 in factor_pairs:
        for tag1, a1 in m1.atoms:
            for tag2, a2 in m2.atoms:
                key = f"corner:{tag1}|{tag2}"
                atoms[key] = atoms.get(key, 0.0) + c * a1 * a2
    g = (factor_pairs[0][1].grid, factor_pairs[0][2].grid)
    return MaMeasure("TwoD", g, None, tuple(sorted(atoms.items())), total,
                     factors=tuple(factor_pairs))


def mixed_measure(model, phi, psi):
    """Mixed wedge measure of two potentials.

    Defined by polarization from the full measures; on the slope side
    the polarization collapses to the product of the two normalized
    slope maps, which is used directly (it is the same algebraic
    identity, evaluated without cancellation).
    """
    return backend(model).mixed(model, potential(model, phi), potential(model, psi))


def gradient_density(grid, offset, background, cap):
    """Per-cell density d(offset)^2 d(background) / cap^2 of a gradient
    pairing on a 1-D grid, where background holds the full values of the
    background form's potential."""
    h = np.diff(grid)
    d = np.diff(offset) / h
    return (d ** 2) * (np.diff(background) / h) * h / cap ** 2


def gradient_current_mass(model, phi, psi=None, weight=None):
    """Mass of the gradient pairing d phi ^ d^c phi ^ omega_psi.

    Parameters
    ----------
    model : KahlerModel
    phi : RelativeProfile or pair
    psi : same, optional
        The potential of the background form; None means the reference
        form.
    weight : ndarray, optional
        Extra per-cell weight (evaluated by the caller), e.g. a power
        of -phi at cell midpoints.

    Returns
    -------
    float
        The raw grid sum; always finite because the grid is finite.
        Divergence verdicts for the underlying improper integral are
        the energy module's octave analysis.
    """
    # product model: one term per line factor, since the complementary
    # factor of omega_psi integrates to 1
    total = 0.0
    for u, bg in zip(factors(model, phi, "gradient_current_mass"),
                     factors(model, psi, "gradient_current_mass")):
        contrib = gradient_density(u.base.grid, u.offset, bg.full_values(),
                                   model.slope_cap)
        if weight is not None:
            contrib = contrib * weight
        total += float(np.sum(contrib))
    return total


def weighted_mass(measure, w_nodes, w_left=None, w_right=None):
    """Integral of a nonnegative weight against a 1-D measure.

    Parameters
    ----------
    measure : MaMeasure (OneD)
    w_nodes : ndarray
        Weight at the grid nodes.
    w_left, w_right : float, optional
        Weight limits at t -> -inf / +inf, charged to the fixed-point /
        divisor atoms.  May be numpy.inf, in which case the result is
        inf whenever the corresponding atom is present.
    """
    out = float(np.dot(measure.density, w_nodes))
    for tag, mass in measure.atoms:
        w = w_left if tag == FIXED_POINT else w_right
        if w is None:
            raise InvalidInput(f"measure has atom {tag} but no limit weight given")
        if np.isinf(w):
            return float(np.inf)
        out += mass * w
    return out


def cdf_sup_distance(m1, m2):
    """Sup distance between the sublevel-mass functions of two measures."""
    if m1.kind == "OneD" and m2.kind == "OneD":
        return float(np.abs(m1.cdf_seq - m2.cdf_seq).max())
    if m1.factors is not None and m2.factors is not None:
        # product measures: mass{t1 <= s, t2 <= t} = sum c F(s) G(t), so the
        # difference is the low-rank product A @ B.T, taken in row blocks
        A = np.column_stack([c * f.cdf_seq for c, f, _ in m1.factors]
                            + [-c * f.cdf_seq for c, f, _ in m2.factors])
        B = np.column_stack([g.cdf_seq for _, _, g in m1.factors + m2.factors])
        step = max(1, CDF_BLOCK // len(B))
        return max(float(np.abs(A[i:i + step] @ B.T).max())
                   for i in range(0, len(A), step))
    if m1.density is not None and m2.density is not None:
        diff = m1.density - m2.density
        cum = np.cumsum(np.cumsum(diff, axis=0), axis=1)
        return float(np.abs(cum).max())
    raise InvalidInput("incomparable measure kinds")


def restricted_mass(measure, node_mask, include_left, include_right):
    """Mass of a union of grid nodes plus optionally the two end atoms."""
    out = float(measure.density[node_mask].sum())
    for tag, mass in measure.atoms:
        if tag == FIXED_POINT and include_left:
            out += mass
        if tag == DIVISOR and include_right:
            out += mass
    return out


def comparison_masses(model, phi, psi):
    """Both sides of the comparison principle on {phi < psi}.

    Returns
    -------
    (float, float)
        Mass of omega_psi^2 and of omega_phi^2 on the sublevel set;
        the first never exceeds the second for admissible bounded
        potentials.
    """
    require(model, RADIAL_P2, "comparison_masses")
    mask = phi.offset < psi.offset
    inc_l = bool(mask[0])
    inc_r = bool(mask[-1])
    m_psi = ma_measure(model, psi)
    m_phi = ma_measure(model, phi)
    return (restricted_mass(m_psi, mask, inc_l, inc_r),
            restricted_mass(m_phi, mask, inc_l, inc_r))


def demailly_margin(model, phi, psi):
    """Worst margin of the local-max inequality at c = 1/2.

    The measure of max(phi, psi - c) dominates the measure of phi on
    the region where phi wins; the margin reported is the minimum of
    (mass_max - mass_phi) over the winning nodes (>= 0 when the
    inequality holds).
    """
    require(model, RADIAL_P2, "demailly_margin")
    c = 0.5
    top = max_offsets(phi, psi.shifted(-c))
    m_top = ma_measure(model, top)
    m_phi = ma_measure(model, phi)
    win = phi.offset >= psi.offset - c
    diff = m_top.density - m_phi.density
    return float(diff[win].min()) if win.any() else 0.0


# ----------------------------------------------------------------------
# toric backend: Aleksandrov cells on the moment square
# ----------------------------------------------------------------------

LOWER_FACET_TOL = 1e-12  # facets whose unit normal has z below -this are lower
PROJECTION_BLOCK = 1 << 16  # facet-plane evaluations (512 kB) per block of off-hull nodes
INTERIOR_MARGIN = 1e-9  # dual segments with both ends this far inside skip the clip
STRICT_MARGIN = 1e-12  # chord and coplanarity gaps, relative to max(1, max|Psi|)


@dataclass(frozen=True)
class _LowerHull:
    """Lower convex hull of a lifted toric grid; every array is read-only.

    V, Z are the node positions and heights.  tris lists the lower
    facets, counter-clockwise in the plane, with gradients grad and
    values icpt at the origin (the facet plane is z = grad . v + icpt).
    nbrs[f, j] is the lower facet across the edge of tris[f] opposite its
    vertex j (int32), or -1 where the facet there is not a lower one.
    on_hull marks the nodes that are vertices of some lower facet.
    """

    V: np.ndarray
    Z: np.ndarray
    tris: np.ndarray
    nbrs: np.ndarray
    grad: np.ndarray
    icpt: np.ndarray
    on_hull: np.ndarray


def _chord_gaps(Psi):
    """How far each node of a grid potential lies below a chord, and the
    margin STRICT_MARGIN * max(1, max|Psi|) its tests compare with.

    The chord joins two grid neighbours placed symmetrically about the
    node: on axis 0 (the gaps have shape (n1 - 2, n2)), on axis 1
    ((n1, n2 - 2)) and on the two diagonals ((n1 - 2, n2 - 2) each).  A
    node on the boundary has the chord along its edge line only.  On a
    uniform grid the neighbours' midpoint is the node, so a negative gap
    puts the node above the lower hull.
    """
    tol = STRICT_MARGIN * max(1.0, float(np.abs(Psi).max()))
    inner = Psi[1:-1, 1:-1]
    return tol, (0.5 * (Psi[:-2] + Psi[2:]) - Psi[1:-1],
                 0.5 * (Psi[:, :-2] + Psi[:, 2:]) - Psi[:, 1:-1],
                 0.5 * (Psi[:-2, :-2] + Psi[2:, 2:]) - inner,
                 0.5 * (Psi[:-2, 2:] + Psi[2:, :-2]) - inner)


def _strictly_convex(Psi):
    """Whether every chord gap of the grid potential Psi exceeds the
    margin of _chord_gaps, and so does the distance from coplanarity of
    every grid cell's four lifted corners (their mixed difference)."""
    tol, gaps = _chord_gaps(Psi)
    mixed = Psi[:-1, :-1] + Psi[1:, 1:] - Psi[1:, :-1] - Psi[:-1, 1:]
    return all((g > tol).all() for g in gaps) and bool((np.abs(mixed) > tol).all())


def _qhull(points, strict):
    """qhull's hull of points: without the premerge ("Qt Q0") if strict,
    and with it ("Qt") if not, or if the unmerged build raises."""
    if strict:
        try:
            return ConvexHull(points, qhull_options="Qt Q0")
        except QhullError:
            pass
    return ConvexHull(points, qhull_options="Qt")


def _lower_hull(t1, t2, Psi):
    """The lower hull of (t1 x t2, Psi); Psi may be flat.  Z is a copy of
    Psi, so a caller mutating Psi afterwards cannot reach the hull.

    qhull runs once, unless its unmerged build raises (:func:`_qhull`).
    By default ("Qt") it premerges nearly coplanar facets to absorb its
    rounding.  A strictly convex lift
    (_strictly_convex) has no node on the hull surface and no coplanar
    grid cell, so the merge has nothing to change in its lower
    triangles; it is built without the merge ("Qt Q0"), which costs about
    a third less.  Its facet gradients can then differ in the last bits,
    since each triangle keeps its own plane.  Every other lift keeps the
    merge: on lifts with nodes exactly on the hull surface (separable or
    ruled potentials, a Newton iterate projected onto its hull), "Q0"
    makes such nodes vertices and moves their cells.  The screen rules
    out those lifts; it does not prove that the two builds agree, which
    the tests check on drawn strictly convex lifts.  The screen certifies
    the lower side only: on a nearly planar lift qhull's rounding on the
    upper side can still make the unmerged build raise, and the lift is
    then built again with the merge.

    qhull rejects an affine Psi (its initial simplex is flat); its lower
    hull is then its plane, two triangles on the four corners.  Any other
    lift that qhull rejects raises PreconditionViolated.
    """
    X, Y = np.meshgrid(np.asarray(t1, float), np.asarray(t2, float), indexing="ij")
    V = np.column_stack([X.ravel(), Y.ravel()])
    Z = np.array(Psi, float).ravel()
    try:
        qh = _qhull(np.column_stack([V, Z]), _strictly_convex(Z.reshape(X.shape)))
    except QhullError as exc:
        n = X.shape[1]
        c = [0, len(Z) - n, len(Z) - 1, n - 1]  # the corners, counter-clockwise
        g = np.linalg.solve(np.column_stack([V[c[:3]], np.ones(3)]), Z[c[:3]])
        if not np.abs(V @ g[:2] + g[2] - Z).max() <= 1e-12 * max(1.0, np.abs(Z).max()):
            raise PreconditionViolated(f"qhull rejects the lifted toric grid: {exc}")
        tris = np.array([c[:3], [c[0], c[2], c[3]]], np.intp)
        nbrs = np.array([[-1, 1, -1], [-1, -1, 0]], np.int32)  # they share c0-c2
        eq = np.tile([g[0], g[1], -1.0, g[2]], (2, 1))  # the plane z = g . v + h
    else:
        # row gathers by take: the same rows as fancy indexing, at less cost
        lower = np.flatnonzero(qh.equations[:, 2] < -LOWER_FACET_TOL)
        eq = qh.equations.take(lower, 0)
        tris = qh.simplices.take(lower, 0).astype(np.intp)  # k * N + l overflows int32
        index = np.full(len(qh.equations), -1, np.int32)  # qhull's facets -> lower facets
        index[lower] = np.arange(len(lower), dtype=np.int32)
        nbrs = index.take(qh.neighbors.take(lower, 0))
        del qh, index
    a, b, c = (V.take(tris[:, i], 0) for i in range(3))
    cw = np.flatnonzero(_cross(b - a, c - a) < 0)
    for arr in (tris, nbrs):
        arr[cw, 1], arr[cw, 2] = arr[cw, 2], arr[cw, 1]
    on_hull = np.zeros(len(Z), bool)
    on_hull[tris.ravel()] = True
    hull = _LowerHull(V, Z, tris, nbrs, -eq[:, :2] / eq[:, 2:3], -eq[:, 3] / eq[:, 2],
                      on_hull)
    for arr in vars(hull).values():
        arr.setflags(write=False)
    return hull


def _cross(u, v):
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _dual_segments(hull):
    """The edges of the cell diagram, one per lower-hull edge (k, l), k < l.

    Returns k, l and each edge's dual as B + s*D for s in [s0, s1],
    oriented so that k's cell lies on its left.  An edge shared by the
    lower facets L (left of k->l) and R runs from grad_R to grad_L.  An
    edge with one lower facet lies on the domain boundary (or next to a
    vertical facet); its dual is the ray from the facet's gradient along
    the edge's outward normal, away from the facet.  Sides come from the
    facets' orientation in the plane, which a zero-area triangle lacks;
    qhull emits such triangles, and folds its lower facets (below), only
    on some nearly planar lifts.  The shared edges come first,
    sorted by the key k*N + l, then the single ones in half-edge order.

    Half-edge q of facet f runs from tris[f, q] to tris[f, (q + 1) % 3],
    and the facet across it is nbrs[f, (q + 2) % 3], qhull's adjacency.
    A shared edge is taken once, from its half-edge with k -> l, whose
    facet is L, so only these keys are sorted.  On a nearly planar lift
    qhull can fold its lower facets: two of them then lie on one side of
    a shared edge, and some key has two such half-edges or none.  Such a
    hull pairs the half-edges by sorting every key stably, the lower
    half-edge of a pair first: its facet is L if it lies left of k->l,
    and R otherwise.
    """
    V, tris, grad = hull.V, hull.tris, hull.grad
    N = len(V)
    src = tris.ravel()
    dst = tris.take([1, 2, 0], 1).ravel()
    across = hull.nbrs.take([2, 0, 1], 1).ravel()
    shared = across >= 0
    i1 = np.flatnonzero(shared & (src < dst))
    key = src.take(i1) * N + dst.take(i1)
    order = np.argsort(key)
    i1, key = i1.take(order), key.take(order)
    if 2 * len(i1) == np.count_nonzero(shared) and not (key[1:] == key[:-1]).any():
        k1, l1, fL, fR = src.take(i1), dst.take(i1), i1 // 3, across.take(i1)
        i0 = np.flatnonzero(~shared)
    else:  # a folded hull
        edge = np.minimum(src, dst) * N + np.maximum(src, dst)
        order = np.argsort(edge, kind="stable")
        pair = edge[order][1:] == edge[order][:-1]
        a, b = order[:-1][pair], order[1:][pair]
        first_left = src[a] < dst[a]
        k1, l1 = np.minimum(src[a], dst[a]), np.maximum(src[a], dst[a])
        fL, fR = np.where(first_left, a, b) // 3, np.where(first_left, b, a) // 3
        single = np.ones(len(src), bool)
        single[a] = single[b] = False
        i0 = np.flatnonzero(single)
    s, t = src.take(i0), dst.take(i0)
    k0, l0 = np.minimum(s, t), np.maximum(s, t)
    d = V.take(l0, 0) - V.take(k0, 0)
    rot = np.column_stack([-d[:, 1], d[:, 0]])  # left normal of k->l
    outgoing = s > t  # the facet lies right of k->l: for k the ray leaves its gradient
    n_pair = len(k1)
    gR = grad.take(fR, 0)
    B = np.concatenate([gR, grad.take(i0 // 3, 0)])
    D = np.concatenate([grad.take(fL, 0) - gR, rot])
    s0 = np.concatenate([np.zeros(n_pair), np.where(outgoing, 0.0, -np.inf)])
    s1 = np.concatenate([np.ones(n_pair), np.where(outgoing, np.inf, 0.0)])
    return np.concatenate([k1, k0]), np.concatenate([l1, l0]), B, D, s0, s1


def _clip_to_square(B, D, s0, s1):
    """Liang-Barsky clip of B + s*D, s in [s0, s1], to the unit square.

    Returns the kept rows and their clipped ends P, Q.  An end cut by a
    side is placed exactly on it, so side membership is an exact test.
    _hull_cells passes only the rows it cannot take as they are: the
    rays, the segments that come within INTERIOR_MARGIN of a side, and
    the non-finite ones.
    """
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
    """Boundary-side contributions at the clipped ends, for Green's theorem.

    With the origin at (0, 0) the sides x = 0 and y = 0 add nothing to
    the area sum (x dy - y dx) or to the moment sums, so along the square
    boundary these sums have a potential Phi: (y, 2y, y^2) on x = 1,
    (2 - x, 3 - x^2, 3 - 2x) on y = 1, and constant on the other two
    sides, where it drops by (2, 3, 3) at one jump point.  The side piece
    of a cell from u to w adds Phi(w) - Phi(u), so a cell collects
    +Phi at each end where its dual edge leaves the boundary and -Phi
    where one arrives; ownership of the pieces comes from the edges'
    orientation, not from sorting.  The jump sits mid-way along the
    widest gap between ends on x = 0 or y = 0, so no two ends that
    rounding could swap straddle it.  Returns Phi(P) - Phi(Q).
    """
    ends = np.concatenate([P, Q])
    x, y = ends[:, 0], ends[:, 1]
    low_side = ((x == 0) | (y == 0)) & (x != 1) & (y != 1)
    v = np.where(x == 0, 1.0 - y, 1.0 + x)  # arc length from (0, 1) via (0, 0)
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


def toric_cells(t1, t2, Psi, want_jac=False):
    """_hull_cells of a hull built for this call alone, with the Jacobian
    as a scipy.sparse CSR matrix.  A caller that needs more of one
    potential builds the _lower_hull once and holds it."""
    areas, mom, jac = _hull_cells(_lower_hull(t1, t2, Psi), want_jac)
    if jac is not None:
        k, l, wt, diag = jac
        idx = np.arange(len(diag))
        jac = sp.csr_matrix((np.concatenate([wt, wt, diag]),
                             (np.concatenate([k, l, idx]), np.concatenate([l, k, idx]))),
                            shape=(len(diag), len(diag)))
    return areas, mom, jac


def _hull_cells(hull, want_jac=False):
    """Subgradient cell areas, first moments, and the area Jacobian.

    The cell of a lower-hull vertex k is the convex polygon of the
    gradients of its incident lower facets -- the 2-D discrete Legendre
    dual -- clipped to the moment square.  Each lower-hull edge (k, l) is
    dual to one edge of the cell diagram: the segment between the
    gradients of its two lower facets, or, on the domain boundary, a ray
    from its one facet's gradient along the outward normal.  Green's
    theorem then gives every cell's area and first moments as sums over
    its dual edges plus the pieces of the square's sides it owns (see
    _side_terms), accumulated per node with bincount.

    Most dual edges are segments with both ends B, E = B + D inside
    (INTERIOR_MARGIN, 1 - INTERIOR_MARGIN)^2, and they are kept as they
    are.  On such a row the Liang-Barsky ratios -B/D and (1 - B)/D are
    all below 0 or above 1 (already for a margin of 0, by a last-ulp
    argument; the margin makes it plain), so _clip_to_square would
    return B + 0*D == B and B + 1*D == E unchanged, and _side_terms would
    add zeros.  Only the other rows (rays, segments that come near or
    cross a side, non-finite ones) go through one vectorized clip and
    the side terms.  The kept rows stay in ascending row order, so every
    bincount sums the same addends in the same order as clipping every
    row would, and the output is the same to the bit.

    Parameters
    ----------
    hull : _LowerHull
        The lower hull of the potential, from _lower_hull.
    want_jac : bool
        Also compute d(areas)/d(Psi), in edge form.

    Returns
    -------
    areas : ndarray, shape (N,)
        Cell areas in the moment square; they tile the square exactly,
        so areas.sum() == 1 up to rounding.  Nodes off the lower convex
        hull get area 0.
    mom : ndarray, shape (N, 2)
        First moments of the cells (used by the solver's merit
        function).
    jac : tuple (k, l, wt, diag) or None
        The symmetric Jacobian in edge form: entry wt[e] at (k[e], l[e])
        and at (l[e], k[e]) for each hull edge e whose dual edge meets
        the square, and diag on the diagonal, minus the row sums, so row
        sums vanish.  wt[e] is the clipped length of the dual edge over
        |V_l - V_k|, and 0 when the clipped dual edge has no length.
        Callers assemble the matrix they need (toric_cells the whole
        CSR matrix, the Newton solver its active block) without a
        second pass over the hull.
    """
    N = len(hull.Z)
    k, l, P, D, s0, s1 = _dual_segments(hull)
    Q = P + D
    ends = np.hstack([P, Q])
    inner = ((s0 == 0) & (s1 == 1)
             & ((ends > INTERIOR_MARGIN) & (ends < 1.0 - INTERIOR_MARGIN)).all(axis=1))
    cut = np.flatnonzero(~inner)
    keep, Pc, Qc = _clip_to_square(P.take(cut, 0), D.take(cut, 0), s0.take(cut), s1.take(cut))
    cut = cut.take(keep)
    P[cut], Q[cut] = Pc, Qc
    inner[cut] = True  # now every kept row, in ascending order
    rows = np.flatnonzero(inner)
    k, l, P, Q = k.take(rows), l.take(rows), P.take(rows, 0), Q.take(rows, 0)
    cr = _cross(P, Q)
    w = np.column_stack([cr, (P[:, 0] + Q[:, 0]) * cr, (P[:, 1] + Q[:, 1]) * cr])
    # an interior end adds no side term, and every end on a side is a clipped one
    w[np.searchsorted(rows, cut)] += _side_terms(Pc, Qc)
    # float even when no edge meets the square (bincount is then integer)
    S = np.array([np.bincount(k, w[:, i], N) - np.bincount(l, w[:, i], N)
                  for i in range(3)], dtype=float)
    # the one cell owning the jump of the side potential misses (2, 3, 3);
    # others sum to 2*area >= 0, so below -0.5 it is the minimum, and
    # otherwise its area is at least 3/4 and it contains the centre
    c = np.argmin(S[0])
    if S[0, c] >= -0.5:
        c = np.argmax(hull.V.sum(axis=1) * 0.5 - hull.Z)
    S[:, c] += (2.0, 3.0, 3.0)
    areas = np.maximum(0.5 * S[0], 0.0)
    mom = S[1:].T / 6.0
    jac = None
    if want_jac:
        dV = hull.V.take(l, 0) - hull.V.take(k, 0)
        wt = np.hypot(*(Q - P).T) / np.hypot(*dV.T)
        # along a side of the square the area is not differentiable: one
        # way the edge leaves the square, so take the mean one-sided slope
        on_side = ((P == Q) & ((P == 0) | (P == 1))).any(axis=1)
        wt[on_side] *= 0.5
        jac = (k, l, wt, -(np.bincount(k, wt, N) + np.bincount(l, wt, N)))
    return areas, mom, jac


def toric_hull_projection(t1, t2, Psi):
    """Psi projected onto its lower convex hull, and the sup projection
    distance; the one-call form of _hull_projection."""
    low, dist = _hull_projection(_lower_hull(t1, t2, Psi))
    return low.reshape(len(t1), len(t2)), dist


def _hull_projection(hull):
    """Project a toric potential onto its lower convex hull.

    Hull vertices keep their values.  Every other node takes the hull's
    value there, the max over the lower-facet planes, which is exact for
    the convex envelope and costs nothing when every node is a vertex.

    The off-hull nodes go in near-equal blocks of about PROJECTION_BLOCK
    plane evaluations, each of two or more nodes unless only one node is
    off the hull: numpy computes a one-row block by a matrix-vector
    product, which can round differently from the matrix-matrix product
    of a larger block, so the values do not depend on PROJECTION_BLOCK.

    Returns the projected values, flat like hull.Z, and the sup
    projection distance, which is 0 exactly when no node moves.
    """
    low = hull.Z.copy()
    off = np.flatnonzero(~hull.on_hull)
    step = max(1, PROJECTION_BLOCK // len(hull.icpt))
    for idx in np.array_split(off, max(1, min(-(-len(off) // step), len(off) // 2))):
        planes = hull.V[idx] @ hull.grad.T + hull.icpt
        low[idx] = np.minimum(planes.max(axis=1), low[idx])
    return low, float((hull.Z - low).max())


def toric_measure(model, phi):
    """Aleksandrov measure of a toric potential (raw mass = 2); NotOmegaPsh
    if a value lies above the lower hull, which the cells share, by more
    than 1e-8 * max(1, max|values|)."""
    t1, t2, _ = model.reference_potential
    hull = _lower_hull(t1, t2, phi.values)
    _, dist = _hull_projection(hull)
    if dist > 1e-8 * max(1.0, float(np.abs(hull.Z).max())):
        raise NotOmegaPsh("toric potential is not convex")
    areas, _, _ = _hull_cells(hull)
    dens = 2.0 * areas.reshape(len(t1), len(t2))
    return MaMeasure("TwoD", (t1, t2), dens, (), float(dens.sum()))
