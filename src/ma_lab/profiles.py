"""Convex-calculus kernel for 1-D potential profiles.

A profile is a convex piecewise-linear function of the invariant
log-coordinate t, with slopes confined to [0, slope_cap].  Outside the
grid it continues affinely with the stored asymptotic slopes, so every
profile is globally defined and every integral against it is a finite
sum over grid cells.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NotOmegaPsh, PreconditionViolated

TOL_CONVEX = 1e-10

_GRID_CACHE = {}


def default_grid(core_half_width=40.0, core_step=0.02, octaves=45, per_octave=8):
    """Composite abscissa grid: uniform core plus logarithmic extensions.

    The core resolves the curved region of the reference potentials;
    the extensions reach |t| ~ 1.4e15 so that slowly decaying tail
    contributions (power-law singularities) are summed rather than
    modeled.

    Returns
    -------
    ndarray
        Strictly increasing abscissae, symmetric about 0; cached and
        read-only.
    """
    key = (core_half_width, core_step, octaves, per_octave)
    if key not in _GRID_CACHE:
        core = np.arange(-core_half_width, core_half_width + core_step / 2, core_step)
        m = np.arange(1, per_octave * octaves + 1)
        ext = core_half_width * 2.0 ** (m / per_octave)
        grid = np.concatenate([-ext[::-1], core, ext])
        grid.setflags(write=False)  # shared by every caller
        _GRID_CACHE[key] = grid
    return _GRID_CACHE[key]


def integrate_slopes(grid, s, i0):
    """The grid function with cell slopes s that is 0 at node i0: sums of
    slope times cell width, accumulated outward from i0 on each side."""
    seg = s * np.diff(grid)
    vals = np.empty(grid.size)
    vals[i0] = 0.0
    vals[i0 + 1:] = np.cumsum(seg[i0:])
    vals[:i0] = -np.cumsum(seg[:i0][::-1])[::-1]
    return vals


def check_slopes(s, lo, hi, cap):
    """Raise NotOmegaPsh unless the cell slopes s, bracketed by the tail
    slopes lo and hi, are nondecreasing (up to TOL_CONVEX relative to the
    largest slope) and the tails lie in [0, cap].  s may carry a leading
    axis of rows, with one lo and hi per row, each row checked on its own
    scale; the first failing row raises."""
    s, lo, hi = np.asarray(s), np.asarray(lo), np.asarray(hi)
    # per row, -TOL_CONVEX * max(1, max |s|) bounds each step of lo, s, hi below
    tol = -TOL_CONVEX * np.maximum(1.0, np.maximum(s.max(axis=-1), -s.min(axis=-1)))
    concave = (np.any(s[..., 1:] - s[..., :-1] < tol[..., None], axis=-1)
               | (s[..., 0] - lo < tol) | (hi - s[..., -1] < tol))
    bad = concave | (lo < -TOL_CONVEX) | (hi > cap + TOL_CONVEX)
    if bad.any():
        first = np.flatnonzero(bad)[0]
        raise NotOmegaPsh("profile is not convex" if concave.flat[first]
                          else "asymptotic slopes outside [0, slope_cap]")


def relative_slopes(base, off):
    """The full cell slopes of the offsets off over base, checked as
    RelativeProfile construction checks them: finite offsets and full
    values, :func:`check_slopes` with the boundary cell slopes as tails,
    and offset tails in the admissible cone.  off may carry a leading axis
    of rows, one potential per row."""
    if not np.all(np.isfinite(off)):
        raise InvalidInput("non-finite offset")
    full = base.values + off
    if not np.all(np.isfinite(full)):
        raise InvalidInput("non-finite profile data")
    s = full[..., 1:] - full[..., :-1]
    s /= base.widths
    check_slopes(s, s[..., 0], s[..., -1], base.slope_cap)
    # offset tails must not increase outward, else phi is unbounded above
    lo, hi = s[..., 0] - base.slope_minus_inf, s[..., -1] - base.slope_plus_inf
    if np.any((lo < -TOL_CONVEX) | (hi > TOL_CONVEX)):
        raise NotOmegaPsh("offset tail slopes escape the admissible cone")
    return s


def limit_values(lo, hi, first, last):
    """Offset limits at t -> -inf and t -> +inf (may be -inf) of an offset
    with tail slopes lo, hi and end values first, last."""
    return (-np.inf if lo > TOL_CONVEX else float(first),
            -np.inf if hi < -TOL_CONVEX else float(last))


@dataclass(frozen=True)
class Profile:
    """A convex potential profile psi(t).

    Parameters
    ----------
    grid : ndarray
        Strictly increasing abscissae.
    values : ndarray
        psi evaluated on the grid.
    slope_minus_inf, slope_plus_inf : float
        Affine continuation slopes beyond the grid.
    slope_cap : float
        Maximal admissible slope of the model (1/2 on the radial
        surface, 1 on a line factor).
    """

    grid: np.ndarray
    values: np.ndarray
    slope_minus_inf: float
    slope_plus_inf: float
    slope_cap: float = 0.5
    widths: np.ndarray = field(init=False, compare=False, repr=False)  # read-only cell widths

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if g.ndim != 1 or v.shape != g.shape or g.size < 2:
            raise InvalidInput("profile needs matching 1-D grid/values, >= 2 points")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise InvalidInput("non-finite profile data")
        h = np.diff(g)
        if np.any(h <= 0):
            raise InvalidInput("grid must be strictly increasing")
        h.setflags(write=False)
        object.__setattr__(self, "widths", h)
        check_slopes(np.diff(v) / h, self.slope_minus_inf, self.slope_plus_inf, self.slope_cap)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.grid, self.values)
        lo = t < self.grid[0]
        hi = t > self.grid[-1]
        out = np.where(lo, self.values[0] + self.slope_minus_inf * (t - self.grid[0]), out)
        out = np.where(hi, self.values[-1] + self.slope_plus_inf * (t - self.grid[-1]), out)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class RelativeProfile:
    """A potential phi written relatively to a reference profile.

    The stored offset satisfies full = base + offset; the offset is
    bounded above because its tail slopes are differences of admissible
    slopes.  sup_value is the supremum of the offset over the line.  The
    offset is a read-only copy of the array passed in.  Construction
    validates the full profile base + offset, with the boundary cell
    slopes as its tails, from one pass over its slopes, and keeps only
    the two tail slopes.
    """

    base: Profile
    offset: np.ndarray
    sup_value: float = field(init=False)
    _full_tails: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        off = np.array(self.offset, dtype=float)  # a copy the caller cannot reach
        off.setflags(write=False)
        object.__setattr__(self, "offset", off)
        if off.shape != self.base.grid.shape:
            raise InvalidInput("offset shape must match base grid")
        s = relative_slopes(self.base, off)
        object.__setattr__(self, "sup_value", float(off.max()))
        object.__setattr__(self, "_full_tails", (float(s[0]), float(s[-1])))

    def full_values(self):
        return self.base.values + self.offset

    def offset_tail_slopes(self):
        """Offset slopes beyond the grid ends (full tail minus base tail)."""
        lo, hi = self._full_tails
        return lo - self.base.slope_minus_inf, hi - self.base.slope_plus_inf

    def limit_values(self):
        """Offset limits at t -> -inf and t -> +inf (may be -inf)."""
        return limit_values(*self.offset_tail_slopes(), self.offset[0], self.offset[-1])

    def shifted(self, c):
        return RelativeProfile(self.base, self.offset + c)

    def normalized(self, sup):
        """Additive renormalization to the requested supremum."""
        return self.shifted(sup - self.sup_value)


def zero_offset(base):
    return RelativeProfile(base, np.zeros_like(base.values))


def compose_weight(p, chi):
    """Compose a normalized potential with an admissible concave-increasing weight.

    Parameters
    ----------
    p : RelativeProfile
        Must satisfy phi <= -1 pointwise.
    chi : tuple
        ("power", alpha) for phi -> -(-phi)**alpha with alpha in [0, 1],
        or ("neglog",) for phi -> -log(-phi).

    Returns
    -------
    RelativeProfile

    Raises
    ------
    PreconditionViolated
        If phi > -1 somewhere.
    InvalidInput
        If alpha lies outside [0, 1] or the weight is unknown.
    NotOmegaPsh
        If the composed potential fails the convexity check.  Admissible
        weights preserve the class, so this indicates bad input; the
        operation asserts and never repairs.
    """
    if p.sup_value > -1.0 + 1e-12:
        raise PreconditionViolated("weight composition requires phi <= -1")
    phi = p.offset
    if chi[0] == "power":
        alpha = float(chi[1])
        if not 0.0 <= alpha <= 1.0:
            raise InvalidInput("power weight needs alpha in [0, 1]")
        new = -np.power(-phi, alpha)
    elif chi[0] == "neglog":
        new = -np.log(-phi)
    else:
        raise InvalidInput(f"unknown weight {chi[0]!r}")
    return RelativeProfile(p.base, new)  # construction checks convexity


def max_offsets(p, q):
    """Pointwise maximum of two relative potentials over the same base."""
    if p.base is not q.base and not np.array_equal(p.base.values, q.base.values):
        raise InvalidInput("relative profiles must share a base")
    return RelativeProfile(p.base, np.maximum(p.offset, q.offset))


def scale(p, lam):
    """lam * phi for lam in [0, 1] (larger factors leave the class)."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidInput("scaling factor must lie in [0, 1]")
    return RelativeProfile(p.base, lam * p.offset)


def truncate(p, k):
    """Canonical cutoff max(phi, -k); bounded, decreasing in k."""
    if not k > 0:
        raise InvalidInput("truncation level must be positive")
    return RelativeProfile(p.base, np.maximum(p.offset, -float(k)))
