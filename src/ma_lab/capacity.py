"""Capacity of invariant sublevel sets via relative extremal profiles.

On the radial model every invariant compact is a sublevel set
{t <= T}, so a set is its abscissa T: T = -inf is the empty set (or
the fixed point alone) and T = +inf the whole space.  For a monotone
potential phi, {phi < -t} = {t <= T} with T from
:func:`sublevel_abscissae`, which gives -inf where the sublevel is
empty on the grid and +inf where it covers the grid.

The relative extremal potential of {t <= T} is explicit: the reference
potential dropped by 1 on the set, continued by its tangent of
smallest admissible slope until it rejoins the reference.  The
capacity is the measure the extremal potential places on the set,
which is (s*/cap)^2 with s* the exit slope (0 at T = -inf, cap at
T = +inf); this closed form is the maximizer over all admissible
competitors because any competitor's slope at T is dominated by the
tangent slope.  :func:`exit_slope` and :func:`capacity` take a scalar
T or an array of them; :func:`sublevel_capacity` gives Cap(phi < -t)
per threshold t.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import energy, ma
from .errors import InvalidInput, PreconditionViolated
from .models import RADIAL_P2, require
from .profiles import RelativeProfile

FIT_EXCLUDE_TOP = 0.1  # drop the largest thresholds from the fit window
SANDWICH_NODES = 600  # log-spaced quadrature nodes of the capacity-energy sandwich
TANGENT_WINDOW = 2  # nodes searched on each side of the bisected tangent node


@dataclass(frozen=True)
class CapacityCurve:
    """Sampled sublevel capacities t -> Cap(phi < -t) with fit data."""

    thresholds: np.ndarray
    values: np.ndarray
    fitted_exponent: float
    bound_constants: dict


def is_monotone(phi):
    """Whether phi's offset is nondecreasing up to 1e-12, so that every
    sublevel {phi < -t} is a set {t <= T}."""
    return not np.any(np.diff(phi.offset) < -1e-12)


def _monotone_offset(phi):
    if not is_monotone(phi):
        raise PreconditionViolated("sublevel computations need a monotone offset")
    return phi.offset


def sublevel_abscissae(phi, ts):
    """Abscissae T with {phi < -t} = {t <= T}, one per threshold t.

    T is -inf where phi >= -t at the first grid node (the sublevel is
    empty on the grid), +inf where phi < -t at the last one, and the
    interpolated crossing of the monotone offset with -t otherwise.
    """
    off = _monotone_offset(phi)
    level = -np.asarray(ts, dtype=float)
    T = np.interp(level, off, phi.base.grid)
    return np.where(off[0] >= level, -np.inf, np.where(off[-1] < level, np.inf, T))


def exit_slope(model, T):
    """Tangent slope of the extremal potential leaving {t <= T}, per T.

    The slope is the least chord ratio (f(x) - f(T) + 1) / (x - T) over
    the grid nodes x > T, capped at the slope cap.  The reference f is
    convex, so the ratios fall and then rise along the nodes: a bisection
    on the sign of consecutive differences, run for every T at once,
    finds the tangent node, and the least ratio within TANGENT_WINDOW
    nodes of it is the slope.  Far left of the core the ratios are flat
    to rounding near the tangent, where this can differ from the least
    ratio over all nodes past T by a few units in the last place.
    """
    require(model, RADIAL_P2, "exit_slope")
    base = model.reference_potential
    cap = model.slope_cap
    g, f = base.grid, base.values
    T = np.asarray(T, dtype=float)
    s = np.where(np.isneginf(T), 0.0, cap)  # cap for +inf and T past the grid
    idx = np.flatnonzero(np.isfinite(T) & (T < g[-1]))
    t = T.flat[idx][:, None]  # one row per finite T, nodes along columns
    ft = base(t)

    def ratio(k):
        return (f[k] - ft + 1.0) / (g[k] - t)

    first = np.searchsorted(g, t, side="right")  # first node past T
    lo, hi = first, np.full_like(first, g.size - 1)
    while np.any(lo < hi):  # the tangent node lies in [lo, hi]
        mid = (lo + hi) // 2
        # a tie is rounding in the flat bottom: count it as still falling
        falling = (mid < hi) & (ratio(np.minimum(mid + 1, hi)) <= ratio(mid))
        lo, hi = np.where(falling, mid + 1, lo), np.where(falling, hi, mid)
    near = np.clip(lo + np.arange(-TANGENT_WINDOW, TANGENT_WINDOW + 1), first, g.size - 1)
    s.flat[idx] = np.minimum(cap, ratio(near).min(axis=1))
    return s if s.ndim else float(s)


def capacity(model, T):
    """Capacity of {t <= T} per T, from the extremal exit slope."""
    require(model, RADIAL_P2, "capacity")
    # one array power for scalars too, so a 0-d call matches its array entry
    c = (np.atleast_1d(exit_slope(model, T)) / model.slope_cap) ** model.cdf_power
    return c if np.ndim(T) else float(c[0])


def sublevel_capacity(model, phi, ts):
    """Cap({phi < -t}) per threshold t, phi monotone."""
    return capacity(model, sublevel_abscissae(phi, ts))


def sublevel_masses(measure, phi, thresholds):
    """Mass of {phi < -t} under a 1-D measure, vectorized in t."""
    if not isinstance(phi, RelativeProfile) or measure.kind != "OneD":
        raise InvalidInput("sublevel_masses needs a 1-D measure and a RelativeProfile")
    off = _monotone_offset(phi)
    cum = np.cumsum(measure.density)
    cum += measure.atom_mass(ma.FIXED_POINT)
    idx = np.searchsorted(off, -np.asarray(thresholds, float), side="left") - 1
    return np.where(idx >= 0, cum[np.clip(idx, 0, None)],
                    measure.atom_mass(ma.FIXED_POINT))


def capacity_curve(model, phi, thresholds):
    """Sublevel capacity curve with decay fit and explicit bound constants.

    Parameters
    ----------
    model : KahlerModel (radial)
    phi : RelativeProfile
        Monotone offset with sup in [-1, 0].
    thresholds : array_like
        Levels t >= 1.

    Returns
    -------
    CapacityCurve
        The fitted exponent is a log-log least-squares slope over the
        top octave of thresholds, excluding the largest 10% (tail grid
        contamination); bound_constants carries the explicit
        sublevel-decay constant C_phi and, for bounded phi, the
        capacity-energy sandwich values at p = 1.
    """
    require(model, RADIAL_P2, "capacity_curve")
    if not -1.0 - 1e-9 <= phi.sup_value <= 1e-9:
        raise PreconditionViolated("capacity curves need sup(phi) in [-1, 0]")
    ts = np.asarray(thresholds, dtype=float)
    if np.any(ts < 1.0):
        raise InvalidInput("thresholds must be >= 1")
    vals = sublevel_capacity(model, phi, ts)
    sel = (ts >= ts.max() / 2.0) & (ts <= (1.0 - FIT_EXCLUDE_TOP) * ts.max()) & (vals > 0)
    if sel.sum() >= 2:
        exponent = float(np.polyfit(np.log(ts[sel]), np.log(vals[sel]), 1)[0])
    else:
        exponent = float(np.nan)
    limit = _limit(model, phi)
    consts = {"C_phi": decay_constant(model, limit)}
    consts.update(capacity_energy_sandwich(model, phi, limit))
    return CapacityCurve(ts, vals, exponent, consts)


def _limit(model, phi):
    """limit(q, j): the (q, j) :func:`energy.ladder_limit` verdicts along
    the cutoff ladder of phi shifted down to sup <= 0, if needed."""
    phi = energy._nonpositive(model, phi)[0]
    return partial(energy.ladder_limit, model, energy.cutoffs(model, phi))


def decay_constant(model, limit):
    """Explicit constant of the quadratic sublevel-capacity decay.

    C_phi = int phi^2 omega^2 + 4 int(-phi) omega ^ omega_phi + 2,
    the constant produced by the comparison-principle proof of the
    decay Cap(phi < -t) <= C_phi / t^2, with the energies read from
    limit(q, j), phi's (q, j) :func:`energy.ladder_limit` verdicts along
    one :func:`energy.cutoffs` ladder.
    """
    require(model, RADIAL_P2, "decay_constant")
    return limit(2.0, 0).value + 4.0 * limit(1.0, 1).value + 2.0


def capacity_energy_sandwich(model, phi, limit=None):
    """Both sides of the capacity-energy sandwich at exponent p = 1.

    The middle quantity int (-phi)^3 dCap is evaluated from its
    defining improper integral 3 * int_1^inf t^2 Cap(phi<-t) dt by
    log-spaced trapezoid quadrature.  The lower bound uses the tail form
    of the energy, int_1^inf m(t) dt with m the sublevel mass under
    omega_phi^2, which is the quantity the comparison-principle
    derivation actually dominates; the upper bound uses the full
    combination 2^3 e_1 (energy.capacity_energy), read from limit(q, j):
    by default the verdicts along phi's own ladder (phi shifted down to
    sup <= 0, if needed), or those of a caller that already holds them.
    """
    require(model, RADIAL_P2, "capacity_energy_sandwich")
    limit = limit or _limit(model, phi)
    depth = float(-phi.offset.min())
    # past the grid depth the discrete sublevels degenerate to the fixed
    # point and the mass/capacity pair is no longer faithful; stop there
    hi = max(4.0, min(depth * 0.99, 1e16))
    t = np.geomspace(1.0, hi, SANDWICH_NODES)
    caps = sublevel_capacity(model, phi, t)
    m2 = ma.ma_measure(model, phi)
    masses = sublevel_masses(m2, phi, t)
    mid = 3.0 * np.trapezoid(t ** 2 * caps, t)
    lower = np.trapezoid(masses, t)
    return {
        "sandwich_lower": float(lower) * 3.0,
        "sandwich_mid": float(mid),
        "sandwich_upper": 8.0 * energy.capacity_energy(limit, 1.0),
    }
