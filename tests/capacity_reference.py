"""Capacity oracles, kept as tests of ``ma_lab.capacity``.

``reference_exit_slope`` is the straightforward form of what
``capacity.exit_slope`` computes by a vectorized tangent search: for
each finite T it scans every grid node past T for the least chord ratio
(f(x) - f(T) + 1) / (x - T) of the reference potential f, one T at a
time.  Only the reference profile comes from the package.

``relative_extremal`` builds the extremal potential whose mass on
{t <= T} the capacity is, and ``scaling_competitor_bound`` a lower
bound on the capacity from a rescaled cutoff competitor.
"""

import numpy as np

from ma_lab import capacity, ma
from ma_lab.errors import InvalidInput
from ma_lab.models import RADIAL_P2, require
from ma_lab.profiles import RelativeProfile, truncate


def reference_exit_slope(model, T):
    """Least chord ratio over all nodes past T, capped, one T at a time."""
    base = model.reference_potential
    cap = model.slope_cap
    g = base.grid
    T = np.asarray(T, dtype=float)
    s = np.where(np.isneginf(T), 0.0, cap)  # cap for +inf and T past the grid
    idx = np.flatnonzero(np.isfinite(T) & (T < g[-1]))
    ts = T.flat[idx]
    for i, t, ft in zip(idx, ts, base(ts)):
        i0 = np.searchsorted(g, t, side="right")
        ratios = (base.values[i0:] - ft + 1.0) / (g[i0:] - t)
        s.flat[i] = min(cap, ratios.min())
    return s if s.ndim else float(s)


def relative_extremal(model, T):
    """Upper envelope of admissible potentials <= 0 on X and <= -1 on {t <= T}.

    T = -inf is the empty set and T = +inf the whole space.  The result
    equals -1 on the set, lies in [-1, 0], and is admissible: the
    reference dropped by 1 on the set, continued by its tangent of exit
    slope until it rejoins the reference.
    """
    require(model, RADIAL_P2, "relative_extremal")
    base = model.reference_potential
    g = base.grid
    if np.isposinf(T):
        return RelativeProfile(base, np.full_like(base.values, -1.0))
    if np.isneginf(T):
        return RelativeProfile(base, np.zeros_like(base.values))
    s = capacity.exit_slope(model, T)
    line = base(T) - 1.0 + s * (g - T)
    U = np.where(g <= T, base.values - 1.0, np.minimum(base.values, line))
    return RelativeProfile(base, U - base.values)


def scaling_competitor_bound(model, phi, t, s):
    """Lower capacity bound from the rescaled cutoff competitor.

    For s > t >= 1: s^{-2} * mass of omega_{max(phi,-s)}^2 on
    {phi < -t} never exceeds Cap(phi < -t).
    """
    require(model, RADIAL_P2, "scaling_competitor_bound")
    if not s > t:
        raise InvalidInput("need s > t")
    m = ma.ma_measure(model, truncate(phi, s))
    mass = float(capacity.sublevel_masses(m, phi, np.array([t]))[0])
    return mass / s ** 2
