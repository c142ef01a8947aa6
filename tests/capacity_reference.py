"""Reference implementation of the radial exit slope, kept as a test oracle.

This is the straightforward form of what ``capacity.exit_slope``
computes by a vectorized tangent search: for each finite T it scans
every grid node past T for the least chord ratio
(f(x) - f(T) + 1) / (x - T) of the reference potential f, one T at a
time.  Only the reference profile comes from the package.
"""

import numpy as np


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
