"""The full Profile of a RelativeProfile, rebuilt and validated from scratch.

A RelativeProfile validates its full profile base + offset from one
slope pass and keeps no Profile; tests that want the full profile's
convexity and cap checks, or its tails and slopes, rebuild it here.
"""

import numpy as np

from ma_lab.profiles import Profile


def from_values(grid, values, slope_cap=0.5):
    """The Profile of values on grid, with its boundary cell slopes as tails."""
    grid, values = np.asarray(grid, float), np.asarray(values, float)
    s = np.diff(values) / np.diff(grid)
    return Profile(grid, values, float(s[0]), float(s[-1]), slope_cap)


def extended_slopes(p):
    """The cell slopes of the Profile p, bracketed by its tail slopes."""
    s = np.diff(p.values) / p.widths
    return np.concatenate([[p.slope_minus_inf], s, [p.slope_plus_inf]])


def full_profile(phi):
    """from_values of phi's full values on its base grid and cap."""
    return from_values(phi.base.grid, phi.full_values(), phi.base.slope_cap)
