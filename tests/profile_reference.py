"""The full Profile of a RelativeProfile, rebuilt and validated from scratch.

A RelativeProfile validates its full profile base + offset from one
slope pass and keeps no Profile; tests that want the full profile's
convexity and cap checks, or its tails and slopes, rebuild it here.
"""

from ma_lab.profiles import Profile


def full_profile(phi):
    """Profile.from_values of phi's full values on its base grid and cap."""
    return Profile.from_values(phi.base.grid, phi.full_values(), phi.base.slope_cap)
