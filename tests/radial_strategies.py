"""Hypothesis strategies shared by the radial-model property tests."""

import numpy as np
from hypothesis import strategies as st

from ma_lab import models
from ma_lab.profiles import RelativeProfile


@st.composite
def radial_profiles(draw):
    """A random admissible radial potential: an additive constant plus
    hinges max(t - x, 0) at up to four knots, slopes rising in [0, 1/2]."""
    m = draw(st.integers(0, 4))
    knots = draw(st.lists(st.floats(-30.0, 30.0), min_size=m, max_size=m))
    slopes = sorted(draw(st.lists(st.floats(0.0, 0.5), min_size=m + 1, max_size=m + 1)))
    c = draw(st.floats(-5.0, 0.0))
    base = models.radial_p2().reference_potential
    g = base.grid
    full = c + slopes[0] * g
    for x, a, b in zip(sorted(knots), slopes, slopes[1:]):
        full = full + (b - a) * np.maximum(g - x, 0.0)
    return RelativeProfile(base, full - base.values)
