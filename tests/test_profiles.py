"""Profile kernel tests: construction checks, the operations on relative
potentials, and the kept tails checked against a full Profile rebuilt
from scratch (profile_reference)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma_lab import profiles
from ma_lab.errors import InvalidInput, MaLabError, NotOmegaPsh, PreconditionViolated
from ma_lab.profiles import (Profile, RelativeProfile, compose_weight, default_grid,
                             max_offsets, scale, truncate, zero_offset)
from profile_reference import extended_slopes, from_values, full_profile


def test_profile_rejects_nonconvex():
    g = np.array([0.0, 1.0, 2.0])
    with pytest.raises(NotOmegaPsh):
        Profile(g, np.array([0.0, 1.0, 1.5]), 0.0, 0.5, 1.0)


def test_profile_rejects_bad_grid():
    with pytest.raises(InvalidInput):
        Profile(np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.0, 0.0, 0.5)
    with pytest.raises(InvalidInput):
        Profile(np.array([0.0, 1.0]), np.array([0.0, np.nan]), 0.0, 0.0, 0.5)


def test_profile_rejects_slope_above_cap():
    g = np.array([0.0, 1.0])
    with pytest.raises(NotOmegaPsh):
        Profile(g, np.array([0.0, 0.9]), 0.0, 0.9, 0.5)


def test_relative_profile_normalized(radial):
    phi = zero_offset(radial.reference_potential).shifted(3.0)
    assert phi.normalized(-1.0).sup_value == pytest.approx(-1.0)


def test_relative_profile_rejects_escaping_tails(radial):
    base = radial.reference_potential
    with pytest.raises(NotOmegaPsh):
        # offset increasing at the right end beyond the slope budget
        RelativeProfile(base, 0.1 * base.grid)


def test_relative_profile_rejects_interior_nonconvexity(radial):
    # the tails are the base's, but a tent offset bends the full profile
    # concave at t = +-1: construction alone must reject it
    base = radial.reference_potential
    with pytest.raises(NotOmegaPsh):
        RelativeProfile(base, -np.maximum(0.0, 1.0 - np.abs(base.grid)))


def test_compose_weight_requires_deep_sup(radial):
    phi = zero_offset(radial.reference_potential)
    with pytest.raises(PreconditionViolated):
        compose_weight(phi, ("power", 0.5))


def test_compose_weight_rejects_bad_weight(radial):
    phi = zero_offset(radial.reference_potential).shifted(-2.0)
    with pytest.raises(InvalidInput):
        compose_weight(phi, ("power", 1.5))
    with pytest.raises(InvalidInput):
        compose_weight(phi, ("exp",))


def test_compose_weight_power_values(radial):
    base = radial.reference_potential
    phi = RelativeProfile(base, -base.values - 1.0)
    out = compose_weight(phi, ("power", 0.5))
    assert np.allclose(out.offset, -np.sqrt(-phi.offset))


def test_truncate_and_scale(radial):
    base = radial.reference_potential
    phi = RelativeProfile(base, -base.values - 1.0)
    cut = truncate(phi, 4.0)
    assert cut.offset.min() == -4.0
    assert np.all(cut.offset >= phi.offset)
    half = scale(phi, 0.5)
    assert np.allclose(half.offset, 0.5 * phi.offset)
    with pytest.raises(InvalidInput):
        scale(phi, 1.5)
    with pytest.raises(InvalidInput):
        truncate(phi, 0.0)


def test_max_offsets(radial):
    base = radial.reference_potential
    p = zero_offset(base).shifted(-2.0)
    q = RelativeProfile(base, -base.values - 1.0)
    top = max_offsets(p, q)
    assert np.array_equal(top.offset, np.maximum(p.offset, q.offset))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 0.5), min_size=3, max_size=12))
def test_sorted_slopes_always_admissible(slopes):
    # any nondecreasing slope sequence in [0, cap] integrates to an
    # admissible profile
    s = np.sort(np.asarray(slopes))
    g = np.arange(s.size + 1, dtype=float)
    v = np.concatenate([[0.0], np.cumsum(s)])
    p = Profile(g, v, float(s[0]), float(s[-1]), 0.5)
    assert np.all(np.diff(extended_slopes(p)) >= -1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.0, 30.0))
def test_power_truncate_commute(alpha, k):
    # truncating after composing never lies below composing the truncation
    base = profiles.Profile(np.linspace(-30, 30, 301),
                            np.maximum(np.linspace(-30, 30, 301), 0.0) * 0.5,
                            0.0, 0.5, 0.5)
    phi = RelativeProfile(base, -base.values - 1.0)
    out = compose_weight(phi, ("power", alpha))
    cut = truncate(out, max(k, 1.0))
    assert np.all(cut.offset >= out.offset - 1e-12)


def test_default_grid_symmetric():
    g = default_grid()
    assert np.allclose(g, -g[::-1])
    assert np.all(np.diff(g) > 0)
    assert g[-1] > 1e15


def test_relative_profile_owns_a_frozen_offset(radial):
    base = radial.reference_potential
    off = np.full(base.grid.size, -1.0)
    phi = RelativeProfile(base, off)
    off[:] = -3.0
    assert phi.offset[0] == -1.0 and phi.sup_value == -1.0
    with pytest.raises(ValueError):
        phi.offset[0] = 0.0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.5, 1.0]),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12),
       st.floats(-5.0, 0.0))
def test_kept_tails_and_slope_map_match_the_full_profile(cap, slopes, shift):
    # a random admissible profile relative to a smooth base: the tail
    # floats kept at construction and the measure's slope map are bitwise
    # what a rebuilt full Profile gives
    from ma_lab import ma

    s = cap * np.sort(np.asarray(slopes))
    g = np.cumsum(np.linspace(0.5, 1.5, s.size + 1)) - 5.0
    full = shift + np.concatenate([[0.0], np.cumsum(s * np.diff(g))])
    base = Profile(g, cap * np.logaddexp(0.0, g), 0.0, cap, cap)
    phi = RelativeProfile(base, full - base.values)
    f = full_profile(phi)
    assert phi._full_tails == (f.slope_minus_inf, f.slope_plus_inf)
    assert phi.offset_tail_slopes() == (f.slope_minus_inf - base.slope_minus_inf,
                                        f.slope_plus_inf - base.slope_plus_inf)
    assert np.array_equal(ma._normalized_ext_slopes(phi, cap),
                          np.clip(extended_slopes(f) / cap, 0.0, 1.0))


def _validated_as_before(base, off):
    """RelativeProfile's checks as they ran through a full Profile: the
    offset checks, from_values of base + offset, and the offset
    tail check.  Returns the offset tail slopes."""
    off = np.array(off, dtype=float)
    if not np.all(np.isfinite(off)):
        raise InvalidInput("non-finite offset")
    full = from_values(base.grid, base.values + off, base.slope_cap)
    lo = full.slope_minus_inf - base.slope_minus_inf
    hi = full.slope_plus_inf - base.slope_plus_inf
    if lo < -profiles.TOL_CONVEX or hi > profiles.TOL_CONVEX:
        raise NotOmegaPsh("offset tail slopes escape the admissible cone")
    return lo, hi


def _outcome(fn):
    """fn()'s value, or the class and message of the package error it raises."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except MaLabError as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["admissible", "nonconvex", "overcap", "nonfinite", "overflow",
                        "escaping"]),
       st.sampled_from([0.5, 1.0]),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12),
       st.floats(-5.0, 0.0), st.integers(0, 12),
       st.sampled_from([np.nan, np.inf, -np.inf, np.finfo(float).max]))
def test_relative_profile_validation_matches_the_full_profile_check(
        kind, cap, slopes, shift, at, bad):
    # random offsets of each kind raise the same error class and message
    # as the full-Profile check, or give the same offset tail slopes
    s = cap * np.asarray(slopes)
    if kind != "nonconvex":
        s = np.sort(s)
    if kind == "overcap":
        s = 1.5 * s  # the top slopes may pass the cap
    g = np.cumsum(np.linspace(0.5, 1.5, s.size + 1)) - 5.0
    full = shift + np.concatenate([[0.0], np.cumsum(s * np.diff(g))])
    if kind == "escaping":  # tails inside (0, cap): full tails may leave them
        base = Profile(g, cap * (0.25 * g + 0.5 * np.logaddexp(0.0, g)),
                       0.25 * cap, 0.75 * cap, cap)
    elif kind == "overflow":  # base + offset overflows to inf
        base = Profile(g, np.full(g.size, 1e300), 0.0, 0.0, cap)
    else:
        base = Profile(g, cap * np.logaddexp(0.0, g), 0.0, cap, cap)
    off = full - base.values
    if kind in ("nonfinite", "overflow"):
        off[at % off.size] = bad
    lean = _outcome(lambda: RelativeProfile(base, off).offset_tail_slopes())
    # repr tells apart every two floats (-0.0 and 0.0 too): bit for bit
    assert repr(lean) == repr(_outcome(lambda: _validated_as_before(base, off)))
