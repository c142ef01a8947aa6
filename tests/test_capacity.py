"""Capacity: extremal profiles, decay, and competitor domination."""

from functools import partial

import numpy as np
import pytest

import ma_lab.capacity as cap_mod
from capacity_reference import (reference_exit_slope, relative_extremal,
                                scaling_competitor_bound)
from ma_lab import cli, energy, ma, verify
from ma_lab.errors import InvalidInput, PreconditionViolated
from ma_lab.profiles import RelativeProfile, truncate, zero_offset
from profile_reference import full_profile


def test_entire_space_capacity(radial):
    assert cap_mod.capacity(radial, np.inf) == 1.0
    u = relative_extremal(radial, np.inf)
    assert np.all(u.offset == -1.0)


def test_empty_set_capacity(radial):
    # a sublevel at t -> -inf carries no mass
    phi = zero_offset(radial.reference_potential).shifted(-0.5)
    assert cap_mod.capacity(radial, cap_mod.sublevel_abscissae(phi, 3.0)) == 0.0


def test_capacity_monotone_in_T(radial):
    Ts = np.linspace(-20.0, 20.0, 15)
    caps = cap_mod.capacity(radial, Ts)
    assert np.all(np.diff(caps) >= 0.0)
    assert 0.0 < caps[0] < 1.0
    assert caps[-1] <= 1.0


def test_extremal_profile_shape(radial):
    u = relative_extremal(radial, 0.0)
    g = u.base.grid
    on_set = g <= 0.0
    assert np.abs(u.offset[on_set] + 1.0).max() < 1e-12
    assert np.all(u.offset <= 1e-12) and np.all(u.offset >= -1.0 - 1e-12)
    full_profile(u)  # admissibility assertion


def test_extremal_mass_equals_capacity(radial):
    # the capacity is the extremal potential's own mass on the set; the
    # set boundary is snapped to a grid node so the restriction mask and
    # the slope jump agree
    grid = radial.reference_potential.grid
    for T0 in (-4.0, 0.0, 3.0, 10.0):
        T = float(grid[int(np.searchsorted(grid, T0))])
        u = relative_extremal(radial, T)
        m = ma.ma_measure(radial, u)
        g = u.base.grid
        got = ma.restricted_mass(m, g <= T, True, False)
        assert got == pytest.approx(cap_mod.capacity(radial, T), abs=1e-9)


def test_capacity_dominates_competitors(radial, corpus36):
    # any admissible u in [-1, 0] puts no more mass on the set than the
    # extremal profile does
    T = 2.0
    c = cap_mod.capacity(radial, T)
    g = radial.reference_potential.grid
    for e in corpus36.with_tag("bounded"):
        u = e.phi.normalized(0.0)
        u = RelativeProfile(u.base, np.maximum(u.offset, -1.0))
        mass = ma.restricted_mass(ma.ma_measure(radial, u), g <= T, True, False)
        assert mass <= c + 1e-9


def test_scaling_competitor_bound(radial):
    phi = RelativeProfile(radial.reference_potential,
                          radial.reference_potential.grid / 2
                          - radial.reference_potential.values - 1.0)
    for t, s in ((2.0, 8.0), (4.0, 64.0)):
        lo = scaling_competitor_bound(radial, phi, t, s)
        c = cap_mod.capacity(radial, cap_mod.sublevel_abscissae(phi, t))
        assert lo <= c + 1e-9
    with pytest.raises(InvalidInput):
        scaling_competitor_bound(radial, phi, 4.0, 2.0)


def test_capacity_curve_preconditions(radial):
    base = radial.reference_potential
    deep = RelativeProfile(base, base.grid / 2 - base.values - 1.0)
    with pytest.raises(PreconditionViolated):
        cap_mod.capacity_curve(radial, deep.shifted(-3.0), [2.0, 4.0])
    with pytest.raises(InvalidInput):
        cap_mod.capacity_curve(radial, deep, [0.5, 2.0])


def test_capacity_curve_builds_one_ladder(radial, monkeypatch):
    # the decay constant and the sandwich read their energies off one ladder
    calls = []
    real = energy.cutoffs

    def spy(model, phi, *args):
        calls.append(phi)
        return real(model, phi, *args)

    monkeypatch.setattr(energy, "cutoffs", spy)
    cap_mod.capacity_curve(radial, verify.point_seed(radial.reference_potential),
                           cli.CAPACITY_THRESHOLDS)
    assert len(calls) == 1


def test_decay_bound(radial):
    base = radial.reference_potential
    phi = RelativeProfile(base, base.grid / 2 - base.values - 1.0)
    C = cap_mod.decay_constant(radial, partial(energy.ladder_limit, radial,
                                               energy.cutoffs(radial, phi)))
    assert np.isfinite(C) and C > 2.0
    for t in (2.0, 8.0, 32.0):
        c = cap_mod.capacity(radial, cap_mod.sublevel_abscissae(phi, t))
        assert c <= C / t ** 2 + 1e-9


def test_sandwich_order(radial):
    base = radial.reference_potential
    phi = RelativeProfile(base, base.grid / 2 - base.values - 1.0)
    vals = cap_mod.capacity_energy_sandwich(
        radial, phi, partial(energy.ladder_limit, radial, energy.cutoffs(radial, phi)))
    assert vals["sandwich_lower"] <= vals["sandwich_mid"] * (1 + 1e-6) + 1e-9
    assert vals["sandwich_mid"] <= vals["sandwich_upper"] * (1 + 1e-6) + 1e-9


def test_sublevel_masses(radial):
    base = radial.reference_potential
    phi = truncate(RelativeProfile(base, base.grid / 2 - base.values - 1.0), 16.0)
    m = ma.ma_measure(radial, phi)
    ts = np.array([1.0, 4.0, 20.0])
    masses = cap_mod.sublevel_masses(m, phi, ts)
    assert np.all(np.diff(masses) <= 1e-12)
    assert masses[-1] == 0.0  # truncation empties the deep sublevels


def test_sublevel_abscissae_cover_empty_interior_and_full(radial):
    base = radial.reference_potential
    singular = base.grid / 2 - base.values - 1.0
    phi = RelativeProfile(base, np.maximum(singular, -3.0))  # offset in [-3, -1]
    T = cap_mod.sublevel_abscissae(phi, [0.5, 2.0, 3.0, 5.0])
    assert T[0] == np.inf  # phi < -0.5 everywhere on the grid
    assert np.interp(T[1], base.grid, phi.offset) == pytest.approx(-2.0, abs=1e-12)
    assert T[2] == -np.inf and T[3] == -np.inf  # phi >= -3 at the first node
    assert cap_mod.sublevel_abscissae(phi, 2.0) == T[1]


def test_array_capacities_match_scalar_calls_bitwise(radial):
    base = radial.reference_potential
    g = base.grid
    Ts = np.array([-np.inf, -20.0, -4.0, 0.0, 3.0, 10.0, g[-1], g[-1] + 5.0, np.inf])
    for fn in (cap_mod.exit_slope, cap_mod.capacity):
        vals = fn(radial, Ts)
        assert vals.shape == Ts.shape
        assert [fn(radial, T) for T in Ts] == vals.tolist()
        grid_vals = fn(radial, Ts.reshape(3, 3))
        assert np.array_equal(grid_vals.ravel(), vals)
    caps = cap_mod.capacity(radial, Ts)
    assert caps[0] == 0.0 and np.all(caps[-3:] == 1.0)
    assert np.all((0.0 < caps[1:3]) & (caps[1:3] < 1.0))
    # thresholds whose sublevels are empty, interior, or cover the grid
    phi = RelativeProfile(base, g / 2 - base.values - 1.0)
    ts = np.concatenate([[0.25, 1.0, 1e300], np.geomspace(1.0, 512.0, 41)])
    T = cap_mod.sublevel_abscissae(phi, ts)
    assert np.isneginf(T).any() and np.isfinite(T).any() and np.isposinf(T).any()
    caps = cap_mod.capacity(radial, T)
    assert [cap_mod.capacity(radial, cap_mod.sublevel_abscissae(phi, t))
            for t in ts] == caps.tolist()


def test_batched_capacities_match_per_member_calls_bitwise(radial, corpus36):
    base = radial.reference_potential
    phis = [e.phi for e in corpus36.profiles if cap_mod.is_monotone(e.phi)]
    # rows with empty, interior and covering sublevels, and a row of only
    # -inf and +inf abscissae
    point = RelativeProfile(base, base.grid / 2 - base.values - 1.0)
    flat = zero_offset(base).shifted(-0.5)
    phis += [point, flat]
    ts = np.concatenate([[0.25, 1.0, 1e300], np.geomspace(1.0, 512.0, 41)])
    T = cap_mod.sublevel_abscissae(point, ts)
    assert np.isneginf(T).any() and np.isfinite(T).any() and np.isposinf(T).any()
    assert not np.isfinite(cap_mod.sublevel_abscissae(flat, ts)).any()
    rows = cap_mod.sublevel_capacities(radial, phis, ts)
    assert rows.shape == (len(phis), ts.size) and len(phis) > 10
    for phi, row in zip(phis, rows):
        assert row.tobytes() == cap_mod.sublevel_capacity(radial, phi, ts).tobytes()
    assert cap_mod.sublevel_capacities(radial, [], ts).shape == (0, ts.size)
    assert cap_mod.sublevel_capacities(radial, [], []).shape == (0, 0)


def _reference_abscissa(phi, t):
    """The per-threshold crossing the array code replaced."""
    off = phi.offset
    if off[0] >= -t:
        return -np.inf
    if off[-1] < -t:
        return np.inf
    return float(np.interp(-t, off, phi.base.grid))


def test_array_capacities_match_threshold_loop_reference(radial):
    base = radial.reference_potential
    phi = RelativeProfile(base, base.grid / 2 - base.values - 1.0)
    ts = np.concatenate([[0.25, 1.0, 1e300], np.geomspace(1.0, 1e6, 600)])
    T = cap_mod.sublevel_abscissae(phi, ts)
    assert T.tolist() == [_reference_abscissa(phi, t) for t in ts]
    T = np.concatenate([T, [base.grid[-1] + 5.0]])
    s = cap_mod.exit_slope(radial, T)
    ref = [reference_exit_slope(radial, x) for x in T]
    assert s.tolist() == ref
    # capacities square the same slopes; libm's pow and numpy's square may
    # round the square differently, by at most one unit in the last place
    want = [(x / radial.slope_cap) ** radial.cdf_power for x in ref]
    np.testing.assert_array_max_ulp(cap_mod.capacity(radial, T), np.array(want), maxulp=1)


def test_exit_slope_matches_the_node_scan_on_every_threshold_sent(radial, tmp_path,
                                                                   monkeypatch):
    # every threshold array that the capacity command (curve and sandwich)
    # and verify --size 60 send to exit_slope, against the one-T-at-a-time
    # scan of all nodes past T
    sent = []
    exit_slope = cap_mod.exit_slope

    def spy(model, T):
        sent.append(np.array(T, dtype=float))
        return exit_slope(model, T)

    monkeypatch.setattr(cap_mod, "exit_slope", spy)
    for argv in (["capacity"], ["verify", "--size", "60", "--seed", "0"]):
        cli.main(argv + ["--out", str(tmp_path / argv[0])])
    monkeypatch.undo()
    T = np.concatenate([t.ravel() for t in sent])
    assert np.isfinite(T).sum() > 10_000 and np.isneginf(T).any()
    got, ref = cap_mod.exit_slope(radial, T), reference_exit_slope(radial, T)
    # the search is a least ratio over a subset of the scanned nodes, so it
    # never reads lower; far left of the core the ratios are flat to
    # rounding near the tangent and it may read a few ulps higher
    assert np.all(got >= ref)
    assert np.all(got - ref <= 1e-13 * ref)
    core = T > -1e12
    assert np.array_equal(got[core], ref[core])


def test_exit_slope_edge_cases(radial):
    g = radial.reference_potential.grid
    cap = radial.slope_cap
    assert cap_mod.exit_slope(radial, -np.inf) == 0.0
    assert cap_mod.exit_slope(radial, np.inf) == cap
    for T in (g[-1], g[-1] + 1.0, 1e300):  # no node past T
        assert cap_mod.exit_slope(radial, T) == cap
    for T in (-1e300, g[0] - 1.0, g[0], -3.0, 0.0, 2.5, g[-2]):
        s = cap_mod.exit_slope(radial, T)
        assert type(s) is float
        assert cap_mod.exit_slope(radial, np.array(T)) == s  # a 0-d array
        ref = reference_exit_slope(radial, T)
        assert ref <= s <= ref * (1 + 1e-13) if T < -1e12 else s == ref
    assert cap_mod.exit_slope(radial, np.array([])).shape == (0,)


def test_non_monotone_offset_is_a_precondition_violation(radial):
    base = radial.reference_potential
    shifted = RelativeProfile(base, base(base.grid - 5.0) - base.values)  # decreasing
    assert not cap_mod.is_monotone(shifted)
    with pytest.raises(PreconditionViolated):
        cap_mod.sublevel_abscissae(shifted, [1.0, 2.0])
    with pytest.raises(PreconditionViolated):
        cap_mod.capacity_energy_sandwich(
            radial, shifted, partial(energy.ladder_limit, radial, energy.cutoffs(radial, shifted)))
    m = ma.ma_measure(radial, None)
    with pytest.raises(PreconditionViolated):
        cap_mod.sublevel_masses(m, shifted, [1.0])
