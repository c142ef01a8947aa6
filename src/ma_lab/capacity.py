"""Capacity of invariant sublevel sets via relative extremal profiles.

On the radial model every invariant compact is a sublevel set
{t <= T}.  The relative extremal potential of such a set is explicit:
the reference potential dropped by 1 on the set, continued by its
tangent of smallest admissible slope until it rejoins the reference.
The capacity is the measure the extremal potential places on the set,
which is (s*/cap)^2 with s* the exit slope; this closed form is the
maximizer over all admissible competitors because any competitor's
slope at T is dominated by the tangent slope.
"""

from dataclasses import dataclass

import numpy as np

from . import energy, ma
from .errors import InvalidInput, PreconditionViolated
from .models import RADIAL_P2, require
from .profiles import RelativeProfile, truncate

FIT_EXCLUDE_TOP = 0.1  # drop the largest thresholds from the fit window


@dataclass(frozen=True)
class CapacityCurve:
    """Sampled sublevel capacities t -> Cap(phi < -t) with fit data."""

    thresholds: np.ndarray
    values: np.ndarray
    fitted_exponent: float
    bound_constants: dict


def sublevel_set(T):
    return {"kind": "sublevel_t", "T": float(T)}


def whole_space():
    return {"kind": "all"}


def phi_sublevel(phi, s):
    return {"kind": "sublevel_phi", "phi": phi, "s": float(s)}


def _monotone_offset(phi):
    off = phi.offset
    if np.any(np.diff(off) < -1e-12):
        raise PreconditionViolated("sublevel computations need a monotone offset")
    return off


def _crossing(phi, s):
    """Abscissa where the (monotone) offset crosses -s; None if empty."""
    off = _monotone_offset(phi)
    if off[0] >= -s:
        return None  # sublevel below the grid or empty
    if off[-1] < -s:
        return np.inf
    # interpolate the exact crossing on the increasing offset
    return float(np.interp(-s, off, phi.base.grid))


def _resolve_T(model, K):
    if K["kind"] == "all":
        return np.inf
    if K["kind"] == "sublevel_t":
        return K["T"]
    if K["kind"] == "sublevel_phi":
        T = _crossing(K["phi"], K["s"])
        if T is None:
            lo, _ = K["phi"].limit_values()
            # the set may still reach the fixed point at t -> -inf
            return -np.inf if np.isinf(lo) or K["phi"].offset[0] < -K["s"] else None
        return T
    raise InvalidInput(f"unknown set descriptor {K['kind']!r}")


def exit_slope(model, T):
    """Tangent slope of the extremal potential leaving {t <= T}."""
    require(model, RADIAL_P2, "exit_slope")
    base = model.reference_potential
    cap = model.slope_cap
    if np.isposinf(T):
        return cap
    if np.isneginf(T):
        return 0.0
    g = base.grid
    sel = g > T
    if not sel.any():
        return cap
    ratios = (base.values[sel] - base(T) + 1.0) / (g[sel] - T)
    return float(min(cap, ratios.min()))


def relative_extremal(model, K):
    """Upper envelope of admissible potentials <= 0 on X and <= -1 on K.

    Parameters
    ----------
    model : KahlerModel (radial)
    K : dict
        Set descriptor from :func:`sublevel_set`, :func:`whole_space`
        or :func:`phi_sublevel`.

    Returns
    -------
    RelativeProfile
        Equals -1 on K, lies in [-1, 0], and is admissible.
    """
    require(model, RADIAL_P2, "relative_extremal")
    T = _resolve_T(model, K)
    if T is None:
        raise InvalidInput("empty set")
    base = model.reference_potential
    g = base.grid
    if np.isposinf(T):
        return RelativeProfile(base, np.full_like(base.values, -1.0))
    if np.isneginf(T):
        return RelativeProfile(base, np.zeros_like(base.values))
    s = exit_slope(model, T)
    line = base(T) - 1.0 + s * (g - T)
    U = np.where(g <= T, base.values - 1.0, np.minimum(base.values, line))
    return RelativeProfile(base, U - base.values)


def capacity(model, K):
    """Capacity of an invariant set, from the extremal exit slope."""
    require(model, RADIAL_P2, "capacity")
    T = _resolve_T(model, K)
    if T is None or np.isneginf(T):
        return 0.0
    s = exit_slope(model, T)
    return (s / model.slope_cap) ** model.cdf_power


def sublevel_masses(measure, phi, thresholds):
    """Mass of {phi < -t} under a 1-D measure, vectorized in t."""
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
    vals = np.array([capacity(model, phi_sublevel(phi, t)) for t in ts])
    sel = (ts >= ts.max() / 2.0) & (ts <= (1.0 - FIT_EXCLUDE_TOP) * ts.max()) & (vals > 0)
    if sel.sum() >= 2:
        exponent = float(np.polyfit(np.log(ts[sel]), np.log(vals[sel]), 1)[0])
    else:
        exponent = float(np.nan)
    consts = {"C_phi": decay_constant(model, phi)}
    sandwich = capacity_energy_sandwich(model, phi, p=1.0)
    consts.update(sandwich)
    return CapacityCurve(ts, vals, exponent, consts)


def decay_constant(model, phi):
    """Explicit constant of the quadratic sublevel-capacity decay.

    C_phi = int phi^2 omega^2 + 4 int(-phi) omega ^ omega_phi + 2,
    the constant produced by the comparison-principle proof of the
    decay Cap(phi < -t) <= C_phi / t^2.
    """
    sq = energy.ep_limit(model, phi, 2.0, 0).value
    lin = energy.ep_limit(model, phi, 1.0, 1).value
    return sq + 4.0 * lin + 2.0


def capacity_energy_sandwich(model, phi, p=1.0, n_quad=600):
    """Both sides of the capacity-energy sandwich at exponent p.

    The middle quantity int (-phi)^{p+2} dCap is evaluated from its
    defining improper integral (p+2) * int_1^inf t^{p+1} Cap(phi<-t) dt
    by log-spaced trapezoid quadrature.  The lower bound uses the tail
    form of the energy, p * int_1^inf t^{p-1} m(t) dt with m the
    sublevel mass under omega_phi^2, which is the quantity the
    comparison-principle derivation actually dominates; the upper bound
    uses the full combination 2^{p+2} e_p.
    """
    require(model, RADIAL_P2, "capacity_energy_sandwich")
    off = _monotone_offset(phi)
    depth = float(-off.min())
    # past the grid depth the discrete sublevels degenerate to the fixed
    # point and the mass/capacity pair is no longer faithful; stop there
    hi = max(4.0, min(depth * 0.99, 1e16))
    t = np.geomspace(1.0, hi, n_quad)
    caps = np.array([capacity(model, phi_sublevel(phi, s)) for s in t])
    m2 = ma.ma_measure(model, phi)
    masses = sublevel_masses(m2, phi, t)
    mid = (p + 2.0) * np.trapezoid(t ** (p + 1) * caps, t)
    lower = p * np.trapezoid(t ** (p - 1) * masses, t)
    rep = energy.energy_report(model, phi, p)
    return {
        "sandwich_lower": float(lower) * (p + 2.0) / p,
        "sandwich_mid": float(mid),
        "sandwich_upper": 2.0 ** (p + 2) * rep.e_p,
    }


def scaling_competitor_bound(model, phi, t, s):
    """Lower capacity bound from the rescaled cutoff competitor.

    For s > t >= 1: s^{-2} * mass of omega_{max(phi,-s)}^2 on
    {phi < -t} never exceeds Cap(phi < -t).
    """
    if not s > t:
        raise InvalidInput("need s > t")
    cut = truncate(phi, s)
    m = ma.ma_measure(model, cut)
    mass = float(sublevel_masses(m, phi, np.array([t]))[0])
    return mass / s ** 2
