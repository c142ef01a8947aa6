"""Energy functionals, membership verdicts, and Sobolev distances.

Improper integrals are never guessed from raw grid sums.  Membership of
an unbounded potential in an energy class is decided from the canonical
cutoffs max(phi, -k): the energies along k = 2^j form a series whose
increments are asymptotically geometric for the singularity families of
interest, so the doubling ratio rho of the last increments separates
convergence (rho < 1) from divergence, and for convergent cases the
geometric tail rho/(1-rho) turns the last partial sum into a limit
estimate.  :func:`cutoffs` builds a potential's ladder once and
:func:`ladder_limit` reads any (p, j) energy off it; :func:`ladder_verdict`
is the one classifier of such ladders, which every ladder in the package
(other cutoff subsequences, factor measures) goes through.  The gradient
energy is handled the same way with per-octave contributions in t,
sharing the ratio and tail step.

Default exponent sweep: p in {1, 1.5, 2, 3}.
"""

from dataclasses import dataclass
from functools import cache, partial
from math import comb

import numpy as np

from . import ma
from .errors import InvalidInput
from .models import RADIAL_P2, backend, entry, factors, potential, require
from .profiles import truncate

P_SWEEP = (1.0, 1.5, 2.0, 3.0)

# doubling-ratio verdict bands; the gradient band is tighter because its
# per-octave ratios approach 1 polynomially slowly near the critical
# exponent
RHO_INF_EP = 0.98
RHO_INF_GRAD = 0.999
GRADIENT_CORE = 40.0  # |t| past which the gradient energy is summed by octave
MAX_DOUBLINGS = 54  # most cutoffs per ladder; 2^53 is past any depth on the default grid


@dataclass(frozen=True)
class DivergenceVerdict:
    finite: bool
    value: float
    rho: float
    trace: tuple = ()


@dataclass(frozen=True)
class EnergyReport:
    """Energies of one potential at one exponent.

    E_p_mixed[j] is the integral of (-phi)^p against the wedge with j
    copies of omega_phi, so E_p_mixed[2] == E_p_full.  e_p is the
    capacity-facing combination E_p_full + 2*I_{p+1}(omega^omega_phi)
    + I_{p+2}(omega^2).
    """

    p: float
    E_p_full: float
    E_p_mixed: tuple
    gradient_energy: float
    e_p: float
    sobolev_norm: float
    memberships: dict
    sup_shift: float
    truncation_trace: tuple


def _measure_for(model, phi, j):
    if j == 0:
        return ma.ma_measure(model, None)
    if j == 1:
        return ma.mixed_measure(model, phi, None)
    if j == 2:
        return ma.ma_measure(model, phi)
    raise InvalidInput("wedge index j must be 0, 1 or 2")


def _moment(m, f, k):
    """M_k(m, f) = integral of max(-f, 0)^k against the 1-D measure m, its
    atoms weighted by the limits of f: inf**k is inf, inf**0 is 1.  A power
    past the float range is an InvalidInput naming the exponent k."""
    ll, lr = f.limit_values()
    try:
        with np.errstate(over="raise"):
            w = np.power(np.maximum(-f.offset, 0.0), k)
        return ma.weighted_mass(m, w, abs(ll) ** k, abs(lr) ** k)
    except (FloatingPointError, OverflowError):
        raise InvalidInput(f"the moment (-phi)^p overflows at exponent p = {k!r}") from None


def _radial_ep(model, phi, p, j):
    return _moment(_measure_for(model, phi, j), phi, p)


def _product_ep(model, phi, p, j):
    """Fubini over the tensor terms c * m1 (x) m2 of the measure: for an
    integer p and u + v <= 0, c * sum_k C(p, k) M_k(m1, u) M_{p-k}(m2, v)."""
    u, v = phi
    top = u.offset.max()
    if not (p >= 1 and float(p).is_integer()) or top + v.offset.max() > 0:
        raise InvalidInput("product-model E_p needs an integer p >= 1 and u + v <= 0")
    if top:  # move the constant to v: both factors <= 0, so no weight clips
        u, v = u.shifted(-top), v.shifted(top)
    n = int(p)
    total = 0.0
    for c, m1, m2 in _measure_for(model, phi, j).factors:
        mu = [_moment(m1, u, k) for k in range(n + 1)]
        mv = [_moment(m2, v, n - k) for k in range(n + 1)]
        if np.isinf(mu + mv).any():  # an atom at an infinite limit; before inf * 0
            return float(np.inf)
        total += c * sum(comb(n, k) * a * b for k, (a, b) in enumerate(zip(mu, mv)))
    return total


def ep_integral(model, phi, p, j=2):
    """Raw integral of (-phi)^p against omega^{2-j} ^ omega_phi^j.

    Returns inf when an atom carries an infinite weight limit; use
    :func:`ep_limit` for the truncation-based limit instead.
    """
    return entry(model, "ep", "ep_integral")(model, potential(model, phi), p, j)


def cutoff_ladder(depth, start=1.0):
    """Cutoffs k = start * 2^i, up to the first one at or past depth, at
    most MAX_DOUBLINGS of them."""
    ks = []
    k = start
    for _ in range(MAX_DOUBLINGS):
        ks.append(k)
        if k >= depth:
            break
        k *= 2.0
    return ks


def _ratio_and_tail(tail):
    """Mean ratio rho of consecutive terms of a positive tail, and the
    geometric remainder tail[-1] * rho/(1-rho) (0 unless 0 < rho < 1)."""
    rho = float(np.exp(np.mean(np.log(tail[1:] / tail[:-1]))))
    rest = float(tail[-1]) * rho / (1.0 - rho) if 0.0 < rho < 1.0 else 0.0
    return rho, rest


def ladder_verdict(ks, es, depth):
    """Divergence verdict of energies es along the cutoffs ks.

    depth is the potential's grid depth: a last cutoff past it is a
    partial doubling.  Returns a DivergenceVerdict with the limit
    estimate (inf when divergent), the doubling ratio and the (k, e)
    trace.
    """
    trace = tuple(zip(ks, es))
    # the last entry may be the raw untruncated integral, which can be
    # inf purely from a sub-resolution tail atom; the truncated series
    # is what decides
    raw = np.array(es)
    es = raw[np.isfinite(raw)]
    if len(es) < 4 or abs(es[-1] - es[-4]) <= 1e-12 * max(1.0, abs(es[-1])):
        # cutoffs stabilized: the potential is (effectively) bounded
        return DivergenceVerdict(True, float(es[-1]), 0.0, trace)
    if ks[-1] >= depth and len(ks) <= 12 and np.isfinite(raw[-1]):
        # the full depth was reached within a handful of doublings: the
        # potential is bounded at a resolved scale, the last entry is its
        # exact energy, and the bulk increments carry no asymptotics
        return DivergenceVerdict(True, float(es[-1]), 0.0, trace)
    # the final ladder step is cut short at the grid depth; its partial
    # increment would dilute the doubling ratio, so the ratio uses full
    # doublings only
    ratio_es = es[:-1] if len(ks) >= 2 and ks[-1] > depth else es
    inc = np.diff(ratio_es)
    pos = inc[inc > 0]
    tail = pos[-3:]
    rho, rest = _ratio_and_tail(tail) if len(tail) >= 2 else (0.0, 0.0)
    if rho >= RHO_INF_EP:
        return DivergenceVerdict(False, float(np.inf), rho, trace)
    return DivergenceVerdict(True, float(es[-1]) + rest, rho, trace)


def cutoffs(model, phi, start=1.0):
    """phi's cutoff ladder (ks, cuts, depth): the cutoffs ks from
    :func:`cutoff_ladder`, the cut potentials max(phi, -k) built factor by
    factor (a factor no deeper than k is its own cut), and phi's depth."""
    fs = factors(model, phi, "ep_limit")
    depths = [-f.offset.min() for f in fs]
    depth = max(depths)
    ks = cutoff_ladder(depth, start)
    cuts = [backend(model).join(tuple(truncate(f, k) if d > k else f
                                      for f, d in zip(fs, depths))) for k in ks]
    return ks, cuts, depth


def ladder_limit(model, ladder, p, j=2):
    """Verdict of the energies of order (p, j) along a :func:`cutoffs` ladder."""
    ks, cuts, depth = ladder
    return ladder_verdict(ks, [ep_integral(model, c, p, j) for c in cuts], depth)


def ep_limit(model, phi, p, j=2):
    """Limit of the (p, j) energy along phi's canonical cutoffs, as a
    DivergenceVerdict: finite flag, limit estimate (inf when divergent),
    doubling ratio and (k, energy) trace."""
    return ladder_limit(model, cutoffs(model, phi), p, j)


def _product_gradient(model, phi):
    """The product gradient energy: the raw grid sum, finite by construction."""
    g = ma.gradient_current_mass(model, phi)
    return DivergenceVerdict(np.isfinite(g), g, 0.0)


def gradient_energy_verdict(model, phi):
    """Gradient energy with an octave-ratio divergence verdict (radial model)."""
    require(model, RADIAL_P2, "gradient_energy_verdict")
    g = potential(model, phi).base.grid
    contrib = ma.gradient_density(g, phi.offset, model.reference_potential.values,
                                  model.slope_cap)
    mid = 0.5 * (g[:-1] + g[1:])
    raw = float(contrib.sum())
    value = raw
    worst_rho = 0.0
    for side in (mid > GRADIENT_CORE, mid < -GRADIENT_CORE):
        x = np.abs(mid[side])
        b = np.floor(np.log2(x / GRADIENT_CORE)).astype(int)
        sums = np.bincount(b, weights=contrib[side])
        # cancellation noise in the far tail scales like ULP^2/h and can
        # grow with t; only octave sums above the noise floor are signal
        sums = sums[sums > 1e-10 * max(1.0, raw)]
        if len(sums) < 3:
            continue
        rho, rest = _ratio_and_tail(sums[-4:])
        worst_rho = max(worst_rho, rho)
        if rho >= RHO_INF_GRAD:
            return DivergenceVerdict(False, float(np.inf), rho)
        value += rest
    return DivergenceVerdict(True, value, worst_rho)


def sobolev_distance(model, phi, psi):
    """W^{1,2}-type distance of two potentials against the reference form."""
    total = 0.0
    for a, b in zip(factors(model, phi, "sobolev_distance"),
                    factors(model, psi, "sobolev_distance")):
        total += np.sum(ma.gradient_density(
            a.base.grid, a.offset - b.offset, a.base.values, model.slope_cap))
    return float(np.sqrt(total))


def _nonpositive(model, phi):
    """Shift phi down to sup 0 if needed; returns (phi, shift)."""
    fs = factors(model, phi, "energy_report")
    s = sum(f.sup_value for f in fs)
    if s > 0:
        return backend(model).join((fs[0].shifted(-s),) + fs[1:]), s
    return phi, 0.0


def capacity_energy(limit, p):
    """The capacity-facing combination e_p = E_p + 2 I_{p+1}(omega ^
    omega_phi) + I_{p+2}(omega^2) of a potential <= 0, from limit(q, j),
    its (q, j) :func:`ladder_limit` along one :func:`cutoffs` ladder."""
    return limit(p, 2).value + 2.0 * limit(p + 1.0, 1).value + limit(p + 2.0, 0).value


def check_exponent(p):
    """Raise InvalidInput unless the energy exponent p is a finite number >= 1."""
    try:
        ok = 1.0 <= float(p) < np.inf  # nan fails too
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise InvalidInput("exponent p must be a finite number >= 1")


def energy_report(model, phi, ps):
    """Full energy bookkeeping for one potential at each exponent of ps.

    One sup shift, one cutoff ladder and one gradient verdict serve every
    exponent, and each (p, j) limit along the ladder is computed once.

    Parameters
    ----------
    model : KahlerModel
    phi : RelativeProfile or factor pair
    ps : iterable of float
        Finite real exponents >= 1.

    Returns
    -------
    dict
        {p: EnergyReport} for each distinct p of ps, in order.
    """
    ps = dict.fromkeys(ps)
    for p in ps:
        check_exponent(p)
    phi, shift = _nonpositive(model, phi)
    limit = cache(partial(ladder_limit, model, cutoffs(model, phi)))
    grad = backend(model).gradient_energy(model, phi)
    sob = float(np.sqrt(grad.value)) if grad.finite else float(np.inf)
    in_e1 = limit(1.0, 2).finite

    def report(p):
        mixed = [limit(p, j) for j in range(3)]
        full = mixed[2]
        return EnergyReport(
            p=p,
            E_p_full=full.value,
            E_p_mixed=tuple(v.value for v in mixed),
            gradient_energy=grad.value,
            e_p=capacity_energy(limit, p),
            sobolev_norm=sob,
            memberships={"in_E": grad.finite, "in_E1": in_e1, "in_Ep": full.finite},
            sup_shift=shift,
            truncation_trace=full.trace,
        )

    return {p: report(p) for p in ps}


def energy_concavity_data(model, phi, psi, p=1.0):
    """Cross energies over all mixed measures plus proof-constant margins.

    For u in {phi, psi} the integral of (-u)^p is taken against each of
    omega_phi^2, omega_phi ^ omega_psi, omega_psi^2.  M is the larger of
    the two self-energies; the reported margins are the slack in the
    bound 6*M (p = 1) or (p+1)^{p/(p-1)} * M (p > 1) for the mixed
    cross terms.
    """
    require(model, RADIAL_P2, "energy_concavity_data")
    phi, _ = _nonpositive(model, phi)
    psi, _ = _nonpositive(model, psi)
    measures = {
        "phi2": ma.ma_measure(model, phi),
        "mix": ma.mixed_measure(model, phi, psi),
        "psi2": ma.ma_measure(model, psi),
    }
    out = {f"{uname}_{mname}": _moment(m, u, p)
           for uname, u in (("phi", phi), ("psi", psi)) for mname, m in measures.items()}
    M = max(out["phi_phi2"], out["psi_psi2"])
    bound = 6.0 * M if p == 1.0 else (p + 1.0) ** (p / (p - 1.0)) * M
    out["M"] = M
    out["bound"] = bound
    out["margin_phi"] = bound - out["phi_mix"]
    out["margin_psi"] = bound - out["psi_mix"]
    return out
