"""Energy functionals, membership verdicts, and Sobolev distances.

Improper integrals are never guessed from raw grid sums.  Membership of
an unbounded potential in an energy class is decided from the canonical
cutoffs max(phi, -k): the energies along k = 2^j form a series whose
increments are asymptotically geometric for the singularity families of
interest, so the doubling ratio rho of the last increments separates
convergence (rho < 1) from divergence, and for convergent cases the
geometric tail rho/(1-rho) turns the last partial sum into a limit
estimate.  :func:`cutoffs` builds a potential's :class:`Ladder` once and
:func:`ladder_limit` reads any (p, j) energy off it; :func:`ladder_verdict`
is the one classifier of such ladders, which every ladder in the package
(other cutoff subsequences, factor measures) goes through.  A product
ladder's energies are :func:`ep_integral` of each rung's cut, each cut and
its measures built once per ladder.  A radial ladder is built and read in
blocks of rungs: its cut rows are checked, slope-mapped and measured once
per ladder, and each rung's energy is one weighted mass against moment
weights whose powers are taken once per exponent, with the same values
per rung as :func:`ep_integral` of the cut.  The gradient energy is
handled the same way with per-octave contributions in t, sharing the
ratio and tail step.

Default exponent sweep: p in {1, 1.5, 2, 3}.
"""

from dataclasses import dataclass
from functools import cache, cached_property, partial
from math import comb

import numpy as np

from . import ma
from .errors import InvalidInput
from .models import RADIAL_P2, backend, entry, factors, potential, require
from .profiles import limit_values, relative_slopes, truncate

P_SWEEP = (1.0, 1.5, 2.0, 3.0)

# doubling-ratio verdict bands; the gradient band is tighter because its
# per-octave ratios approach 1 polynomially slowly near the critical
# exponent
RHO_INF_EP = 0.98
RHO_INF_GRAD = 0.999
GRADIENT_CORE = 40.0  # |t| past which the gradient energy is summed by octave
MAX_DOUBLINGS = 54  # most cutoffs per ladder; 2^53 is past any depth on the default grid
LADDER_BLOCK = 1 << 15  # entries per row block of a ladder's cut and measure rows


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


def _wedge(j):
    """The wedge index j; InvalidInput unless it is 0, 1 or 2."""
    if j not in (0, 1, 2):
        raise InvalidInput("wedge index j must be 0, 1 or 2")
    return j


def _measure_for(model, phi, j):
    if _wedge(j) == 0:
        return ma.ma_measure(model, None)
    if j == 1:
        return ma.mixed_measure(model, phi, None)
    return ma.ma_measure(model, phi)


def _moment_weights(offset, limits, k):
    """The weights of the moment M_k: max(-offset, 0)^k at the nodes, for
    offset rows along a leading axis, and (|left|^k, |right|^k) of each
    (left, right) pair of limits, where inf**k is inf and inf**0 is 1.  A
    power past the float range is an InvalidInput naming the exponent k."""
    w = np.negative(offset)
    try:
        with np.errstate(over="raise"):
            np.power(np.maximum(w, 0.0, out=w), k, out=w)
        return w, [(abs(ll) ** k, abs(lr) ** k) for ll, lr in limits]
    except (FloatingPointError, OverflowError):
        raise InvalidInput(f"the moment (-phi)^p overflows at exponent p = {k!r}") from None


def _moment(m, f, k):
    """M_k(m, f) = integral of max(-f, 0)^k against the 1-D measure m, its
    atoms weighted by the limits of f (:func:`_moment_weights`).  This is
    the radial backend's E_p integral of f against m."""
    w, ((wl, wr),) = _moment_weights(f.offset, [f.limit_values()], k)
    return ma.weighted_mass(m, w, wl, wr)


def _product_ep(m, phi, p):
    """The product backend's E_p integral of phi = (u, v) against the
    product measure m, by Fubini over its tensor terms c * m1 (x) m2: for an
    integer p and u + v <= 0, c * sum_k C(p, k) M_k(m1, u) M_{p-k}(m2, v)."""
    u, v = phi
    top = u.offset.max()
    if not (p >= 1 and float(p).is_integer()) or top + v.offset.max() > 0:
        raise InvalidInput("product-model E_p needs an integer p >= 1 and u + v <= 0")
    if top:  # move the constant to v: both factors <= 0, so no weight clips
        u, v = u.shifted(-top), v.shifted(top)
    n = int(p)
    total = 0.0
    for c, m1, m2 in m.factors:
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
    ep = entry(model, "ep", "ep_integral")
    phi = potential(model, phi)
    return ep(_measure_for(model, phi, j), phi, p)


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


def _checked_rows(base, off):
    """The full cell slopes of the offset rows off, checked as
    RelativeProfile construction checks a potential, and each row's limit
    values."""
    s = relative_slopes(base, off)
    lo, hi = s[:, 0] - base.slope_minus_inf, s[:, -1] - base.slope_plus_inf
    return s, [limit_values(*x) for x in zip(lo, hi, off[:, 0], off[:, -1])]


class Ladder:
    """A potential's cutoff ladder: the cutoffs ks from
    :func:`cutoff_ladder`, the potential's depth, and its cuts
    max(phi, -k), factor by factor (a factor no deeper than k is its own
    cut).

    :meth:`cut` builds a rung's potential once.  A product ladder is read
    rung by rung, as :func:`ep_integral` reads a potential: :meth:`measures`
    measures each cut once per j.  A radial ladder reads no cut.  On the
    first read of its measures or moment weights it builds its cut rows a
    block of rungs at a time, LADDER_BLOCK entries at most, checks each row
    as RelativeProfile construction checks a potential
    (:func:`profiles.relative_slopes`), and keeps the rows' limit values
    and normalized slope maps, from which its j = 1 and j = 2 measures are
    built.  Its moment weights are built once per exponent
    (:meth:`moment_weights`), and the three wedges share them.  j = 0 is
    the model's reference measure.  Every array is read-only.
    """

    def __init__(self, model, phi, start):
        fs = factors(model, phi, "ep_limit")
        self.model, self.factors = model, fs
        self.depths = [-f.offset.min() for f in fs]
        self.depth = max(self.depths)
        self.ks = cutoff_ladder(self.depth, start)
        self._cuts, self._measures, self._weights = {}, {}, {}

    @cached_property
    def _rows(self):
        """The radial block rows: each block's normalized slope maps, and
        each rung's limit values."""
        (f,) = self.factors
        maps, limits = [], []
        for rows in self.blocks():
            s, lim = _checked_rows(f.base, self.cut_rows(rows))
            ns = ma.slope_rows(s, f.base.slope_cap)
            ns.setflags(write=False)
            maps.append(ns)
            limits += lim
        return maps, limits

    def blocks(self):
        """The slices of rungs that a radial ladder builds and reads together."""
        step = max(1, LADDER_BLOCK // self.factors[0].offset.size)
        return [slice(a, a + step) for a in range(0, len(self.ks), step)]

    def cut_rows(self, rows):
        """The offset rows max(phi, -k) of a radial ladder at the rungs rows."""
        (f,) = self.factors
        return np.maximum(f.offset, -np.array(self.ks[rows], dtype=float)[:, None])

    def cut(self, i):
        """Rung i's potential, with :func:`truncate` on each factor deeper
        than its cutoff, built on first use and kept."""
        if i not in self._cuts:
            k = self.ks[i]
            self._cuts[i] = backend(self.model).join(tuple(
                truncate(f, k) if d > k else f for f, d in zip(self.factors, self.depths)))
        return self._cuts[i]

    def measures(self, j):
        """Every rung's measure omega^{2-j} ^ omega_cut^j, built once per j."""
        if _wedge(j) not in self._measures:
            model, n = self.model, len(self.ks)
            if j == 0:
                ms = [model.reference_measure] * n
            elif model.kind == RADIAL_P2:
                ms = ma._slope_ladder(model, self.factors[0].base.grid, self._rows[0], j)
            else:
                ms = [_measure_for(model, self.cut(i), j).frozen() for i in range(n)]
            self._measures[j] = ms
        return self._measures[j]

    def moment_weights(self, p):
        """The moment weights of exponent p of a radial ladder, built on
        first use once per p: w = max(-cut, 0)^p at the nodes of its last
        cut, min(k, depth)^p of each cutoff k, and each rung's limit
        weights (:func:`_moment_weights`).  Rung i's weight at a node is
        k_i^p where the potential lies at or below -k_i and w elsewhere,
        which is max(-max(phi, -k_i), 0)^p entry by entry; a cutoff past
        the depth cuts nothing, so its power is that of the depth, a value
        of w."""
        if p not in self._weights:
            _, limits = self._rows
            (w,), ends = _moment_weights(self.cut_rows(slice(-1, None)), limits, p)
            kp, _ = _moment_weights(-np.minimum(self.ks, self.depth), (), p)
            w.setflags(write=False)
            kp.setflags(write=False)
            self._weights[p] = w, kp, ends
        return self._weights[p]


def _radial_ladder_ep(ladder, p, j):
    """The radial E_p integral of every rung against its measure: the
    weight rows of a block of rungs at a time, picked from the ladder's
    moment weights at p, and one np.dot per rung."""
    ms = ladder.measures(j)
    (f,), (w, kp, ends) = ladder.factors, ladder.moment_weights(p)
    ks = np.array(ladder.ks)
    es = []
    for rows in ladder.blocks():
        rw = np.where(f.offset <= -ks[rows, None], kp[rows, None], w)
        es += [ma.weighted_mass(m, wi, wl, wr) for m, wi, (wl, wr) in zip(ms[rows], rw, ends[rows])]
    return es


def _product_ladder_ep(ladder, p, j):
    """The product E_p integral of every rung's cut against its measure."""
    return [_product_ep(m, ladder.cut(i), p) for i, m in enumerate(ladder.measures(j))]


def cutoffs(model, phi, start=1.0):
    """phi's cutoff :class:`Ladder`, its first cutoff start."""
    return Ladder(model, phi, start)


def ladder_limit(model, ladder, p, j=2):
    """Verdict of the energies of order (p, j) along a :func:`cutoffs`
    ladder: the backend's E_p integral of every rung against its measure."""
    es = entry(model, "ladder_ep", "ep_limit")(ladder, p, j)
    return ladder_verdict(ladder.ks, es, ladder.depth)


def ep_limit(model, phi, p):
    """Limit of the energy E_p along phi's canonical cutoffs, as a
    DivergenceVerdict: finite flag, limit estimate (inf when divergent),
    doubling ratio and (k, energy) trace.  Other wedges j are
    ladder_limit(model, cutoffs(model, phi), p, j)."""
    return ladder_limit(model, cutoffs(model, phi), p)


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


def energy_concavity_data(model, phi, psi, p):
    """Proof-constant margins of the mixed cross energies.

    M is the larger of the self-energies of phi and psi, the integrals of
    (-u)^p against omega_u^2; the margins margin_phi and margin_psi are
    the slack in the bound 6*M (p = 1) or (p+1)^{p/(p-1)} * M (p > 1) of
    the integral of (-phi)^p, resp. (-psi)^p, against omega_phi ^ omega_psi.
    """
    require(model, RADIAL_P2, "energy_concavity_data")
    phi, _ = _nonpositive(model, phi)
    psi, _ = _nonpositive(model, psi)
    M = max(ep_integral(model, phi, p), ep_integral(model, psi, p))
    bound = 6.0 * M if p == 1.0 else (p + 1.0) ** (p / (p - 1.0)) * M
    mix = ma.mixed_measure(model, phi, psi)
    return {"margin_phi": bound - _moment(mix, phi, p),
            "margin_psi": bound - _moment(mix, psi, p)}
