"""Geometry backends: symmetric Kahler surfaces with unit volume.

Three models are provided.  The radial model on the projective plane
reduces everything to one profile with slope cap 1/2; the product of
two lines keeps one profile per factor with slope cap 1; the toric
model is a genuine 2-D discrete potential on a box in log-coordinates,
with the measure realized as an Aleksandrov subgradient measure.

Each kind has one :class:`Backend` record, looked up by :func:`backend`
and nowhere else, through which every kind-dependent operation goes:
potential type, zero potential, factor view ((phi,) radial, (u, v)
product, none toric), measures, E_p integral, the E_p integrals of a
cutoff ladder, gradient energy, and the solver with the solve command's
target schema.  The one exception is a cutoff ladder's measures, which
energy.Ladder builds from row blocks on the radial kind only.  An
operation the kind lacks, or one written for another kind, raises
InvalidInput naming the operation and the model.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidInput, MaLabError
from .profiles import Profile, RelativeProfile, default_grid, zero_offset

RADIAL_P2 = "RadialP2"
PRODUCT_P1P1 = "ProductP1P1"
TORIC_P1P1 = "ToricP1P1"
# half-width of the toric log-coordinate box.  Any box works because the
# subgradient cells are always clipped to the full moment square; 8 keeps
# the smallest boundary cell masses well above rounding
TORIC_BOX = 8.0
# the coarsest toric grid that toric_p1p1 builds; the toric solver's
# coarse-to-fine recursion slices coarser grids of its own
MIN_TORIC_RESOLUTION = 16


def psi_fs(t):
    """Reference radial potential, 0.5*log(1+e^t), overflow-safe."""
    return 0.5 * np.logaddexp(0.0, t)


def psi_line(t):
    """Reference potential of one line factor, log(1+e^t)."""
    return np.logaddexp(0.0, t)


@dataclass(frozen=True)
class KahlerModel:
    """Immutable model descriptor.

    Parameters
    ----------
    kind : str
        One of RADIAL_P2, PRODUCT_P1P1, TORIC_P1P1.
    reference_potential : Profile or tuple
        The reference Kahler potential; a pair of factor profiles for
        the product model, a (t1, t2, Psi) triple for the toric model.
    volume : float
        Raw total mass of the reference measure (1 for the radial
        model, 2 for the surfaces built from two line factors).
    slope_cap : float
        Per-profile (per-axis) maximal slope.
    cdf_power : int
        Exponent d in the normalized sublevel-mass law
        mass{t <= T} = (slope(T)/slope_cap)**d; 2 for the radial model,
        1 per line factor.
    resolution : int or None
        Grid resolution per axis (toric only).
    """

    kind: str
    reference_potential: object
    volume: float
    slope_cap: float
    cdf_power: int
    resolution: int = None

    # built on first use, once per model, and shared: every array is read-only
    @cached_property
    def zero(self):
        """The zero potential."""
        return backend(self).zero(self)

    @cached_property
    def reference_measure(self):
        """The measure of the zero potential, ma_measure(model, None)."""
        return backend(self).measure(self, self.zero).frozen()

    @cached_property
    def zero_slopes(self):
        """The zero potential's normalized slope map (radial model)."""
        from .ma import _normalized_ext_slopes

        return _frozen(_normalized_ext_slopes(self.zero, self.slope_cap))


def _frozen(a):
    """Make an array of a cached model read-only: every caller shares it."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def radial_p2():
    """The radial model on the projective plane.

    The measure of a potential with slopes s(t) has sublevel mass
    (2 s(T))**2, density 8 psi' psi'' dt in the smooth case, an atom at
    the fixed point of mass 4*slope(-inf)**2 and an atom on the divisor
    at infinity of mass 1 - 4*slope(+inf)**2.  Two anchor facts pin
    these constants and are asserted at construction: the reference
    measure has total mass 1, and the potential t/2 has a unit atom at
    the fixed point.
    """
    g = default_grid()
    base = Profile(g, _frozen(psi_fs(g)), 0.0, 0.5, 0.5)
    model = KahlerModel(RADIAL_P2, base, 1.0, 0.5, 2)
    _radial_self_test(model)
    return model


def _radial_self_test(model):
    from . import ma

    full = ma.ma_measure(model, None)  # reference measure
    if not abs(full.total_mass - 1.0) < 1e-10:
        raise MaLabError("radial reference measure does not have mass 1")
    base = model.reference_potential
    dirac = RelativeProfile(base, base.grid / 2 - base.values)
    m = ma.ma_measure(model, dirac)
    if not (m.atom_mass(ma.FIXED_POINT) > 1.0 - 1e-12
            and np.abs(m.density).max() < 1e-12):
        raise MaLabError("radial Dirac anchor is not the unit fixed-point atom")


@lru_cache(maxsize=None)
def product_p1p1():
    """Product of two lines; one factor profile per axis, cap 1 each.

    The raw volume is 2 (each factor reference measure has mass 1);
    reports carry both raw and unit-volume numbers.
    """
    g = default_grid()
    f = Profile(g, _frozen(psi_line(g)), 0.0, 1.0, 1.0)
    return KahlerModel(PRODUCT_P1P1, (f, f), 2.0, 1.0, 1)


@lru_cache(maxsize=None)
def toric_p1p1(resolution):
    """2-D toric backend on the box [-TORIC_BOX, TORIC_BOX]^2 in log-coordinates.

    Parameters
    ----------
    resolution : int
        Cells per axis (the grid has resolution+1 nodes per axis).

    Raises
    ------
    InvalidInput
        If resolution < MIN_TORIC_RESOLUTION.
    """
    if resolution < MIN_TORIC_RESOLUTION:
        raise InvalidInput(f"toric resolution must be >= {MIN_TORIC_RESOLUTION}")
    t1 = _frozen(np.linspace(-TORIC_BOX, TORIC_BOX, resolution + 1))
    t2 = _frozen(t1.copy())
    Psi = _frozen(psi_line(t1)[:, None] + psi_line(t2)[None, :])
    return KahlerModel(TORIC_P1P1, (t1, t2, Psi), 2.0, 1.0, 1, resolution)


@dataclass(frozen=True)
class ToricGrid:
    """A 2-D potential on the toric grid; values is a read-only copy."""

    t1: np.ndarray
    t2: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # a copy the caller cannot reach
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.shape != (len(self.t1), len(self.t2)):
            raise InvalidInput("toric values shape must match the axis grids")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("non-finite toric potential")


def model_from_descriptor(desc):
    """Build a model from a descriptor dict or name string.

    Strings take the form "radial-p2", "product-p1p1", "toric-p1p1" or
    "toric-p1p1:R" with R the grid resolution.  Only the toric kind takes
    a resolution.
    """
    if isinstance(desc, str):
        name, _, res = desc.partition(":")
        desc = {"kind": name}
        if res:
            desc["resolution"] = res
    kind = desc.get("kind")
    if kind in (TORIC_P1P1, "toric-p1p1"):
        return toric_p1p1(_resolution(desc.get("resolution", 64)))
    if kind in (RADIAL_P2, "radial-p2"):
        build = radial_p2
    elif kind in (PRODUCT_P1P1, "product-p1p1"):
        build = product_p1p1
    else:
        raise InvalidInput(f"unknown model kind {kind!r}")
    if "resolution" in desc:
        raise InvalidInput(f"model kind {kind!r} takes no resolution")
    return build()


def _resolution(res):
    """res as an int: an int, an integral float, or a string int() reads."""
    if (isinstance(res, (int, str)) and not isinstance(res, bool)
            or isinstance(res, float) and res.is_integer()):
        try:
            return int(res)
        except ValueError:  # a string such as "abc" or "32.0"
            pass
    raise InvalidInput("toric resolution must be an integer")


@dataclass(frozen=True)
class Backend:
    """The operations of one model kind; None marks one the kind lacks."""

    potential_type: type  # RelativeProfile, a (u, v) tuple of them, or ToricGrid
    zero: object  # model -> the zero potential (KahlerModel.zero caches it)
    factors: object = None  # potential -> tuple of its 1-D factor profiles
    join: object = None  # tuple of factor profiles -> potential
    measure: object = None  # (model, phi) -> MaMeasure
    mixed: object = None  # (model, phi, psi) -> MaMeasure
    ep: object = None  # (measure, phi, p) -> raw E_p integral of phi against it
    ladder_ep: object = None  # (ladder, p, j) -> raw E_p integral of every cutoff
    gradient_energy: object = None  # (model, phi) -> DivergenceVerdict
    solve: object = None  # (model, target, p) -> SolveResult
    target: tuple = None  # --target schema: measure kind, JSON key, reader(model, obj)
    demo_target: object = None  # (model, seed) -> the target without --target
    solution: object = None  # (model, psi) -> coordinate and offset columns


@lru_cache(maxsize=None)
def _backends():
    # built on first use, as the operation modules import this one; entries
    # a tracer may rebind (toric_measure, the solvers, gradient_energy_verdict)
    # are looked up on their module at call time
    from . import energy, ma, solver, verify

    return {
        RADIAL_P2: Backend(
            RelativeProfile, lambda m: zero_offset(m.reference_potential),
            factors=lambda phi: (phi,), join=lambda fs: fs[0],
            measure=lambda m, phi: ma._slope_measure(m, phi, phi), mixed=ma._slope_measure,
            ep=energy._moment, ladder_ep=energy._radial_ladder_ep,
            gradient_energy=lambda m, phi: energy.gradient_energy_verdict(m, phi),
            solve=lambda m, target, p: solver.solve_radial(m, target, p),
            target=("OneD", "node_mass", solver._radial_json_target),
            demo_target=lambda m, seed: ma.ma_measure(m, verify.seed_profile(seed)),
            solution=lambda m, psi: (psi.base.grid, psi.offset)),
        PRODUCT_P1P1: Backend(
            tuple, lambda m: tuple(map(zero_offset, m.reference_potential)),
            factors=tuple, join=tuple, measure=ma._product_measure, mixed=ma._product_mixed,
            ep=energy._product_ep, ladder_ep=energy._product_ladder_ep,
            gradient_energy=energy._product_gradient),
        TORIC_P1P1: Backend(
            ToricGrid, lambda m: ToricGrid(*m.reference_potential),
            measure=lambda m, phi: ma.toric_measure(m, phi), mixed=ma._toric_mixed,
            solve=lambda m, target, p: solver.solve_newton_toric(m, target, p),
            target=("TwoD", "density", solver._toric_json_target),
            demo_target=solver._toric_demo_target,
            solution=lambda m, psi: (np.arange(psi.values.size, dtype=float),
                                     (psi.values - m.reference_potential[2]).ravel())),
    }


def backend(model):
    """The Backend of the model's kind."""
    return _backends()[model.kind]


def potential(model, phi):
    """phi, checked against the model's potential type; None is zero."""
    if phi is None:
        return model.zero
    if not isinstance(phi, backend(model).potential_type):
        raise InvalidInput(f"a {type(phi).__name__} is no {model.kind} potential")
    return phi


def _lacks(operation, model):
    return InvalidInput(f"{operation} is not implemented on the {model.kind} model")


def entry(model, name, operation):
    """The backend entry name, or InvalidInput if the kind lacks it."""
    fn = getattr(backend(model), name)
    if fn is None:
        raise _lacks(operation, model)
    return fn


def require(model, kind, operation):
    """Raise InvalidInput unless the model is of the kind operation needs."""
    if model.kind != kind:
        raise _lacks(operation, model)


def factors(model, phi, operation):
    """The 1-D factor profiles of a potential, for operation."""
    return entry(model, "factors", operation)(potential(model, phi))
