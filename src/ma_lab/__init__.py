"""Numerical laboratory for the complex Monge-Ampere operator on
symmetric compact Kahler surfaces.

The models reduce everything to one- and two-dimensional convex
analysis: potentials are convex profiles of the invariant coordinate,
measures are slope-product laws, energies are finite sums with
divergence verdicts, and the measure equation is solved in closed form
(radial, separable) or by damped Newton on Aleksandrov cell areas
(toric).
"""

from .errors import (InvalidInput, MaLabError, NotOmegaPsh,
                     NotSolvableInModel, PreconditionViolated)
from .models import (KahlerModel, ToricGrid, model_from_descriptor,
                     product_p1p1, radial_p2, toric_p1p1)
from .profiles import (Profile, RelativeProfile, compose_weight, default_grid,
                       max_offsets, scale, truncate, zero_offset)
from .ma import (MaMeasure, gradient_current_mass, ma_measure, mixed_measure,
                 toric_measure)
from .energy import (DivergenceVerdict, EnergyReport, energy_report,
                     ep_limit, gradient_energy_verdict, sobolev_distance)
from .capacity import (CapacityCurve, capacity_curve, capacity_energy_sandwich,
                       sublevel_abscissae)
from .capacity import capacity as set_capacity
from .solver import (SolveResult, dirac_target, radial_target, solve_newton_toric,
                     solve_radial, solve_separable, uniqueness_check)
from .verify import (CheckReport, Corpus, generate_corpus, run_checks)

__version__ = "0.1.0"

__all__ = [
    "CapacityCurve", "CheckReport", "Corpus", "DivergenceVerdict",
    "EnergyReport", "InvalidInput", "KahlerModel", "MaLabError", "MaMeasure",
    "NotOmegaPsh", "NotSolvableInModel", "PreconditionViolated", "Profile",
    "RelativeProfile", "SolveResult", "ToricGrid", "set_capacity",
    "capacity_curve", "capacity_energy_sandwich", "compose_weight",
    "default_grid", "dirac_target", "energy_report", "ep_limit",
    "generate_corpus", "gradient_current_mass", "gradient_energy_verdict",
    "ma_measure", "max_offsets", "mixed_measure", "model_from_descriptor",
    "product_p1p1", "radial_p2", "radial_target", "run_checks", "scale",
    "sobolev_distance", "solve_newton_toric", "solve_radial",
    "solve_separable", "sublevel_abscissae", "toric_measure", "toric_p1p1",
    "truncate", "uniqueness_check", "zero_offset",
]
