"""Band functions of an axisymmetric magnetic Schrodinger operator.

Radial fiber problems -u'' + (k/r^2) u + (r - xi)^2 u = lambda u on the
half-line, their band functions and derivatives, large-coupling scaling,
inverse-power expansions at high momentum, the underlying classical flow,
and edge/bulk current functionals built from the bands.
"""

from __future__ import annotations

from .asymptotics import (
    band_asymptotics,
    evaluate_expansion,
    expansion_coefficients,
    exponential_gap_check,
    remainder_rate,
)
from .bands import (
    BandCurve,
    CrossingResult,
    agmon_norm,
    agmon_weight,
    crossing,
    refined_sweep,
    scaling_study,
    sweep,
)
from .classical import ClassicalState, effective_velocity, integrate, radial_period
from .errors import (
    AgmonOverflowError,
    AxisApproachError,
    BracketError,
    ConvergenceError,
    MissingBandDataError,
    ModelError,
    SignPatternError,
)
from .model import (
    ModelParams,
    coupling_constant,
    harmonic_multiplicity,
    landau_level,
    potential,
    potential_minimum,
    turning_points,
)
from .solver import (
    Grid,
    boundary_exponent,
    derivative_boundary_form,
    derivative_feynman_hellmann,
    fiber_eigenvalues,
    solve_fiber,
)
from .transport import (
    SpectralWindow,
    bands_meeting_window,
    bulk_decay_study,
    current,
    current_dichotomy,
    edge_bound,
    edge_current,
    synthesize_state,
    witness_small_current,
)

__version__ = "0.1.0"

__all__ = [
    "AgmonOverflowError",
    "AxisApproachError",
    "BandCurve",
    "BracketError",
    "ClassicalState",
    "ConvergenceError",
    "CrossingResult",
    "Grid",
    "MissingBandDataError",
    "ModelError",
    "ModelParams",
    "SignPatternError",
    "SpectralWindow",
    "agmon_norm",
    "agmon_weight",
    "band_asymptotics",
    "bands_meeting_window",
    "boundary_exponent",
    "bulk_decay_study",
    "coupling_constant",
    "crossing",
    "current",
    "current_dichotomy",
    "derivative_boundary_form",
    "derivative_feynman_hellmann",
    "edge_bound",
    "edge_current",
    "effective_velocity",
    "evaluate_expansion",
    "expansion_coefficients",
    "exponential_gap_check",
    "fiber_eigenvalues",
    "harmonic_multiplicity",
    "integrate",
    "landau_level",
    "potential",
    "potential_minimum",
    "radial_period",
    "refined_sweep",
    "remainder_rate",
    "scaling_study",
    "solve_fiber",
    "sweep",
    "synthesize_state",
    "turning_points",
    "witness_small_current",
]
