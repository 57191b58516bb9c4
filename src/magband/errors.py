"""Exception taxonomy.

Two families matter downstream: ModelError marks invalid input (the CLI maps it
to exit code 2), ConvergenceError marks a numerical procedure that ran but failed
to meet its tolerance (exit code 3).
"""


class ModelError(ValueError):
    """Invalid parameters, configuration, or data for the requested operation."""


class MissingBandDataError(ModelError):
    """Band data does not cover a wave-packet entry's support."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to meet its tolerance."""


class BracketError(ConvergenceError):
    """Root bracketing failed within the allowed search range."""


class SignPatternError(ConvergenceError):
    """Eigenvector data violates the sign structure required by a fit."""


class AxisApproachError(ConvergenceError):
    """Classical trajectory came closer to the symmetry axis than r_floor."""


class AgmonOverflowError(ConvergenceError):
    """Weighted norm exceeds the floating-point range."""
