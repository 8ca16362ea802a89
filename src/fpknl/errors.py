"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse raises the usual ValueError/TypeError.
"""


class FpknlError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(FpknlError):
    """Inconsistent model or solver configuration (shapes, stability bounds)."""


class InputError(FpknlError):
    """Malformed runtime input: empty grids, mismatched grids, short stencils."""


class DegenerateMomentError(FpknlError):
    """Normalized first moment requested for a field with (near-)zero mass."""


class FocalPointError(FpknlError):
    """Denominator factor of the precision pair became singular."""


class InvalidCovarianceError(FpknlError):
    """Precision matrix is not symmetric positive definite where a density needs one."""


class DeltaLimitError(FpknlError):
    """Kernel evaluation requested at coincident times, where it degenerates to a delta."""


class KernelValidityError(FpknlError):
    """Kernel or matriciant is not finite over the horizon, a kernel is asked
    for backward in time, or the kernel's spread is not positive definite."""


class NormalizationError(FpknlError):
    """Input mass is not 1 where a normalized density is required."""


class TruncationError(FpknlError):
    """Sampled density does not decay at the grid edges; quadrature would be truncated."""


class IllPosedInverseError(FpknlError):
    """Backward evolution cannot be reconciled with the given samples."""
