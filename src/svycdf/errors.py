"""Exception hierarchy shared across the package."""


class SvycdfError(Exception):
    """Base class for all package errors."""


class ParameterError(SvycdfError, ValueError):
    """Invalid constructor arguments or operation preconditions."""


class DegenerateDesignError(SvycdfError):
    """The design places no mass on the requested sample size."""


class CalibrationError(SvycdfError):
    """Working-probability calibration did not reach its fixed tolerance
    within its fixed iteration cap; ``residual`` is the last exact pass's
    max-norm distance to the target."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class CapacityError(SvycdfError):
    """Enumeration request exceeds the configured size guards."""


class EstimationError(SvycdfError):
    """An estimator cannot be evaluated on the given draw."""


class DegenerateBandwidthError(EstimationError):
    """Weighted interquartile range is zero; no automatic bandwidth."""


class ZeroDensityError(EstimationError):
    """A density in a denominator is zero or negative."""


class ScenarioError(SvycdfError):
    """Monte Carlo scenario is invalid or exceeded its failure budget."""


class DiagnosticError(SvycdfError):
    """Distribution diagnostic undefined (e.g. zero variance)."""
