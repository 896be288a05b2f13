"""Exception types shared across the toolkit."""


class AlgSeriesError(Exception):
    """Base class for every error raised by this package."""


class InputError(AlgSeriesError):
    """An argument violates a documented invariant."""


class PrecisionError(AlgSeriesError):
    """A truncated series does not carry enough coefficients for the request."""


class NotSimpleRootError(AlgSeriesError):
    """The seed is not consistent with a simple power-series root."""


class LiftError(AlgSeriesError):
    """A Newton lift failed its own checks: the order of dP/dy along the
    prefix, the seed it kept, or the certificate of its output."""


class NotAlgebraicError(AlgSeriesError):
    """No vanishing polynomial exists within the requested support and bounds."""


class BudgetError(AlgSeriesError):
    """An enumeration exceeded its budget of work units."""
