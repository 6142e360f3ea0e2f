"""Exception types shared across the package."""


class GausskitError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidStateError(GausskitError, ValueError):
    """(A, Lambda, mu) fail the Gaussian-state validity criterion M(A, Lambda) > 0."""


class NotTraceClassError(InvalidStateError):
    """Positive-operator parameters with M(A, Lambda) not strictly positive,
    so not trace class and no state."""


class NonComposableError(GausskitError, ValueError):
    """Product of two generating functions is not Gaussian-integrable."""


class UnsupportedStateError(GausskitError, ValueError):
    """Operation with a precondition the given state does not meet (e.g. purity)."""


class EstimationError(GausskitError, ValueError):
    """Tomographic estimate is ill-conditioned (e.g. vacuum overlap too small)."""
