"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class AccuracyError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best estimate so callers can decide whether to proceed.
    """

    def __init__(self, message, estimate, error):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class IdenticallyZeroError(ValueError):
    """Root isolation was asked about a polynomial that is identically zero."""


class DegenerateEnumerationError(RuntimeError):
    """The kink equation vanished identically on a piece without the
    matching zero-slope degeneracy; the input violates the enumeration
    hypotheses."""


class FinitenessError(ValueError):
    """Critical-point enumeration requires a piecewise-polynomial target."""


class NonsmoothPointError(ValueError):
    """Finite-difference Hessians need a twice-differentiable point."""


class NotCriticalError(ValueError):
    """Classification requires the gradient norm to be (numerically) zero."""
