"""The one input-error type and its three named kinds.

Every input an operation cannot handle raises ``DomainError`` or one of
its subclasses, so callers (the CLI among them) catch that one class.
The subclasses exist only where a caller catches or reads them by name.
"""


class DomainError(ValueError):
    """An argument lies outside what an operation can handle."""


class AccuracyError(DomainError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best estimate so callers can decide whether to proceed.
    """

    def __init__(self, message, estimate, error):
        super().__init__(f"{message} (estimate {estimate!r}, error {error!r})")
        self.estimate = estimate
        self.error = error


class DegenerateEnumerationError(DomainError):
    """The kink equation vanished identically on a piece without the
    matching zero-slope degeneracy; the input violates the enumeration
    hypotheses."""


class NonsmoothPointError(DomainError):
    """Finite-difference Hessians need a twice-differentiable point."""
