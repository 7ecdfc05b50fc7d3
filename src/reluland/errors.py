"""The one input-error type and its two named kinds.

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


class NonsmoothPointError(DomainError):
    """Finite-difference Hessians need a twice-differentiable point."""


def json_number(x, integer: bool = False):
    """x from parsed JSON as an int if integer, else as a float (a huge int
    overflows); anything else, a bool or a string included, is DomainError."""
    if isinstance(x, bool) or not isinstance(x, int if integer else (int, float)):
        raise DomainError(f"{x!r} is not a JSON {'integer' if integer else 'number'}")
    return x if integer else float(x)
