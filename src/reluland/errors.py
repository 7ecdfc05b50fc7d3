"""The one input-error type and its one named kind.

Every input an operation cannot handle raises ``DomainError`` or its
subclass ``NonsmoothPointError``, so callers (the CLI among them) catch
that one class.  A subclass exists only where a caller catches it by
name: ``enumeration._entry`` catches ``NonsmoothPointError``.
"""


class DomainError(ValueError):
    """An argument lies outside what an operation can handle."""


class NonsmoothPointError(DomainError):
    """Finite-difference Hessians need a twice-differentiable point."""


def json_number(x, integer: bool = False):
    """x from parsed JSON as an int if integer, else as a float (a huge int
    overflows); anything else, a bool or a string included, is DomainError."""
    if isinstance(x, bool) or not isinstance(x, int if integer else (int, float)):
        raise DomainError(f"{x!r} is not a JSON {'integer' if integer else 'number'}")
    return x if integer else float(x)
