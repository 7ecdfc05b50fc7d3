"""Exact univariate polynomial and piecewise-polynomial algebra.

Coefficients are plain doubles in ascending order (``coeffs[k]`` multiplies
``x**k``).  Everything here is closed-form: evaluation is Horner and
integrals go through antiderivatives.  Every integral of a piecewise
polynomial p reads one running-integral table per power k, the single
implementation of the running integral of x**k * p (``cum_moment``);
``cum_moments`` reads the same table at a whole sorted array of points,
one numpy slice per piece, bit for bit as ``cum_moment`` at each point.
The table builder ``_running_table`` also serves ``target.BenchmarkTarget``;
``target.PolyTarget``, not this module, checks that pieces meet.
Real-root isolation (``roots_in``) is exact: it takes a polynomial with
integer coefficients and integer ends, counts roots with an integer Sturm
chain and bisects on the integers, so it needs no tolerance; ``_gcd``
holds the common roots of two integer polynomials, also exactly.
All values are immutable and the operations are pure; the tables are
caches built on first use.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "Polynomial",
    "PiecewisePolynomial",
    "roots_in",
    "reparametrize",
]


class Polynomial:
    """Univariate polynomial with double coefficients, ascending powers.

    The zero polynomial has an empty coefficient tuple; otherwise the
    trailing coefficient is nonzero (exact zeros are stripped on
    construction).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[float] = ()):
        cs = [float(c) for c in coeffs]
        while cs and cs[-1] == 0.0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: float) -> float:
        # elementwise on an ndarray, with the same operations per element
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c: float) -> "Polynomial":
        return Polynomial([c * a for a in self.coeffs])

    def shift_up(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return Polynomial((0.0,) * k + self.coeffs)

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        return Polynomial([0.0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def compose_affine(self, s: float, t: float) -> "Polynomial":
        """Return the polynomial x -> p(s*x + t)."""
        lin = Polynomial([t, s])
        out = Polynomial()
        power = Polynomial([1.0])
        for c in self.coeffs:
            out = out + power.scale(c)
            power = power * lin
        return out

    def coeff_scale(self) -> float:
        """Max absolute coefficient; natural size for residual tolerances."""
        return max((abs(c) for c in self.coeffs), default=0.0)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def _running_table(antis: Sequence, breakpoints: Sequence[float]) -> tuple:
    """Running-integral table of a piecewise function from each piece's
    antiderivative A_i on [x_i, x_{i+1}]: (A_i, A_i(x_i), the integral over
    [x_0, x_i]) per piece i, read on piece i as prefix[i] + A_i(x) - starts[i]."""
    starts = [anti(x0) for anti, x0 in zip(antis, breakpoints)]
    prefix = [0.0]
    for anti, start, x1 in zip(antis, starts, breakpoints[1:-1]):
        prefix.append(prefix[-1] + anti(x1) - start)
    return antis, starts, prefix


class PiecewisePolynomial:
    """Piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    ``pieces[i]`` is in effect on ``[breakpoints[i], breakpoints[i+1])``;
    the last piece also owns the right endpoint.

    Integrals read one running-integral table per power k, built on first
    use: for each piece i, the antiderivative A_i of x**k * p_i, A_i at the
    piece's left end x_i, and the integral from ``lo`` up to x_i.
    """

    __slots__ = ("breakpoints", "pieces", "_tables")

    def __init__(self, breakpoints: Sequence[float], pieces: Sequence[Polynomial]):
        bps = tuple(float(x) for x in breakpoints)
        if len(bps) < 2 or len(pieces) != len(bps) - 1:
            raise DomainError("need n+1 breakpoints for n pieces, n >= 1")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise DomainError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self.pieces = tuple(p if isinstance(p, Polynomial) else Polynomial(p) for p in pieces)
        self._tables: dict = {}  # k -> running-integral table, see _table

    @property
    def lo(self) -> float:
        return self.breakpoints[0]

    @property
    def hi(self) -> float:
        return self.breakpoints[-1]

    def _piece_index(self, x: float) -> int:
        # right-piece ownership at interior breakpoints, last piece owns hi
        i = bisect.bisect_right(self.breakpoints, x) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def eval(self, x: float) -> float:
        if not self.lo <= x <= self.hi:  # NaN fails too
            raise DomainError(f"{x!r} outside domain [{self.lo!r}, {self.hi!r}]")
        return self.pieces[self._piece_index(x)](x)

    def _table(self, k: int) -> tuple[list[Polynomial], list[float], list[float]]:
        """(A_i, A_i(x_i), integral of x**k * p over [lo, x_i]) per piece i."""
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = _running_table(
                [p.shift_up(k).antiderivative() for p in self.pieces], self.breakpoints)
        return table

    def cum_moment(self, k: int, x: float) -> float:
        """Integral of t**k * p(t) over [lo, x], for x in the domain (unchecked)."""
        antis, starts, prefix = self._table(k)
        i = self._piece_index(x)
        return prefix[i] + antis[i](x) - starts[i]

    def cum_moments(self, k: int, xs: np.ndarray) -> np.ndarray:
        """``cum_moment(k, x)`` at every x of a sorted float64 array in the
        domain (unchecked), bit for bit: the points on piece i are one
        contiguous slice, found with the right-piece ownership of
        ``_piece_index``, and A_i is evaluated on the whole slice."""
        antis, starts, prefix = self._table(k)
        cuts = np.searchsorted(xs, self.breakpoints[1:-1], side="left").tolist()
        out = np.empty(len(xs))
        for i, (s, e) in enumerate(zip([0] + cuts, cuts + [len(xs)])):
            out[s:e] = (prefix[i] + antis[i](xs[s:e])) - starts[i]
        return out

    def moment(self, k: int, lo: float, hi: float) -> float:
        """Exact value of the integral of x**k * p(x) over [lo, hi]."""
        if lo > hi:
            raise DomainError("lo > hi")
        if not (self.lo <= lo and hi <= self.hi):  # NaN ends fail too
            raise DomainError(f"[{lo!r}, {hi!r}] outside domain [{self.lo!r}, {self.hi!r}]")
        return self.cum_moment(k, hi) - self.cum_moment(k, lo)

    def coeff_scale(self) -> float:
        return max((p.coeff_scale() for p in self.pieces), default=0.0)

    def __repr__(self) -> str:
        return (f"PiecewisePolynomial(breakpoints={list(self.breakpoints)!r}, "
                f"pieces={list(self.pieces)!r})")


def reparametrize(pp: PiecewisePolynomial, s: float, t: float) -> PiecewisePolynomial:
    """Return the piecewise polynomial u -> pp(s*u + t) on the preimage domain.

    Used for the change of variables between [a, b] and [0, 1] and, with
    s = -1, t = 1, for reflecting a target about the midpoint of [0, 1].
    The mirror x -> -x (s = -1, t = 0) is exact: c_k becomes (-1)**k c_k.
    Rounding can map adjacent breakpoints to one double; the piece between
    them then has zero width and is dropped.
    """
    if s == 0.0:
        raise DomainError("s must be nonzero")
    new_bps = [(x - t) / s for x in pp.breakpoints]
    new_pieces = [p.compose_affine(s, t) for p in pp.pieces]
    if s < 0:
        new_bps.reverse()
        new_pieces.reverse()
    keep = [i for i in range(len(new_pieces)) if new_bps[i] < new_bps[i + 1]]
    return PiecewisePolynomial([new_bps[0]] + [new_bps[i + 1] for i in keep],
                               [new_pieces[i] for i in keep])


# ---------------------------------------------------------------------------
# exact real-root isolation (integer Sturm chain + integer bisection)
# ---------------------------------------------------------------------------

def _eval_asc(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divexact(num: list[int], den: list[int]) -> list[int]:
    """num / den for integer polynomials where den divides num in Z[x]."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quot))):
        quot[k] = c = num[k + len(den) - 1] // den[-1]
        for i, d in enumerate(den):
            num[k + i] -= c * d
    return quot


def _primitive(coeffs: list[int]) -> list[int]:
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs]


def _prem(num: list[int], den: list[int]) -> list[int]:
    """A positive multiple of the remainder of num / den, in integers: each
    step scales num by |lead(den)| so that no division is needed."""
    num = list(num)
    scale = abs(den[-1])
    sign = 1 if den[-1] > 0 else -1
    while len(num) >= len(den):
        c = sign * num.pop()
        k = len(num) - len(den) + 1
        num = [scale * a for a in num]
        for i, d in enumerate(den[:-1]):
            num[k + i] -= c * d
        while num and num[-1] == 0:
            num.pop()
    return num


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """A greatest common divisor of two integer polynomials, up to a
    constant factor, by Euclid's algorithm on primitive pseudo-remainders."""
    while b:
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm chain of p's square-free part.  The primitive pseudo-remainder
    sequence p, p', -rem, ... keeps each remainder's sign; its last element
    is gcd(p, p'), and dividing every element by it leaves a chain whose
    first element is the square-free part and whose last is constant."""
    chain = [_primitive(p), _primitive([k * c for k, c in enumerate(p)][1:])]
    while rem := _prem(chain[-2], chain[-1]):
        chain.append([-c for c in _primitive(rem)])
    if len(chain[-1]) > 1:
        chain = [_divexact(c, chain[-1]) for c in chain]
    return chain


def _sign_variations(chain: list[list[int]], x: int) -> int:
    signs = [v > 0 for v in (_eval_asc(cs, x) for cs in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def roots_in(p: Sequence[int], lo: int, hi: int) -> list[tuple[int, int]]:
    """The distinct real roots of the integer polynomial ``p`` (ascending
    coefficients) in [lo, hi], for integers lo < hi, in increasing order.

    A root at an integer v is reported as (v, v), any other root as the
    cell (v, v + 1) that holds it, once per root in that cell.  Sturm
    counts on the square-free part are exact, so no tolerance is involved;
    bisection runs on the integers.  Raises DomainError for the
    zero polynomial (the caller must handle that degenerate case itself).
    """
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise DomainError("polynomial identically zero on interval")
    if not lo < hi:
        raise DomainError("need lo < hi")
    if len(p) == 1:
        return []
    chain = _sturm_chain(p)
    sqf = chain[0]
    found = [(lo, lo)] if _eval_asc(sqf, lo) == 0 else []
    # (a, b, V(a), V(b)): V(a) - V(b) distinct roots lie in (a, b]
    stack = [(lo, hi, _sign_variations(chain, lo), _sign_variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        fa, fb = _eval_asc(sqf, a), _eval_asc(sqf, b)
        if fb == 0 and (n == 1 or b - a == 1):
            found.append((b, b))
            n -= 1
        if b - a == 1:
            found += [(a, b)] * n
        elif n == 1 and fa != 0 and fb != 0:
            # one simple root inside: follow the sign change of sqf
            while b - a > 1:
                m = (a + b) // 2
                fm = _eval_asc(sqf, m)
                if fm == 0:
                    a = b = m
                elif (fm > 0) == (fa > 0):
                    a = m
                else:
                    b = m
            found.append((a, b))
        elif n > 0:
            m = (a + b) // 2
            vm = _sign_variations(chain, m)
            stack += [(m, b, vm, vb), (a, m, va, vm)]
    return sorted(found)

