"""Exact univariate polynomial and piecewise-polynomial algebra.

Coefficients are plain doubles in ascending order (``coeffs[k]`` multiplies
``x**k``).  Everything here is closed-form: evaluation is Horner, integrals
go through antiderivatives, and real-root isolation uses a Sturm sequence
with bisection followed by Newton polishing.  Every integral of a piecewise
polynomial p reads one running-integral table per power k, the single
implementation of the running integral of x**k * p (``cum_moment``);
``cum_moments`` reads the same table at a whole sorted array of points,
one numpy slice per piece, bit for bit as ``cum_moment`` at each point.
The width-1 grid oracle reads its moments that way, so it stays
independent of the kink polynomial that ``running_poly`` expands in q.
All values are immutable and the operations are pure; the tables are
caches built on first use.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, IdenticallyZeroError

__all__ = [
    "Polynomial",
    "PiecewisePolynomial",
    "roots_in",
    "collapse_roots",
    "reparametrize",
]

# Roots closer than this are collapsed to a single representative.
ROOT_CLUSTER_TOL = 1e-9
_NEWTON_STEPS = 30


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

    def degree(self) -> int:
        return len(self.coeffs) - 1

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

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

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

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

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


class PiecewisePolynomial:
    """Piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    ``pieces[i]`` is in effect on ``[breakpoints[i], breakpoints[i+1])``;
    the last piece also owns the right endpoint.  With ``continuous=True``
    adjacent pieces must agree at interior breakpoints within 1e-12
    relative.

    Integrals read one running-integral table per power k, built on first
    use: for each piece i, the antiderivative A_i of x**k * p_i, A_i at the
    piece's left end x_i, and the integral from ``lo`` up to x_i.
    """

    __slots__ = ("breakpoints", "pieces", "continuous", "_tables")

    def __init__(self, breakpoints: Sequence[float], pieces: Sequence[Polynomial],
                 continuous: bool = False):
        bps = tuple(float(x) for x in breakpoints)
        if len(bps) < 2 or len(pieces) != len(bps) - 1:
            raise ValueError("need n+1 breakpoints for n pieces, n >= 1")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        ps = tuple(p if isinstance(p, Polynomial) else Polynomial(p) for p in pieces)
        if continuous:
            for i in range(1, len(bps) - 1):
                left = ps[i - 1](bps[i])
                right = ps[i](bps[i])
                if abs(left - right) > 1e-12 * (1.0 + abs(left) + abs(right)):
                    raise ValueError(f"discontinuity at breakpoint {bps[i]!r}")
        self.breakpoints = bps
        self.pieces = ps
        self.continuous = continuous
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

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def eval(self, x: float) -> float:
        if x < self.lo or x > self.hi:
            raise DomainError(f"{x!r} outside domain [{self.lo!r}, {self.hi!r}]")
        return self.pieces[self._piece_index(x)](x)

    def _table(self, k: int) -> tuple[list[Polynomial], list[float], list[float]]:
        """(A_i, A_i(x_i), integral of x**k * p over [lo, x_i]) per piece i."""
        table = self._tables.get(k)
        if table is None:
            antis = [p.shift_up(k).antiderivative() for p in self.pieces]
            starts = [anti(x0) for anti, x0 in zip(antis, self.breakpoints)]
            prefix = [0.0]
            for anti, start, x1 in zip(antis, starts, self.breakpoints[1:]):
                prefix.append(prefix[-1] + anti(x1) - start)
            table = self._tables[k] = (antis, starts, prefix)
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

    def running_poly(self, k: int, i: int) -> Polynomial:
        """The polynomial equal to ``cum_moment(k, x)`` for x on piece i."""
        antis, starts, prefix = self._table(k)
        return antis[i] + Polynomial([prefix[i] - starts[i]])

    def moment(self, k: int, lo: float, hi: float) -> float:
        """Exact value of the integral of x**k * p(x) over [lo, hi]."""
        if lo > hi:
            raise DomainError("lo > hi")
        if lo < self.lo - 1e-12 * (1 + abs(self.lo)) or hi > self.hi + 1e-12 * (1 + abs(self.hi)):
            raise DomainError(f"[{lo!r}, {hi!r}] outside domain [{self.lo!r}, {self.hi!r}]")
        lo = min(max(lo, self.lo), self.hi)
        hi = min(max(hi, self.lo), self.hi)
        return self.cum_moment(k, hi) - self.cum_moment(k, lo)

    def scale(self, c: float) -> "PiecewisePolynomial":
        # c * p is continuous wherever p is; re-checking would hold the
        # scaled mismatch to the unscaled absolute tolerance
        out = PiecewisePolynomial(self.breakpoints, [p.scale(c) for p in self.pieces])
        out.continuous = self.continuous
        return out

    def coeff_scale(self) -> float:
        return max((p.coeff_scale() for p in self.pieces), default=0.0)

    def __repr__(self) -> str:
        return (f"PiecewisePolynomial(breakpoints={list(self.breakpoints)!r}, "
                f"pieces={list(self.pieces)!r})")


def reparametrize(pp: PiecewisePolynomial, s: float, t: float) -> PiecewisePolynomial:
    """Return the piecewise polynomial u -> pp(s*u + t) on the preimage domain.

    Used for the change of variables between [a, b] and [0, 1] and, with
    s = -1, t = 1, for reflecting a target about the midpoint of [0, 1].
    Rounding can map adjacent breakpoints to one double; the piece between
    them then has zero width and is dropped.
    """
    if s == 0.0:
        raise ValueError("s must be nonzero")
    new_bps = [(x - t) / s for x in pp.breakpoints]
    new_pieces = [p.compose_affine(s, t) for p in pp.pieces]
    if s < 0:
        new_bps.reverse()
        new_pieces.reverse()
    keep = [i for i in range(len(new_pieces)) if new_bps[i] < new_bps[i + 1]]
    out = PiecewisePolynomial([new_bps[0]] + [new_bps[i + 1] for i in keep],
                              [new_pieces[i] for i in keep])
    # pp(s*u + t) is continuous wherever pp is; re-checking would hold the
    # rounding of the composed coefficients to the absolute tolerance
    out.continuous = pp.continuous
    return out


# ---------------------------------------------------------------------------
# real-root isolation (Sturm sequence + bisection + Newton polish)
# ---------------------------------------------------------------------------

def _strip_tiny(coeffs: list[float]) -> list[float]:
    """Drop leading coefficients of size <= 1e-14 (coefficients are
    normalized to max 1 in the Sturm chain)."""
    out = list(coeffs)
    while out and abs(out[-1]) <= 1e-14:
        out.pop()
    return out


def _poly_rem(num: list[float], den: list[float]) -> list[float]:
    """Remainder of num / den, both ascending coefficient lists."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    while len(num) - 1 >= dn and num:
        k = len(num) - 1 - dn
        factor = num[-1] / lead
        for i in range(dn + 1):
            num[k + i] -= factor * den[i]
        num.pop()
        num = _strip_tiny(num)
    return num


def _sturm_chain(coeffs: list[float]) -> list[list[float]]:
    scale = max(abs(c) for c in coeffs)
    # a negligible leading coefficient puts a root near infinity, and the
    # remainder sequence then loses roots inside the interval
    f = _strip_tiny([c / scale for c in coeffs])
    chain = [f]
    d = [k * c for k, c in enumerate(f)][1:]
    d = _strip_tiny(d)
    if d:
        chain.append(d)
        while True:
            rem = _poly_rem(chain[-2], chain[-1])
            rem = [-c for c in rem]
            rem = _strip_tiny(rem)
            if not rem:
                break
            chain.append(rem)
            if len(rem) == 1:
                break
    return chain


def _eval_asc(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_variations(chain: list[list[float]], x: float) -> int:
    count = 0
    prev = 0
    for cs in chain:
        v = _eval_asc(cs, x)
        s = 0 if v == 0.0 else (1 if v > 0 else -1)
        if s != 0:
            if prev != 0 and s != prev:
                count += 1
            prev = s
    return count


def _refine_root(p: Polynomial, dp: Polynomial, lo: float, hi: float) -> float:
    flo = p(lo)
    fhi = p(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi < 0:
        # bisection until the bracket is tight, then Newton
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-14 * (1.0 + abs(mid)):
                break
            fm = p(mid)
            if fm == 0.0:
                return mid
            if flo * fm < 0:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
        x = 0.5 * (lo + hi)
    else:
        x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        fx = p(x)
        dfx = dp(x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x_new = x - step
        if not (lo - (hi - lo) <= x_new <= hi + (hi - lo)):
            break
        x = x_new
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    return x


def roots_in(p: Polynomial, lo: float, hi: float, tol: float) -> list[float]:
    """All real roots of ``p`` in [lo, hi], multiplicities collapsed.

    Sturm-sequence isolation with interval bisection, then Newton polish.
    Every returned root r satisfies |p(r)| <= tol * max|coeff|.  Raises
    IdenticallyZeroError for the zero polynomial (the caller must handle
    that degenerate case itself).
    """
    if p.is_zero:
        raise IdenticallyZeroError("polynomial identically zero on interval")
    if not lo < hi:
        raise DomainError("need lo < hi")
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = p.coeff_scale()
    if p.degree() == 0:
        return []

    chain = _sturm_chain(list(p.coeffs))
    dp = p.derivative()

    def count(a: float, b: float) -> int:
        return _sign_variations(chain, a) - _sign_variations(chain, b)

    found: list[float] = []
    # include an endpoint root explicitly; Sturm counts (a, b] only
    if abs(p(lo)) <= tol * scale:
        found.append(lo)

    stack = [(lo, hi, count(lo, hi))]
    min_width = max(tol, 1e-13) * max(1.0, abs(lo), abs(hi))
    while stack:
        a, b, n = stack.pop()
        if n <= 0:
            continue
        if n == 1 or b - a <= min_width:
            found.append(_refine_root(p, dp, a, b))
            if n > 1:
                # unresolved cluster: keep looking either side of the root
                r = found[-1]
                for aa, bb in ((a, r - min_width), (r + min_width, b)):
                    if aa < bb:
                        m = count(aa, bb)
                        if m > 0:
                            stack.append((aa, bb, m))
            continue
        mid = 0.5 * (a + b)
        nl = count(a, mid)
        stack.append((a, mid, nl))
        stack.append((mid, b, n - nl))

    found = [r for r in found if lo - min_width <= r <= hi + min_width
             and abs(p(r)) <= tol * max(scale, 1e-300)]
    return collapse_roots(min(max(r, lo), hi) for r in found)


def collapse_roots(roots: Iterable[float]) -> list[float]:
    """The roots sorted, dropping each one closer than ROOT_CLUSTER_TOL to
    the last one kept."""
    out: list[float] = []
    for r in sorted(roots):
        if not (out and r - out[-1] < ROOT_CLUSTER_TOL):
            out.append(r)
    return out
