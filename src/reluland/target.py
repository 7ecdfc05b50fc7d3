"""Target functions for the L2 regression risk on an interval [a, b].

Two kinds are supported and share one duck-typed interface:

* ``PolyTarget`` wraps a continuous piecewise polynomial; every integral
  is exact, read from the running-integral tables of ``polyalg``'s
  ``PiecewisePolynomial`` (of f for ``cum_int_xint``, of f**2 for the
  domain integral that ``sq_integral`` returns).
* ``BenchmarkTarget`` is the Lipschitz three-piece function on [0, 1]
  (affine / algebraic / quadratic across [0, alpha], (alpha, beta],
  (beta, 1]) rescaled to [a, b].  Its running integrals of f and x*f are
  read from ``polyalg``'s running-integral tables of its three closed-form
  pieces; only the integral of f**2 needs quadrature.

``cum_int_xint(x)`` returns the running integrals of f and x*f up to x,
so that risk and gradient evaluations stay closed-form and fast.  It is
the gradient's hot read, so it runs in one frame: the domain check, the
piece choice and Horner's rule over each antiderivative's coefficients,
stored from the top, with the operations of ``Polynomial.__call__``
(calling the stored polynomials after ``_to_u`` instead ran the
``ensemble`` benchmark 7.6% slower; ``BENCH_34.json``).
``end_ints`` holds its values at a and b, and ``end_powers`` the squares
and cubes of a and b that every gradient reads, both computed once by
the constructor; ``sq_integral(method)`` is the integral of f**2 over the
whole domain, and both kinds accept exactly the ``QUAD_METHODS`` names.
Each constructor rejects non-finite fields, pieces that do not meet and a
target whose integral of f**2 overflows, so the JSON parser inherits the
checks; every read refuses a point outside the domain, NaN included.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from typing import Union

import numpy as np

from .errors import DomainError, json_number
from .polyalg import PiecewisePolynomial, Polynomial, _running_table
from .quadrature import adaptive_gauss_kronrod, adaptive_simpson

__all__ = [
    "BenchmarkTarget",
    "PolyTarget",
    "Target",
    "parse_target_json",
]

# absolute tolerance of the quadrature of the normalized integral of f**2
SQ_TOL = 1e-12
# the quadrature backends that sq_integral's method names
QUAD_METHODS = ("gauss_kronrod", "simpson")


def _check_method(method: str) -> None:
    if method not in QUAD_METHODS:
        raise DomainError(f"unknown quadrature method {method!r}")


def _discontinuous(left: float, right: float, terms: float = 0.0) -> bool:
    """Whether two one-sided values at a breakpoint differ by more than
    1e-12 relative to their size plus ``terms``, the absolute size of the
    terms summed to get them.  A NaN gap is not a discontinuity; the
    callers' finiteness checks reject it."""
    return abs(left - right) > 1e-12 * (1.0 + abs(left) + abs(right) + terms)


class PolyTarget:
    """Continuous piecewise-polynomial target.  Adjacent pieces must meet at
    each interior breakpoint, where the rounding of terms that cancel is no
    jump, so a reflected or rescaled target is accepted with the original."""

    def __init__(self, pp: PiecewisePolynomial):
        if not all(map(math.isfinite, (*pp.breakpoints,
                                       *(c for p in pp.pieces for c in p.coeffs)))):
            raise DomainError("breakpoints and coefficients must be finite")
        for x, p, q in zip(pp.breakpoints[1:-1], pp.pieces, pp.pieces[1:]):
            # sum of |c_k| |x|**k over both pieces; Horner gives inf, not OverflowError
            terms = sum(Polynomial([abs(c) for c in r.coeffs])(abs(x)) for r in (p, q))
            if _discontinuous(p(x), q(x), terms):
                raise DomainError(f"discontinuity at breakpoint {x!r}")
        self.pp = pp
        self.domain = pp.lo, pp.hi
        self._cuts = pp.breakpoints[1:-1]
        # one row per piece: A0's coefficients from the top, A0 at the
        # piece's start, the F prefix, and the same three for A1 and G
        self._rows = tuple((a0.coeffs[::-1], s0, f0, a1.coeffs[::-1], s1, g0) for
                           a0, s0, f0, a1, s1, g0 in zip(*pp._table(0), *pp._table(1)))
        sq = PiecewisePolynomial(pp.breakpoints, [p * p for p in pp.pieces])
        # the running-integral difference can round below 0; the integral cannot
        self._sq_int = max(sq.moment(0, pp.lo, pp.hi), 0.0)
        # finite coefficients can still overflow every risk evaluation
        if not math.isfinite(self._sq_int):
            raise DomainError("the integral of f**2 over the domain is not finite")
        self.end_ints = (self.cum_int_xint(pp.lo), self.cum_int_xint(pp.hi))
        self.end_powers = _end_powers(pp.lo, pp.hi)

    def breakpoints(self) -> tuple[float, ...]:
        return self.pp.breakpoints

    def eval(self, x: float) -> float:
        return self.pp.eval(x)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """``eval`` at every point of a float64 array, bit for bit: interior
        breakpoints belong to the right piece, b to the last."""
        pp = self.pp
        if xs.size and not (pp.lo <= xs.min() and xs.max() <= pp.hi):  # NaN fails too
            raise DomainError("a point lies outside the target domain")
        piece = np.searchsorted(pp.breakpoints[1:-1], xs, side="right")
        out = np.empty(len(xs))
        for i, p in enumerate(pp.pieces):
            on = piece == i
            out[on] = p(xs[on])
        return out

    def cum_int_xint(self, x: float) -> tuple[float, float]:
        """(cum_int(x), cum_xint(x)): pp.cum_moment(0, x) and
        pp.cum_moment(1, x) from one domain check and one piece lookup
        (interior breakpoints belong to the right piece, b to the last),
        each antiderivative by Horner's rule as ``Polynomial`` runs it."""
        lo, hi = self.domain
        if not lo <= x <= hi:  # NaN fails too
            raise DomainError(f"{x!r} outside target domain")
        c0, s0, f0, c1, s1, g0 = self._rows[bisect_right(self._cuts, x)]
        A0 = A1 = 0.0
        for c in c0:
            A0 = A0 * x + c
        for c in c1:
            A1 = A1 * x + c
        return f0 + A0 - s0, g0 + A1 - s1

    def cum_int(self, x: float) -> float:
        return self.cum_int_xint(x)[0]

    def cum_xint(self, x: float) -> float:
        return self.cum_int_xint(x)[1]

    def sq_integral(self, method: str = "gauss_kronrod") -> float:
        """Integral of f**2 over the domain, exact whatever the method."""
        _check_method(method)
        return self._sq_int

    def __repr__(self) -> str:
        return f"PolyTarget({self.pp!r})"


def _mid_eval(u: float, sqrt=math.sqrt) -> float:
    # sqrt=np.sqrt evaluates a float64 array
    return (3.0 * u * u - 1.0) / (4.0 * sqrt(1.0 - u) * (1.0 + 3.0 * u) ** 1.5)


def _mid_antis(u: float) -> tuple[float, float]:
    """Antiderivatives of _mid_eval(u) and of u * _mid_eval(u), from one
    pair of square roots."""
    r, d = math.sqrt(1.0 - u), math.sqrt(1.0 + 3.0 * u)
    return -u * r / (4.0 * d), -(3.0 * u * u + 2.0 * u + 1.0) * r / (24.0 * d)


def _end_powers(a: float, b: float):
    """((a**2, a**3), (b**2, b**3)), the powers of the first and last
    geometry node that every gradient reads; None once a cube overflows,
    past about 5.6e102 (every node lies in [a, b], so no other node's
    cube does when these do not)."""
    try:
        return (a ** 2, a ** 3), (b ** 2, b ** 3)
    except OverflowError:
        return None


class BenchmarkTarget:
    """The three-piece Lipschitz benchmark target rescaled from [0,1] to [a,b].

    ``scale`` is an optional scalar multiplier applied pointwise; it keeps
    the closed forms intact under target rescaling.
    """

    def __init__(self, alpha: float, beta: float, a: float = 0.0, b: float = 1.0,
                 scale: float = 1.0):
        fields = [float(alpha), float(beta), float(a), float(b), float(scale)]
        if not all(map(math.isfinite, fields)):
            raise DomainError("benchmark fields must be finite")
        self.alpha, self.beta, self.a, self.b, self.scale = fields
        if not (0.0 < self.alpha < self.beta < 1.0):
            raise DomainError("need 0 < alpha < beta < 1")
        if not self.b > self.a:
            raise DomainError("need b > a")
        # the integral of f**2 is scale**2 (b - a) times the normalized one
        if not math.isfinite(self.scale * self.scale * (self.b - self.a)):
            raise DomainError("scale**2 * (b - a) is not finite")

        al, be = self.alpha, self.beta
        d_left = 4.0 * math.sqrt(1.0 - al) * (1.0 + 3.0 * al) ** 1.5
        d_right = 4.0 * (1.0 - be) ** 2.5 * (1.0 + 3.0 * be) ** 1.5
        # polynomial pieces in the normalized coordinate u
        self._left = Polynomial([(3.0 * al * al - 4.0 * al - 1.0) / d_left, 4.0 / d_left])
        self._right = Polynomial([
            (3.0 * be ** 4 + 10.0 * be * be - 1.0) / d_right,
            -(18.0 * be * be + 8.0 * be - 2.0) / d_right,
            12.0 * be / d_right,
        ])
        # relative to the values, not to the expanded right piece's terms:
        # near beta = 1 those grow like (1 - beta)**-2.5 and cancel, so a
        # looser test would admit wrong values, risks and quadratures
        for u0, lhs, rhs in ((al, self._left(al), _mid_eval(al)),
                             (be, _mid_eval(be), self._right(be))):
            if _discontinuous(lhs, rhs):
                raise DomainError(f"target discontinuous at u={u0!r}")

        # unscaled running integrals of f and u*f on (0, alpha, beta, 1)
        bps = (0.0, al, be, 1.0)
        left0, left1 = self._left.antiderivative(), self._left.shift_up(1).antiderivative()
        right0, right1 = self._right.antiderivative(), self._right.shift_up(1).antiderivative()
        _, f_starts, f_prefix = _running_table((left0, lambda u: _mid_antis(u)[0], right0), bps)
        _, g_starts, g_prefix = _running_table((left1, lambda u: _mid_antis(u)[1], right1), bps)
        # one row per piece: A0's coefficients from the top (None on the
        # middle piece, whose A0 and A1 are _mid_antis), A0 at the piece's
        # start, the F prefix, and the same three for A1 and G
        self._rows = tuple(zip((left0.coeffs[::-1], None, right0.coeffs[::-1]), f_starts,
                               f_prefix, (left1.coeffs[::-1], None, right1.coeffs[::-1]),
                               g_starts, g_prefix))
        # cum_int_xint's factors; scale * w * F is (scale * w) * F, bit for bit
        w = self.b - self.a
        self._sw, self._aw, self._ww = self.scale * w, self.a * w, w * w
        self.domain = self.a, self.b
        self.end_ints = (self.cum_int_xint(self.a), self.cum_int_xint(self.b))
        self.end_powers = _end_powers(self.a, self.b)
        self._sq_cache: dict[str, float] = {}

    def breakpoints(self) -> tuple[float, ...]:
        w = self.b - self.a
        return (self.a, self.a + self.alpha * w, self.a + self.beta * w, self.b)

    def _to_u(self, x: float) -> float:
        if not self.a <= x <= self.b:  # NaN fails too
            raise DomainError(f"{x!r} outside target domain [{self.a!r}, {self.b!r}]")
        # in [0, 1]: rounding is monotone, and (b - a) / (b - a) is 1
        return (x - self.a) / (self.b - self.a)

    def eval_normalized(self, u: float) -> float:
        """Unscaled value of the normalized target at u in [0, 1]."""
        if u <= self.alpha:
            return self._left(u)
        if u <= self.beta:
            return _mid_eval(u)
        return self._right(u)

    def eval(self, x: float) -> float:
        return self.scale * self.eval_normalized(self._to_u(x))

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """``eval`` at every point of a float64 array, with the same pieces
        as ``eval_normalized``; the middle piece only where it is chosen,
        since it divides by zero at u = 1."""
        if xs.size and not (self.a <= xs.min() and xs.max() <= self.b):  # NaN fails too
            raise DomainError(f"a point lies outside the target domain [{self.a!r}, {self.b!r}]")
        # in [0, 1], as in _to_u
        u = (xs - self.a) / (self.b - self.a)
        out = np.where(u <= self.alpha, self._left(u), self._right(u))
        mid = (u > self.alpha) & (u <= self.beta)
        out[mid] = _mid_eval(u[mid], np.sqrt)
        return self.scale * out

    def cum_int_xint(self, x: float) -> tuple[float, float]:
        """(cum_int(x), cum_xint(x)): the unscaled running integrals F and G
        of f and u*f over [0, u] at u = _to_u(x), from one normalization
        and piece choice (as eval_normalized's), each polynomial piece by
        Horner's rule as ``Polynomial`` runs it, then scaled to [a, b]."""
        a, b = self.domain
        if not a <= x <= b:  # NaN fails too
            raise DomainError(f"{x!r} outside target domain [{a!r}, {b!r}]")
        u = (x - a) / (b - a)  # as _to_u
        if self.alpha < u <= self.beta:
            _, s0, f0, _, s1, g0 = self._rows[1]
            A0, A1 = _mid_antis(u)
        else:
            c0, s0, f0, c1, s1, g0 = self._rows[0 if u <= self.alpha else 2]
            A0 = A1 = 0.0
            for c in c0:
                A0 = A0 * u + c
            for c in c1:
                A1 = A1 * u + c
        F, G = f0 + A0 - s0, g0 + A1 - s1
        return self._sw * F, self.scale * (self._aw * F + self._ww * G)

    def cum_int(self, x: float) -> float:
        return self.cum_int_xint(x)[0]

    def cum_xint(self, x: float) -> float:
        return self.cum_int_xint(x)[1]

    def unit_sq_integral(self, method: str = "gauss_kronrod") -> float:
        """Integral over [0, 1] of the unscaled normalized target squared,
        by adaptive quadrature to absolute tolerance SQ_TOL.

        The squared middle piece is a rational function without a closed
        form here, so this is the one quadrature-backed quantity; it is
        cached per method.
        """
        val = self._sq_cache.get(method)
        if val is None:
            _check_method(method)
            g = self.eval_normalized
            quad = adaptive_gauss_kronrod if method == "gauss_kronrod" else adaptive_simpson
            val = quad(lambda u: g(u) ** 2, 0.0, 1.0, SQ_TOL, breakpoints=(self.alpha, self.beta))
            self._sq_cache[method] = val
        return val

    def sq_integral(self, method: str = "gauss_kronrod") -> float:
        """Integral of f**2 over [a, b]: scale**2 (b - a) times
        ``unit_sq_integral(method)``, so SQ_TOL bounds the normalized
        integral, whatever the scale and the domain."""
        return self.scale * self.scale * (self.b - self.a) * self.unit_sq_integral(method)

    def __repr__(self) -> str:
        return (f"BenchmarkTarget(alpha={self.alpha!r}, beta={self.beta!r}, "
                f"a={self.a!r}, b={self.b!r}, scale={self.scale!r})")


Target = Union[PolyTarget, BenchmarkTarget]


def parse_target_json(text: str) -> Target:
    """Parse a target spec document.

    Accepted shapes:
      {"kind": "piecewise_poly", "breakpoints": [...], "pieces": [[c0, c1, ...], ...]}
      {"kind": "benchmark", "alpha": ..., "beta": ..., "a": ..., "b": ..., "scale": ...}
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise DomainError(f"malformed target JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DomainError("target spec must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "piecewise_poly":
        try:
            bps = [json_number(x) for x in doc["breakpoints"]]
            pieces = [Polynomial([json_number(c) for c in cs]) for cs in doc["pieces"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"bad piecewise_poly spec: {exc}") from exc
        return PolyTarget(PiecewisePolynomial(bps, pieces))
    if kind == "benchmark":
        try:
            fields = [json_number(doc["alpha"]), json_number(doc["beta"]),
                      json_number(doc.get("a", 0.0)), json_number(doc.get("b", 1.0)),
                      json_number(doc.get("scale", 1.0))]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"bad benchmark spec: {exc}") from exc
        return BenchmarkTarget(*fields)
    raise DomainError(f"unknown target kind {kind!r}")

