"""Target functions for the L2 regression risk on an interval [a, b].

Two kinds are supported and share one duck-typed interface:

* ``PolyTarget`` wraps a continuous piecewise polynomial; every integral
  is exact, read from the running-integral tables of ``polyalg``'s
  ``PiecewisePolynomial`` (of f for ``cum_int_xint``, of f**2 for the
  domain integral that ``sq_integral`` returns).
* ``BenchmarkTarget`` is the Lipschitz three-piece function on [0, 1]
  (affine / algebraic / quadratic across [0, alpha], (alpha, beta],
  (beta, 1]) rescaled to [a, b].  Its running integrals of f and x*f have
  closed forms; only the integral of f**2 needs quadrature.

``cum_int_xint(x)`` returns the running integrals of f and x*f up to x,
so that risk and gradient evaluations stay closed-form and fast;
``sq_integral(tol, method)`` is the integral of f**2 over the whole
domain.  Each constructor rejects non-finite fields and a target whose
integral of f**2 overflows, so ``scaled(c)`` and the JSON parser inherit
the checks.
"""

from __future__ import annotations

import json
import math
from typing import Union

import numpy as np

from .errors import DomainError
from .polyalg import PiecewisePolynomial, Polynomial
from .quadrature import adaptive_gauss_kronrod, adaptive_simpson

__all__ = [
    "BenchmarkTarget",
    "PolyTarget",
    "Target",
    "parse_target_json",
    "target_to_json",
]

DEFAULT_SQ_TOL = 1e-12


class PolyTarget:
    """Continuous piecewise-polynomial target."""

    def __init__(self, pp: PiecewisePolynomial):
        if not all(map(math.isfinite, (*pp.breakpoints,
                                       *(c for p in pp.pieces for c in p.coeffs)))):
            raise DomainError("breakpoints and coefficients must be finite")
        if not pp.continuous:
            pp = PiecewisePolynomial(pp.breakpoints, pp.pieces, continuous=True)
        self.pp = pp
        sq = PiecewisePolynomial(pp.breakpoints, [p * p for p in pp.pieces])
        self._sq_int = sq.moment(0, pp.lo, pp.hi)
        # finite coefficients can still overflow every risk evaluation
        if not math.isfinite(self._sq_int):
            raise DomainError("the integral of f**2 over the domain is not finite")

    @property
    def kind(self) -> str:
        return "piecewise_poly"

    @property
    def domain(self) -> tuple[float, float]:
        return self.pp.lo, self.pp.hi

    def breakpoints(self) -> tuple[float, ...]:
        return self.pp.breakpoints

    def _check(self, x: float) -> None:
        if x < self.pp.lo or x > self.pp.hi:
            raise DomainError(f"{x!r} outside target domain")

    def eval(self, x: float) -> float:
        return self.pp.eval(x)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """``eval`` at every point of a float64 array, bit for bit: interior
        breakpoints belong to the right piece, b to the last."""
        pp = self.pp
        if xs.size and (xs.min() < pp.lo or xs.max() > pp.hi):
            raise DomainError("a point lies outside the target domain")
        piece = np.searchsorted(pp.breakpoints[1:-1], xs, side="right")
        out = np.empty(len(xs))
        for i, p in enumerate(pp.pieces):
            on = piece == i
            out[on] = p(xs[on])
        return out

    def cum_int_xint(self, x: float) -> tuple[float, float]:
        """(cum_int(x), cum_xint(x)) from one domain check."""
        self._check(x)
        return self.pp.cum_moment(0, x), self.pp.cum_moment(1, x)

    def cum_int(self, x: float) -> float:
        return self.cum_int_xint(x)[0]

    def cum_xint(self, x: float) -> float:
        return self.cum_int_xint(x)[1]

    def sq_integral(self, tol: float = DEFAULT_SQ_TOL, method: str = "exact") -> float:
        """Integral of f**2 over the domain, exact regardless of tol and method."""
        return self._sq_int

    def scaled(self, c: float) -> "PolyTarget":
        return PolyTarget(self.pp.scale(c))

    def __repr__(self) -> str:
        return f"PolyTarget({self.pp!r})"


def _mid_eval(u: float, sqrt=math.sqrt) -> float:
    # sqrt=np.sqrt evaluates a float64 array
    return (3.0 * u * u - 1.0) / (4.0 * sqrt(1.0 - u) * (1.0 + 3.0 * u) ** 1.5)


def _mid_anti(u: float) -> float:
    # derivative is _mid_eval
    return -u * math.sqrt(1.0 - u) / (4.0 * math.sqrt(1.0 + 3.0 * u))


def _mid_xanti(u: float) -> float:
    # derivative is u * _mid_eval(u)
    return -(3.0 * u * u + 2.0 * u + 1.0) * math.sqrt(1.0 - u) / (24.0 * math.sqrt(1.0 + 3.0 * u))


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
            if abs(lhs - rhs) > 1e-12 * (1.0 + abs(lhs) + abs(rhs)):
                raise DomainError(f"target discontinuous at u={u0!r}")

        la0 = self._left.antiderivative()
        la1 = self._left.shift_up(1).antiderivative()
        ra0 = self._right.antiderivative()
        ra1 = self._right.shift_up(1).antiderivative()
        self._left_anti = (la0, la1)
        self._right_anti = (ra0, ra1)
        # antiderivatives at the left end of each piece, for _cum01
        self._left_start = (la0(0.0), la1(0.0))
        self._mid_start = (_mid_anti(al), _mid_xanti(al))
        self._right_start = (ra0(be), ra1(be))
        # running integrals of f and u*f up to alpha and beta (unscaled)
        self._F_alpha = la0(al) - la0(0.0)
        self._G_alpha = la1(al) - la1(0.0)
        self._F_beta = self._F_alpha + _mid_anti(be) - _mid_anti(al)
        self._G_beta = self._G_alpha + _mid_xanti(be) - _mid_xanti(al)
        self._sq_cache: dict[tuple[float, str], float] = {}

    @property
    def kind(self) -> str:
        return "benchmark"

    @property
    def domain(self) -> tuple[float, float]:
        return self.a, self.b

    def breakpoints(self) -> tuple[float, ...]:
        w = self.b - self.a
        return (self.a, self.a + self.alpha * w, self.a + self.beta * w, self.b)

    def _to_u(self, x: float) -> float:
        if x < self.a or x > self.b:
            raise DomainError(f"{x!r} outside target domain [{self.a!r}, {self.b!r}]")
        u = (x - self.a) / (self.b - self.a)
        return min(max(u, 0.0), 1.0)

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
        if xs.size and (xs.min() < self.a or xs.max() > self.b):
            raise DomainError(f"a point lies outside the target domain [{self.a!r}, {self.b!r}]")
        # in [0, 1] without _to_u's clamp: rounding is monotone, and
        # (b - a) / (b - a) is 1
        u = (xs - self.a) / (self.b - self.a)
        out = np.where(u <= self.alpha, self._left(u), self._right(u))
        mid = (u > self.alpha) & (u <= self.beta)
        out[mid] = _mid_eval(u[mid], np.sqrt)
        return self.scale * out

    def _cum01(self, u: float) -> tuple[float, float]:
        """Unscaled running integrals of f and u*f over [0, u]."""
        if u <= self.alpha:
            a0, a1 = self._left_anti
            s0, s1 = self._left_start
            return a0(u) - s0, a1(u) - s1
        if u <= self.beta:
            s0, s1 = self._mid_start
            return (self._F_alpha + _mid_anti(u) - s0,
                    self._G_alpha + _mid_xanti(u) - s1)
        a0, a1 = self._right_anti
        s0, s1 = self._right_start
        return self._F_beta + a0(u) - s0, self._G_beta + a1(u) - s1

    def cum_int_xint(self, x: float) -> tuple[float, float]:
        """(cum_int(x), cum_xint(x)) from one normalization and piece choice."""
        w = self.b - self.a
        F, G = self._cum01(self._to_u(x))
        return self.scale * w * F, self.scale * (self.a * w * F + w * w * G)

    def cum_int(self, x: float) -> float:
        return self.cum_int_xint(x)[0]

    def cum_xint(self, x: float) -> float:
        return self.cum_int_xint(x)[1]

    def unit_sq_integral(self, tol: float = DEFAULT_SQ_TOL,
                         method: str = "gauss_kronrod") -> float:
        """Integral over [0, 1] of the unscaled normalized target squared,
        by adaptive quadrature to absolute tolerance tol.

        The squared middle piece is a rational function without a closed
        form here, so this is the one quadrature-backed quantity; it is
        cached per (tol, method).
        """
        if not tol > 0:
            raise ValueError("tol must be positive")
        key = (tol, method)
        val = self._sq_cache.get(key)
        if val is None:
            g = self.eval_normalized
            if method == "gauss_kronrod":
                quad = adaptive_gauss_kronrod
            elif method == "simpson":
                quad = adaptive_simpson
            else:
                raise ValueError(f"unknown quadrature method {method!r}")
            val = quad(lambda u: g(u) ** 2, 0.0, 1.0, tol, breakpoints=(self.alpha, self.beta))
            self._sq_cache[key] = val
        return val

    def sq_integral(self, tol: float = DEFAULT_SQ_TOL, method: str = "gauss_kronrod") -> float:
        """Integral of f**2 over [a, b]: scale**2 (b - a) times
        ``unit_sq_integral(tol, method)``, so tol bounds the normalized
        integral, whatever the scale and the domain."""
        return self.scale * self.scale * (self.b - self.a) * self.unit_sq_integral(tol, method)

    def scaled(self, c: float) -> "BenchmarkTarget":
        return BenchmarkTarget(self.alpha, self.beta, self.a, self.b, self.scale * c)

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
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed target JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DomainError("target spec must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "piecewise_poly":
        try:
            bps = [float(x) for x in doc["breakpoints"]]
            pieces = [Polynomial([float(c) for c in cs]) for cs in doc["pieces"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad piecewise_poly spec: {exc}") from exc
        try:
            return PolyTarget(PiecewisePolynomial(bps, pieces, continuous=True))
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
    if kind == "benchmark":
        try:
            fields = [float(doc["alpha"]), float(doc["beta"]), float(doc.get("a", 0.0)),
                      float(doc.get("b", 1.0)), float(doc.get("scale", 1.0))]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad benchmark spec: {exc}") from exc
        return BenchmarkTarget(*fields)
    raise DomainError(f"unknown target kind {kind!r}")


def target_to_json(t: Target) -> str:
    if isinstance(t, PolyTarget):
        doc = {"kind": "piecewise_poly",
               "breakpoints": list(t.pp.breakpoints),
               "pieces": [list(p.coeffs) for p in t.pp.pieces]}
    else:
        doc = {"kind": "benchmark", "alpha": t.alpha, "beta": t.beta,
               "a": t.a, "b": t.b, "scale": t.scale}
    return json.dumps(doc)
