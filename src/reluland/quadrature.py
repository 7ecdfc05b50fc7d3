"""Adaptive quadrature backends.

Two independent schemes are kept side by side on purpose: an adaptive
Simpson rule and a globally adaptive Gauss-Kronrod (G7/K15) rule.  Risk
certificates are cross-checked between them, so neither may delegate to
the other.  Tolerances are absolute.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from .errors import AccuracyError

__all__ = ["adaptive_simpson", "adaptive_gauss_kronrod", "adaptive_simpson_vec"]

DEFAULT_TOL = 1e-12
MAX_DEPTH = 40

# (node, Gauss-7 weight, Kronrod-15 weight) on [-1, 1]
_G7K15 = (
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
    (+0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (+0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (+0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
)


def _split_points(a: float, b: float, breakpoints: Iterable[float] | None):
    pts = [a, b]
    if breakpoints:
        pts.extend(x for x in breakpoints if a < x < b)
    pts = sorted(set(pts))
    return pts


def _gk_panel(f: Callable[[float], float], a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    g = 0.0
    k = 0.0
    for z, wg, wk in _G7K15:
        fz = f(mid + half * z)
        g += wg * fz
        k += wk * fz
    g *= half
    k *= half
    d = abs(k - g)
    err = min(d, (200.0 * d) ** 1.5) if d > 0 else 0.0
    return k, err


def adaptive_gauss_kronrod(f: Callable[[float], float], a: float, b: float,
                           tol: float = DEFAULT_TOL,
                           breakpoints: Iterable[float] | None = None,
                           max_panels: int = 8192) -> float:
    """Globally adaptive G7/K15 integration of f over [a, b].

    The worst panel is bisected until the summed error estimate falls
    below tol.  Raises AccuracyError (carrying the best estimate) if the
    panel budget is exhausted first.
    """
    if a == b:
        return 0.0
    pts = _split_points(a, b, breakpoints)
    heap = []  # (-err, lo, hi, value)
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(pts, pts[1:]):
        val, err = _gk_panel(f, lo, hi)
        heapq.heappush(heap, (-err, lo, hi, val))
        total += val
        total_err += err
    panels = len(heap)
    while total_err > tol and panels < max_panels:
        neg_err, lo, hi, val = heapq.heappop(heap)
        total -= val
        total_err += neg_err  # neg_err = -err
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; keep its estimate
            total += val
            total_err -= neg_err
            heapq.heappush(heap, (0.0, lo, hi, val))
            continue
        for lo2, hi2 in ((lo, mid), (mid, hi)):
            v, e = _gk_panel(f, lo2, hi2)
            heapq.heappush(heap, (-e, lo2, hi2, v))
            total += v
            total_err += e
        panels += 1
    if total_err > tol:
        raise AccuracyError(
            f"Gauss-Kronrod did not reach tol={tol:g} (err~{total_err:g})",
            estimate=total, error=total_err)
    return total


def _simpson(a, fa, b, fb, fm):
    return (b - a) * (fa + 4.0 * fm + fb) / 6.0


def _adaptive_simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise AccuracyError("Simpson recursion depth exhausted",
                            estimate=left + right + delta / 15.0,
                            error=abs(delta) / 15.0)
    return (_adaptive_simpson_rec(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
            + _adaptive_simpson_rec(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = DEFAULT_TOL,
                     breakpoints: Iterable[float] | None = None,
                     max_depth: int = MAX_DEPTH) -> float:
    """Adaptive Simpson integration of f over [a, b] to absolute tol."""
    if a == b:
        return 0.0
    pts = _split_points(a, b, breakpoints)
    n = len(pts) - 1
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        fa, fb = f(lo), f(hi)
        m = 0.5 * (lo + hi)
        fm = f(m)
        whole = _simpson(lo, fa, hi, fb, fm)
        total += _adaptive_simpson_rec(f, lo, fa, hi, fb, m, fm, whole,
                                       tol / n, max_depth)
    return total


def adaptive_simpson_vec(f: Callable[[float], list[float]], a: float, b: float,
                         dim: int, tol: float,
                         breakpoints: Iterable[float] | None = None,
                         max_depth: int = MAX_DEPTH + 15) -> list[float]:
    """Adaptive Simpson for vector-valued integrands (max-norm error).

    Used for smoothed-gradient integrals, whose components share the
    expensive network evaluations.  The extra depth headroom copes with
    the ~1/r transition width of sharply smoothed activations.
    """

    def simp(lo, flo, hi, fhi, fm):
        h = (hi - lo) / 6.0
        return [h * (flo[i] + 4.0 * fm[i] + fhi[i]) for i in range(dim)]

    def rec(lo, flo, hi, fhi, m, fm, whole, tol_, depth):
        lm = 0.5 * (lo + m)
        rm = 0.5 * (m + hi)
        flm = f(lm)
        frm = f(rm)
        left = simp(lo, flo, m, fm, flm)
        right = simp(m, fm, hi, fhi, frm)
        delta = [left[i] + right[i] - whole[i] for i in range(dim)]
        err = max(abs(d) for d in delta)
        if err <= 15.0 * tol_ or depth <= 0:
            if depth <= 0 and err > 15.0 * tol_:
                raise AccuracyError("vector Simpson depth exhausted",
                                    estimate=[left[i] + right[i] + delta[i] / 15.0
                                              for i in range(dim)],
                                    error=err / 15.0)
            return [left[i] + right[i] + delta[i] / 15.0 for i in range(dim)]
        lpart = rec(lo, flo, m, fm, lm, flm, left, tol_ / 2.0, depth - 1)
        rpart = rec(m, fm, hi, fhi, rm, frm, right, tol_ / 2.0, depth - 1)
        return [lpart[i] + rpart[i] for i in range(dim)]

    pts = _split_points(a, b, breakpoints)
    n = len(pts) - 1
    total = [0.0] * dim
    for lo, hi in zip(pts, pts[1:]):
        flo, fhi = f(lo), f(hi)
        m = 0.5 * (lo + hi)
        fm = f(m)
        whole = simp(lo, flo, hi, fhi, fm)
        part = rec(lo, flo, hi, fhi, m, fm, whole, tol / n, max_depth)
        total = [total[i] + part[i] for i in range(dim)]
    return total
