"""Adaptive quadrature backends.

Two independent schemes are kept side by side on purpose: an adaptive
Simpson rule and a globally adaptive Gauss-Kronrod (G7/K15) rule.  Risk
certificates are cross-checked between them, so neither may delegate to
the other.  Tolerances are absolute.

``adaptive_simpson_vec`` applies the same Simpson rule to vector-valued
integrands on numpy arrays, for the smoothed-gradient oracle
``landscape.grad_smooth``.  It bisects level by level: the integrand takes
every new point of a level as one 1-D array and returns a
``(len(xs), dim)`` array, and no level may hold more than
``MAX_LIVE_PANELS`` panels.  The scalar backends take one point per call.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["adaptive_simpson", "adaptive_gauss_kronrod", "adaptive_simpson_vec"]

DEFAULT_TOL = 1e-12
MAX_DEPTH = 40
# live panels of one level of the vector Simpson engine; sharply smoothed
# gradient integrands need about 150
MAX_LIVE_PANELS = 2 ** 16

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


def _eval_rows(f, xs: np.ndarray, dim: int) -> np.ndarray:
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != (len(xs), dim):
        raise ValueError(f"integrand returned shape {vals.shape}, "
                         f"expected {(len(xs), dim)}")
    if not np.isfinite(vals).all():
        x = float(xs[np.argmin(np.isfinite(vals).all(axis=1))])
        raise DomainError(f"integrand is not finite at x={x!r}")
    return vals


def _simpson_rows(x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """``_simpson`` of each panel (lo, m, hi) in the last axis of x, with
    f at those points in the second-to-last axis of fx."""
    h = (x[..., 2] - x[..., 0]) / 6.0
    return h[..., None] * (fx[..., 0, :] + 4.0 * fx[..., 1, :] + fx[..., 2, :])


def _fsum_columns(rows: list[np.ndarray]) -> list[float]:
    return [math.fsum(col) for col in np.concatenate(rows).T.tolist()]


# a bisected panel's points (lo, lm, m, rm, hi) -> its two children's (lo, m, hi)
_HALVES = np.array([[0, 1, 2], [2, 3, 4]])


def adaptive_simpson_vec(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                         dim: int, tol: float,
                         breakpoints: Iterable[float] | None = None,
                         max_depth: int = MAX_DEPTH + 15) -> list[float]:
    """Adaptive Simpson for vector-valued integrands (max-norm error).

    Used for smoothed-gradient integrals, whose components share the
    expensive network evaluations.  The extra depth headroom copes with
    the ~1/r transition width of sharply smoothed activations.

    ``f`` takes a 1-D float64 array of points and returns an array of
    shape ``(len(xs), dim)``.  The engine is level-synchronous: it keeps
    the live panels of a bisection level in arrays and calls ``f`` once
    per level, at all their new midpoints, after one first call at the
    panel ends and midpoints; so at most ``max_depth + 2`` calls.  Each
    panel follows the recursive rule of ``adaptive_simpson``: tol is split
    evenly over the panels between breakpoints and halved per level; a
    panel is accepted when the max norm of ``left + right - whole`` is at
    most 15 tol, with the value ``left + right + delta / 15``; and a
    child's midpoint is its parent's quarter point, the same double.  The
    accepted panels are summed per component with ``math.fsum``, which
    rounds once, so the result does not depend on the order of the panels.

    Raises ValueError unless tol > 0, and DomainError, naming the point,
    if ``f`` returns a non-finite value.  Raises AccuracyError when a
    panel is unconverged after ``max_depth`` levels or the next level
    would hold more than ``MAX_LIVE_PANELS`` panels; it carries the
    estimate of the whole integral (the accepted panels plus the
    unconverged panels' estimates) and the sum of the unconverged panels'
    error estimates.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    pts = np.array(_split_points(a, b, breakpoints))
    n = len(pts) - 1
    if n < 1:
        return [0.0] * dim
    mids = 0.5 * (pts[:-1] + pts[1:])
    fp = _eval_rows(f, np.concatenate((pts, mids)), dim)
    # one row per live panel: its points (lo, m, hi), f there, its Simpson value
    x = np.stack((pts[:-1], mids, pts[1:]), axis=1)
    fx = np.stack((fp[:n], fp[n + 1:], fp[1:n + 1]), axis=1)
    whole = _simpson_rows(x, fx)
    tol_ = tol / n
    accepted = []
    for depth in range(max(max_depth, 0), -1, -1):
        k = len(x)
        quarter = 0.5 * (x[:, :2] + x[:, 1:])  # (lm, rm)
        x5 = np.empty((k, 5))
        x5[:, 0::2] = x
        x5[:, 1::2] = quarter
        f5 = np.empty((k, 5, dim))
        f5[:, 0::2] = fx
        f5[:, 1::2] = _eval_rows(f, quarter.ravel(), dim).reshape(k, 2, dim)
        # each panel's halves (lo, lm, m) and (m, rm, hi): (k, 2, 3) points
        x, fx = x5.take(_HALVES, axis=1), f5.take(_HALVES, axis=1)
        halves = _simpson_rows(x, fx)  # (k, 2, dim): left, right
        both = halves[:, 0] + halves[:, 1]
        delta = both - whole
        err = np.abs(delta).max(axis=1)
        done = err <= 15.0 * tol_
        est = both + delta / 15.0
        accepted.append(est[done])
        live = np.flatnonzero(~done)
        if not len(live):
            break
        if depth == 0 or 2 * len(live) > MAX_LIVE_PANELS:
            accepted.append(est[live])
            raise AccuracyError(
                "vector Simpson depth exhausted" if depth == 0
                else f"vector Simpson level exceeds {MAX_LIVE_PANELS} panels",
                estimate=_fsum_columns(accepted),
                error=math.fsum(err[live].tolist()) / 15.0)
        x = x[live].reshape(-1, 3)
        fx = fx[live].reshape(-1, 3, dim)
        whole = halves[live].reshape(-1, dim)
        tol_ /= 2.0
    return _fsum_columns(accepted)
