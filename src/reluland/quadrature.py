"""Adaptive quadrature backends.

Two independent schemes are kept side by side on purpose: an adaptive
Simpson rule and a globally adaptive Gauss-Kronrod (G7/K15) rule.  Risk
certificates are cross-checked between them, so neither may delegate to
the other.  Tolerances are absolute.

Every failure is a ``DomainError``.  Each engine checks its input once,
in ``_split_points``: tol > 0 and finite limits a <= b (a == b integrates
to 0).  A non-finite integrand value names its point, a sum that
overflows names its panel or interval, and an engine that runs out of
panels or depth gives its estimate of the whole integral and its error
in the message.

``adaptive_simpson_vec`` applies the same Simpson rule to vector-valued
integrands on numpy arrays, for the smoothed-gradient oracle
``landscape.grad_smooth``.  It bisects level by level: the integrand takes
every new point of a level as one 1-D array and returns a
``(len(xs), dim)`` array, and no level may hold more than
``MAX_LIVE_PANELS`` panels.  ``grad_smooth`` splits its panels at each
neuron's softplus transition, so its level count does not grow with the
sharpness r and the engine needs no more depth than the scalar rule.  The
scalar backends take one point per call.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError

__all__ = ["adaptive_simpson", "adaptive_gauss_kronrod", "adaptive_simpson_vec"]

DEFAULT_TOL = 1e-12
# the Simpson rules' bisection depth and the Gauss-Kronrod panel budget
MAX_DEPTH = 40
MAX_PANELS = 8192
# live panels of one level of the vector Simpson engine; smoothed-gradient
# integrands, split at their softplus transitions, peak at 96 for r up to 1e14
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


def _split_points(a: float, b: float, breakpoints: Iterable[float] | None, tol: float):
    if not tol > 0:
        raise DomainError("tol must be positive")
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"need finite limits a <= b, got [{a!r}, {b!r}]")
    pts = [a, b]
    if breakpoints:
        pts.extend(x for x in breakpoints if a < x < b)
    return sorted(set(pts))


def _unconverged(what: str, estimate, error: float) -> DomainError:
    return DomainError(f"{what} (estimate {estimate!r}, error {error!r})")


def _gk_panel(f: Callable[[float], float], a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    g = 0.0
    k = 0.0
    for z, wg, wk in _G7K15:
        x = mid + half * z
        fz = f(x)
        if not math.isfinite(fz):
            raise DomainError(f"integrand is not finite at x={x!r}")
        g += wg * fz
        k += wk * fz
    g *= half
    k *= half
    if not (math.isfinite(g) and math.isfinite(k)):
        raise DomainError(f"integrand overflows on [{a!r}, {b!r}]")
    d = abs(k - g)
    err = min(d, (200.0 * d) ** 1.5) if d < 1.0 else d  # d >= 1: the min, no overflow
    return k, err


def adaptive_gauss_kronrod(f: Callable[[float], float], a: float, b: float,
                           tol: float = DEFAULT_TOL,
                           breakpoints: Iterable[float] | None = None) -> float:
    """Globally adaptive G7/K15 integration of f over [a, b].

    The worst panel is bisected until the summed error estimate falls
    below tol; a panel at floating-point resolution keeps its estimate and
    leaves the queue.  Fails if ``MAX_PANELS`` panels are used, or the
    queue empties, first.
    """
    pts = _split_points(a, b, breakpoints, tol)
    heap = []  # (-err, lo, hi, value)
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(pts, pts[1:]):
        val, err = _gk_panel(f, lo, hi)
        heapq.heappush(heap, (-err, lo, hi, val))
        total += val
        total_err += err
    panels = len(heap)
    while total_err > tol and panels < MAX_PANELS and heap:
        neg_err, lo, hi, val = heapq.heappop(heap)
        total -= val
        total_err += neg_err  # neg_err = -err
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; keep its estimate
            total += val
            total_err -= neg_err
            continue
        for lo2, hi2 in ((lo, mid), (mid, hi)):
            v, e = _gk_panel(f, lo2, hi2)
            heapq.heappush(heap, (-e, lo2, hi2, v))
            total += v
            total_err += e
        panels += 1
    if not math.isfinite(total):  # finite panel values whose sum overflows
        raise DomainError(f"integrand overflows on [{a!r}, {b!r}]")
    if total_err > tol:
        raise _unconverged(f"Gauss-Kronrod did not reach tol={tol:g} (err~{total_err:g})",
                           total, total_err)
    return total


def _simpson(a, fa, b, fb, fm):
    return (b - a) * (fa + 4.0 * fm + fb) / 6.0


def _adaptive_simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, depth, outside):
    # outside: accepted values left of [a, b] plus one-level values right of it
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
        # a non-finite value or sum keeps every panel that holds it from converging
        for x, fx in ((a, fa), (lm, flm), (m, fm), (rm, frm), (b, fb)):
            if not math.isfinite(fx):
                raise DomainError(f"integrand is not finite at x={x!r}")
        if not math.isfinite(left + right):
            raise DomainError(f"integrand overflows on [{a!r}, {b!r}]")
        raise _unconverged("Simpson recursion depth exhausted",
                           outside + (left + right + delta / 15.0), abs(delta) / 15.0)
    lpart = _adaptive_simpson_rec(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1,
                                  outside + right)
    return lpart + _adaptive_simpson_rec(f, m, fm, b, fb, rm, frm, right, tol / 2.0,
                                         depth - 1, outside + lpart)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = DEFAULT_TOL,
                     breakpoints: Iterable[float] | None = None) -> float:
    """Adaptive Simpson integration of f over [a, b] to absolute tol; fails
    past ``MAX_DEPTH`` bisections, estimating the unvisited panels by their
    one-level values."""
    pts = _split_points(a, b, breakpoints, tol)
    panels = []
    for lo, hi in zip(pts, pts[1:]):
        fa, fb = f(lo), f(hi)
        m = 0.5 * (lo + hi)
        fm = f(m)
        panels.append((lo, fa, hi, fb, m, fm, _simpson(lo, fa, hi, fb, fm)))
    total = 0.0
    for i, panel in enumerate(panels):
        outside = total + math.fsum(p[-1] for p in panels[i + 1:])
        total += _adaptive_simpson_rec(f, *panel, tol / len(panels), MAX_DEPTH, outside)
    if not math.isfinite(total):  # finite panel values whose sum overflows
        raise DomainError(f"integrand overflows on [{a!r}, {b!r}]")
    return total


def _eval_rows(f, xs: np.ndarray, dim: int) -> np.ndarray:
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != (len(xs), dim):
        raise DomainError(f"integrand returned shape {vals.shape}, "
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


def _fsum_columns(rows: list[np.ndarray], a: float, b: float) -> list[float]:
    try:
        return [math.fsum(col) for col in np.concatenate(rows).T.tolist()]
    except OverflowError:  # finite panel values whose sum overflows
        raise DomainError(f"integrand overflows on [{a!r}, {b!r}]") from None


# a bisected panel's points (lo, lm, m, rm, hi) -> its two children's (lo, m, hi)
_HALVES = np.array([[0, 1, 2], [2, 3, 4]])


def adaptive_simpson_vec(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                         dim: int, tol: float,
                         breakpoints: Iterable[float] | None = None) -> list[float]:
    """Adaptive Simpson for vector-valued integrands (max-norm error).

    Used for smoothed-gradient integrals, whose components share the
    expensive network evaluations.

    ``f`` takes a 1-D float64 array of points and returns an array of
    shape ``(len(xs), dim)``.  The engine is level-synchronous: it keeps
    the live panels of a bisection level in arrays and calls ``f`` once
    per level, at all their new midpoints, after one first call at the
    panel ends and midpoints; so at most ``MAX_DEPTH + 2`` calls.  Each
    panel follows the recursive rule of ``adaptive_simpson``: tol is split
    evenly over the panels between breakpoints and halved per level; a
    panel is accepted when the max norm of ``left + right - whole`` is at
    most 15 tol, with the value ``left + right + delta / 15``; and a
    child's midpoint is its parent's quarter point, the same double.  The
    accepted panels are summed per component with ``math.fsum``, which
    rounds once, so the result does not depend on the order of the panels.

    Fails when a panel is unconverged after ``MAX_DEPTH`` levels or the
    next level would hold more than ``MAX_LIVE_PANELS`` panels; the
    estimate is the accepted panels plus the unconverged panels'
    estimates, and the error the sum of the unconverged panels' error
    estimates.
    """
    pts = np.array(_split_points(a, b, breakpoints, tol))
    n = len(pts) - 1
    if n < 1:
        return [0.0] * dim
    mids = 0.5 * (pts[:-1] + pts[1:])
    fp = _eval_rows(f, np.concatenate((pts, mids)), dim)
    # one row per live panel: its points (lo, m, hi), f there, its Simpson value
    x = np.stack((pts[:-1], mids, pts[1:]), axis=1)
    fx = np.stack((fp[:n], fp[n + 1:], fp[1:n + 1]), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked in level one's est
        whole = _simpson_rows(x, fx)
    tol_ = tol / n
    accepted = []
    for depth in range(MAX_DEPTH, -1, -1):
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
        with np.errstate(over="ignore", invalid="ignore"):
            halves = _simpson_rows(x, fx)  # (k, 2, dim): left, right
            both = halves[:, 0] + halves[:, 1]
            delta = both - whole
            est = both + delta / 15.0
        bad = ~np.isfinite(est).all(axis=1)
        if bad.any():
            lo, hi = x5[bad][0, ::4].tolist()
            raise DomainError(f"integrand overflows on [{lo!r}, {hi!r}]")
        err = np.abs(delta).max(axis=1)
        done = err <= 15.0 * tol_
        accepted.append(est[done])
        live = np.flatnonzero(~done)
        if not len(live):
            break
        if depth == 0 or 2 * len(live) > MAX_LIVE_PANELS:
            accepted.append(est[live])
            raise _unconverged(
                "vector Simpson depth exhausted" if depth == 0
                else f"vector Simpson level exceeds {MAX_LIVE_PANELS} panels",
                _fsum_columns(accepted, a, b), math.fsum(err[live].tolist()) / 15.0)
        x = x[live].reshape(-1, 3)
        fx = fx[live].reshape(-1, 3, dim)
        whole = halves[live].reshape(-1, dim)
        tol_ /= 2.0
    return _fsum_columns(accepted, a, b)
