"""Reference computations that the benchmark checks the program against.

Everything here is composite Gauss-Legendre quadrature in numpy on panels
split at the target's breakpoints and the network's kinks, so every panel
integrand is smooth and the rule converges to machine precision.  The
target enters only through pointwise values: ``BenchmarkTarget.eval`` for
the benchmark target, the benchmark's own numpy coefficient arrays for the
piecewise-polynomial specs it generates.  No running integral, ``f**2``
cache, quadrature backend or polynomial routine of ``reluland`` is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

_NODES, _WEIGHTS = legendre.leggauss(16)
PANELS = 8  # Gauss-Legendre panels per smooth subinterval


@dataclass(frozen=True)
class RefTarget:
    """A target on [a, b] known only by its values and its breakpoints."""

    a: float
    b: float
    breakpoints: tuple[float, ...]
    f: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_spec(cls, spec: dict) -> "RefTarget":
        """Piecewise polynomial from a ``piecewise_poly`` target spec."""
        bps = np.asarray(spec["breakpoints"], dtype=float)
        pieces = [np.asarray(cs, dtype=float) for cs in spec["pieces"]]

        def f(x: np.ndarray) -> np.ndarray:
            idx = np.clip(np.searchsorted(bps, x, side="right") - 1, 0, len(pieces) - 1)
            out = np.empty_like(x)
            for i, cs in enumerate(pieces):
                sel = idx == i
                out[sel] = npoly.polyval(x[sel], cs)
            return out

        return cls(float(bps[0]), float(bps[-1]), tuple(float(x) for x in bps), f)

    @classmethod
    def from_pointwise(cls, t) -> "RefTarget":
        """Any target object with ``domain``, ``breakpoints()`` and scalar ``eval``."""
        a, b = t.domain

        def f(x: np.ndarray) -> np.ndarray:
            return np.fromiter((t.eval(float(u)) for u in x), float, count=x.size)

        return cls(float(a), float(b), tuple(float(x) for x in t.breakpoints()), f)


def integrate(g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              cuts: Sequence[float] = ()) -> np.ndarray:
    """Integral over [lo, hi] of g, split at every cut inside (lo, hi).

    g maps a 1-D array of nodes to an array whose last axis runs over the
    nodes, so vector integrands integrate in one call.
    """
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    edges = np.concatenate([np.linspace(p, q, PANELS + 1)[:-1] for p, q in zip(pts, pts[1:])]
                           + [np.array([hi])])
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    w = (half[:, None] * _WEIGHTS[None, :]).ravel()
    return np.asarray(g(x)) @ w


# ---------------------------------------------------------------------------
# one-hidden-layer ReLU network, theta laid out as (w, b, v, c)
# ---------------------------------------------------------------------------

def _split(theta: Sequence[float], H: int):
    th = np.asarray(theta, dtype=float)
    return th[:H], th[H:2 * H], th[2 * H:3 * H], th[3 * H]


def kinks(theta: Sequence[float], H: int) -> list[float]:
    w, b, _, _ = _split(theta, H)
    return [float(-bj / wj) for wj, bj in zip(w, b) if wj != 0.0]


def net(theta: Sequence[float], H: int, x: np.ndarray) -> np.ndarray:
    w, b, v, c = _split(theta, H)
    return c + v @ np.maximum(b[:, None] + w[:, None] * x[None, :], 0.0)


def risk(theta: Sequence[float], H: int, ft: RefTarget) -> float:
    """Integral of (N_theta - f)**2 over the target's domain."""
    def g(x):
        d = net(theta, H, x) - ft.f(x)
        return d * d
    return float(integrate(g, ft.a, ft.b, ft.breakpoints + tuple(kinks(theta, H))))


def gradient(theta: Sequence[float], H: int, ft: RefTarget) -> np.ndarray:
    """Generalized gradient: 2 v_j int_{I_j} x (N-f), 2 v_j int_{I_j} (N-f),
    2 int relu(b_j + w_j x)(N-f) and 2 int (N-f), I_j the open active set."""
    w, b, v, _ = _split(theta, H)

    def g(x):
        z = b[:, None] + w[:, None] * x[None, :]
        act = (z > 0.0).astype(float)
        d = net(theta, H, x) - ft.f(x)
        return np.vstack([2.0 * v[:, None] * act * x * d,
                          2.0 * v[:, None] * act * d,
                          2.0 * np.maximum(z, 0.0) * d,
                          2.0 * d[None, :]])
    return integrate(g, ft.a, ft.b, ft.breakpoints + tuple(kinks(theta, H)))


# ---------------------------------------------------------------------------
# target moments
# ---------------------------------------------------------------------------

def moment(ft: RefTarget, k: int) -> float:
    """Integral of x**k f(x) over the domain."""
    return float(integrate(lambda x: x ** k * ft.f(x), ft.a, ft.b, ft.breakpoints))


def sq_integral(ft: RefTarget) -> float:
    return float(integrate(lambda x: ft.f(x) ** 2, ft.a, ft.b, ft.breakpoints))


def mean(ft: RefTarget) -> float:
    return moment(ft, 0) / (ft.b - ft.a)


def lsq_line(ft: RefTarget) -> tuple[float, float]:
    """(slope, value at a) of the L2-best affine fit of f."""
    a, b = ft.a, ft.b
    m1 = (b * b - a * a) / 2.0
    gram = np.array([[(b ** 3 - a ** 3) / 3.0, m1], [m1, b - a]])
    slope, intercept = np.linalg.solve(gram, [moment(ft, 1), moment(ft, 0)])
    return float(slope), float(slope * a + intercept)


# ---------------------------------------------------------------------------
# width-1 catalog entries and realizations
# ---------------------------------------------------------------------------

def kink_theta(q: float, c: float, vw: float, kind: str, a: float, b: float) -> list[float]:
    """Width-1 parameters (w, b, v, c) of a normalized catalog kink entry:
    flat at level c on one side of a + q(b-a), slope vw/(b-a) on the other."""
    width = b - a
    kink = a + q * width
    if kind == "kink_increasing":
        return [1.0, -kink, vw / width, c]
    if kind == "kink_decreasing":
        return [-1.0, kink, -vw / width, c]
    raise ValueError(f"not a kink entry: {kind!r}")


def piecewise_linear(a: float, b: float, kinks_: Sequence[float], slopes: Sequence[float],
                     offset: float) -> Callable[[np.ndarray], np.ndarray]:
    """Continuous piecewise-linear function from its left value and slopes."""
    nodes = np.array([a, *kinks_, b], dtype=float)
    vals = offset + np.concatenate([[0.0], np.cumsum(np.asarray(slopes) * np.diff(nodes))])
    return lambda x: np.interp(x, nodes, vals)


def l2_distance(u, v) -> float:
    """L2([a, b]) distance between two objects with ``a``, ``b``, ``kinks``,
    ``slopes`` and ``offset`` (the program's ``Realization`` fields)."""
    fu = piecewise_linear(u.a, u.b, u.kinks, u.slopes, u.offset)
    fv = piecewise_linear(v.a, v.b, v.kinks, v.slopes, v.offset)
    sq = integrate(lambda x: (fu(x) - fv(x)) ** 2, u.a, u.b, tuple(u.kinks) + tuple(v.kinks))
    return math.sqrt(max(float(sq), 0.0))


def close(x: float, ref: float, rel: float, floor: float = 1e-300) -> bool:
    return abs(x - ref) <= rel * max(abs(ref), floor)
