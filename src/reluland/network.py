"""One-hidden-layer ReLU networks on an interval.

Parameter layout for width H (vector length 3H+1, 0-based index j):
inner weights ``theta[j]``, inner biases ``theta[H+j]``, outer weights
``theta[2H+j]`` for j = 0..H-1, and the output offset ``theta[3H]``.

``_geometry_nodes`` is the one piecewise-linear geometry kernel: it sorts
the network's kinks and evaluates N_theta at the nodes (a, the distinct
kinks inside (a, b), b).  Risk and gradient (through
``landscape._Geometry``) and ``canonical`` read it.  ``_active_spans``
decides each neuron's active span, the nodes that bound its active set
I_j, for the two readers that need it: the gradient and ``canonical``.
``_pl_sq_integral``, the exact integral of a squared piecewise-linear
function, serves both the risk and ``l2_distance``.
``_kink_near_endpoint`` is the one test for the nonsmooth points the
gradient-descent loop counts and the finite-difference Hessian refuses:
a kink on a domain endpoint.

``canonical`` reduces a parameter vector to its realization: a continuous
piecewise-linear function given by sorted interior kinks, per-segment
slopes and the value at the left endpoint.  Distinct parameter vectors
with the same realization canonicalize identically, which is what the
L2 deduplication machinery relies on.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "Params",
    "Realization",
    "SmoothActivation",
    "realize",
    "realize_smooth",
    "canonical",
    "l2_distance",
    "params_to_json",
    "params_from_json",
    "write_realization_csv",
]

KINK_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class Params:
    """Network parameter vector theta of length 3H+1."""

    H: int
    theta: tuple[float, ...]

    def __post_init__(self):
        if self.H < 1:
            raise ValueError("H must be >= 1")
        if len(self.theta) != 3 * self.H + 1:
            raise ValueError(f"theta must have length {3 * self.H + 1}, "
                             f"got {len(self.theta)}")
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        if not all(map(math.isfinite, self.theta)):
            raise DomainError("theta must be finite")

    @classmethod
    def from_parts(cls, w: Sequence[float], b: Sequence[float],
                   v: Sequence[float], c: float) -> "Params":
        H = len(w)
        if not (len(b) == len(v) == H):
            raise ValueError("w, b, v must have equal length")
        return cls(H, tuple(w) + tuple(b) + tuple(v) + (float(c),))

    def w(self, j: int) -> float:
        return self.theta[j]

    def b(self, j: int) -> float:
        return self.theta[self.H + j]

    def v(self, j: int) -> float:
        return self.theta[2 * self.H + j]

    @property
    def c(self) -> float:
        return self.theta[3 * self.H]


def realize(p: Params, x: float) -> float:
    """Exact ReLU network output at x."""
    H = p.H
    th = p.theta
    acc = th[3 * H]
    for j in range(H):
        z = th[H + j] + th[j] * x
        if z > 0.0:
            acc += th[2 * H + j] * z
    return acc


def _softplus(s):
    """log(1 + exp(s)), elementwise on floats and arrays, without overflow."""
    return np.logaddexp(0.0, s)


def _sigmoid(s):
    """1 / (1 + exp(-s)) = exp(-softplus(-s)), exact at s = +-inf."""
    return np.exp(-_softplus(-s))


@dataclass(frozen=True)
class SmoothActivation:
    """Shifted-softplus C1 surrogate for the ReLU at sharpness r.

    A(z) = log(1 + exp(r z - sqrt(r))) / r.  Pointwise A -> max(z, 0) and
    A' -> the indicator of (0, inf) as r grows; the sqrt(r) shift makes
    A'(0) -> 0, matching the left-continuous limit required of the family.

    The activation and its derivative accept a float or a numpy array.
    """

    r: float

    def __post_init__(self):
        if not (self.r >= 1 and math.isfinite(self.r)):
            raise ValueError("sharpness r must be a finite number >= 1")

    def __call__(self, z: float) -> float:
        r = self.r
        return _softplus(r * z - math.sqrt(r)) / r

    def deriv(self, z: float) -> float:
        r = self.r
        return _sigmoid(r * z - math.sqrt(r))


def realize_smooth(p: Params, x: float, r: int) -> float:
    act = SmoothActivation(r)
    H = p.H
    th = p.theta
    acc = th[3 * H]
    for j in range(H):
        acc += th[2 * H + j] * act(th[H + j] + th[j] * x)
    return acc


@dataclass(frozen=True)
class Realization:
    """Canonical continuous piecewise-linear function on [a, b]."""

    a: float
    b: float
    kinks: tuple[float, ...]
    slopes: tuple[float, ...]
    offset: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need b > a")
        if len(self.slopes) != len(self.kinks) + 1:
            raise ValueError("need len(slopes) == len(kinks) + 1")
        if any(k2 <= k1 for k1, k2 in zip(self.kinks, self.kinks[1:])):
            raise ValueError("kinks must be strictly increasing")
        if self.kinks and (self.kinks[0] <= self.a or self.kinks[-1] >= self.b):
            raise ValueError("kinks must be interior")
        nodes = (self.a,) + self.kinks + (self.b,)
        vals = [self.offset]
        for i, s in enumerate(self.slopes):
            vals.append(vals[-1] + s * (nodes[i + 1] - nodes[i]))
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_values", tuple(vals))

    def eval(self, x: float) -> float:
        if x < self.a or x > self.b:
            raise DomainError(f"{x!r} outside [{self.a!r}, {self.b!r}]")
        i = bisect.bisect_right(self.kinks, x)
        return self._values[i] + self.slopes[i] * (x - self._nodes[i])

    __call__ = eval

    def sample(self, n: int) -> list[tuple[float, float]]:
        """(x, value) pairs on ``uniform_grid(a, b, n)``."""
        return [(x, self.eval(x)) for x in uniform_grid(self.a, self.b, n)]


def uniform_grid(a: float, b: float, n: int) -> list[float]:
    """n equally spaced points from a to b, n >= 2; the last one is b."""
    if n < 2:
        raise ValueError("need n >= 2 sample points")
    step = (b - a) / (n - 1)
    return [min(a + i * step, b) for i in range(n)]


def _geometry_nodes(theta: Sequence[float], H: int, a: float,
                    b: float) -> tuple[list[float], list[float]]:
    """Nodes a, the distinct kinks -b_j/w_j inside (a, b) in increasing
    order, and b, with N_theta evaluated at each node."""
    c = theta[3 * H]
    neurons = list(zip(theta[:H], theta[H:2 * H], theta[2 * H:3 * H]))
    events = []
    for w, bj, _ in neurons:
        if w != 0.0:
            q = -bj / w
            if a < q < b:
                events.append(q)
    events.sort()
    nodes = [a]
    for q in events:
        if q > nodes[-1]:
            nodes.append(q)
    nodes.append(b)
    vals = []
    for x in nodes:
        acc = c
        for w, bj, v in neurons:
            z = bj + w * x
            if z > 0.0:
                acc += v * z
        vals.append(acc)
    return nodes, vals


def _active_spans(theta: Sequence[float], H: int,
                  nodes: Sequence[float]) -> list[tuple[int, int, int]]:
    """Active spans over the nodes of ``_geometry_nodes``.

    Neuron j is active on I_j = {x in [a, b] : b_j + w_j x > 0}.  For each
    neuron with a nonempty I_j, in order of j, this lists (j, lo, hi): the
    node indices with nodes[lo] and nodes[hi] the ends of I_j (a, b or its
    own kink).
    """
    a, b = nodes[0], nodes[-1]
    last = len(nodes) - 1
    spans = []
    # a kink inside (a, b) is itself a node, so bisect_left finds its index
    for j in range(H):
        w = theta[j]
        bj = theta[H + j]
        if w > 0.0:
            q = -bj / w
            if q < b:
                spans.append((j, bisect.bisect_left(nodes, q) if q > a else 0, last))
        elif w < 0.0:
            q = -bj / w
            if q > a:
                spans.append((j, 0, bisect.bisect_left(nodes, q) if q < b else last))
        elif bj > 0.0:
            spans.append((j, 0, last))
    return spans


def _kink_near_endpoint(theta: Sequence[float], H: int, a: float, b: float,
                        margin: float) -> bool:
    """True when some neuron has |w_j a + b_j| <= margin or
    |w_j b + b_j| <= margin: a kink within margin/|w_j| of a domain
    endpoint, where the risk is not twice differentiable.  A dead neuron
    (w_j = b_j = 0) counts for every margin >= 0."""
    for j in range(H):
        w = theta[j]
        bj = theta[H + j]
        if abs(w * a + bj) <= margin or abs(w * b + bj) <= margin:
            return True
    return False


def _pl_sq_integral(nodes: Sequence[float], vals: Sequence[float]) -> float:
    """Exact integral of the square of the linear interpolant of
    (nodes, vals)."""
    total = 0.0
    for i in range(len(nodes) - 1):
        x0, x1 = nodes[i], nodes[i + 1]
        y0, y1 = vals[i], vals[i + 1]
        total += (x1 - x0) * (y0 * y0 + y0 * y1 + y1 * y1) / 3.0
    return total


def canonical(p: Params, a: float, b: float) -> Realization:
    """Canonical piecewise-linear form of the realization on [a, b].

    Adds each neuron's slope contribution v_j*w_j at the ends of its
    active span, merges kinks that coincide within 1e-12 and drops kinks
    with no slope change.
    """
    if not b > a:
        raise DomainError("need b > a")
    H = p.H
    th = p.theta
    nodes, vals = _geometry_nodes(th, H, a, b)
    # the slope changes by v_j*w_j where the span starts and back where it
    # ends; node_deltas[0] is the slope at a, and the entry at b is unused
    node_deltas = [0.0] * len(nodes)
    for j, lo, hi in _active_spans(th, H, nodes):
        vw = th[2 * H + j] * th[j]
        node_deltas[lo] += vw
        node_deltas[hi] -= vw
    slope_scale = 1.0
    for j in range(H):
        slope_scale += abs(th[2 * H + j] * th[j])
    kinks: list[float] = []
    deltas: list[float] = []
    for q, d in zip(nodes[1:-1], node_deltas[1:-1]):
        if kinks and q - kinks[-1] <= KINK_MERGE_TOL:
            deltas[-1] += d
        else:
            kinks.append(q)
            deltas.append(d)
    # drop kinks with no slope change, merging the adjacent segments
    keep = [(q, d) for q, d in zip(kinks, deltas) if abs(d) > 1e-12 * slope_scale]
    slopes = [node_deltas[0]]
    for _, d in keep:
        slopes.append(slopes[-1] + d)
    return Realization(a, b, tuple(q for q, _ in keep), tuple(slopes), vals[0])


def l2_distance(u: Realization, v: Realization) -> float:
    """Exact L2([a,b]) distance between two piecewise-linear functions."""
    if u.a != v.a or u.b != v.b:
        raise DomainError("realizations live on different domains")
    nodes = [u.a, *sorted(set(u.kinks) | set(v.kinks)), u.b]
    diffs = [u.eval(x) - v.eval(x) for x in nodes]
    return math.sqrt(max(_pl_sq_integral(nodes, diffs), 0.0))


def params_to_json(p: Params) -> str:
    return json.dumps({"H": p.H, "theta": list(p.theta)})


def params_from_json(text: str) -> Params:
    doc = json.loads(text)
    return Params(int(doc["H"]), tuple(float(x) for x in doc["theta"]))


def write_realization_csv(r: Realization, path, grid: int = 256) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in r.sample(grid):
            writer.writerow([repr(x), repr(y)])
