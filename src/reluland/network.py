"""One-hidden-layer ReLU networks on an interval.

Parameter layout for width H (vector length 3H+1, 0-based index j):
inner weights ``theta[j]``, inner biases ``theta[H+j]``, outer weights
``theta[2H+j]`` for j = 0..H-1, and the output offset ``theta[3H]``.

``_geometry_nodes`` is the one piecewise-linear geometry kernel: it sorts
the network's kinks, evaluates N_theta at the nodes (a, the distinct
kinks inside (a, b), b) and, from the same kinks, decides each neuron's
active span, the nodes that bound its active set I_j.  Risk, gradient
and ``canonical`` read it; the gradient and ``canonical`` read the spans.
It sums N_theta only over neurons that can add to it; ``_adds_nothing``
is the one test of a neuron that cannot, which also gets a gradient of
exactly 0.0 (gradient descent freezes it if it adds nothing at the start).
``_pl_sq_integral``, the exact integral of a squared piecewise-linear
function, serves both the risk and ``l2_distance``.
``_kink_near_endpoint`` is the one test for the nonsmooth points the
gradient-descent loop counts and the finite-difference Hessian refuses:
a kink on a domain endpoint.

``canonical`` reduces a parameter vector to its realization: a continuous
piecewise-linear function given by sorted interior kinks, per-segment
slopes and the value at the left endpoint, decided with no tolerance.
Parameter vectors with the same realization may still differ in the last
bits, so ``_greedy_groups`` groups GD runs by L2 distance.
``realization_csv`` renders a realization as CSV text; this module opens
no file.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, json_number

__all__ = [
    "Params",
    "Realization",
    "SmoothActivation",
    "canonical",
    "l2_distance",
    "params_from_json",
    "realization_csv",
]

# sample rows of a realization CSV
CSV_ROWS = 256


@dataclass(frozen=True)
class Params:
    """Network parameter vector theta of length 3H+1."""

    H: int
    theta: tuple[float, ...]

    def __post_init__(self):
        if self.H < 1:
            raise DomainError("H must be >= 1")
        if len(self.theta) != 3 * self.H + 1:
            raise DomainError(f"theta must have length {3 * self.H + 1}, "
                              f"got {len(self.theta)}")
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        if not all(map(math.isfinite, self.theta)):
            raise DomainError("theta must be finite")

    @classmethod
    def from_parts(cls, w: Sequence[float], b: Sequence[float],
                   v: Sequence[float], c: float) -> "Params":
        H = len(w)
        if not (len(b) == len(v) == H):
            raise DomainError("w, b, v must have equal length")
        return cls(H, tuple(w) + tuple(b) + tuple(v) + (float(c),))

    def w(self, j: int) -> float:
        return self.theta[j]


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
            raise DomainError("sharpness r must be a finite number >= 1")

    def __call__(self, z: float) -> float:
        r = self.r
        return _softplus(r * z - math.sqrt(r)) / r

    def deriv(self, z: float) -> float:
        r = self.r
        return _sigmoid(r * z - math.sqrt(r))


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
            raise DomainError("need b > a")
        if len(self.slopes) != len(self.kinks) + 1:
            raise DomainError("need len(slopes) == len(kinks) + 1")
        if not all(map(math.isfinite, (self.a, self.b, *self.kinks, *self.slopes,
                                       self.offset))):
            raise DomainError("a realization's ends, kinks, slopes and offset must be finite")
        if any(k2 <= k1 for k1, k2 in zip(self.kinks, self.kinks[1:])):
            raise DomainError("kinks must be strictly increasing")
        if self.kinks and (self.kinks[0] <= self.a or self.kinks[-1] >= self.b):
            raise DomainError("kinks must be interior")
        nodes = (self.a,) + self.kinks + (self.b,)
        vals = [self.offset]
        for i, s in enumerate(self.slopes):
            vals.append(vals[-1] + s * (nodes[i + 1] - nodes[i]))
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_values", tuple(vals))

    def eval(self, x: float) -> float:
        if not self.a <= x <= self.b:  # NaN fails too
            raise DomainError(f"{x!r} outside [{self.a!r}, {self.b!r}]")
        i = bisect.bisect_right(self.kinks, x)
        return self._values[i] + self.slopes[i] * (x - self._nodes[i])

    __call__ = eval

    def sample(self, n: int) -> list[tuple[float, float]]:
        """(x, value) pairs on ``uniform_grid(a, b, n)``, bit for bit as
        ``eval``: the grid never decreases, so one sweep advances the
        segment while ``kinks[i] <= x``, as ``bisect_right`` would."""
        slopes, nodes, values = self.slopes, self._nodes, self._values
        ends = self.kinks + (math.inf,)  # no grid point passes the sentinel
        i = 0
        out = []
        for x in uniform_grid(self.a, self.b, n):
            while ends[i] <= x:
                i += 1
            out.append((x, values[i] + slopes[i] * (x - nodes[i])))
        return out


def uniform_grid(a: float, b: float, n: int) -> list[float]:
    """n equally spaced points from a to b, n >= 2; the last one is b."""
    if n < 2:
        raise DomainError("need n >= 2 sample points")
    step = (b - a) / (n - 1)
    return [min(a + i * step, b) for i in range(n)]


def _geometry_nodes(theta: Sequence[float], H: int, a: float, b: float
                    ) -> tuple[list[float], list[float], list[tuple[int, int, int]]]:
    """Nodes a, the distinct kinks -b_j/w_j inside (a, b) in increasing
    order, and b; N_theta evaluated at each node; and the active spans.

    Neuron j is active on I_j = {x in [a, b] : b_j + w_j x > 0}.  For each
    neuron with a nonempty I_j, in order of j, the spans list (j, lo, hi):
    the node indices with nodes[lo] and nodes[hi] the ends of I_j (a, b or
    its own kink).  The sums for N_theta skip each neuron that
    ``_adds_nothing``: it has no span and no kink inside (a, b), and its
    b_j + w_j x rounds to <= 0 at every node, so no sum changes a bit.
    """
    c = theta[3 * H]
    events = []
    # each neuron with a nonempty I_j: (j, its kink if that lies inside
    # (a, b), else None, and whether I_j lies right of the kink)
    active = []
    terms = []  # (w_j, b_j, v_j) of every neuron but those that add nothing
    for j in range(H):
        w, bj = theta[j], theta[H + j]
        # the two skips are _adds_nothing, inlined
        if w != 0.0:
            q = -bj / w
            right = w > 0.0
            if (q < b) if right else (q > a):
                inside = a < q < b
                if inside:
                    events.append(q)
                active.append((j, q if inside else None, right))
            elif bj + w * (b if right else a) <= 0.0:
                continue
        elif bj > 0.0:
            active.append((j, None, False))
        elif bj <= 0.0:
            continue
        terms.append((w, bj, theta[2 * H + j]))
    events.sort()
    nodes = [a]
    for q in events:
        if q > nodes[-1]:
            nodes.append(q)
    nodes.append(b)
    vals = []
    for x in nodes:
        acc = c
        for w, bj, v in terms:
            z = bj + w * x
            if z > 0.0:
                acc += v * z
        vals.append(acc)
    last = len(nodes) - 1
    spans = []
    # a kink inside (a, b) is itself a node, so bisect_left finds its index
    for j, q, right in active:
        if q is None:
            spans.append((j, 0, last))
        elif right:
            spans.append((j, bisect.bisect_left(nodes, q), last))
        else:
            spans.append((j, 0, bisect.bisect_left(nodes, q)))
    return nodes, vals, spans


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


def _adds_nothing(w: float, bj: float, a: float, b: float) -> bool:
    """True when neuron j has an empty I_j and b_j + w_j e rounds to <= 0 at
    the end e of [a, b] where it is largest (e = b if w_j > 0, a if w_j < 0;
    b_j <= 0 if w_j = +-0).  Correctly rounded * and + are monotone, so
    then fl(b_j + w_j x) <= 0 on all of [a, b]: the neuron adds nothing to
    N_theta and gets no gradient.  False for a NaN w_j or b_j."""
    if w > 0.0:
        return not -bj / w < b and bj + w * b <= 0.0
    if w < 0.0:
        return not -bj / w > a and bj + w * a <= 0.0
    return w == 0.0 and bj <= 0.0


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
    active span; neurons whose kinks are the same double sum into one
    node, and a node is a kink exactly when that sum is nonzero.
    """
    if not b > a:
        raise DomainError("need b > a")
    H = p.H
    th = p.theta
    nodes, vals, spans = _geometry_nodes(th, H, a, b)
    # the slope changes by v_j*w_j where the span starts and back where it
    # ends; node_deltas[0] is the slope at a, and the entry at b is unused
    node_deltas = [0.0] * len(nodes)
    for j, lo, hi in spans:
        vw = th[2 * H + j] * th[j]
        node_deltas[lo] += vw
        node_deltas[hi] -= vw
    kinks: list[float] = []
    slopes = [node_deltas[0]]
    for q, d in zip(nodes[1:-1], node_deltas[1:-1]):
        if d != 0.0:
            kinks.append(q)
            slopes.append(slopes[-1] + d)
    return Realization(a, b, tuple(kinks), tuple(slopes), vals[0])


def l2_distance(u: Realization, v: Realization) -> float:
    """Exact L2([a,b]) distance between two piecewise-linear functions."""
    if u.a != v.a or u.b != v.b:
        raise DomainError("realizations live on different domains")
    nodes = [u.a, *sorted(set(u.kinks) | set(v.kinks)), u.b]
    diffs = [u.eval(x) - v.eval(x) for x in nodes]
    return math.sqrt(max(_pl_sq_integral(nodes, diffs), 0.0))


def _greedy_groups(reals: Sequence[Realization], tol: float) -> list[list[int]]:
    """Index groups, in input order: each realization joins the first group
    whose first member lies within L2 distance < tol, else starts one."""
    groups = []
    for i, r in enumerate(reals):
        for g in groups:
            if l2_distance(r, reals[g[0]]) < tol:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def params_from_json(text: str) -> Params:
    """Params from ``{"H": int, "theta": [number, ...]}``; any other text
    raises ``DomainError``."""
    try:
        doc = json.loads(text)
        H, theta = json_number(doc["H"], integer=True), tuple(map(json_number, doc["theta"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f'parameters are not {{"H": int, "theta": [number, ...]}}: '
                          f"{type(exc).__name__}: {exc}") from exc
    return Params(H, theta)


def realization_csv(r: Realization) -> str:
    """Header ``x,y``, then ``repr(x),repr(y)`` at each of ``CSV_ROWS``
    grid points, CRLF line ends: ``csv.writer``'s text, as no float repr
    needs quoting."""
    return "x,y\r\n" + "".join(f"{x!r},{y!r}\r\n" for x, y in r.sample(CSV_ROWS))
