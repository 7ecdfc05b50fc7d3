"""Risk, generalized gradient, Hessians and critical-point classification.

The exact risk and its generalized gradient never touch quadrature except
for the single scalar integral of f**2 (benchmark targets only): the
network part is piecewise linear, the targets supply closed-form running
integrals of f and x*f, so every gradient component is a finite closed
form.  The gradient formula is defined everywhere, including configurations
where the risk is not classically differentiable; it agrees with the
classical gradient wherever the latter exists.

Risk and gradient read the network's geometry, and the gradient each
neuron's active span, from the one kernel ``network._geometry_nodes``
(the node list that ``canonical`` uses too).  A neuron that
``network._adds_nothing`` has no span, so its gradient is exactly +0.0,
and gradient descent freezes it.  Each is one pass over its segments; the
gradient's (``_running_sums``) keeps running integrals at every node,
the risk's only its cross term.  The running integrals of f
and x*f at a and b are the target's ``end_ints``, so an evaluation reads
the target only at its interior kinks.  ``hessian_fd``
refuses a kink on a domain endpoint through the kernel's
``_kink_near_endpoint``, the same test that gradient descent counts with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DomainError, NonsmoothPointError
from .network import (Params, SmoothActivation, _geometry_nodes, _kink_near_endpoint,
                      _pl_sq_integral)
from .quadrature import adaptive_simpson_vec
from .target import BenchmarkTarget, Target

__all__ = [
    "GradientVector",
    "HessianReport",
    "CritClass",
    "risk",
    "grad",
    "grad_theta",
    "risk_theta",
    "grad_smooth",
    "fd_gradient",
    "hessian_fd",
    "closed_hessian_M",
    "classify",
]

# hessian_fd's step; the rank threshold relative to the largest |eigenvalue|
FD_STEP = 1e-5
RANK_TOL = 1e-6
# grad_smooth's panels end where r z - sqrt(r) is -S, 0 and +S for each
# neuron; beyond +-S the softplus's sigmoid is within e^-S of 0 or 1
SMOOTH_SPAN = 40.0


@dataclass(frozen=True)
class GradientVector:
    """Generalized gradient, same layout as Params.theta."""

    values: tuple[float, ...]

    def max_norm(self) -> float:
        return max((abs(x) for x in self.values), default=0.0)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _running_sums(theta: Sequence[float], H: int, t: Target):
    """The kernel's nodes and spans, and the running integrals from a of N,
    x*N, f and x*f at every node (``net0``, ``net1``, ``F``, ``G``), in one
    pass: S0 = int (N - f) and S1 = int x (N - f) between two nodes are
    differences of node values.  Each node is raised to a power once."""
    nodes, vals, spans = _geometry_nodes(theta, H, *t.domain)
    cum_int_xint = t.cum_int_xint
    (f, g), ends_b = t.end_ints
    s0 = s1 = 0.0
    net0 = [s0]
    net1 = [s1]
    F = [f]
    G = [g]
    x0 = nodes[0]
    try:
        p2, p3 = x0 ** 2, x0 ** 3
        for i in range(len(nodes) - 2):
            x1 = nodes[i + 1]
            q2, q3 = x1 ** 2, x1 ** 3
            y0 = vals[i]
            y1 = vals[i + 1]
            m = (y1 - y0) / (x1 - x0)
            k = y0 - m * x0
            s0 = s0 + (x1 - x0) * (y0 + y1) * 0.5
            s1 = s1 + m * (q3 - p3) / 3.0 + k * (q2 - p2) * 0.5
            net0.append(s0)
            net1.append(s1)
            f, g = cum_int_xint(x1)
            F.append(f)
            G.append(g)
            x0, p2, p3 = x1, q2, q3
        # b ends the last segment, where the running integral takes N from
        # the slope; at an interior node that formula adds exactly +-0.0 to
        # these prefix sums, so they are its values there
        x1, y0 = nodes[-1], vals[-2]
        m = (vals[-1] - y0) / (x1 - x0)
        net0.append(s0 + (x1 - x0) * (y0 + (y0 + m * (x1 - x0))) * 0.5)
        net1.append(s1 + m * (x1 ** 3 - p3) / 3.0 + (y0 - m * x0) * (x1 ** 2 - p2) * 0.5)
        F.append(ends_b[0])
        G.append(ends_b[1])
    except OverflowError:  # a node's cube, once |x| passes about 5.6e102
        a, b = t.domain
        raise DomainError(f"the domain [{a!r}, {b!r}] lies too far from 0: "
                          "a node's cube overflows") from None
    return nodes, spans, net0, net1, F, G


def grad_theta(theta: Sequence[float], H: int, t: Target) -> list[float]:
    """Generalized gradient as a plain list (hot path for training loops).

    Neuron j contributes over its active span, the geometry nodes that
    bound I_j = {x in [a, b] : b_j + w_j x > 0}.
    """
    nodes, spans, net0, net1, F, G = _running_sums(theta, H, t)
    last = len(nodes) - 1
    g = [0.0] * (3 * H + 1)
    for j, lo, hi in spans:
        s0 = (net0[hi] - net0[lo]) - (F[hi] - F[lo])
        s1 = (net1[hi] - net1[lo]) - (G[hi] - G[lo])
        v = theta[2 * H + j]
        g[j] = 2.0 * v * s1
        g[H + j] = 2.0 * v * s0
        g[2 * H + j] = 2.0 * (theta[H + j] * s0 + theta[j] * s1)
    g[3 * H] = 2.0 * ((net0[last] - net0[0]) - (F[last] - F[0]))
    return g


def grad(p: Params, t: Target) -> GradientVector:
    """Generalized gradient of the risk at p.

    Componentwise: 2 v_j * int_{I_j} x (N - f), 2 v_j * int_{I_j} (N - f),
    2 * int max(b_j + w_j x, 0)(N - f), and 2 * int (N - f), with
    I_j = {x in [a,b] : b_j + w_j x > 0}.  Defined for every theta.
    """
    return GradientVector(tuple(grad_theta(p.theta, p.H, t)))


def _unclamped_risk(theta: Sequence[float], H: int, t: Target, method: str) -> float:
    """int N**2 - 2 int N f + int f**2, before ``risk_theta`` clamps it at 0;
    the cross term is one pass over the kernel's segments."""
    nodes, vals, _ = _geometry_nodes(theta, H, *t.domain)
    cum_int_xint = t.cum_int_xint
    (f0, g0), ends_b = t.end_ints
    last = len(nodes) - 2  # the segment that ends at b
    cross = 0.0
    for i in range(last + 1):
        x0, x1 = nodes[i], nodes[i + 1]
        f1, g1 = cum_int_xint(x1) if i < last else ends_b
        m = (vals[i + 1] - vals[i]) / (x1 - x0)
        k = vals[i] - m * x0
        cross += m * (g1 - g0) + k * (f1 - f0)
        f0, g0 = f1, g1
    return _pl_sq_integral(nodes, vals) - 2.0 * cross + t.sq_integral(method)


def risk_theta(theta: Sequence[float], H: int, t: Target,
               method: str = "gauss_kronrod") -> float:
    return max(_unclamped_risk(theta, H, t, method), 0.0)


def risk(p: Params, t: Target) -> float:
    """Exact L2 risk; the network and cross terms are closed-form, the
    f**2 term is exact for polynomial targets and Gauss-Kronrod
    quadrature otherwise."""
    return risk_theta(p.theta, p.H, t)


# ---------------------------------------------------------------------------
# smoothed-activation gradient
# ---------------------------------------------------------------------------

def _smooth_breakpoints(theta, H, t, r):
    """The target's breakpoints, the ReLU kinks, and each neuron's softplus
    transition at sharpness r: the x with r (b_j + w_j x) - sqrt(r) equal
    to -SMOOTH_SPAN, 0 and +SMOOTH_SPAN (``_split_points`` drops those
    outside (a, b) and non-finite ones)."""
    a, b = t.domain
    zs = [(s + math.sqrt(r)) / r for s in (-SMOOTH_SPAN, 0.0, SMOOTH_SPAN)]
    bends = [(z - theta[H + j]) / theta[j]
             for j in range(H) if theta[j] != 0.0 for z in zs]
    return list(t.breakpoints()) + _geometry_nodes(theta, H, a, b)[0][1:-1] + bends


def grad_smooth(p: Params, t: Target, r: float, tol: float = 1e-10) -> GradientVector:
    """Gradient of the smoothed risk (chain rule through the C1 activation),
    integrated adaptively with a shared vector integrand that evaluates
    every point of a bisection level and every neuron at once.

    The panels split at each neuron's softplus transition, a width of
    about 1/r around z = 1/sqrt(r), so no panel has to bisect down to that
    width and the number of levels does not grow with r."""
    act = SmoothActivation(r)
    H = p.H
    th = np.array(p.theta)
    w, bias, v = th[:H], th[H:2 * H], th[2 * H:3 * H, None]
    a, b = t.domain

    def integrand(xs: np.ndarray) -> np.ndarray:
        z = bias[:, None] + w[:, None] * xs  # (H, len(xs))
        acts = act(z)
        d = th[3 * H] + (v * acts).sum(axis=0) - t.eval_array(xs)
        vd2 = 2.0 * v * act.deriv(z)
        out = np.empty((3 * H + 1, len(xs)))
        out[:H] = vd2 * xs * d
        out[H:2 * H] = vd2 * d
        out[2 * H:3 * H] = 2.0 * acts * d
        out[3 * H] = 2.0 * d
        return out.T

    vals = adaptive_simpson_vec(integrand, a, b, 3 * H + 1, tol,
                                breakpoints=_smooth_breakpoints(p.theta, H, t, r))
    return GradientVector(tuple(vals))


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------

class CritClass(Enum):
    LOCAL_MIN = "local_min"
    LOCAL_MAX = "local_max"
    SADDLE = "saddle"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class HessianReport:
    """Symmetric Hessian block with spectrum and numerical rank."""

    matrix: tuple[tuple[float, ...], ...]
    eigenvalues: tuple[float, ...]
    numerical_rank: int
    rank_tol: float

    @property
    def min_eigenvalue(self) -> float:
        return self.eigenvalues[0]

    @property
    def max_abs_eigenvalue(self) -> float:
        return max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1]))


def _report_from_matrix(mat: np.ndarray) -> HessianReport:
    # eigvalsh fails to converge on inf/NaN entries instead of reporting them
    if not np.all(np.isfinite(mat)):
        raise DomainError("the Hessian is not finite")
    sym = 0.5 * (mat + mat.T)
    eig = np.linalg.eigvalsh(sym)
    lam_max = float(np.max(np.abs(eig))) if eig.size else 0.0
    rank = int(np.sum(np.abs(eig) > RANK_TOL * lam_max)) if lam_max > 0.0 else 0
    return HessianReport(
        matrix=tuple(tuple(float(x) for x in row) for row in sym),
        eigenvalues=tuple(float(x) for x in eig),
        numerical_rank=rank,
        rank_tol=RANK_TOL,
    )


def _coord_indices(H: int, coords: str) -> list[int]:
    if coords == "all":
        return list(range(3 * H + 1))
    if coords == "restricted4":
        return [0, H, 2 * H, 3 * H]
    raise DomainError("coords must be 'all' or 'restricted4'")


def _central(fn, th: list[float], i: int, h: float):
    """fn(th) with th[i] moved by +h, then by -h; th[i] is restored."""
    orig = th[i]
    th[i] = orig + h
    up = fn(th)
    th[i] = orig - h
    down = fn(th)
    th[i] = orig
    return up, down


def fd_gradient(p: Params, t: Target, h: float = 1e-6) -> GradientVector:
    """Central finite differences of the exact risk (test oracle)."""
    th = list(p.theta)
    out = []
    for i in range(len(th)):
        rp, rm = _central(lambda th: risk_theta(th, p.H, t), th, i, h)
        out.append((rp - rm) / (2.0 * h))
    return GradientVector(tuple(out))


def hessian_fd(p: Params, t: Target, coords: str = "all") -> HessianReport:
    """Symmetrized central differences of the exact gradient, step FD_STEP.

    Requires a twice-differentiable configuration: every w_j*a + b_j and
    w_j*b + b_j bounded away from zero relative to the step size.
    """
    h = FD_STEP
    a, b = t.domain
    margin = 2.0 * h * max(1.0, abs(a), abs(b))
    if _kink_near_endpoint(p.theta, p.H, a, b, margin):
        raise NonsmoothPointError(
            f"|w_j x + b_j| <= {margin:g} at a domain endpoint x for some neuron j")
    idx = _coord_indices(p.H, coords)
    th = list(p.theta)
    n = len(idx)
    mat = np.empty((n, n))
    for row, i in enumerate(idx):
        gp, gm = _central(lambda th: grad_theta(th, p.H, t), th, i, h)
        for col, k in enumerate(idx):
            mat[row, col] = (gp[k] - gm[k]) / (2.0 * h)
    return _report_from_matrix(mat)


def closed_hessian_M(q: float, theta1: float, t: BenchmarkTarget) -> HessianReport:
    """Closed-form restricted 4x4 Hessian on the single-kink critical
    manifold, in the coordinates (w_1, b_1, v_1, c), kink at normalized
    position q with inner weight theta1 > 0.  As R_s(w, b, v, c) =
    s**2 R_1(w, b, v/s, c/s), at target scale s != 0 it is the congruence
    diag(s, s, 1, 1) H_1 diag(s, s, 1, 1) of the tabulated scale-1 form."""
    if not (t.alpha < q < t.beta):
        raise DomainError("q must lie strictly inside (alpha, beta)")
    if theta1 <= 0.0:
        raise DomainError("theta1 must be positive")
    if t.scale == 0.0:
        raise DomainError("closed form needs a nonzero target scale")
    A, B = t.a, t.b
    L = B - A
    t1 = theta1
    om = 1.0 - q        # 1 - q
    op = 1.0 + 3.0 * q  # 1 + 3q
    sq_om = math.sqrt(om)
    sq_op = math.sqrt(op)

    h11 = (A * A * om * om + B * B * (1.0 + 2.0 * q) ** 2
           + A * B * (1.0 + 4.0 * q - 5.0 * q * q)) / (6.0 * t1 * t1 * L * om * om * op * op)
    h12 = (A * (1.0 - q * q) + B * (1.0 + 4.0 * q + q * q)) / (4.0 * t1 * t1 * L * om * om * op * op)
    h13 = L * sq_om * (A * om + B * (2.0 + q)) / (6.0 * sq_op)
    h14 = (A * om + B * (1.0 + q)) / (2.0 * t1 * sq_om * sq_op)
    h22 = (1.0 + 2.0 * q) / (2.0 * t1 * t1 * L * om * om * op * op)
    h23 = L * sq_om / (2.0 * sq_op)
    h24 = 1.0 / (t1 * sq_om * sq_op)
    h33 = (2.0 / 3.0) * t1 * t1 * L ** 3 * om ** 3
    h34 = t1 * L * L * om * om
    h44 = 2.0 * L

    mat = np.array([
        [h11, h12, h13, h14],
        [h12, h22, h23, h24],
        [h13, h23, h33, h34],
        [h14, h24, h34, h44],
    ])
    d = (t.scale, t.scale, 1.0, 1.0)
    return _report_from_matrix(mat * np.outer(d, d))


def classify(report: HessianReport, grad_norm: float,
             expected_corank: int | None = None) -> CritClass:
    """Heuristic critical-point label from the Hessian spectrum.

    Spectral test only: it cannot verify that the critical set is locally
    a manifold of the expected dimension, so for points outside the
    analytically known families the label is advisory.
    """
    if grad_norm >= 1e-6:
        raise DomainError(f"gradient max-norm {grad_norm:g} is not critical")
    eig = report.eigenvalues
    lam_max = report.max_abs_eigenvalue
    if lam_max == 0.0:
        return CritClass.DEGENERATE
    thr = report.rank_tol * lam_max
    n_pos = sum(1 for x in eig if x > thr)
    n_neg = sum(1 for x in eig if x < -thr)
    n_zero = len(eig) - n_pos - n_neg
    if expected_corank is not None and n_zero != expected_corank:
        return CritClass.DEGENERATE
    if n_neg == 0 and n_pos > 0:
        return CritClass.LOCAL_MIN
    if n_pos == 0 and n_neg > 0:
        return CritClass.LOCAL_MAX
    if n_pos > 0 and n_neg > 0:
        return CritClass.SADDLE
    return CritClass.DEGENERATE
