"""Construction and certification of the single-kink local-minimum family.

For the benchmark target there is a (3H-1)-parameter family of parameter
vectors, indexed by the normalized kink position x in (alpha, beta) and an
inner scale y > 0 (plus arbitrary strictly inactive neurons), all realizing
single-kink functions that are non-global local minima of the risk.  This
module samples the family, checks the defining zero-integral identities,
evaluates the common risk value in closed form + one quadrature, builds the
two-kink witness that the family's risk level is not globally optimal, and
owns the family certificate and its thresholds (``certify_family``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .landscape import (HessianReport, _coord_indices, _running_sums, closed_hessian_M,
                        grad, hessian_fd, risk, risk_theta)
from .network import Params
from .target import BenchmarkTarget
from .train import _rng

__all__ = [
    "MinimaSample",
    "GapCertificate",
    "SampleCertificate",
    "FamilyCertificate",
    "sample_M",
    "minima_risk",
    "verify_zero_integrals",
    "certify_gap",
    "certify_family",
]

REFERENCE_RTOL = 1e-10      # minima_risk's two backends, relative to max(1, |risk|)
GRAD_TOL = 1e-10            # each sample's gradient max norm
RISK_RTOL = 1e-9            # each sample's risk against the family's, relative
HESSIAN_RANK = 2            # numerical rank of the full FD Hessian
MIN_EIGENVALUE_TOL = 1e-8   # its smallest eigenvalue stays above -MIN_EIGENVALUE_TOL
CLOSED_HESSIAN_RTOL = 1e-5  # its (w_1, b_1, v_1, c) block against the closed form
RESIDUAL_TOL = 1e-10        # the three zero-integral residuals


@dataclass(frozen=True)
class MinimaSample:
    """One point of the critical family: normalized kink x, inner scale y,
    the drawn inactive neurons, and the assembled parameter vector."""

    x: float
    y: float
    inactive: tuple[tuple[float, float, float], ...]  # (w_j, b_j, v_j), j >= 2
    theta: Params


def _draw_inactive(rng: np.random.Generator, count: int, a: float, b: float):
    """Neurons that are strictly inactive on [a, b]: w in [-2, -1] and the
    line w*x + b kept below -margin at x = a (hence below it on all of
    [a, b] since w < 0)."""
    out = []
    for _ in range(count):
        w = -1.0 - rng.uniform(0.0, 1.0)
        margin = rng.uniform(0.1, 1.0)
        bj = -w * a - margin
        v = rng.uniform(-1.0, 1.0)
        if max(w * a + bj, w * b + bj) >= 0.0:
            raise DomainError(f"[{a!r}, {b!r}] is too far from 0 for a strictly inactive "
                              "neuron: its margin is below the float spacing there")
        out.append((w, bj, v))
    return out


def _family_params(t: BenchmarkTarget, active, c: float, count: int, seed: int):
    """Params with the active neurons (w, b, v), then ``count`` inactive ones
    drawn from Philox(seed), and offset c; and the drawn neurons."""
    inactive = _draw_inactive(_rng(seed), count, t.a, t.b)
    w, bias, v = zip(*active, *inactive)
    return Params.from_parts(w, bias, v, c), inactive


def sample_M(t: BenchmarkTarget, H: int, x: float, y: float, seed: int = 0) -> MinimaSample:
    """Sample the critical family at normalized kink x in (alpha, beta) and
    inner scale y > 0; neurons j >= 2 are drawn strictly inactive."""
    if not (t.alpha < x < t.beta):
        raise DomainError(f"x={x!r} outside (alpha, beta)")
    if not y > 0.0:
        raise DomainError("y must be positive")
    if H < 1:
        raise DomainError("H must be >= 1")
    width = t.b - t.a
    w1 = y / width
    b1 = -y * (x + t.a / width)
    v1 = t.scale / (2.0 * y * (1.0 - x) ** 1.5 * math.sqrt(1.0 + 3.0 * x))
    c = -t.scale * math.sqrt(1.0 - x) / (4.0 * math.sqrt(1.0 + 3.0 * x))
    theta, inactive = _family_params(t, [(w1, b1, v1)], c, H - 1, seed)
    return MinimaSample(x=x, y=y, inactive=tuple(inactive), theta=theta)


def minima_risk(t: BenchmarkTarget, method: str = "gauss_kronrod") -> float:
    """The common risk value on the critical family:
    (b - a) * scale**2 * (int_0^1 g**2 - 1/48), with g the unscaled
    normalized target, its integral read from ``unit_sq_integral``."""
    return (t.b - t.a) * t.scale ** 2 * (t.unit_sq_integral(method) - 1.0 / 48.0)


def verify_zero_integrals(t: BenchmarkTarget, q: float) -> tuple[float, float, float]:
    """Residuals of the three defining identities of the single-kink family
    at normalized kink q in (alpha, beta): the integrals of (N - f) left and
    right of the kink and of x(N - f) right of it.  All should vanish."""
    # nodes a, the kink, b
    _, n0, n1, F, G = _running_sums(sample_M(t, 1, q, 1.0, seed=0).theta.theta, 1, t)
    return (n0[1] - F[1],
            (n0[2] - n0[1]) - (F[2] - F[1]),
            (n1[2] - n1[1]) - (G[2] - G[1]))


@dataclass(frozen=True)
class GapCertificate:
    """Risk gap between a family sample and the two-kink witness; passes if > 0."""

    theta: Params
    witness: Params
    risk_theta: float
    risk_witness: float
    gap: float
    passed: bool


def certify_gap(t: BenchmarkTarget, H: int, p: float, eps: float, seed: int = 0,
                method: str = "gauss_kronrod") -> GapCertificate:
    """Exact risks of the family sample at kink p (inactive neurons from ``seed``)
    and of the two-kink witness: kinks at normalized p -+ eps, each with half
    the slope change of the family's kink (inactive neurons from ``seed + 1``)."""
    sample = sample_M(t, H, p, 1.0, seed=seed)
    if H < 2:
        raise DomainError("the witness needs H >= 2")
    if not (eps > 0.0 and t.alpha < p - eps and p + eps < t.beta):
        raise DomainError("(p - eps, p + eps) must lie inside (alpha, beta)")
    if t.scale <= 0.0:
        raise DomainError("witness construction requires a positive target scale")
    cp = -math.sqrt(1.0 - p) / (4.0 * math.sqrt(1.0 + 3.0 * p))
    half_slope = 1.0 / (4.0 * (1.0 - p) ** 1.5 * math.sqrt(1.0 + 3.0 * p))
    width = t.b - t.a
    active = [(1.0 / width, -t.a / width - p + eps, t.scale * half_slope),
              (1.0 / width, -t.a / width - p - eps, t.scale * half_slope)]
    witness = _family_params(t, active, t.scale * cp, H - 2, seed + 1)[0]
    r_theta = risk_theta(sample.theta.theta, H, t, method)
    r_wit = risk_theta(witness.theta, H, t, method)
    gap = r_theta - r_wit
    return GapCertificate(theta=sample.theta, witness=witness, risk_theta=r_theta,
                          risk_witness=r_wit, gap=gap, passed=gap > 0.0)


@dataclass(frozen=True)
class SampleCertificate:
    """One family sample's checked values and its verdict."""

    sample: MinimaSample
    grad_max_norm: float
    risk: float
    residuals: tuple[float, float, float]  # of verify_zero_integrals
    hessian: HessianReport  # coords="all"
    closed_rel: float  # worst relative entry of its restricted4 block vs the closed form
    passed: bool


@dataclass(frozen=True)
class FamilyCertificate:
    """The family risk from both backends, each certificate, and the verdict."""

    reference_risk: float
    reference_risk_cross_check: float
    samples: tuple[SampleCertificate, ...]
    gap: GapCertificate | None
    passed: bool


def certify_family(t: BenchmarkTarget, H: int, xs: list[float], y: float, seed: int = 0,
                   gap: tuple[float, float] | None = None) -> FamilyCertificate:
    """Certify the family at the kinks xs with inner scale y: sample k draws its
    inactive neurons from ``seed + k``; ``gap=(p, eps)`` adds ``certify_gap``."""
    ref = minima_risk(t)
    ref_simpson = minima_risk(t, method="simpson")
    passed = abs(ref - ref_simpson) <= REFERENCE_RTOL * max(1.0, abs(ref))
    # the (w_1, b_1, v_1, c) block is what coords="restricted4" computes
    idx = _coord_indices(H, "restricted4")
    samples = []
    for k, x in enumerate(xs):
        s = sample_M(t, H, x, y, seed=seed + k)
        gn = grad(s.theta, t).max_norm()
        r = risk(s.theta, t)
        full = hessian_fd(s.theta, t, coords="all")
        closed = closed_hessian_M(x, s.theta.w(0), t)
        rel = max(abs(full.matrix[i][j] - closed.matrix[row][col])
                  / max(abs(closed.matrix[row][col]), 1e-300)
                  for row, i in enumerate(idx) for col, j in enumerate(idx))
        res = verify_zero_integrals(t, x)
        ok = (gn < GRAD_TOL
              and abs(r - ref) <= RISK_RTOL * max(abs(ref), 1e-300)
              and full.numerical_rank == HESSIAN_RANK
              and full.min_eigenvalue > -MIN_EIGENVALUE_TOL
              and rel < CLOSED_HESSIAN_RTOL
              and max(abs(v) for v in res) < RESIDUAL_TOL)
        passed = passed and ok
        samples.append(SampleCertificate(s, gn, r, res, full, rel, ok))
    gap_cert = None if gap is None else certify_gap(t, H, *gap, seed=seed)
    passed = passed and (gap_cert is None or gap_cert.passed)
    return FamilyCertificate(ref, ref_simpson, tuple(samples), gap_cert, passed)
