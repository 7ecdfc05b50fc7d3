"""Construction and certification of the single-kink local-minimum family.

For the benchmark target there is a (3H-1)-parameter family of parameter
vectors, indexed by the normalized kink position x in (alpha, beta) and an
inner scale y > 0 (plus arbitrary strictly inactive neurons), all realizing
single-kink functions that are non-global local minima of the risk.  This
module samples the family, checks the defining zero-integral identities,
evaluates the common risk value in closed form + one quadrature, and builds
the two-kink comparison network witnessing that the family's risk level is
not globally optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WitnessError
from .landscape import _Geometry, risk_theta
from .network import Params
from .target import BenchmarkTarget

__all__ = [
    "MinimaSample",
    "GapCertificate",
    "sample_M",
    "minima_risk",
    "verify_zero_integrals",
    "two_kink_witness",
    "certify_gap",
]


@dataclass(frozen=True)
class MinimaSample:
    """One point of the critical family: normalized kink x, inner scale y,
    the drawn inactive neurons, and the assembled parameter vector."""

    x: float
    y: float
    inactive: tuple[tuple[float, float, float], ...]  # (w_j, b_j, v_j), j >= 2
    theta: Params


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


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
            raise AssertionError("inactive draw violated strict inactivity")
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
    at normalized kink q: the integrals of (N - f) left and right of the
    kink and of x(N - f) right of it.  All should vanish."""
    if not (t.alpha < q < t.beta):
        raise DomainError(f"q={q!r} outside (alpha, beta)")
    geo = _Geometry(sample_M(t, 1, q, 1.0, seed=0).theta.theta, 1, t)
    n0, n1, F, G = geo.net0, geo.net1, geo.F, geo.G  # nodes a, the kink, b
    return ((n0[1] - n0[0]) - (F[1] - F[0]),
            (n0[2] - n0[1]) - (F[2] - F[1]),
            (n1[2] - n1[1]) - (G[2] - G[1]))


def two_kink_witness(t: BenchmarkTarget, H: int, p: float, eps: float,
                     seed: int = 0) -> Params:
    """Two-kink network with kinks at normalized p -+ eps, each with half the
    slope change of the family's kink at p.  Whether its risk lies strictly
    below the family's level is decided by the exact risks in ``certify_gap``.
    """
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
    return _family_params(t, active, t.scale * cp, H - 2, seed)[0]


@dataclass(frozen=True)
class GapCertificate:
    """Strict risk gap between a family sample and the two-kink witness."""

    theta: Params
    witness: Params
    risk_theta: float
    risk_witness: float
    gap: float


def certify_gap(t: BenchmarkTarget, H: int, p: float, eps: float, seed: int = 0,
                method: str = "gauss_kronrod") -> GapCertificate:
    """Build the sample/witness pair at kink p and certify that the gap of
    their exact risks is positive (WitnessError otherwise)."""
    sample = sample_M(t, H, p, 1.0, seed=seed)
    witness = two_kink_witness(t, H, p, eps, seed=seed + 1)
    r_theta = risk_theta(sample.theta.theta, H, t, method)
    r_wit = risk_theta(witness.theta, H, t, method)
    gap = r_theta - r_wit
    if not gap > 0.0:
        raise WitnessError(f"non-positive risk gap {gap!r}")
    return GapCertificate(theta=sample.theta, witness=witness,
                          risk_theta=r_theta, risk_witness=r_wit, gap=gap)
