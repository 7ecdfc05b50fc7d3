"""Full-batch gradient descent on the exact risk, and gradient flow.

Training uses the closed-form generalized gradient, so there is no
sampling noise: a run is a deterministic function of its seed.  The
random number generator is the 64-bit counter-based Philox generator
(numpy's ``np.random.Philox``), chosen for cross-platform bit
reproducibility; draw order is documented on ``xavier_init``.
Iterates with a kink on a domain endpoint are counted with the geometry
kernel's ``network._kink_near_endpoint`` test, the one ``hessian_fd``
refuses with; ensemble clusters are the L2 groups of ``network._greedy_groups``.
Gradient descent freezes the neurons that ``network._adds_nothing`` at
its start point out of its iterate, which changes no bit of a run.
The gradient flow attempts at most ``GF_MAX_STEPS`` steps.  The CLI only
writes the verdicts ``EnsembleReport.passed`` and ``GFRun.passed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .landscape import grad_theta, risk_theta
from .network import (Params, Realization, _adds_nothing, _greedy_groups, _kink_near_endpoint,
                      canonical)
from .target import Target

__all__ = [
    "TrainConfig",
    "TrainRun",
    "Cluster",
    "EnsembleReport",
    "GFRun",
    "xavier_var",
    "xavier_init",
    "gd_run",
    "ensemble",
    "gf_run",
]

DIVERGENCE_NORM = 1e8
NONSMOOTH_EPS = 1e-14
GF_MAX_SAMPLES = 2000
GF_MAX_STEPS = 50_000  # attempted RK4 steps, accepted or rejected
SEED_LIMIT = 2 ** 128  # Philox keys are the integers in [0, SEED_LIMIT)


@dataclass(frozen=True)
class TrainConfig:
    H: int = 4
    lr: float = 1.0 / 20.0
    grad_tol: float = 1e-4
    max_iters: int = 10_000_000
    dedup_l2: float = 1e-4
    master_seed: int = 0
    runs: int = 50

    def __post_init__(self):
        if self.H < 1 or self.max_iters <= 0 or self.runs < 1:
            raise DomainError("H, max_iters and runs must be positive")
        # 0 < x < inf is false for NaN as well
        for name in ("lr", "grad_tol", "dedup_l2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite")
        _check_seed(self.master_seed)
        _check_seed(self.master_seed + self.runs - 1)


def xavier_var(H: int) -> float:
    """Xavier variance 2/(fan-in + fan-out) of the initial weights: 2/(1+H)
    for both layers (fan-in 1 and fan-out H, then the reverse)."""
    return 2.0 / (1.0 + H)


def _check_seed(seed: int) -> int:
    """seed, if it is an int (not a bool) in [0, SEED_LIMIT); else DomainError."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < SEED_LIMIT:
        raise DomainError(f"seed {seed!r} is not an integer in [0, 2**128)")
    return seed


def _rng(seed: int) -> np.random.Generator:
    """The Philox(seed) generator of every seeded draw in the package."""
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)))


def xavier_init(H: int, seed: int) -> Params:
    """Zero-bias initialization with fan-scaled normal weights.

    Inner weights then outer weights are drawn i.i.d. N(0, xavier_var(H))
    from Philox(seed), in that order; biases and the output offset start
    at zero.
    """
    if H < 1:
        raise DomainError("H must be >= 1")
    rng = _rng(seed)
    sd = math.sqrt(xavier_var(H))
    w = rng.normal(0.0, sd, H)
    v = rng.normal(0.0, sd, H)
    return Params.from_parts([float(x) for x in w], [0.0] * H,
                             [float(x) for x in v], 0.0)


@dataclass(frozen=True)
class TrainRun:
    seed: int | None
    iterations: int
    theta: Params
    grad_max_norm: float
    risk: float
    realization: Realization
    converged: bool
    diverged: bool = False
    nonsmooth_hits: int = 0


def gd_run(p0: Params, t: Target, cfg: TrainConfig, seed: int | None = None) -> TrainRun:
    """Plain gradient descent theta <- theta - lr * G(theta) until the
    gradient max-norm drops below grad_tol or the iteration cap is hit;
    a gradient below grad_tol with a NaN or inf entry is a ``DomainError``.

    Iterates with |w_j x + b_j| <= 1e-14 at a domain endpoint x for some
    neuron j (a kink on a or b, or a dead neuron) are counted in
    ``nonsmooth_hits``, not fatal: the generalized gradient is defined
    everywhere.

    A neuron that ``network._adds_nothing`` at p0 has no span, so its
    gradient is the kernel's +0.0 and x - lr * 0.0 = x: it never moves.
    With its entries within DIVERGENCE_NORM it is frozen out of the
    iterate before the first gradient: ``grad_theta`` runs at the live
    width (0 allowed), the frozen neurons' endpoint test is a constant,
    and no bit of the run moves.  A neuron that dies mid-run stays in the
    iterate, where the kernel skips it just the same.
    """
    H = cfg.H
    if p0.H != H:
        raise DomainError("p0 width does not match config")
    a, b = t.domain
    full = p0.theta  # keeps the frozen neurons' entries
    frozen = [j for j in range(H) if _adds_nothing(full[j], full[H + j], a, b) and
              all(abs(x) <= DIVERGENCE_NORM for x in full[j:3 * H:H])]
    # the entries of full that theta holds
    mask = [k == 3 * H or k % H not in frozen for k in range(3 * H + 1)]
    theta = [x for x, m in zip(full, mask) if m]
    h = H - len(frozen)  # theta's width, the live neurons
    # some frozen neuron has a kink on a domain end
    frozen_hit = any(_kink_near_endpoint((full[j], full[H + j]), 1, a, b, NONSMOOTH_EPS)
                     for j in frozen)
    lr = cfg.lr
    iterations = 0
    nonsmooth = 0
    converged = False
    diverged = False
    gm = math.inf
    while True:
        g = grad_theta(theta, h, t)
        gm = max(map(abs, g))
        if gm != gm:  # with a NaN, max depends on the order: take width H's
            gm = max(map(abs, _widen(g, mask, [0.0] * len(mask))))
        if gm < cfg.grad_tol:
            if not all(map(math.isfinite, g)):  # max passed over a NaN
                raise DomainError(f"GD met a non-finite gradient after {iterations} steps")
            converged = True
            break
        if iterations >= cfg.max_iters:
            break
        theta = [x - lr * gx for x, gx in zip(theta, g)]
        iterations += 1
        if frozen_hit or _kink_near_endpoint(theta, h, a, b, NONSMOOTH_EPS):
            nonsmooth += 1
        top = max(map(abs, theta))
        if top != top:
            top = max(map(abs, _widen(theta, mask, full)))
        if top > DIVERGENCE_NORM:
            diverged = True
            break
    theta = _widen(theta, mask, full)
    p = Params(H, tuple(theta))
    return TrainRun(seed=seed, iterations=iterations, theta=p,
                    grad_max_norm=gm, risk=risk_theta(theta, H, t),
                    realization=canonical(p, a, b), converged=converged,
                    diverged=diverged, nonsmooth_hits=nonsmooth)


def _widen(x: list[float], mask: list[bool], base: list[float]) -> list[float]:
    """base with the entries that mask marks taken, in order, from x."""
    it = iter(x)
    return [next(it) if m else y for y, m in zip(base, mask)]


@dataclass(frozen=True)
class Cluster:
    representative: Realization
    seeds: tuple[int, ...]
    risk: float


@dataclass(frozen=True)
class EnsembleReport:
    config: TrainConfig
    runs: tuple[TrainRun, ...]
    clusters: tuple[Cluster, ...]  # sorted by risk

    @property
    def all_co_clustered(self) -> bool:
        return len(self.clusters) == 1

    def risk_spread(self) -> float:
        if not self.clusters:
            return 0.0
        return self.clusters[-1].risk - self.clusters[0].risk

    @property
    def passed(self) -> bool:
        """Every run converged and none diverged."""
        return all(r.converged for r in self.runs) and not any(r.diverged for r in self.runs)


def ensemble(t: Target, cfg: TrainConfig) -> EnsembleReport:
    """Train runs seeds master_seed..master_seed+runs-1, then cluster their
    realizations with ``network._greedy_groups`` at L2 distance dedup_l2.

    Diverged runs are reported but excluded from clustering.  The report
    is a pure function of (target, config).
    """
    runs = [gd_run(xavier_init(cfg.H, seed), t, cfg, seed=seed)
            for seed in range(cfg.master_seed, cfg.master_seed + cfg.runs)]
    kept = [run for run in runs if not run.diverged]
    clusters = [Cluster(representative=kept[g[0]].realization,
                        seeds=tuple(kept[i].seed for i in g), risk=kept[g[0]].risk)
                for g in _greedy_groups([run.realization for run in kept], cfg.dedup_l2)]
    clusters.sort(key=lambda cl: cl.risk)
    return EnsembleReport(config=cfg, runs=tuple(runs), clusters=tuple(clusters))


@dataclass(frozen=True)
class GFRun:
    t_end: float
    reached_t: float
    steps_accepted: int
    steps_rejected: int
    samples: tuple[tuple[float, float], ...]  # (time, risk)
    final_theta: Params
    final_risk: float
    monotone: bool
    step_underflow: bool = False

    @property
    def passed(self) -> bool:
        """Monotone risk and no step underflow."""
        return self.monotone and not self.step_underflow


def gf_run(p0: Params, t: Target, t_end: float, rtol: float = 1e-8) -> GFRun:
    """Integrate theta' = -G(theta) with classic RK4 and adaptive halving.

    A step is accepted when the full-step/two-half-steps discrepancy,
    relative to the iterate size, is below rtol; accepted steps may double
    the next step size.  Each iterate's slope is computed once, for all
    the attempts from it.  Steps shrinking below 1e-12 abort with a partial
    result flagged ``step_underflow``; GF_MAX_STEPS attempted steps raise
    ``DomainError``.  Beyond GF_MAX_SAMPLES accepted steps, the (time,
    risk) samples are thinned with a constant stride, keeping the last one.
    The run is ``monotone`` when no kept sample's risk exceeds its
    predecessor's r by more than 10 rtol (1 + |r|).
    """
    if not (0.0 < t_end < math.inf and 0.0 < rtol < math.inf):
        raise DomainError("t_end and rtol must be positive and finite")
    H = p0.H

    # k1..k4 are gradients G, not slopes -G, so each stage subtracts; as
    # negation is exact, the iterates keep the bits of RK4 on -G
    def rk4(y, h, k1):
        hh = 0.5 * h
        h6 = h / 6.0
        k2 = grad_theta([u - hh * d for u, d in zip(y, k1)], H, t)
        k3 = grad_theta([u - hh * d for u, d in zip(y, k2)], H, t)
        k4 = grad_theta([u - h * d for u, d in zip(y, k3)], H, t)
        return [u - h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                for u, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]

    y = list(p0.theta)
    t_now = 0.0
    h = min(1e-2, t_end)
    accepted = 0
    rejected = 0
    underflow = False
    samples = [(0.0, risk_theta(y, H, t))]
    k1 = None  # the slope at y, shared by every attempt from y
    while t_now < t_end:
        if accepted + rejected >= GF_MAX_STEPS:
            raise DomainError(f"gradient flow reached t = {t_now!r} of t_end = {t_end!r} "
                              f"in {GF_MAX_STEPS} steps; lower t_end or raise rtol")
        h = min(h, t_end - t_now)
        if k1 is None:
            k1 = grad_theta(y, H, t)
        y_full = rk4(y, h, k1)
        y_mid = rk4(y, 0.5 * h, k1)
        y_half = rk4(y_mid, 0.5 * h, grad_theta(y_mid, H, t))
        err = max(abs(u - v) for u, v in zip(y_full, y_half))
        scale = 1.0 + max(abs(x) for x in y_half)
        if err <= rtol * scale:
            y = y_half
            k1 = None
            t_now += h
            accepted += 1
            samples.append((t_now, risk_theta(y, H, t)))
            if err <= rtol * scale / 64.0:
                h *= 2.0
        else:
            rejected += 1
            h *= 0.5
            if h < 1e-12:
                underflow = True
                break
    if len(samples) > GF_MAX_SAMPLES:
        stride = (len(samples) + GF_MAX_SAMPLES - 1) // GF_MAX_SAMPLES
        samples = samples[:-1:stride] + [samples[-1]]
    monotone = all(r1 - r0 <= 10.0 * rtol * (1.0 + abs(r0))
                   for (_, r0), (_, r1) in zip(samples, samples[1:]))
    p = Params(H, tuple(y))
    return GFRun(t_end=t_end, reached_t=t_now, steps_accepted=accepted,
                 steps_rejected=rejected, samples=tuple(samples), final_theta=p,
                 final_risk=samples[-1][1], monotone=monotone, step_underflow=underflow)
