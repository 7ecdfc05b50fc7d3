"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 9 trains the full pinned 50-run ensemble and dominates
the runtime (~1 minute single-thread).
"""

import math
import time

import numpy as np
import pytest

from reluland import (BenchmarkTarget, Params, PolyTarget, TrainConfig,
                      certify_gap, classify, closed_hessian_M, enumerate_all,
                      ensemble, fd_gradient, gf_run, grad, grad_smooth,
                      hessian_fd, minima_risk, risk, sample_M, verify_zero_integrals)
from reluland.landscape import CritClass

from conftest import poly_target, rng_for, scaled

ALPHA, BETA = 1.0 / 3.0, 2.0 / 3.0
SAMPLE_XS = [0.35 + 0.30 * k / 9.0 for k in range(10)]

# frozen regression digest of the pinned-seed ensemble (criterion 9)
ENSEMBLE_SEED = 20260809
ENSEMBLE_N_CLUSTERS = 18
ENSEMBLE_MIN_RISK = 7.231468593950699e-05
ENSEMBLE_SPREAD = 0.024911011994653773


@pytest.fixture(scope="module")
def bench_t():
    return BenchmarkTarget(ALPHA, BETA, 0.0, 1.0)


@pytest.fixture(scope="module")
def samples(bench_t):
    return [sample_M(bench_t, 4, x, 1.0, seed=k) for k, x in enumerate(SAMPLE_XS)]


@pytest.fixture(scope="module")
def xsq_t():
    return poly_target([0.0, 1.0], [[0.0, 0.0, 1.0]])


def report(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok


def test_criterion_01_zero_gradient(bench_t, samples):
    t0 = time.perf_counter()
    worst = max(grad(s.theta, bench_t).max_norm() for s in samples)
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-10 and elapsed < 1.0,
           f"(max |G| = {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_constant_risk(bench_t, samples):
    ref_gk = minima_risk(bench_t, method="gauss_kronrod")
    ref_si = minima_risk(bench_t, method="simpson")
    quad_ok = abs(ref_gk - ref_si) < 1e-10
    worst = max(abs(risk(s.theta, bench_t) - ref_gk) / ref_gk for s in samples)
    report(2, quad_ok and worst < 1e-9,
           f"(risk = {ref_gk:.12g}, quad gap = {abs(ref_gk - ref_si):.2e}, "
           f"max rel dev = {worst:.2e})")


def test_criterion_03_hessian_certificates(bench_t, samples):
    t0 = time.perf_counter()
    ok = True
    worst_rel = 0.0
    for s in samples:
        full = hessian_fd(s.theta, bench_t, coords="all")
        ok = ok and full.numerical_rank == 2 and full.min_eigenvalue > -1e-8
        restricted = hessian_fd(s.theta, bench_t, coords="restricted4")
        closed = closed_hessian_M(s.x, s.theta.w(0), bench_t)
        for i in range(4):
            for j in range(4):
                rel = abs(restricted.matrix[i][j] - closed.matrix[i][j]) / abs(
                    closed.matrix[i][j])
                worst_rel = max(worst_rel, rel)
        ok = ok and abs(closed.matrix[3][3] - 2.0) < 1e-15
    elapsed = time.perf_counter() - t0
    report(3, ok and worst_rel < 1e-5 and elapsed < 5.0,
           f"(worst entry rel = {worst_rel:.2e}, {elapsed:.2f}s)")


def test_criterion_04_nonglobality_gap(bench_t):
    gk = certify_gap(bench_t, 4, 0.5, 0.05, seed=3, method="gauss_kronrod")
    si = certify_gap(bench_t, 4, 0.5, 0.05, seed=3, method="simpson")
    stable = abs(gk.gap - si.gap) < 1e-10
    report(4, gk.gap > 0.0 and si.gap > 0.0 and stable,
           f"(gap = {gk.gap:.6e}, backend diff = {abs(gk.gap - si.gap):.2e})")


def test_criterion_05_local_min_probe(bench_t):
    rng = rng_for(20260805)
    ok = True
    for k in (0, 4, 9):
        s = sample_M(bench_t, 4, SAMPLE_XS[k], 1.0, seed=k)
        base = risk(s.theta, bench_t)
        n = len(s.theta.theta)
        for _ in range(10_000):
            d = rng.normal(0.0, 1.0, n)
            d *= rng.uniform(0.0, 1e-4) / np.linalg.norm(d)
            th = tuple(x + dx for x, dx in zip(s.theta.theta, d))
            ok = ok and risk(Params(4, th), bench_t) >= base - 1e-9
    report(5, ok, "(3 x 10^4 perturbations, |delta| <= 1e-4)")


def test_criterion_06_zero_integrals(bench_t):
    worst = 0.0
    for q in (0.35, 0.5, 0.65):
        worst = max(worst, max(abs(r) for r in verify_zero_integrals(bench_t, q)))
    report(6, worst < 1e-10, f"(max residual = {worst:.2e})")


def test_criterion_07_enumeration_analytic(xsq_t):
    cat = enumerate_all(xsq_t)
    by_kind = {e.kind: e for e in cat.entries}
    ok = set(by_kind) == {"constant", "affine", "kink_increasing"}
    ok = ok and abs(by_kind["constant"].realization.offset - 1.0 / 3.0) < 1e-12
    affine = by_kind["affine"].realization
    ok = ok and abs(affine.slopes[0] - 1.0) < 1e-9
    ok = ok and abs(affine.offset + 1.0 / 6.0) < 1e-9
    kink = by_kind["kink_increasing"]
    ok = ok and abs(kink.q - 1.0 / 3.0) < 1e-9
    ok = ok and abs(kink.c - 1.0 / 27.0) < 1e-9
    ok = ok and abs(kink.vw - 4.0 / 3.0) < 1e-8
    worst_res = max(max(abs(r) for r in s.residuals) for s in cat.kinks)
    ok = ok and worst_res < 1e-9
    ok = ok and all(e.grad_norm < 1e-9 for e in cat.entries)
    # decreasing case: the oracle confirms there are none for this target
    inc, dec = cat.orientations
    ok = ok and dec.oracle.brackets == ()
    ok = ok and len(inc.oracle.brackets) == 1
    ok = ok and cat.oracle_ok and cat.passed
    report(7, ok, f"(catalog = {sorted(by_kind)}, max residual = {worst_res:.1e})")


def test_criterion_08_gradient_consistency(bench_t):
    rng = rng_for(20260809)
    worst_fd = 0.0
    worst_sm = 0.0
    for k in range(100):
        H = 1 if k < 50 else 4
        while True:
            w = rng.uniform(0.9, 1.1, H) * rng.choice([-1.0, 1.0], H)
            q = rng.uniform(-0.15, 1.15, H)
            if min(abs(w * q)) >= 2e-3 and min(abs(w * (1.0 - q))) >= 2e-3:
                break
        p = Params.from_parts(
            [float(x) for x in w], [float(x) for x in -w * q],
            [float(x) for x in rng.uniform(0.02, 0.08, H) * rng.choice([-1.0, 1.0], H)],
            float(rng.uniform(-0.02, 0.02)))
        g = grad(p, bench_t)
        fd = fd_gradient(p, bench_t, h=1e-6)
        worst_fd = max(worst_fd, max(abs(a - b) for a, b in zip(g, fd)))
        gs = grad_smooth(p, bench_t, 10 ** 6, tol=1e-10)
        worst_sm = max(worst_sm, max(abs(a - b) for a, b in zip(g, gs)))
    report(8, worst_fd < 1e-5 and worst_sm < 1e-3,
           f"(fd gap = {worst_fd:.2e}, smooth gap = {worst_sm:.2e})")


def test_criterion_09_training_reproduction(bench_t):
    cfg = TrainConfig(H=4, lr=1.0 / 20.0, grad_tol=1e-4, dedup_l2=1e-4,
                      master_seed=ENSEMBLE_SEED, runs=50)
    t0 = time.perf_counter()
    rep = ensemble(bench_t, cfg)
    elapsed = time.perf_counter() - t0
    ok = all(r.converged and r.grad_max_norm < 1e-4 for r in rep.runs)
    separated = rep.risk_spread() > 1e-4
    if not separated and rep.all_co_clustered:
        rep2 = ensemble(bench_t, TrainConfig(
            H=4, lr=1.0 / 20.0, grad_tol=1e-4, dedup_l2=1e-4,
            master_seed=ENSEMBLE_SEED + 1000, runs=50))
        separated = rep2.risk_spread() > 1e-4 or rep2.all_co_clustered
    # determinism: the pinned seed reproduces the frozen digest exactly
    deterministic = (len(rep.clusters) == ENSEMBLE_N_CLUSTERS
                     and rep.clusters[0].risk == pytest.approx(
                         ENSEMBLE_MIN_RISK, rel=1e-12, abs=0)
                     and rep.risk_spread() == pytest.approx(
                         ENSEMBLE_SPREAD, rel=1e-12, abs=0))
    report(9, ok and separated and deterministic and elapsed < 120.0,
           f"({len(rep.clusters)} clusters, spread = {rep.risk_spread():.3e}, "
           f"{elapsed:.0f}s)")


def test_criterion_10_gradient_flow(xsq_t):
    cat = enumerate_all(xsq_t)
    best = cat.entries[0]
    rng = rng_for(61)
    delta = rng.normal(0.0, 1.0, 4)
    delta *= 0.9e-2 / np.linalg.norm(delta)
    p0 = Params(1, tuple(x + d for x, d in zip(best.theta.theta, delta)))
    rtol = 1e-8
    run = gf_run(p0, xsq_t, t_end=40.0, rtol=rtol)
    risks = [r for _, r in run.samples]
    monotone = all(r1 <= r0 + 10.0 * rtol * (1.0 + abs(r0))
                   for r0, r1 in zip(risks, risks[1:]))
    gap = abs(run.final_risk - best.risk)
    report(10, gap < 1e-6 and monotone and not run.step_underflow,
           f"(final gap = {gap:.2e}, monotone = {monotone})")


def test_criterion_11_risk_scaling(bench_t, xsq_t):
    rng = rng_for(34)
    ok = True
    worst = 0.0
    for t in (bench_t, xsq_t):
        for c in (0.5, 2.0, -3.0):
            w = [float(x) for x in rng.uniform(-1.5, 1.5, 3)]
            b = [float(x) for x in rng.uniform(-1.0, 1.0, 3)]
            v = [float(x) for x in rng.uniform(-1.0, 1.0, 3)]
            cc = float(rng.uniform(-0.5, 0.5))
            p = Params.from_parts(w, b, v, cc)
            p_c = Params.from_parts(w, b, [c * x for x in v], c * cc)
            lhs = risk(p_c, scaled(t, c))
            rhs = c * c * risk(p, t)
            rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
            worst = max(worst, rel)
            ok = ok and rel < 1e-10
    report(11, ok, f"(worst rel dev = {worst:.2e})")
