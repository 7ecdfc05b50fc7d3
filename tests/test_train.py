import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluland import (BenchmarkTarget, Params, TrainConfig, canonical, enumerate_all,
                      ensemble, gd_run, gf_run, grad, l2_distance, risk, sample_M,
                      xavier_init)
from reluland import train
from reluland.errors import DomainError
from reluland.landscape import grad_theta, risk_theta
from reluland.network import _adds_nothing, _kink_near_endpoint
from reluland.train import (DIVERGENCE_NORM, GF_MAX_SAMPLES, NONSMOOTH_EPS, SEED_LIMIT,
                            TrainRun)

from conftest import parts, poly_target, rng_for

# frozen after the first verified run: seed 42, H=4, benchmark target,
# lr=1/20, grad_tol=1e-4
SEED42_ITERATIONS = 7802
SEED42_RISK = 0.004152778825654815


def test_xavier_biases_zero():
    _, b, _, c = parts(xavier_init(4, seed=7))
    assert b == (0.0,) * 4
    assert c == 0.0


def test_xavier_variance():
    draws = []
    for s in range(12500):  # 12500 * 8 = 1e5 weight draws at H=4
        w, _, v, _ = parts(xavier_init(4, seed=s))
        draws.extend(w)
        draws.extend(v)
    var = float(np.var(draws))
    assert abs(var - 0.4) < 0.05 * 0.4


def test_xavier_deterministic():
    assert xavier_init(4, seed=99) == xavier_init(4, seed=99)
    assert xavier_init(4, seed=99) != xavier_init(4, seed=100)
    for H in (0, -1):
        with pytest.raises(DomainError, match="H must be >= 1"):
            xavier_init(H, seed=0)


@pytest.mark.parametrize("seed", [-1, SEED_LIMIT, SEED_LIMIT + 5, True, False, 1.0, "1", None])
def test_seeds_outside_philox_keys_are_domain_errors(bench, seed):
    # a seed is an int, not a bool, in Philox's key range [0, 2**128)
    with pytest.raises(DomainError, match="seed"):
        xavier_init(2, seed)
    with pytest.raises(DomainError, match="seed"):
        sample_M(bench, 2, 0.5, 1.0, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        TrainConfig(master_seed=seed)


def test_seed_range_ends():
    assert xavier_init(2, SEED_LIMIT - 1) == xavier_init(2, SEED_LIMIT - 1)
    assert TrainConfig(master_seed=SEED_LIMIT - 2, runs=2).master_seed == SEED_LIMIT - 2
    # the config refuses a seed block that leaves the range before any run
    with pytest.raises(DomainError, match=str(SEED_LIMIT)):
        TrainConfig(master_seed=SEED_LIMIT - 2, runs=3)


def test_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(lr=0.0)
    with pytest.raises(DomainError):
        TrainConfig(runs=0)
    for field in ("lr", "grad_tol", "dedup_l2"):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                TrainConfig(**{field: bad})


def test_gd_zero_start_zero_target():
    t = poly_target([0.0, 1.0], [[0.0]])
    cfg = TrainConfig(H=2, runs=1)
    p0 = Params.from_parts([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.0)
    run = gd_run(p0, t, cfg)
    assert run.converged and run.iterations == 0
    assert run.grad_max_norm == 0.0
    with pytest.raises(DomainError, match="width"):
        gd_run(p0, t, replace(cfg, H=3))


def test_gd_family_sample_is_fixed_point(bench):
    cfg = TrainConfig(H=4, runs=1)
    s = sample_M(bench, 4, 0.5, 1.0, seed=0)
    run = gd_run(s.theta, bench, cfg)
    assert run.converged and run.iterations == 0


def test_gd_pinned_seed_regression(bench):
    cfg = TrainConfig(H=4, master_seed=42, runs=1)
    run = gd_run(xavier_init(4, 42), bench, cfg, seed=42)
    assert run.converged
    assert run.iterations == SEED42_ITERATIONS
    assert run.risk == pytest.approx(SEED42_RISK, rel=1e-12)


def test_gd_divergence_stops_the_run_and_leaves_it_unclustered(bench):
    # lr = 10 overshoots: |theta| passes DIVERGENCE_NORM after 7 steps while
    # the risk is still finite
    cfg = TrainConfig(H=1, lr=10.0, runs=1)
    run = gd_run(xavier_init(1, 0), bench, cfg, seed=0)
    assert run.diverged and not run.converged
    assert run.iterations == 7
    assert max(map(abs, run.theta.theta)) > DIVERGENCE_NORM
    assert math.isfinite(run.risk)
    rep = ensemble(bench, cfg)
    assert rep.runs == (run,) and rep.clusters == ()


def test_ensemble_passes_only_when_every_run_converges(bench):
    assert ensemble(bench, TrainConfig(H=2, grad_tol=1e-3, master_seed=50, runs=2)).passed
    diverged = ensemble(bench, TrainConfig(H=1, lr=10.0, runs=1))
    assert diverged.runs[0].diverged and not diverged.passed
    capped = ensemble(bench, TrainConfig(H=1, max_iters=1, runs=1))
    assert not capped.runs[0].converged and not capped.passed


def test_gd_counts_dead_neuron_every_iteration(xsq):
    # a dead neuron (w = b = 0) has a zero gradient, so it never moves
    cfg = TrainConfig(H=2, grad_tol=1e-12, max_iters=25, runs=1)
    p0 = Params.from_parts([0.0, 0.8], [0.0, -0.2], [0.5, 0.7], 0.0)
    run = gd_run(p0, xsq, cfg)
    assert run.iterations == 25 and run.nonsmooth_hits == 25
    w, b, v, _ = parts(run.theta)
    assert (w[0], b[0], v[0]) == (0.0, 0.0, 0.5)


@pytest.mark.parametrize("bias, hits", [(0.0, 1), (-1e-14, 1), (-1e-13, 0)])
def test_gd_counts_kink_on_domain_endpoint(xsq, bias, hits):
    # v = 0 freezes (w, b) on the first step, so the kink stays at -bias;
    # |w a + b| = 1e-14 still counts
    cfg = TrainConfig(H=1, grad_tol=1e-12, max_iters=1, runs=1)
    run = gd_run(Params.from_parts([1.0], [bias], [0.0], 0.0), xsq, cfg)
    _, b, v, _ = parts(run.theta)
    assert b[0] == bias and v[0] != 0.0
    assert run.iterations == 1 and run.nonsmooth_hits == hits


def _full_width_gd(p0, t, cfg, seed=None, grad=grad_theta):
    """gd_run before it froze neurons out: every step updates, tests and
    max-norms all 3H + 1 entries."""
    H = cfg.H
    a, b = t.domain
    theta = list(p0.theta)
    iterations = nonsmooth = 0
    converged = diverged = False
    while True:
        g = grad(theta, H, t)
        gm = max(map(abs, g))
        if gm < cfg.grad_tol:
            converged = True
            break
        if iterations >= cfg.max_iters:
            break
        theta = [x - cfg.lr * gx for x, gx in zip(theta, g)]
        iterations += 1
        if _kink_near_endpoint(theta, H, a, b, NONSMOOTH_EPS):
            nonsmooth += 1
        if max(map(abs, theta)) > DIVERGENCE_NORM:
            diverged = True
            break
    p = Params(H, tuple(theta))
    return TrainRun(seed=seed, iterations=iterations, theta=p, grad_max_norm=gm,
                    risk=risk_theta(theta, H, t), realization=canonical(p, a, b),
                    converged=converged, diverged=diverged, nonsmooth_hits=nonsmooth)


def _run_bits(run):
    """Every field of a TrainRun, floats by float.hex."""
    r = run.realization
    hexes = lambda xs: [x.hex() for x in xs]  # noqa: E731
    return (run.seed, run.iterations, hexes(run.theta.theta), run.grad_max_norm.hex(),
            run.risk.hex(), hexes((r.a, r.b, r.offset)), hexes(r.kinks), hexes(r.slopes),
            run.converged, run.diverged, run.nonsmooth_hits)


def _live_widths(monkeypatch):
    """The width of every grad_theta call gd_run makes."""
    widths = []

    def traced(theta, H, t):
        widths.append(H)
        return grad_theta(theta, H, t)

    monkeypatch.setattr(train, "grad_theta", traced)
    return widths


_BENCH = BenchmarkTarget(1 / 3, 2 / 3, 0.0, 1.0)


@pytest.mark.parametrize("H, p0, cfg, widths", [
    # Xavier w < 0 with zero bias: three neurons frozen at the start point
    # (the first run of the benchmark's ensemble block)
    (4, xavier_init(4, 20260818), {}, {1}),
    # a neuron that dies mid-run stays in the iterate with the bits of the
    # full-width loop: one dies at step 8; one is frozen at the start point
    # and another dies at step 49
    (3, xavier_init(3, 32), {"grad_tol": 1e-3}, {3}),
    (3, xavier_init(3, 6), {"grad_tol": 1e-3}, {2}),
    # one neuron frozen at the start point, and the last live one dies at
    # step 14 and stays in the iterate
    (2, xavier_init(2, 11), {"grad_tol": 1e-3}, {1}),
    # every neuron frozen at the start point; one of them 1e-15 from a,
    # within NONSMOOTH_EPS, so every step counts as nonsmooth
    (3, Params.from_parts([-0.8, -1.5, 0.0], [0.0, -1e-15, -0.3], [0.4, -0.2, 0.9], 0.1),
     {}, {0}),
    # frozen neurons away from a and b: no step counts
    (2, Params.from_parts([-0.8, 1.0], [-0.5, -0.5], [0.4, 0.5], 0.1), {}, {1}),
    # divergence with one neuron frozen and the other dead from the first
    # step on, and the max_iters cap after a death
    (2, Params.from_parts([-0.8, 1.0], [0.0, -0.5], [0.4, 0.5], 0.1), {"lr": 10.0}, {1}),
    (3, xavier_init(3, 32), {"grad_tol": 1e-3, "max_iters": 20}, {3}),
    # a neuron that adds nothing with |v| > DIVERGENCE_NORM stays live, and
    # the run diverges on its first step
    (2, Params.from_parts([-0.8, 1.0], [0.0, -0.5], [2e8, 0.5], 0.1), {}, {2}),
], ids=["xavier-dead", "dies-mid-run", "dies-twice", "all-die", "all-frozen-near-a",
        "frozen-away-from-ends", "diverges", "max-iters", "dead-past-divergence-norm"])
def test_gd_run_bit_identical_to_full_width_loop(monkeypatch, H, p0, cfg, widths):
    cfg = TrainConfig(H=H, runs=1, **cfg)
    want = _run_bits(_full_width_gd(p0, _BENCH, cfg, seed=5))
    seen = _live_widths(monkeypatch)
    assert _run_bits(gd_run(p0, _BENCH, cfg, seed=5)) == want
    # one grad_theta call per step, and one more unless the run diverged
    assert set(seen) == widths and len(seen) == want[1] + (not want[9])


_POLY = poly_target([-1.0, 2.0], [[0.3, -0.5, 0.0, 0.25]])
_NEAR_NORM = st.sampled_from([DIVERGENCE_NORM, math.nextafter(DIVERGENCE_NORM, math.inf)])
_SIGNED = lambda s: s.flatmap(lambda x: st.sampled_from([x, -x]))  # noqa: E731
# a neuron at p0, (kind, x, w, v): ("b", b, +-0.0, v) has w = +-0.0, and
# ("kink", at, w, v) a kink on, one ulp beside or 0.1 outside a or b, or
# inside (a, b)
_NEURONS = st.one_of(
    st.tuples(st.just("b"), st.sampled_from([0.0, -0.0, -1e-15, -0.4, 0.3]),
              st.sampled_from([0.0, -0.0]), st.one_of(st.floats(-2.0, 2.0), _SIGNED(_NEAR_NORM))),
    st.tuples(st.just("kink"),
              st.sampled_from(["a", "a-", "a+", "b", "b-", "b+", "out-a", "out-b", "mid"]),
              _SIGNED(st.one_of(st.floats(0.1, 3.0), _NEAR_NORM)), st.floats(-2.0, 2.0)))


def _start_point(neurons, a, b):
    """The (w, b, v) lists of the neurons that _NEURONS draws, on [a, b]."""
    kinks = {"a": a, "a-": math.nextafter(a, -math.inf), "a+": math.nextafter(a, math.inf),
             "b": b, "b-": math.nextafter(b, -math.inf), "b+": math.nextafter(b, math.inf),
             "out-a": a - 0.1, "out-b": b + 0.1, "mid": 0.5 * (a + b)}
    ws = [w for _, _, w, _ in neurons]
    bs = [x if kind == "b" else -w * kinks[x] for kind, x, w, _ in neurons]
    return ws, bs, [v for *_, v in neurons]


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(_NEURONS, min_size=1, max_size=5), st.floats(-1.0, 1.0),
       st.sampled_from([_BENCH, _POLY]), st.integers(1, 40), st.sampled_from([1e-4, 0.5]))
def test_gd_run_freezes_the_start_points_dead_neurons(neurons, c, t, max_iters, grad_tol):
    # the frozen set is decided once, at p0: every grad_theta call has the
    # start point's live width, and a neuron that dies later stays in the
    # iterate with the full-width loop's bits
    a, b = t.domain
    ws, bs, vs = _start_point(neurons, a, b)
    H = len(ws)
    p0 = Params.from_parts(ws, bs, vs, c)
    cfg = TrainConfig(H=H, max_iters=max_iters, grad_tol=grad_tol, runs=1)
    live = H - sum(_adds_nothing(w, bj, a, b) and max(abs(w), abs(bj), abs(v)) <= DIVERGENCE_NORM
                   for w, bj, v in zip(ws, bs, vs))
    want = _run_bits(_full_width_gd(p0, t, cfg))
    with pytest.MonkeyPatch.context() as mp:
        seen = _live_widths(mp)
        assert _run_bits(gd_run(p0, t, cfg)) == want
    assert set(seen) == {live} and len(seen) == want[1] + (not want[9])


@pytest.mark.parametrize("case", ["gradient", "theta"])
def test_gd_run_takes_a_nan_max_at_width_h(monkeypatch, case):
    # neuron 0 adds nothing and is frozen at the start point.  A NaN in the
    # first nonzero gradient entry is then the first live entry, where
    # Python's max returns NaN, but not the first entry at width H, where
    # max passes over it.  "gradient": the NaN comes once the gradient is
    # below grad_tol, and the run converges.  "theta": from the third call
    # on, the NaN comes with a step of c past DIVERGENCE_NORM, so the run
    # diverges at that step, with a NaN theta that Params refuses
    calls = []

    def spoiled(theta, H, t):
        calls.append(H)
        g = grad_theta(theta, H, t)
        if (max(map(abs, g)) < 1e-2) if case == "gradient" else len(calls) > 2:
            g[next(i for i, x in enumerate(g) if x != 0.0)] = math.nan
            if case == "theta":
                g[-1] = -1e12
        return g

    def outcome(run):
        calls.clear()
        try:
            return _run_bits(run()), len(calls)
        except DomainError as exc:
            return str(exc), len(calls)

    cfg = TrainConfig(H=3, grad_tol=1e-2, max_iters=5000, runs=1)
    p0 = Params.from_parts([-0.8, 1.0, -1.2], [0.0, -0.3, 0.9], [0.4, 0.5, -0.6], 0.1)
    want = outcome(lambda: _full_width_gd(p0, _BENCH, cfg, grad=spoiled))
    monkeypatch.setattr(train, "grad_theta", spoiled)
    assert outcome(lambda: gd_run(p0, _BENCH, cfg)) == want
    if case == "gradient":
        assert want[0][-3]  # converged
    else:
        assert want == ("theta must be finite", 3)


def test_gd_monotone_descent_small_lr(bench):
    for s in range(20):
        p0 = xavier_init(4, 600 + s)
        th = list(p0.theta)
        prev = risk(p0, bench)
        for _ in range(60):
            g = grad_theta(th, 4, bench)
            th = [x - 1e-3 * gi for x, gi in zip(th, g)]
            r = risk(Params(4, tuple(th)), bench)
            assert r <= prev + 1e-12
            prev = r


def test_converged_runs_near_catalog(xsq):
    catalog = enumerate_all(xsq)
    cfg = TrainConfig(H=1, lr=0.05, grad_tol=1e-6, master_seed=300, runs=6)
    rep = ensemble(xsq, cfg)
    for run in rep.runs:
        if not run.converged:
            continue
        dist = min(l2_distance(run.realization, e.realization)
                   for e in catalog.entries)
        assert dist < 1e-2


def test_ensemble_deterministic(bench):
    cfg = TrainConfig(H=2, grad_tol=1e-3, master_seed=1234, runs=3)
    a = ensemble(bench, cfg)
    b = ensemble(bench, cfg)
    assert a == b
    doc_a = json.dumps([[r.seed, r.iterations, r.risk, r.grad_max_norm]
                        for r in a.runs])
    doc_b = json.dumps([[r.seed, r.iterations, r.risk, r.grad_max_norm]
                        for r in b.runs])
    assert doc_a == doc_b


def test_ensemble_cluster_structure(bench):
    cfg = TrainConfig(H=2, grad_tol=1e-3, master_seed=50, runs=5)
    rep = ensemble(bench, cfg)
    assert all(r.converged for r in rep.runs)
    assert all(r.grad_max_norm < cfg.grad_tol for r in rep.runs if r.converged)
    risks = [c.risk for c in rep.clusters]
    assert risks == sorted(risks)
    assert sum(len(c.seeds) for c in rep.clusters) == len(
        [r for r in rep.runs if not r.diverged])
    assert rep.risk_spread() == pytest.approx(risks[-1] - risks[0])


def test_gf_family_sample_stationary(bench):
    s = sample_M(bench, 2, 0.5, 1.0, seed=0)
    run = gf_run(s.theta, bench, t_end=1.0, rtol=1e-8)
    risks = [r for _, r in run.samples]
    assert max(risks) - min(risks) < 1e-8
    assert not run.step_underflow


def test_gf_risk_monotone(xsq):
    p0 = xavier_init(1, seed=5)
    run = gf_run(p0, xsq, t_end=10.0, rtol=1e-8)
    risks = [r for _, r in run.samples]
    for r0, r1 in zip(risks, risks[1:]):
        assert r1 <= r0 + 10.0 * 1e-8 * (1.0 + abs(r0))


def test_gf_converges_to_catalog_minimum(xsq):
    catalog = enumerate_all(xsq)
    best = catalog.entries[0]
    rng = rng_for(61)
    delta = rng.normal(0.0, 1.0, 4)
    delta *= 0.9e-2 / np.linalg.norm(delta)
    p0 = Params(1, tuple(x + d for x, d in zip(best.theta.theta, delta)))
    run = gf_run(p0, xsq, t_end=40.0, rtol=1e-8)
    assert abs(run.final_risk - best.risk) < 1e-6


def test_gf_computes_each_iterate_slope_once(xsq, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(None)
        return grad_theta(*args)

    monkeypatch.setattr("reluland.train.grad_theta", counted)
    run = gf_run(xavier_init(1, seed=0), xsq, t_end=2.0, rtol=1e-8)
    attempts = run.steps_accepted + run.steps_rejected
    assert run.steps_rejected > 0 and not run.step_underflow
    # a full step and two half steps once cost 12 slopes per attempt; an
    # iterate's slope is now shared by all the attempts from it
    assert len(calls) == 10 * attempts + run.steps_accepted
    assert len(calls) < 12 * attempts


def _former_gf_run(p0, t, t_end, rtol):
    """The RK4 of gf_run before its stages subtracted the gradient: slopes
    are negated copies, step factors are formed per entry.  Returns the
    final theta, the (time, risk) samples and the step counts."""
    H = p0.H
    n = len(p0.theta)

    def rhs(y):
        return [-x for x in grad_theta(y, H, t)]

    def rk4(y, h, k1):
        k2 = rhs([y[i] + 0.5 * h * k1[i] for i in range(n)])
        k3 = rhs([y[i] + 0.5 * h * k2[i] for i in range(n)])
        k4 = rhs([y[i] + h * k3[i] for i in range(n)])
        return [y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                for i in range(n)]

    y = list(p0.theta)
    t_now, h, accepted, rejected = 0.0, min(1e-2, t_end), 0, 0
    samples = [(0.0, risk_theta(y, H, t))]
    k1 = None
    while t_now < t_end:
        h = min(h, t_end - t_now)
        if k1 is None:
            k1 = rhs(y)
        y_full = rk4(y, h, k1)
        y_mid = rk4(y, 0.5 * h, k1)
        y_half = rk4(y_mid, 0.5 * h, rhs(y_mid))
        err = max(abs(y_full[i] - y_half[i]) for i in range(n))
        scale = 1.0 + max(abs(x) for x in y_half)
        if err <= rtol * scale:
            y, k1 = y_half, None
            t_now += h
            accepted += 1
            samples.append((t_now, risk_theta(y, H, t)))
            if err <= rtol * scale / 64.0:
                h *= 2.0
        else:
            rejected += 1
            h *= 0.5
            assert h >= 1e-12
    assert len(samples) <= GF_MAX_SAMPLES
    return y, samples, accepted, rejected


@pytest.mark.parametrize("case", ["xsq", "cubic"])
def test_gf_bit_identical_to_former_rk4(xsq, case):
    if case == "xsq":
        t, p0 = xsq, xavier_init(1, seed=0)
    else:
        # continuous at 0.4, where both pieces are 0.268
        t = poly_target([0.0, 0.4, 1.0], [[0.1, 0.5, -1.0, 2.0], [0.492, -1.0, 0.5, 1.5]])
        p0 = xavier_init(2, seed=3)
    run = gf_run(p0, t, t_end=2.0, rtol=1e-8)
    y, samples, accepted, rejected = _former_gf_run(p0, t, 2.0, 1e-8)
    assert (run.steps_accepted, run.steps_rejected) == (accepted, rejected)
    assert [x.hex() for x in run.final_theta.theta] == [x.hex() for x in y]
    assert ([(s.hex(), r.hex()) for s, r in run.samples]
            == [(s.hex(), r.hex()) for s, r in samples])


def test_gf_final_risk_is_the_last_sample(xsq):
    run = gf_run(xavier_init(1, seed=0), xsq, t_end=2.0, rtol=1e-8)
    assert run.final_risk == run.samples[-1][1]
    assert run.final_risk.hex() == risk_theta(run.final_theta.theta, 1, xsq).hex()


def test_gf_step_underflow_returns_the_start(xsq):
    # at |theta| = 1e50 every step's two RK4 routes disagree at any h, so
    # the step halves below 1e-12 and the run stops where it began
    p0 = Params(1, (1e50, 1e50, 1e50, 0.0))
    run = gf_run(p0, xsq, t_end=1.0)
    assert run.step_underflow
    assert (run.reached_t, run.steps_accepted, run.steps_rejected) == (0.0, 0, 34)
    assert run.final_theta == p0
    assert run.samples == ((0.0, run.final_risk),)
    assert run.final_risk == risk_theta(p0.theta, 1, xsq)


def test_gf_passes_only_monotone_without_step_underflow(xsq):
    run = gf_run(xavier_init(1, seed=5), xsq, t_end=2.0)
    assert run.monotone and run.passed
    assert not replace(run, monotone=False).passed
    stuck = gf_run(Params(1, (1e50, 1e50, 1e50, 0.0)), xsq, t_end=1.0)
    assert stuck.step_underflow and stuck.monotone and not stuck.passed


def test_gf_thins_samples_keeping_the_last(xsq, monkeypatch):
    p0 = xavier_init(1, seed=0)
    full = gf_run(p0, xsq, t_end=2.0, rtol=1e-8)
    n = len(full.samples)
    monkeypatch.setattr("reluland.train.GF_MAX_SAMPLES", 10)
    thin = gf_run(p0, xsq, t_end=2.0, rtol=1e-8)
    stride = -(-n // 10)
    assert n > 10 and stride > 1
    assert thin.samples == full.samples[:-1:stride] + full.samples[-1:]
    assert thin.final_risk == full.final_risk == thin.samples[-1][1]


def test_gf_step_cap_raises(xsq, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(None)
        return grad_theta(*args)

    monkeypatch.setattr("reluland.train.GF_MAX_STEPS", 20)
    monkeypatch.setattr("reluland.train.grad_theta", counted)
    with pytest.raises(DomainError, match=r"reached t = .* of t_end = 1e\+300 in 20 steps"):
        gf_run(xavier_init(1, seed=0), xsq, t_end=1e300, rtol=1e-2)
    # each attempt costs 10 gradients, and each new iterate one more
    assert 200 < len(calls) <= 220


def test_gf_validation(bench):
    p = xavier_init(1, seed=0)
    with pytest.raises(DomainError):
        gf_run(p, bench, t_end=0.0)
    for t_end, rtol in ((math.inf, 1e-8), (math.nan, 1e-8), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(DomainError):
            gf_run(p, bench, t_end=t_end, rtol=rtol)
