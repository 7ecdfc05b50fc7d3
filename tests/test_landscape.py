import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reluland import (BenchmarkTarget, CritClass, Params, PolyTarget, classify,
                      closed_hessian_M, fd_gradient, grad, grad_smooth,
                      hessian_fd, risk, sample_M, verify_zero_integrals)
from reluland.errors import DomainError, NonsmoothPointError
from reluland.landscape import (HessianReport, _coord_indices, _report_from_matrix,
                                _running_sums, _smooth_breakpoints, _unclamped_risk,
                                grad_theta, risk_theta)
from reluland.minima import CLOSED_HESSIAN_RTOL
from reluland.network import canonical
from reluland.polyalg import PiecewisePolynomial, Polynomial
from reluland import landscape
from reluland.quadrature import MAX_DEPTH, adaptive_simpson, adaptive_simpson_vec

from conftest import (parts, piecewise_polys, poly_target, realize_smooth, rng_for, scaled,
                      special_points)
from test_quadrature import recursive_simpson_vec
from test_target import _FieldReference

SQ_INT_F_13_23 = 0.024983326680593343


def zero_target():
    return poly_target([0.0, 1.0], [[0.0]])


def differentiable_params(rng, H, w_lo=0.9, w_hi=1.1, v_lo=0.02, v_hi=0.08,
                          q_lo=-0.15, q_hi=1.15, margin=2e-3):
    """Random theta with every kink bounded away from the domain endpoints."""
    while True:
        w = rng.uniform(w_lo, w_hi, H) * rng.choice([-1.0, 1.0], H)
        q = rng.uniform(q_lo, q_hi, H)
        if min(abs(w * q)) < margin or min(abs(w * (1.0 - q))) < margin:
            continue
        b = -w * q
        v = rng.uniform(v_lo, v_hi, H) * rng.choice([-1.0, 1.0], H)
        c = float(rng.uniform(-0.02, 0.02))
        return Params.from_parts([float(x) for x in w], [float(x) for x in b],
                                 [float(x) for x in v], c)


def test_risk_perfect_fit():
    t = poly_target([0.0, 1.0], [[0.0, 1.0]])
    p = Params.from_parts([1.0], [0.0], [1.0], 0.0)  # realizes x
    assert risk(p, t) <= 1e-15


def test_risk_constant_one_vs_zero():
    p = Params.from_parts([1.0], [-2.0], [1.0], 1.0)  # inactive neuron, c = 1
    assert risk(p, zero_target()) == pytest.approx(1.0, rel=1e-14)


def test_risk_on_family(bench):
    s = sample_M(bench, 2, 0.45, 2.0, seed=1)
    assert risk(s.theta, bench) == pytest.approx(SQ_INT_F_13_23 - 1.0 / 48.0,
                                                 rel=1e-9)


def test_grad_zero_on_family(bench):
    s = sample_M(bench, 4, 0.52, 0.7, seed=2)
    assert grad(s.theta, bench).max_norm() < 1e-10


def test_grad_identity_ramp_against_zero_target():
    p = Params.from_parts([1.0], [0.0], [1.0], 0.0)
    g = grad(p, zero_target())
    assert list(g) == pytest.approx([2.0 / 3.0, 1.0, 2.0 / 3.0, 1.0], rel=1e-14)


def test_grad_outer_zero_and_centered_target():
    # v_j = 0 and a target with int (c - f) = 0: all components vanish
    t = poly_target([0.0, 1.0], [[0.0, 1.0]])  # mean 1/2
    p = Params.from_parts([1.0], [-2.0], [0.0], 0.5)
    g = grad(p, t)
    assert g.max_norm() == 0.0


def test_fd_consistency_at_differentiable_points(bench):
    rng = rng_for(31)
    worst = 0.0
    for k in range(30):
        H = 1 if k % 2 else 4
        p = differentiable_params(rng, H, v_lo=0.1, v_hi=0.9, margin=1e-2)
        g = grad(p, bench)
        fd = fd_gradient(p, bench, h=1e-6)
        gap = max(abs(a - b) for a, b in zip(g, fd))
        worst = max(worst, gap)
        assert gap < 1e-5 * (1.0 + g.max_norm())
    assert worst < 1e-5


def test_smooth_limit_consistency(bench):
    rng = rng_for(32)
    for k in range(10):
        H = 1 if k % 2 else 4
        p = differentiable_params(rng, H)
        g = grad(p, bench)
        gs = grad_smooth(p, bench, 10 ** 6, tol=1e-10)
        assert max(abs(a - b) for a, b in zip(g, gs)) < 1e-3


# the benchmark's domain ends a, b and breakpoints alpha, beta; a power-of-two
# w makes the kink -(-w x) / w exactly x
_SPECIAL_POINTS = {"a": 0.0, "b": 1.0, "alpha": 1 / 3, "beta": 2 / 3}
_POW2 = st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))


@st.composite
def _nonsmooth_case(draw):
    """Width 2 on the benchmark target where the risk is not differentiable,
    built exactly.  Neuron 1 has its kink on a, b, alpha or beta, or w = 0
    with b > 0, b = 0 or b < 0.  Neuron 2 is such a neuron too, or has a
    kink inside (a, b), or is neuron 1 times 1 or 2 (a coincident kink of
    the same orientation) or times -1 or -2 (of the opposite one)."""
    def neuron(kind):
        if kind in _SPECIAL_POINTS:
            w = draw(_POW2)
            return w, -w * _SPECIAL_POINTS[kind]
        if kind == "inside":
            w = draw(_POW2)
            return w, -w * draw(st.floats(0.05, 0.95))
        return 0.0, {"w0+": draw(st.floats(0.1, 1.0)), "w0": 0.0,
                     "w0-": -draw(st.floats(0.1, 1.0))}[kind]

    special = (*_SPECIAL_POINTS, "w0+", "w0", "w0-")
    w1, b1 = neuron(draw(st.sampled_from(special)))
    kind = draw(st.sampled_from(special + ("inside", "same", "opposite")))
    if kind in ("same", "opposite"):
        lam = draw(st.sampled_from((1.0, 2.0))) * (1.0 if kind == "same" else -1.0)
        w2, b2 = lam * w1, lam * b1
    else:
        w2, b2 = neuron(kind)
    v = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    return Params.from_parts([w1, w2], [b1, b2], v, draw(st.floats(-1.0, 1.0)))


# |grad - grad_smooth(r)| <= SMOOTH_RATE / sqrt(r), and the Richardson value
# misses grad by at most RICHARDSON_K / r2: about twice the worst of each,
# 18.1 and 420, over every such point with v, c in {-1, 1}, the inside kink
# at 0.05, 0.5 or 0.95 and b = +-0.1, +-1 for w = 0 (20,000 Hypothesis
# draws read at most 16.0 and 390)
SMOOTH_RATE = 40.0
RICHARDSON_K = 1000.0


@settings(max_examples=100, deadline=None, database=None)
@given(_nonsmooth_case())
def test_grad_is_the_smoothed_limit_at_nonsmooth_points(p):
    # grad_smooth(r) = grad + C / sqrt(r) + O(1/r), so with r2 = 100 r1 the
    # value g(r2) + (g(r2) - g(r1)) / 9 cancels the r**-0.5 term
    t = BenchmarkTarget(1 / 3, 2 / 3)
    g = grad(p, t)
    gs = {r: grad_smooth(p, t, r) for r in (1e4, 1e6, 1e8)}
    for r, s in gs.items():
        assert max(abs(x - y) for x, y in zip(g, s)) <= SMOOTH_RATE / math.sqrt(r)
    rich = [s2 + (s2 - s1) / 9.0 for s1, s2 in zip(gs[1e6], gs[1e8])]
    assert max(abs(x - y) for x, y in zip(g, rich)) <= RICHARDSON_K / 1e8


def risk_smooth(p, t, r, tol):
    """Risk with the ReLU replaced by the sharpness-r softplus surrogate,
    by adaptive quadrature of the squared residual."""
    def integrand(x):
        d = realize_smooth(p, x, r) - t.eval(x)
        return d * d

    a, b = t.domain
    return adaptive_simpson(integrand, a, b, tol,
                            breakpoints=_smooth_breakpoints(p.theta, p.H, t, r))


def test_risk_smooth_converges(bench):
    rng = rng_for(33)
    for _ in range(5):
        p = differentiable_params(rng, 2, v_lo=0.1, v_hi=0.5)
        r_exact = risk(p, bench)
        r_sm = risk_smooth(p, bench, 10 ** 6, tol=1e-10)
        assert abs(r_sm - r_exact) < 1e-3 * (1.0 + r_exact)


def _former_softplus(t):
    if t > 36.0:
        return t + math.exp(-t)
    if t < -36.0:
        return math.exp(t)
    return math.log1p(math.exp(t))


def _former_sigmoid(t):
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t) if t < 36.0 else 1.0)
    if t < -36.0:
        return math.exp(t)
    e = math.exp(t)
    return e / (1.0 + e)


def former_grad_smooth(p, t, r, tol):
    """The former grad_smooth: one scalar point per integrand call, the
    scalar softplus and the depth-first vector Simpson engine."""
    H, th = p.H, p.theta
    dim = 3 * H + 1

    def integrand(x):
        s = [r * (th[H + j] + th[j] * x) - math.sqrt(r) for j in range(H)]
        acts = [_former_softplus(sj) / r for sj in s]
        ders = [_former_sigmoid(sj) for sj in s]
        net = th[3 * H] + sum(th[2 * H + j] * acts[j] for j in range(H))
        d = net - t.eval(x)
        out = [0.0] * dim
        for j in range(H):
            vd = th[2 * H + j] * ders[j]
            out[j] = 2.0 * vd * x * d
            out[H + j] = 2.0 * vd * d
            out[2 * H + j] = 2.0 * acts[j] * d
        out[3 * H] = 2.0 * d
        return out

    a, b = t.domain
    return recursive_simpson_vec(integrand, a, b, dim, tol,
                                 breakpoints=_smooth_breakpoints(th, H, t, r))


@pytest.mark.parametrize("H", [1, 4])
def test_grad_smooth_matches_former_scalar_integrand(H):
    rng = rng_for(34)
    targets = [BenchmarkTarget(0.3, 0.7, -0.25, 0.8),
               poly_target([0.0, 0.4, 1.0], [[0.1, -0.5, 1.0], [-0.06, 0.3]])]
    for k in range(4):
        t = targets[k % 2]
        p = differentiable_params(rng, H)
        if t.domain != (0.0, 1.0):  # put the kinks back inside [a, b]
            a, b = t.domain
            w = [x / (b - a) for x in p.theta[:H]]
            p = Params.from_parts(w, [p.theta[H + j] - w[j] * a for j in range(H)],
                                  p.theta[2 * H:3 * H], p.theta[3 * H])
        for r in (10 ** 2, 10 ** 6):
            got = grad_smooth(p, t, r, tol=1e-10)
            ref = former_grad_smooth(p, t, r, 1e-10)
            assert max(abs(x - y) for x, y in zip(got, ref)) < 1e-15


def count_integrand_calls(monkeypatch) -> list[int]:
    """The number of points of each integrand call that grad_smooth makes."""
    calls = []

    def counting(f, *args, **kwargs):
        def counted(xs):
            calls.append(len(xs))
            return f(xs)
        return adaptive_simpson_vec(counted, *args, **kwargs)

    monkeypatch.setattr(landscape, "adaptive_simpson_vec", counting)
    return calls


FOUR_NEURONS = Params.from_parts([1.0, -0.9, 1.1, 0.95], [-0.3, 0.6, -0.7, -0.2],
                                 [0.05, -0.03, 0.04, 0.06], 0.01)


def test_grad_smooth_calls_integrand_once_per_level(monkeypatch, bench):
    # the former scalar integrand was called about 650 times here
    calls = count_integrand_calls(monkeypatch)
    grad_smooth(FOUR_NEURONS, bench, 10 ** 6, tol=1e-10)
    assert 0 < len(calls) <= MAX_DEPTH + 2
    assert sum(calls) > 300


@pytest.mark.parametrize("r", [10 ** 2, 10 ** 6, 10 ** 10, 10 ** 14])
def test_grad_smooth_levels_do_not_grow_with_sharpness(monkeypatch, bench, r):
    # panels split at each softplus transition, so no panel bisects down to
    # the ~1/r transition width: 7-9 levels for every r here
    calls = count_integrand_calls(monkeypatch)
    gs = grad_smooth(FOUR_NEURONS, bench, r, tol=1e-10)
    assert len(calls) <= 10
    assert max(abs(x - y) for x, y in zip(gs, grad(FOUR_NEURONS, bench))) < 1.0 / math.sqrt(r)


@pytest.mark.parametrize("r", [0.5, math.nan, math.inf])
def test_grad_smooth_rejects_bad_sharpness(bench, r):
    p = Params.from_parts([1.0], [-0.5], [1.0], 0.0)
    with pytest.raises(ValueError):
        grad_smooth(p, bench, r)


def test_grad_smooth_outer_components_with_zero_v(bench):
    p = Params.from_parts([1.0, -1.0], [-0.4, 0.6], [0.0, 0.0], 0.0)
    gs = grad_smooth(p, bench, 10 ** 4, tol=1e-10)
    for j in (0, 1, 2, 3):  # w and b components carry the factor v_j = 0
        assert abs(gs[j]) < 1e-12
    assert all(math.isfinite(x) for x in gs)


@pytest.mark.parametrize("c", [0.5, 2.0, -3.0, 1e6])
def test_risk_scaling_identity(bench, c):
    rng = rng_for(34)
    targets = [bench, poly_target([0.0, 0.5, 1.0], [[0.0, 1.0], [0.25, 0.5]])]
    for t in targets:
        p = differentiable_params(rng, 3, v_lo=0.1, v_hi=1.0)
        w, bias, v, c0 = parts(p)
        scaled_theta = Params.from_parts(w, bias, [c * vj for vj in v], c * c0)
        lhs = risk(scaled_theta, scaled(t, c))
        rhs = c * c * risk(p, t)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@st.composite
def _smooth_case(draw):
    """A random piecewise-polynomial target and a theta whose kinks all lie
    at least 1e-3 (b - a) from both domain ends, with 0.5 <= |w_j| <= 1."""
    t = PolyTarget(draw(piecewise_polys()))
    a, b = t.domain
    H = draw(st.integers(1, 4))
    w, bias = [], []
    for _ in range(H):
        u = draw(st.floats(-0.2, 1.2))
        assume(abs(u) > 1e-3 and abs(u - 1.0) > 1e-3)
        w.append(draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.0)))
        bias.append(-w[-1] * (a + (b - a) * u))
    v = draw(st.lists(st.floats(-1.0, 1.0), min_size=H, max_size=H))
    return t, Params.from_parts(w, bias, v, draw(st.floats(-1.0, 1.0)))


@settings(max_examples=150, deadline=None, database=None)
@given(_smooth_case())
def test_grad_matches_fd_gradient_at_smooth_points(case):
    # the stencil never moves a kink across a domain end, so the risk is C^2
    # there; 1e-7 is 200x the largest deviation seen in 2000 examples
    t, p = case
    g = grad(p, t)
    gap = max(abs(x - y) for x, y in zip(g, fd_gradient(p, t, h=1e-6)))
    assert gap <= 1e-7 * (1.0 + g.max_norm() + risk(p, t))


@settings(max_examples=150, deadline=None, database=None)
@given(_smooth_case(), st.floats(-3.0, 6.0), st.sampled_from((-1.0, 1.0)))
# the scaled mismatch at a breakpoint exceeded the unscaled continuity
# tolerance, so scaled(t, -1e5) raised ValueError
@example((PolyTarget(PiecewisePolynomial([-1.0, -0.6682575491178123, -0.5], [
    Polynomial([]), Polynomial([-0.19942311433866888, 0.0, 0.0, 0.0, 1.0])])),
          Params(2, (-1.0, -1.0, -0.75, -0.75, 0.0, 0.0, 0.0))), 5.0, -1.0)
# the scaled risk is subnormal (2.1e-314) and one subnormal spacing off
@example((poly_target([-0.5, 0.5], [[3.973621123699866e-155, 7.947242247399732e-155]]),
          Params(1, (-1.0, 0.625, 0.0, 0.0))), -2.5, -1.0)
# int f**2 over [-0.390625, -0.375] is 6.1e-11, the difference of two
# antiderivative values near -3.15e-3, and c = -10 rounds every coefficient
@example((poly_target([-0.5, -0.390625, -0.375, -0.25, -0.125, 0.0], [
    [], [0.18683522939682007, 0.75, 0.25, -0.75, 1.0], [6.765127182006836e-05],
    [6.765127182006836e-05], [6.765127182006836e-05]]),
          Params(1, (-1.0, -0.25, 0.0, 0.0))), 1.0, -1.0)
def test_risk_scaling_identity_random_targets(case, e, sign):
    # risk(theta_c, c f) = c^2 risk(theta, f), where theta_c scales v and c;
    # rounding error is relative to c^2 (||N||^2 + ||f||^2) <= 3 c^2 (risk + ||f||^2),
    # plus eps c^2 times the antiderivative terms int f**2 cancels, plus a
    # few subnormal spacings, since no relative bound holds below the
    # normal range
    t, p = case
    c = sign * 10.0 ** e
    H = p.H
    theta_c = Params(H, p.theta[:2 * H] + tuple(c * x for x in p.theta[2 * H:]))
    r = risk(p, t)
    assert (abs(risk(theta_c, scaled(t, c)) - c * c * r)
            <= 1e-11 * c * c * (r + t.sq_integral())
            + 8 * 2.0 ** -52 * c * c * _sq_integral_terms(t.pp) + 4 * math.ulp(0.0))


def _sq_integral_terms(pp):
    """The terms the integral of f**2 sums, in absolute value: each squared
    piece's antiderivative, with |coefficients|, at |x| at both piece ends."""
    total = 0.0
    for piece, x0, x1 in zip(pp.pieces, pp.breakpoints, pp.breakpoints[1:]):
        q = (piece * piece).antiderivative()
        total += sum(abs(a) * (abs(x0) ** k + abs(x1) ** k) for k, a in enumerate(q.coeffs))
    return total


@st.composite
def _risk_case(draw):
    """A random theta and a random piecewise-polynomial target, or the
    network's own realization as the target, where the exact risk is 0."""
    pp = draw(piecewise_polys())
    H = draw(st.integers(1, 4))
    p = Params(H, tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=3 * H + 1,
                                      max_size=3 * H + 1))))
    if draw(st.booleans()):
        r = canonical(p, pp.lo, pp.hi)
        nodes = (r.a, *r.kinks, r.b)
        pp = PiecewisePolynomial(nodes, [Polynomial([r(x0) - s * x0, s])
                                         for x0, s in zip(nodes, r.slopes)])
    return PolyTarget(pp), p


@settings(max_examples=200, deadline=None, database=None)
@given(_risk_case())
@example((poly_target([-1.0, 0.0, 1.0], [[0.0], [0.0, 1.0]]),
          Params.from_parts([1.0], [0.0], [1.0], 0.0)))
def test_unclamped_risk_not_below_rounding(case):
    # risk_theta's value before its final max(val, 0.0)
    t, p = case
    val = _unclamped_risk(p.theta, p.H, t, "gauss_kronrod")
    assert val >= -1e-12 * (1.0 + t.sq_integral())


def test_local_min_probe_small(bench):
    s = sample_M(bench, 4, 0.5, 1.0, seed=3)
    base = risk(s.theta, bench)
    rng = rng_for(35)
    n = len(s.theta.theta)
    for _ in range(500):
        d = rng.normal(0.0, 1.0, n)
        d *= rng.uniform(0.0, 1e-4) / np.linalg.norm(d)
        perturbed = Params(4, tuple(x + dx for x, dx in zip(s.theta.theta, d)))
        assert risk(perturbed, bench) >= base - 1e-9


def test_hessian_cc_entry_exact():
    # d^2/dc^2 risk = 2(b - a) for any configuration
    t = poly_target([0.0, 2.0], [[0.0]])
    p = Params.from_parts([1.0], [0.5], [0.3], 0.1)
    rep = hessian_fd(p, t, coords="restricted4")
    assert rep.matrix[3][3] == pytest.approx(4.0, rel=1e-9)
    with pytest.raises(DomainError, match="coords"):
        hessian_fd(p, t, coords="restricted")


def test_hessian_nonsmooth_rejected():
    t = poly_target([0.0, 1.0], [[0.0]])
    p = Params.from_parts([1.0], [0.0], [1.0], 0.0)  # kink exactly at a = 0
    with pytest.raises(NonsmoothPointError):
        hessian_fd(p, t)
    with pytest.raises(NonsmoothPointError):
        hessian_fd(Params.from_parts([0.0], [0.0], [1.0], 0.0), t)


def test_closed_hessian_entries(bench):
    rep = closed_hessian_M(0.5, 1.0, bench)
    assert rep.matrix[1][1] == pytest.approx(0.64, rel=1e-14)
    assert rep.matrix[2][2] == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert rep.matrix[3][3] == pytest.approx(2.0, rel=1e-15)
    wide = BenchmarkTarget(1 / 3, 2 / 3, -1.0, 3.0)
    assert closed_hessian_M(0.4, 0.7, wide).matrix[3][3] == pytest.approx(8.0)


def test_closed_hessian_domain_checks(bench):
    with pytest.raises(DomainError):
        closed_hessian_M(0.2, 1.0, bench)
    with pytest.raises(DomainError):
        closed_hessian_M(0.5, -1.0, bench)
    with pytest.raises(DomainError):
        closed_hessian_M(0.5, 1.0, BenchmarkTarget(1 / 3, 2 / 3, scale=0.0))


def test_fd_matches_closed_hessian(bench):
    rng = rng_for(36)
    for _ in range(5):
        x = float(rng.uniform(0.36, 0.64))
        y = float(rng.uniform(0.5, 2.0))
        s = sample_M(bench, 4, x, y, seed=int(rng.integers(0, 10 ** 6)))
        fd = hessian_fd(s.theta, bench, coords="restricted4")
        cl = closed_hessian_M(x, s.theta.w(0), bench)
        for i in range(4):
            for j in range(4):
                assert fd.matrix[i][j] == pytest.approx(cl.matrix[i][j], rel=1e-5)


def test_fd_matches_closed_hessian_at_any_scale():
    # R_s(w, b, v, c) = s^2 R_1(w, b, v/s, c/s), so the closed form is the
    # congruence diag(s, s, 1, 1) H_1 diag(s, s, 1, 1)
    for s in [1e-3, 3.0] + [sign * 2.0 ** k for k in range(-10, 11) for sign in (1.0, -1.0)]:
        t = BenchmarkTarget(0.25, 0.6, -0.5, 1.5, scale=s)
        smp = sample_M(t, 4, 0.45, 0.7, seed=3)
        fd = hessian_fd(smp.theta, t, coords="restricted4").matrix
        cl = closed_hessian_M(0.45, smp.theta.w(0), t).matrix
        rel = max(abs(fd[i][j] - cl[i][j]) / abs(cl[i][j]) for i in range(4) for j in range(4))
        assert rel < CLOSED_HESSIAN_RTOL, s


def test_restricted_hessian_is_block_of_full(bench):
    # each FD column perturbs the same coordinate, so the (w_1, b_1, v_1, c)
    # block of coords="all" is bit for bit what coords="restricted4" computes
    for H, seed in ((1, 3), (2, 4), (4, 5)):
        s = sample_M(bench, H, 0.45, 1.1, seed=seed)
        full = hessian_fd(s.theta, bench, coords="all").matrix
        idx = _coord_indices(H, "restricted4")
        block = tuple(tuple(full[i][j] for j in idx) for i in idx)
        assert block == hessian_fd(s.theta, bench, coords="restricted4").matrix


def test_full_hessian_rank_two_on_family(bench):
    s = sample_M(bench, 4, 0.6, 1.3, seed=4)
    rep = hessian_fd(s.theta, bench, coords="all")
    assert rep.numerical_rank == 2
    assert rep.min_eigenvalue > -1e-8


def synthetic_report(eigs):
    return _report_from_matrix(np.diag(eigs))


def test_classify_family_local_min(bench):
    s = sample_M(bench, 4, 0.38, 1.0, seed=5)
    rep = hessian_fd(s.theta, bench, coords="all")
    gn = grad(s.theta, bench).max_norm()
    label = classify(rep, gn, expected_corank=3 * 4 + 1 - 2)
    assert label is CritClass.LOCAL_MIN


def test_classify_synthetic():
    assert classify(synthetic_report([1.0, -1.0, 0.0, 0.0]), 0.0) is CritClass.SADDLE
    assert classify(synthetic_report([0.0, 0.0, 0.0]), 0.0) is CritClass.DEGENERATE
    assert classify(synthetic_report([2.0, 1.0, 0.0]), 0.0) is CritClass.LOCAL_MIN
    assert classify(synthetic_report([-2.0, -1.0]), 0.0) is CritClass.LOCAL_MAX
    assert classify(synthetic_report([1.0, 0.0]), 0.0,
                    expected_corank=2) is CritClass.DEGENERATE


def test_classify_rank_tol_of_one_is_degenerate():
    # no eigenvalue lies beyond rank_tol * lam_max, so none has a sign
    rep = synthetic_report([2.0, -1.0, 0.5])
    rep = HessianReport(rep.matrix, rep.eigenvalues, rep.numerical_rank, rank_tol=1.0)
    assert classify(rep, 0.0) is CritClass.DEGENERATE


def test_classify_requires_critical():
    with pytest.raises(DomainError, match="not critical"):
        classify(synthetic_report([1.0]), 0.5)


def test_hessian_report_json(bench):
    rep = closed_hessian_M(0.5, 1.0, bench)
    assert len(rep.matrix) == 4
    assert list(rep.eigenvalues) == sorted(rep.eigenvalues)


# ---------------------------------------------------------------------------
# bit-identity of the node-indexed kernel with the per-interval formula
# ---------------------------------------------------------------------------

class _RefIntegrals:
    """Per-interval reference: S0(lo, hi) and S1(lo, hi) from closed-form
    network running integrals located by bisection at each endpoint and
    the target's cum_int / cum_xint at each endpoint."""

    def __init__(self, theta, H, t):
        a, b = t.domain
        self.t = t
        events = []
        for j in range(H):
            w = theta[j]
            if w != 0.0 and a < -theta[H + j] / w < b:
                events.append(-theta[H + j] / w)
        nodes = [a]
        for q in sorted(events):
            if q > nodes[-1]:
                nodes.append(q)
        nodes.append(b)
        vals = []
        for x in nodes:
            acc = theta[3 * H]
            for j in range(H):
                z = theta[H + j] + theta[j] * x
                if z > 0.0:
                    acc += theta[2 * H + j] * z
            vals.append(acc)
        slopes = [(vals[i + 1] - vals[i]) / (nodes[i + 1] - nodes[i])
                  for i in range(len(nodes) - 1)]
        pre0, pre1 = [0.0], [0.0]
        for i, m in enumerate(slopes):
            x0, x1 = nodes[i], nodes[i + 1]
            k = vals[i] - m * x0
            pre0.append(pre0[-1] + (x1 - x0) * (vals[i] + vals[i + 1]) * 0.5)
            pre1.append(pre1[-1] + m * (x1 ** 3 - x0 ** 3) / 3.0 + k * (x1 ** 2 - x0 ** 2) * 0.5)
        self.nodes, self.vals, self.slopes, self.pre0, self.pre1 = nodes, vals, slopes, pre0, pre1

    def _locate(self, x):
        i = bisect.bisect_right(self.nodes, x) - 1
        return min(max(i, 0), len(self.slopes) - 1)

    def net_cum0(self, x):
        i = self._locate(x)
        x0, y0 = self.nodes[i], self.vals[i]
        y = y0 + self.slopes[i] * (x - x0)
        return self.pre0[i] + (x - x0) * (y0 + y) * 0.5

    def net_cum1(self, x):
        i = self._locate(x)
        x0, m = self.nodes[i], self.slopes[i]
        k = self.vals[i] - m * x0
        return self.pre1[i] + m * (x ** 3 - x0 ** 3) / 3.0 + k * (x ** 2 - x0 ** 2) * 0.5

    def s0(self, lo, hi):
        return (self.net_cum0(hi) - self.net_cum0(lo)) - (self.t.cum_int(hi) - self.t.cum_int(lo))

    def s1(self, lo, hi):
        return (self.net_cum1(hi) - self.net_cum1(lo)) - (self.t.cum_xint(hi) - self.t.cum_xint(lo))


def _ref_grad(theta, H, t):
    a, b = t.domain
    ref = _RefIntegrals(theta, H, t)
    g = [0.0] * (3 * H + 1)
    for j in range(H):
        w, bj, v = theta[j], theta[H + j], theta[2 * H + j]
        if w > 0.0:
            q = -bj / w
            if q >= b:
                continue
            lo, hi = max(a, q), b
        elif w < 0.0:
            q = -bj / w
            if q <= a:
                continue
            lo, hi = a, min(b, q)
        elif bj > 0.0:
            lo, hi = a, b
        else:
            continue
        s0, s1 = ref.s0(lo, hi), ref.s1(lo, hi)
        g[j] = 2.0 * v * s1
        g[H + j] = 2.0 * v * s0
        g[2 * H + j] = 2.0 * (bj * s0 + w * s1)
    g[3 * H] = 2.0 * ref.s0(a, b)
    return g


def _ref_risk(theta, H, t):
    ref = _RefIntegrals(theta, H, t)
    sq = cross = 0.0
    for i, m in enumerate(ref.slopes):
        x0, x1 = ref.nodes[i], ref.nodes[i + 1]
        y0, y1 = ref.vals[i], ref.vals[i + 1]
        sq += (x1 - x0) * (y0 * y0 + y0 * y1 + y1 * y1) / 3.0
        k = y0 - m * x0
        cross += (m * (t.cum_xint(x1) - t.cum_xint(x0))
                  + k * (t.cum_int(x1) - t.cum_int(x0)))
    return max(sq - 2.0 * cross + t.sq_integral("gauss_kronrod"), 0.0)


BIT_TARGETS = (
    BenchmarkTarget(1 / 3, 2 / 3, 0.0, 1.0),
    BenchmarkTarget(0.25, 0.6, -0.5, 1.5, scale=1.3),
    poly_target([-1.0, -0.25, 0.5, 1.0],
                [[0.5, 1.0, -2.0], [0.140625, 0.0, 0.0, 1.0], [0.203125, 0.0, 0.0, 0.0, 1.0]]),
    # a zero piece: its antiderivatives have no coefficients
    poly_target([0.0, 0.5, 1.0], [[0.0], [-0.5, 1.0]]),
)
# at a negative scale a benchmark target's running integrals at a are -0.0
NEGATED_TARGETS = tuple(scaled(t, -3.0) for t in BIT_TARGETS)

_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _bit_case(draw):
    t = draw(st.sampled_from(BIT_TARGETS + NEGATED_TARGETS))
    H = draw(st.integers(1, 8))
    a, b = t.domain
    w, bias, kinks = [], [], []
    for j in range(H):
        # power-of-two weights make -(-w q) / w == q exactly
        mode = draw(st.sampled_from(("random", "at_a", "at_b", "special", "shared", "w0",
                                     "nowhere")))
        sign = draw(st.sampled_from((-1.0, 1.0)))
        w2 = sign * 2.0 ** draw(st.integers(-3, 3))
        if mode in ("at_a", "at_b", "special"):
            if mode == "special":  # where a target piece ends, or next to it
                q = draw(st.sampled_from(special_points(t)))
            else:
                q = a if mode == "at_a" else b
            w.append(w2)
            bias.append(-w2 * q)
        elif mode == "shared" and kinks:
            i = draw(st.sampled_from(kinks))
            s = draw(st.sampled_from((-2.0, -1.0, 0.5, 2.0)))
            w.append(s * w[i])
            bias.append(s * bias[i])
        elif mode == "w0":
            w.append(draw(st.sampled_from((0.0, -0.0))))
            bias.append(draw(st.sampled_from((-0.5, 0.0, -0.0, 0.25))) * (b - a))
        elif mode == "nowhere":  # kink outside [a, b] on the inactive side
            q = draw(st.floats(0.0, 1.0)) * (b - a)
            w.append(w2)
            bias.append(-w2 * (b + q if w2 > 0.0 else a - q))
        else:
            q = a + (b - a) * draw(st.floats(-0.2, 1.2))
            wr = draw(_unit)
            w.append(wr if wr != 0.0 else w2)
            bias.append(-w[-1] * q)
        if w[-1] != 0.0:
            kinks.append(j)
    v = [draw(_unit) * 2.0 for _ in range(H)]
    c = draw(_unit)
    return t, H, w + bias + v + [c]


@settings(max_examples=400, deadline=None, database=None)
@given(_bit_case())
def test_node_kernel_bit_identical_to_per_interval_formula(case):
    t, H, theta = case
    got = [x.hex() for x in grad_theta(theta, H, t)]
    assert got == [x.hex() for x in _ref_grad(theta, H, t)]
    assert risk_theta(theta, H, t).hex() == _ref_risk(theta, H, t).hex()
    # the running integrals that verify_zero_integrals reads, at every node
    ref = _RefIntegrals(theta, H, t)
    sums, nodes = _running_sums(theta, H, t), ref.nodes
    want = ([ref.net_cum0(x) for x in nodes], [ref.net_cum1(x) for x in nodes],
            [t.cum_int(x) for x in nodes], [t.cum_xint(x) for x in nodes])
    assert [[x.hex() for x in s] for s in sums] == [got] + [[x.hex() for x in s] for s in want]


@pytest.mark.parametrize("t", BIT_TARGETS + NEGATED_TARGETS,
                         ids=[f"{kind}{c}" for c in ("", "-scaled") for kind in
                              ("benchmark", "benchmark-moved", "poly", "poly-zero")])
def test_end_ints_are_the_running_integrals_at_the_ends(t):
    a, b = t.domain
    got = [x.hex() for pair in t.end_ints for x in pair]
    assert got == [x.hex() for x in (*t.cum_int_xint(a), *t.cum_int_xint(b))]


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_zero_integrals_bit_identical_to_per_interval_formula(data):
    # the residuals are S0 on [a, kink] and [kink, b] and S1 on [kink, b]
    t = data.draw(st.sampled_from(BIT_TARGETS[:2] + NEGATED_TARGETS[:2]))
    inside = st.floats(t.alpha, t.beta, exclude_min=True, exclude_max=True)
    q = data.draw(st.one_of(inside, st.sampled_from((math.nextafter(t.alpha, 1.0),
                                                     math.nextafter(t.beta, 0.0)))))
    ref = _RefIntegrals(sample_M(t, 1, q, 1.0, seed=0).theta.theta, 1, t)
    a, kink, b = ref.nodes
    got = [x.hex() for x in verify_zero_integrals(t, q)]
    assert got == [x.hex() for x in (ref.s0(a, kink), ref.s0(kink, b), ref.s1(kink, b))]


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
@pytest.mark.parametrize("t", BIT_TARGETS[:2] + NEGATED_TARGETS[:2],
                         ids=["benchmark", "benchmark-moved", "benchmark-scaled",
                              "benchmark-moved-scaled"])
def test_benchmark_running_integrals_bit_identical_to_unhoisted_factors(t, data):
    x = data.draw(st.floats(*t.domain))
    F, G = _FieldReference(t)._cum01(t._to_u(x))
    want = (t.scale * (t.b - t.a) * F,
            t.scale * (t.a * (t.b - t.a) * F + (t.b - t.a) * (t.b - t.a) * G))
    assert [v.hex() for v in t.cum_int_xint(x)] == [v.hex() for v in want]


# kinks of four neurons on [0, 1], and how many distinct ones lie inside
@pytest.mark.parametrize("kinks, k", [
    ((0.25, 0.5, 0.75, 0.6), 4),
    ((0.25, 0.25, 0.75, 1.0), 2),  # a shared kink and one on b
    ((0.5, 0.5, 0.5, 0.5), 1),
    ((0.0, 1.0, -0.5, 1.5), 0),
])
@pytest.mark.parametrize("make", [lambda: BenchmarkTarget(1 / 3, 2 / 3),
                                  lambda: poly_target([0.0, 1.0], [[0.0, 0.0, 1.0]])],
                         ids=["benchmark", "xsq"])
def test_geometry_evaluates_target_only_at_interior_kinks(monkeypatch, make, kinks, k):
    t = make()
    w = [1.0, -1.0, 1.0, -1.0]
    theta = w + [-wj * q for wj, q in zip(w, kinks)] + [0.3, -0.2, 0.5, 0.1, 0.05]
    calls = []
    cum_int_xint = t.cum_int_xint

    def counted(x):
        calls.append(x)
        return cum_int_xint(x)

    monkeypatch.setattr(t, "cum_int_xint", counted)
    for evaluate in (grad_theta, risk_theta):
        calls.clear()
        evaluate(theta, 4, t)
        assert len(calls) == k
        assert sorted(calls) == sorted({q for q in kinks if 0.0 < q < 1.0})
