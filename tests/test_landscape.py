import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reluland import (BenchmarkTarget, CritClass, Params, PolyTarget, classify,
                      closed_hessian_M, fd_gradient, grad, grad_smooth,
                      hessian_fd, realize_smooth, risk, sample_M)
from reluland.errors import DomainError, NonsmoothPointError, NotCriticalError
from reluland.landscape import (HessianReport, _Geometry, _coord_indices,
                                _report_from_matrix, _smooth_breakpoints, grad_theta,
                                risk_theta)
from reluland.network import canonical
from reluland.polyalg import PiecewisePolynomial, Polynomial
from reluland import landscape
from reluland.quadrature import MAX_DEPTH, adaptive_simpson, adaptive_simpson_vec

from conftest import piecewise_polys, poly_target, rng_for
from test_quadrature import recursive_simpson_vec

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


def risk_smooth(p, t, r, tol):
    """Risk with the ReLU replaced by the sharpness-r softplus surrogate,
    by adaptive quadrature of the squared residual."""
    def integrand(x):
        d = realize_smooth(p, x, r) - t.eval(x)
        return d * d

    a, b = t.domain
    return adaptive_simpson(integrand, a, b, tol,
                            breakpoints=_smooth_breakpoints(p.theta, p.H, t),
                            max_depth=55)


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
                                 breakpoints=_smooth_breakpoints(th, H, t))


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


def test_grad_smooth_calls_integrand_once_per_level(monkeypatch, bench):
    # the former scalar integrand was called about 650 times here
    calls = []

    def counting(f, *args, **kwargs):
        def counted(xs):
            calls.append(len(xs))
            return f(xs)
        return adaptive_simpson_vec(counted, *args, **kwargs)

    monkeypatch.setattr(landscape, "adaptive_simpson_vec", counting)
    p = Params.from_parts([1.0, -0.9, 1.1, 0.95], [-0.3, 0.6, -0.7, -0.2],
                          [0.05, -0.03, 0.04, 0.06], 0.01)
    grad_smooth(p, bench, 10 ** 6, tol=1e-10)
    assert 0 < len(calls) <= MAX_DEPTH + 15 + 2
    assert sum(calls) > 300


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
        scaled_theta = Params.from_parts(
            [p.w(j) for j in range(3)], [p.b(j) for j in range(3)],
            [c * p.v(j) for j in range(3)], c * p.c)
        lhs = risk(scaled_theta, t.scaled(c))
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
# tolerance, so t.scaled(-1e5) raised ValueError
@example((PolyTarget(PiecewisePolynomial([-1.0, -0.6682575491178123, -0.5], [
    Polynomial([]), Polynomial([-0.19942311433866888, 0.0, 0.0, 0.0, 1.0])])),
          Params(2, (-1.0, -1.0, -0.75, -0.75, 0.0, 0.0, 0.0))), 5.0, -1.0)
def test_risk_scaling_identity_random_targets(case, e, sign):
    # risk(theta_c, c f) = c^2 risk(theta, f), where theta_c scales v and c;
    # rounding error is relative to c^2 (||N||^2 + ||f||^2) <= 3 c^2 (risk + ||f||^2)
    t, p = case
    c = sign * 10.0 ** e
    H = p.H
    scaled = Params(H, p.theta[:2 * H] + tuple(c * x for x in p.theta[2 * H:]))
    r = risk(p, t)
    assert abs(risk(scaled, t.scaled(c)) - c * c * r) <= 1e-11 * c * c * (r + t.sq_integral())


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
    geo = _Geometry(p.theta, p.H, t)
    val = geo.net_sq_int() - 2.0 * geo.net_f_int() + t.sq_integral()
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
    return _report_from_matrix(np.diag(eigs), 1e-6)


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


def test_classify_requires_critical():
    with pytest.raises(NotCriticalError):
        classify(synthetic_report([1.0]), 0.5)


def test_hessian_report_json(bench):
    rep = closed_hessian_M(0.5, 1.0, bench)
    doc = rep.to_json_dict()
    assert doc["numerical_rank"] == rep.numerical_rank
    assert len(doc["matrix"]) == 4
    assert doc["eigenvalues"] == sorted(doc["eigenvalues"])


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
    return max(sq - 2.0 * cross + t.sq_integral(1e-12, "gauss_kronrod"), 0.0)


BIT_TARGETS = (
    BenchmarkTarget(1 / 3, 2 / 3, 0.0, 1.0),
    BenchmarkTarget(0.25, 0.6, -0.5, 1.5, scale=1.3),
    poly_target([-1.0, -0.25, 0.5, 1.0],
                [[0.5, 1.0, -2.0], [0.140625, 0.0, 0.0, 1.0], [0.203125, 0.0, 0.0, 0.0, 1.0]]),
)

_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _bit_case(draw):
    t = draw(st.sampled_from(BIT_TARGETS))
    H = draw(st.sampled_from((1, 2, 4, 7)))
    a, b = t.domain
    w, bias, kinks = [], [], []
    for j in range(H):
        # power-of-two weights make -(-w q) / w == q exactly
        mode = draw(st.sampled_from(("random", "at_a", "at_b", "shared", "w0",
                                     "nowhere")))
        sign = draw(st.sampled_from((-1.0, 1.0)))
        w2 = sign * 2.0 ** draw(st.integers(-3, 3))
        if mode == "at_a" or mode == "at_b":
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
