import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from reluland import (BenchmarkTarget, canonical, certify_family, certify_gap,
                      closed_hessian_M, grad, hessian_fd, l2_distance, minima_risk,
                      risk, sample_M, verify_zero_integrals)
from reluland.errors import DomainError
from reluland.minima import CLOSED_HESSIAN_RTOL, MIN_EIGENVALUE_TOL
from reluland.polyalg import PiecewisePolynomial, Polynomial

from conftest import parts, rng_for

SQ_INT_F_13_23 = 0.024983326680593343
# measured strict gap at p=0.5, eps=0.05 (high-precision cross-check)
GAP_P05_EPS005 = 1.6666683857013205e-4


def test_sample_formulas(bench):
    s = sample_M(bench, 1, 0.5, 1.0, seed=0)
    w, b, v, c = parts(s.theta)
    assert w[0] == pytest.approx(1.0)
    assert b[0] == pytest.approx(-0.5)
    assert v[0] == pytest.approx(1.0 / (2.0 * 0.5 ** 1.5 * math.sqrt(2.5)), rel=1e-14)
    assert v[0] == pytest.approx(0.8944271909999159, rel=1e-12)
    assert c == pytest.approx(-0.11180339887498948, rel=1e-12)


def test_sample_domain_checks(bench):
    with pytest.raises(DomainError):
        sample_M(bench, 1, 0.2, 1.0)
    with pytest.raises(DomainError):
        sample_M(bench, 1, 0.5, -1.0)
    # the only guard: with H = 0 the family would be one active neuron
    for H in (0, -2):
        with pytest.raises(DomainError, match="H must be >= 1"):
            sample_M(bench, H, 0.5, 1.0)


def test_sample_inactive_neurons_strictly_inactive():
    t = BenchmarkTarget(1 / 3, 2 / 3, -2.0, -1.0)  # negative domain
    s = sample_M(t, 6, 0.4, 1.0, seed=9)
    for w, b, _ in s.inactive:
        assert max(w * t.a + b, w * t.b + b) < 0.0


def test_zero_gradient_across_widths(bench):
    for H in (1, 2, 4, 8):
        s = sample_M(bench, H, 0.41, 1.3, seed=H)
        assert grad(s.theta, bench).max_norm() < 1e-10


def test_same_kink_same_realization(bench):
    a = sample_M(bench, 4, 0.55, 0.8, seed=1)
    b = sample_M(bench, 4, 0.55, 2.9, seed=77)
    ra = canonical(a.theta, bench.a, bench.b)
    rb = canonical(b.theta, bench.a, bench.b)
    assert l2_distance(ra, rb) < 1e-12


def test_distinct_kinks_distinct_realizations(bench):
    rng = rng_for(41)
    xs = sorted(float(x) for x in rng.uniform(0.34, 0.66, 8))
    reals = [canonical(sample_M(bench, 2, x, 1.0, seed=0).theta, 0.0, 1.0)
             for x in xs]
    for i in range(len(reals)):
        for j in range(i + 1, len(reals)):
            assert l2_distance(reals[i], reals[j]) > 0.0


def test_constant_risk_on_family(bench):
    ref = minima_risk(bench)
    rng = rng_for(42)
    for k in range(20):
        x = float(rng.uniform(0.34, 0.66))
        y = float(rng.uniform(0.3, 3.0))
        s = sample_M(bench, 3, x, y, seed=k)
        assert risk(s.theta, bench) == pytest.approx(ref, rel=1e-9)


def test_minima_risk_value_and_scaling(bench):
    assert minima_risk(bench) == pytest.approx(SQ_INT_F_13_23 - 1.0 / 48.0, rel=1e-10)
    doubled = BenchmarkTarget(1 / 3, 2 / 3, 0.0, 2.0)
    assert minima_risk(doubled) == pytest.approx(2.0 * minima_risk(bench), rel=1e-10)


def test_single_kink_square_integral_is_one_48th():
    # the family's normalized realization N_q satisfies int_0^1 N_q^2 = 1/48,
    # so replacing the target by N_q itself zeroes the closed-form risk
    for q in (0.35, 0.5, 0.61):
        level = -math.sqrt(1.0 - q) / (4.0 * math.sqrt(1.0 + 3.0 * q))
        slope = 1.0 / (2.0 * (1.0 - q) ** 1.5 * math.sqrt(1.0 + 3.0 * q))
        pp = PiecewisePolynomial(
            [0.0, q, 1.0],
            [Polynomial([level]), Polynomial([level - slope * q, slope])])
        sq = PiecewisePolynomial([0.0, q, 1.0], [p * p for p in pp.pieces])
        assert sq.moment(0, 0.0, 1.0) == pytest.approx(1.0 / 48.0, rel=1e-13)


def test_zero_integrals(bench):
    for q in (0.4, 0.5):
        res = verify_zero_integrals(bench, q)
        assert max(abs(r) for r in res) < 1e-10


def test_zero_integrals_boundary_rejected(bench):
    with pytest.raises(DomainError):
        verify_zero_integrals(bench, bench.alpha)


def test_hessian_certificate(bench):
    rng = rng_for(43)
    for k in range(3):
        x = float(rng.uniform(0.35, 0.65))
        s = sample_M(bench, 4, x, float(rng.uniform(0.5, 2.0)), seed=k)
        full = hessian_fd(s.theta, bench, coords="all")
        assert full.numerical_rank == 2
        assert full.min_eigenvalue > -1e-8
        closed = closed_hessian_M(x, s.theta.w(0), bench)
        fd = hessian_fd(s.theta, bench, coords="restricted4")
        for i in range(4):
            for j in range(4):
                assert fd.matrix[i][j] == pytest.approx(closed.matrix[i][j], rel=1e-5)


def test_witness_kinks(bench):
    w = certify_gap(bench, 4, 0.5, 0.05, seed=0).witness
    r = canonical(w, bench.a, bench.b)
    assert len(r.kinks) == 2
    assert r.kinks[0] == pytest.approx(0.45, abs=1e-12)
    assert r.kinks[1] == pytest.approx(0.55, abs=1e-12)


def test_witness_preconditions(bench):
    with pytest.raises(DomainError):
        certify_gap(bench, 1, 0.5, 0.05)
    with pytest.raises(DomainError):
        certify_gap(bench, 2, 0.5, 0.5)
    for scale in (0.0, -1.0):
        with pytest.raises(DomainError, match="positive target scale"):
            certify_gap(BenchmarkTarget(1 / 3, 2 / 3, scale=scale), 2, 0.5, 0.05)


def test_gap_certificate_decides_half_width():
    # the exact gap is the certificate: eps = 0.2 and 0.3 pass although the
    # target does not stay above the witness's chord on (p - eps, p + eps)
    wide = BenchmarkTarget(0.05, 0.95, 0.0, 1.0)
    cert = certify_gap(wide, 2, 0.5, 0.2, seed=0)
    assert cert.gap == pytest.approx(1.0674555622883636e-3, rel=1e-10)
    assert cert.passed
    assert certify_gap(wide, 2, 0.5, 0.3, seed=0).passed
    failed = certify_gap(wide, 2, 0.5, 0.40, seed=0)
    assert failed.gap < 0.0
    assert not failed.passed


def test_witness_converges_to_family_realization(bench):
    cert = certify_gap(bench, 4, 0.5, 1e-3, seed=0)
    family = canonical(cert.theta, bench.a, bench.b)
    assert l2_distance(canonical(cert.witness, bench.a, bench.b), family) < 1e-2


def test_gap_positive_on_grid(bench):
    for p in (0.4, 0.45, 0.5, 0.55, 0.6):
        for eps in (0.02, 0.04, 0.05):
            cert = certify_gap(bench, 4, p, eps, seed=0)
            assert cert.gap > 0.0 and cert.passed


def test_gap_frozen_value(bench):
    cert = certify_gap(bench, 4, 0.5, 0.05, seed=3)
    assert cert.gap == pytest.approx(GAP_P05_EPS005, rel=1e-10)


def test_gap_backend_stability(bench):
    gk = certify_gap(bench, 4, 0.5, 0.05, seed=3, method="gauss_kronrod")
    si = certify_gap(bench, 4, 0.5, 0.05, seed=3, method="simpson")
    assert abs(gk.gap - si.gap) < 1e-10


def test_sample_determinism(bench):
    a = sample_M(bench, 4, 0.5, 1.0, seed=123)
    b = sample_M(bench, 4, 0.5, 1.0, seed=123)
    assert a.theta == b.theta


@st.composite
def _family_case(draw):
    alpha = draw(st.floats(0.1, 0.45))
    beta = draw(st.floats(0.55, 0.9))
    a = draw(st.floats(-2.0, 2.0))
    b = a + draw(st.floats(0.5, 3.0))
    H = draw(st.integers(1, 5))
    xs = [alpha + (beta - alpha) * u
          for u in draw(st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3))]
    y = draw(st.floats(0.3, 3.0))
    gap = None
    if H >= 2:
        p = alpha + (beta - alpha) * draw(st.floats(0.2, 0.8))
        gap = (p, min(p - alpha, beta - p, 0.2) / 4.0)
    return BenchmarkTarget(alpha, beta, a, b), H, xs, y, draw(st.integers(0, 2 ** 32)), gap


@settings(max_examples=80, deadline=None, database=None)
@given(_family_case())
def test_family_certificate_passes(case):
    t, H, xs, y, seed, gap = case
    cert = certify_family(t, H, xs, y, seed=seed, gap=gap)
    # two fixed thresholds misjudge some true minima, about 1 case in 100
    # here (pinned by the xfail tests below); every other check must pass
    assume(all(s.hessian.min_eigenvalue > -MIN_EIGENVALUE_TOL
               and s.closed_rel < CLOSED_HESSIAN_RTOL for s in cert.samples))
    assert cert.passed
    assert len(cert.samples) == len(xs)
    assert (cert.gap is None) == (H < 2)


@pytest.mark.xfail(strict=True, reason="absolute eigenvalue floor vs FD noise")
def test_family_certificate_large_hessian():
    # the largest Hessian eigenvalue is about 487, and FD noise in the flat
    # directions puts the smallest at -1.7e-7, below -MIN_EIGENVALUE_TOL
    cert = certify_family(BenchmarkTarget(1 / 3, 0.9, 0.0, 2.0), 1, [0.85], 0.3)
    assert cert.passed


@pytest.mark.xfail(strict=True, reason="relative error at a vanishing closed-form entry")
def test_family_certificate_vanishing_closed_entry():
    # a (1 - q^2) + b (1 + 4q + q^2) = 0: the closed form's (w_1, b_1) entry
    # rounds to 6e-17 and the FD one to about 1e-10, a relative error of 2e6
    cert = certify_family(BenchmarkTarget(0.1, 0.7, -1.15, 0.6), 1, [0.2], 1.0)
    assert cert.passed


@pytest.mark.xfail(strict=True, reason="float running integrals of the right piece near beta = 1")
def test_family_certificate_beta_near_one():
    # the kinks of reluland minima --beta 0.9904 --samples 2: the second
    # sample's float risk is 1.97e-9 relative off the family level, against
    # a 1e-9 bound, while its exact risk equals the level
    alpha, beta = 1 / 3, 0.9904
    xs = [alpha + (beta - alpha) * (k + 1) / 3 for k in range(2)]
    cert = certify_family(BenchmarkTarget(alpha, beta), 4, xs, 1.0)
    assert [s.passed for s in cert.samples] == [True, True]


def test_family_certificate_matches_its_parts(bench):
    cert = certify_family(bench, 4, [0.4, 0.6], 1.3, seed=7, gap=(0.5, 0.05))
    assert cert.passed
    assert cert.reference_risk == minima_risk(bench)
    assert cert.reference_risk_cross_check == minima_risk(bench, method="simpson")
    for k, s in enumerate(cert.samples):
        assert s.sample == sample_M(bench, 4, s.sample.x, 1.3, seed=7 + k)
        assert s.grad_max_norm == grad(s.sample.theta, bench).max_norm()
        assert s.risk == risk(s.sample.theta, bench)
        assert s.residuals == verify_zero_integrals(bench, s.sample.x)
    assert cert.gap == certify_gap(bench, 4, 0.5, 0.05, seed=7)


@pytest.mark.parametrize("scale", [1e-3, 0.1, 3.0, 10.0])
def test_family_certificate_passes_on_scaled_targets(scale):
    cert = certify_family(BenchmarkTarget(1 / 3, 2 / 3, scale=scale), 4, [0.4, 0.5, 0.6], 1.0,
                          gap=(0.5, 0.05))
    assert cert.passed


def test_family_certificate_fails_with_its_gap():
    wide = BenchmarkTarget(0.05, 0.95, 0.0, 1.0)
    cert = certify_family(wide, 2, [0.5], 1.0, gap=(0.5, 0.40))
    assert cert.samples[0].passed
    assert not cert.gap.passed
    assert not cert.passed
