import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluland import (BenchmarkTarget, PolyTarget, parse_target_json,
                      target_to_json)
from reluland.errors import DomainError
from reluland.polyalg import PiecewisePolynomial, Polynomial
from reluland.target import _mid_eval

from conftest import domain_points, piecewise_polys, poly_target, rng_for

# pinned by two independent quadratures (adaptive Simpson vs Gauss-Kronrod)
# and a high-precision cross-check during development
SQ_INT_F_13_23 = 0.024983326680593343
# int_0^{1/2} f = -1/(8 sqrt 5), from the closed-form running integral
INT_F_TO_HALF = -1.0 / (8.0 * math.sqrt(5.0))


def integral(t, lo, hi, k=0):
    """Integral of x**k f over [lo, hi], k in {0, 1}, from the running integrals."""
    return t.cum_int_xint(hi)[k] - t.cum_int_xint(lo)[k]


def test_eval_middle_piece_value(bench):
    # substitute x = alpha into the middle piece: -sqrt(3)/24
    assert bench.eval(1.0 / 3.0) == pytest.approx(-math.sqrt(3.0) / 24.0, rel=1e-14)


def test_eval_left_right_limits_agree_at_alpha(bench):
    al = bench.alpha
    left = bench._left(al)
    mid = (3 * al ** 2 - 1) / (4 * math.sqrt(1 - al) * (1 + 3 * al) ** 1.5)
    assert abs(left - mid) < 1e-12


def test_eval_poly_target():
    t = poly_target([0.0, 1.0], [[0.0, 0.0, 1.0]])
    assert t.eval(0.5) == 0.25


def test_eval_outside_domain(bench):
    with pytest.raises(DomainError):
        bench.eval(1.5)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_poly_eval_array_bit_identical_to_eval(data):
    pp = data.draw(piecewise_polys(max_pieces=5, max_degree=6))
    xs = data.draw(domain_points(pp)) + [pp.lo, pp.hi]
    t = PolyTarget(pp)
    got = t.eval_array(np.array(xs)).tolist()
    assert [v.hex() for v in got] == [float(t.eval(x)).hex() for x in xs]


@pytest.mark.parametrize("t", [BenchmarkTarget(1 / 3, 2 / 3),
                               BenchmarkTarget(0.25, 0.7, -0.4, 0.85, scale=-1.5)])
def test_benchmark_eval_array_matches_eval(t):
    w = t.b - t.a
    xs = [t.a, t.a + t.alpha * w, t.a + t.beta * w, t.b]
    xs += [math.nextafter(x, t.b) for x in xs[:3]] + [math.nextafter(x, t.a) for x in xs[1:]]
    xs += np.linspace(t.a, t.b, 301).tolist()
    got = t.eval_array(np.array(xs)).tolist()
    for x, g in zip(xs, got):
        want = t.eval(x)
        if t.alpha < t._to_u(x) <= t.beta:
            assert abs(g - want) <= 4 * math.ulp(want), x
        else:
            assert g.hex() == want.hex(), x
    with pytest.raises(DomainError):
        t.eval_array(np.array([t.a, math.nextafter(t.b, math.inf)]))


def test_benchmark_continuity_random_pairs():
    rng = rng_for(11)
    for _ in range(20):
        al = float(rng.uniform(0.05, 0.6))
        be = float(rng.uniform(al + 0.05, 0.95))
        t = BenchmarkTarget(al, be)
        for u in (al, be):
            lo = t.eval_normalized(u - 1e-15) if u > 1e-15 else t.eval_normalized(0.0)
            hi = t.eval_normalized(min(u + 1e-15, 1.0))
            assert abs(lo - hi) < 1e-12


def _right_piece_reference(beta, u):
    """(f(u), int_beta^u f, int_beta^u s f(s) ds) on the right piece, from its
    closed-form coefficients in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        be, u = Decimal(beta), Decimal(u)
        d = 4 * (1 - be) ** 2 * (1 - be).sqrt() * (1 + 3 * be) * (1 + 3 * be).sqrt()
        c = [(3 * be ** 4 + 10 * be * be - 1) / d, -(18 * be * be + 8 * be - 2) / d,
             12 * be / d]
        f = sum(ck * u ** k for k, ck in enumerate(c))
        F = sum(ck * (u ** (k + 1) - be ** (k + 1)) / (k + 1) for k, ck in enumerate(c))
        G = sum(ck * (u ** (k + 2) - be ** (k + 2)) / (k + 2) for k, ck in enumerate(c))
        return float(f), float(F), float(G)


@pytest.mark.parametrize("beta", [0.9, 0.95, 0.97, 0.98])
def test_benchmark_right_piece_accurate_where_accepted(beta):
    # the expanded right piece's terms grow like (1 - beta)**-2.5 and cancel;
    # where the constructor accepts beta, values and running integrals on
    # [beta, 1] stay within the certificates' 1e-9 relative tolerance
    t = BenchmarkTarget(1 / 3, beta)
    assert _right_piece_reference(beta, beta)[0] == pytest.approx(_mid_eval(beta), rel=1e-13)
    F0, G0 = t.cum_int_xint(beta)
    for k in range(1, 11):
        u = min(beta + (1.0 - beta) * k / 10, 1.0)
        f, F, G = _right_piece_reference(beta, u)
        F1, G1 = t.cum_int_xint(u)
        assert t.eval(u) == pytest.approx(f, rel=1e-11)
        assert F1 - F0 == pytest.approx(F, rel=1e-9)
        assert G1 - G0 == pytest.approx(G, rel=1e-9)


@pytest.mark.parametrize("beta", [0.99, 0.999, 0.9999, 0.999999])
def test_benchmark_rejects_beta_near_one(beta):
    # there the expanded right piece misses continuity by more than 1e-12
    # relative; at 0.999999 its values are off by about 1e-3 relative
    with pytest.raises(DomainError, match="discontinuous"):
        BenchmarkTarget(1 / 3, beta)


def test_benchmark_validation():
    with pytest.raises(DomainError):
        BenchmarkTarget(0.7, 0.3)
    with pytest.raises(DomainError):
        BenchmarkTarget(0.0, 0.5)
    with pytest.raises(DomainError):
        BenchmarkTarget(1 / 3, 2 / 3, 1.0, 0.0)


_LINE = [[0.0, 1.0]]


@pytest.mark.parametrize("make", [
    lambda: BenchmarkTarget(1 / 3, 2 / 3, b=math.inf),
    lambda: BenchmarkTarget(1 / 3, 2 / 3, scale=math.nan),
    lambda: BenchmarkTarget(math.nan, 2 / 3),
    lambda: BenchmarkTarget(1 / 3, 2 / 3, -1e308, 1e308),  # b - a overflows
    lambda: BenchmarkTarget(1 / 3, 2 / 3).scaled(math.inf),
    lambda: BenchmarkTarget(1 / 3, 2 / 3).scaled(1e160),  # scale**2 overflows
    lambda: poly_target([0.0, 1.0], [[0.0, math.nan, 1.0]]),
    lambda: poly_target([0.0, math.inf], [[0.0]]),  # whose integral of f**2 is 0
    lambda: poly_target([0.0, 1.0], _LINE).scaled(math.inf),
    lambda: poly_target([0.0, 1.0], _LINE).scaled(math.nan),
    lambda: poly_target([0.0, 1.0], _LINE).scaled(1e200),  # integral of f**2 overflows
], ids=["bench-b-inf", "bench-scale-nan", "bench-alpha-nan", "bench-width-overflow",
        "bench-scaled-inf", "bench-scaled-huge", "poly-coeff-nan", "poly-breakpoint-inf",
        "poly-scaled-inf", "poly-scaled-nan", "poly-scaled-huge"])
def test_constructors_reject_non_finite(make):
    with pytest.raises(DomainError, match="finite"):
        make()


def test_antiderivatives_differentiate_to_f(bench):
    # central differences of cum_int / cum_xint at 50 interior points
    # (prime denominator keeps the stencil off the alpha/beta kinks)
    h = 1e-6
    for k in range(1, 51):
        x = k / 53.0
        df = (bench.cum_int(x + h) - bench.cum_int(x - h)) / (2 * h)
        dg = (bench.cum_xint(x + h) - bench.cum_xint(x - h)) / (2 * h)
        assert abs(df - bench.eval(x)) < 1e-8
        assert abs(dg - x * bench.eval(x)) < 1e-8


def test_int_frozen_value(bench):
    assert integral(bench, 0.0, 0.5) == pytest.approx(INT_F_TO_HALF, rel=1e-13)
    # the full-interval integral of the benchmark target vanishes
    assert abs(integral(bench, 0.0, 1.0)) < 1e-14


def test_int_poly_antiderivative():
    t = poly_target([0.0, 1.0], [[0.0, 0.0, 1.0]])
    assert integral(t, 0.0, 1.0 / 3.0) == pytest.approx(1.0 / 81.0, rel=1e-14)


def test_xint_constant():
    t = poly_target([0.0, 1.0], [[2.0]])
    assert integral(t, 0.0, 1.0, k=1) == pytest.approx(1.0, rel=1e-15)


def test_int_additivity(bench):
    rng = rng_for(12)
    for _ in range(20):
        lo = float(rng.uniform(0.0, 0.3))
        mid = float(rng.uniform(0.3, 0.7))
        hi = float(rng.uniform(0.7, 1.0))
        for k in (0, 1):
            assert (integral(bench, lo, mid, k) + integral(bench, mid, hi, k)
                    == pytest.approx(integral(bench, lo, hi, k), abs=1e-12))


def test_sq_int_examples():
    t = poly_target([0.0, 1.0], [[0.0, 1.0]])
    assert t.sq_integral() == pytest.approx(1.0 / 3.0, rel=1e-15)
    z = poly_target([0.0, 1.0], [[0.0]])
    assert z.sq_integral() == 0.0


def test_sq_int_benchmark_frozen(bench):
    gk = bench.sq_integral(1e-12, "gauss_kronrod")
    si = bench.sq_integral(1e-12, "simpson")
    assert gk == pytest.approx(SQ_INT_F_13_23, abs=5e-13)
    assert si == pytest.approx(SQ_INT_F_13_23, abs=5e-13)
    assert abs(gk - si) < 1e-10


@pytest.mark.parametrize("method", ["gauss_kronrod", "simpson"])
def test_sq_int_benchmark_large_scale(bench, method):
    # tol bounds the normalized integral, so every scale reads one quadrature
    for c in (1e3, 1e6, 1e150):
        assert (bench.scaled(c).sq_integral(1e-12, method)
                == pytest.approx(c * c * bench.sq_integral(1e-12, method), rel=1e-15))


def test_sq_int_poly_matches_squared_moment():
    rng = rng_for(13)
    for _ in range(10):
        coeffs = [float(c) for c in rng.uniform(-1, 1, 4)]
        t = poly_target([0.0, 1.0], [coeffs])
        p = Polynomial(coeffs)
        ref = PiecewisePolynomial([0.0, 1.0], [p * p]).moment(0, 0.0, 1.0)
        assert t.sq_integral() == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_scale_target():
    t = poly_target([0.0, 1.0], [[0.0, 1.0]])
    assert t.scaled(2.0).eval(0.5) == pytest.approx(1.0)
    assert t.scaled(1.0).eval(0.3) == t.eval(0.3)
    assert t.scaled(0.0).eval(0.7) == 0.0


def test_scale_benchmark_pointwise(bench):
    s = bench.scaled(-2.5)
    for x in (0.1, 0.45, 0.9):
        assert s.eval(x) == pytest.approx(-2.5 * bench.eval(x), rel=1e-15)


def test_json_roundtrip(bench):
    t2 = parse_target_json(target_to_json(bench))
    assert isinstance(t2, BenchmarkTarget)
    assert (t2.alpha, t2.beta, t2.a, t2.b, t2.scale) == (
        bench.alpha, bench.beta, bench.a, bench.b, bench.scale)
    t = poly_target([0.0, 0.5, 1.0], [[0.0, 1.0], [0.25, 0.5]])
    t3 = parse_target_json(target_to_json(t))
    assert isinstance(t3, PolyTarget)
    assert t3.pp.breakpoints == t.pp.breakpoints


def test_parser_rejects_bad_input():
    with pytest.raises(DomainError):
        parse_target_json("not json at all")
    with pytest.raises(DomainError):
        parse_target_json('{"kind": "mystery"}')
    with pytest.raises(DomainError):
        parse_target_json('{"kind":"piecewise_poly","breakpoints":[0,0],"pieces":[[1]]}')
    with pytest.raises(DomainError):
        parse_target_json('{"kind":"benchmark","alpha":0.9,"beta":0.1}')


@pytest.mark.parametrize("spec", [
    '{"kind":"piecewise_poly","breakpoints":[0,NaN],"pieces":[[1]]}',
    '{"kind":"piecewise_poly","breakpoints":[0,Infinity],"pieces":[[1]]}',
    '{"kind":"piecewise_poly","breakpoints":[0,1],"pieces":[[0,NaN,1]]}',
    '{"kind":"piecewise_poly","breakpoints":[0,1],"pieces":[[-Infinity]]}',
    '{"kind":"benchmark","alpha":0.25,"beta":0.5,"scale":NaN}',
    '{"kind":"benchmark","alpha":0.25,"beta":0.5,"a":-Infinity,"b":1}',
    '{"kind":"benchmark","alpha":0.25,"beta":0.5,"a":0,"b":Infinity}',
    # finite coefficients whose integral of f**2 overflows
    '{"kind":"piecewise_poly","breakpoints":[0,1],"pieces":[[0,1e300,1]]}',
])
def test_parser_rejects_non_finite(spec):
    with pytest.raises(DomainError, match="finite"):
        parse_target_json(spec)


class _PrefixListReference:
    """The former PolyTarget running integrals: six per-piece lists (the
    antiderivatives of f and x f, their values at each piece's left end and
    the prefix integrals up to it)."""

    def __init__(self, pp):
        self.pp = pp
        self.anti0 = [p.antiderivative() for p in pp.pieces]
        self.anti1 = [p.shift_up(1).antiderivative() for p in pp.pieces]
        self.start0 = [a0(x0) for a0, x0 in zip(self.anti0, pp.breakpoints)]
        self.start1 = [a1(x0) for a1, x0 in zip(self.anti1, pp.breakpoints)]
        self.prefix0 = [0.0]
        self.prefix1 = [0.0]
        for i, (a0, a1) in enumerate(zip(self.anti0, self.anti1)):
            x1 = pp.breakpoints[i + 1]
            self.prefix0.append(self.prefix0[-1] + a0(x1) - self.start0[i])
            self.prefix1.append(self.prefix1[-1] + a1(x1) - self.start1[i])

    def cum_int_xint(self, x):
        i = self.pp._piece_index(x)
        return (self.prefix0[i] + self.anti0[i](x) - self.start0[i],
                self.prefix1[i] + self.anti1[i](x) - self.start1[i])


@st.composite
def _running_integral_case(draw):
    pp = draw(piecewise_polys(max_pieces=5, max_degree=6))
    return pp, draw(domain_points(pp))


@settings(max_examples=300, deadline=None, database=None)
@given(_running_integral_case())
def test_poly_running_integrals_bit_identical_to_prefix_lists(case):
    pp, xs = case
    t = PolyTarget(pp)
    ref = _PrefixListReference(t.pp)
    for x in xs:
        got = [v.hex() for v in t.cum_int_xint(x)]
        assert got == [v.hex() for v in ref.cum_int_xint(x)], x
