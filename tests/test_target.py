import decimal
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reluland import BenchmarkTarget, PolyTarget, parse_target_json
from reluland.errors import DomainError
from reluland.polyalg import PiecewisePolynomial, Polynomial, reparametrize
from reluland.landscape import risk_theta
from reluland.target import QUAD_METHODS, _mid_eval

from conftest import (domain_points, piecewise_polys, poly_target, rng_for, scaled,
                      special_points)

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
    t = poly_target([0.0, 1.0], _LINE)
    for x in (-0.5, math.nextafter(1.0, 2.0)):
        with pytest.raises(DomainError, match="outside"):
            t.eval_array(np.array([0.5, x]))
        with pytest.raises(DomainError, match="outside"):
            t.cum_int_xint(x)


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


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_benchmark_to_u_lies_in_unit_interval(data):
    # _to_u has no clamp: rounding is monotone, so a <= x <= b gives
    # 0 <= x - a <= b - a, and (b - a) / (b - a) is 1
    ends = st.floats(-1e300, 1e300)
    a, b = data.draw(ends), data.draw(ends)
    assume(a < b)
    t = BenchmarkTarget(0.25, 0.5, a, b)
    assert t._to_u(a) == 0.0 and t._to_u(b) == 1.0
    x = data.draw(st.one_of(st.sampled_from((a, b)), st.floats(a, b)))
    assert 0.0 <= t._to_u(x) <= 1.0


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


def test_benchmark_repr_round_trips():
    t = BenchmarkTarget(1 / 3, 2 / 3, -0.5, 2.0, scale=2.5)
    assert repr(t) == ("BenchmarkTarget(alpha=0.3333333333333333, beta=0.6666666666666666, "
                       "a=-0.5, b=2.0, scale=2.5)")
    assert repr(eval(repr(t), {"BenchmarkTarget": BenchmarkTarget})) == repr(t)


def test_benchmark_validation():
    with pytest.raises(DomainError):
        BenchmarkTarget(0.7, 0.3)
    with pytest.raises(DomainError):
        BenchmarkTarget(0.0, 0.5)
    with pytest.raises(DomainError):
        BenchmarkTarget(1 / 3, 2 / 3, 1.0, 0.0)
    # the limits themselves: beta = 1 and a = b divide by zero past the
    # checks, and alpha = beta leaves no middle piece
    for alpha, beta in ((0.25, 1.0), (0.5, 0.5)):
        with pytest.raises(DomainError, match="need 0 < alpha < beta < 1"):
            BenchmarkTarget(alpha, beta)
    with pytest.raises(DomainError, match="need b > a"):
        BenchmarkTarget(1 / 3, 2 / 3, 1.0, 1.0)


_LINE = [[0.0, 1.0]]


@pytest.mark.parametrize("make", [
    lambda: BenchmarkTarget(1 / 3, 2 / 3, b=math.inf),
    lambda: BenchmarkTarget(1 / 3, 2 / 3, scale=math.nan),
    lambda: BenchmarkTarget(math.nan, 2 / 3),
    lambda: BenchmarkTarget(1 / 3, 2 / 3, -1e308, 1e308),  # b - a overflows
    lambda: scaled(BenchmarkTarget(1 / 3, 2 / 3), math.inf),
    lambda: scaled(BenchmarkTarget(1 / 3, 2 / 3), 1e160),  # scale**2 overflows
    lambda: poly_target([0.0, 1.0], [[0.0, math.nan, 1.0]]),
    lambda: poly_target([0.0, math.inf], [[0.0]]),  # whose integral of f**2 is 0
    lambda: scaled(poly_target([0.0, 1.0], _LINE), math.inf),
    lambda: scaled(poly_target([0.0, 1.0], _LINE), math.nan),
    lambda: scaled(poly_target([0.0, 1.0], _LINE), 1e200),  # integral of f**2 overflows
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


def test_sq_int_poly_never_negative():
    # the running-integral difference of f**2 once read -4.93e-32 here,
    # where the exact value is about 1.4e-45
    pp = PiecewisePolynomial([0.0, 0.005, 0.005000000000000001, 0.25, 0.5], [
        Polynomial([]), Polynomial([-2.5000000000000004e-07, 0.0, 0.01]),
        Polynomial([5.293955920339377e-23]), Polynomial([5.293955920339377e-23])])
    assert PolyTarget(pp).sq_integral() >= 0.0


def test_sq_int_benchmark_frozen(bench):
    gk = bench.sq_integral("gauss_kronrod")
    si = bench.sq_integral("simpson")
    assert gk == pytest.approx(SQ_INT_F_13_23, abs=5e-13)
    assert si == pytest.approx(SQ_INT_F_13_23, abs=5e-13)
    assert abs(gk - si) < 1e-10


@pytest.mark.parametrize("method", ["gauss_kronrod", "simpson"])
def test_sq_int_benchmark_large_scale(bench, method):
    # the tolerance bounds the normalized integral, so every scale reads one
    # quadrature
    for c in (1e3, 1e6, 1e150):
        assert (scaled(bench, c).sq_integral(method)
                == pytest.approx(c * c * bench.sq_integral(method), rel=1e-15))


def test_sq_int_poly_matches_squared_moment():
    rng = rng_for(13)
    for _ in range(10):
        coeffs = [float(c) for c in rng.uniform(-1, 1, 4)]
        t = poly_target([0.0, 1.0], [coeffs])
        p = Polynomial(coeffs)
        ref = PiecewisePolynomial([0.0, 1.0], [p * p]).moment(0, 0.0, 1.0)
        assert t.sq_integral() == pytest.approx(ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("t", [BenchmarkTarget(1 / 3, 2 / 3), poly_target([0.0, 1.0], _LINE)],
                         ids=["benchmark", "poly"])
def test_both_target_kinds_take_the_same_quadrature_names(t):
    # the polynomial target's exact integral once took any name
    theta = [1.0, -0.5, 1.0, 0.0]
    assert all(math.isfinite(risk_theta(theta, 1, t, m)) for m in QUAD_METHODS)
    with pytest.raises(DomainError, match="unknown quadrature method 'simson'"):
        risk_theta(theta, 1, t, "simson")


def test_scale_target():
    t = poly_target([0.0, 1.0], [[0.0, 1.0]])
    assert scaled(t, 2.0).eval(0.5) == pytest.approx(1.0)
    assert scaled(t, 1.0).eval(0.3) == t.eval(0.3)
    assert scaled(t, 0.0).eval(0.7) == 0.0


def test_scale_benchmark_pointwise(bench):
    s = scaled(bench, -2.5)
    for x in (0.1, 0.45, 0.9):
        assert s.eval(x) == pytest.approx(-2.5 * bench.eval(x), rel=1e-15)


def test_json_roundtrip(bench):
    spec = {"kind": "benchmark", "alpha": bench.alpha, "beta": bench.beta,
            "a": bench.a, "b": bench.b, "scale": bench.scale}
    t2 = parse_target_json(json.dumps(spec))
    assert isinstance(t2, BenchmarkTarget)
    assert (t2.alpha, t2.beta, t2.a, t2.b, t2.scale) == (
        bench.alpha, bench.beta, bench.a, bench.b, bench.scale)
    t = poly_target([0.0, 0.5, 1.0], [[0.0, 1.0], [0.25, 0.5]])
    t3 = parse_target_json(json.dumps({"kind": "piecewise_poly",
                                       "breakpoints": list(t.pp.breakpoints),
                                       "pieces": [list(p.coeffs) for p in t.pp.pieces]}))
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
    for doc in ('[]', '["piecewise_poly"]', '"benchmark"', '3'):
        with pytest.raises(DomainError, match="object"):
            parse_target_json(doc)


@pytest.mark.parametrize("spec", [
    '{"kind": "piecewise_poly", "breakpoints": ["0", true], "pieces": [["1"]]}',
    '{"kind": "piecewise_poly", "breakpoints": [0, true], "pieces": [[1]]}',
    '{"kind": "piecewise_poly", "breakpoints": [0, 1], "pieces": [["1"]]}',
    '{"kind": "piecewise_poly", "breakpoints": [0, 1], "pieces": [[false, 1]]}',
    pytest.param('{"kind": "piecewise_poly", "breakpoints": [0, 1], "pieces": [[1' + '0' * 400
                 + ']]}', id="huge-int-coefficient"),
    '{"kind": "benchmark", "alpha": "0.25", "beta": 0.5}',
    '{"kind": "benchmark", "alpha": 0.25, "beta": 0.5, "scale": true}',
])
def test_parser_accepts_json_numbers_only(spec):
    with pytest.raises(DomainError):
        parse_target_json(spec)


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
    # and a continuity check at 1e200, where x**2 raises OverflowError
    '{"kind":"piecewise_poly","breakpoints":[0,1e200,2e200],"pieces":[[1,1,1],[1,1,1]]}',
])
def test_parser_rejects_non_finite(spec):
    with pytest.raises(DomainError, match="finite"):
        parse_target_json(spec)


_READS = {
    "cum_int_xint": lambda t, x: t.cum_int_xint(x),
    "cum_int": lambda t, x: t.cum_int(x),
    "cum_xint": lambda t, x: t.cum_xint(x),
    "eval": lambda t, x: t.eval(x),
    "eval_array": lambda t, x: t.eval_array(np.array([t.domain[0], x])),
}


@pytest.mark.parametrize("read", sorted(_READS))
@pytest.mark.parametrize("make", [lambda: BenchmarkTarget(1 / 3, 2 / 3),
                                  lambda: poly_target([0.0, 0.5, 1.0], [[0.0, 1.0], [0.5]])],
                         ids=["benchmark", "poly"])
@pytest.mark.parametrize("x", [math.nan, -math.inf, math.inf], ids=["nan", "-inf", "inf"])
def test_reads_reject_non_finite(make, read, x):
    # a NaN fails every comparison, so each domain test is not lo <= x <= hi
    with pytest.raises(DomainError, match="outside"):
        _READS[read](make(), x)


# continuous: its one-sided values at 6.5169 are 5.0 and 5.000000000116,
# and their gap of 1.2e-10 is the rounding of terms of absolute sum 2.8e6
CANCELLING_TARGET = (
    '{"kind": "piecewise_poly", "breakpoints": [0.0, 6.5169, 8.0], "pieces": '
    '[[-1138546.37448867, 483.5739785214587, 590.3871311313933, 884.9005675541007, '
    '479.79714947986145], [-236354.16382447336, -941.9895434327706, -68.75469124378935, '
    '886.7134339966274]]}')


def test_parser_accepts_a_continuous_target_whose_terms_cancel():
    t = parse_target_json(CANCELLING_TARGET)
    left, right = t.pp.pieces
    x = 6.5169
    terms = sum(abs(c) * x ** k for p in (left, right) for k, c in enumerate(p.coeffs))
    assert 2.7e6 < terms < 2.8e6
    assert 1e-10 < abs(left(x) - right(x)) < 1e-12 * (1.0 + abs(left(x)) + abs(right(x)) + terms)


def _sweep_target(rng):
    """1-3 pieces of degree 1-6 with coefficients of size 1e-3 to 1e4, each
    later piece's constant term shifted by the exact rational gap."""
    n = int(rng.integers(1, 4))
    lo = float(rng.uniform(-2.0, 2.0))
    hi = lo + float(rng.uniform(0.5, 4.0))
    bps = [lo, *sorted(float(x) for x in rng.uniform(lo, hi, n - 1)), hi]
    pieces = []
    for x in bps[:-1]:
        size = 10.0 ** float(rng.uniform(-3.0, 4.0))
        cs = [float(c) for c in rng.uniform(-size, size, int(rng.integers(2, 8)))]
        if pieces:
            q = Fraction(x)
            gap = sum(Fraction(c) * q ** k for k, c in enumerate(pieces[-1].coeffs))
            cs[0] = float(gap - sum(Fraction(c) * q ** k for k, c in enumerate(cs[1:], 1)))
        pieces.append(Polynomial(cs))
    return PiecewisePolynomial(bps, pieces)


def test_continuous_targets_build_in_every_form():
    # reflecting, normalizing or scaling a continuous target keeps it
    # continuous; the value-relative test alone refused hundreds of these
    rng = rng_for(31)
    for _ in range(3000):
        pp = _sweep_target(rng)
        t = PolyTarget(pp)
        PolyTarget(reparametrize(pp, -1.0, pp.lo + pp.hi))
        PolyTarget(reparametrize(pp, pp.hi - pp.lo, pp.lo))
        for c in (-3.0, 1e-6, 1e6):
            scaled(t, c)


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
# a zero piece, whose antiderivatives have no coefficients
@example((PiecewisePolynomial([0.0, 0.5, 1.0], [Polynomial([0.0]), Polynomial([-0.5, 1.0])]),
          [0.25, 0.75]))
def test_poly_running_integrals_bit_identical_to_prefix_lists(case):
    pp, xs = case
    t = PolyTarget(pp)
    ref = _PrefixListReference(t.pp)
    for x in xs + special_points(t):
        got = [v.hex() for v in t.cum_int_xint(x)]
        assert got == [v.hex() for v in ref.cum_int_xint(x)], x


def _mid_anti(u):
    return -u * math.sqrt(1.0 - u) / (4.0 * math.sqrt(1.0 + 3.0 * u))


def _mid_xanti(u):
    return -(3.0 * u * u + 2.0 * u + 1.0) * math.sqrt(1.0 - u) / (24.0 * math.sqrt(1.0 + 3.0 * u))


class _FieldReference:
    """The former BenchmarkTarget running integrals: per-piece
    antiderivatives, their values at each piece's left end, and the
    integrals of f and u f up to alpha and beta as separate fields."""

    def __init__(self, t):
        self.t = t
        al, be = t.alpha, t.beta
        la0 = t._left.antiderivative()
        la1 = t._left.shift_up(1).antiderivative()
        ra0 = t._right.antiderivative()
        ra1 = t._right.shift_up(1).antiderivative()
        self.mid = (_mid_anti, _mid_xanti)
        self.left_anti = (la0, la1)
        self.right_anti = (ra0, ra1)
        self.left_start = (la0(0.0), la1(0.0))
        self.mid_start = (_mid_anti(al), _mid_xanti(al))
        self.right_start = (ra0(be), ra1(be))
        self.F_alpha = la0(al) - la0(0.0)
        self.G_alpha = la1(al) - la1(0.0)
        self.F_beta = self.F_alpha + _mid_anti(be) - _mid_anti(al)
        self.G_beta = self.G_alpha + _mid_xanti(be) - _mid_xanti(al)

    def _cum01(self, u):
        if u <= self.t.alpha:
            a0, a1 = self.left_anti
            s0, s1 = self.left_start
            return a0(u) - s0, a1(u) - s1
        if u <= self.t.beta:
            a0, a1 = self.mid
            s0, s1 = self.mid_start
            return self.F_alpha + a0(u) - s0, self.G_alpha + a1(u) - s1
        a0, a1 = self.right_anti
        s0, s1 = self.right_start
        return self.F_beta + a0(u) - s0, self.G_beta + a1(u) - s1

    def cum_int_xint(self, x):
        t = self.t
        w = t.b - t.a
        F, G = self._cum01(t._to_u(x))
        return t.scale * w * F, t.scale * (t.a * w * F + w * w * G)


@st.composite
def _benchmark_case(draw):
    alpha = draw(st.floats(1e-3, 0.9))
    beta = draw(st.floats(alpha, 0.95, exclude_min=True))
    a = draw(st.floats(-10.0, 10.0))
    b = a + draw(st.floats(1e-3, 10.0))
    t = BenchmarkTarget(alpha, beta, a, b, draw(st.floats(-5.0, 5.0)))
    inside = draw(st.lists(st.floats(a, b), max_size=8))
    # a + alpha (b - a) and a + beta (b - a) can round past b
    return t, [x for x in (*t.breakpoints(), *special_points(t), *inside) if a <= x <= b]


@settings(max_examples=300, deadline=None, database=None)
@given(_benchmark_case())
def test_benchmark_running_integrals_bit_identical_to_fields(case):
    t, xs = case
    ref = _FieldReference(t)
    for x in xs:
        got = [v.hex() for v in t.cum_int_xint(x)]
        assert got == [v.hex() for v in ref.cum_int_xint(x)], x
