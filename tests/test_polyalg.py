import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reluland.errors import DomainError
from reluland.polyalg import (PiecewisePolynomial, Polynomial, _gcd, _prem, reparametrize,
                              roots_in)
from reluland.target import PolyTarget

from conftest import (domain_points, piecewise_polys, random_continuous_piecewise,
                      rng_for)


def test_eval_monomial():
    pp = PiecewisePolynomial([0.0, 1.0], [Polynomial([0.0, 0.0, 1.0])])
    assert pp.eval(0.5) == 0.25


def test_eval_constant():
    pp = PiecewisePolynomial([0.0, 2.0], [Polynomial([7.0])])
    assert pp.eval(1.3) == 7.0


def test_eval_breakpoint_right_ownership():
    pp = PiecewisePolynomial([0.0, 1.0, 2.0],
                             [Polynomial([0.0, 1.0]), Polynomial([2.0, -1.0])])
    assert pp.eval(1.0) == 1.0
    assert pp.eval(2.0) == 0.0  # last piece owns the right endpoint


def test_eval_outside_domain():
    pp = PiecewisePolynomial([0.0, 1.0], [Polynomial([1.0])])
    with pytest.raises(DomainError):
        pp.eval(1.5)


def test_discontinuity_rejected():
    # a piecewise polynomial is plain data; the target checks continuity
    pp = PiecewisePolynomial([0.0, 1.0, 2.0], [Polynomial([0.0]), Polynomial([1.0])])
    with pytest.raises(DomainError, match="discontinuity at breakpoint 1.0"):
        PolyTarget(pp)
    # no term cancels here, so a jump of 1e-11 is still one
    pp = PiecewisePolynomial([0.0, 0.5, 1.0],
                             [Polynomial([1.0, 0.3]), Polynomial([1.15 + 1e-11])])
    with pytest.raises(DomainError, match="discontinuity at breakpoint 0.5"):
        PolyTarget(pp)


def test_moment_examples():
    x = PiecewisePolynomial([0.0, 1.0], [Polynomial([0.0, 1.0])])
    assert math.isclose(x.moment(0, 0.0, 1.0), 0.5, rel_tol=1e-15)
    xsq = PiecewisePolynomial([0.0, 1.0], [Polynomial([0.0, 0.0, 1.0])])
    assert math.isclose(xsq.moment(1, 0.0, 1.0), 0.25, rel_tol=1e-15)
    assert math.isclose(xsq.moment(0, 0.0, 1.0 / 3.0), 1.0 / 81.0, rel_tol=1e-14)


def test_moment_outside_domain():
    pp = PiecewisePolynomial([0.0, 1.0], [Polynomial([1.0])])
    with pytest.raises(DomainError):
        pp.moment(0, -0.5, 0.5)
    with pytest.raises(DomainError, match="lo > hi"):
        pp.moment(0, 0.75, 0.25)


def test_piece_count_must_match_breakpoints():
    for bps, pieces in (([0.0, 1.0], []), ([0.0, 1.0], [Polynomial([1.0])] * 2),
                        ([0.0], [Polynomial([1.0])])):
        with pytest.raises(DomainError, match="breakpoints"):
            PiecewisePolynomial(bps, pieces)


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (1.0, 3.0)])
def test_moment_rejects_end_one_ulp_outside(lo, hi):
    # no slack: an end one ulp past the domain is outside it
    pp = PiecewisePolynomial([lo, hi], [Polynomial([1.0, 2.0])])
    assert pp.moment(0, lo, hi) == pp.cum_moment(0, hi)
    for ends in ((math.nextafter(lo, -math.inf), hi), (lo, math.nextafter(hi, math.inf)),
                 (math.nan, hi), (lo, math.nan)):
        with pytest.raises(DomainError, match="outside domain"):
            pp.moment(0, *ends)


def test_moment_matches_gauss_legendre():
    # random piecewise polynomials of degree <= 6 against 64-point quadrature
    nodes, weights = np.polynomial.legendre.leggauss(64)
    rng = rng_for(101)
    for _ in range(25):
        pp = random_continuous_piecewise(rng, max_pieces=4, max_degree=6)
        k = int(rng.integers(0, 3))
        lo = float(rng.uniform(0.0, 0.4))
        hi = float(rng.uniform(0.6, 1.0))
        ref = 0.0
        for i in range(len(pp.pieces)):
            a = max(lo, pp.breakpoints[i])
            b = min(hi, pp.breakpoints[i + 1])
            if a >= b:
                continue
            xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            ref += 0.5 * (b - a) * float(np.sum(
                weights * np.array([x ** k * pp.eval(x) for x in xs])))
        val = pp.moment(k, lo, hi)
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


def _exact_moment(pp, k, lo, hi):
    """Integral of x**k * pp over [lo, hi] in exact rational arithmetic."""
    lo, hi = Fraction(lo), Fraction(hi)
    total = Fraction(0)
    for p, x0, x1 in zip(pp.pieces, pp.breakpoints, pp.breakpoints[1:]):
        a, b = max(lo, Fraction(x0)), min(hi, Fraction(x1))
        if a < b:
            for j, c in enumerate(p.coeffs):
                m = j + k + 1
                total += Fraction(c) * (b ** m - a ** m) / m
    return total


@st.composite
def _moment_case(draw):
    pp = draw(piecewise_polys(max_pieces=5, max_degree=6))
    lo, hi = sorted(draw(domain_points(pp, min_size=2, max_size=2)))
    return pp, draw(st.sampled_from((0, 1, 2))), lo, hi


@settings(max_examples=300, deadline=None, database=None)
@given(_moment_case())
def test_moment_matches_exact_rational_integral(case):
    pp, k, lo, hi = case
    exact = _exact_moment(pp, k, lo, hi)
    # rounding is relative to the antiderivative values, which start at pp.lo
    size = max(1.0, abs(pp.lo), abs(pp.hi))
    scale = sum(abs(c) * size ** (j + k + 1)
                for p in pp.pieces for j, c in enumerate(p.coeffs))
    assert abs(pp.moment(k, lo, hi) - float(exact)) <= 1e-14 * len(pp.pieces) * max(scale, 1.0)


def _cum_hex(pp, k, xs):
    return [pp.cum_moment(k, x).hex() for x in xs]


def test_cum_moments_on_breakpoints_and_ends():
    # grid points on both interior breakpoints, at lo and at hi; at each
    # breakpoint the left piece's row of the table gives other last bits
    # for k = 0, so the right piece must own it
    pp = PiecewisePolynomial([-1.0, -0.5, 0.25, 1.0],
                             [Polynomial([0.1, -2.3, -2.9]),
                              Polynomial([2.3, 1.0, -0.2]),
                              Polynomial([1.9, 2.7, 0.5])])
    xs = np.linspace(-1.0, 1.0, 9)
    assert pp.breakpoints[1] in xs and pp.breakpoints[2] in xs
    for k in (0, 1, 2):
        got = [v.hex() for v in pp.cum_moments(k, xs).tolist()]
        assert got == _cum_hex(pp, k, xs.tolist())
    # repeated points, and a piece that holds none of them
    xs = np.array([-1.0, -1.0, 0.5, 1.0, 1.0])
    got = [v.hex() for v in pp.cum_moments(1, xs).tolist()]
    assert got == _cum_hex(pp, 1, xs.tolist())
    assert pp.cum_moments(0, np.array([])).shape == (0,)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_cum_moments_bit_identical_to_cum_moment(data):
    pp = data.draw(piecewise_polys())
    xs = sorted(data.draw(domain_points(pp, max_size=20)))
    k = data.draw(st.integers(0, 3))
    got = [v.hex() for v in pp.cum_moments(k, np.array(xs)).tolist()]
    assert got == _cum_hex(pp, k, xs)


def test_roots_simple():
    assert roots_in([-25, 0, 1], 0, 10) == [(5, 5)]
    assert roots_in([-2, 0, 1], 0, 10) == [(1, 2)]


def test_roots_quartic_interior():
    # (v - 1000)^2 (3v - 1000)(v + 1000): of the real roots
    # {-1000, 1000/3, 1000 (double)} a double root at an end is exact
    p = [1]
    for f in ([-1000, 1], [-1000, 1], [-1000, 3], [1000, 1]):
        p = [sum(p[i] * f[k - i] for i in range(len(p)) if 0 <= k - i < len(f))
             for k in range(len(p) + len(f) - 1)]
    assert roots_in(p, 1, 999) == [(333, 334)]
    assert roots_in(p, 0, 1000) == [(333, 334), (1000, 1000)]
    assert roots_in(p, -1000, 0) == [(-1000, -1000)]


def test_roots_none():
    assert roots_in([1, 0, 1], 0, 1) == []
    assert roots_in([7], 0, 1) == []


def test_roots_zero_poly_raises():
    with pytest.raises(DomainError, match="identically zero"):
        roots_in([], 0, 1)
    with pytest.raises(DomainError, match="identically zero"):
        roots_in([0, 0], 0, 1)


def test_roots_need_lo_below_hi():
    for lo, hi in ((1, 1), (2, 1)):
        with pytest.raises(DomainError, match="lo < hi"):
            roots_in([-1, 1], lo, hi)


def test_roots_never_miss_planted():
    # a double r = n / 2**k in (0, 1) is the integer r * 2**64 on the grid
    rng = rng_for(202)
    for _ in range(20):
        planted = sorted(int(float(r) * 2 ** 64) for r in rng.uniform(0.05, 0.95, 3))
        p = [int(rng.integers(1, 2 ** 40)) * (1 if rng.uniform() < 0.5 else -1)]
        for r in planted:
            p = [0] + p
            for i in range(len(p) - 1):
                p[i] -= r * p[i + 1]
        assert roots_in(p, 0, 2 ** 64) == [(r, r) for r in planted]


def test_roots_clustered_pair():
    # distinct roots a tenth apart, one of them an integer
    assert roots_in([30001 * 3000, -30001 - 30000, 10], 0, 10 ** 4) == [
        (3000, 3000), (3000, 3001)]
    # two roots in one cell are reported once each
    assert roots_in([30001 * 30002, -10 * (30001 + 30002), 100], 0, 10 ** 4) == [
        (3000, 3001), (3000, 3001)]


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 5), st.integers(1, 3)),
                min_size=1, max_size=5),
       st.integers(-2 ** 80, 2 ** 80).filter(bool), st.integers(-12, 0), st.integers(1, 12))
def test_roots_in_reports_each_planted_root_once(factors, lead, lo, hi):
    # planted roots n / d with multiplicity m, some of them integers
    mult: dict[Fraction, int] = {}
    for n, d, m in factors:
        mult[Fraction(n, d)] = mult.get(Fraction(n, d), 0) + m
    p = [lead]
    for r, m in mult.items():
        for _ in range(m):  # times (den * v - num)
            p = [a * r.denominator - b * r.numerator
                 for a, b in zip([0] + p, p + [0])]
    inside = [r for r in mult if lo <= r <= hi]
    want = sorted((r.numerator, r.numerator) if r.denominator == 1
                  else (math.floor(r), math.floor(r) + 1) for r in inside)
    assert roots_in(p, lo, hi) == want
    for r in inside:
        cell = math.floor(r)
        alone = sum(cell <= s <= cell + 1 for s in mult) == 1
        if r.denominator > 1 and alone and mult[r] % 2:
            assert _eval(p, cell) * _eval(p, cell + 1) < 0


def _times(a, b):
    """The product of two integer polynomials, trailing zeros stripped."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


_int_polys = st.lists(st.integers(-50, 50), max_size=5)


@settings(max_examples=60, deadline=None, database=None)
@given(_int_polys, _int_polys, _int_polys.filter(lambda p: p and p[-1]))
def test_gcd_is_divisible_by_a_common_factor(a, b, c):
    assume(any(a) or any(b))
    g = _gcd(_times(a, c), _times(b, c))
    assert g and not _prem(g, c)


def _eval(p, x):
    return sum(c * x ** k for k, c in enumerate(p))


def test_arithmetic_identities():
    rng = rng_for(303)
    for _ in range(50):
        p = Polynomial([float(c) for c in rng.uniform(-1, 1, 4)])
        q = Polynomial([float(c) for c in rng.uniform(-1, 1, 3)])
        x = float(rng.uniform(-2, 2))
        assert (p + q)(x) == pytest.approx(p(x) + q(x), abs=1e-12)
        assert (p * q)(x) == pytest.approx(p(x) * q(x), rel=1e-9, abs=1e-12)
        assert p.scale(3.0)(x) == pytest.approx(3.0 * p(x), rel=1e-12, abs=1e-14)


def test_add_zero_and_scale_zero():
    p = Polynomial([1.0, 2.0])
    z = Polynomial([])
    assert (p + z).coeffs == p.coeffs
    assert p.scale(0.0).is_zero
    assert (p * z).is_zero


def test_compose_affine_pointwise():
    rng = rng_for(404)
    for _ in range(100):
        p = Polynomial([float(c) for c in rng.uniform(-1, 1, int(rng.integers(1, 6)))])
        s = float(rng.uniform(-2, 2)) or 1.0
        t = float(rng.uniform(-1, 1))
        x = float(rng.uniform(-1, 1))
        assert p.compose_affine(s, t)(x) == pytest.approx(p(s * x + t), abs=1e-12, rel=1e-12)


def test_compose_affine_identity():
    p = Polynomial([2.0, 0.0, 1.0])
    assert p.compose_affine(1.0, 0.0).coeffs == pytest.approx(p.coeffs)


def test_reparametrize_interval_change():
    pp = PiecewisePolynomial([2.0, 3.0, 4.0],
                             [Polynomial([0.0, 1.0]), Polynomial([-3.0, 2.5, -0.25])])
    out = reparametrize(pp, 2.0, 2.0)  # u -> pp(2u + 2) on [0, 1]
    assert out.breakpoints == pytest.approx([0.0, 0.5, 1.0])
    for u in (0.0, 0.2, 0.5, 0.77, 1.0):
        assert out.eval(u) == pytest.approx(pp.eval(2.0 * u + 2.0), abs=1e-12)


def test_reparametrize_reflection():
    pp = PiecewisePolynomial([0.0, 0.4, 1.0],
                             [Polynomial([0.0, 1.0]), Polynomial([0.4])])
    out = reparametrize(pp, -1.0, 1.0)
    for u in (0.0, 0.3, 0.6, 1.0):
        assert out.eval(u) == pytest.approx(pp.eval(1.0 - u), abs=1e-12)
    with pytest.raises(DomainError, match="nonzero"):
        reparametrize(pp, 0.0, 1.0)


def test_reparametrize_drops_pieces_rounded_to_zero_width():
    # 1 - 0.01 and 1 - 0.010000000000000002 round to the same double
    pp = PiecewisePolynomial([0.0, 0.01, 0.010000000000000002, 1.0],
                             [Polynomial([0.0, 1.0]), Polynomial([0.01]),
                              Polynomial([0.0, 1.0])])
    out = reparametrize(pp, -1.0, 1.0)
    assert out.breakpoints == (0.0, 0.99, 1.0)
    for u in (0.0, 0.5, 0.99, 1.0):
        assert out.eval(u) == pytest.approx(pp.eval(1.0 - u), abs=1e-15)


def test_reparametrize_keeps_continuity_without_recheck():
    # continuous to rounding, but the reflected coefficients miss each other
    # at 0.78 by more than 1e-12 relative to the values; relative to the
    # terms summed there, the miss is rounding
    pp = PiecewisePolynomial(
        [0.0, 0.22, 1.0],
        [Polynomial([4.0, -15.0, -16.0, 20.0, 7.0, 6.0, 5.0]),
         Polynomial([601.9490598512639, -3776.0, 3753.0, 4070.0, 1058.0, 2027.0, 3739.0])])
    out = reparametrize(pp, -1.0, 1.0)
    assert out.breakpoints == (0.0, 0.78, 1.0)
    left, right = out.pieces
    assert abs(left(0.78) - right(0.78)) > 1e-12 * (1.0 + abs(left(0.78)) + abs(right(0.78)))
    PolyTarget(pp)
    PolyTarget(out)
