import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluland.errors import AccuracyError, DomainError
from reluland.polyalg import Polynomial
from reluland.quadrature import (MAX_LIVE_PANELS, _split_points,
                                 adaptive_gauss_kronrod, adaptive_simpson,
                                 adaptive_simpson_vec)


def test_backends_agree_on_smooth_integrand():
    f = lambda x: math.exp(-x) * math.sin(5.0 * x)
    exact = (5.0 - math.exp(-2.0) * (math.sin(10.0) * -1.0 + 5.0 * math.cos(10.0))) / 26.0
    # exact antiderivative of e^-x sin 5x: -e^-x (sin5x + 5 cos5x)/26
    anti = lambda x: -math.exp(-x) * (math.sin(5 * x) + 5 * math.cos(5 * x)) / 26.0
    exact = anti(2.0) - anti(0.0)
    gk = adaptive_gauss_kronrod(f, 0.0, 2.0, 1e-13)
    si = adaptive_simpson(f, 0.0, 2.0, 1e-13)
    assert gk == pytest.approx(exact, abs=1e-12)
    assert si == pytest.approx(exact, abs=1e-12)


def test_kinked_integrand_with_breakpoint_hint():
    f = lambda x: abs(x - 1.0 / 3.0)
    exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
    for backend in (adaptive_gauss_kronrod, adaptive_simpson):
        val = backend(f, 0.0, 1.0, 1e-13, breakpoints=(1.0 / 3.0,))
        assert val == pytest.approx(exact, abs=1e-12)


def test_empty_interval():
    assert adaptive_gauss_kronrod(math.sin, 1.0, 1.0, 1e-12) == 0.0
    assert adaptive_simpson(math.sin, 1.0, 1.0, 1e-12) == 0.0


def test_accuracy_error_carries_estimate():
    spiky = lambda x: math.sqrt(abs(x - 1.0 / 3.0))
    with pytest.raises(AccuracyError) as err:
        adaptive_gauss_kronrod(spiky, 0.0, 1.0, 1e-16, max_panels=24)
    assert math.isfinite(err.value.estimate)
    assert err.value.error > 0.0
    with pytest.raises(AccuracyError) as err:
        adaptive_simpson(spiky, 0.0, 1.0, 1e-16, max_depth=3)
    assert math.isfinite(err.value.estimate)


def test_vector_simpson_matches_scalar():
    f = lambda xs: np.stack((xs * xs, np.sin(xs)), axis=1)
    out = adaptive_simpson_vec(f, 0.0, 1.0, 2, 1e-12)
    assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-11)
    assert out[1] == pytest.approx(1.0 - math.cos(1.0), abs=1e-11)


def test_simpson_depth_zero_returns_converged_level():
    # Simpson is exact on x**2, so the first level has converged
    sq = lambda x: x * x
    assert adaptive_simpson(sq, 0.0, 1.0, 1e-3, max_depth=0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    vec = adaptive_simpson_vec(lambda xs: (xs * xs)[:, None], 0.0, 1.0, 1, 1e-3, max_depth=0)
    assert vec[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    spiky = lambda x: math.sqrt(abs(x - 1.0 / 3.0))
    with pytest.raises(AccuracyError) as err:
        adaptive_simpson(spiky, 0.0, 1.0, 1e-6, max_depth=0)
    assert math.isfinite(err.value.estimate)
    assert err.value.error > 0.0


def recursive_simpson_vec(f, a, b, dim, tol, breakpoints=None, max_depth=55):
    """The former depth-first vector Simpson engine, one scalar point per
    call of f, kept as the reference for the level-synchronous one."""

    def simp(lo, flo, hi, fhi, fm):
        h = (hi - lo) / 6.0
        return [h * (flo[i] + 4.0 * fm[i] + fhi[i]) for i in range(dim)]

    def rec(lo, flo, hi, fhi, m, fm, whole, tol_, depth):
        lm = 0.5 * (lo + m)
        rm = 0.5 * (m + hi)
        flm = f(lm)
        frm = f(rm)
        left = simp(lo, flo, m, fm, flm)
        right = simp(m, fm, hi, fhi, frm)
        delta = [left[i] + right[i] - whole[i] for i in range(dim)]
        err = max(abs(d) for d in delta)
        if err <= 15.0 * tol_ or depth <= 0:
            if depth <= 0 and err > 15.0 * tol_:
                raise AccuracyError("vector Simpson depth exhausted",
                                    estimate=None, error=err / 15.0)
            return [left[i] + right[i] + delta[i] / 15.0 for i in range(dim)]
        lpart = rec(lo, flo, m, fm, lm, flm, left, tol_ / 2.0, depth - 1)
        rpart = rec(m, fm, hi, fhi, rm, frm, right, tol_ / 2.0, depth - 1)
        return [lpart[i] + rpart[i] for i in range(dim)]

    pts = _split_points(a, b, breakpoints)
    n = len(pts) - 1
    total = [0.0] * dim
    for lo, hi in zip(pts, pts[1:]):
        flo, fhi = f(lo), f(hi)
        m = 0.5 * (lo + hi)
        fm = f(m)
        whole = simp(lo, flo, hi, fhi, fm)
        part = rec(lo, flo, hi, fhi, m, fm, whole, tol / n, max_depth)
        total = [total[i] + part[i] for i in range(dim)]
    return total


_coef = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def kinked_polynomials(draw):
    """Components p(x) * max(x - c, 0) + q(x): made of +, * and max, so a
    float and a float64 array give the same bits."""
    dim = draw(st.integers(1, 3))
    comps = []
    for _ in range(dim):
        p = Polynomial(draw(st.lists(_coef, min_size=1, max_size=4)))
        q = Polynomial(draw(st.lists(_coef, min_size=1, max_size=6)))
        comps.append((p, draw(st.floats(-0.2, 1.2)), q))
    return comps


@settings(max_examples=60, deadline=None)
@given(comps=kinked_polynomials(),
       tol=st.sampled_from((1e-4, 1e-8, 1e-12)),
       max_depth=st.integers(0, 24),
       breaks=st.lists(st.floats(-0.5, 1.5), max_size=3))
def test_level_engine_matches_recursive_engine(comps, tol, max_depth, breaks):
    seen_ref, seen = set(), set()

    def f_scalar(x):
        seen_ref.add(x)
        return [p(x) * max(x - c, 0.0) + q(x) for p, c, q in comps]

    def f_array(xs):
        seen.update(xs.tolist())
        return np.stack([p(xs) * np.maximum(xs - c, 0.0) + q(xs) for p, c, q in comps],
                        axis=1)

    dim = len(comps)
    try:
        ref = recursive_simpson_vec(f_scalar, 0.0, 1.0, dim, tol, breaks, max_depth)
    except AccuracyError:
        with pytest.raises(AccuracyError):
            adaptive_simpson_vec(f_array, 0.0, 1.0, dim, tol, breaks, max_depth)
        return
    out = adaptive_simpson_vec(f_array, 0.0, 1.0, dim, tol, breaks, max_depth)
    assert seen == seen_ref
    for got, want in zip(out, ref):
        assert abs(got - want) <= 1e-15 * (1.0 + abs(want))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-3])
def test_vector_simpson_rejects_bad_tol(tol):
    calls = []
    with pytest.raises(ValueError):
        adaptive_simpson_vec(lambda xs: calls.append(xs) or xs[:, None], 0.0, 1.0, 1, tol)
    assert calls == []


def test_vector_simpson_rejects_non_finite_values():
    with pytest.raises(DomainError, match="x=0.5"):
        adaptive_simpson_vec(lambda xs: np.where(xs == 0.5, math.nan, xs)[:, None],
                             0.0, 1.0, 1, 1e-6)
    # a NaN in a later component once passed the builtin max as converged
    with pytest.raises(DomainError, match="x=0.5"):
        adaptive_simpson_vec(
            lambda xs: np.stack((xs, np.where(xs == 0.5, math.nan, xs)), axis=1),
            0.0, 1.0, 2, 1e-6)
    with pytest.raises(DomainError, match="x=0.25"):
        adaptive_simpson_vec(lambda xs: np.where(xs == 0.25, math.inf, xs)[:, None],
                             0.0, 1.0, 1, 1e-12)


def test_vector_simpson_bounds_live_panels():
    # no panel of sin(50 x) meets tol = 1e-300, so every level doubles
    sizes = []

    def f(xs):
        sizes.append(len(xs))
        return np.sin(50.0 * xs)[:, None]

    with pytest.raises(AccuracyError, match="panels") as err:
        adaptive_simpson_vec(f, 0.0, 1.0, 1, 1e-300)
    assert max(sizes) <= 2 * MAX_LIVE_PANELS  # two new points per panel
    assert len(sizes) <= 20
    assert err.value.estimate[0] == pytest.approx((1.0 - math.cos(50.0)) / 50.0, abs=1e-9)


def test_vector_simpson_accuracy_error_estimates_whole_integral():
    spiky = lambda xs: np.sqrt(np.abs(xs - 1.0 / 3.0))[:, None]
    exact = (2.0 / 3.0) * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    with pytest.raises(AccuracyError) as err:
        adaptive_simpson_vec(spiky, 0.0, 1.0, 1, 1e-16, max_depth=3)
    assert err.value.estimate[0] == pytest.approx(exact, abs=1e-3)
    assert err.value.error > 0.0
