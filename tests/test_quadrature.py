import math
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluland import quadrature
from reluland.errors import DomainError
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
    calls = []
    assert adaptive_simpson_vec(lambda xs: calls.append(xs) or np.ones((len(xs), 3)),
                                1.0, 1.0, 3, 1e-12) == [0.0, 0.0, 0.0]
    assert calls == []


def estimate_and_error(err: pytest.ExceptionInfo) -> tuple[float, float]:
    """The whole-integral estimate and the error that end the message of an
    accuracy error (a tol not reached); a vector engine's estimate is its
    first component."""
    m = re.search(r"\(estimate \[?([^,\]]+)[^(]*, error ([^)]+)\)$", str(err.value))
    assert m, str(err.value)
    return float(m.group(1)), float(m.group(2))


def test_accuracy_error_carries_estimate(monkeypatch):
    spiky = lambda x: math.sqrt(abs(x - 1.0 / 3.0))
    monkeypatch.setattr(quadrature, "MAX_PANELS", 24)
    with pytest.raises(DomainError, match="Gauss-Kronrod did not reach") as err:
        adaptive_gauss_kronrod(spiky, 0.0, 1.0, 1e-16)
    estimate, error = estimate_and_error(err)
    assert math.isfinite(estimate)
    assert error > 0.0
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
    with pytest.raises(DomainError, match="depth exhausted") as err:
        adaptive_simpson(spiky, 0.0, 1.0, 1e-16)
    assert math.isfinite(estimate_and_error(err)[0])


def scalar_simpson_vec(f, a, b):
    """adaptive_simpson_vec on the scalar integrand f, at the default tol."""
    return adaptive_simpson_vec(lambda xs: f(xs)[:, None], a, b, 1, quadrature.DEFAULT_TOL)[0]


@pytest.mark.parametrize("engine", [adaptive_gauss_kronrod, adaptive_simpson,
                                    scalar_simpson_vec])
@pytest.mark.parametrize("a, b", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.nan),
                                  (-math.inf, 0.0), (0.0, math.inf)])
def test_engines_reject_bad_limits(engine, a, b):
    # reversed limits once returned +0.5 for the integral of x from 1 to 0
    calls = []
    with pytest.raises(DomainError, match="limits"):
        engine(lambda x: calls.append(x) or x, a, b)
    assert calls == []


def test_gauss_kronrod_retires_unsplittable_panel():
    # the panel [1, nextafter(1)] cannot be bisected and never meets tol: it
    # was queued again forever, so run it in a child with a timeout
    code = ("import math\n"
            "from reluland.errors import DomainError\n"
            "from reluland.quadrature import adaptive_gauss_kronrod\n"
            "try:\n"
            "    adaptive_gauss_kronrod(lambda x: math.sin(1e300 * x), 1.0,\n"
            "                           math.nextafter(1.0, 2.0), 1e-300)\n"
            "except DomainError as e:\n"
            "    print(e)\n")
    src = os.path.dirname(os.path.dirname(quadrature.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, env=env).stdout
    assert out.startswith("Gauss-Kronrod did not reach tol=1e-300"), out


def test_vector_simpson_matches_scalar():
    f = lambda xs: np.stack((xs * xs, np.sin(xs)), axis=1)
    out = adaptive_simpson_vec(f, 0.0, 1.0, 2, 1e-12)
    assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-11)
    assert out[1] == pytest.approx(1.0 - math.cos(1.0), abs=1e-11)


def test_simpson_depth_zero_returns_converged_level(monkeypatch):
    # Simpson is exact on x**2, so the first level has converged
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 0)
    sq = lambda x: x * x
    assert adaptive_simpson(sq, 0.0, 1.0, 1e-3) == pytest.approx(1.0 / 3.0, abs=1e-15)
    vec = adaptive_simpson_vec(lambda xs: (xs * xs)[:, None], 0.0, 1.0, 1, 1e-3)
    assert vec[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    spiky = lambda x: math.sqrt(abs(x - 1.0 / 3.0))
    with pytest.raises(DomainError, match="depth exhausted") as err:
        adaptive_simpson(spiky, 0.0, 1.0, 1e-6)
    estimate, error = estimate_and_error(err)
    assert math.isfinite(estimate)
    assert error > 0.0


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
                raise DomainError("vector Simpson depth exhausted")
            return [left[i] + right[i] + delta[i] / 15.0 for i in range(dim)]
        lpart = rec(lo, flo, m, fm, lm, flm, left, tol_ / 2.0, depth - 1)
        rpart = rec(m, fm, hi, fhi, rm, frm, right, tol_ / 2.0, depth - 1)
        return [lpart[i] + rpart[i] for i in range(dim)]

    pts = _split_points(a, b, breakpoints, tol)
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
    except DomainError:
        with pytest.raises(DomainError, match="depth exhausted"), \
                mock.patch.object(quadrature, "MAX_DEPTH", max_depth):
            adaptive_simpson_vec(f_array, 0.0, 1.0, dim, tol, breaks)
        return
    with mock.patch.object(quadrature, "MAX_DEPTH", max_depth):
        out = adaptive_simpson_vec(f_array, 0.0, 1.0, dim, tol, breaks)
    assert seen == seen_ref
    for got, want in zip(out, ref):
        assert abs(got - want) <= 1e-15 * (1.0 + abs(want))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-3])
def test_vector_simpson_rejects_bad_tol(tol):
    calls = []
    with pytest.raises(ValueError):
        adaptive_simpson_vec(lambda xs: calls.append(xs) or xs[:, None], 0.0, 1.0, 1, tol)
    assert calls == []


@pytest.mark.parametrize("backend", [adaptive_gauss_kronrod, adaptive_simpson])
@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-12])
def test_scalar_backends_reject_bad_tol(backend, tol):
    # with tol = nan, `total_err > tol` is false at once, so Gauss-Kronrod
    # would return its first, unconverged estimate
    calls = []
    with pytest.raises(ValueError):
        backend(lambda x: calls.append(x) or math.sqrt(abs(x - 1.0 / 3.0)), 0.0, 1.0, tol)
    assert calls == []


@pytest.mark.parametrize("shape", [lambda n: (n,), lambda n: (n, 1), lambda n: (n - 1, 2),
                                   lambda n: (2, n)])
def test_vector_simpson_rejects_wrong_shape(shape):
    with pytest.raises(DomainError, match="shape"):
        adaptive_simpson_vec(lambda xs: np.zeros(shape(len(xs))), 0.0, 1.0, 2, 1e-6)


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


@pytest.mark.parametrize("backend", [adaptive_gauss_kronrod, adaptive_simpson])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scalar_backends_reject_non_finite_values(backend, bad):
    with pytest.raises(DomainError, match="x=0.5"):
        backend(lambda x: bad if x == 0.5 else x * x, 0.0, 1.0, 1e-12)


@pytest.mark.parametrize("backend", [adaptive_gauss_kronrod, adaptive_simpson])
def test_scalar_backends_reject_overflowing_sums(backend):
    # every value is finite, but the panel sums overflow: Gauss-Kronrod once
    # returned inf, and Simpson ran out of depth on a NaN estimate
    with pytest.raises(DomainError, match="integrand overflows"):
        backend(lambda x: 1e308, 0.0, 10.0, 1e-12)


def test_vector_simpson_rejects_overflowing_sums():
    # finite values whose panel sums overflow: the engine once ran to its
    # panel limit, with numpy overflow warnings, and raised an accuracy error
    calls = []

    def f(xs):
        calls.append(len(xs))
        return np.full((len(xs), 1), 1e308)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"integrand overflows on \[0.0, 10.0\]"):
            adaptive_simpson_vec(f, 0.0, 10.0, 1, 1e-12)
    assert len(calls) == 2


def test_vector_simpson_rejects_overflowing_total():
    # every panel's estimate is finite, but their fsum once raised a bare
    # OverflowError
    f = lambda xs: np.full((len(xs), 2), 2e307)
    with pytest.raises(DomainError, match=r"integrand overflows on \[0.0, 16.0\]"):
        adaptive_simpson_vec(f, 0.0, 16.0, 2, 1e-12, breakpoints=[8.0])


@pytest.mark.parametrize("backend", [adaptive_gauss_kronrod, adaptive_simpson])
def test_scalar_backends_reject_overflowing_total(backend):
    # both panels are 1.6e308, but their sum is not finite: Gauss-Kronrod
    # once called it an unreached tol with estimate inf
    with pytest.raises(DomainError, match=r"integrand overflows on \[0.0, 16.0\]"):
        backend(lambda x: 2e307, 0.0, 16.0, breakpoints=[8.0])


def test_gauss_kronrod_huge_panel_error_is_accuracy_error():
    # the rounding error of a 1e301 panel misses tol; its error estimate
    # once raised OverflowError from (200 d) ** 1.5
    with pytest.raises(DomainError, match="Gauss-Kronrod did not reach"):
        adaptive_gauss_kronrod(lambda x: 1e300, 0.0, 10.0, 1e-12)


def test_vector_simpson_bounds_live_panels():
    # no panel of sin(50 x) meets tol = 1e-300, so every level doubles
    sizes = []

    def f(xs):
        sizes.append(len(xs))
        return np.sin(50.0 * xs)[:, None]

    with pytest.raises(DomainError, match="panels") as err:
        adaptive_simpson_vec(f, 0.0, 1.0, 1, 1e-300)
    assert max(sizes) <= 2 * MAX_LIVE_PANELS  # two new points per panel
    assert len(sizes) <= 20
    assert estimate_and_error(err)[0] == pytest.approx((1.0 - math.cos(50.0)) / 50.0, abs=1e-9)


def test_simpson_accuracy_error_estimates_whole_integral(monkeypatch):
    # the estimate once covered only the exhausted panel: 0.0607 here
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
    calls = []

    def spiky(x):
        calls.append(x)
        return math.sqrt(abs(x - 0.3))

    with pytest.raises(DomainError, match="depth exhausted") as err:
        adaptive_simpson(spiky, 0.0, 1.0)
    assert estimate_and_error(err)[0] == pytest.approx((2.0 / 3.0) * (0.3 ** 1.5 + 0.7 ** 1.5), abs=1e-2)
    # the panel's three points and two per panel visited: none for the estimate
    assert len(calls) == 3 + 2 * 4


def test_vector_simpson_accuracy_error_estimates_whole_integral(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
    spiky = lambda xs: np.sqrt(np.abs(xs - 1.0 / 3.0))[:, None]
    exact = (2.0 / 3.0) * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    with pytest.raises(DomainError, match="depth exhausted") as err:
        adaptive_simpson_vec(spiky, 0.0, 1.0, 1, 1e-16)
    estimate, error = estimate_and_error(err)
    assert estimate == pytest.approx(exact, abs=1e-3)
    assert error > 0.0
