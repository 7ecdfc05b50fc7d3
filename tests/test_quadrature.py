import math

import pytest

from reluland.errors import AccuracyError
from reluland.quadrature import (adaptive_gauss_kronrod, adaptive_simpson,
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
    f = lambda x: [x * x, math.sin(x)]
    out = adaptive_simpson_vec(f, 0.0, 1.0, 2, 1e-12)
    assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-11)
    assert out[1] == pytest.approx(1.0 - math.cos(1.0), abs=1e-11)


def test_simpson_depth_zero_returns_converged_level():
    # Simpson is exact on x**2, so the first level has converged
    sq = lambda x: x * x
    assert adaptive_simpson(sq, 0.0, 1.0, 1e-3, max_depth=0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    vec = adaptive_simpson_vec(lambda x: [x * x], 0.0, 1.0, 1, 1e-3, max_depth=0)
    assert vec[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    spiky = lambda x: math.sqrt(abs(x - 1.0 / 3.0))
    with pytest.raises(AccuracyError) as err:
        adaptive_simpson(spiky, 0.0, 1.0, 1e-6, max_depth=0)
    assert math.isfinite(err.value.estimate)
    assert err.value.error > 0.0
