"""The reference module against closed forms."""

import math

import numpy as np
import pytest

import reference as R

XSQ = {"kind": "piecewise_poly", "breakpoints": [0.0, 1.0], "pieces": [[0.0, 0.0, 1.0]]}


def shifted_square(a, b):
    """((x - a) / (b - a))**2 on [a, b] as an ascending-coefficient spec."""
    w = b - a
    return {"kind": "piecewise_poly", "breakpoints": [a, b],
            "pieces": [[a * a / (w * w), -2.0 * a / (w * w), 1.0 / (w * w)]]}


def test_xsq_constant_and_affine_entries():
    ft = R.RefTarget.from_spec(XSQ)
    assert R.mean(ft) == pytest.approx(1.0 / 3.0, abs=1e-15)
    slope, y_a = R.lsq_line(ft)
    assert slope == pytest.approx(1.0, abs=1e-14)
    assert y_a == pytest.approx(-1.0 / 6.0, abs=1e-14)


def test_xsq_catalog_kink_is_critical():
    ft = R.RefTarget.from_spec(XSQ)
    theta = R.kink_theta(1.0 / 3.0, 1.0 / 27.0, 4.0 / 3.0, "kink_increasing", 0.0, 1.0)
    assert theta == pytest.approx([1.0, -1.0 / 3.0, 4.0 / 3.0, 1.0 / 27.0])
    assert np.max(np.abs(R.gradient(theta, 1, ft))) < 1e-14
    # moving the kink breaks criticality
    moved = R.kink_theta(0.34, 1.0 / 27.0, 4.0 / 3.0, "kink_increasing", 0.0, 1.0)
    assert np.max(np.abs(R.gradient(moved, 1, ft))) > 1e-4


def test_kink_maps_to_general_domain_and_reflection():
    a, b = -0.3, 1.1
    ft = R.RefTarget.from_spec(shifted_square(a, b))
    theta = R.kink_theta(1.0 / 3.0, 1.0 / 27.0, 4.0 / 3.0, "kink_increasing", a, b)
    assert np.max(np.abs(R.gradient(theta, 1, ft))) < 1e-13
    # (1 - x)**2 is x**2 reflected: kink at 2/3, flat to the right
    refl = R.RefTarget.from_spec({"kind": "piecewise_poly", "breakpoints": [0.0, 1.0],
                                  "pieces": [[1.0, -2.0, 1.0]]})
    theta = R.kink_theta(2.0 / 3.0, 1.0 / 27.0, -4.0 / 3.0, "kink_decreasing", 0.0, 1.0)
    assert np.max(np.abs(R.gradient(theta, 1, refl))) < 1e-14


def test_risk_of_constant_fit_to_xsq():
    ft = R.RefTarget.from_spec(XSQ)
    # int_0^1 (x^2 - 1/3)^2 = 1/5 - 2/9 + 1/9 = 4/45
    assert R.risk([1.0, -2.0, 1.0, 1.0 / 3.0], 1, ft) == pytest.approx(4.0 / 45.0, rel=1e-14)


def test_benchmark_family_point_is_critical():
    """The single-kink family in closed form: kink x, scale y on [0, 1]."""
    from reluland import BenchmarkTarget

    ft = R.RefTarget.from_pointwise(BenchmarkTarget(1.0 / 3.0, 2.0 / 3.0))
    x, y = 0.5, 1.0
    v = 1.0 / (2.0 * y * (1.0 - x) ** 1.5 * math.sqrt(1.0 + 3.0 * x))
    c = -math.sqrt(1.0 - x) / (4.0 * math.sqrt(1.0 + 3.0 * x))
    theta = [y, -y * x, v, c]
    assert np.max(np.abs(R.gradient(theta, 1, ft))) < 1e-13
    # its risk is int_0^1 f^2 - 1/48
    assert R.risk(theta, 1, ft) == pytest.approx(R.sq_integral(ft) - 1.0 / 48.0, rel=1e-12)


def test_l2_distance_and_moments():
    class PL:
        def __init__(self, a, b, kinks, slopes, offset):
            self.a, self.b, self.kinks, self.slopes, self.offset = a, b, kinks, slopes, offset

    assert R.l2_distance(PL(0.0, 2.0, (), (0.0,), 0.0),
                         PL(0.0, 2.0, (), (0.0,), 1.0)) == pytest.approx(math.sqrt(2.0))
    assert R.l2_distance(PL(0.0, 1.0, (), (1.0,), 0.0),
                         PL(0.0, 1.0, (0.5,), (0.0, 0.0), 0.0)) == pytest.approx(1 / math.sqrt(3))
    spec = {"kind": "piecewise_poly", "breakpoints": [-1.0, 0.2, 2.0],
            "pieces": [[1.0, 2.0, -1.0, 0.5], [0.0, 0.0, 0.0, 0.0]]}
    spec["pieces"][1][0] = float(np.polynomial.polynomial.polyval(0.2, spec["pieces"][0]))
    ft = R.RefTarget.from_spec(spec)
    for k in range(3):
        exact = 0.0
        for (lo, hi), cs in zip(((-1.0, 0.2), (0.2, 2.0)), spec["pieces"]):
            anti = np.polynomial.polynomial.polyint(np.concatenate([[0.0] * k, cs]))
            exact += (np.polynomial.polynomial.polyval(hi, anti)
                      - np.polynomial.polynomial.polyval(lo, anti))
        assert R.moment(ft, k) == pytest.approx(exact, rel=1e-14)
