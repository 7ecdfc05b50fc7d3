"""The exact-gradient path against frozen values: literal ``float.hex``
strings of the running integrals, gradients, risks and one short gradient
descent run, computed before the path was rewritten to run the same float
operations with fewer interpreter steps.  Unlike a test-local copy of the
former code, they outlive later rewrites; the property tests that compare
the path with reference formulas live in test_landscape.py and
test_target.py.
"""

import pytest

from reluland import BenchmarkTarget, TrainConfig, gd_run, xavier_init
from reluland.landscape import grad_theta, risk_theta

from conftest import poly_target

POLY = poly_target([-1.0, -0.25, 0.5, 1.0],
                   [[0.5, 1.0, -2.0], [0.140625, 0.0, 0.0, 1.0], [0.203125, 0.0, 0.0, 0.0, 1.0]])
# at a negative scale a benchmark target's running integrals at a are -0.0
BENCH_MOVED = BenchmarkTarget(0.25, 0.6, -2.0, 5.0, scale=-3.0)
PIN_TARGETS = {"benchmark": BENCH_MOVED, "poly": POLY}

READ_PINS = {
    # u = 0, alpha (x = -0.25), beta and 1 are pinned with points inside
    # each of the three pieces
    "benchmark": {
        -2.0: ("-0x0.0p+0", "-0x0.0p+0"),
        -0.25: ("0x1.b7ed6159fadc7p-1", "-0x1.0fe6450eb944cp+0"),
        0.2: ("0x1.f5e2d0044b0c0p-1", "-0x1.10f8569ee75a8p+0"),
        1.5: ("0x1.2c870c9c5f417p+0", "-0x1.d9b636a8caeb9p-1"),
        3.75: ("0x1.0b5eb30a2a306p+0", "-0x1.6656c416c8cf0p+0"),
        5.0: ("0x1.5000000000000p-48", "-0x1.870be4c1c28aap+2"),
    },
    # the ends, both breakpoints and a point inside the first two pieces
    "poly": {
        -1.0: ("0x0.0p+0", "0x0.0p+0"),
        -0.6: ("-0x1.490b9af72015dp-1", "0x1.12b47f3fc2d54p-1"),
        -0.25: ("-0x1.7ffffffffffffp-1", "0x1.2efffffffffffp-1"),
        0.1: ("-0x1.674985f06f693p-1", "0x1.2d3605ab3aabcp-1"),
        0.5: ("-0x1.427ffffffffffp-1", "0x1.390ccccccccccp-1"),
        1.0: ("-0x1.5699999999998p-2", "0x1.b40ccccccccccp-1"),
    },
}

# (target, H, theta, gradient, risk); the benchmark thetas put kinks in
# its left and middle pieces, one exactly at u = alpha and two on one
# node, the polynomial ones on both breakpoints and between them
GRAD_PINS = [
    ("benchmark", 2, (1.0, -0.5, 0.5, 1.0, 0.75, -0.25, 0.125),
     ("0x1.fd0385f59052ep+5", "-0x1.12ee542e26fe7p+1", "0x1.2a03390bac0cdp+4",
      "-0x1.4da7ce2f0a93cp-2", "0x1.8502e2d052396p+6", "-0x1.7f08c144c8b30p+1",
      "0x1.66ffffffffffdp+4"), "0x1.62543c01e1f8ap+5"),
    ("benchmark", 3, (0.5, -2.0, 1.0, -0.375, 1.5, 0.25, -0.5, 0.25, 1.0, 0.0625),
     ("-0x1.52c77e48e1790p+5", "-0x1.dc806c2a49ec0p-2", "0x1.545f9fc517dc8p+6",
      "-0x1.8c178f6d5f28fp+3", "0x1.7943849506b72p-1", "0x1.9ebed6159fadap+4",
      "0x1.088313645fa15p+5", "0x1.04996cc274ffbp+3", "0x1.6e4b8d2671d76p+6",
      "0x1.bb3fffffffffdp+4"), "0x1.61ba418084032p+5"),
    ("poly", 2, (2.0, -1.0, 0.5, 0.1, 0.75, -0.5, 0.1),
     ("0x1.6c8f9db22d0e4p-1", "0x1.ca7f28b140c6cp-2", "0x1.46b70a3d70a40p+0",
      "-0x1.33c467381d7dap-1", "0x1.5ff21735ee402p+1", "0x1.04066b77d6899p+0",
      "0x1.6768f5c28f5c3p+1"), "0x1.7e10a01215725p+0"),
    ("poly", 3, (1.0, 1.0, -4.0, 0.25, -0.5, -1.0, 0.3, -0.7, 0.2, -0.05),
     ("-0x1.0db851eb851ecp-3", "0x1.360da740da741p-2", "-0x1.2deb851eb851fp-2",
      "-0x1.96ccccccccccdp-3", "0x1.7199999999999p-2", "0x1.8000000000000p-2",
      "-0x1.3584444444444p-1", "-0x1.65ddddddddddep-3", "0x1.0166666666666p+2",
      "0x1.367ffffffffffp+0"), "0x1.02afd9272c0c5p+1"),
]

# 200 GD iterations from xavier_init(2, seed=3) on the [0, 1] benchmark target
GD_PIN = ("0x1.ec46d1e990a0dp-1", "0x1.98f7a187d898cp-2", "-0x1.93dd4d81e80b7p-5",
          "-0x1.7a371b111b861p-5", "0x1.fd1e417a9395ep-2", "-0x1.29ab02ef2c26ep-2",
          "-0x1.50ca89fda53a9p-3")


def _hex(xs):
    return [x.hex() for x in xs]


@pytest.mark.parametrize("kind", sorted(READ_PINS))
def test_running_integrals_match_frozen_bits(kind):
    t = PIN_TARGETS[kind]
    for x, want in READ_PINS[kind].items():
        assert tuple(_hex(t.cum_int_xint(x))) == want, x


@pytest.mark.parametrize("kind, H, theta, grad, risk", GRAD_PINS,
                         ids=[f"{k}-H{H}" for k, H, *_ in GRAD_PINS])
def test_gradient_and_risk_match_frozen_bits(kind, H, theta, grad, risk):
    t = PIN_TARGETS[kind]
    assert tuple(_hex(grad_theta(theta, H, t))) == grad
    assert risk_theta(theta, H, t).hex() == risk


def test_short_gd_run_matches_frozen_bits():
    run = gd_run(xavier_init(2, seed=3), BenchmarkTarget(1 / 3, 2 / 3),
                 TrainConfig(H=2, max_iters=200))
    assert run.iterations == 200
    assert tuple(_hex(run.theta.theta)) == GD_PIN
