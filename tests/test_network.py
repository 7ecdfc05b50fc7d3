import math

import pytest

from reluland import (Params, SmoothActivation, canonical, l2_distance,
                      params_from_json, params_to_json, realize, realize_smooth,
                      sample_M, write_realization_csv)
from reluland.errors import DomainError
from reluland.network import Realization

from conftest import rng_for


def random_params(rng, H, span=2.0):
    w = [float(x) for x in rng.uniform(-span, span, H)]
    b = [float(x) for x in rng.uniform(-span, span, H)]
    v = [float(x) for x in rng.uniform(-span, span, H)]
    return Params.from_parts(w, b, v, float(rng.uniform(-1, 1)))


def test_realize_identity_ramp():
    p = Params.from_parts([1.0], [0.0], [1.0], 0.0)
    assert realize(p, 0.7) == pytest.approx(0.7)


def test_realize_on_family_kink_value(bench):
    s = sample_M(bench, 1, 0.5, 1.0, seed=0)
    assert realize(s.theta, 0.5) == pytest.approx(-1.0 / (4.0 * math.sqrt(5.0)),
                                                  rel=1e-14)


def test_realize_all_outer_zero():
    p = Params.from_parts([1.0, -1.0], [0.3, 0.4], [0.0, 0.0], 2.5)
    for x in (0.0, 0.5, 1.0):
        assert realize(p, x) == 2.5


def test_params_validation():
    with pytest.raises(ValueError):
        Params(2, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        Params(0, (1.0,))


def test_smooth_activation_values():
    a6 = SmoothActivation(10 ** 6)
    assert a6(0.0) == pytest.approx(math.log1p(math.exp(-1000.0)) / 1e6, abs=1e-18)
    assert a6(0.0) < 1e-6
    a4 = SmoothActivation(10 ** 4)
    assert abs(a4(1.0) - 1.0) < 0.011
    a2 = SmoothActivation(100)
    assert a2.deriv(-0.5) < 1e-20


def test_smooth_activation_overflow_guard():
    act = SmoothActivation(10 ** 6)
    assert math.isfinite(act(100.0))
    assert act(100.0) == pytest.approx(100.0 - 1e-3, rel=1e-10)
    assert act(-100.0) == 0.0


def test_realize_smooth_converges_and_monotone():
    rng = rng_for(21)
    xs = [k / 999 for k in range(1000)]
    for _ in range(5):
        p = random_params(rng, 3)
        sup_v = sum(abs(p.v(j)) for j in range(3))
        gaps = []
        for r in (10 ** 2, 10 ** 4, 10 ** 6):
            gaps.append(max(abs(realize_smooth(p, x, r) - realize(p, x)) for x in xs))
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < 1e-3 * (1.0 + sup_v)


def test_canonical_single_neuron():
    p = Params.from_parts([1.0], [-0.5], [2.0], 1.0)
    r = canonical(p, 0.0, 1.0)
    assert r.kinks == (0.5,)
    assert r.slopes == (0.0, 2.0)
    assert r.offset == 1.0


def test_canonical_split_outer_weight():
    one = Params.from_parts([1.0], [-0.25], [2.0], 0.5)
    split = Params.from_parts([1.0, 1.0], [-0.25, -0.25], [1.0, 1.0], 0.5)
    assert canonical(one, 0.0, 1.0) == canonical(split, 0.0, 1.0)


def test_canonical_family_sample_single_kink(bench):
    s = sample_M(bench, 4, 0.43, 1.7, seed=5)
    r = canonical(s.theta, 0.0, 1.0)
    assert len(r.kinks) == 1
    assert r.kinks[0] == pytest.approx(0.43, abs=1e-12)


def test_canonical_matches_realize():
    rng = rng_for(22)
    for _ in range(100):
        H = int(rng.integers(1, 5))
        p = random_params(rng, H)
        r = canonical(p, 0.0, 1.0)
        for _ in range(10):
            x = float(rng.uniform(0.0, 1.0))
            assert r.eval(x) == pytest.approx(realize(p, x), abs=1e-10, rel=1e-10)


def test_canonical_invariance_permutation_and_scaling():
    rng = rng_for(23)
    for _ in range(20):
        p = random_params(rng, 3)
        perm = [2, 0, 1]
        q = Params.from_parts([p.w(j) for j in perm], [p.b(j) for j in perm],
                              [p.v(j) for j in perm], p.c)
        ra = canonical(p, 0.0, 1.0)
        rb = canonical(q, 0.0, 1.0)
        assert l2_distance(ra, rb) < 1e-12
        lam = float(rng.uniform(0.5, 2.0))
        scaled = Params.from_parts([lam * p.w(j) for j in range(3)],
                                   [lam * p.b(j) for j in range(3)],
                                   [p.v(j) / lam for j in range(3)], p.c)
        assert l2_distance(ra, canonical(scaled, 0.0, 1.0)) < 1e-10


def test_realization_invariants():
    with pytest.raises(ValueError):
        Realization(0.0, 1.0, (0.5, 0.4), (0.0, 1.0, 2.0), 0.0)
    with pytest.raises(ValueError):
        Realization(0.0, 1.0, (1.5,), (0.0, 1.0), 0.0)


def test_realization_sample_needs_two_points():
    r = Realization(0.0, 1.0, (), (1.0,), 0.0)
    assert r.sample(2) == [(0.0, 0.0), (1.0, 1.0)]
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            r.sample(n)


def test_l2_distance_examples():
    zero = Realization(0.0, 1.0, (), (0.0,), 0.0)
    one = Realization(0.0, 1.0, (), (0.0,), 1.0)
    ramp = Realization(0.0, 1.0, (), (1.0,), 0.0)
    assert l2_distance(zero, zero) == 0.0
    assert l2_distance(zero, one) == pytest.approx(1.0)
    assert l2_distance(zero, ramp) == pytest.approx(1.0 / math.sqrt(3.0))


def test_l2_distance_domain_mismatch():
    u = Realization(0.0, 1.0, (), (0.0,), 0.0)
    v = Realization(0.0, 2.0, (), (0.0,), 0.0)
    with pytest.raises(DomainError):
        l2_distance(u, v)


def test_params_json_roundtrip():
    p = Params.from_parts([1.0, -0.5], [0.1, 0.2], [2.0, 3.0], -1.0)
    assert params_from_json(params_to_json(p)) == p


def test_realization_csv(tmp_path):
    r = Realization(0.0, 1.0, (0.5,), (0.0, 2.0), 1.0)
    path = tmp_path / "real.csv"
    write_realization_csv(r, path, grid=11)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 12
    x, y = (float(s) for s in lines[-1].split(","))
    assert (x, y) == (1.0, 2.0)
