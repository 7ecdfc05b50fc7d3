import bisect
import csv
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reluland import (Params, SmoothActivation, canonical, l2_distance,
                      params_from_json, realization_csv, sample_M)
from reluland.errors import DomainError
from reluland import network
from reluland.network import (Realization, _adds_nothing, _geometry_nodes, _greedy_groups,
                              _kink_near_endpoint, uniform_grid)

from conftest import parts, realize, realize_smooth, rng_for


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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            Params(1, (1.0, bad, 1.0, 0.0))
    with pytest.raises(DomainError):
        params_from_json('{"H": 1, "theta": [NaN, 0.0, 1.0, 0.0]}')
    with pytest.raises(DomainError, match="equal length"):
        Params.from_parts([1.0, 2.0], [0.0], [1.0, 1.0], 0.0)


@pytest.mark.parametrize("text", ['[]', '{"H": 1, "theta": 5}', '{"theta": [0, 0, 0, 0]}',
                                  '{"H": "x", "theta": [0, 0, 0, 0]}', '{"H": 1, "theta": [0,',
                                  # JSON numbers only, and an integer H
                                  '{"H": 1.9, "theta": [1, 2, 3, 4]}',
                                  '{"H": true, "theta": [1, 2, 3, 4]}',
                                  '{"H": "1", "theta": [1, 2, 3, 4]}',
                                  '{"H": 1, "theta": ["1", 2, 3, 4]}',
                                  '{"H": 1, "theta": [true, 2, 3, 4]}',
                                  pytest.param('{"H": 1, "theta": [1, 2, 3, 1' + '0' * 400 + ']}',
                                               id="huge-int-theta")])
def test_params_from_json_refuses_malformed_text(text):
    with pytest.raises(DomainError):
        params_from_json(text)


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


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.5, 0, -3])
def test_smooth_activation_rejects_bad_sharpness(r):
    with pytest.raises(ValueError):
        SmoothActivation(r)


def test_smooth_activation_on_arrays_and_infinities():
    act = SmoothActivation(10 ** 4)
    zs = [-1e300, -0.5, 0.0, 1e-2, 0.5, 1e300]
    assert act(np.array(zs)).tolist() == [act(z) for z in zs]
    assert act.deriv(np.array(zs)).tolist() == [act.deriv(z) for z in zs]
    # r z overflows to +-inf: the derivative is still exact, no NaN
    assert act.deriv(1e300) == 1.0
    assert act.deriv(-1e300) == 0.0


def test_realize_smooth_converges_and_monotone():
    rng = rng_for(21)
    xs = [k / 999 for k in range(1000)]
    for _ in range(5):
        p = random_params(rng, 3)
        sup_v = sum(map(abs, parts(p)[2]))
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
    for b in (0.0, -1.0):
        with pytest.raises(DomainError, match="need b > a"):
            canonical(p, 0.0, b)


def test_canonical_split_outer_weight():
    one = Params.from_parts([1.0], [-0.25], [2.0], 0.5)
    split = Params.from_parts([1.0, 1.0], [-0.25, -0.25], [1.0, 1.0], 0.5)
    assert canonical(one, 0.0, 1.0) == canonical(split, 0.0, 1.0)


def test_canonical_keeps_kinks_closer_than_1e12():
    # max(x - 2e-13, 0) - max(x - 5e-13, 0): a bump on a domain of width
    # 1e-12, once read as the zero function
    p = Params.from_parts([1.0, 1.0], [-2e-13, -5e-13], [1.0, -1.0], 0.0)
    r = canonical(p, 0.0, 1e-12)
    assert r.kinks == (2e-13, 5e-13)
    assert r.slopes == (0.0, 1.0, 0.0)


def test_canonical_keeps_a_small_slope_change():
    # v = 1e-13 once fell under an absolute slope floor of 1e-12
    r = canonical(Params.from_parts([1.0], [-0.5], [1e-13], 0.0), 0.0, 1.0)
    assert r.kinks == (0.5,)
    assert r.slopes == (0.0, 1e-13)


def test_canonical_merges_only_equal_kinks():
    # kinks one ulp apart stay two; a +-v split on one kink cancels exactly
    q = 0.5
    q1 = math.nextafter(q, 1.0)
    p = Params.from_parts([1.0, 1.0, 1.0], [-q, -q1, -q], [2.0, -2.0, 0.75], 0.0)
    assert canonical(p, 0.0, 1.0).kinks == (q, q1)
    split = Params.from_parts([1.0, 1.0], [-q, -q], [0.3, -0.3], 0.0)
    assert canonical(split, 0.0, 1.0) == Realization(0.0, 1.0, (), (0.0,), 0.0)


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
        w, b, v, c = parts(p)
        q = Params.from_parts([w[j] for j in perm], [b[j] for j in perm],
                              [v[j] for j in perm], c)
        ra = canonical(p, 0.0, 1.0)
        rb = canonical(q, 0.0, 1.0)
        assert l2_distance(ra, rb) < 1e-12
        lam = float(rng.uniform(0.5, 2.0))
        scaled = Params.from_parts([lam * x for x in w], [lam * x for x in b],
                                   [x / lam for x in v], c)
        assert l2_distance(ra, canonical(scaled, 0.0, 1.0)) < 1e-10


def test_geometry_spans_bound_active_sets():
    # kinks on a, on b, shared, outside [a, b], and w = 0 with b > 0 or
    # b <= 0; dyadic w and kinks keep -b/w exact
    rng = rng_for(91)
    a, b = -0.5, 1.5
    for _ in range(400):
        H = int(rng.integers(1, 6))
        w = [float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) for _ in range(H)]
        kinks = [float(rng.integers(-8, 17)) / 8.0 for _ in range(H)]
        bias = [-wj * q if wj != 0.0 else float(rng.choice([-1.0, 0.0, 1.0]))
                for wj, q in zip(w, kinks)]
        theta = w + bias + [1.0] * H + [0.0]
        nodes, _, spans = _geometry_nodes(theta, H, a, b)
        spans = {j: (lo, hi) for j, lo, hi in spans}
        for j in range(H):
            span = spans.get(j)
            active = [bias[j] + w[j] * 0.5 * (x0 + x1) > 0.0
                      for x0, x1 in zip(nodes, nodes[1:])]
            expected = [span is not None and span[0] <= i < span[1]
                        for i in range(len(active))]
            assert active == expected


def _all_neuron_kernel(theta, H, a, b):
    """The geometry kernel before it skipped neurons that add nothing: N
    summed over every neuron at every node."""
    c = theta[3 * H]
    neurons = list(zip(theta[:H], theta[H:2 * H], theta[2 * H:3 * H]))
    events = []
    active = []
    for j, (w, bj, _) in enumerate(neurons):
        if w != 0.0:
            q = -bj / w
            right = w > 0.0
            if (q < b) if right else (q > a):
                inside = a < q < b
                if inside:
                    events.append(q)
                active.append((j, q if inside else None, right))
        elif bj > 0.0:
            active.append((j, None, False))
    events.sort()
    nodes = [a]
    for q in events:
        if q > nodes[-1]:
            nodes.append(q)
    nodes.append(b)
    vals = []
    for x in nodes:
        acc = c
        for w, bj, v in neurons:
            z = bj + w * x
            if z > 0.0:
                acc += v * z
        vals.append(acc)
    last = len(nodes) - 1
    spans = []
    for j, q, right in active:
        if q is None:
            spans.append((j, 0, last))
        elif right:
            spans.append((j, bisect.bisect_left(nodes, q), last))
        else:
            spans.append((j, 0, bisect.bisect_left(nodes, q)))
    return nodes, vals, spans


class _CountingWeight(float):
    """A float w_j that counts its products w_j * x: the kernel multiplies
    once to test a neuron that may add nothing, and once per node (of which
    there are at least two) for a neuron it sums over."""

    def __mul__(self, x):
        self.products += 1
        return float(self) * x


_DOMAINS = ((0.0, 1.0), (0.1, 0.7), (-0.5, 1.5), (-3.0, -1.25), (1e3, 1e3 + 0.1),
            (-7e-6, 3e-5))
_SPECIALS = (math.nan, math.inf, -math.inf)


@st.composite
def _kernel_case(draw):
    a, b = draw(st.sampled_from(_DOMAINS))
    H = draw(st.integers(1, 6))
    w, bias = [], []
    for _ in range(H):
        mode = draw(st.sampled_from(("random", "on_end", "zero_w", "outside")))
        wj = draw(st.one_of(st.floats(0.1, 3.0), st.sampled_from((0.3, 0.7, 1.1, 2.9))))
        wj *= draw(st.sampled_from((-1.0, 1.0)))
        if mode == "on_end":
            # a weight that is not a power of two, and a bias within a few
            # ulps of -w e: the kink rounds onto e or next to it, and z at
            # e rounds to > 0, = 0 or < 0
            e = draw(st.sampled_from((a, b)))
            bj = -wj * e
            steps = draw(st.integers(-3, 3))
            for _ in range(abs(steps)):
                bj = math.nextafter(bj, math.copysign(math.inf, steps))
        elif mode == "zero_w":
            wj = draw(st.sampled_from((0.0, -0.0)))
            bj = draw(st.sampled_from((-1.0, -0.0, 0.0, 0.5)))
        elif mode == "outside":  # the kink beyond a or b, either side active
            e = draw(st.sampled_from((a - 0.3 * (b - a), b + 0.3 * (b - a))))
            bj = -wj * e
        else:
            wj = draw(st.floats(-3.0, 3.0))
            bj = draw(st.floats(-3.0, 3.0)) * (1.0 + abs(a) + abs(b))
        w.append(wj)
        bias.append(bj)
    v = [draw(st.floats(-2.0, 2.0)) for _ in range(H)]
    theta = w + bias + v + [draw(st.floats(-1.0, 1.0))]
    for _ in range(draw(st.integers(0, 2))):
        theta[draw(st.integers(0, 3 * H))] = draw(st.sampled_from(_SPECIALS))
    return theta, H, a, b


@settings(max_examples=600, deadline=None, database=None)
@given(_kernel_case())
@example(([2.0, 0.0, 1.0, 0.0], 1, 0.0, 1.0))  # kink on a, active on all of [a, b]
@example(([-0.7, 0.0, 1.0, 0.0], 1, 0.0, 1.0))  # kink on a, adds nothing
@example(([-0.0, 0.0, 1.0, 0.0], 1, 0.0, 1.0))
@example(([math.nan, -1.0, 1.0, 0.0], 1, 0.0, 1.0))
@example(([0.3, -0.20999999999999996, 2.0, 0.0], 1, 0.1, 0.7))  # kink on b, z(b) > 0
@example(([1.3, -0.91, 2.0, 0.0], 1, 0.1, 0.7))  # kink on b, z(b) < 0
@example(([-0.7, 0.20999999999999996, 2.0, 0.0], 1, 0.3, 1.0))  # kink on a, z(a) < 0
@example(([1.5, -1.0499999999999998, 2.0, 0.0], 1, 0.1, 0.7))  # kink just below b, z(b) = 0
def test_geometry_skip_bit_identical_to_all_neuron_kernel(case):
    theta, H, a, b = case
    nodes, vals, spans = _geometry_nodes(theta, H, a, b)
    ref_nodes, ref_vals, ref_spans = _all_neuron_kernel(theta, H, a, b)
    assert [x.hex() for x in nodes] == [x.hex() for x in ref_nodes]
    assert [x.hex() for x in vals] == [x.hex() for x in ref_vals]
    assert spans == ref_spans
    # the inlined skip is _adds_nothing, and a neuron it skips adds nothing
    # at any point of [a, b]
    counted = [_CountingWeight(x) for x in theta[:H]]
    for x in counted:
        x.products = 0
    counted_vals = _geometry_nodes(counted + theta[H:], H, a, b)[1]
    assert [x.hex() for x in counted_vals] == [x.hex() for x in vals]
    spanned = {j for j, _, _ in spans}
    for j in range(H):
        w, bj = theta[j], theta[H + j]
        skipped = counted[j].products < 2
        assert skipped == _adds_nothing(w, bj, a, b)
        if skipped:
            assert j not in spanned
            assert all(bj + w * x <= 0.0 for x in (a, 0.5 * (a + b), b, *nodes))


def test_adds_nothing_edges():
    # w = +-0 follows the sign of b_j; NaN w_j or b_j never adds nothing
    assert _adds_nothing(0.0, -0.0, 0.0, 1.0) and _adds_nothing(-0.0, 0.0, 0.0, 1.0)
    assert not _adds_nothing(0.0, 1e-300, 0.0, 1.0)
    assert not _adds_nothing(math.nan, -1.0, 0.0, 1.0)
    assert not _adds_nothing(-1.0, math.nan, 0.0, 1.0)
    # w = 0.3 and kinks that round onto b: none is active, and z = b_j + w b
    # rounds to < 0, = 0 and > 0; the last one adds v z at b
    for bj, b, z in ((-0.030000000000000002, 0.1, -3.469446951953614e-18),
                     (-0.03, 0.1, 0.0),
                     (-0.20999999999999996, 0.7, 2.7755575615628914e-17)):
        assert -bj / 0.3 == b and bj + 0.3 * b == z
        nodes, vals, spans = _geometry_nodes([0.3, bj, 2.0, 1.0], 1, 0.0, b)
        assert nodes == [0.0, b] and spans == []
        assert vals == [1.0, 1.0 + 2.0 * z if z > 0.0 else 1.0]
        assert _adds_nothing(0.3, bj, 0.0, b) == (z <= 0.0)
        # mirrored: w = -0.3 with the kink on a = -b
        assert _adds_nothing(-0.3, bj, -b, 0.0) == (z <= 0.0)
    # w = 1.5 and a kink that rounds just below b while z at b rounds to 0.0:
    # the neuron keeps its span (of one ulp), so it does not add nothing
    bj = -1.0499999999999998
    assert -bj / 1.5 < 0.7 and bj + 1.5 * 0.7 == 0.0
    assert _geometry_nodes([1.5, bj, 2.0, 1.0], 1, 0.1, 0.7)[2] == [(0, 1, 2)]
    assert not _adds_nothing(1.5, bj, 0.1, 0.7) and not _adds_nothing(-1.5, bj, -0.7, -0.1)


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["inside", "outside"])
@pytest.mark.parametrize("w", [2.0, -0.5])
@pytest.mark.parametrize("end", ["a", "b"])
def test_kink_near_endpoint_at_exactly_margin(end, w, side):
    # neuron 1 of 3 has |w a + b_1| or |w b + b_1| exactly margin, its kink
    # margin / |w| inside or outside [a, b]; every value is a power of two
    # or a short sum of them, so w e + b_1 is exact.  Neurons 0 and 2 have
    # their kinks at 3 and 2, far from both ends
    a, b, margin = 1.0, 5.0, 0.125
    e, inward = (a, 1.0) if end == "a" else (b, -1.0)
    q = e + side * inward * margin / abs(w)
    theta = [1.0, w, -1.0, -3.0, -w * q, 2.0, 0.5, 0.5, 0.5, 0.0]
    assert abs(w * e - w * q) == margin
    assert _kink_near_endpoint(theta, 3, a, b, margin)
    assert not _kink_near_endpoint(theta, 3, a, b, math.nextafter(margin, 0.0))


def test_realization_rejects_non_finite_fields():
    nan, inf = math.nan, math.inf
    for args in ((0.0, 1.0, (nan,), (1.0, 2.0), 0.0), (0.0, 1.0, (), (inf,), 0.0),
                 (0.0, 1.0, (), (1.0,), nan), (-inf, 1.0, (), (1.0,), 0.0),
                 (0.0, inf, (), (1.0,), 0.0), (0.0, 1.0, (0.5,), (1.0, -inf), 0.0)):
        with pytest.raises(DomainError, match="finite"):
            Realization(*args)
    # v_1 w_1 = 1e400 overflows: the slope of a finite network is inf
    with pytest.raises(DomainError, match="finite"):
        canonical(Params(1, (1e200, -5e199, 1e200, 0.0)), 0.0, 1.0)


def test_realization_invariants():
    with pytest.raises(ValueError):
        Realization(0.0, 1.0, (0.5, 0.4), (0.0, 1.0, 2.0), 0.0)
    with pytest.raises(ValueError):
        Realization(0.0, 1.0, (1.5,), (0.0, 1.0), 0.0)
    for b in (0.0, -1.0):
        with pytest.raises(DomainError, match="need b > a"):
            Realization(0.0, b, (), (1.0,), 0.0)
    with pytest.raises(DomainError, match="len"):
        Realization(0.0, 1.0, (0.5,), (1.0,), 0.0)
    r = Realization(0.0, 1.0, (), (1.0,), 0.0)
    for x in (-0.5, math.nextafter(1.0, 2.0), math.nan):
        with pytest.raises(DomainError, match="outside"):
            r.eval(x)


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


def test_greedy_groups():
    # constants on [0, 1]: their L2 distance is the difference of levels
    def groups(levels, tol=1.0):
        reals = [Realization(0.0, 1.0, (), (0.0,), c) for c in levels]
        return _greedy_groups(reals, tol)

    assert groups([]) == []
    assert groups([0.0, 10.0, 0.5, 10.5]) == [[0, 2], [1, 3]]
    # 1.6 is within tol of the member 0.8, but not of the group's first member
    assert groups([0.0, 0.8, 1.6]) == [[0, 1], [2]]
    # a distance of exactly tol is not within it
    assert groups([0.0, 1.0]) == [[0], [1]]
    # within tol of both first members: the earlier group wins
    assert groups([0.0, 1.5, 0.75]) == [[0, 2], [1]]


def test_l2_distance_domain_mismatch():
    u = Realization(0.0, 1.0, (), (0.0,), 0.0)
    v = Realization(0.0, 2.0, (), (0.0,), 0.0)
    with pytest.raises(DomainError):
        l2_distance(u, v)


def test_params_json_roundtrip():
    p = Params.from_parts([1.0, -0.5], [0.1, 0.2], [2.0, 3.0], -1.0)
    assert params_from_json(json.dumps({"H": p.H, "theta": list(p.theta)})) == p


def test_realization_csv(monkeypatch):
    monkeypatch.setattr(network, "CSV_ROWS", 11)
    r = Realization(0.0, 1.0, (0.5,), (0.0, 2.0), 1.0)
    lines = realization_csv(r).strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 12
    x, y = (float(s) for s in lines[-1].split(","))
    assert (x, y) == (1.0, 2.0)


def _former_write_csv(r, path, grid):
    """The csv.writer export that realization_csv replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in [(x, r.eval(x)) for x in uniform_grid(r.a, r.b, grid)]:
            writer.writerow([repr(x), repr(y)])


_level = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)),
                   st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def _sampled_realization(draw):
    """A realization on a shifted or negative domain with 0-6 kinks, some
    of them exactly on points of its sample grid, and a grid size."""
    a = draw(st.one_of(st.sampled_from((0.0, -1.0, -7.25, 3.0)),
                       st.floats(-1e3, 1e3, allow_nan=False)))
    b = a + draw(st.one_of(st.sampled_from((1.0, 0.5, 2.5)), st.floats(1e-6, 1e3)))
    n = draw(st.integers(2, 300))
    on_grid = [x for x in uniform_grid(a, b, n) if a < x < b]
    pool = st.floats(a, b, exclude_min=True, exclude_max=True)
    if on_grid:
        pool = st.one_of(st.sampled_from(on_grid), pool)
    kinks = tuple(sorted(set(draw(st.lists(pool, max_size=6)))))
    slopes = tuple(draw(st.lists(_level, min_size=len(kinks) + 1,
                                 max_size=len(kinks) + 1)))
    return Realization(a, b, kinks, slopes, draw(_level)), n


@settings(max_examples=300, deadline=None, database=None)
@given(_sampled_realization())
# -0.0 up to a kink on the grid, rising after it: eval reads the right
# segment there and gives +0.0, the left one would give -0.0
@example((Realization(0.0, 1.0, (0.5,), (-0.0, 1.0), -0.0), 3))
@example((Realization(-2.0, -0.5, (-1.25,), (-0.0, 2.0), -0.0), 5))
def test_csv_and_sample_bytes_match_former_writer(tmp_path_factory, case):
    r, n = case
    got = r.sample(n)
    want = [(x, r.eval(x)) for x in uniform_grid(r.a, r.b, n)]
    assert [(x.hex(), y.hex()) for x, y in got] == [(x.hex(), y.hex()) for x, y in want]
    d = tmp_path_factory.mktemp("csv")
    _former_write_csv(r, d / "old.csv", n)
    with mock.patch.object(network, "CSV_ROWS", n):
        assert realization_csv(r).encode() == (d / "old.csv").read_bytes()


# ---------------------------------------------------------------------------
# canonical form and L2 distance on the shared geometry kernel, against
# the per-neuron event-sort formulas they replaced
# ---------------------------------------------------------------------------

def _ref_canonical(p, a, b):
    H = p.H
    th = p.theta
    base_slope = 0.0
    events = []
    for j in range(H):
        w, bj, v = th[j], th[H + j], th[2 * H + j]
        vw = v * w
        if w == 0.0:
            continue
        q = -bj / w
        if w > 0.0:
            if q <= a:
                base_slope += vw
            elif q < b:
                events.append((q, vw))
        else:
            if q >= b:
                base_slope += vw
            elif q > a:
                base_slope += vw
                events.append((q, -vw))
    events.sort()
    kinks, deltas = [], []
    for q, d in events:
        if kinks and q == kinks[-1]:
            deltas[-1] += d
        else:
            kinks.append(q)
            deltas.append(d)
    keep_k, keep_d = [], []
    for q, d in zip(kinks, deltas):
        if d == 0.0:
            continue
        keep_k.append(q)
        keep_d.append(d)
    slopes = [base_slope]
    for d in keep_d:
        slopes.append(slopes[-1] + d)
    return Realization(a, b, tuple(keep_k), tuple(slopes), realize(p, a))


def _ref_l2_distance(u, v):
    grid = sorted(set(u.kinks) | set(v.kinks))
    nodes = [u.a] + grid + [u.b]
    total = 0.0
    d0 = u.eval(nodes[0]) - v.eval(nodes[0])
    for x0, x1 in zip(nodes, nodes[1:]):
        d1 = u.eval(x1) - v.eval(x1)
        total += (x1 - x0) * (d0 * d0 + d0 * d1 + d1 * d1) / 3.0
        d0 = d1
    return math.sqrt(max(total, 0.0))


_DOMAINS = ((0.0, 1.0), (-1.0, 1.0), (-0.5, 1.5))
_unit = st.floats(-1.0, 1.0, allow_nan=False)


def _draw_params(draw, H, a, b, pool):
    """Width-H parameters whose kinks come from, or land within 1e-12 of,
    the shared kink pool; power-of-two weights make -(-w q) / w == q."""
    w, bias, v = [], [], []
    for _ in range(H):
        mode = draw(st.sampled_from(("random", "at_a", "at_b", "shared", "close",
                                     "w0", "v0")))
        w2 = draw(st.sampled_from((-1.0, 1.0))) * 2.0 ** draw(st.integers(-3, 3))
        if mode == "w0":
            w.append(draw(st.sampled_from((0.0, -0.0))))
            bias.append(draw(st.sampled_from((-0.5, 0.0, -0.0, 0.25))))
        elif mode == "random":
            q = a + (b - a) * draw(st.floats(-0.2, 1.2))
            wr = draw(_unit)
            w.append(wr if wr != 0.0 else w2)
            bias.append(-w[-1] * q)
        else:
            if mode in ("at_a", "at_b") or not pool:
                q = a if mode == "at_a" else b
            else:
                q = draw(st.sampled_from(pool))
            if mode == "close":
                q += draw(st.floats(-1e-12, 1e-12))
            w.append(w2)
            bias.append(-w2 * q)
        if w[-1] != 0.0:
            pool.append(-bias[-1] / w[-1])
        v.append(0.0 if mode == "v0" else 2.0 * draw(_unit))
    return Params.from_parts(w, bias, v, draw(_unit))


@st.composite
def _pair_case(draw):
    a, b = draw(st.sampled_from(_DOMAINS))
    pool = []
    p1 = _draw_params(draw, draw(st.integers(1, 6)), a, b, pool)
    p2 = _draw_params(draw, draw(st.integers(1, 6)), a, b, pool)
    xs = [a + (b - a) * draw(st.floats(0.0, 1.0)) for _ in range(4)]
    return a, b, p1, p2, xs


def _triple_kinks(p, a, b):
    """The kinks inside (a, b) that three or more neurons share."""
    w, bias, _, _ = parts(p)
    qs = sorted(-bj / wj for wj, bj in zip(w, bias) if wj != 0.0 and a < -bj / wj < b)
    return {lo for lo, hi in zip(qs, qs[2:]) if hi == lo}


@settings(max_examples=400, deadline=None, database=None)
@given(_pair_case())
def test_canonical_and_l2_match_reference(case):
    a, b, p1, p2, xs = case
    refs = [_ref_canonical(p, a, b) for p in (p1, p2)]
    assert (l2_distance(*refs).hex() == _ref_l2_distance(*refs).hex())
    for p, ref in zip((p1, p2), refs):
        w, bias, v, c = parts(p)
        got = canonical(p, a, b)
        triples = _triple_kinks(p, a, b)
        if triples:
            # the slope deltas of a kink shared by three or more neurons are
            # summed in another order, so only there may a sum round to 0 in
            # one order and not in the other
            scale = 1.0 + sum(abs(vj * wj) for wj, vj in zip(w, v))
            assert set(got.kinks) ^ set(ref.kinks) <= triples
            assert got.offset == ref.offset
            for x in xs + [a, b, *got.kinks, *ref.kinks]:
                assert got.eval(x) == pytest.approx(ref.eval(x), rel=0.0,
                                                    abs=1e-12 * scale * (b - a))
        else:
            assert got == ref
        size = 1.0 + abs(c) + sum(abs(vj) * (abs(wj) * max(abs(a), abs(b)) + abs(bj))
                                  for wj, bj, vj in zip(w, bias, v))
        for x in xs + [a, b, *got.kinks]:
            assert got.eval(x) == pytest.approx(realize(p, x), rel=0.0, abs=1e-10 * size)
