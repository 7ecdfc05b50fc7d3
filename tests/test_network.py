import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluland import (Params, SmoothActivation, canonical, l2_distance,
                      params_from_json, params_to_json, realize, realize_smooth,
                      sample_M, write_realization_csv)
from reluland.errors import DomainError
from reluland.network import KINK_MERGE_TOL, Realization, _active_spans, _geometry_nodes

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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            Params(1, (1.0, bad, 1.0, 0.0))
    with pytest.raises(DomainError):
        params_from_json('{"H": 1, "theta": [NaN, 0.0, 1.0, 0.0]}')


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
        nodes, _ = _geometry_nodes(theta, H, a, b)
        spans = {j: (lo, hi) for j, lo, hi in _active_spans(theta, H, nodes)}
        for j in range(H):
            span = spans.get(j)
            active = [bias[j] + w[j] * 0.5 * (x0 + x1) > 0.0
                      for x0, x1 in zip(nodes, nodes[1:])]
            expected = [span is not None and span[0] <= i < span[1]
                        for i in range(len(active))]
            assert active == expected


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


# ---------------------------------------------------------------------------
# canonical form and L2 distance on the shared geometry kernel, against
# the per-neuron event-sort formulas they replaced
# ---------------------------------------------------------------------------

def _ref_canonical(p, a, b):
    H = p.H
    th = p.theta
    base_slope = 0.0
    events = []
    slope_scale = 1.0
    for j in range(H):
        w, bj, v = th[j], th[H + j], th[2 * H + j]
        vw = v * w
        slope_scale += abs(vw)
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
        if kinks and q - kinks[-1] <= KINK_MERGE_TOL:
            deltas[-1] += d
        else:
            kinks.append(q)
            deltas.append(d)
    keep_k, keep_d = [], []
    for q, d in zip(kinks, deltas):
        if abs(d) <= 1e-12 * slope_scale:
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


def _close_triple(p, a, b):
    """Whether three or more kinks inside (a, b) lie within 1e-12."""
    qs = sorted(-p.b(j) / p.w(j) for j in range(p.H)
                if p.w(j) != 0.0 and a < -p.b(j) / p.w(j) < b)
    return any(hi - lo <= KINK_MERGE_TOL for lo, hi in zip(qs, qs[2:]))


@settings(max_examples=400, deadline=None, database=None)
@given(_pair_case())
def test_canonical_and_l2_match_reference(case):
    a, b, p1, p2, xs = case
    refs = [_ref_canonical(p, a, b) for p in (p1, p2)]
    assert (l2_distance(*refs).hex() == _ref_l2_distance(*refs).hex())
    for p, ref in zip((p1, p2), refs):
        got = canonical(p, a, b)
        if _close_triple(p, a, b):
            # the slope deltas of one merged kink are summed in another order
            scale = 1.0 + sum(abs(p.v(j) * p.w(j)) for j in range(p.H))
            assert (got.kinks, got.offset) == (ref.kinks, ref.offset)
            assert got.slopes == pytest.approx(ref.slopes, rel=0.0, abs=1e-12 * scale)
        else:
            assert got == ref
        size = 1.0 + abs(p.c) + sum(abs(p.v(j)) * (abs(p.w(j)) * max(abs(a), abs(b))
                                                   + abs(p.b(j))) for j in range(p.H))
        for x in xs + [a, b, *got.kinks]:
            assert got.eval(x) == pytest.approx(realize(p, x), rel=0.0, abs=1e-10 * size)
