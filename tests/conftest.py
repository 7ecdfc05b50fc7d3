import math

import numpy as np
import pytest
from hypothesis import strategies as st

from reluland import BenchmarkTarget, PolyTarget, SmoothActivation
from reluland.polyalg import PiecewisePolynomial, Polynomial


@pytest.fixture
def bench():
    return BenchmarkTarget(1 / 3, 2 / 3, 0.0, 1.0)


@pytest.fixture
def xsq():
    return PolyTarget(PiecewisePolynomial([0.0, 1.0], [Polynomial([0.0, 0.0, 1.0])]))


def poly_target(breakpoints, pieces):
    return PolyTarget(PiecewisePolynomial(breakpoints, [Polynomial(cs) for cs in pieces]))


def scaled(t, c):
    """The target c f for a target f: a benchmark target's scale times c,
    or each piece times c."""
    if isinstance(t, BenchmarkTarget):
        return BenchmarkTarget(t.alpha, t.beta, t.a, t.b, t.scale * c)
    return PolyTarget(PiecewisePolynomial(t.pp.breakpoints, [p.scale(c) for p in t.pp.pieces]))


def _at_u(t, u):
    """A point of a benchmark target's domain whose normalized coordinate
    is exactly u, when one lies within 4 ulps of a + u (b - a); else that
    point."""
    x = t.a + u * (t.b - t.a)
    near = [x]
    for toward in (math.inf, -math.inf):
        y = x
        for _ in range(4):
            y = math.nextafter(y, toward)
            near.append(y)
    return next((y for y in near if t.a <= y <= t.b and (y - t.a) / (t.b - t.a) == u), x)


def special_points(t):
    """The domain ends and the points where a target's piece ends, with
    their neighbours: u = alpha and u = beta on a benchmark target, the
    interior breakpoints of a polynomial one.  Piece ownership decides
    the reads there."""
    a, b = t.domain
    if isinstance(t, BenchmarkTarget):
        inner = [_at_u(t, t.alpha), _at_u(t, t.beta)]
    else:
        inner = list(t.breakpoints()[1:-1])
    pts = {a, b}
    for x in inner:
        pts.update((x, math.nextafter(x, a), math.nextafter(x, b)))
    return sorted(pts)


def parts(p):
    """(w, b, v, c) of a parameter vector: three width-H tuples and the
    output offset."""
    H, th = p.H, p.theta
    return th[:H], th[H:2 * H], th[2 * H:3 * H], th[3 * H]


def realize(p, x):
    """Exact ReLU network output N_theta(x), neuron by neuron: the
    pointwise oracle of the canonical-form tests."""
    H = p.H
    th = p.theta
    acc = th[3 * H]
    for j in range(H):
        z = th[H + j] + th[j] * x
        if z > 0.0:
            acc += th[2 * H + j] * z
    return acc


def realize_smooth(p, x, r):
    """N_theta(x) with the ReLU replaced by the sharpness-r softplus
    surrogate."""
    act = SmoothActivation(r)
    H = p.H
    th = p.theta
    acc = th[3 * H]
    for j in range(H):
        acc += th[2 * H + j] * act(th[H + j] + th[j] * x)
    return acc


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def random_continuous_piecewise(rng, max_pieces=4, max_degree=4, lo=0.0, hi=1.0):
    """Random continuous piecewise polynomial on [lo, hi]."""
    n = int(rng.integers(1, max_pieces + 1))
    cuts = np.sort(rng.uniform(lo + 0.05, hi - 0.05, n - 1)) if n > 1 else []
    bps = [lo, *cuts, hi]
    pieces = []
    level = float(rng.uniform(-1, 1))
    for i in range(n):
        deg = int(rng.integers(0, max_degree + 1))
        p = Polynomial([float(c) for c in rng.uniform(-1, 1, deg + 1)])
        # shift so the piece starts where the previous one ended
        p = p + Polynomial([level - p(bps[i])])
        level = p(bps[i + 1])
        pieces.append(p)
    return PiecewisePolynomial(bps, pieces)


_coef = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def piecewise_polys(draw, max_pieces=5, max_degree=6):
    """Continuous piecewise polynomial on [lo, lo + width], both ends dyadic
    (so lo + hi - x is exact at the ends), with |x| <= 2."""
    lo = draw(st.sampled_from((-1.0, -0.5, 0.0)))
    hi = lo + draw(st.sampled_from((0.5, 1.0, 2.0)))
    cuts = draw(st.lists(st.floats(0.01, 0.99), max_size=max_pieces - 1))
    bps = sorted({lo, hi, *(lo + (hi - lo) * c for c in cuts)})
    level = draw(_coef)
    pieces = []
    for x0, x1 in zip(bps, bps[1:]):
        deg = draw(st.integers(0, max_degree))
        p = Polynomial(draw(st.lists(_coef, min_size=deg + 1, max_size=deg + 1)))
        # shift so the piece starts where the previous one ended
        p = p + Polynomial([level - p(x0)])
        level = p(x1)
        pieces.append(p)
    return PiecewisePolynomial(bps, pieces)


@st.composite
def domain_points(draw, pp, min_size=1, max_size=8):
    """Points of pp's domain: breakpoints (both ends included) and points
    inside pieces."""
    inside = st.floats(pp.lo, pp.hi, allow_nan=False)
    return draw(st.lists(st.one_of(st.sampled_from(pp.breakpoints), inside),
                         min_size=min_size, max_size=max_size))
