import bisect
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reluland import Params, PolyTarget, enumerate_all, grid_oracle, l2_distance, oracle_check
from reluland.enumeration import (RESIDUAL_TOL, GridOracleReport, _combine, _grid_moments,
                                  _kink_equations, _kink_residual, _kink_roots, _on_unit)
from reluland.errors import DomainError
from reluland.network import canonical
from reluland.polyalg import (PiecewisePolynomial, Polynomial, _divexact, _gcd, reparametrize,
                              roots_in)

from conftest import piecewise_polys, poly_target, random_continuous_piecewise, rng_for, scaled


def _normalized01(t):
    return _on_unit(t.pp, *t.domain)


def _reflect01(f01):
    return _on_unit(f01, 1.0, 0.0)


def _kinks(t, orientation):
    return [s for s in enumerate_all(t).kinks if s.orientation == orientation]


# exact risks of the x^2 catalog entries (constant 1/3, affine x - 1/6,
# increasing kink at q = 1/3): 4/45, 1/180, 4/3645
XSQ_RISKS = {"constant": 4.0 / 45.0, "affine": 1.0 / 180.0,
             "kink_increasing": 4.0 / 3645.0}


def _entry_realization(t, kind):
    return next(e.realization for e in enumerate_all(t).entries if e.kind == kind)


def test_enum_constant_examples():
    for pieces, mean in (([[3.0]], 3.0), ([[0.0, 1.0]], 0.5), ([[0.0, 0.0, 1.0]], 1.0 / 3.0)):
        r = _entry_realization(poly_target([0.0, 1.0], pieces), "constant")
        assert r.slopes == (0.0,)
        assert r.offset == pytest.approx(mean)


def test_enum_affine_examples(xsq):
    # a constant target's fit has slope exactly 0, so its catalog lists no
    # affine entry: test_catalog_constant_target_single_entry
    r = _entry_realization(poly_target([0.0, 1.0], [[0.0, 2.0]]), "affine")
    assert r.slopes[0] == pytest.approx(2.0)
    assert r.offset == pytest.approx(0.0, abs=1e-14)
    r = _entry_realization(xsq, "affine")
    assert r.slopes[0] == pytest.approx(1.0, rel=1e-12)
    assert r.offset == pytest.approx(-1.0 / 6.0, rel=1e-12)


def test_kink_increasing_xsq(xsq):
    sols = _kinks(xsq, "increasing")
    assert len(sols) == 1
    s = sols[0]
    assert s.q == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert s.c == pytest.approx(1.0 / 27.0, rel=1e-8)
    assert s.vw == pytest.approx(4.0 / 3.0, rel=1e-8)
    assert max(abs(r) for r in s.residuals) < 1e-9


def test_kink_increasing_linear_empty():
    t = poly_target([0.0, 1.0], [[0.0, 1.0]])
    assert _kinks(t, "increasing") == []


def test_kink_increasing_constant_excluded():
    t = poly_target([0.0, 1.0], [[1.0]])
    assert _kinks(t, "increasing") == []


def test_kink_decreasing_xsq_empty(xsq):
    assert _kinks(xsq, "decreasing") == []


def test_kink_decreasing_linear_empty():
    t = poly_target([0.0, 1.0], [[0.0, 1.0]])
    assert _kinks(t, "decreasing") == []


def test_decreasing_mirrors_increasing_for_symmetric_target():
    # target symmetric about 1/2: the hat function
    t = poly_target([0.0, 0.5, 1.0], [[0.0, 1.0], [1.0, -1.0]])
    inc = _kinks(t, "increasing")
    dec = _kinks(t, "decreasing")
    assert len(inc) == len(dec)
    for si, sd in zip(inc, sorted(dec, key=lambda s: -s.q)):
        assert sd.q == pytest.approx(1.0 - si.q, abs=1e-10)
        assert sd.c == pytest.approx(si.c, rel=1e-9)
        assert sd.vw == pytest.approx(-si.vw, rel=1e-9)


def test_reflection_consistency_random():
    rng = rng_for(51)
    for _ in range(10):
        pp = random_continuous_piecewise(rng, max_pieces=3, max_degree=3)
        dec = _kinks(PolyTarget(pp), "decreasing")
        # mirrored independently of the catalog's own reflection
        mirror = PolyTarget(reparametrize(pp, -1.0, pp.lo + pp.hi))
        refl_inc = _kinks(mirror, "increasing")
        assert len(dec) == len(refl_inc)
        qs = sorted(1.0 - s.q for s in refl_inc)
        for got, want in zip(sorted(s.q for s in dec), qs):
            assert got == pytest.approx(want, abs=1e-10)


_MIRRORED_KIND = {"kink_increasing": "kink_decreasing",
                  "kink_decreasing": "kink_increasing"}


def _catalog_summary(cat, mirrored=False):
    """(kind, q, risk) per entry; mirrored swaps the kink kinds and maps
    q -> 1 - q.  Sorted by kind and q, which mirroring preserves."""
    rows = []
    for e in cat.entries:
        if mirrored:
            rows.append((_MIRRORED_KIND.get(e.kind, e.kind),
                         None if e.q is None else 1.0 - e.q, e.risk))
        else:
            rows.append((e.kind, e.q, e.risk))
    return sorted(rows, key=lambda r: (r[0], -1.0 if r[1] is None else r[1]))


@settings(max_examples=60, deadline=None, database=None)
@given(piecewise_polys(max_pieces=3, max_degree=4))
# a negligible leading coefficient once hid an interior kink root
@example(PiecewisePolynomial([-0.5, -0.25, 1.5], [
    Polynomial([]), Polynomial([-0.17578125000000003, -0.75, 0.0, 0.75, 1e-14])]))
# a kink root on a breakpoint once fell outside both adjacent pieces
@example(PiecewisePolynomial([-0.5, 0.0, 0.5], [
    Polynomial([0.500005, 1e-05]), Polynomial([0.500005])]))
# 1 - 0.01 and 1 - 0.010000000000000002 round to one double
@example(PiecewisePolynomial([0.0, 0.01, 0.010000000000000002, 1.0], [
    Polynomial([0.0, 0.0, 1.0]), Polynomial([1e-4]), Polynomial([0.0, 0.0, 1.0])]))
# a double root of the kink polynomial splits differently in each orientation
@example(PiecewisePolynomial([-1.0, -0.75, -0.5], [
    Polynomial([1.0000004310305377, 4.3103053759902043e-07]),
    Polynomial([1.0000001077576346])]))
# reflecting about the midpoint rounded 1 - 1.05e-45 to 1.0, a different target
@example(PiecewisePolynomial([-1.0, -0.75, -0.5], [
    Polynomial([1.0, 1.401298464324817e-45]), Polynomial([1.0])]))
def test_catalog_reflection_symmetry(pp):
    # f(-x) on [-hi, -lo] has the catalog of f with the kink orientations
    # swapped; reflecting about 0 only flips signs, so it is exact
    t = PolyTarget(pp)
    mirror = PolyTarget(reparametrize(pp, -1.0, 0.0))
    got = _catalog_summary(enumerate_all(mirror), mirrored=True)
    want = _catalog_summary(enumerate_all(t))
    assert [r[0] for r in got] == [r[0] for r in want]
    tol = 1e-12 * max(1.0, t.sq_integral())
    for (_, q_got, risk_got), (_, q_want, risk_want) in zip(got, want):
        assert (q_got is None) == (q_want is None)
        if q_got is not None:
            # a double root of the kink polynomial is only fixed to ~sqrt(eps)
            assert q_got == pytest.approx(q_want, abs=1e-7)
        assert risk_got == pytest.approx(risk_want, rel=1e-9, abs=tol)


def test_catalog_xsq(xsq):
    cat = enumerate_all(xsq)
    kinds = sorted(e.kind for e in cat.entries)
    assert kinds == ["affine", "constant", "kink_increasing"]
    for e in cat.entries:
        assert e.risk == pytest.approx(XSQ_RISKS[e.kind], rel=1e-9)
        assert e.grad_norm < 1e-9
    kink = next(e for e in cat.entries if e.kind == "kink_increasing")
    assert kink.q == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert cat.entries[0].risk == pytest.approx(4.0 / 3645.0, rel=1e-9)


def test_catalog_exact_fit():
    cat = enumerate_all(poly_target([0.0, 1.0], [[0.0, 2.0]]))
    kinds = sorted(e.kind for e in cat.entries)
    assert kinds == ["affine", "constant"]
    affine = next(e for e in cat.entries if e.kind == "affine")
    assert affine.risk <= 1e-14


def test_catalog_constant_target_single_entry():
    cat = enumerate_all(poly_target([0.0, 1.0], [[5.0]]))
    assert len(cat.entries) == 1
    assert cat.entries[0].risk <= 1e-14


@pytest.mark.parametrize("breakpoints, pieces, kinds, fits_exactly", [
    # 0.3 joined to a ramp of slope 1e-6 at 0.95: the kink at 0.95 is the
    # target itself, and all three entries lie within L2 1e-8 of each other
    ([0.0, 0.95, 1.0], [[0.3], [0.3 - 0.95e-6, 1e-6]],
     ["kink_increasing", "constant", "affine"], True),
    # x^2 on [-1, 1]: the affine fit has slope exactly 0, so it is the constant
    ([-1.0, 1.0], [[0.0, 0.0, 1.0]], ["kink_increasing", "kink_decreasing", "constant"],
     False),
])
def test_catalog_lists_each_distinct_realization_once(breakpoints, pieces, kinds,
                                                      fits_exactly):
    cat = enumerate_all(poly_target(breakpoints, pieces))
    assert [e.kind for e in cat.entries] == kinds
    assert len(cat.entries) == 1 + ("affine" in kinds) + len(cat.kinks)
    assert (cat.entries[0].risk == 0.0) == fits_exactly


def test_catalog_rejects_benchmark(bench):
    with pytest.raises(DomainError, match="finiteness"):
        enumerate_all(bench)


def test_catalog_general_domain():
    # x^2 on [1, 3]: catalog entries must still be critical
    t = poly_target([1.0, 3.0], [[0.0, 0.0, 1.0]])
    cat = enumerate_all(t)
    assert len(cat.entries) >= 3
    for e in cat.entries:
        assert e.grad_norm < 1e-9


def test_catalog_lifts_critical_random():
    rng = rng_for(52)
    for _ in range(20):
        pp = random_continuous_piecewise(rng, max_pieces=4, max_degree=4)
        t = PolyTarget(pp)
        cat = enumerate_all(t)
        for e in cat.entries:
            assert e.grad_norm < 1e-9
            for r in ([] if e.q is None else
                      [s for s in cat.kinks if abs(s.q - e.q) < 1e-12]):
                assert max(abs(x) for x in r.residuals) < 1e-9
        assert cat.passed


def test_boundary_kink_lifts_reduce_to_catalog(xsq):
    cat = enumerate_all(xsq)
    a, b = xsq.domain
    affine = next(e for e in cat.entries if e.kind == "affine")
    slope = affine.realization.slopes[0]
    # kink parked exactly at the left endpoint realizes the affine entry
    lift = Params.from_parts([1.0], [-a], [slope], affine.realization.offset)
    assert l2_distance(canonical(lift, a, b), affine.realization) < 1e-12
    const = next(e for e in cat.entries if e.kind == "constant")
    lift = Params.from_parts([1.0], [-b], [7.0], const.realization.offset)
    assert l2_distance(canonical(lift, a, b), const.realization) < 1e-12


def test_grid_oracle_xsq(xsq):
    f01 = _normalized01(xsq)
    rep = grid_oracle(f01)
    assert not rep.degenerate_everywhere
    assert len(rep.brackets) == 1
    lo, hi = rep.brackets[0]
    assert lo < 1.0 / 3.0 < hi
    assert grid_oracle(_reflect01(f01)).brackets == ()


def test_grid_oracle_linear_no_brackets():
    t = poly_target([0.0, 1.0], [[0.0, 1.0]])
    assert grid_oracle(_normalized01(t)).brackets == ()


def test_grid_oracle_constant_degenerate():
    t = poly_target([0.0, 1.0], [[1.0]])
    rep = grid_oracle(_normalized01(t))
    assert rep.degenerate_everywhere


def _scalar_kink_residual(f01, q):
    """The former scalar D(q), from three ``moment`` calls."""
    return ((1.0 - q) ** 2 * f01.moment(0, 0.0, q)
            - 2.0 * q * ((q + 2.0) * f01.moment(0, q, 1.0)
                         - 3.0 * f01.moment(1, q, 1.0)))


def _scalar_scan(f01, resolution):
    """The former scalar grid scan: (brackets, degenerate_everywhere)."""
    m = int(round(1.0 / resolution))
    qs = [k / m for k in range(1, m)]
    vals = [_scalar_kink_residual(f01, q) for q in qs]
    if max(abs(v) for v in vals) <= 1e-12 * f01.coeff_scale():
        return (), True
    brackets = []
    for q0, q1, v0, v1 in zip(qs, qs[1:], vals, vals[1:]):
        if v0 == 0.0:
            continue
        if v0 * v1 < 0.0 or (v1 == 0.0 and q1 != qs[-1]):
            brackets.append((q0, q1))
    return tuple(brackets), False


_ORACLE_EXAMPLES = (
    PiecewisePolynomial([0.0, 1.0], [Polynomial([0.0, 0.0, 1.0])]),
    PiecewisePolynomial([0.0, 1.0], [Polynomial([1.0])]),
    # a split double root of the kink polynomial at the breakpoint
    PiecewisePolynomial([0.0, 0.95, 1.0], [Polynomial([0.3]),
                                           Polynomial([0.2999905, 1e-05])]),
)


def _oriented01(pp, orientation):
    f01 = _normalized01(PolyTarget(pp))
    return f01 if orientation == "increasing" else _reflect01(f01)


@settings(max_examples=60, deadline=None, database=None)
@given(piecewise_polys(), st.sampled_from(("increasing", "decreasing")))
@example(_ORACLE_EXAMPLES[0], "increasing")
@example(_ORACLE_EXAMPLES[2], "decreasing")
def test_kink_residual_array_bit_identical_to_scalar(pp, orientation):
    f01 = _oriented01(pp, orientation)
    qs = np.arange(1, 1000) / 1000
    got = [v.hex() for v in _kink_residual(f01, qs).tolist()]
    assert got == [_scalar_kink_residual(f01, q).hex() for q in qs.tolist()]


@settings(max_examples=60, deadline=None, database=None)
@given(piecewise_polys(), st.sampled_from(("increasing", "decreasing")))
@example(_ORACLE_EXAMPLES[0], "increasing")
@example(_ORACLE_EXAMPLES[1], "increasing")
@example(_ORACLE_EXAMPLES[2], "increasing")
@example(_ORACLE_EXAMPLES[2], "decreasing")
def test_grid_oracle_matches_scalar_scan(pp, orientation):
    f01 = _oriented01(pp, orientation)
    rep = grid_oracle(f01)
    want = _scalar_scan(f01, 1e-3)
    assert (rep.brackets, rep.degenerate_everywhere) == want
    assert all(type(q) is float for bracket in rep.brackets for q in bracket)


def _former_decreasing_roots(g):
    """The decreasing orientation's (admissible, excluded) by its own
    integer equation on the unmirrored grid, as the catalog once decided
    them: D_dec(v) = v**2 (T0 - P0) - 2 (S - v)(3 P1 - v P0), in the
    decreasing q = (S - v) / S."""
    S = g.cuts[-1]
    last = len(g.cuts) - 2
    admissible, excluded = set(), set()
    for j, (p0, p1) in enumerate(zip(g.p0, g.p1)):
        r0 = [g.t0 - p0[0]] + [-c for c in p0[1:]]
        D = _combine(([0, 0, 1], r0), ([-6 * S, 6], p1), ([0, 2 * S, -2], p0))
        Z = _combine(([0, g.t0], [1]), ([-S], p0))
        if not D:
            assert not Z
            continue
        # structural roots: doubly at q = 1 (v = 0), at q = 0 (v = S)
        if j == 0:
            D = _divexact(D, [0, 0, 1])
        if j == last:
            D = _divexact(D, [-S, 1])
        cells = roots_in(D, g.cuts[j], g.cuts[j + 1])
        G = _gcd(D, Z) if cells else []
        zero_slope = roots_in(G, g.cuts[j], g.cuts[j + 1]) if len(G) > 1 else []
        for a, b in cells:
            q = (2 * S - a - b) / (2 * S)
            if 0.0 < q < 1.0:
                (excluded if (a, b) in zero_slope else admissible).add(q)
    return tuple(sorted(admissible)), tuple(sorted(excluded))


def _reference_oracle_check(t, resolution=1e-3):
    """The former ``oracle_check(t)``: normalizes and reflects t again,
    rescans both orientations and re-isolates their roots, the decreasing
    ones by their own equation."""
    f01 = _normalized01(t)
    g = _grid_moments(t.pp)
    for pp, kink_roots in ((f01, _kink_roots(g)), (_reflect01(f01), _former_decreasing_roots(g))):
        brackets, degenerate = _scalar_scan(pp, resolution)
        if degenerate:
            if kink_roots[0]:
                return False
            continue
        roots, excluded = map(list, kink_roots)
        candidates = sorted(roots + excluded)
        used = [False] * len(candidates)
        for lo, hi in brackets:
            inside = [i for i, q in enumerate(candidates)
                      if lo - resolution <= q <= hi + resolution and not used[i]]
            if not inside:
                return False
            used[inside[0]] = True
        for i, q in enumerate(candidates):
            if used[i]:
                continue
            if q in roots and resolution < q < 1.0 - resolution:
                lo = max(q - resolution, 1e-9)
                hi = min(q + resolution, 1.0 - 1e-9)
                v_lo, v_hi = _kink_residual(pp, np.array([lo, hi]))
                if v_lo * v_hi < 0.0:
                    return False
    return True


@settings(max_examples=60, deadline=None, database=None)
@given(piecewise_polys())
@example(_ORACLE_EXAMPLES[0])
@example(_ORACLE_EXAMPLES[1])
@example(_ORACLE_EXAMPLES[2])
def test_oracle_check_reads_catalog_like_rescan(pp):
    # the verdict from the catalog's roots is the verdict from roots
    # isolated again from the target
    t = PolyTarget(pp)
    assert enumerate_all(t).oracle_ok == _reference_oracle_check(t)


def _roots_and_oracle(pp):
    """Per orientation (admissible, excluded, oracle brackets), and the
    oracle verdict, as the catalog records them."""
    cat = enumerate_all(PolyTarget(pp))
    return [(kr.admissible, kr.excluded, kr.oracle.brackets)
            for kr in cat.orientations], cat.oracle_ok


@settings(max_examples=60, deadline=None, database=None)
@given(piecewise_polys(), st.sampled_from((-60, -40, -20, 20)))
# x^2 - 1 on [-1, -0.5]: at 2**-60 an absolute zero-slope tolerance once
# excluded its decreasing kink root at q = 0.1196
@example(PiecewisePolynomial([-1.0, -0.5], [Polynomial([-1.0, 0.0, 1.0])]), -60)
def test_kink_roots_and_oracle_are_scale_invariant(pp, k):
    # scaling by 2**k is exact in every float step, the integer kink
    # equations only change by a positive factor, and the oracle's
    # degenerate test is relative: no root, bracket or verdict may move
    assume(all(abs(c) > 1e-200 for p in pp.pieces for c in p.coeffs if c))
    assert _roots_and_oracle(scaled(PolyTarget(pp), 2.0 ** k).pp) == _roots_and_oracle(pp)


@settings(max_examples=60, deadline=None, database=None)
@given(piecewise_polys(), st.sampled_from((-60, -40, -20, 20)))
# 1 + x on [-1, -0.5]: at 2**-60 an L2 grouping once merged its exact
# affine fit (risk 0) into the constant
@example(PiecewisePolynomial([-1.0, -0.5], [Polynomial([1.0, 1.0])]), -60)
# x^2 on [0, 1]: at 2**-60 an absolute slope floor in ``canonical`` once
# dropped the kink at 1/3 from its kink_increasing realization
@example(PiecewisePolynomial([0.0, 1.0], [Polynomial([0.0, 0.0, 1.0])]), -60)
def test_catalog_is_scale_invariant(pp, k):
    # scaling by 2**k is exact in every float step of the lifts and risks;
    # only the verdict may move, since the lifts' RESIDUAL_TOL is absolute
    assume(all(abs(c) > 1e-100 for p in pp.pieces for c in p.coeffs if c))
    cat = enumerate_all(PolyTarget(pp))
    s = 2.0 ** k
    cat_s = enumerate_all(scaled(PolyTarget(pp), s))
    assert [(e.kind, e.q) for e in cat_s.entries] == [(e.kind, e.q) for e in cat.entries]
    assert cat_s.oracle_ok == cat.oracle_ok
    for e, f in zip(cat.entries, cat_s.entries):
        assert f.risk == e.risk * 4.0 ** k
        if e.c is not None:
            assert (f.c, f.vw) == (e.c * s, e.vw * s)
        assert f.realization.kinks == e.realization.kinks
        assert f.realization.slopes == tuple(x * s for x in e.realization.slopes)


def test_small_breakpoint_root_target_passes_oracle():
    # the breakpoint-root target times 1e-6; an absolute floor under the
    # oracle's degenerate test once failed it
    cat = enumerate_all(poly_target([-0.5, 0.0, 0.5],
                                    [[5.00005e-07, 1e-11], [5.00005e-07]]))
    assert cat.passed


def test_dyadic_target_excludes_its_exact_zero_slope_root():
    # symmetric about 1/2; q = 1/2 is an exact common root of the kink
    # equation and the zero-slope numerator in both orientations
    cat = enumerate_all(poly_target([0.0, 0.5, 1.0], [[2, -24, 48], [26, -72, 48]]))
    for kr in cat.orientations:
        assert kr.excluded == (0.5,)
        assert kr.admissible == (0.2689805364075844, 0.8931498239234456)
    assert cat.passed


@pytest.mark.parametrize("case", ["unbracketed_root", "bracket_without_root",
                                  "degenerate_with_root"])
def test_oracle_check_rejects_a_mismatch(xsq, case):
    inc, dec = enumerate_all(xsq).orientations
    assert inc.admissible == (1.0 / 3.0,)
    assert oracle_check((inc, dec))
    brackets = inc.oracle.brackets
    if case == "unbracketed_root":
        # D changes sign across 1/3, so a scan without its bracket is wrong
        oracle = GridOracleReport(tuple(br for br in brackets
                                        if not br[0] <= 1.0 / 3.0 <= br[1]), False)
    elif case == "bracket_without_root":
        oracle = GridOracleReport(brackets + ((0.9, 0.901),), False)
    else:
        oracle = GridOracleReport((), True)
    assert not oracle_check((replace(inc, oracle=oracle), dec))


def test_oracle_check_accepts_two_roots_in_one_cell():
    # x^4 - 1.496 x^3 + 0.678 x^2 has kink roots near 0.4003 and 0.4005, in
    # the scan cell [0.400, 0.401]: D has one sign at both cell ends, so
    # neither root is bracketed, and D keeps its sign 1e-3 either side
    cat = enumerate_all(poly_target([0.0, 1.0], [
        [0.0, 0.0, 0.6777893419444415, -1.4959796168806632, 1.0]]))
    inc = cat.orientations[0]
    assert len(inc.admissible) == 3
    assert 0.4 < inc.admissible[0] < inc.admissible[1] < 0.401 < inc.admissible[2]
    assert inc.oracle.brackets == ((0.408, 0.409),)
    assert cat.passed


LARGE_COEFFICIENT_TARGET = ([0.0, 0.22, 1.0], [
    [4.0, -15.0, -16.0, 20.0, 7.0, 6.0, 5.0],
    [601.9490598512639, -3776.0, 3753.0, 4070.0, 1058.0, 2027.0, 3739.0]])
FAR_AFFINE_TARGET = ([1000.0, 1000.5], [[1.0, 2.0]])
# large coefficients again: the reflected-target residual of its decreasing
# kink and four of its five lifts miss RESIDUAL_TOL
KINK_RESIDUAL_TARGET = (
    [1.8469800035481598, 3.410689039925308, 3.858489461273636, 4.543882627285089], [
        [102.6344592123935, -309.8704671530645, -265.2975335217334, -608.1425237729021,
         753.1623473222303, 238.78075491123104, -881.9218082590592],
        [-141871.10106569398, -103.45110585965301, -157.00274133646008, -788.3066364507961,
         659.9080360505534, 745.0738689411876, -928.8656339081782],
        [-4128467.6334070507, 630.8225586519741, 871.4092785835412, 420.4126641322223,
         -338.9135474727492, -326.66792027259817, 597.5334420714817]])
# its decreasing kink holds on the reflected target but its lift misses by
# 0.22; a second residual check against the unreflected target once listed
# a residual of 1.21e-08 beside that lift failure
DECREASING_LIFT_TARGET = ([-2.3478208883150575, 1.4753442495459623], [
    [-1330174.5540975505, -9426.9884208359, -2370.4158137014624, 7368.685608281414,
     761.8487873989087, -472.4870621323759, 8114.656343066579]])


@pytest.mark.parametrize("breakpoints, pieces", [
    LARGE_COEFFICIENT_TARGET, FAR_AFFINE_TARGET, KINK_RESIDUAL_TARGET,
    pytest.param(*DECREASING_LIFT_TARGET, id="decreasing-lift")])
def test_missed_lift_check_fails_the_catalog(breakpoints, pieces):
    # the lifts of the two strict xfails below miss RESIDUAL_TOL: the catalog
    # records each miss, classifies no such lift, and fails
    cat = enumerate_all(poly_target(breakpoints, pieces))
    if (breakpoints, pieces) == DECREASING_LIFT_TARGET:
        assert cat.failures == ("kink_decreasing catalog lift at q=0.18016128789989572 "
                                "is not critical: |grad| = 0.223746",)
    missed = [e for e in cat.entries if not e.grad_norm < RESIDUAL_TOL]
    assert missed and all(e.crit_class is None for e in missed)
    lifts = [f for f in cat.failures if " catalog lift " in f]
    assert sorted(f.split()[0] for f in lifts) == sorted(e.kind for e in missed)
    # every other failure is a kink's residual, led by its entry's kind
    kinds = {e.kind for e in cat.entries}
    assert all(f.split()[0] in kinds and " has residual " in f
               for f in cat.failures if f not in lifts)
    assert cat.oracle_ok and not cat.passed


def test_kink_failures_name_their_catalog_q():
    # the reflected-target check of the decreasing kink at q = 0.6887 once
    # named the reflected q, 0.3113, and the kink lifts named no q at all
    cat = enumerate_all(poly_target(*KINK_RESIDUAL_TARGET))
    kinks = {(e.kind, e.q) for e in cat.entries if e.q is not None}
    assert kinks == {("kink_decreasing", 0.68869904447958),
                     ("kink_increasing", 0.025870371489836085),
                     ("kink_increasing", 0.9138657457705329)}
    assert cat.failures[0].startswith(
        "kink_decreasing at q=0.68869904447958 on the reflected target has residual ")
    kink_failures = [f for f in cat.failures if f.startswith("kink_")]
    assert len(kink_failures) == 4
    for f in kink_failures:
        assert sum(f.split()[0] == kind and f" q={q!r} " in f for kind, q in kinks) == 1, f
    assert not any("0.31130095552042003" in f for f in cat.failures)


@pytest.mark.xfail(strict=True, reason="absolute RESIDUAL_TOL on the affine and a kink lift")
def test_catalog_large_coefficient_target():
    # beside coefficients of 4e3, the affine lift's |grad| is 7.85e-9, and no
    # double lies much closer to the exact affine lift; the kink_increasing
    # lift at q = 0.6261695901825253 misses too, with |grad| 1.19906e-08
    assert enumerate_all(poly_target(*LARGE_COEFFICIENT_TARGET)).passed


@pytest.mark.xfail(strict=True, reason="affine lift solves raw-moment normal equations about 0")
def test_catalog_affine_target_far_from_zero():
    # 1 + 2x on [1000, 1000.5]: the ill-conditioned fit leaves |grad| =
    # 0.00555 on the affine lift, which should fit the target exactly
    cat = enumerate_all(poly_target(*FAR_AFFINE_TARGET))
    assert cat.passed
    assert cat.entries[0].kind == "affine"


@pytest.mark.xfail(strict=True, reason="the float oracle scans rounding noise where D vanishes")
def test_catalog_kink_equation_vanishing_on_a_piece():
    # f = 1 on [0, 1/2] and 1 + (P_2 + P_3)(4x - 3) on [1/2, 1], P_n the
    # Legendre polynomials: continuous and dyadic, and f is its mean on
    # [0, 1/2], where D vanishes identically.  The exact route finds one
    # kink per orientation; the float scan there brackets rounding noise,
    # 308 increasing and 250 decreasing brackets (ROADMAP item 16, PR A)
    assert enumerate_all(poly_target([0.0, 0.5, 1.0],
                                     [[1.0], [-49.0, 228.0, -336.0, 160.0]])).passed


def test_single_relu_with_kink_on_breakpoint_passes_oracle():
    # one ReLU neuron of slope +-1e-5 with its kink on the breakpoint k, flat
    # on the left or the right: the kink equation has a double root at k
    # that rounding of the parsed target can split
    rng = rng_for(777)
    for i in range(100):
        k = float(rng.uniform(0.05, 0.95))
        c0 = float(rng.uniform(-1.0, 1.0))
        s = 1e-5 * float(rng.choice([-1, 1]))
        ramp = [c0 - s * k, s]
        pieces = [[c0], ramp] if rng.uniform() < 0.5 else [ramp, [c0]]
        assert enumerate_all(poly_target([0.0, k, 1.0], pieces)).passed, (i, k, pieces)


@settings(max_examples=60, deadline=None, database=None)
@given(piecewise_polys(), st.sampled_from(("increasing", "decreasing")))
@example(_ORACLE_EXAMPLES[0], "increasing")
@example(_ORACLE_EXAMPLES[2], "increasing")
@example(_ORACLE_EXAMPLES[2], "decreasing")
def test_exact_kink_equation_has_the_sign_of_the_residual(pp, orientation):
    # D, exact at the rational grid point v = q S of the target's grid (the
    # mirrored target's for the decreasing orientation, in its own q),
    # against the float residual the oracle scans
    f01 = _oriented01(pp, orientation)
    g = _grid_moments(pp if orientation == "increasing" else reparametrize(pp, -1.0, 0.0))
    equations = _kink_equations(g)
    qs = np.arange(1, 1000) / 1000
    tol = 1e-9 * (1.0 + f01.coeff_scale())
    for q, r in zip(qs.tolist(), _kink_residual(f01, qs).tolist()):
        if abs(r) <= tol:
            continue
        v = Fraction(q) * g.cuts[-1]
        j = min(bisect.bisect_right(g.cuts, v) - 1, len(equations) - 1)
        D = equations[j]
        # den**deg * D(num / den), with the sign of D(v)
        exact = sum(c * v.numerator ** i * v.denominator ** (len(D) - 1 - i)
                    for i, c in enumerate(D))
        assert (exact > 0) == (r > 0) and exact != 0, (q, r)


def _shifted_legendre(k):
    """P_k on [0, 1] as ascending integers: orthogonal there to every
    polynomial of lower degree, P_k(1) = 1 and P_k(0) = (-1)**k."""
    return [(-1) ** (k + i) * math.comb(k, i) * math.comb(k + i, i) for i in range(k + 1)]


def _compose(coeffs, s, t):
    """x -> p(s x + t) for ascending Fraction coefficients."""
    out = [Fraction(0)] * len(coeffs)
    for k, c in enumerate(coeffs):
        for i in range(k + 1):
            out[i] += c * math.comb(k, i) * s ** i * t ** (k - i)
    return out


def _zero_slope_pp(m, left, right, mean, lo, width):
    """mean + g on [lo, lo + width] with pieces on either side of q = m/16
    of it, where g is a sum of shifted Legendre polynomials on each piece:
    left = (k0, weights) gives sum_i weights[i] P_{k0 + i}(x / q), right
    likewise in (x - q) / (1 - q), and its first weight is replaced to make
    g continuous.  Then int_0^q g = 0 if left's k0 >= 1 and g is orthogonal
    to 1 and x on [q, 1] if right's k0 >= 2: an exact common root of the
    increasing kink equation and the zero-slope numerator at q; with the
    sides swapped, of the decreasing ones.  The scale of g clears the odd
    denominators; None when a coefficient is still not a double."""
    q = Fraction(m, 16)
    (kl, wl), (kr, wr) = left, right
    wr = [(sum(wl) - sum(d * (-1) ** (kr + i) for i, d in enumerate(wr) if i)) * (-1) ** kr,
          *wr[1:]]
    odd = [n >> ((n & -n).bit_length() - 1) for n in (m, 16 - m)]
    scale = odd[0] ** (kl + len(wl) - 1) * odd[1] ** (kr + len(wr) - 1)
    pieces = []
    for k0, weights, s, t in ((kl, wl, 1 / q, Fraction(0)), (kr, wr, 1 / (1 - q), -q / (1 - q))):
        g = [Fraction(0)] * (k0 + len(weights))
        for i, w in enumerate(weights):
            for j, c in enumerate(_compose(_shifted_legendre(k0 + i), s, t)):
                g[j] += scale * w * c
        p = _compose(g, 1 / Fraction(width), -Fraction(lo) / Fraction(width))
        p[0] += mean
        if any(Fraction(float(c)) != c for c in p):
            return None
        pieces.append(Polynomial([float(c) for c in p]))
    return PiecewisePolynomial([lo, lo + float(q) * width, lo + width], pieces)


_legendre_terms = st.lists(st.integers(-3, 3), min_size=1, max_size=3)


@st.composite
def zero_slope_pps(draw):
    """``_zero_slope_pp`` with an exact zero-slope kink root in one
    orientation or both."""
    kl, kr = draw(st.sampled_from(((1, 2), (2, 1), (2, 2))))
    pp = _zero_slope_pp(draw(st.integers(1, 15)), (kl, draw(_legendre_terms)),
                        (kr, draw(_legendre_terms)), draw(st.integers(-4, 4)),
                        draw(st.sampled_from((-1.0, -0.5, 0.0))),
                        draw(st.sampled_from((0.5, 1.0, 2.0))))
    assume(pp is not None)
    return pp


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(piecewise_polys(), zero_slope_pps()))
# CI's zero-slope target: excluded at q = 1/2 in both orientations
@example(PiecewisePolynomial([0.0, 0.5, 1.0], [Polynomial([2, -24, 48]),
                                               Polynomial([26, -72, 48])]))
@example(_zero_slope_pp(4, (1, [1, 2]), (2, [0, 1]), 3, 0.0, 1.0))  # increasing only
@example(_zero_slope_pp(3, (2, [1, -1]), (1, [0, 2]), -1, -0.5, 2.0))  # decreasing only
# a kink root on the breakpoint
@example(PiecewisePolynomial([-0.5, 0.0, 0.5], [Polynomial([0.500005, 1e-05]),
                                                Polynomial([0.500005])]))
@example(PiecewisePolynomial(DECREASING_LIFT_TARGET[0],
                             [Polynomial(c) for c in DECREASING_LIFT_TARGET[1]]))
@example(PiecewisePolynomial(KINK_RESIDUAL_TARGET[0],
                             [Polynomial(c) for c in KINK_RESIDUAL_TARGET[1]]))
def test_decreasing_roots_are_the_mirrored_targets_increasing_roots(pp):
    # the catalog's decreasing roots, from the grid of f(-x), are those of
    # the decreasing orientation's own equation on f's grid; and the catalog
    # of f(-x) swaps the two orientations' roots
    inc, dec = enumerate_all(PolyTarget(pp)).orientations
    assert (dec.admissible, dec.excluded) == _former_decreasing_roots(_grid_moments(pp))
    mirror = enumerate_all(PolyTarget(reparametrize(pp, -1.0, 0.0))).orientations
    assert ([(kr.admissible, kr.excluded) for kr in mirror]
            == [(dec.admissible, dec.excluded), (inc.admissible, inc.excluded)])
