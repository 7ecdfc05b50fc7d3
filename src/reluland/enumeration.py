"""Finite enumeration of critical realization functions for width-1 networks.

For a continuous piecewise-polynomial target on [a, b] the zeros of the
generalized gradient realize only finitely many functions, split into four
structural cases: constant, affine, single kink with positive inner weight
(flat left of the kink) and single kink with negative inner weight (flat
right of it).  The kink cases reduce to real roots of an explicit
polynomial in the normalized kink position q, assembled here coefficient-
exactly so that root isolation operates on a true polynomial.
``enumerate_all`` normalizes the target to [0, 1] once, reflects it once
for the decreasing orientation and isolates each orientation's roots once;
the catalog keeps both ``KinkRoots``.  A grid scan of the defining residual
on each orientation's normalized target serves as an independent
cross-check oracle: it evaluates D(q) at all grid points at once, as numpy
arrays, from the target's running integrals of f and x f
(``cum_moments``), bit for bit as three scalar moments per point would.
It never expands D in q, so an error in that expansion (``_kink_poly``)
cannot hide in both routes; ``oracle_check`` matches its brackets against
the catalog's roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateEnumerationError, FinitenessError,
                     NonsmoothPointError)
from .landscape import CritClass, classify, grad, hessian_fd, risk
from .network import Params, Realization, canonical, l2_distance
from .polyalg import (PiecewisePolynomial, Polynomial, collapse_roots, reparametrize,
                      roots_in)
from .target import BenchmarkTarget, Target

__all__ = [
    "KinkSolution",
    "KinkRoots",
    "CatalogEntry",
    "CriticalCatalog",
    "GridOracleReport",
    "enum_constant",
    "enum_affine",
    "enumerate_all",
    "grid_oracle",
    "oracle_check",
]

RESIDUAL_TOL = 1e-9
VW_EXCLUSION_TOL = 1e-12
ROOT_TOL = 1e-12
BREAKPOINT_MARGIN = 1e-9
DEDUP_DEFAULT = 1e-8
ORACLE_RESOLUTION = 1e-3


@dataclass(frozen=True)
class KinkSolution:
    """Normalized single-kink critical data: kink q in (0,1), flat-side
    level c, active-side slope vw != 0, and orientation of the inner
    weight ('increasing' = flat left of q, 'decreasing' = flat right)."""

    q: float
    c: float
    vw: float
    orientation: str
    residuals: tuple[float, float, float]


@dataclass(frozen=True)
class KinkRoots:
    """One kink orientation's roots: the target on [0, 1] (reflected for the
    decreasing orientation), the admissible kink positions in that
    orientation's own q, and the roots excluded by a zero slope."""

    f01: PiecewisePolynomial
    admissible: tuple[float, ...]
    excluded: tuple[float, ...]


def _on_unit(pp: PiecewisePolynomial, lo: float, hi: float) -> PiecewisePolynomial:
    """u -> pp(lo + (hi - lo) u) on [0, 1], where lo and hi are pp's domain
    ends (swapped to reflect).  The mapped ends are snapped to 0 and 1, and
    pp's continuity flag is kept without a re-check, as in ``reparametrize``."""
    out = reparametrize(pp, hi - lo, lo)
    f01 = PiecewisePolynomial((0.0, *out.breakpoints[1:-1], 1.0), out.pieces)
    f01.continuous = pp.continuous
    return f01


def enum_constant(t: Target) -> Realization:
    """The unique constant critical realization: the target's mean value."""
    a, b = t.domain
    mean = (t.cum_int_xint(b)[0] - t.cum_int_xint(a)[0]) / (b - a)
    return Realization(a, b, (), (0.0,), mean)


def enum_affine(t: Target) -> Realization:
    """The unique critical realization affine on the whole interval.

    Matching the zeroth and first moments of the target gives a 2x2 linear
    system for (slope, intercept) whose determinant -(b-a)^4/12 never
    vanishes.
    """
    a, b = t.domain
    m0 = b - a
    m1 = (b * b - a * a) / 2.0
    m2 = (b ** 3 - a ** 3) / 3.0
    Fa, Ga = t.cum_int_xint(a)
    Fb, Gb = t.cum_int_xint(b)
    f0 = Fb - Fa
    f1 = Gb - Ga
    det = m1 * m1 - m0 * m2  # = -(b-a)^4 / 12
    slope = (f0 * m1 - f1 * m0) / det
    intercept = (f1 * m1 - f0 * m2) / det
    return Realization(a, b, (), (slope,), slope * a + intercept)


def _kink_poly(f01: PiecewisePolynomial, j: int) -> Polynomial:
    """The defining polynomial D_j(q) on piece j of the normalized target:
    D(q) = (1-q)^2 * int_0^q f  -  2q * int_q^1 (q + 2 - 3x) f(x) dx,
    expanded coefficient-exactly in q."""
    T0 = f01.moment(0, 0.0, 1.0)
    T1 = f01.moment(1, 0.0, 1.0)
    # int_0^q f and int_0^q x f as polynomials in q, valid on the piece
    p0 = f01.running_poly(0, j)
    p1 = f01.running_poly(1, j)
    int_q1 = Polynomial([T0]) - p0
    int_q1_x = Polynomial([T1]) - p1
    one_minus_q_sq = Polynomial([1.0, -2.0, 1.0])
    two_q = Polynomial([0.0, 2.0])
    inner = Polynomial([2.0, 1.0]) * int_q1 - int_q1_x.scale(3.0)
    return one_minus_q_sq * p0 - two_q * inner


def _vw_numerator(f01: PiecewisePolynomial, j: int) -> Polynomial:
    """q * (int_0^1 f - (1/q) int_0^q f) as a polynomial in q on piece j;
    its zeros are the kink positions with vanishing active-side slope."""
    T0 = f01.moment(0, 0.0, 1.0)
    p0 = f01.running_poly(0, j)
    return Polynomial([0.0, T0]) - p0


def _deflate_linear(p: Polynomial, root: float, tol: float) -> Polynomial:
    """Divide p by (x - root) if the remainder is negligible, else return p."""
    quot: list[float] = []
    rem = 0.0
    for c in reversed(p.coeffs):
        rem = rem * root + c
        quot.append(rem)
    rem = quot.pop()
    if abs(rem) > tol:
        return p
    quot.reverse()
    return Polynomial(quot)


def _kink_roots(f01: PiecewisePolynomial) -> KinkRoots:
    """Roots of the kink equation in (0,1), split into admissible kink
    positions and those excluded by a vanishing slope."""
    T0 = f01.moment(0, 0.0, 1.0)
    scale_ref = max(1.0, f01.coeff_scale())
    found: list[float] = []
    spilled: list[float] = []
    for j in range(len(f01.pieces)):
        D = _kink_poly(f01, j)
        if D.coeff_scale() <= 1e-11 * scale_ref:
            n = _vw_numerator(f01, j)
            if n.coeff_scale() <= 1e-11 * scale_ref:
                continue  # every q on the piece has vw = 0: nothing new
            raise DegenerateEnumerationError(
                f"kink equation vanished identically on piece {j} "
                "without the zero-slope degeneracy")
        # D always vanishes at q = 0 (first piece) and doubly at q = 1
        # (last piece); those structural roots are the constant/affine
        # cases in disguise and must not leak into the kink list.
        rem_tol = 1e-10 * max(D.coeff_scale(), 1.0)
        if f01.breakpoints[j] == 0.0:
            D = _deflate_linear(D, 0.0, rem_tol)
        if f01.breakpoints[j + 1] == 1.0:
            D = _deflate_linear(_deflate_linear(D, 1.0, rem_tol), 1.0, rem_tol)
        if D.is_zero or D.degree() == 0:
            continue
        lo = f01.breakpoints[j]
        hi = f01.breakpoints[j + 1]
        found += roots_in(D, lo, hi, ROOT_TOL)
        # rounding can push a root on a breakpoint just outside both adjacent
        # pieces; D is C^1 there, so D_j holds to O(margin^2) past its piece
        for a, b in ((lo - BREAKPOINT_MARGIN, lo), (hi, hi + BREAKPOINT_MARGIN)):
            if D(a) * D(b) < 0.0:
                spilled += roots_in(D, a, b, ROOT_TOL)
    found += [q for q in spilled if all(abs(q - r) >= 1e-9 for r in found)]

    admissible: list[float] = []
    excluded: list[float] = []
    for q in found:
        if not (1e-9 < q < 1.0 - 1e-9):
            continue  # boundary kinks reduce to the affine/constant cases
        int0q = f01.moment(0, 0.0, q)
        if abs(T0 - int0q / q) <= VW_EXCLUSION_TOL:
            excluded.append(q)
        else:
            admissible.append(q)
    return KinkRoots(f01, tuple(collapse_roots(admissible)),
                     tuple(collapse_roots(excluded)))


def _increasing_solution(f01: PiecewisePolynomial, q: float) -> KinkSolution:
    T0 = f01.moment(0, 0.0, 1.0)
    int0q = f01.moment(0, 0.0, q)
    c = int0q / q
    vw = 2.0 / (1.0 - q) ** 2 * (T0 - c)
    res1 = c * q - int0q
    res2 = (c * (1.0 - q) + vw * ((1.0 - q * q) / 2.0 - q * (1.0 - q))
            - f01.moment(0, q, 1.0))
    res3 = (c * (1.0 - q * q) / 2.0
            + vw * ((1.0 - q ** 3) / 3.0 - q * (1.0 - q * q) / 2.0)
            - f01.moment(1, q, 1.0))
    sol = KinkSolution(q=q, c=c, vw=vw, orientation="increasing",
                       residuals=(res1, res2, res3))
    _check_residuals(sol)
    return sol


def _check_residuals(sol: KinkSolution) -> None:
    worst = max(abs(r) for r in sol.residuals)
    if worst >= RESIDUAL_TOL:
        raise DegenerateEnumerationError(
            f"kink solution at q={sol.q!r} has residual {worst:g}")


def _decreasing_solution(f01: PiecewisePolynomial, sol: KinkSolution) -> KinkSolution:
    """A negative-inner-weight kink from the increasing solution ``sol`` of
    the reflected target: map q -> 1-q, negate the slope and check the
    residuals against the unreflected f01."""
    q = 1.0 - sol.q
    c = sol.c
    vw = -sol.vw
    res1 = c * (1.0 - q) - f01.moment(0, q, 1.0)
    res2 = c * q - vw * q * q / 2.0 - f01.moment(0, 0.0, q)
    res3 = c * q * q / 2.0 - vw * q ** 3 / 6.0 - f01.moment(1, 0.0, q)
    mapped = KinkSolution(q=q, c=c, vw=vw, orientation="decreasing",
                          residuals=(res1, res2, res3))
    _check_residuals(mapped)
    return mapped


@dataclass(frozen=True)
class CatalogEntry:
    kind: str  # constant | affine | kink_increasing | kink_decreasing
    realization: Realization
    theta: Params
    risk: float
    grad_norm: float
    crit_class: CritClass | None
    q: float | None = None
    c: float | None = None
    vw: float | None = None


@dataclass(frozen=True)
class CriticalCatalog:
    kinks: tuple[KinkSolution, ...]
    orientations: tuple[KinkRoots, KinkRoots]  # (increasing, decreasing)
    entries: tuple[CatalogEntry, ...]  # deduplicated, sorted by risk

    def min_risk(self) -> float:
        return self.entries[0].risk


def _lift_constant(t: Target, level: float) -> Params:
    a, b = t.domain
    # kink parked right of the domain: the neuron never activates
    return Params.from_parts([1.0], [-(b + 0.5 * (b - a))], [1.0], level)


def _lift_affine(t: Target, slope: float, intercept: float) -> Params:
    a, b = t.domain
    b0 = -a + (b - a)  # active on all of [a, b] with a one-width margin
    return Params.from_parts([1.0], [b0], [slope], intercept - slope * b0)


def _lift_kink(t: Target, sol: KinkSolution) -> Params:
    a, b = t.domain
    width = b - a
    kink = a + sol.q * width
    if sol.orientation == "increasing":
        return Params.from_parts([1.0], [-kink], [sol.vw / width], sol.c)
    return Params.from_parts([-1.0], [kink], [-sol.vw / width], sol.c)


def _entry(t: Target, kind: str, theta: Params,
           sol: KinkSolution | None = None) -> CatalogEntry:
    a, b = t.domain
    g = grad(theta, t)
    gn = g.max_norm()
    if not gn < RESIDUAL_TOL:  # NaN fails too
        raise DegenerateEnumerationError(
            f"{kind} catalog lift is not critical (|grad| = {gn:g})")
    # an interior-kink width-1 network has exactly one flat
    # reparameterization direction, (w, b, v) -> (lw, lb, v/l)
    expected_corank = 1 if sol is not None else None
    try:
        report = hessian_fd(theta, t, coords="all")
        label = classify(report, gn, expected_corank=expected_corank)
    except NonsmoothPointError:
        label = None
    return CatalogEntry(
        kind=kind,
        realization=canonical(theta, a, b),
        theta=theta,
        risk=risk(theta, t),
        grad_norm=gn,
        crit_class=label,
        q=None if sol is None else sol.q,
        c=None if sol is None else sol.c,
        vw=None if sol is None else sol.vw,
    )


def enumerate_all(t: Target, dedup: float = DEDUP_DEFAULT) -> CriticalCatalog:
    """Catalog of all critical realization functions for H = 1.

    Rejects the benchmark target: its middle piece is not polynomial, so
    the finiteness hypothesis behind the enumeration does not apply.
    """
    if isinstance(t, BenchmarkTarget):
        raise FinitenessError(
            "finiteness hypothesis violated: enumeration needs a piecewise-"
            "polynomial target")
    f01 = _on_unit(t.pp, *t.domain)
    const_real = enum_constant(t)
    affine_real = enum_affine(t)
    inc = _kink_roots(f01)
    kinks = [_increasing_solution(f01, q) for q in inc.admissible]
    dec = _kink_roots(_on_unit(f01, 1.0, 0.0))
    kinks += sorted((_decreasing_solution(f01, _increasing_solution(dec.f01, q))
                     for q in dec.admissible), key=lambda s: s.q)

    slope = affine_real.slopes[0]
    intercept = affine_real.offset - slope * t.domain[0]
    entries = [_entry(t, "constant", _lift_constant(t, const_real.offset)),
               _entry(t, "affine", _lift_affine(t, slope, intercept))]
    for sol in kinks:
        entries.append(_entry(t, f"kink_{sol.orientation}", _lift_kink(t, sol), sol))

    kept: list[CatalogEntry] = []
    for e in entries:
        if all(l2_distance(e.realization, k.realization) >= dedup for k in kept):
            kept.append(e)
    kept.sort(key=lambda e: e.risk)
    return CriticalCatalog(kinks=tuple(kinks), orientations=(inc, dec),
                           entries=tuple(kept))


@dataclass(frozen=True)
class GridOracleReport:
    """Sign-change brackets of the kink residual D(q) on a uniform grid."""

    brackets: tuple[tuple[float, float], ...]
    degenerate_everywhere: bool


def _kink_residual(f01: PiecewisePolynomial, qs: np.ndarray) -> np.ndarray:
    """D(q) at sorted points qs in (0, 1), directly from target moments (see
    _kink_poly); each moment is a difference of two running integrals, as
    in ``PiecewisePolynomial.moment``."""
    ends = np.concatenate(([0.0], qs, [1.0]))
    c0 = f01.cum_moments(0, ends)
    c1 = f01.cum_moments(1, ends)
    int_0q = c0[1:-1] - c0[0]
    int_q1 = c0[-1] - c0[1:-1]
    int_q1_x = c1[-1] - c1[1:-1]
    return (1.0 - qs) ** 2 * int_0q - 2.0 * qs * ((qs + 2.0) * int_q1 - 3.0 * int_q1_x)


def grid_oracle(f01: PiecewisePolynomial) -> GridOracleReport:
    """Independent bracketing oracle for the kink equation.

    Evaluates D(q) directly from the moments of one orientation's target on
    [0, 1] (a ``KinkRoots.f01``) on a uniform grid of spacing
    ``ORACLE_RESOLUTION`` and reports the sign-change brackets; makes no use
    of the coefficient-expansion route it is meant to check.
    """
    m = int(round(1.0 / ORACLE_RESOLUTION))
    grid = np.arange(1, m) / m
    vals = _kink_residual(f01, grid)
    scale = max(1.0, f01.coeff_scale())
    if np.max(np.abs(vals)) <= 1e-12 * scale:
        return GridOracleReport(brackets=(), degenerate_everywhere=True)
    qs, vals = grid.tolist(), vals.tolist()
    brackets = []
    for q0, q1, v0, v1 in zip(qs, qs[1:], vals, vals[1:]):
        if v0 == 0.0:
            continue
        if v0 * v1 < 0.0 or (v1 == 0.0 and q1 != qs[-1]):
            brackets.append((q0, q1))
    return GridOracleReport(brackets=tuple(brackets), degenerate_everywhere=False)


def oracle_check(catalog: CriticalCatalog,
                 reports: tuple[GridOracleReport, GridOracleReport]) -> bool:
    """True iff the catalog's kink roots and the grid-oracle brackets are in
    bijection (after zero-slope exclusions) for both kink orientations.

    ``reports`` are the ``grid_oracle`` reports of the increasing and the
    decreasing ``catalog.orientations``, in that order.
    """
    resolution = ORACLE_RESOLUTION
    for report, kr in zip(reports, catalog.orientations):
        roots = kr.admissible
        if report.degenerate_everywhere:
            if roots:
                return False
            continue
        candidates = sorted(roots + kr.excluded)
        used = [False] * len(candidates)
        for lo, hi in report.brackets:
            inside = [i for i, q in enumerate(candidates)
                      if lo - resolution <= q <= hi + resolution and not used[i]]
            if not inside:
                return False
            used[inside[0]] = True
        for i, q in enumerate(candidates):
            if used[i]:
                continue
            # an unbracketed root is fine only if the residual does not
            # change sign at scan resolution (tangential or boundary root)
            if q in roots and resolution < q < 1.0 - resolution:
                lo = max(q - resolution, 1e-9)
                hi = min(q + resolution, 1.0 - 1e-9)
                v_lo, v_hi = _kink_residual(kr.f01, np.array([lo, hi]))
                if v_lo * v_hi < 0.0:
                    return False
    return True
