"""Finite enumeration of critical realization functions for width-1 networks.

For a continuous piecewise-polynomial target on [a, b] the zeros of the
generalized gradient realize only finitely many functions, split into four
structural cases: constant, affine, single kink with positive inner weight
(flat left of the kink) and single kink with negative inner weight (flat
right of it).  The lifts ``_lift_constant`` and ``_lift_affine`` fit the
first two by moments.  The kink cases reduce to real roots of an explicit
polynomial in the kink position, decided exactly: every double is a
rational with a power-of-two denominator, so on a fine enough integer grid
the target's running integrals, and with them the kink equation, have
integer coefficients (``_grid_moments``, ``_kink_equations``), and integer
Sturm counts isolate its roots.
On the same grid a root is excluded by a zero slope when it is a root of
gcd(D, Z), Z the zero-slope numerator; a root whose q rounds to 0.0 or
1.0 is a boundary kink; roots with the same q are one.  A kink entry is
never affine, and the affine entry is left out when its slope is exactly
0 on the same grid, so the catalog lists each realization once.
``enumerate_all`` normalizes the target to [0, 1] once and reflects it
once; per orientation it isolates the roots and runs ``grid_oracle`` once,
a float scan of D(q) at all grid points from the normalized target's
running integrals (``cum_moments``) that never expands D in q, and
``oracle_check`` matches the scan's brackets against the exact roots,
which come from the target's own doubles: an error in either route cannot
hide in both.  Both decide a decreasing kink as the mirrored target's
increasing kink: the exact route on the grid of f(-x), which holds f's own
doubles, and the float route and each kink's residuals on f reflected on [0, 1].
The catalog is the width-1 certificate: a lift check that misses
``RESIDUAL_TOL`` is a recorded failure, not an exception.  It raises
``DomainError`` only on the benchmark target and where the input breaks
the hypotheses: an affine moment determinant that is not negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NonsmoothPointError
from .landscape import CritClass, classify, grad, hessian_fd, risk
from .network import Params, Realization, canonical
from .polyalg import (PiecewisePolynomial, _divexact, _eval_asc, _gcd, reparametrize,
                      roots_in)
from .target import BenchmarkTarget, Target

__all__ = ["KinkSolution", "KinkRoots", "CatalogEntry", "CriticalCatalog", "GridOracleReport",
           "enumerate_all", "grid_oracle", "oracle_check"]

RESIDUAL_TOL = 1e-9
ORACLE_RESOLUTION = 1e-3


@dataclass(frozen=True)
class KinkSolution:
    """Normalized single-kink critical data: kink q in (0,1), flat-side
    level c, active-side slope vw != 0, and orientation of the inner
    weight ('increasing' = flat left of q, 'decreasing' = flat right).
    The residuals are taken where it was solved: the reflected target for
    a decreasing kink."""

    q: float
    c: float
    vw: float
    orientation: str
    residuals: tuple[float, float, float]


@dataclass(frozen=True)
class GridOracleReport:
    """Sign-change brackets of the kink residual D(q) on a uniform grid."""

    brackets: tuple[tuple[float, float], ...]
    degenerate_everywhere: bool


@dataclass(frozen=True)
class KinkRoots:
    """One kink orientation's roots: the target on [0, 1] (reflected for the
    decreasing orientation), the admissible kink positions in that
    orientation's own q, the roots excluded by a zero slope, and the grid
    oracle's report on that target."""

    f01: PiecewisePolynomial
    admissible: tuple[float, ...]
    excluded: tuple[float, ...]
    oracle: GridOracleReport


def _on_unit(pp: PiecewisePolynomial, lo: float, hi: float) -> PiecewisePolynomial:
    """u -> pp(lo + (hi - lo) u) on [0, 1], where lo and hi are pp's domain
    ends (swapped to reflect).  The mapped ends are snapped to 0 and 1."""
    out = reparametrize(pp, hi - lo, lo)
    return PiecewisePolynomial((0.0, *out.breakpoints[1:-1], 1.0), out.pieces)


@dataclass(frozen=True)
class _GridMoments:
    """A piecewise polynomial's running integrals, exact in integers, on the
    grid v = (x - lo) * 2**E: 2**E is a common denominator of the breakpoints,
    raised until the span S has at least 2**64 cells.  On piece j, p0[j] and
    p1[j] are integer polynomials in v, one positive multiple of int_0^v H
    and of int_0^v w H(w) dw, where H(v) is a positive multiple of
    pp(lo + v / 2**E); t0 and t1 are their values at S."""

    cuts: tuple[int, ...]  # the breakpoints on the grid, 0 to S
    p0: tuple[list[int], ...]
    p1: tuple[list[int], ...]
    t0: int
    t1: int


def _grid_moments(pp: PiecewisePolynomial) -> _GridMoments:
    ratios = [x.as_integer_ratio() for x in pp.breakpoints]
    e = max(den.bit_length() for _, den in ratios) - 1
    cuts = [(num << e) // den for num, den in ratios]
    extra = max(0, 65 - (cuts[-1] - cuts[0]).bit_length())
    e += extra
    u0 = cuts[0] << extra
    cuts = [(c << extra) - u0 for c in cuts]
    coeffs = [[c.as_integer_ratio() for c in p.coeffs] for p in pp.pieces]
    alpha = max((den.bit_length() - 1 for cs in coeffs for _, den in cs), default=0)
    deg = max(len(cs) for cs in coeffs) - 1
    lcm = math.lcm(*range(1, deg + 3))
    p0s, p1s, t0, t1 = [], [], 0, 0
    for cs, v0, v1 in zip(coeffs, cuts, cuts[1:]):
        # H(v) = sum_k a_k 2**(alpha + e (deg - k)) (u0 + v)**k
        scaled = [(num << (alpha + e * (deg - k))) // den for k, (num, den) in enumerate(cs)]
        h = [sum(a * math.comb(k, i) * u0 ** (k - i) for k, a in enumerate(scaled) if k >= i)
             for i in range(len(scaled))]
        b0 = [0] + [lcm * c // (i + 1) for i, c in enumerate(h)]
        b1 = [0, 0] + [lcm * c // (i + 2) for i, c in enumerate(h)]
        p0s.append([t0 - _eval_asc(b0, v0)] + b0[1:])
        p1s.append([t1 - _eval_asc(b1, v0)] + b1[1:])
        t0, t1 = _eval_asc(p0s[-1], v1), _eval_asc(p1s[-1], v1)
    return _GridMoments(tuple(cuts), tuple(p0s), tuple(p1s), t0, t1)


def _combine(*terms: tuple[list[int], list[int]]) -> list[int]:
    """The sum of the products a * b of integer polynomials, trailing zeros
    stripped."""
    out = [0] * max(len(a) + len(b) - 1 for a, b in terms)
    for a, b in terms:
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _kink_equations(g: _GridMoments) -> list[list[int]]:
    """Per piece, a positive multiple of the increasing orientation's D (see
    ``_kink_residual``) as an integer polynomial in v, q = v / S:
    D(v) = (S - v)**2 P0 - 2v ((v + 2S)(T0 - P0) - 3 (T1 - P1)).
    On the mirrored target's grid it is the decreasing orientation's D."""
    S = g.cuts[-1]
    out = []
    for p0, p1 in zip(g.p0, g.p1):
        r0 = [g.t0 - p0[0]] + [-c for c in p0[1:]]
        r1 = [g.t1 - p1[0]] + [-c for c in p1[1:]]
        out.append(_combine(([S * S, -2 * S, 1], p0), ([0, -4 * S, -2], r0), ([0, 6], r1)))
    return out


def _kink_roots(g: _GridMoments) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Roots of the kink equation in (0,1), decided exactly on g's grid:
    the admissible kink positions and those excluded by a vanishing slope,
    each sorted.  On the mirrored target's grid they are the decreasing
    ones, and the piece j named below counts the mirrored target's pieces."""
    S = g.cuts[-1]
    last = len(g.cuts) - 2
    admissible, excluded = set(), set()
    for j, D in enumerate(_kink_equations(g)):
        if not D:  # only where f is its mean T0: every q there has vw = 0
            continue
        # D always vanishes at q = 0 and doubly at q = 1; those structural
        # roots are the constant/affine cases in disguise
        if j == 0:
            D = _divexact(D, [0, 1])
        if j == last:
            D = _divexact(D, [S * S, -2 * S, 1])
        lo, hi = g.cuts[j], g.cuts[j + 1]
        cells = roots_in(D, lo, hi)
        # a zero-slope root is a common root of D and the zero-slope
        # numerator q T0 - int_0^q f, up to sign and scale
        G = _gcd(D, _combine(([0, g.t0], [1]), ([-S], g.p0[j]))) if cells else []
        zero_slope = roots_in(G, lo, hi) if len(G) > 1 else []
        for a, b in cells:
            q = (a + b) / (2 * S)
            if 0.0 < q < 1.0:
                (excluded if (a, b) in zero_slope else admissible).add(q)
    return tuple(sorted(admissible)), tuple(sorted(excluded))


def _held(failures: list[str], worst: float, message: str) -> bool:
    """worst < RESIDUAL_TOL (NaN misses); a miss joins failures."""
    if worst < RESIDUAL_TOL:
        return True
    failures.append(f"{message} {worst:g}")
    return False


def _increasing_solution(f01: PiecewisePolynomial, q: float, failures: list[str],
                         reflected: bool = False) -> KinkSolution:
    """The positive-inner-weight kink at q; when f01 is the reflected
    target, a miss names the decreasing kink at 1 - q that it yields."""
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
    sol = KinkSolution(q=q, c=c, vw=vw, orientation="increasing", residuals=(res1, res2, res3))
    name = (f"kink_decreasing at q={1.0 - q!r} on the reflected target" if reflected
            else f"kink_increasing at q={q!r}")
    _held(failures, max(map(abs, sol.residuals)), f"{name} has residual")
    return sol


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
    """The width-1 certificate: ``passed`` iff the grid oracle agrees with
    the roots (``oracle_ok``) and no lift check missed ``RESIDUAL_TOL``."""

    kinks: tuple[KinkSolution, ...]
    orientations: tuple[KinkRoots, KinkRoots]  # (increasing, decreasing)
    entries: tuple[CatalogEntry, ...]  # distinct realizations, sorted by risk
    oracle_ok: bool
    failures: tuple[str, ...]  # each missed lift check, in the order checked

    @property
    def passed(self) -> bool:
        return self.oracle_ok and not self.failures


def _lift_constant(t: Target) -> Params:
    """The constant critical realization, the target's mean, at width 1."""
    a, b = t.domain
    mean = (t.end_ints[1][0] - t.end_ints[0][0]) / (b - a)
    # kink parked right of the domain: the neuron never activates
    return Params.from_parts([1.0], [-(b + 0.5 * (b - a))], [1.0], mean)


def _lift_affine(t: Target) -> Params:
    """The critical realization affine on the whole interval, at width 1.

    Matching the zeroth and first moments of the target gives a 2x2 linear
    system for (slope, intercept) whose determinant is -(b-a)^4/12; in
    floats it underflows to 0 on a width of 1e-100, which is degenerate.
    """
    a, b = t.domain
    m0 = b - a
    m1 = (b * b - a * a) / 2.0
    m2 = (b ** 3 - a ** 3) / 3.0
    (Fa, Ga), (Fb, Gb) = t.end_ints
    f0 = Fb - Fa
    f1 = Gb - Ga
    det = m1 * m1 - m0 * m2  # = -(b-a)^4 / 12
    if not det < 0.0:
        raise DomainError(
            f"affine catalog lift is degenerate (moment determinant {det:g})")
    slope = (f0 * m1 - f1 * m0) / det
    intercept = (f1 * m1 - f0 * m2) / det
    b0 = -a + (b - a)  # active on all of [a, b] with a one-width margin
    return Params.from_parts([1.0], [b0], [slope], intercept - slope * b0)


def _lift_kink(t: Target, sol: KinkSolution) -> Params:
    a, b = t.domain
    width = b - a
    kink = a + sol.q * width
    if sol.orientation == "increasing":
        return Params.from_parts([1.0], [-kink], [sol.vw / width], sol.c)
    return Params.from_parts([-1.0], [kink], [-sol.vw / width], sol.c)


def _entry(t: Target, kind: str, theta: Params, failures: list[str],
           sol: KinkSolution | None = None) -> CatalogEntry:
    gn = grad(theta, t).max_norm()
    label = None
    # only a critical lift has a Hessian to classify
    at = "" if sol is None else f" at q={sol.q!r}"
    if _held(failures, gn, f"{kind} catalog lift{at} is not critical: |grad| ="):
        # an interior-kink width-1 network has exactly one flat
        # reparameterization direction, (w, b, v) -> (lw, lb, v/l)
        try:
            label = classify(hessian_fd(theta, t, coords="all"), gn,
                             expected_corank=None if sol is None else 1)
        except NonsmoothPointError:
            pass
    return CatalogEntry(kind=kind, realization=canonical(theta, *t.domain), theta=theta,
                        risk=risk(theta, t), grad_norm=gn, crit_class=label,
                        q=sol and sol.q, c=sol and sol.c, vw=sol and sol.vw)


def enumerate_all(t: Target) -> CriticalCatalog:
    """Catalog of all critical realization functions for H = 1, with its
    verdict.

    Rejects the benchmark target: its middle piece is not polynomial, so
    the finiteness hypothesis behind the enumeration does not apply.
    """
    if isinstance(t, BenchmarkTarget):
        raise DomainError(
            "finiteness hypothesis violated: enumeration needs a piecewise-"
            "polynomial target")
    f01 = _on_unit(t.pp, *t.domain)
    g = _grid_moments(t.pp)
    failures: list[str] = []
    inc = KinkRoots(f01, *_kink_roots(g), grid_oracle(f01))
    kinks = [_increasing_solution(f01, q, failures) for q in inc.admissible]
    r01 = _on_unit(f01, 1.0, 0.0)
    dec = KinkRoots(r01, *_kink_roots(_grid_moments(reparametrize(t.pp, -1.0, 0.0))),
                    grid_oracle(r01))
    reflected = [_increasing_solution(r01, q, failures, True) for q in dec.admissible]
    kinks += sorted((replace(s, q=1.0 - s.q, vw=-s.vw, orientation="decreasing")
                     for s in reflected), key=lambda s: s.q)

    entries = [_entry(t, "constant", _lift_constant(t), failures)]
    # the affine fit is the constant iff int (x - m) f = 0, m the midpoint
    if 2 * g.t1 != g.cuts[-1] * g.t0:
        entries.append(_entry(t, "affine", _lift_affine(t), failures))
    for sol in kinks:
        entries.append(_entry(t, f"kink_{sol.orientation}", _lift_kink(t, sol), failures, sol))
    entries.sort(key=lambda e: e.risk)  # stable: ties keep this order
    return CriticalCatalog(kinks=tuple(kinks), orientations=(inc, dec),
                           entries=tuple(entries), oracle_ok=oracle_check((inc, dec)),
                           failures=tuple(failures))


def _kink_residual(f01: PiecewisePolynomial, qs: np.ndarray) -> np.ndarray:
    """D(q) = (1-q)^2 int_0^q f - 2q int_q^1 (q + 2 - 3x) f(x) dx at sorted
    points qs in (0, 1), directly from target moments; each moment is a
    difference of two running integrals, as in ``PiecewisePolynomial.moment``."""
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
    if np.max(np.abs(vals)) <= 1e-12 * f01.coeff_scale():
        return GridOracleReport(brackets=(), degenerate_everywhere=True)
    qs, vals = grid.tolist(), vals.tolist()
    brackets = []
    for q0, q1, v0, v1 in zip(qs, qs[1:], vals, vals[1:]):
        if v0 == 0.0:
            continue
        if v0 * v1 < 0.0 or (v1 == 0.0 and q1 != qs[-1]):
            brackets.append((q0, q1))
    return GridOracleReport(brackets=tuple(brackets), degenerate_everywhere=False)


def oracle_check(orientations: tuple[KinkRoots, KinkRoots]) -> bool:
    """True iff each orientation's kink roots and its grid-oracle brackets
    are in bijection (after zero-slope exclusions)."""
    resolution = ORACLE_RESOLUTION
    for kr in orientations:
        roots = kr.admissible
        if kr.oracle.degenerate_everywhere:
            if roots:
                return False
            continue
        candidates = sorted(roots + kr.excluded)
        used = [False] * len(candidates)
        for lo, hi in kr.oracle.brackets:
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
