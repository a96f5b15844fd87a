"""Beta invariants, stability-threshold intervals, wall enumeration with
confirmation, and the named instability certificates.

For a boundary curve with coefficient c the beta of a valuation is

    beta(c) = A0 - m*c - S0*(1 - 2c)

with A0 the log discrepancy at c = 0, m the valuation's multiplicity on the
curve and S0 the c-stripped S-coefficient.  Every constraint is affine in c,
so each valuation contributes one exact rational half-line; a threshold is an
intersection of finitely many of them.

Completeness of the finite sweep: the weight-(a, b) valuation of a chart
family is a*ord_D1 + b*ord_D2 for the two invariant divisors (D1, D2) through
the torus-fixed center.  S of a toric valuation is the pairing with the
barycenter of the anticanonical polytope (Blum-Jonsson), so it is linear on
the cone of the fixed point: S0(a, b) = a*S0(D1) + b*S0(D2).  The
multiplicity is a concave piecewise-affine minimum, so for fixed c the
normalized constraint
beta(c; 1, r)/1 is piecewise affine in r = b/a.  Its infimum over r > 0 is
attained at a kink (a monomial crossing or the a = b split) or at the ends
r -> 0, infinity, and the end limits are dominated by the toric divisor
constraints.  The kink weights plus the four toric divisors therefore decide
semistability exactly; an independent piecewise check over whole r-intervals
(:func:`verify_semistable_at`) re-derives the same answer without the dominance
argument.

Each curve's stability data is computed once per process, by two
``functools.cache`` functions of the curve: ``_curve_data`` gives its toric
constraints and each chart tag's local points and kink ratios, and
``_kink_constraints`` the kink-weight constraints and their threshold.  That
is sound because all of it depends only on the immutable ``CurvePair`` (its
support on its surface) and on the engine's S-values, which are fixed; the
caches hold tuples, and callers get fresh lists.  The S-values themselves are
cached in ``volume`` (per chart model, per surface, and the published closed
forms per chart), and the local exponents per (curve, tag) in ``pairs``.

Every decision is made on integers: a wall candidate by the signs of
((a + b)q - p) and (mq - 2p) for s0 = p/q, a threshold bound -u/v as an
integer pair compared by cross-multiplying, and each beta at a rational c
after clearing its denominators (:meth:`Constraint.beta_scaled`,
:func:`verify_semistable_at`).  A ``Fraction`` is built only for a value that
is returned or printed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from typing import NamedTuple, Optional, Sequence

from . import polycheck
from .exactnum import RationalLike, SurdSum, render_fraction, render_surd
from .pairs import (
    CHART_FAMILIES,
    DIVISORS,
    PLANES,
    ChartCase,
    CurvePair,
    OnePS,
    admissible_monomials,
    chart_expand,
    chart_to_onePS,
    divisor_orders,
    lambda_weight,
    local_points,
    make_curve,
    multiplicity,
    quarter_point_order,
    toric_multiplicities,
)
from .surface import builtin_surface
from .volume import (
    fixed_divisor_s,
    s_closed_form_coefficient,
    s_engine_coefficient,
    volume_profile,
)


# ---------------------------------------------------------------------------
# beta reports


class BetaReport(NamedTuple):
    valuation: str
    a_value: Fraction
    s_value: SurdSum
    beta: SurdSum
    verdict: str  # destabilizing | critical | positive
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "valuation": self.valuation,
            "A": render_fraction(self.a_value),
            "S": render_surd(self.s_value),
            "beta": render_surd(self.beta),
            "verdict": self.verdict,
        }
        if self.note:
            out["note"] = self.note
        return out


def _verdict(beta: SurdSum) -> str:
    s = beta.sign()
    return "destabilizing" if s < 0 else ("critical" if s == 0 else "positive")


def _beta_report(name: str, a0: RationalLike, m: RationalLike, s0: RationalLike | SurdSum,
                 c, note: str = "") -> BetaReport:
    """The report of beta(c) = a0 - m*c - s0*(1 - 2c); ``s0`` may be a surd,
    as in the quarter-point certificate, so beta lies in its field."""
    c = Fraction(c)
    a = a0 - m * c
    s = SurdSum._coerce(s0) * (1 - 2 * c)
    beta = a - s
    return BetaReport(name, a, s, beta, _verdict(beta), note)


# ---------------------------------------------------------------------------
# affine constraints in c


class _ConstraintFields(NamedTuple):
    name: str
    a0: RationalLike
    m: RationalLike
    s0: Fraction
    u: Fraction
    v: Fraction


class Constraint(_ConstraintFields):
    """One valuation: beta(c) = a0 - m*c - s0*(1 - 2c) = u + v*c.

    Built from ``(name, a0, m, s0)`` with a rational ``s0``, which fixes
    ``u`` and ``v`` once, each one ``Fraction`` of integer numerator and
    denominator.  The sign of beta at a rational c is decided on integers by
    :meth:`beta_scaled`.  A wall of a chart valuation is solved directly by
    :func:`wall_from_chart`.
    """

    __slots__ = ()

    def __new__(cls, name: str, a0: RationalLike, m: RationalLike, s0: Fraction) -> Constraint:
        p, q = s0.numerator, s0.denominator
        an, ad = a0.numerator, a0.denominator
        mn, md = m.numerator, m.denominator
        return super().__new__(cls, name, a0, m, s0, Fraction(an * q - p * ad, ad * q),
                               Fraction(2 * p * md - mn * q, q * md))

    def beta_at(self, c) -> Fraction:
        return self.u + self.v * Fraction(c)

    def beta_scaled(self, n: int, d: int) -> int:
        """beta(n/d) (d > 0) times the positive integer d*den(u)*den(v): an
        integer of the sign of beta."""
        u, v = self.u, self.v
        return u.numerator * v.denominator * d + v.numerator * u.denominator * n

    def report(self, c, note: str = "") -> BetaReport:
        return _beta_report(self.name, self.a0, self.m, self.s0, c, note)


def _crossing(p: tuple[int, int], q: tuple[int, int]) -> Optional[tuple[int, int]]:
    """Primitive (a, b) > 0 with a*p[0] + b*p[1] == a*q[0] + b*q[1], if any."""
    de, df = p[0] - q[0], q[1] - p[1]
    if de == 0 or df == 0 or (de > 0) != (df > 0):
        return None
    g = gcd(de, df)
    return abs(df) // g, abs(de) // g


def chart_constraint(curve: CurvePair, chart: ChartCase) -> Constraint:
    """The chart's weighted-blowup valuation, S by volume integration."""
    m = multiplicity(chart_expand(curve, chart), chart.a, chart.b)
    return Constraint(f"{chart.tag}({chart.a},{chart.b})", chart.a + chart.b, m,
                      s_engine_coefficient(chart))


# ---------------------------------------------------------------------------
# stability thresholds


class StabilityThreshold(NamedTuple):
    lower: Optional[Fraction]  # None means unconstrained below
    upper: Optional[Fraction]  # None means unconstrained above
    classification: str  # empty | point | interval
    binding_lower: tuple[str, ...] = ()
    binding_upper: tuple[str, ...] = ()
    guarantee: str = ""

    def is_point(self, w: Fraction) -> bool:
        return self.classification == "point" and self.lower == w

    def c_range(self) -> Optional[tuple[Fraction, Fraction]]:
        """Closed bounds of the threshold's set of c in (0, 1/2); None if empty."""
        if self.classification == "empty":
            return None
        return (Fraction(0) if self.lower is None else max(self.lower, Fraction(0)),
                Fraction(1, 2) if self.upper is None else min(self.upper, Fraction(1, 2)))

    def to_json(self) -> dict:
        return {
            "lower": render_fraction(self.lower) if self.lower is not None else "-inf",
            "upper": render_fraction(self.upper) if self.upper is not None else "+inf",
            "classification": self.classification,
            "binding_lower": list(self.binding_lower),
            "binding_upper": list(self.binding_upper),
            "guarantee": self.guarantee,
        }


def _intersect(cons: Sequence[Constraint]) -> StabilityThreshold:
    """The threshold of rational constraints.  Each bound -u/v is held as an
    integer pair (n, d), d > 0, and bounds are compared by cross-multiplying;
    only the two returned bounds are built as ``Fraction``s."""
    lower: Optional[tuple[int, int]] = None
    upper: Optional[tuple[int, int]] = None
    bind_lo: list[str] = []
    bind_hi: list[str] = []
    infeasible = False
    for con in cons:
        u, v = con.u, con.v
        un, ud, vn, vd = u.numerator, u.denominator, v.numerator, v.denominator
        if vn == 0:
            if un < 0:
                infeasible = True
            continue
        if vn > 0:
            n, d = -un * vd, ud * vn
            if lower is None or n * lower[1] > lower[0] * d:
                lower, bind_lo = (n, d), [con.name]
            elif n * lower[1] == lower[0] * d:
                bind_lo.append(con.name)
        else:
            n, d = un * vd, -ud * vn
            if upper is None or n * upper[1] < upper[0] * d:
                upper, bind_hi = (n, d), [con.name]
            elif n * upper[1] == upper[0] * d:
                bind_hi.append(con.name)
    ln, ld = lower or (0, 1)
    hn, hd = upper or (1, 2)
    if infeasible or ln * hd > hn * ld or 2 * ln >= ld or hn <= 0:
        cls = "empty"
    elif lower is not None and upper is not None and ln * hd == hn * ld:
        cls = "point"
    else:
        cls = "interval"
    return StabilityThreshold(None if lower is None else Fraction(*lower),
                              None if upper is None else Fraction(*upper),
                              cls, tuple(bind_lo), tuple(bind_hi))


class _CurveData(NamedTuple):
    toric: tuple[Constraint, ...]
    charts: dict[str, tuple[tuple[tuple[int, int], ...], tuple[Fraction, ...]]]


@cache
def _curve_data(curve: CurvePair) -> _CurveData:
    """The curve's toric constraints and, per chart tag, its local points and
    kink ratios: the increasing b/a where two local exponents cross or the
    family lists a ``branch_ratios`` entry, each the weight (a, b) in lowest
    terms.
    """
    mults = toric_multiplicities(curve)
    toric = tuple(Constraint(d, 1, mults[d], s0)
                  for d, s0 in fixed_divisor_s(curve.surface).items())
    charts = {}
    for tag in PLANES[curve.surface].chart_tags:
        pts = local_points(curve, tag)
        ratios = set(CHART_FAMILIES[tag].branch_ratios)
        for k, p in enumerate(pts):
            for q in pts[k + 1:]:
                ab = _crossing(p, q)
                if ab is not None:
                    ratios.add(Fraction(ab[1], ab[0]))
        charts[tag] = (pts, tuple(sorted(ratios)))
    return _CurveData(toric, charts)


@cache
def _kink_constraints(curve: CurvePair) -> tuple[tuple[Constraint, ...], StabilityThreshold]:
    """The toric constraints, then the chart constraint at every kink weight
    (at (1, 1) for a tag without kinks), and their threshold."""
    data = _curve_data(curve)
    cons = data.toric + tuple(
        chart_constraint(curve, ChartCase(curve.surface, tag, r.denominator, r.numerator))
        for tag, (_, kinks) in data.charts.items() for r in kinks or [Fraction(1)])
    return cons, _intersect(cons)


def toric_constraints(curve: CurvePair) -> list[Constraint]:
    return list(_curve_data(curve).toric)


def all_constraints(curve: CurvePair) -> list[Constraint]:
    return list(_kink_constraints(curve)[0])


def threshold(curve: CurvePair, grid: Optional[int] = None) -> StabilityThreshold:
    """{c : beta(c) >= 0 for every swept valuation}, exact.

    The kink sweep is complete for these chart families (see module
    docstring); the optional grid sweep over all coprime a + b <= grid is a
    redundant cross-check and must never shrink the set of c in (0, 1/2).
    """
    if grid is not None and grid < 12:
        raise ValueError("grid bound must be at least 12")
    base = _kink_constraints(curve)[1]
    guarantee = "kink-complete"
    if grid is not None:
        weights = [(a, b) for a in range(1, grid) for b in range(1, grid + 1 - a)
                   if gcd(a, b) == 1]
        cons = all_constraints(curve)
        cons += [chart_constraint(curve, ChartCase(curve.surface, tag, a, b))
                 for tag in PLANES[curve.surface].chart_tags for a, b in weights]
        swept = _intersect(cons)
        if swept.c_range() != base.c_range():
            raise ArithmeticError(
                f"grid sweep tightened the kink threshold: {swept} vs {base}")
        guarantee += f"+grid({grid})"
    return base._replace(guarantee=guarantee)


# ---------------------------------------------------------------------------
# independent interval verifier


def verify_semistable_at(curve: CurvePair, c) -> tuple[bool, list[str]]:
    """Exact check that beta(c) >= 0 over all swept valuations.

    Covers the four toric divisors and, for every chart family, the full
    continuum of weight ratios r = b/a in (0, infinity) piece by piece.
    Returns (ok, failures) with witness descriptions on failure.

    Every decision is an integer sign test.  With c = cn/cd, a toric beta is
    tested by :meth:`Constraint.beta_scaled`; a chart tag's beta is
    multiplied by q*cd, q the product of the denominators of its two fixed
    S-values, so it is the integer pair (P0, P1) of P0 + r*P1 that
    ``polycheck`` tests at each kink b/a as a*P0 + b*P1 >= 0.  Only a
    failure's values are built as ``Fraction``s.
    """
    c = Fraction(c)
    cn, cd = c.numerator, c.denominator
    failures: list[str] = []
    data = _curve_data(curve)
    for con in data.toric:
        if con.beta_scaled(cn, cd) < 0:
            failures.append(f"toric {con.name}: beta({c}) = {con.beta_at(c)}")
    fixed_s = fixed_divisor_s(curve.surface)
    t = cd - 2 * cn  # cd*(1 - 2c)
    for tag, (pts, kinks) in data.charts.items():
        # S0(1, r) = S0(D1) + r*S0(D2) (module docstring), so on each interval
        # beta = k1 - e*c + r*(k2 - f*c), k_i = 1 - S0(D_i)*(1 - 2c), for the
        # local exponent (e, f) that minimizes e + probe*f; times q*cd,
        # k_i is q*cd - (q/q_i)*p_i*t and e*c is e*cn*q
        (p1, q1), (p2, q2) = ((fixed_s[d].numerator, fixed_s[d].denominator)
                              for d in CHART_FAMILIES[tag].divisors)
        q = q1 * q2
        k1, k2, cq = q * cd - q2 * p1 * t, q * cd - q1 * p2 * t, cn * q
        grid = (0, *kinks)
        for idx, lo in enumerate(grid):
            hi = grid[idx + 1] if idx + 1 < len(grid) else None
            # the probe num/den, up to a positive factor: (lo + hi)/2 or lo + 1
            if hi is not None:
                num = lo.numerator * hi.denominator + hi.numerator * lo.denominator
                den = 2 * lo.denominator * hi.denominator
            else:
                num, den = lo.numerator + lo.denominator, lo.denominator
            e, f = min(pts, key=lambda p: den * p[0] + num * p[1])
            p = (k1 - e * cq, k2 - f * cq)
            if hi is not None:
                ok, witness = polycheck.nonneg_on_interval(p, lo, hi)
            else:
                ok, witness = polycheck.nonneg_on_ray(p, lo)
            if not ok:
                failures.append(
                    f"{tag}: beta({c}) < 0 near ratio r = {witness}")
    return (not failures), failures


# ---------------------------------------------------------------------------
# wall values of chart valuations


def wall_from_chart(chart: ChartCase, m: int, source: str = "engine") -> Optional[Fraction]:
    """Exact solution of beta(w) = 0 for the chart valuation, if in (0, 1/2).

    With beta(c) = (a + b) - m*c - s0*(1 - 2c), the wall is
    w = (a + b - s0) / (m - 2*s0).  ``source`` selects the S-coefficient
    ``s0``: ``engine`` integrates the volume profile, ``published`` evaluates
    the tabulated closed forms (whose surd branches then admit no rational
    root).  With s0 = p/q the wall is ((a + b)q - p) / (mq - 2p), tested
    against (0, 1/2) on integers and built as a ``Fraction`` only when it is
    a wall.
    """
    if source == "engine":
        s0 = s_engine_coefficient(chart)
    elif source == "published":
        surd = s_closed_form_coefficient(chart)
        if not surd.is_rational():
            return None
        s0 = surd.as_fraction()
    else:
        raise ValueError(f"unknown source {source!r}")
    p, q = s0.numerator, s0.denominator
    num, den = (chart.a + chart.b) * q - p, m * q - 2 * p
    if den < 0:
        num, den = -num, -den
    return Fraction(num, den) if 0 < 2 * num < den else None


# ---------------------------------------------------------------------------
# wall candidates, confirmation and enumeration


class WallCandidate(NamedTuple):
    w: Fraction
    surface: str
    curve: CurvePair
    weight: Optional[OnePS]
    chart: Optional[ChartCase]
    m: Optional[int]
    via: str = ""

    def to_json(self) -> dict:
        out = {
            "w": render_fraction(self.w),
            "surface": self.surface,
            "curve": self.curve.to_json()["text"],
            "weight": list(self.weight) if self.weight else None,
            "via": self.via,
        }
        if self.chart is not None:
            out.update({"chart": self.chart.tag, "a": self.chart.a,
                        "b": self.chart.b, "m": self.m})
        return out


class WallRecord(NamedTuple):
    candidate: WallCandidate
    confirmed: bool
    reason: str
    binding_lower: tuple[str, ...] = ()
    binding_upper: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = self.candidate.to_json()
        out["confirmed"] = self.confirmed
        if not self.confirmed:
            out["reason"] = self.reason
        out["binding_valuations"] = sorted(set(self.binding_lower + self.binding_upper))
        return out


def confirm_wall(candidate: WallCandidate) -> WallRecord:
    """Equivariant polystability screen for a candidate wall.

    Checks, all exactly: the realizing horizontal valuation vanishes at w;
    the four invariant divisors have beta >= 0 at w; the full threshold
    degenerates to {w}; and the continuum verifier confirms semistability at
    w itself.
    """
    w = candidate.w
    wn, wd = w.numerator, w.denominator
    curve = candidate.curve
    if candidate.weight is not None and lambda_weight(curve, candidate.weight) is None:
        return WallRecord(candidate, False, "non-invariant curve")
    if candidate.chart is not None:
        horizontal = chart_constraint(curve, candidate.chart)
        if horizontal.beta_scaled(wn, wd) != 0:
            return WallRecord(candidate, False, "horizontal beta is "
                              f"{render_fraction(horizontal.beta_at(w))}, not 0")
    for con in _curve_data(curve).toric:
        if con.beta_scaled(wn, wd) < 0:
            return WallRecord(candidate, False, f"beta({con.name}) < 0 at w")
    thr = threshold(curve)
    if not thr.is_point(w):
        return WallRecord(candidate, False,
                          f"threshold is {thr.classification} "
                          f"[{thr.to_json()['lower']}, {thr.to_json()['upper']}], not {{{w}}}")
    ok, failures = verify_semistable_at(curve, w)
    if not ok:
        return WallRecord(candidate, False, "; ".join(failures))
    return WallRecord(candidate, True, "", thr.binding_lower, thr.binding_upper)


@cache
def _support_curve(surface: str, pts: tuple[tuple[int, int], ...]) -> CurvePair:
    """The curve on the sorted support ``pts``, built once per surface and support."""
    return make_curve(surface, pts, {p: "generic-nonzero" for p in pts[1:-1]})


@cache
def _candidate_supports(surface: str) -> tuple[tuple, ...]:
    """Invariant supports: maximal equal-weight sets per chart direction,
    degenerate-direction level sets, and single monomials, each support
    sorted.  They depend on the surface alone, so they are enumerated once
    per surface."""
    found = []
    monos = admissible_monomials(surface)
    orders = {p: divisor_orders(surface, *p) for p in monos}
    # the (tag, a, b, m) lines already scanned: a line fixes its support, so
    # a later pair on it would only rebuild a support already kept or refused
    lines: set[tuple[str, int, int, int]] = set()

    # chart-direction pairs
    for tag in PLANES[surface].chart_tags:
        d1, d2 = CHART_FAMILIES[tag].divisors
        local = {p: (orders[p][d1], orders[p][d2]) for p in monos}
        for k, p in enumerate(monos):
            for q in monos[k + 1:]:
                ab = _crossing(local[p], local[q])
                if ab is None:
                    continue
                a, b = ab
                m = a * local[p][0] + b * local[p][1]
                if (tag, a, b, m) in lines:
                    continue
                lines.add((tag, a, b, m))
                support = tuple(sorted(p for p in monos
                                       if a * local[p][0] + b * local[p][1] == m))
                if not quarter_point_order(surface, support):
                    found.append(("chart", tag, a, b, m, support))

    # degenerate 1-PS directions: level sets of the toric divisor orders
    emitted: set[tuple[tuple[int, int], ...]] = set()
    for d in DIVISORS:
        levels: dict[int, list[tuple[int, int]]] = {}
        for p in monos:
            levels.setdefault(orders[p][d], []).append(p)
        for support in levels.values():
            key = tuple(sorted(support))
            if key in emitted or quarter_point_order(surface, support):
                continue
            emitted.add(key)
            found.append(("degenerate", None, None, None, None, key))
    # single monomials
    for p in monos:
        key = (p,)
        if key in emitted or quarter_point_order(surface, key):
            continue
        emitted.add(key)
        found.append(("single", None, None, None, None, key))
    return tuple(found)


def enumerate_walls(surface: str, source: str = "published") -> list[WallRecord]:
    """All confirmed walls with their realizing data, sorted by wall value.

    ``source='published'`` draws chart candidates from the tabulated
    closed-form S-expressions (the published search space); ``'engine'``
    draws them from the exact volume integrals instead.  Confirmation always
    uses the exact engine machinery.
    """
    return [confirm_wall(cand) for cand in _wall_candidates(surface, source)]


def _wall_candidates(surface: str, source: str) -> list[WallCandidate]:
    """Unconfirmed wall candidates, one per (w, support), sorted by that key."""
    records: dict[tuple[Fraction, tuple[tuple[int, int], ...]], WallCandidate] = {}
    for kind, tag, a, b, m, support in _candidate_supports(surface):
        curve = _support_curve(surface, support)
        if kind == "chart":
            chart = ChartCase(surface, tag, a, b)
            w = wall_from_chart(chart, m, source=source)
            if w is None:
                continue
            key = (w, support)
            if key not in records:
                records[key] = WallCandidate(
                    w, surface, curve, chart_to_onePS(chart), chart, m, "chart")
        else:
            thr = threshold(curve)
            if thr.classification != "point":
                continue
            w = thr.lower
            assert w is not None
            key = (w, support)
            if key not in records:
                records[key] = WallCandidate(w, surface, curve, None, None, None, kind)
    return [records[key] for key in sorted(records)]


def audit_extra_walls(surface: str, published: list[WallRecord]) -> list[WallRecord]:
    """Point-threshold candidates found by the exact engine beyond the
    published enumeration ``published = enumerate_walls(surface)``.

    Every implemented check is a necessary condition for a wall; candidates
    listed here pass them all but are absent from the published wall tables
    (they live on weight branches where the tabulated S-expressions disagree
    with the exact integrals).  They are reported for audit, not asserted.
    """
    walls = {r.candidate.w for r in published if r.confirmed}
    records = (confirm_wall(cand) for cand in _wall_candidates(surface, "engine")
               if cand.w not in walls)
    return [r for r in records if r.confirmed]


# ---------------------------------------------------------------------------
# named certificates


def index3_certificate(c) -> BetaReport:
    """The index-3 degree-8 pair is destabilized by its quotient valuation qF,
    with S from the engine's ``index3m`` profile (raw integral 64/9)."""
    c = Fraction(c)
    if not 0 < c < Fraction(1, 2):
        raise ValueError("coefficient must lie in (0, 1/2)")
    prof = volume_profile(builtin_surface("index3m"))
    rep = Constraint("index3:qF", Fraction(1, 3), Fraction(2, 3), prof.s0).report(
        c, note="A = 1/3 - 2c/3, S = 8/9 (1-2c)")
    if rep.beta != Fraction(10, 9) * c - Fraction(5, 9):
        raise ArithmeticError(f"index3 certificate: beta = {rep.beta}, not 10c/9 - 5/9")
    return rep


def quotient_point_certificate(ord_f: int, c) -> BetaReport:
    """Destabilization of a pair whose branch curve meets the quarter point.

    ``ord_f`` is ord_F(C) = 3 - max z-exponent >= 1, which
    ``pairs.quarter_point_order`` reads off the curve's support, and
    A <= 1/2 - c * ord_F(C); the certificate S-value is the tabulated
    2*sqrt(2)/3 * (1-2c).  The engine's own profile on the resolution model integrates to 47/48 * (1-2c), which
    is larger, so the tabulated value destabilizes a fortiori; both are
    reported.
    """
    c = Fraction(c)
    if not 0 < c < Fraction(1, 2):
        raise ValueError("coefficient must lie in (0, 1/2)")
    if ord_f < 1:
        raise ValueError("curve misses the quarter point (ord_F(C) < 1)")
    prof = volume_profile(builtin_surface("blp114-quotient-res"))
    engine = Constraint("engine", Fraction(1, 2), Fraction(ord_f), prof.s0).report(c)
    if engine.verdict != "destabilizing":
        raise ArithmeticError("quotient-point certificate: the engine S does not destabilize")
    note = (f"ord_F(C) = {ord_f}; engine S = {render_surd(engine.s_value)} "
            f"(profile tau = {render_surd(prof.tau)}) also destabilizes")
    return _beta_report("quarter-point:F", Fraction(1, 2), Fraction(ord_f),
                        SurdSum.sqrt(2) * Fraction(2, 3), c, note)
