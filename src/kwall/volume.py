"""Radial volume profiles t -> vol(L0 - t*F), pseudo-effective thresholds,
and the S-function of invariant divisorial valuations.

Two independent routes to every S-value are kept side by side:

* :func:`s_engine` integrates the exact volume profile obtained from Zariski
  decompositions on the chart's surface model (no formula input at all);
* :func:`s_closed_form` evaluates the tabulated closed-form expressions.

The two agree on most weight branches; where they differ the engine is
authoritative and :func:`closed_form_report` spells out the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .exactnum import (
    ExactDomainError,
    PiecewiseQuadratic,
    QuadraticPoly,
    SurdSum,
    rational_or_surd,
    render_surd,
)
from .surface import SurfaceModel, Vec, builtin_surface, vsub, vscale, solve_linear

Number = Union[int, Fraction, SurdSum]


# ---------------------------------------------------------------------------
# chart taxonomy

F1_CHART_TAGS = ("case1-010", "case1-001", "case2-zu", "case2-yv")
BLP114_CHART_TAGS = ("case1p", "case2p", "case3p")

_MODEL_KIND = {
    "case1-010": "f1-case1",
    "case1-001": "f1-case1",
    "case2-zu": "f1-case2",
    "case2-yv": "f1-case2",
    "case1p": "blp114-case1p",
    "case2p": "blp114-case2p",
    "case3p": "blp114-case3p",
}


@dataclass(frozen=True)
class ChartCase:
    """A weighted-blowup chart with coprime positive weights (a, b)."""

    surface: str  # "f1" | "blp114"
    tag: str
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.surface == "f1":
            allowed = F1_CHART_TAGS
        elif self.surface == "blp114":
            allowed = BLP114_CHART_TAGS
        else:
            raise ValueError(f"unknown surface {self.surface!r}")
        if self.tag not in allowed:
            raise ValueError(f"chart {self.tag!r} is not valid on {self.surface}")
        from math import gcd
        if self.a <= 0 or self.b <= 0:
            raise ValueError("chart weights must be positive")
        if gcd(self.a, self.b) != 1:
            raise ValueError("chart weights must be coprime")

    @property
    def model_kind(self) -> str:
        return _MODEL_KIND[self.tag]

    def model(self) -> SurfaceModel:
        return _chart_model(self.model_kind, self.a, self.b)


def _chart_model(kind: str, a: int, b: int, _cache: dict = {}) -> SurfaceModel:
    key = (kind, a, b)
    if key not in _cache:
        _cache[key] = builtin_surface(kind, a, b)
    return _cache[key]


# ---------------------------------------------------------------------------
# volume profiles


@dataclass
class SProfile:
    """Exact volume profile of L0 - t*F together with its normalization."""

    model_name: str
    f_name: str
    profile: PiecewiseQuadratic
    raw_integral: SurdSum
    degree: Fraction

    @property
    def tau(self) -> SurdSum:
        return self.profile.tau

    def s_at(self, c: Fraction) -> SurdSum:
        c = Fraction(c)
        return self.raw_integral * (Fraction(1) - 2 * c) / self.degree

    def to_json(self, c: Optional[Fraction] = None) -> dict:
        out = {
            "model": self.model_name,
            "valuation": self.f_name,
            "segments": [
                {
                    "from": render_surd(self.profile.breakpoints[k]),
                    "to": render_surd(self.profile.breakpoints[k + 1]),
                    "poly": [str(x) for x in seg.coeffs()],
                }
                for k, seg in enumerate(self.profile.segments)
            ],
            "tau": render_surd(self.profile.tau),
            "raw_integral": render_surd(self.raw_integral),
        }
        if c is not None:
            out["s_at_c"] = render_surd(self.s_at(c))
        return out


def volume_profile(model: SurfaceModel, l0: Optional[Vec] = None,
                   f: Optional[Union[str, Vec]] = None) -> SProfile:
    """Exact piecewise-quadratic vol(l0 - t*f) on [0, tau].

    ``l0`` defaults to the model's anticanonical class and must be nef and
    big; ``f`` defaults to the model's distinguished exceptional class and
    may be a cone-generator name or an explicit class.
    """
    if l0 is None:
        l0 = model.anticanonical
    if f is None:
        if model.exceptional is None:
            raise ValueError(f"{model.name}: no default exceptional class")
        f = model.exceptional
    if isinstance(f, str):
        f_name = f
        f_vec = model.cone_class(f)
    else:
        f_name, f_vec = "custom", f
    table = _pairing_table(model, l0, f_vec)
    if any(x < 0 for x in table.l0_row):
        raise ExactDomainError(f"{model.name}: profile origin class is not nef")
    if table.l0_l0 <= 0:
        raise ExactDomainError(f"{model.name}: profile origin class is not big")

    t_cur = Fraction(0)
    breakpoints: list[Number] = [t_cur]
    segments: list[QuadraticPoly] = []
    seg = _segment(table, [], t_cur)

    for _ in range(8 * len(model.cone) + 8):
        quad = seg.quad
        if quad(t_cur) < 0:
            raise ArithmeticError(f"{model.name}: negative volume at t={t_cur}")
        next_support = min(seg.events) if seg.events else None
        vol_root = seg.vol_root
        if vol_root is None and next_support is None:
            raise ArithmeticError(f"{model.name}: volume never reaches zero")
        if vol_root is not None and (next_support is None or vol_root <= next_support):
            breakpoints.append(vol_root)
            segments.append(quad)
            profile = PiecewiseQuadratic(breakpoints, segments)
            profile.check_continuity()
            raw = profile.integrate(0, vol_root)
            return SProfile(model.name, f_name, profile, raw, model.degree)

        assert next_support is not None
        breakpoints.append(next_support)
        segments.append(quad)
        joining = [j for j, (slope, value) in seg.pairings.items()
                   if slope > 0 and value == next_support * slope]
        leaving = [i for i, (x0, x1) in seg.xs.items()
                   if x1 < 0 and x0 == next_support * (-x1)]
        support = sorted((set(seg.xs) | set(joining)) - set(leaving))
        t_cur = next_support

        # validate the upcoming segment at an interior rational point;
        # on failure recompute the support from an honest decomposition
        seg = _segment(table, support, t_cur)
        sample = (t_cur + _next_event_bound(seg)) / 2
        if not _segment_valid(seg, sample):
            z = model.zariski_decompose(
                vsub(l0, vscale(sample, f_vec)))
            support = sorted(i for i, (n, _) in enumerate(model.cone)
                             if n in z.support_names)
            seg = _segment(table, support, t_cur)
    raise ArithmeticError(f"{model.name}: profile sweep did not terminate")


@dataclass(frozen=True)
class _PairingTable:
    """Every intersection number one profile sweep needs.

    ``gram[i][j] = C_i.C_j`` over the cone generators, ``l0_row[j] = l0.C_j``
    and ``f_row[j] = f.C_j``.  On a fixed support every pairing of
    ``P(t) = l0 - t*f - sum x_i(t) C_i`` is a combination of these numbers.
    """

    name: str
    gram: list[list[Fraction]]
    l0_row: list[Fraction]
    f_row: list[Fraction]
    l0_l0: Fraction
    l0_f: Fraction
    f_f: Fraction


def _pairing_table(model: SurfaceModel, l0: Vec, f_vec: Vec) -> _PairingTable:
    gens = [c for _, c in model.cone]
    n = len(gens)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = model.intersect(gens[i], gens[j])
    return _PairingTable(
        model.name, gram,
        [model.intersect(l0, c) for c in gens],
        [model.intersect(f_vec, c) for c in gens],
        model.intersect(l0, l0), model.intersect(l0, f_vec),
        model.intersect(f_vec, f_vec))


@dataclass(frozen=True)
class _Segment:
    """Sweep data of one support set, from ``t_cur`` on.

    ``xs[i] = (x0_i, x1_i)`` gives the coefficient ``x0_i + t*x1_i`` of each
    support generator in ``N(t)``; ``pairings[j] = (slope, value)`` gives
    ``P(t).C_j = value - t*slope`` for each generator outside the support
    (support generators pair to 0); ``events`` are the parameters after
    ``t_cur`` where one of those pairings or coefficients reaches zero;
    ``vol_root`` is the first root of ``P(t)^2`` after ``t_cur``.
    """

    t_cur: Fraction
    xs: dict[int, tuple[Fraction, Fraction]]
    quad: QuadraticPoly
    pairings: dict[int, tuple[Fraction, Fraction]]
    events: list[Fraction]
    vol_root: Optional[Union[Fraction, SurdSum]]


def _segment(table: _PairingTable, support: list[int], t_cur: Fraction) -> _Segment:
    gram = table.gram
    r0 = [table.l0_row[i] for i in support]
    r1 = [table.f_row[i] for i in support]
    if support:
        block = [[gram[i][j] for j in support] for i in support]
        x0 = solve_linear(block, r0)
        x1 = solve_linear(block, r1)
        if x0 is None or x1 is None:
            raise ArithmeticError(f"{table.name}: singular support Gram block")
    else:
        x0, x1 = [], []
    # x(t) = x0 - t*x1 solves Gram x = (l0 - t f).C on the support, so
    # P(t) = p0 - t*p1 with p0 = l0 - sum x0_i C_i, p1 = f - sum x1_i C_i;
    # by Gram x0 = r0 and Gram x1 = r1:
    # p0.p0 = l0.l0 - x0.r0, p0.p1 = l0.f - x0.r1, p1.p1 = f.f - x1.r1
    p00 = table.l0_l0 - sum(a * r for a, r in zip(x0, r0))
    p01 = table.l0_f - sum(a * r for a, r in zip(x0, r1))
    p11 = table.f_f - sum(a * r for a, r in zip(x1, r1))
    quad = QuadraticPoly(p11, -2 * p01, p00)
    xs = {i: (a0, -a1) for i, a0, a1 in zip(support, x0, x1)}
    pairings = {}
    for j, row in enumerate(gram):
        if j not in xs:
            pairings[j] = (table.f_row[j] - sum(a * row[i] for i, a in zip(support, x1)),
                           table.l0_row[j] - sum(a * row[i] for i, a in zip(support, x0)))
    roots = [value / slope for slope, value in pairings.values() if slope > 0]
    roots += [a0 / (-a1) for a0, a1 in xs.values() if a1 < 0]
    events = [r for r in roots if r > t_cur]
    vol_root = next((r for r in map(rational_or_surd, quad.real_roots()) if r > t_cur), None)
    return _Segment(t_cur, xs, quad, pairings, events, vol_root)


def _next_event_bound(seg: _Segment) -> Fraction:
    """A rational after ``seg.t_cur``, no later than the segment's end."""
    cands = list(seg.events)
    r = seg.vol_root
    if isinstance(r, Fraction):
        cands.append(r)
    elif r is not None:
        lo, _ = r.enclosure(64)
        if lo > seg.t_cur:
            cands.append(lo)
    return min(cands) if cands else seg.t_cur + 1


def _segment_valid(seg: _Segment, sample: Fraction) -> bool:
    """Whether ``P(sample)`` is nef and ``N(sample)`` effective on the support."""
    return (all(x0 + x1 * sample >= 0 for x0, x1 in seg.xs.values())
            and all(value - sample * slope >= 0 for slope, value in seg.pairings.values()))


# ---------------------------------------------------------------------------
# S-functions of chart valuations


_raw_cache: dict[tuple[str, int, int], SurdSum] = {}


def s_engine_raw(chart: ChartCase) -> SurdSum:
    """Integral of the volume profile of the chart valuation (c-independent)."""
    key = (chart.model_kind, chart.a, chart.b)
    if key not in _raw_cache:
        profile = volume_profile(chart.model())
        _raw_cache[key] = profile.raw_integral
    return _raw_cache[key]


def s_engine(chart: ChartCase, c: Fraction) -> SurdSum:
    """S-value by direct volume integration: raw * (1 - 2c) / degree."""
    c = Fraction(c)
    return s_engine_raw(chart) * (1 - 2 * c) / Fraction(8)


def s_engine_coefficient(chart: ChartCase) -> SurdSum:
    """S with the (1-2c) factor stripped: s_engine(c) = coeff * (1-2c)."""
    return s_engine_raw(chart) / Fraction(8)


def reference_raw(chart: ChartCase) -> Fraction:
    """Independently derived closed form of the engine integral.

    Every chart family turns out affine in the weights with no branch
    splits; the splits in the tabulated formulas are artifacts of
    incomplete curve-cone data (checked against lattice-point slicing of
    the anticanonical polytope).
    """
    a, b = Fraction(chart.a), Fraction(chart.b)
    tag = chart.tag
    if tag in ("case1-010", "case1-001"):
        return (20 * a + 26 * b) / 3
    if tag in ("case2-zu", "case2-yv"):
        return (28 * a + 26 * b) / 3
    if tag == "case1p":
        return (83 * a + 106 * b) / 6
    if tag == "case2p":
        return (83 * a + 25 * b) / 6
    if tag == "case3p":
        return (82 * a + 25 * b) / 6
    raise ValueError(tag)


def s_closed_form(chart: ChartCase, c: Fraction) -> SurdSum:
    """Tabulated closed-form S-value, exact branch selection included."""
    return s_closed_form_coefficient(chart) * SurdSum.rational(1 - 2 * Fraction(c))


def s_closed_form_coefficient(chart: ChartCase) -> SurdSum:
    """Closed-form S with the (1-2c) factor stripped."""
    a, b = Fraction(chart.a), Fraction(chart.b)
    tag = chart.tag
    if tag in ("case1-010", "case1-001"):
        if b < a:
            coeff = SurdSum.rational(a + b - b * b / (12 * a))
        else:
            coeff = SurdSum.rational((13 * a + 10 * b) / 12)
    elif tag in ("case2-zu", "case2-yv"):
        coeff = SurdSum.rational((14 * a + 13 * b) / 12)
    elif tag == "case1p":
        coeff = SurdSum.rational((106 * b + 83 * a) / 48)
    elif tag == "case2p":
        if b < 3 * a:
            coeff = (SurdSum.sqrt(a * (a + b)) * 18
                     - Fraction(b + 26 * a, 3)) / Fraction(8)
        else:
            coeff = SurdSum.rational((25 * b + 83 * a) / 48)
    elif tag == "case3p":
        if b < 3 * a:
            coeff = (SurdSum.sqrt(a * (4 * a - b)) * 4
                     + 72 * a + 27 * b) / Fraction(48)
        elif b < 4 * a:
            coeff = SurdSum.rational((82 * a + 25 * b) / 48)
        else:
            coeff = (SurdSum.sqrt(b * (b - 3 * a)) * 2
                     + 110 * b + 375 * a) / Fraction(216)
    else:
        raise ValueError(tag)
    return coeff


def closed_form_matches_engine(chart: ChartCase) -> bool:
    """Whether the tabulated formula branch agrees with the engine."""
    return s_closed_form(chart, Fraction(0)) == SurdSum._coerce(s_engine_coefficient(chart))


def closed_form_report(chart: ChartCase) -> dict:
    """Engine-vs-closed-form comparison record for one chart."""
    engine = s_engine_coefficient(chart)
    formula = s_closed_form(chart, Fraction(0))
    return {
        "chart": {"surface": chart.surface, "tag": chart.tag, "a": chart.a, "b": chart.b},
        "engine": render_surd(engine),
        "closed_form": render_surd(formula),
        "match": engine == formula,
    }


# ---------------------------------------------------------------------------
# fixed invariant divisors


def fixed_divisor_s(surface: str) -> dict[str, Fraction]:
    """S-coefficients of the four toric divisors (times (1-2c)).

    The blown-up point is [1,0,0] throughout, so on the plane model H_x is
    the invariant line missing the center.
    """
    if surface == "f1":
        return {"H_x": Fraction(5, 6), "H_y": Fraction(13, 12),
                "H_z": Fraction(13, 12), "E": Fraction(7, 6)}
    if surface == "blp114":
        return {"H_x": Fraction(41, 24), "H_y": Fraction(53, 24),
                "H_z": Fraction(25, 48), "E": Fraction(83, 48)}
    raise ValueError(f"unknown surface {surface!r}")


def fixed_divisor_profile(surface: str, divisor: str) -> SProfile:
    """Volume profile of -K - t*D for a named toric divisor class."""
    model = builtin_surface(surface)
    return volume_profile(model, f=_named_vec(model, divisor))


def _named_vec(model: SurfaceModel, name: str):
    if name in model.classes:
        return model.classes[name]
    return model.cone_class(name)
