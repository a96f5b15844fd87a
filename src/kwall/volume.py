"""Radial volume profiles t -> vol(L0 - t*F), pseudo-effective thresholds,
and the S-function of invariant divisorial valuations.

Two independent routes to every chart S-coefficient (S with the (1 - 2c)
factor stripped) are kept side by side:

* :func:`s_engine_coefficient` integrates the exact volume profile from
  Zariski decompositions on the chart's surface model (no formula input);
* :func:`s_closed_form_coefficient` evaluates the tabulated closed forms.

The two agree on most weight branches; where they differ the engine is
authoritative, and ``kwall sfun`` prints both values side by side.
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
from .pairs import DIVISORS, ChartCase
from .surface import DEGREE, SurfaceModel, Vec, builtin_surface, vsub, vscale, solve_linear

Number = Union[int, Fraction, SurdSum]


# ---------------------------------------------------------------------------
# volume profiles


@dataclass
class SProfile:
    """Exact volume profile of L0 - t*F and its integral."""

    model_name: str
    f_name: str
    profile: PiecewiseQuadratic
    raw_integral: SurdSum

    @property
    def tau(self) -> SurdSum:
        return self.profile.tau

    @property
    def s0(self) -> SurdSum:
        """S with the (1 - 2c) factor stripped: the integral over the degree."""
        return self.raw_integral / DEGREE

    def s_at(self, c: Fraction) -> SurdSum:
        return self.s0 * (1 - 2 * Fraction(c))

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
        next_support = min(seg.events.values()) if seg.events else None
        vol_root = seg.vol_root
        if vol_root is None and next_support is None:
            raise ArithmeticError(f"{model.name}: volume never reaches zero")
        if vol_root is not None and (next_support is None or vol_root <= next_support):
            breakpoints.append(vol_root)
            segments.append(quad)
            profile = PiecewiseQuadratic(breakpoints, segments)
            profile.check_continuity()
            raw = profile.integrate(0, vol_root)
            return SProfile(model.name, f_name, profile, raw)

        assert next_support is not None
        breakpoints.append(next_support)
        segments.append(quad)
        # the generators whose event this is: one outside the support joins
        # it, one in the support leaves
        hits = {k for k, r in seg.events.items() if r == next_support}
        support = sorted(set(seg.xs) ^ hits)
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
    return _PairingTable(
        model.name, model.cone_gram(),
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
    (support generators pair to 0); ``events[k]`` is the parameter after
    ``t_cur`` where generator k's pairing (outside the support) or
    coefficient (in it) reaches zero; ``vol_root`` is the first root of
    ``P(t)^2`` after ``t_cur``.
    """

    t_cur: Fraction
    xs: dict[int, tuple[Fraction, Fraction]]
    quad: QuadraticPoly
    pairings: dict[int, tuple[Fraction, Fraction]]
    events: dict[int, Fraction]
    vol_root: Optional[Union[Fraction, SurdSum]]


def _segment(table: _PairingTable, support: list[int], t_cur: Fraction) -> _Segment:
    """Sweep data of ``support`` from ``t_cur`` on: one elimination of the
    support Gram block solves for the l0 and f rows together, and one pass
    over the generators gives every pairing and event."""
    gram = table.gram
    # x(t) = x0 - t*x1 solves Gram x = (l0 - t f).C on the support, so
    # P(t) = p0 - t*p1 with p0 = l0 - sum x0_i C_i, p1 = f - sum x1_i C_i;
    # by Gram x0 = r0 and Gram x1 = r1:
    # p0.p0 = l0.l0 - x0.r0, p0.p1 = l0.f - x0.r1, p1.p1 = f.f - x1.r1
    p00, p01, p11 = table.l0_l0, table.l0_f, table.f_f
    xs: dict[int, tuple[Fraction, Fraction]] = {}
    events: dict[int, Fraction] = {}
    x0: list[Fraction] = []
    x1: list[Fraction] = []
    if support:
        r0 = [table.l0_row[i] for i in support]
        r1 = [table.f_row[i] for i in support]
        sols = solve_linear([[gram[i][j] for j in support] for i in support], r0, r1)
        if sols is None:
            raise ArithmeticError(f"{table.name}: singular support Gram block")
        x0, x1 = sols
        for i, a0, a1, b0, b1 in zip(support, x0, x1, r0, r1):
            p00 -= a0 * b0
            p01 -= a0 * b1
            p11 -= a1 * b1
            xs[i] = (a0, -a1)
            if a1 > 0:
                r = a0 / a1
                if r > t_cur:
                    events[i] = r
    quad = QuadraticPoly(p11, -2 * p01, p00)
    pairings = {}
    for j, row in enumerate(gram):
        if j in xs:
            continue
        slope, value = table.f_row[j], table.l0_row[j]
        for i, a0, a1 in zip(support, x0, x1):
            g = row[i]
            if g:
                slope -= a1 * g
                value -= a0 * g
        pairings[j] = (slope, value)
        if slope > 0:
            r = value / slope
            if r > t_cur:
                events[j] = r
    vol_root = next((r for r in quad.real_roots() if r > t_cur), None)
    return _Segment(t_cur, xs, quad, pairings, events, vol_root)


def _next_event_bound(seg: _Segment) -> Fraction:
    """A rational after ``seg.t_cur``, no later than the segment's end."""
    cands = list(seg.events.values())
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
    key = (chart.family.model_kind, chart.a, chart.b)
    if key not in _raw_cache:
        _raw_cache[key] = volume_profile(builtin_surface(*key)).raw_integral
    return _raw_cache[key]


def s_engine_coefficient(chart: ChartCase) -> SurdSum:
    """S by volume integration, with the (1-2c) factor stripped."""
    return s_engine_raw(chart) / DEGREE


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


# ---------------------------------------------------------------------------
# fixed invariant divisors


_fixed_cache: dict[str, dict[str, Fraction]] = {}


def fixed_divisor_s(surface: str) -> dict[str, Fraction]:
    """S-coefficients of the four toric divisors (times (1-2c)), each the
    integral of its :func:`fixed_divisor_profile` over the degree.

    The blown-up point is [1,0,0] throughout, so on the plane model H_x is
    the invariant line missing the center.
    """
    if surface not in _fixed_cache:
        profiles = {d: fixed_divisor_profile(surface, d) for d in DIVISORS}
        _fixed_cache[surface] = {d: prof.s0.as_fraction() for d, prof in profiles.items()}
    return dict(_fixed_cache[surface])


def fixed_divisor_profile(surface: str, divisor: str) -> SProfile:
    """Volume profile of -K - t*D for a named toric divisor class."""
    model = builtin_surface(surface)
    return volume_profile(model, f=model.cone_class(divisor))

