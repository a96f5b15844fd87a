"""Radial volume profiles t -> vol(L0 - t*F), pseudo-effective thresholds,
and the S-function of invariant divisorial valuations.

A profile is rational: its breakpoints, its end ``tau`` and its integral are
``Fraction``s.  The Zariski chambers of a surface with a rational polyhedral
effective cone are rational polyhedral (Bauer-Kuronya-Szemberg), so every
breakpoint is rational, and the sweep raises ``ArithmeticError`` when the
volume reaches zero at an irrational point before the next support event.

Two independent routes to every chart S-coefficient (S with the (1 - 2c)
factor stripped) are kept side by side:

* :func:`s_engine_coefficient` integrates the exact volume profile from
  Zariski decompositions on the chart's surface model (no formula input);
* :func:`s_closed_form_coefficient` evaluates the tabulated closed forms.

The two agree on most weight branches; where they differ the engine is
authoritative, and ``kwall sfun`` prints both values side by side.  Each
S-value is computed once per process by a ``functools.cache`` on the function
that returns it: the raw integral per chart model (model kind, a, b), so the
chart tags of one kind share a profile, the coefficients per chart, and the
toric-divisor table per surface.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

from .exactnum import (
    ExactDomainError,
    PiecewiseQuadratic,
    QuadraticPoly,
    SurdSum,
    render_fraction,
)
from .pairs import DIVISORS, ChartCase
from .surface import (
    DEGREE,
    PairingTable,
    SurfaceModel,
    Vec,
    _dot,
    builtin_surface,
    solve_linear,
)


# ---------------------------------------------------------------------------
# volume profiles


class SProfile(NamedTuple):
    """Exact volume profile of L0 - t*F and its integral."""

    model_name: str
    f_name: str
    profile: PiecewiseQuadratic
    raw_integral: Fraction

    @property
    def tau(self) -> Fraction:
        return self.profile.tau

    @property
    def s0(self) -> Fraction:
        """S with the (1 - 2c) factor stripped: the integral over the degree."""
        return self.raw_integral / DEGREE

    def s_at(self, c: Fraction) -> Fraction:
        return self.s0 * (1 - 2 * Fraction(c))

    def to_json(self, c: Optional[Fraction] = None) -> dict:
        out = {
            "model": self.model_name,
            "valuation": self.f_name,
            "segments": [
                {
                    "from": render_fraction(self.profile.breakpoints[k]),
                    "to": render_fraction(self.profile.breakpoints[k + 1]),
                    "poly": [str(x) for x in seg.coeffs()],
                }
                for k, seg in enumerate(self.profile.segments)
            ],
            "tau": render_fraction(self.profile.tau),
            "raw_integral": render_fraction(self.raw_integral),
        }
        if c is not None:
            out["s_at_c"] = render_fraction(self.s_at(c))
        return out


def volume_profile(model: SurfaceModel, f: Optional[Union[str, Vec]] = None) -> SProfile:
    """Exact piecewise-quadratic vol(l0 - t*f) on [0, tau].

    The origin ``l0`` is the model's anticanonical class, which must be nef
    and big; ``f`` defaults to the model's distinguished exceptional class
    and may be a cone-generator name or an explicit class.
    """
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
    table = model.pairing_table(l0, f_vec)
    if any(x < 0 for x in table.rows[0]):
        raise ExactDomainError(f"{model.name}: profile origin class is not nef")
    sweep = _Sweep(model.name, table, model.intersect(l0, l0),
                   model.intersect(l0, f_vec), model.intersect(f_vec, f_vec))
    if sweep.l0_l0 <= 0:
        raise ExactDomainError(f"{model.name}: profile origin class is not big")

    t_cur = Fraction(0)
    support: list[int] = []
    breakpoints = [t_cur]
    segments: list[QuadraticPoly] = []
    starts: list[Fraction] = []

    for _ in range(8 * len(model.cone) + 8):
        # validate the segment from t_cur at an interior rational point; on
        # failure recompute the support from an honest decomposition
        seg = _segment(sweep, support, t_cur)
        sample = _sample(seg)
        if not _segment_valid(seg, sample):
            t = Fraction(*sample)
            z = model.zariski_decompose(tuple(a - t * b for a, b in zip(l0, f_vec)))
            support = sorted(i for i, (n, _) in enumerate(model.cone)
                             if n in z.support_names)
            seg = _segment(sweep, support, t_cur)
        quad = seg.quad
        start = quad(t_cur)
        if start < 0:
            raise ArithmeticError(f"{model.name}: negative volume at t={t_cur}")
        starts.append(start)
        first = _first(seg.events.values())
        next_support = Fraction(*first) if first else None
        vol_root = seg.vol_root
        if vol_root is None and next_support is None:
            raise ArithmeticError(f"{model.name}: volume never reaches zero")
        if vol_root is not None and (next_support is None or vol_root <= next_support):
            # Zariski chambers are rational polyhedral, so tau is rational
            if not isinstance(vol_root, Fraction):
                raise ArithmeticError(f"{model.name}: irrational volume root {vol_root}")
            breakpoints.append(vol_root)
            segments.append(quad)
            profile = PiecewiseQuadratic(breakpoints, segments)
            profile.check_continuity(starts)
            raw = profile.integrate(0, vol_root)
            return SProfile(model.name, f_name, profile, raw)

        assert first is not None
        breakpoints.append(next_support)
        segments.append(quad)
        # the generators whose event this is: one outside the support joins
        # it, one in the support leaves
        hits = {k for k, (a, b) in seg.events.items() if a * first[1] == first[0] * b}
        support = sorted(set(seg.support) ^ hits)
        t_cur = next_support
    raise ArithmeticError(f"{model.name}: profile sweep did not terminate")


class _Sweep(NamedTuple):
    """Every intersection number one profile sweep needs: the model's
    integer pairing table of ``(l0, f)`` and the three squares of the pair."""

    name: str
    table: PairingTable
    l0_l0: Fraction
    l0_f: Fraction
    f_f: Fraction


class _Segment(NamedTuple):
    """Sweep data of one support set, from ``t_cur`` on, as integers.

    With ``det > 0`` the determinant of the support block of the pairing
    table's Gram, each generator k has a line ``lines[k] = (a, b)``: in the
    support, ``C_k`` has the coefficient ``dens[k] * (a - t*b) / (det * den)``
    in ``N(t)``; outside it, ``P(t).C_k = (a - t*b) / (det * scale * den *
    dens[k])`` (support generators pair to 0).  So each line is its quantity
    up to a positive factor, and
    ``events[k] = (a, b)`` with ``b > 0`` is the parameter ``a / b`` after
    ``t_cur`` where it reaches zero.  ``vol_root`` is the first root of
    ``P(t)^2`` after ``t_cur``.  It may be a surd when an event comes
    first or the support is not yet validated; a root the profile ends at
    is rational.

    Every decision on these data is made on integers: an event by
    cross-multiplying ``a * den > num * b`` with ``t_cur = num / den``, a
    rational root by ``Fraction`` comparison, and a surd root by one
    ``SurdSum.sign``, which squares integers.
    """

    t_cur: Fraction
    support: tuple[int, ...]
    det: int
    lines: dict[int, tuple[int, int]]
    quad: QuadraticPoly
    events: dict[int, tuple[int, int]]
    vol_root: Optional[Union[Fraction, SurdSum]]


def _segment(sweep: _Sweep, support: list[int], t_cur: Fraction) -> _Segment:
    """Sweep data of ``support`` from ``t_cur`` on: one fraction-free
    elimination of the support Gram block solves for the l0 and f rows
    together, and one pass over the generators gives every line and event.

    Each coefficient of ``P(t)^2`` is built once, as one ``Fraction`` of
    integer numerators: the squares of ``sweep`` are read through their
    numerators and denominators."""
    table = sweep.table
    gram, (r0, r1) = table.gram, table.rows
    b0, b1 = [r0[i] for i in support], [r1[i] for i in support]
    # x(t) = (u0 - t*u1) / det solves gram x = r0 - t*r1 on the support, so
    # P(t) = p0 - t*p1 with p0.p0 = l0.l0 - u0.r0 / e, p0.p1 = l0.f - u0.r1 / e
    # and p1.p1 = f.f - u1.r1 / e, where e = det * scale * den^2
    det, u0, u1 = 1, [], []
    if support:
        sol = solve_linear([[gram[i][j] for j in support] for i in support], b0, b1)
        if sol is None:
            raise ArithmeticError(f"{sweep.name}: singular support Gram block")
        det, u0, u1 = sol
    lines = dict(zip(support, zip(u0, u1)))
    for j, row in enumerate(gram):
        if j not in lines:
            a, b = det * r0[j], det * r1[j]
            for i, x0, x1 in zip(support, u0, u1):
                g = row[i]
                if g:
                    a -= x0 * g
                    b -= x1 * g
            lines[j] = (a, b)
    num, den = t_cur.numerator, t_cur.denominator
    events = {k: (a, b) for k, (a, b) in lines.items() if b > 0 and a * den > num * b}
    # each coefficient x - y / e, with x = n / m a square, is the one
    # Fraction (n * e - m * y) / (m * e)
    e = det * table.scale * table.den * table.den
    f_f, l0_f, l0_l0 = sweep.f_f, sweep.l0_f, sweep.l0_l0
    quad = QuadraticPoly(
        Fraction(f_f.numerator * e - f_f.denominator * _dot(u1, b1), f_f.denominator * e),
        Fraction(2 * (l0_f.denominator * _dot(u0, b1) - l0_f.numerator * e), l0_f.denominator * e),
        Fraction(l0_l0.numerator * e - l0_l0.denominator * _dot(u0, b0), l0_l0.denominator * e))
    vol_root = next((r for r in quad.real_roots() if r > t_cur), None)
    return _Segment(t_cur, tuple(support), det, lines, quad, events, vol_root)


def _first(ratios) -> Optional[tuple[int, int]]:
    """The least ``a / b`` of the pairs ``(a, b)`` with ``b > 0``, or None."""
    best = None
    for a, b in ratios:
        if best is None or a * best[1] < best[0] * b:
            best = (a, b)
    return best


def _sample(seg: _Segment) -> tuple[int, int]:
    """A rational ``a / b`` inside the segment: halfway from ``t_cur`` to
    its first event or rational volume root, or to a rational lower bound of
    an irrational root (to ``t_cur + 1`` when there is none of these)."""
    t = seg.t_cur
    cands = list(seg.events.values())
    r = seg.vol_root
    if isinstance(r, Fraction):
        cands.append((r.numerator, r.denominator))
    elif r is not None:
        lo, _ = r.enclosure(64)
        if lo > t:
            cands.append((lo.numerator, lo.denominator))
    a, b = _first(cands) or (t.numerator + t.denominator, t.denominator)
    return t.numerator * b + a * t.denominator, 2 * t.denominator * b


def _segment_valid(seg: _Segment, sample: tuple[int, int]) -> bool:
    """Whether ``P(sample)`` is nef and ``N(sample)`` effective on the support."""
    num, den = sample
    return all(a * den >= num * b for a, b in seg.lines.values())


# ---------------------------------------------------------------------------
# S-functions of chart valuations


@cache
def s_engine_raw(model_kind: str, a: int, b: int) -> Fraction:
    """Integral of the volume profile of the chart model ``(model_kind, a,
    b)`` (c-independent), computed once per model: the chart tags of one
    model kind share it."""
    return volume_profile(builtin_surface(model_kind, a, b)).raw_integral


@cache
def s_engine_coefficient(chart: ChartCase) -> Fraction:
    """S by volume integration, with the (1-2c) factor stripped; divided out
    once per chart."""
    return s_engine_raw(chart.family.model_kind, chart.a, chart.b) / DEGREE


@cache
def s_closed_form_coefficient(chart: ChartCase) -> SurdSum:
    """Closed-form S with the (1-2c) factor stripped, built once per chart
    (tag, a, b): it depends on nothing else, and a ``SurdSum`` is immutable."""
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


@cache
def fixed_divisor_s(surface: str) -> Mapping[str, Fraction]:
    """S-coefficients of the four toric divisors (times (1-2c)), each the
    integral of its :func:`fixed_divisor_profile` over the degree, as a
    read-only view of the one table computed per surface.

    The blown-up point is [1,0,0] throughout, so on the plane model H_x is
    the invariant line missing the center.
    """
    return MappingProxyType({d: fixed_divisor_profile(surface, d).s0 for d in DIVISORS})


def fixed_divisor_profile(surface: str, divisor: str) -> SProfile:
    """Volume profile of -K - t*D for a named toric divisor class."""
    model = builtin_surface(surface)
    return volume_profile(model, f=model.cone_class(divisor))

