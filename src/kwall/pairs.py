"""Boundary curves as monomial data, 1-PS weights and chart-local expansions
with their multiplicities.

Curves live on one of the two plane models of :data:`PLANES` (``f1``:
sextics through the center with multiplicity 2; ``blp114``: weighted-degree-12
curves likewise).  Every fact that tells the planes apart is read off that
record.  Monomials are stored as (y-exponent, z-exponent) pairs; the
x-exponent is determined by the degree.  Only the monomial support enters any
invariant; coefficients are carried as display tags.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterable, NamedTuple, Optional

TAG_ONE = "one"
TAG_GENERIC_NONZERO = "generic-nonzero"

# the invariant divisors of both plane models, in the order of every table of them
DIVISORS = ("H_x", "H_y", "H_z", "E")


class ChartFamily(NamedTuple):
    """Weighted blowups at one torus-fixed point: the weight-(a, b) valuation
    is a*ord_D1 + b*ord_D2 for the invariant divisors ``(D1, D2)`` through the
    center.  ``branch_ratios`` are extra ratios b/a the threshold sweep checks
    on every curve: the a = b split of the case1 families.  The closed-form
    branch points (b = 3a of case2p, b = 3a and 4a of case3p) are not listed.
    """

    surface: str
    model_kind: str
    divisors: tuple[str, str]
    branch_ratios: tuple[Fraction, ...] = ()


# table order is the order in which wall candidates are enumerated
CHART_FAMILIES = {
    "case1-010": ChartFamily("f1", "f1-case1", ("H_x", "H_z"), (Fraction(1),)),
    "case1-001": ChartFamily("f1", "f1-case1", ("H_x", "H_y"), (Fraction(1),)),
    "case2-zu": ChartFamily("f1", "f1-case2", ("E", "H_y")),
    "case2-yv": ChartFamily("f1", "f1-case2", ("E", "H_z")),
    "case1p": ChartFamily("blp114", "blp114-case1p", ("E", "H_y")),
    "case2p": ChartFamily("blp114", "blp114-case2p", ("E", "H_z")),
    "case3p": ChartFamily("blp114", "blp114-case3p", ("H_x", "H_z")),
}


class Plane(NamedTuple):
    """A plane model: the weights of (x, y, z), the degree of its curves, the
    order of (x, y, z) that sorts monomials (largest exponent first) and
    prints their factors, its chart families in enumeration order, and the
    fan cone (D1, D2) of its quarter point, the fixed point without a chart.

    x and y have weight 1 on both models, so the degree fixes the x-exponent
    of a monomial and the trivial 1-PS is ``weights`` itself.
    """

    weights: tuple[int, int, int]
    degree: int
    render_order: str
    chart_tags: tuple[str, ...]
    quarter_cone: Optional[tuple[str, str]]


def _chart_tags(surface: str) -> tuple[str, ...]:
    return tuple(t for t, fam in CHART_FAMILIES.items() if fam.surface == surface)


PLANES = {"f1": Plane((1, 1, 1), 6, "xzy", _chart_tags("f1"), None),
          "blp114": Plane((1, 1, 4), 12, "zyx", _chart_tags("blp114"), ("H_y", "H_x"))}


def _plane(surface: str) -> Plane:
    try:
        return PLANES[surface]
    except KeyError:
        raise ValueError(f"unknown surface {surface!r}") from None


def check_weights(a: int, b: int) -> None:
    """Reject blowup weights (a, b) that are not positive and coprime."""
    if a <= 0 or b <= 0:
        raise ValueError("blowup weights must be positive; degenerate 1-PS "
                         "weights are handled by toric divisor valuations")
    if gcd(a, b) != 1:
        raise ValueError("blowup weights must be coprime")


class _ChartFields(NamedTuple):
    surface: str  # a key of PLANES
    tag: str
    a: int
    b: int


class ChartCase(_ChartFields):
    """A weighted-blowup chart with coprime positive weights (a, b)."""

    __slots__ = ()

    def __new__(cls, surface: str, tag: str, a: int, b: int) -> ChartCase:
        family = CHART_FAMILIES.get(tag)
        if family is None or family.surface != surface:
            raise ValueError(f"chart {tag!r} is not valid on {surface}")
        check_weights(a, b)
        return super().__new__(cls, surface, tag, a, b)

    @property
    def family(self) -> ChartFamily:
        return CHART_FAMILIES[self.tag]


class CurveSyntaxError(ValueError):
    pass


class DegenerateWeightError(ValueError):
    """1-PS weights inducing a degenerate (a=0 or b=0) blowup."""

    def __init__(self, message: str):
        super().__init__(message + "; use the toric divisor valuations instead")


class Monomial(NamedTuple):
    i: int  # y-exponent
    j: int  # z-exponent
    tag: str = TAG_ONE
    label: str = ""

    def x_exp(self, surface: str) -> int:
        return _x_exponent(surface, self.i, self.j)


def _x_exponent(surface: str, i: int, j: int) -> int:
    plane = _plane(surface)
    return plane.degree - plane.weights[1] * i - plane.weights[2] * j


def admissible_monomials(surface: str) -> list[tuple[int, int]]:
    """Every (i, j) of the plane's degree with multiplicity i + j >= 2 at the
    center, by z-exponent and then y-exponent."""
    plane = _plane(surface)
    _, wy, wz = plane.weights
    return [(i, j) for j in range(plane.degree // wz + 1)
            for i in range((plane.degree - wz * j) // wy + 1) if i + j >= 2]


def quarter_point_order(surface: str, support: Iterable[tuple[int, int]]) -> int:
    """Order ord_F of the curve along the quarter point's valuation F.

    On ``blp114`` it is 3 minus the largest z-exponent (z^3 is the pure power
    of z of degree 12), so 0 exactly when z^3 is present; a plane without a
    quarter point gives 0."""
    plane = _plane(surface)
    if plane.quarter_cone is None:
        return 0
    return plane.degree // plane.weights[2] - max(j for _, j in support)


class CurvePair(NamedTuple):
    """A boundary curve in |-2K| presented by its plane monomial support."""

    surface: str
    monomials: tuple[Monomial, ...]
    warnings: tuple[str, ...] = ()

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple((m.i, m.j) for m in self.monomials)

    def to_json(self) -> dict:
        return {
            "surface": self.surface,
            "monomials": [
                {"i": m.i, "j": m.j, "coeff_tag": m.tag} for m in self.monomials
            ],
            "text": render_curve(self),
            "warnings": list(self.warnings),
        }


def make_curve(surface: str, support: Iterable[tuple[int, int]],
               tags: Optional[dict[tuple[int, int], str]] = None) -> CurvePair:
    tags = tags or {}
    monos = [Monomial(i, j, tags.get((i, j), TAG_ONE)) for i, j in support]
    return _validated(surface, monos)


def _validated(surface: str, monos: list[Monomial]) -> CurvePair:
    if not monos:
        raise CurveSyntaxError("empty curve")
    seen = set()
    for m in monos:
        if (m.i, m.j) in seen:
            raise CurveSyntaxError(f"repeated monomial y^{m.i} z^{m.j}")
        seen.add((m.i, m.j))
        if m.i < 0 or m.j < 0:
            raise CurveSyntaxError("negative exponent")
        ex = _x_exponent(surface, m.i, m.j)
        if ex < 0:
            raise CurveSyntaxError(
                f"monomial y^{m.i} z^{m.j} exceeds total degree {_degree_text(surface)}")
        if m.i + m.j < 2:
            raise CurveSyntaxError(
                f"monomial x^{ex} y^{m.i} z^{m.j} has multiplicity < 2 at the center")
    warnings: tuple[str, ...] = ()
    if quarter_point_order(surface, seen) > 0:
        warnings = ("z^3 absent: the pair is destabilized at the quarter point "
                    "for every coefficient (see certify quotient-point)",)
    monos.sort(key=lambda m: tuple(-e for _, e in _ordered_exponents(surface, m)))
    return CurvePair(surface, tuple(monos), warnings)


def _degree_text(surface: str) -> str:
    plane = _plane(surface)
    return f"{plane.degree} with weights {plane.weights}"


def _ordered_exponents(surface: str, m: Monomial) -> list[tuple[str, int]]:
    """(variable, exponent) of each of x, y, z in the plane's render order."""
    exps = {"x": m.x_exp(surface), "y": m.i, "z": m.j}
    return [(var, exps[var]) for var in _plane(surface).render_order]


_MONO_RE = re.compile(r"^(?:(?P<coeff>a\d*|\d+(?:/\d+)?)\*)?(?P<body>[xyz^\d*]+)$")
_VAR_RE = re.compile(r"([xyz])(?:\^(\d+))?")


def parse_curve(text: str, surface: str) -> CurvePair:
    """Parse a '+'-separated sum of monomials like ``x^4*z^2+a*x^2*y^4``."""
    chunks = [c.strip() for c in text.replace(" ", "").split("+")]
    monos: list[Monomial] = []
    for chunk in chunks:
        if not chunk:
            raise CurveSyntaxError("empty monomial")
        m = _MONO_RE.match(chunk)
        if not m:
            raise CurveSyntaxError(f"cannot parse monomial {chunk!r}")
        coeff = m.group("coeff")
        body = m.group("body")
        consumed = "".join(f"{v}^{e}" if e else v for v, e in _VAR_RE.findall(body))
        if body.replace("*", "") != consumed:
            raise CurveSyntaxError(f"cannot parse monomial {chunk!r}")
        exps = {"x": 0, "y": 0, "z": 0}
        for var, e in _VAR_RE.findall(body):
            exps[var] += int(e) if e else 1
        tag = TAG_ONE
        label = ""
        if coeff is not None and coeff.startswith("a"):
            tag = TAG_GENERIC_NONZERO
            label = coeff
        i, j = exps["y"], exps["z"]
        if _x_exponent(surface, i, j) != exps["x"]:
            raise CurveSyntaxError(
                f"monomial {chunk!r} does not have total degree {_degree_text(surface)}")
        monos.append(Monomial(i, j, tag, label))
    return _validated(surface, monos)


def render_curve(curve: CurvePair) -> str:
    """Canonical text form; ``parse_curve(render_curve(c)) == c`` up to labels."""
    parts = []
    for m in curve.monomials:
        factors = [var if e == 1 else f"{var}^{e}"
                   for var, e in _ordered_exponents(curve.surface, m) if e]
        body = "*".join(factors) if factors else "1"
        if m.tag == TAG_ONE:
            parts.append(body)
        else:
            parts.append((m.label or "a") + "*" + body)
    return "+".join(parts)


# ---------------------------------------------------------------------------
# 1-PS weights -> charts

OnePS = tuple[int, int, int]


# the 1-PS whose weight on x^e y^i z^j is the order of the monomial along D
# (along E up to the constant 2)
_DIVISOR_WEIGHTS = dict(zip(DIVISORS, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1))))


def chart_to_onePS(chart: ChartCase) -> OnePS:
    """The 1-PS a*w(D1) + b*w(D2) realizing the chart valuation; inverse of
    :func:`onePS_to_chart`.  On a plane with a quarter point it is reduced to
    l2 = 0 modulo the trivial 1-PS, the form of the atlas's ``blp114`` weights.
    """
    d1, d2 = chart.family.divisors
    lam = tuple(chart.a * p + chart.b * q
                for p, q in zip(_DIVISOR_WEIGHTS[d1], _DIVISOR_WEIGHTS[d2]))
    plane = PLANES[chart.surface]
    if plane.quarter_cone is None:
        return lam
    x, z = _reduced(plane, lam)
    return (x, 0, z)


def _reduced(plane: Plane, lam: OnePS) -> tuple[int, int]:
    """The (x, z) weights of lam minus l2 times the trivial 1-PS."""
    l1, l2, l3 = lam
    return l1 - l2 * plane.weights[0], l3 - l2 * plane.weights[2]


# per plane model, the ray w(D) of each invariant divisor modulo the trivial
# 1-PS: the plane's fan, from which kwall.surface builds its toric models
FAN = {surface: {d: _reduced(plane, w) for d, w in _DIVISOR_WEIGHTS.items()}
        for surface, plane in PLANES.items()}


def _cone_coordinates(lam: tuple[int, int], u: tuple[int, int],
                      v: tuple[int, int]) -> tuple[int, int]:
    """(a, b) with k*lam = a*u + b*v for some k > 0 (Cramer's rule)."""
    det = u[0] * v[1] - u[1] * v[0]
    a, b = lam[0] * v[1] - lam[1] * v[0], u[0] * lam[1] - u[1] * lam[0]
    return (a, b) if det > 0 else (-a, -b)


def onePS_to_chart(lam: OnePS, surface: str) -> ChartCase:
    """Chart case and primitive blowup weights induced by a nontrivial 1-PS.

    Modulo the trivial 1-PS the divisor weights w(D) are the rays of the
    surface's fan.  The chart is the family whose cone {a*w(D1) + b*w(D2)}
    holds lam in its interior, at primitive (a, b).  The closed cone of the
    quarter point carries no chart; there -lam acts instead.
    """
    plane = _plane(surface)
    x, z = _reduced(plane, lam)
    rays = FAN[surface]
    if x == z == 0:
        raise DegenerateWeightError("trivial 1-PS")
    cone = plane.quarter_cone
    if cone and min(_cone_coordinates((x, z), rays[cone[0]], rays[cone[1]])) >= 0:
        x, z = -x, -z
    for tag in plane.chart_tags:
        d1, d2 = CHART_FAMILIES[tag].divisors
        a, b = _cone_coordinates((x, z), rays[d1], rays[d2])
        if a < 0 or b < 0:
            continue
        if a == 0 or b == 0:
            raise DegenerateWeightError(
                f"weights {lam} lie on the ray of {d2 if a == 0 else d1}")
        g = gcd(a, b)
        return ChartCase(surface, tag, a // g, b // g)
    raise AssertionError(f"the chart cones of {surface} miss {lam}")


# ---------------------------------------------------------------------------
# chart-local monomial expansion


def divisor_orders(surface: str, i: int, j: int) -> dict[str, int]:
    """Order of the monomial with exponents (i, j) along each invariant divisor."""
    return dict(zip(DIVISORS, (_x_exponent(surface, i, j), i, j, i + j - 2)))


@cache
def local_points(curve: CurvePair, tag: str) -> tuple[tuple[int, int], ...]:
    """Distinct local exponents (ord_D1, ord_D2) of the curve in the chart
    coordinates, in monomial order; computed once per (curve, tag), since a
    ``CurvePair`` is immutable."""
    d1, d2 = CHART_FAMILIES[tag].divisors
    orders = (divisor_orders(curve.surface, m.i, m.j) for m in curve.monomials)
    return tuple(dict.fromkeys((o[d1], o[d2]) for o in orders))


def chart_expand(curve: CurvePair, chart: ChartCase) -> tuple[tuple[int, int], ...]:
    """Exact local exponents of the curve in the chart coordinates."""
    if chart.surface != curve.surface:
        raise ValueError("chart and curve live on different surfaces")
    return local_points(curve, chart.tag)


def multiplicity(points: Iterable[tuple[int, int]], a: int, b: int) -> int:
    """min(a*e + b*f) over the local exponents ``points``."""
    if a <= 0 or b <= 0:
        raise ValueError("weights must be positive")
    return min(a * e + b * f for e, f in points)


# ---------------------------------------------------------------------------
# toric divisor data of a curve


def toric_multiplicities(curve: CurvePair) -> dict[str, int]:
    """Coefficient of each invariant divisor in the curve (class data)."""
    orders = [divisor_orders(curve.surface, m.i, m.j) for m in curve.monomials]
    return {d: min(o[d] for o in orders) for d in orders[0]}


def lambda_weight(curve: CurvePair, lam: OnePS) -> Optional[int]:
    """Common 1-PS weight of all monomials, or None if not invariant."""
    l1, l2, l3 = lam
    weights = {m.x_exp(curve.surface) * l1 + m.i * l2 + m.j * l3
               for m in curve.monomials}
    if len(weights) == 1:
        return weights.pop()
    return None
