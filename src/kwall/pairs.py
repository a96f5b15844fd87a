"""Boundary curves as monomial data, 1-PS weights and chart-local expansions
with their multiplicities.

Curves live on one of the two plane models of :data:`PLANES` (``f1``:
sextics through the center with multiplicity 2; ``blp114``: weighted-degree-12
curves likewise).  Monomials are stored as (y-exponent, z-exponent) pairs; the
x-exponent is determined by the degree.  Only the monomial support enters any
invariant; coefficients are carried as display tags.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Iterable, NamedTuple, Optional

from .volume import CHART_FAMILIES, ChartCase

TAG_ONE = "one"
TAG_GENERIC_NONZERO = "generic-nonzero"


class Plane(NamedTuple):
    """A plane model: the weights of (x, y, z) and the degree of its curves.

    x and y have weight 1 on both models, so the degree fixes the x-exponent
    of a monomial and the trivial 1-PS is ``weights`` itself.
    """

    weights: tuple[int, int, int]
    degree: int


PLANES = {"f1": Plane((1, 1, 1), 6), "blp114": Plane((1, 1, 4), 12)}


def _plane(surface: str) -> Plane:
    try:
        return PLANES[surface]
    except KeyError:
        raise ValueError(f"unknown surface {surface!r}") from None


class CurveSyntaxError(ValueError):
    pass


class DegenerateWeightError(ValueError):
    """1-PS weights inducing a degenerate (a=0 or b=0) blowup."""

    def __init__(self, message: str):
        super().__init__(message + "; use the toric divisor valuations instead")


@dataclass(frozen=True)
class Monomial:
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
    of z of degree 12), so 0 exactly when z^3 is present; ``f1`` has no
    quotient point, so 0."""
    plane = _plane(surface)
    wz = plane.weights[2]
    if wz == 1:
        return 0
    return plane.degree // wz - max(j for _, j in support)


@dataclass(frozen=True)
class CurvePair:
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
            deg = "6" if surface == "f1" else "12 (weighted)"
            raise CurveSyntaxError(
                f"monomial y^{m.i} z^{m.j} exceeds total degree {deg}")
        if m.i + m.j < 2:
            raise CurveSyntaxError(
                f"monomial x^{ex} y^{m.i} z^{m.j} has multiplicity < 2 at the center")
    warnings: tuple[str, ...] = ()
    if quarter_point_order(surface, seen) > 0:
        warnings = ("z^3 absent: the pair is destabilized at the quarter point "
                    "for every coefficient (see certify quotient-point)",)
    monos.sort(key=lambda m: _render_sort_key(surface, m))
    return CurvePair(surface, tuple(monos), warnings)


def _render_sort_key(surface: str, m: Monomial):
    if surface == "f1":
        return (-m.x_exp(surface), -m.j, -m.i)
    return (-m.j, -m.i)


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
            deg = "6" if surface == "f1" else "12 with wt(z)=4"
            raise CurveSyntaxError(
                f"monomial {chunk!r} does not have total degree {deg}")
        monos.append(Monomial(i, j, tag, label))
    return _validated(surface, monos)


def render_curve(curve: CurvePair) -> str:
    """Canonical text form; ``parse_curve(render_curve(c)) == c`` up to labels."""
    parts = []
    for m in curve.monomials:
        ex = m.x_exp(curve.surface)
        factors = []
        order = ("x", "z", "y") if curve.surface == "f1" else ("z", "y", "x")
        exps = {"x": ex, "y": m.i, "z": m.j}
        for var in order:
            e = exps[var]
            if e == 1:
                factors.append(var)
            elif e > 1:
                factors.append(f"{var}^{e}")
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
_DIVISOR_WEIGHTS = {"H_x": (1, 0, 0), "H_y": (0, 1, 0), "H_z": (0, 0, 1), "E": (0, 1, 1)}


def chart_to_onePS(chart: ChartCase) -> OnePS:
    """The 1-PS a*w(D1) + b*w(D2) realizing the chart valuation; inverse of
    :func:`onePS_to_chart`."""
    d1, d2 = chart.family.divisors
    l1, l2, l3 = (chart.a * p + chart.b * q
                  for p, q in zip(_DIVISOR_WEIGHTS[d1], _DIVISOR_WEIGHTS[d2]))
    if chart.surface == "blp114":  # normalize l2 = 0 modulo (k, k, 4k)
        return (l1 - l2, 0, l3 - 4 * l2)
    return (l1, l2, l3)


def _reduced(plane: Plane, lam: OnePS) -> tuple[int, int]:
    """The (x, z) weights of lam minus l2 times the trivial 1-PS."""
    l1, l2, l3 = lam
    return l1 - l2 * plane.weights[0], l3 - l2 * plane.weights[2]


# per plane model, the ray w(D) of each invariant divisor modulo the trivial 1-PS
_FAN = {surface: {d: _reduced(plane, w) for d, w in _DIVISOR_WEIGHTS.items()}
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
    holds lam in its interior, at primitive (a, b).  On ``blp114`` the closed
    cone (H_y, H_x) is the quarter point, which carries no chart; there -lam
    acts instead.
    """
    x, z = _reduced(_plane(surface), lam)
    rays = _FAN[surface]
    if x == z == 0:
        raise DegenerateWeightError("trivial 1-PS")
    if surface == "blp114" and min(_cone_coordinates((x, z), rays["H_y"], rays["H_x"])) >= 0:
        x, z = -x, -z
    for tag, fam in CHART_FAMILIES.items():
        if fam.surface != surface:
            continue
        d1, d2 = fam.divisors
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


@dataclass(frozen=True)
class MonomialSupport:
    chart_tag: str
    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty local support")


def divisor_orders(surface: str, i: int, j: int) -> dict[str, int]:
    """Order of the monomial with exponents (i, j) along each invariant divisor."""
    return {"H_x": _x_exponent(surface, i, j), "H_y": i, "H_z": j, "E": i + j - 2}


def local_points(curve: CurvePair, tag: str) -> tuple[tuple[int, int], ...]:
    """Distinct local exponents (ord_D1, ord_D2) of the curve in the chart
    coordinates, in monomial order."""
    d1, d2 = CHART_FAMILIES[tag].divisors
    orders = (divisor_orders(curve.surface, m.i, m.j) for m in curve.monomials)
    return tuple(dict.fromkeys((o[d1], o[d2]) for o in orders))


def chart_expand(curve: CurvePair, chart: ChartCase) -> MonomialSupport:
    """Exact local exponents of the curve in the chart coordinates."""
    if chart.surface != curve.surface:
        raise ValueError("chart and curve live on different surfaces")
    return MonomialSupport(chart.tag, local_points(curve, chart.tag))


def multiplicity(support: MonomialSupport, a: int, b: int) -> int:
    """min(a*e + b*f) over the local support."""
    if a <= 0 or b <= 0:
        raise ValueError("weights must be positive")
    return min(a * e + b * f for e, f in support.points)


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
