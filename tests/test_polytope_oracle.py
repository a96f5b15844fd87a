"""Independent oracle for the volume integrals.

The two base surfaces are toric, so vol(-mu*K - t F) for an invariant
valuation equals twice the area of the anticanonical polygon cut by the
half-plane where the valuation's linear form is at least t; therefore the
full integral equals twice the integral of that linear form over the
polygon.  This uses only lattice combinatorics and exact polygon geometry:
no intersection matrices, no decompositions.

The polygons are kept twice: copied by hand, sliced by hand-written linear
forms, and derived from the rays of ``pairs.FAN`` as the moment polygon
P = {m : <m, u_i> >= -1}.  For a toric valuation with ray u, S(u) =
<b_P, u> - min over P of <m, u>, with b_P the barycenter of P
(Blum-Jonsson, Adv. Math. 2020).
"""

from fractions import Fraction as F
from functools import cmp_to_key
from math import gcd

import pytest

from kwall.exactnum import SurdSum
from kwall.pairs import CHART_FAMILIES, DIVISORS, FAN, ChartCase
from kwall.surface import builtin_surface
from kwall.volume import (
    fixed_divisor_profile,
    fixed_divisor_s,
    s_engine_coefficient,
    s_engine_raw,
    volume_profile,
)

Point = tuple[F, F]

# anticanonical polygons: {u : <u, ray> >= -1 for all rays}
F1_POLY = [(F(-1), F(0)), (F(-1), F(2)), (F(2), F(-1)), (F(0), F(-1))]
BLP114_POLY = [(F(-1), F(0)), (F(-1), F(1, 2)), (F(5), F(-1)), (F(0), F(-1))]


def integral_of_linear(poly: list[Point], coeffs: tuple[F, F, F]) -> F:
    """Exact integral of c0 + c1*x + c2*y over a convex polygon."""
    c0, c1, c2 = coeffs
    total = F(0)
    x0, y0 = poly[0]
    for k in range(1, len(poly) - 1):
        x1, y1 = poly[k]
        x2, y2 = poly[k + 1]
        area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        area = abs(area2) / 2
        cx = (x0 + x1 + x2) / 3
        cy = (y0 + y1 + y2) / 3
        total += area * (c0 + c1 * cx + c2 * cy)
    return total


def chart_linear_form(tag: str, a: int, b: int) -> tuple[F, F, F]:
    """(c0, c1, c2) with ord_F(section at u) = c0 + c1*u1 + c2*u2."""
    a, b = F(a), F(b)
    if tag == "case1-010":  # a*(x-exp) + b*(z-exp) on the plane model
        return (a + b, -a, b - a)
    if tag == "case1-001":
        return (a + b, b - a, -a)
    if tag == "case2-zu":  # a*(E-exp) + b*(z-exp)
        return (a + b, a, a + b)
    if tag == "case2-yv":
        return (a + b, a + b, a)
    if tag == "case1p":
        return (a + b, a + b, a)
    if tag == "case2p":
        return (a + b, a, a + b)
    if tag == "case3p":  # a*(x-exp) + b*(z-exp), weighted model
        return (a + b, -a, b - 4 * a)
    raise ValueError(tag)


def polytope_raw(surface: str, coeffs: tuple[F, F, F]) -> F:
    poly = F1_POLY if surface == "f1" else BLP114_POLY
    vals = [coeffs[0] + coeffs[1] * x + coeffs[2] * y for x, y in poly]
    m = min(vals)
    shifted = (coeffs[0] - m, coeffs[1], coeffs[2])
    assert min(v - m for v in vals) == 0
    return 2 * integral_of_linear(poly, shifted)


COPRIME_10 = [(a, b) for a in range(1, 11) for b in range(1, 11) if gcd(a, b) == 1]
COPRIME_30 = [(a, b) for a in range(1, 30) for b in range(1, 31 - a) if gcd(a, b) == 1]

# each toric divisor's valuation as a hand linear form on the copied polygons
TORIC_FORMS = [
    ("f1", "H_y", (F(1), F(1), F(0))),
    ("f1", "H_z", (F(1), F(0), F(1))),
    ("f1", "H_x", (F(1), F(-1), F(-1))),
    ("f1", "E", (F(1), F(1), F(1))),
    ("blp114", "H_y", (F(1), F(1), F(0))),
    ("blp114", "H_z", (F(1), F(0), F(1))),
    ("blp114", "H_x", (F(1), F(-1), F(-4))),
    ("blp114", "E", (F(1), F(1), F(1))),
]


def _counter_clockwise(rays):
    """The rays sorted by angle from the positive x-axis, exactly: by half
    plane, then by the sign of the cross product."""
    def half(r):
        return 0 if r[1] > 0 or (r[1] == 0 and r[0] > 0) else 1

    return sorted(rays, key=cmp_to_key(
        lambda p, q: (half(p) - half(q)) or (p[1] * q[0] - p[0] * q[1])))


def moment_polygon(surface: str) -> list[Point]:
    """Vertices of P = {m : <m, u_i> >= -1} over the rays of ``FAN[surface]``,
    counter-clockwise: -K is ample, so each pair of neighbouring rays u, v
    gives the vertex <m, u> = <m, v> = -1."""
    rays = _counter_clockwise(FAN[surface].values())
    vertices = []
    for u, v in zip(rays, rays[1:] + rays[:1]):
        det = u[0] * v[1] - u[1] * v[0]
        vertices.append((F(u[1] - v[1], det), F(v[0] - u[0], det)))
    return vertices


def barycenter(poly: list[Point]) -> Point:
    """The barycenter of a convex polygon, by the shoelace formula."""
    twice_area, cx, cy = F(0), F(0), F(0)
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        cross = x0 * y1 - x1 * y0
        twice_area += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    return cx / (3 * twice_area), cy / (3 * twice_area)


def polygon_s(surface: str, u) -> F:
    """S(u) = <b_P, u> - min over P of <m, u>, the minimum at a vertex."""
    poly = moment_polygon(surface)
    bx, by = barycenter(poly)
    return bx * u[0] + by * u[1] - min(x * u[0] + y * u[1] for x, y in poly)


class TestPolytopeOracle:
    @pytest.mark.parametrize("tag,surface", [
        ("case1-010", "f1"), ("case1-001", "f1"),
        ("case2-zu", "f1"), ("case2-yv", "f1"),
        ("case1p", "blp114"), ("case2p", "blp114"), ("case3p", "blp114")])
    def test_chart_integrals(self, tag, surface):
        for a, b in COPRIME_10:
            chart = ChartCase(surface, tag, a, b)
            oracle = polytope_raw(surface, chart_linear_form(tag, a, b))
            assert s_engine_raw(chart.family.model_kind, a, b) == SurdSum.rational(oracle), \
                (tag, a, b)

    @pytest.mark.parametrize("surface,name,coeffs", TORIC_FORMS)
    def test_toric_divisor_integrals(self, surface, name, coeffs):
        oracle = polytope_raw(surface, coeffs)
        prof = fixed_divisor_profile(surface, name)
        assert prof.raw_integral == SurdSum.rational(oracle)

    def test_polygon_areas(self):
        assert 2 * integral_of_linear(F1_POLY, (F(1), F(0), F(0))) == 8
        assert 2 * integral_of_linear(BLP114_POLY, (F(1), F(0), F(0))) == 8


class TestMomentPolygon:
    """S from the moment polygon derived from ``pairs.FAN`` equals the
    engine's volume integrals, and the derived polygons are the copied ones."""

    @pytest.mark.parametrize("tag", tuple(CHART_FAMILIES))
    def test_chart_s_values(self, tag):
        """Every coprime chart with a + b <= 30: u = a*u_D1 + b*u_D2."""
        family = CHART_FAMILIES[tag]
        (x1, y1), (x2, y2) = (FAN[family.surface][d] for d in family.divisors)
        for a, b in COPRIME_30:
            assert polygon_s(family.surface, (a * x1 + b * x2, a * y1 + b * y2)) == \
                s_engine_coefficient(ChartCase(family.surface, tag, a, b)), (tag, a, b)
        assert len(COPRIME_30) * len(CHART_FAMILIES) == 1939

    @pytest.mark.parametrize("surface", sorted(FAN))
    def test_fixed_divisor_s_values(self, surface):
        assert {d: polygon_s(surface, FAN[surface][d]) for d in DIVISORS} == \
            dict(fixed_divisor_s(surface))

    def test_quarter_point(self):
        """u = (u_H_y + u_H_x)/4, the ray of the quarter point's resolution."""
        rays = FAN["blp114"]
        u = tuple(F(p + q, 4) for p, q in zip(rays["H_y"], rays["H_x"]))
        assert polygon_s("blp114", u) == F(47, 48)
        assert volume_profile(builtin_surface("blp114-quotient-res")).s0 == F(47, 48)

    @pytest.mark.parametrize("surface,hand", [("f1", F1_POLY), ("blp114", BLP114_POLY)])
    def test_copied_polygon_is_the_derived_one(self, surface, hand):
        """The copied polygon is the derived one in the lattice basis of the
        hand linear forms.  Each form 1 + <m, n_D> names the inner normal n_D
        of the divisor D; the map M with M n_D = u_D, u_D the ray of D in
        ``pairs.FAN``, is unimodular, and its transpose takes the derived
        vertices onto the copied ones."""
        normals = {}
        for s, name, (c0, c1, c2) in TORIC_FORMS:
            if s == surface:
                assert c0 == 1, name
                normals[name] = (c1, c2)
        rays = FAN[surface]
        # M = U N^-1 from H_y and H_z, N and U holding their normals and rays
        (p, r), (q, s) = normals["H_y"], normals["H_z"]
        det = p * s - q * r
        inv = ((s / det, -q / det), (-r / det, p / det))
        ray_cols = ((rays["H_y"][0], rays["H_z"][0]), (rays["H_y"][1], rays["H_z"][1]))
        m = [[sum(ray_cols[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
        assert abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1
        for name, (nx, ny) in normals.items():
            assert (m[0][0] * nx + m[0][1] * ny, m[1][0] * nx + m[1][1] * ny) == rays[name]
        derived = moment_polygon(surface)
        assert len(derived) == len(hand) == len(DIVISORS)
        assert {(m[0][0] * x + m[1][0] * y, m[0][1] * x + m[1][1] * y)
                for x, y in derived} == set(hand)
