"""Independent oracle for the volume integrals.

The two base surfaces are toric, so vol(-mu*K - t F) for an invariant
valuation equals twice the area of the anticanonical polygon cut by the
half-plane where the valuation's linear form is at least t; therefore the
full integral equals twice the integral of that linear form over the
polygon.  This uses only lattice combinatorics and exact polygon geometry:
no intersection matrices, no decompositions.
"""

from fractions import Fraction as F
from math import gcd

import pytest

from kwall.exactnum import SurdSum
from kwall.pairs import ChartCase
from kwall.volume import s_engine_raw, fixed_divisor_profile

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


class TestPolytopeOracle:
    @pytest.mark.parametrize("tag,surface", [
        ("case1-010", "f1"), ("case1-001", "f1"),
        ("case2-zu", "f1"), ("case2-yv", "f1"),
        ("case1p", "blp114"), ("case2p", "blp114"), ("case3p", "blp114")])
    def test_chart_integrals(self, tag, surface):
        for a, b in COPRIME_10:
            chart = ChartCase(surface, tag, a, b)
            oracle = polytope_raw(surface, chart_linear_form(tag, a, b))
            assert s_engine_raw(chart) == SurdSum.rational(oracle), (tag, a, b)

    @pytest.mark.parametrize("surface,name,coeffs", [
        ("f1", "H_y", (F(1), F(1), F(0))),
        ("f1", "H_z", (F(1), F(0), F(1))),
        ("f1", "H_x", (F(1), F(-1), F(-1))),
        ("f1", "E", (F(1), F(1), F(1))),
        ("blp114", "H_y", (F(1), F(1), F(0))),
        ("blp114", "H_z", (F(1), F(0), F(1))),
        ("blp114", "H_x", (F(1), F(-1), F(-4))),
        ("blp114", "E", (F(1), F(1), F(1))),
    ])
    def test_toric_divisor_integrals(self, surface, name, coeffs):
        oracle = polytope_raw(surface, coeffs)
        prof = fixed_divisor_profile(surface, name)
        assert prof.raw_integral == SurdSum.rational(oracle)

    def test_polygon_areas(self):
        assert 2 * integral_of_linear(F1_POLY, (F(1), F(0), F(0))) == 8
        assert 2 * integral_of_linear(BLP114_POLY, (F(1), F(0), F(0))) == 8
