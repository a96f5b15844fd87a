import random
from fractions import Fraction as F

import pytest

from kwall.atlas import bundled_atlas
from kwall.pairs import (
    PLANES,
    ChartCase,
    CurveSyntaxError,
    DegenerateWeightError,
    chart_expand,
    lambda_weight,
    make_curve,
    multiplicity,
    onePS_to_chart,
    parse_curve,
    render_curve,
    toric_multiplicities,
)


class TestParsing:
    def test_quadruple_line_curve(self):
        c = parse_curve("x^4*y*z", "f1")
        assert c.support() == ((1, 1),)
        assert toric_multiplicities(c) == {"H_x": 4, "H_y": 1, "H_z": 1, "E": 0}

    def test_second_wall_curve(self):
        c = parse_curve("x^4*z^2 + x^3*y^3", "f1")
        assert c.support() == ((0, 2), (3, 0))

    def test_missing_z3_warns(self):
        c = parse_curve("z^2*x^4", "blp114")
        assert c.warnings and "z^3" in c.warnings[0]
        assert not parse_curve("z^3+z^2*x^4", "blp114").warnings

    def test_symbolic_coefficients(self):
        c = parse_curve("x^4*z^2+a*x^3*z*y^2+x^2*y^4", "f1")
        tags = {(m.i, m.j): m.tag for m in c.monomials}
        assert tags[(2, 1)] == "generic-nonzero"
        assert tags[(0, 2)] == "one"

    def test_errors(self):
        with pytest.raises(CurveSyntaxError):
            parse_curve("x^4*z", "f1")  # degree 5
        with pytest.raises(CurveSyntaxError):
            parse_curve("x^5*y", "f1")  # multiplicity 1 at the center
        with pytest.raises(CurveSyntaxError):
            parse_curve("x^4*z^2+x^4*z^2", "f1")
        with pytest.raises(CurveSyntaxError):
            parse_curve("x^4*w^2", "f1")
        with pytest.raises(CurveSyntaxError):
            parse_curve("z^4", "blp114")  # weighted degree 16

    def test_round_trip_on_atlas(self):
        for branch in bundled_atlas().branches:
            c = parse_curve(branch.curve, branch.surface)
            assert render_curve(c) == branch.curve
            c2 = parse_curve(render_curve(c), branch.surface)
            assert c2.support() == c.support()


class TestOnePS:
    def test_spec_examples(self):
        ch = onePS_to_chart((0, 2, 3), "f1")
        assert (ch.tag, ch.a, ch.b) == ("case2-yv", 2, 1)
        ch = onePS_to_chart((0, 1, 2), "f1")
        assert (ch.tag, ch.a, ch.b) == ("case2-yv", 1, 1)
        ch = onePS_to_chart((1, 0, 4), "blp114")
        assert (ch.tag, ch.a, ch.b) == ("case3p", 1, 4)

    def test_remaining_table_weights(self):
        assert onePS_to_chart((0, 2, 5), "f1").tag == "case2-yv"
        ch = onePS_to_chart((2, 0, 7), "blp114")
        assert (ch.tag, ch.a, ch.b) == ("case3p", 2, 7)
        ch = onePS_to_chart((3, 0, 10), "blp114")
        assert (ch.tag, ch.a, ch.b) == ("case3p", 3, 10)
        ch = onePS_to_chart((1, 0, 3), "blp114")
        assert (ch.tag, ch.a, ch.b) == ("case3p", 1, 3)

    def test_zu_orientation(self):
        ch = onePS_to_chart((0, 3, 2), "f1")
        assert (ch.tag, ch.a, ch.b) == ("case2-zu", 2, 1)

    def test_case1_directions(self):
        ch = onePS_to_chart((3, 0, 1), "f1")
        assert (ch.tag, ch.a, ch.b) == ("case1-010", 3, 1)
        ch = onePS_to_chart((3, 1, 0), "f1")
        assert (ch.tag, ch.a, ch.b) == ("case1-001", 3, 1)

    def test_inverse_weights_of_walls(self):
        # the inverse action of the second-wall weight lands in the chart
        # that pins the wall from above
        ch = onePS_to_chart((0, -2, -3), "f1")
        assert (ch.tag, ch.a, ch.b) == ("case1-001", 3, 1)
        ch = onePS_to_chart((-3, 0, -8), "blp114")
        assert (ch.tag, ch.a, ch.b) == ("case2p", 3, 1)
        ch = onePS_to_chart((-3, 0, -10), "blp114")
        assert (ch.tag, ch.a, ch.b) == ("case1p", 2, 1)
        ch = onePS_to_chart((-1, 0, -4), "blp114")
        assert (ch.tag, ch.a, ch.b) == ("case3p", 1, 4)

    def test_weight_reduction(self):
        ch = onePS_to_chart((0, 4, 6), "f1")
        assert (ch.a, ch.b) == (2, 1)

    def test_degenerate(self):
        for lam in [(1, 0, 0), (0, 1, 1), (2, 2, 2)]:
            with pytest.raises(DegenerateWeightError):
                onePS_to_chart(lam, "f1")
        with pytest.raises(DegenerateWeightError):
            onePS_to_chart((0, 0, 4), "blp114")  # fixes the chart coordinate


class TestChartExpand:
    def test_spec_examples(self):
        c = parse_curve("x^4*z^2+x^3*y^3", "f1")
        sup = chart_expand(c, ChartCase("f1", "case2-yv", 2, 1))
        assert sup == ((0, 2), (1, 0))

        c2 = parse_curve("x^4*z^2+x^3*z*y^2+x^2*y^4", "f1")
        sup2 = chart_expand(c2, ChartCase("f1", "case2-yv", 1, 1))
        assert sup2 == ((0, 2), (1, 1), (2, 0))

        c3 = parse_curve("z^3+z^2*x^4", "blp114")
        sup3 = chart_expand(c3, ChartCase("blp114", "case3p", 1, 4))
        assert set(sup3) == {(0, 3), (4, 2)}

    def test_case1_keeps_x_exponent(self):
        c = parse_curve("x^4*z^2+x^3*y^3", "f1")
        sup = chart_expand(c, ChartCase("f1", "case1-001", 3, 1))
        assert set(sup) == {(4, 0), (3, 3)}

    def test_no_collision_on_atlas_curves(self):
        for branch in bundled_atlas().branches:
            c = parse_curve(branch.curve, branch.surface)
            for tag in PLANES[branch.surface].chart_tags:
                sup = chart_expand(c, ChartCase(branch.surface, tag, 1, 1))
                assert len(sup) == len(c.monomials)


class TestMultiplicity:
    def test_spec_examples(self):
        assert multiplicity(((0, 2), (1, 0)), 2, 1) == 2
        assert multiplicity(((0, 3), (4, 2)), 1, 4) == 12
        sup = ((0, 2), (1, 1), (2, 0))
        assert multiplicity(sup, 1, 1) == 2  # minimal total local degree

    def test_homogeneity_and_superadditivity(self):
        rng = random.Random(3)
        for _ in range(200):
            pts = tuple({(rng.randint(0, 6), rng.randint(0, 6))
                         for _ in range(rng.randint(1, 5))})
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            a2, b2 = rng.randint(1, 9), rng.randint(1, 9)
            for k in (2, 3, 5):
                assert multiplicity(pts, k * a, k * b) == k * multiplicity(pts, a, b)
            assert multiplicity(pts, a + a2, b + b2) >= \
                multiplicity(pts, a, b) + multiplicity(pts, a2, b2)

    def test_errors(self):
        with pytest.raises(ValueError):
            multiplicity((), 1, 1)
        with pytest.raises(ValueError):
            multiplicity(((1, 1),), 0, 1)


def log_discrepancy(chart, support, c):
    """(a + b) - c * multiplicity for a smooth-center chart blowup."""
    c = F(c)
    return F(chart.a + chart.b) - c * multiplicity(support, chart.a, chart.b)


class TestLogDiscrepancy:
    def test_spec_examples(self):
        sup = ((0, 2), (1, 0))
        ch = ChartCase("f1", "case2-yv", 2, 1)
        assert log_discrepancy(ch, sup, F(5, 58)) == F(82, 29)
        sup3 = ((0, 3), (4, 2))
        ch3 = ChartCase("blp114", "case3p", 1, 4)
        c = F(1, 7)
        assert log_discrepancy(ch3, sup3, c) == 5 - 12 * c
        assert log_discrepancy(ch3, sup3, 0) == 5


class TestInvariance:
    def test_lambda_weight(self):
        c = parse_curve("x^4*z^2+x^3*y^3", "f1")
        assert lambda_weight(c, (0, 2, 3)) == 6
        assert lambda_weight(c, (0, 1, 1)) is None

    def test_make_curve_tags(self):
        c = make_curve("f1", [(0, 2), (2, 1), (4, 0)],
                       tags={(2, 1): "generic-nonzero"})
        assert render_curve(c) == "x^4*z^2+a*x^3*z*y^2+x^2*y^4"
