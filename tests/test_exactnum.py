import random
from fractions import Fraction as F

import pytest

from kwall.exactnum import (
    ExactDomainError,
    PiecewiseQuadratic,
    QuadraticPoly,
    SurdSum,
    integrate_piecewise,
    render_fraction,
    render_surd,
    squarefree_decompose,
    surd_compare,
)


def rat(x):
    return SurdSum.rational(x)


def sqrt(x):
    return SurdSum.sqrt(x)


class TestNormalization:
    def test_squarefree_decompose(self):
        assert squarefree_decompose(8) == (2, 2)
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(49) == (7, 1)
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(2 * 3 * 5 * 7) == (1, 210)

    def test_radicand_reduction(self):
        assert SurdSum([(8, 1)]) == sqrt(2) * 2
        assert SurdSum([(50, F(1, 5))]) == sqrt(2)
        assert SurdSum([(4, F(1, 2))]) == rat(1)

    def test_idempotence(self):
        x = SurdSum([(18, F(2, 3)), (1, F(-1, 2)), (2, 1)])
        again = SurdSum(x.terms)
        assert again.terms == x.terms

    def test_zero_terms_dropped(self):
        assert (sqrt(3) - sqrt(3)).is_zero()
        assert (rat(5) + rat(-5)).terms == ()

    def test_int_and_fraction_coefficients_agree(self):
        x = SurdSum([(1, 3), (2, -2), (12, F(1, 2))])
        y = SurdSum([(1, F(3)), (2, F(-2)), (12, F(1, 2))])
        assert x == y and hash(x) == hash(y)
        assert x.terms == ((1, F(3)), (2, F(-2)), (3, F(1)))
        assert all(type(q) is F for _, q in x.terms)
        assert all(type(q) is F for _, q in SurdSum([(1, 5), (8, 1)]).terms)

    def test_zero_and_repeated_radicands(self):
        assert SurdSum([(2, 0), (3, F(0)), (5, 1)]).terms == ((5, F(1)),)
        assert SurdSum([(7, 0)]) == SurdSum()
        assert sqrt(8) + sqrt(2) == sqrt(2) * 3
        assert SurdSum([(8, 1), (2, 1), (18, F(1, 3))]).terms == ((2, F(4)),)
        assert SurdSum([(1, 2), (4, 1), (9, F(-1, 3))]) == rat(3)

    def test_full_cancellation(self):
        x = SurdSum([(2, 1), (8, F(-1, 2)), (1, 3), (1, -3)])
        assert x == SurdSum() and x.terms == ()
        assert hash(x) == hash(SurdSum())
        assert SurdSum([(12, 1), (3, -2)]) == SurdSum()
        y = SurdSum([(1, F(1, 2)), (50, 1)])
        z = SurdSum([(2, 5), (1, F(2, 4))])
        assert y == z and hash(y) == hash(z)

    def test_distinct_radicals_independent(self):
        # sqrt(2) + sqrt(3) - sqrt(2) - sqrt(3) must normalize to empty
        x = sqrt(2) + sqrt(3) - sqrt(2) - sqrt(3)
        assert x.is_zero() and x.sign() == 0


class TestComparison:
    def test_spec_examples(self):
        assert surd_compare(sqrt(2) * F(2, 3), F(1, 2)) > 0
        assert surd_compare(sqrt(2) + sqrt(3), sqrt(2) + sqrt(3)) == 0
        # repeated-squaring oracle: (sqrt2+sqrt3)^2 = 5 + 2 sqrt6 and
        # (sqrt10)^2 = 10; comparing 2 sqrt6 with 5 squares to 24 < 25
        assert surd_compare(sqrt(2) + sqrt(3), sqrt(10)) < 0

    def test_two_term_squaring(self):
        assert (sqrt(2) * 5 - sqrt(3) * 4).sign() > 0  # 50 > 48
        assert (sqrt(2) * 4 - sqrt(3) * 4).sign() < 0  # 32 < 48
        assert (sqrt(3) - sqrt(2) * 2).sign() < 0
        assert (sqrt(8) - 2 * sqrt(2)).sign() == 0
        assert (rat(3) - 2 * sqrt(2)).sign() > 0  # 9 > 8

    def test_many_term_refinement(self):
        assert (sqrt(2) + sqrt(3) - sqrt(10)).sign() < 0
        assert (sqrt(2) + sqrt(3) + sqrt(5) - rat(F(27, 5))).sign() < 0
        assert (sqrt(2) + sqrt(3) + sqrt(5) - rat(5)).sign() > 0
        close = F(31462643699419723, 10**16)  # sqrt2 + sqrt3 to 16 digits
        assert (sqrt(2) + sqrt(3) - close).sign() != 0

    def test_total_order(self):
        vals = [rat(0), rat(1), sqrt(2), sqrt(3), rat(2), sqrt(5), rat(F(5, 2))]
        assert sorted(vals) == vals

    def test_comparison_vs_interval_10k(self):
        rng = random.Random(20260808)
        radicands = [1, 2, 3, 5, 6, 7, 10, 13]
        for _ in range(10_000):
            terms = [(rng.choice(radicands),
                      F(rng.randint(-9, 9), rng.randint(1, 9)))
                     for _ in range(rng.randint(1, 4))]
            x = SurdSum(terms)
            s = x.sign()
            lo, hi = x.enclosure(64)
            if s > 0:
                assert hi > 0
            elif s < 0:
                assert lo < 0
            else:
                assert x.is_zero() and lo <= 0 <= hi


class TestRingLaws:
    def _random_surd(self, rng):
        return SurdSum([(rng.choice([1, 2, 3, 5, 6]),
                         F(rng.randint(-6, 6), rng.randint(1, 6)))
                        for _ in range(rng.randint(0, 3))])

    def test_laws_randomized(self):
        rng = random.Random(1729)
        for _ in range(400):
            a, b, c = (self._random_surd(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + SurdSum() == a
            assert a * rat(1) == a
            assert (a - a).is_zero()

    def test_division(self):
        x = rat(1) / (rat(1) + sqrt(2))
        assert x == sqrt(2) - 1
        assert (sqrt(6) / sqrt(2)) == sqrt(3)
        with pytest.raises(ZeroDivisionError):
            rat(1) / SurdSum()
        with pytest.raises(ExactDomainError):
            rat(1) / (sqrt(2) + sqrt(3))

    def test_powers(self):
        assert (rat(1) + sqrt(2)) ** 2 == rat(3) + sqrt(2) * 2
        assert sqrt(2) ** 4 == rat(4)
        assert (rat(1) + sqrt(2)) ** -1 == sqrt(2) - 1


class TestRendering:
    def test_canonical_text(self):
        assert render_fraction(F(5, 1)) == "5"
        assert render_fraction(F(-3, 4)) == "-3/4"
        assert render_surd(rat(F(1, 2)) + sqrt(5) * F(3, 4)) == "1/2+3/4*sqrt(5)"
        assert render_surd(sqrt(2) * F(-2, 3)) == "-2/3*sqrt(2)"
        assert render_surd(SurdSum()) == "0"
        assert render_surd(sqrt(2) + sqrt(3) - 1) == "-1+1*sqrt(2)+1*sqrt(3)"

    def test_term_order_ascending_radicand(self):
        s = sqrt(7) + sqrt(3) + rat(2)
        assert render_surd(s) == "2+1*sqrt(3)+1*sqrt(7)"

    def test_approx(self):
        assert sqrt(2).approx_str(6) == "1.414214"
        assert (sqrt(2) * F(2, 3)).approx_str(8) == "0.94280904"
        assert rat(F(-1, 3)).approx_str(4) == "-0.3333"


class TestQuadraticAndPiecewise:
    def test_eval_types(self):
        q = QuadraticPoly(F(-4), F(0), F(8))
        assert q(F(1, 2)) == F(7)
        v = q(sqrt(2))
        assert isinstance(v, SurdSum) and v.is_zero()

    def test_quadratic_root_constructor(self):
        r = SurdSum.quadratic_root(1, 0, -2, +1)
        assert r == sqrt(2)
        r2 = SurdSum.quadratic_root(2, -3, 1, -1)
        assert r2 == rat(F(1, 2))
        with pytest.raises(ExactDomainError):
            SurdSum.quadratic_root(1, 0, 1, 1)

    def test_real_roots_sorted(self):
        q = QuadraticPoly(F(1), F(0), F(-2))
        lo, hi = q.real_roots()
        assert lo == -sqrt(2) and hi == sqrt(2)

    def test_paper_integrals(self):
        seg = PiecewiseQuadratic([0, 2], [QuadraticPoly(F(-1), F(-2), F(8))])
        assert integrate_piecewise(seg, 0, 2) == rat(F(28, 3))
        surd_seg = PiecewiseQuadratic([0, sqrt(2)], [QuadraticPoly(F(-4), F(0), F(8))])
        assert integrate_piecewise(surd_seg, 0, surd_seg.tau) == sqrt(2) * F(16, 3)
        cubic = PiecewiseQuadratic([0, F(4, 3)], [QuadraticPoly(F(-9, 2), F(0), F(8))])
        assert integrate_piecewise(cubic, 0, F(4, 3)) == rat(F(64, 9))

    def test_integration_additivity(self):
        rng = random.Random(7)
        f = PiecewiseQuadratic(
            [0, 1, 3, 5],
            [QuadraticPoly(F(0), F(0), F(4)),
             QuadraticPoly(F(1, 2), F(-1), F(9, 2)),
             QuadraticPoly(F(0), F(1), F(3))])
        f.check_continuity()
        for _ in range(50):
            pts = sorted(F(rng.randint(0, 50), 10) for _ in range(3))
            a, b, c = pts
            assert f.integrate(a, b) + f.integrate(b, c) == f.integrate(a, c)

    def test_domain_errors(self):
        f = PiecewiseQuadratic([0, 1], [QuadraticPoly(F(0), F(0), F(1))])
        with pytest.raises(ExactDomainError):
            f.integrate(0, 2)
        with pytest.raises(ExactDomainError):
            f.integrate(F(-1, 2), F(1, 2))
        with pytest.raises(ExactDomainError):
            f.integrate(1, 0)

    def test_continuity_check(self):
        bad = PiecewiseQuadratic(
            [0, 1, 2],
            [QuadraticPoly(F(0), F(0), F(1)), QuadraticPoly(F(0), F(0), F(2))])
        with pytest.raises(ExactDomainError):
            bad.check_continuity()

    def test_breakpoints_increase(self):
        with pytest.raises(ExactDomainError):
            PiecewiseQuadratic([0, 0], [QuadraticPoly(F(0), F(0), F(1))])


def _naive_integral(f, lo, hi):
    """Integral with every bound and breakpoint taken as a SurdSum."""
    lo, hi = SurdSum._coerce(lo), SurdSum._coerce(hi)
    total = SurdSum()
    for k, seg in enumerate(f.segments):
        left = max(SurdSum._coerce(f.breakpoints[k]), lo)
        right = min(SurdSum._coerce(f.breakpoints[k + 1]), hi)
        if left < right:
            total = total + seg.antiderivative(right) - seg.antiderivative(left)
    return total


def _mixed_profile():
    # breakpoints 0, 1, sqrt(2), 3/2, 1+sqrt(3), 3; each segment differs from
    # the previous one by a multiple of the breakpoint's minimal polynomial
    q0 = QuadraticPoly(F(0), F(-1), F(8))
    q1 = QuadraticPoly(q0.c2 - F(1, 2), q0.c1 + 1, q0.c0 - F(1, 2))       # -(t-1)^2/2
    q2 = QuadraticPoly(q1.c2 - 1, q1.c1, q1.c0 + 2)                       # -(t^2-2)
    q3 = QuadraticPoly(q2.c2, q2.c1 + 3, q2.c0 - F(9, 2))                 # 3(t-3/2)
    q4 = QuadraticPoly(q3.c2 + F(1, 3), q3.c1 - F(2, 3), q3.c0 - F(2, 3))  # (t^2-2t-2)/3
    bps = [0, 1, sqrt(2), F(3, 2), sqrt(3) + 1, 3]
    return PiecewiseQuadratic(bps, [q0, q1, q2, q3, q4])


class TestMixedBreakpoints:
    def test_public_types_stay_surd(self):
        f = _mixed_profile()
        assert all(isinstance(b, SurdSum) for b in f.breakpoints)
        assert isinstance(f.tau, SurdSum) and f.tau == rat(3)
        assert isinstance(f.integrate(0, 1), SurdSum)
        assert isinstance(f.integrate(0, F(1, 2)), SurdSum)

    def test_continuity_matches_naive(self):
        f = _mixed_profile()
        f.check_continuity()
        for k in range(len(f.segments) - 1):
            b = f.breakpoints[k + 1]
            assert SurdSum._coerce(f.segments[k](b)) == SurdSum._coerce(f.segments[k + 1](b))

    @pytest.mark.parametrize("lo,hi", [
        (0, 3), (0, 1), (F(1, 3), F(5, 2)), (1, F(3, 2)), (F(3, 2), 3),
        (sqrt(2), sqrt(3) + 1), (sqrt(2) / 2, sqrt(3)), (sqrt(3), sqrt(3) + 1),
        (F(1, 2), sqrt(3)), (sqrt(2), F(3, 2)), (F(3, 2), sqrt(3) + 1),
        (sqrt(2), sqrt(2)), (F(7, 5), F(7, 5)),
    ])
    def test_integrate_matches_naive(self, lo, hi):
        f = _mixed_profile()
        assert f.integrate(lo, hi) == _naive_integral(f, lo, hi)

    def test_integrate_rational_bounds_given_as_surd(self):
        f = _mixed_profile()
        assert f.integrate(rat(F(1, 3)), rat(F(5, 2))) == f.integrate(F(1, 3), F(5, 2))

    def test_additivity_across_kinds(self):
        f = _mixed_profile()
        cuts = [0, F(1, 2), sqrt(2), F(3, 2), sqrt(3), 3]
        total = SurdSum()
        for lo, hi in zip(cuts, cuts[1:]):
            total = total + f.integrate(lo, hi)
        assert total == f.integrate(0, 3)

    def test_discontinuity_at_rational_breakpoint(self):
        f = _mixed_profile()
        jump = f.segments[:3] + [QuadraticPoly(F(-1), F(3), F(-1))] + f.segments[4:]
        bad = PiecewiseQuadratic(f.breakpoints, jump)
        with pytest.raises(ExactDomainError, match="discontinuous at 3/2"):
            bad.check_continuity()

    def test_discontinuity_at_surd_breakpoint(self):
        f = _mixed_profile()
        jump = f.segments[:2] + [QuadraticPoly(F(-1, 2), F(0), F(7))] + f.segments[3:]
        bad = PiecewiseQuadratic(f.breakpoints, jump)
        with pytest.raises(ExactDomainError, match="sqrt"):
            bad.check_continuity()

    def test_bounds_checked_in_mixed_kinds(self):
        f = _mixed_profile()
        with pytest.raises(ExactDomainError):
            f.integrate(0, sqrt(10))
        with pytest.raises(ExactDomainError):
            f.integrate(sqrt(3), sqrt(2))
        with pytest.raises(ExactDomainError):
            PiecewiseQuadratic([0, sqrt(2), F(7, 5)], f.segments[:2])

    def test_real_roots_order_with_negative_leading(self):
        q = QuadraticPoly(F(-1), F(0), F(2))
        lo, hi = q.real_roots()
        assert lo == -sqrt(2) and hi == sqrt(2)
        lo, hi = QuadraticPoly(F(-2), F(1), F(1)).real_roots()
        assert lo == rat(F(-1, 2)) and hi == rat(1)
