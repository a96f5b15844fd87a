import random
from fractions import Fraction as F

import pytest

import surd_reference as ref
from kwall.exactnum import (
    ExactDomainError,
    PiecewiseQuadratic,
    QuadraticPoly,
    SurdSum,
    render_fraction,
    render_surd,
    squarefree_decompose,
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
        x = SurdSum([(1, 3), (2, -2), (8, F(1, 4))])
        y = SurdSum([(1, F(3)), (2, F(-2)), (8, F(1, 4))])
        assert x == y and hash(x) == hash(y)
        assert x.terms == ((1, F(3)), (2, F(-3, 2)))
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


class TestComparison:
    def test_spec_examples(self):
        assert (sqrt(2) * F(2, 3) - F(1, 2)).sign() > 0
        assert (sqrt(6) * 3 + 1 - (sqrt(6) * 3 + 1)).sign() == 0
        # (1 + sqrt2)^2 = 3 + 2 sqrt2; against 5, 2 sqrt2 against 2 squares to 8 > 4
        assert ((rat(1) + sqrt(2)) * (rat(1) + sqrt(2)) - 5).sign() > 0

    def test_two_term_squaring(self):
        assert (sqrt(2) * 5 - 7).sign() > 0  # 50 > 49
        assert (sqrt(3) * 4 - 7).sign() < 0  # 48 < 49
        assert (rat(F(7, 2)) - sqrt(3) * 2).sign() > 0  # 49/4 > 12
        assert (sqrt(8) - 2 * sqrt(2)).sign() == 0
        assert (rat(3) - 2 * sqrt(2)).sign() > 0  # 9 > 8

    def test_total_order(self):
        vals = [rat(0), rat(1), sqrt(2), rat(F(3, 2)), rat(2), sqrt(2) + 1, rat(F(5, 2)),
                sqrt(8)]
        assert sorted(vals) == vals and sorted(reversed(vals)) == vals

    def test_comparison_vs_interval_10k(self):
        rng = random.Random(20260808)
        for _ in range(10_000):
            d = rng.choice([2, 3, 5, 6, 7, 10, 13])
            terms = [(rng.choice([1, d, 4 * d]),
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
    def _random_surd(self, rng, d):
        return SurdSum([(rng.choice([1, d]),
                         F(rng.randint(-6, 6), rng.randint(1, 6)))
                        for _ in range(rng.randint(0, 3))])

    def test_laws_randomized(self):
        rng = random.Random(1729)
        for _ in range(400):
            d = rng.choice([2, 3, 5, 6])
            a, b, c = (self._random_surd(rng, d) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + SurdSum() == a
            assert a * rat(1) == a
            assert (a - a).is_zero()

    def test_division(self):
        """Division is by a rational only."""
        assert (sqrt(8) + 4) / 2 == sqrt(2) + 2
        assert (sqrt(2) * 3) / F(3, 4) == sqrt(2) * 4
        with pytest.raises(ZeroDivisionError):
            sqrt(2) / 0
        with pytest.raises(ZeroDivisionError):
            SurdSum() / F(0)
        for divisor in (rat(1) + sqrt(2), rat(2), SurdSum()):
            with pytest.raises(TypeError):
                rat(1) / divisor
            with pytest.raises(TypeError):
                1 / divisor


class TestRendering:
    def test_canonical_text(self):
        assert render_fraction(F(5, 1)) == "5"
        assert render_fraction(F(-3, 4)) == "-3/4"
        assert render_surd(rat(F(1, 2)) + sqrt(5) * F(3, 4)) == "1/2+3/4*sqrt(5)"
        assert render_surd(sqrt(2) * F(-2, 3)) == "-2/3*sqrt(2)"
        assert render_surd(SurdSum()) == "0"
        assert render_surd(sqrt(2) * 3 - 1) == "-1+3*sqrt(2)"

    def test_term_order_ascending_radicand(self):
        s = sqrt(7) + rat(2)
        assert render_surd(s) == "2+1*sqrt(7)"
        assert render_surd(SurdSum([(28, F(-1, 2)), (1, 2)])) == "2-1*sqrt(7)"

    def test_repr(self):
        assert repr(sqrt(2) + 1) == "SurdSum([(1, Fraction(1, 1)), (2, Fraction(1, 1))])"
        assert repr(SurdSum()) == "SurdSum([])"
        assert repr([sqrt(8) * F(-1, 3)]) == "[SurdSum([(2, Fraction(-2, 3))])]"

    def test_approx(self):
        assert sqrt(2).approx_str(6) == "1.414214"
        assert (sqrt(2) * F(2, 3)).approx_str(8) == "0.94280904"
        assert rat(F(-1, 3)).approx_str(4) == "-0.3333"


class TestQuadraticAndPiecewise:
    def test_eval_types(self):
        q = QuadraticPoly(F(-4), F(0), F(8))
        assert q(F(1, 2)) == F(7) and type(q(F(1, 2))) is F
        assert q(2) == F(-8) and type(q(2)) is F

    def test_quadratic_root_constructor(self):
        assert QuadraticPoly(F(1), F(0), F(-2)).real_roots()[1] == sqrt(2)
        assert QuadraticPoly(F(2), F(-3), F(1)).real_roots()[0] == F(1, 2)
        assert QuadraticPoly(F(1), F(0), F(1)).real_roots() == []

    def test_real_roots_sorted(self):
        q = QuadraticPoly(F(1), F(0), F(-2))
        lo, hi = q.real_roots()
        assert lo == -sqrt(2) and hi == sqrt(2)

    def test_paper_integrals(self):
        seg = PiecewiseQuadratic([0, 2], [QuadraticPoly(F(-1), F(-2), F(8))])
        assert seg.integrate(0, 2) == rat(F(28, 3))
        cubic = PiecewiseQuadratic([0, F(4, 3)], [QuadraticPoly(F(-9, 2), F(0), F(8))])
        assert cubic.integrate(0, F(4, 3)) == rat(F(64, 9))

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


def _power_antiderivative(q, t):
    return q.c2 * t**3 / 3 + q.c1 * t**2 / 2 + q.c0 * t


def _naive_integral(f, lo, hi):
    """Integral by the power-form antiderivative, segment by segment."""
    total = F(0)
    for a, b, seg in zip(f.breakpoints, f.breakpoints[1:], f.segments):
        left, right = max(a, F(lo)), min(b, F(hi))
        if left < right:
            total += _power_antiderivative(seg, right) - _power_antiderivative(seg, left)
    return total


def _mixed_profile():
    # breakpoints 0, 1, 5/4, 3/2, 5/2, 3; each segment differs from the
    # previous one by a multiple of a product of (t - breakpoint)
    q0 = QuadraticPoly(F(0), F(-1), F(8))
    q1 = QuadraticPoly(q0.c2 - F(1, 2), q0.c1 + 1, q0.c0 - F(1, 2))          # -(t-1)^2/2
    q2 = QuadraticPoly(q1.c2 - 1, q1.c1 + F(13, 4), q1.c0 - F(5, 2))          # -(t-5/4)(t-2)
    q3 = QuadraticPoly(q2.c2, q2.c1 + 3, q2.c0 - F(9, 2))                     # 3(t-3/2)
    q4 = QuadraticPoly(q3.c2 + F(1, 3), q3.c1 - F(5, 3), q3.c0 + F(25, 12))  # (t-5/2)^2/3
    bps = [0, 1, F(5, 4), F(3, 2), F(5, 2), 3]
    return PiecewiseQuadratic(bps, [q0, q1, q2, q3, q4])


class TestMixedBreakpoints:
    def test_public_types_are_fractions(self):
        f = _mixed_profile()
        assert all(type(b) is F for b in f.breakpoints)
        assert type(f.tau) is F and f.tau == 3
        assert type(f.integrate(0, 1)) is F
        assert type(f.integrate(0, F(1, 2))) is F

    def test_continuity_matches_naive(self):
        f = _mixed_profile()
        f.check_continuity()
        for k in range(len(f.segments) - 1):
            b = f.breakpoints[k + 1]
            q, r = f.segments[k], f.segments[k + 1]
            assert q.c2 * b * b + q.c1 * b + q.c0 == r.c2 * b * b + r.c1 * b + r.c0

    @pytest.mark.parametrize("lo,hi", [
        (0, 3), (0, 1), (F(1, 3), F(5, 2)), (1, F(3, 2)), (F(3, 2), 3),
        (F(5, 4), F(5, 2)), (F(5, 8), F(7, 4)), (F(7, 4), F(5, 2)),
        (F(1, 2), F(7, 4)), (F(5, 4), F(3, 2)), (F(3, 2), F(5, 2)),
        (F(5, 4), F(5, 4)), (F(7, 5), F(7, 5)),
    ])
    def test_integrate_matches_naive(self, lo, hi):
        f = _mixed_profile()
        assert f.integrate(lo, hi) == _naive_integral(f, lo, hi)

    def test_additivity_across_kinds(self):
        # cut points on and between breakpoints
        f = _mixed_profile()
        cuts = [0, F(1, 2), F(5, 4), F(3, 2), F(7, 4), 3]
        total = F(0)
        for lo, hi in zip(cuts, cuts[1:]):
            total += f.integrate(lo, hi)
        assert total == f.integrate(0, 3)

    def test_discontinuity_at_rational_breakpoint(self):
        f = _mixed_profile()
        jump = f.segments[:3] + [QuadraticPoly(F(-1), F(3), F(-1))] + f.segments[4:]
        bad = PiecewiseQuadratic(f.breakpoints, jump)
        with pytest.raises(ExactDomainError, match="discontinuous at 3/2"):
            bad.check_continuity()

    def test_surd_breakpoint_rejected(self):
        with pytest.raises(TypeError):
            PiecewiseQuadratic([0, sqrt(2)], [QuadraticPoly(F(-4), F(0), F(8))])

    def test_bounds_checked_in_mixed_kinds(self):
        f = _mixed_profile()
        with pytest.raises(ExactDomainError):
            f.integrate(0, F(10, 3))
        with pytest.raises(ExactDomainError):
            f.integrate(F(7, 4), F(5, 4))
        with pytest.raises(ExactDomainError):
            PiecewiseQuadratic([0, F(5, 4), F(6, 5)], f.segments[:2])

    def test_real_roots_order_with_negative_leading(self):
        q = QuadraticPoly(F(-1), F(0), F(2))
        lo, hi = q.real_roots()
        assert lo == -sqrt(2) and hi == sqrt(2)
        lo, hi = QuadraticPoly(F(-2), F(1), F(1)).real_roots()
        assert lo == rat(F(-1, 2)) and hi == rat(1)

    def test_real_roots_rational_as_fraction(self):
        # a square discriminant 25/36 and a linear polynomial give Fraction roots
        lo, hi = QuadraticPoly(F(1), F(-1, 6), F(-1, 6)).real_roots()
        assert (lo, hi) == (F(-1, 3), F(1, 2))
        assert type(lo) is F and type(hi) is F
        assert QuadraticPoly(F(0), F(3), F(-2)).real_roots() == [F(2, 3)]
        assert type(QuadraticPoly(F(0), F(3), F(-2)).real_roots()[0]) is F
        assert QuadraticPoly(F(1), F(-2), F(1)).real_roots() == [F(1), F(1)]
        # a discriminant 2 or 1/2 (non-square numerator or denominator) keeps the surd
        for c0 in (F(-1, 2), F(-1, 8)):
            assert all(isinstance(r, SurdSum) for r in QuadraticPoly(F(1), F(0), c0).real_roots())


def _random_surd(rng, d):
    """A seeded sum over 1, ``d`` and ``4d``, zero terms included."""
    return SurdSum([(rng.choice((1, d, 4 * d)), F(rng.randint(-5, 5), rng.randint(1, 4)))
                    for _ in range(rng.randint(0, 4))])


def _random_fraction(rng):
    return F(rng.randint(-30, 30), rng.randint(1, 12))


class TestHash:
    def test_rational_hashes_as_its_fraction(self):
        assert hash(rat(F(1, 2))) == hash(F(1, 2))
        assert len({rat(F(1, 2)), F(1, 2)}) == 1
        assert hash(SurdSum()) == hash(0) and len({SurdSum(), 0, F(0)}) == 1
        assert hash(rat(3)) == hash(3) and hash(-rat(F(7, 3))) == hash(F(-7, 3))

    def test_fast_path_values_keep_the_hash(self):
        assert hash(sqrt(2) - sqrt(2) + F(1, 2)) == hash(F(1, 2))
        assert hash((sqrt(8) + 4) / 2 - sqrt(2)) == hash(2)
        assert hash(sqrt(2) + 1) == hash(SurdSum([(1, 1), (8, F(1, 2))]))


class TestNormalizedFastPaths:
    """Every SurdSum built without the public constructor holds the invariant:
    the same terms as the public constructor gives them."""

    def test_sum_difference_negation_quotient(self):
        rng = random.Random(11)
        for _ in range(400):
            d = rng.choice((2, 3, 5, 6))
            x, y = _random_surd(rng, d), _random_surd(rng, d)
            q = _random_fraction(rng) or F(1)
            for z in (x + y, x - y, -x, x * y, x * q, x / q, x + q, q - x, x - q, x - 2, x - 0,
                      y / 3, SurdSum.rational(q)):
                assert z.terms == SurdSum(z.terms).terms
                assert all(type(c) is F and c for _, c in z.terms)
            # a rational subtrahend shifts the head term alone
            assert (x - q).terms == SurdSum(x.terms + ((1, -q),)).terms
            assert (x - 2).terms == SurdSum(x.terms + ((1, -2),)).terms

    def test_integral_terms(self):
        # an integral is one Fraction, whatever the bounds
        rng = random.Random(12)
        f = _mixed_profile()
        for _ in range(50):
            lo, hi = sorted(F(rng.randint(0, 30), rng.randint(1, 10)) for _ in range(2))
            hi = min(hi, f.tau)
            lo = min(lo, hi)
            z = f.integrate(lo, hi)
            assert type(z) is F and z == _naive_integral(f, lo, hi)

    def test_irrational_roots_the_general_way(self):
        rng = random.Random(13)
        seen = 0
        for _ in range(500):
            c2 = _random_fraction(rng) or F(1)
            q = QuadraticPoly(c2, _random_fraction(rng), _random_fraction(rng))
            disc = q.c1 * q.c1 - 4 * q.c2 * q.c0
            roots = q.real_roots()
            if disc < 0 or all(type(r) is F for r in roots):
                continue
            seen += 1
            sq = SurdSum.sqrt(disc)
            minus, plus = (-sq - q.c1) / (2 * q.c2), (sq - q.c1) / (2 * q.c2)
            assert roots == ([minus, plus] if c2 > 0 else [plus, minus])
            for r in roots:
                assert r.terms == SurdSum(r.terms).terms
                assert (r * r * q.c2 + r * q.c1 + q.c0).is_zero()
        assert seen > 100


class TestHorner:
    def test_call_and_antiderivative_match_power_form(self):
        # the antiderivative from 0 is the integral over [0, t]
        rng = random.Random(14)
        for _ in range(400):
            q = QuadraticPoly(_random_fraction(rng), _random_fraction(rng), _random_fraction(rng))
            t = _random_fraction(rng) if rng.random() < 0.8 else rng.randint(-9, 9)
            value, (num, den) = q(t), q.integral_parts(F(0), F(t))
            assert type(value) is F and type(num) is int and type(den) is int and den > 0
            assert value == q.c2 * t**2 + q.c1 * t + q.c0
            assert F(num, den) == _power_antiderivative(q, F(t))


RADICANDS = (2, 3, 5, 6, 7)


def _oracle_surd(rng, d):
    """``p + q*sqrt(d)`` from one to four terms over ``d`` and ``4d``, or
    zero; about half carry a rational head, of either sign."""
    if rng.random() < 0.05:
        return SurdSum()
    terms = [(rng.choice((d, 4 * d)), F(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        terms[0] = (1, F(rng.randint(-40, 40) or -1, rng.randint(1, 12)))
    return SurdSum(terms)


class TestIntegerDecisionsMatchReference:
    """Comparisons, ``sign`` and ``enclosure`` on ``p + q*sqrt(d)``, for
    d in {2, 3, 5, 6, 7}, equal the Fraction reference of ``surd_reference``."""

    def test_seeded_property(self):
        rng = random.Random(19)
        heads = {1: 0, -1: 0}
        zero = equal = squared = 0
        for _ in range(1500):
            x = _oracle_surd(rng, rng.choice(RADICANDS))
            head = x.terms[0][1] if x.terms and x.terms[0][0] == 1 else F(0)
            if head:
                heads[1 if head > 0 else -1] += 1
            # the head itself zeroes the rational term; the value itself is
            # equal; 0 takes the no-head shift
            operands = [head, x.terms[0][1] if x.is_rational() and x.terms else 0,
                        rng.randint(-5, 5), F(rng.randint(-60, 60), rng.randint(1, 12))]
            for other in operands:
                s = ref.compare(x, other)
                assert (x < other, x <= other, x > other, x >= other) == (
                    s < 0, s <= 0, s > 0, s >= 0), (x, other)
                zero += x.is_zero()
                equal += s == 0
            assert x.sign() == ref.sign(x), x
            squared += len(x.terms) == 2 and {q > 0 for _, q in x.terms} == {True, False}
            for bits in (8, 128, rng.randint(9, 127)):
                lo, hi = x.enclosure(bits)
                assert (lo, hi) == ref.enclosure(x, bits), (x, bits)
                assert type(lo) is F and type(hi) is F
        assert min(heads.values()) > 300 and zero > 100 and equal > 100 and squared > 200, (
            heads, zero, equal, squared)

    def test_surd_operands_match_reference(self):
        rng = random.Random(20)
        for _ in range(400):
            d = rng.choice(RADICANDS)
            x, y = _oracle_surd(rng, d), _oracle_surd(rng, d)
            for other in (x, y, SurdSum(x.terms)):
                s = ref.compare(x, other)
                assert (x < other, x <= other, x > other, x >= other) == (
                    s < 0, s <= 0, s > 0, s >= 0), (x, other)

    def test_rational_comparison_builds_one_surd(self, monkeypatch):
        """A comparison with an int or Fraction makes one shifted SurdSum
        (by ``__sub__``), which holds the invariant, and none when there is
        nothing to shift."""
        built = []
        of = SurdSum._of.__func__

        def count(cls, p, q, d):
            x = of(cls, p, q, d)
            assert x.terms == SurdSum(x.terms).terms
            built.append(x)
            return x

        x = sqrt(2) * F(2, 3) - F(1, 2)
        monkeypatch.setattr(SurdSum, "_of", classmethod(count))
        assert x > 0 and len(built) == 0
        assert x < 1 and x >= F(-1, 2) and not x <= F(1, 3)
        assert len(built) == 3
        assert sqrt(3) > 0 and len(built) == 3
        assert sqrt(3) < 2 and len(built) == 4


class TestOneField:
    """Every value lies in one quadratic field Q(sqrt(d)); an operation that
    would need a second radicand raises."""

    def test_mixed_radicands_raise(self):
        x, y = sqrt(2) + 1, sqrt(3) * F(1, 2)
        for op in (lambda: x + y, lambda: x - y, lambda: y - x, lambda: x * y,
                   lambda: x < y, lambda: SurdSum([(2, 1), (3, 1)]),
                   lambda: SurdSum([(1, 4), (8, 1), (12, F(-1, 2))])):
            with pytest.raises(ExactDomainError, match="different fields"):
                op()
        # a rational operand, or a radicand that cancels, joins any field
        assert (x + 1) * F(1, 2) - sqrt(2) * F(1, 2) == 1
        assert (x - sqrt(2)) * y == y
        assert SurdSum([(2, 1), (8, F(-1, 2)), (3, 1)]) == sqrt(3)

    def test_products_stay_in_the_field(self):
        assert (rat(1) + sqrt(2)) * (rat(1) - sqrt(2)) == -1
        assert sqrt(6) * sqrt(6) == 6 and sqrt(F(1, 2)) * sqrt(8) == 2
        assert (rat(2) + sqrt(5)) * (sqrt(5) * 3 - 1) == rat(13) + sqrt(5) * 5
        assert (sqrt(3) * 0).terms == () and (sqrt(3) * 0).is_rational()
