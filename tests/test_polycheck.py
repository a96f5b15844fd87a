import random
from fractions import Fraction as F
from math import lcm

import pytest

from kwall.polycheck import nonneg_on_interval, nonneg_on_ray


def affine(p0, p1=0):
    return F(p0), F(p1)


def value(p, x):
    return p[0] + p[1] * x


class TestNonnegativity:
    def test_positive_everywhere(self):
        ok, w = nonneg_on_interval(affine(3, 1), F(-2), F(5))
        assert ok and w is None

    def test_dip_found(self):
        # 1 - x dips below 0 at the right end, x - 1 at the left end
        ok, w = nonneg_on_interval(affine(1, -1), F(0), F(3))
        assert (ok, w) == (False, F(3))
        ok, w = nonneg_on_interval(affine(-1, 1), F(0), F(3))
        assert (ok, w) == (False, F(0))

    def test_touch_is_nonnegative(self):
        # a root exactly at either endpoint still counts as nonnegative
        assert nonneg_on_interval(affine(-1, 1), F(1), F(2)) == (True, None)
        assert nonneg_on_interval(affine(2, -1), F(1), F(2)) == (True, None)
        assert nonneg_on_ray(affine(-1, 1), F(1)) == (True, None)

    def test_negative_just_inside_endpoint(self):
        p = affine(0, -1)  # -x: zero at 0, negative on (0, 3]
        ok, w = nonneg_on_interval(p, F(0), F(3))
        assert not ok and w == 3

    def test_ray(self):
        # positive, zero and negative slope
        assert nonneg_on_ray(affine(1, 1), F(0)) == (True, None)
        assert nonneg_on_ray(affine(-1, 1), F(0)) == (False, F(0))
        assert nonneg_on_ray(affine(2), F(5)) == (True, None)
        assert nonneg_on_ray(affine(-2), F(5)) == (False, F(6))
        assert nonneg_on_ray(affine(-2), F(-3)) == (False, F(2))
        ok, w = nonneg_on_ray(affine(1, -1), F(0))  # 1 - x
        assert not ok and value(affine(1, -1), w) < 0

    def test_zero_polynomial(self):
        assert nonneg_on_interval(affine(0, 0), F(0), F(1)) == (True, None)
        assert nonneg_on_ray(affine(0), F(-3)) == (True, None)

    def test_constant_polynomials(self):
        assert nonneg_on_interval(affine(F(1, 3)), F(-1), F(1)) == (True, None)
        assert nonneg_on_interval(affine(-1), F(2), F(3)) == (False, F(2))

    def test_cauchy_bound(self):
        # the ray witness lies past max(lo, 1 + |p0 / p1|)
        p = affine(9, -2)
        ok, w = nonneg_on_ray(p, F(0))
        assert not ok and w == 1 + F(9, 2) + 1 and value(p, w) < 0
        ok, w = nonneg_on_ray(p, F(20))
        assert not ok and w == 21
        assert nonneg_on_ray(affine(0, -1), F(0)) == (False, F(2))

    def test_degree_two_raises(self):
        quadratic = (F(2), F(-3), F(1))
        with pytest.raises(ValueError):
            nonneg_on_interval(quadratic, F(0), F(3))
        with pytest.raises(ValueError):
            nonneg_on_ray(quadratic, F(0))


def _random_affine(rng):
    coeffs = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2)]
    if rng.random() < 0.2:
        coeffs[1] = F(0)
    return tuple(coeffs)


def test_dense_sample_oracle():
    rng = random.Random(4)
    decided = {True: 0, False: 0}
    for _ in range(300):
        p = _random_affine(rng)
        lo = rng.randint(-128, 128)
        hi = lo + rng.randint(1, 256)
        ok, w = nonneg_on_interval(p, F(lo, 64), F(hi, 64))
        sampled = all(value(p, F(k, 64)) >= 0 for k in range(lo, hi + 1))
        assert ok == sampled, (p, lo, hi)
        if not ok:
            assert w in (F(lo, 64), F(hi, 64)) and value(p, w) < 0
        decided[ok] += 1

        ok, w = nonneg_on_ray(p, F(lo, 64))
        if ok:
            assert all(value(p, F(k, 64)) >= 0 for k in range(lo, lo + 64 * 40))
        else:
            assert w >= F(lo, 64) and value(p, w) < 0
    assert min(decided.values()) > 50


def integer_form(p, scale=1):
    """The pair times a positive multiple of its denominators' lcm, as ints:
    the form ``stability.verify_semistable_at`` passes."""
    k = lcm(F(p[0]).denominator, F(p[1]).denominator) * scale
    return int(p[0] * k), int(p[1] * k)


class TestIntegerForm:
    def test_falling_ray_witness(self):
        # 9/2 - 2r/3 cleared to 27 - 4r: the witness is max(lo, 1 + |p0/p1|) + 1
        p = affine(F(9, 2), F(-2, 3))
        for lo, w in ((F(0), F(35, 4)), (0, F(35, 4)), (F(10), F(11))):
            for form in (p, integer_form(p), integer_form(p, 7)):
                ok, got = nonneg_on_ray(form, lo)
                assert (ok, got) == (False, w) and type(got) is F

    def test_integer_endpoints_give_fraction_witnesses(self):
        assert nonneg_on_interval((-1, 5), 0, F(1, 2)) == (False, F(0))
        assert type(nonneg_on_interval((-1, 5), 0, F(1, 2))[1]) is F
        assert nonneg_on_interval((3, -2), 0, F(3, 2)) == (True, None)
        assert nonneg_on_interval((3, -2), 0, F(5, 2)) == (False, F(5, 2))
        for lo in (0, F(0), F(3, 2)):
            ok, w = nonneg_on_ray((-2, 0), lo)
            assert (ok, w) == (False, max(F(lo), 1) + 1) and type(w) is F
        ok, w = nonneg_on_ray((-1, 3), 0)  # rising from p(0) < 0: the witness is lo
        assert (ok, w) == (False, F(0)) and type(w) is F
        assert nonneg_on_ray((0, 0), 0) == (True, None)

    def test_matches_rational_form(self):
        rng = random.Random(25)
        decided = {True: 0, False: 0}
        for _ in range(400):
            p = _random_affine(rng)
            ints = integer_form(p, rng.randint(1, 5))
            lo = F(rng.randint(0, 64), rng.randint(1, 8))
            hi = lo + F(rng.randint(1, 64), rng.randint(1, 8))
            for check, args in ((nonneg_on_interval, (lo, hi)), (nonneg_on_ray, (lo,))):
                want = check(p, *args)
                got = check(ints, *args)
                assert got == want and type(got[1]) is type(want[1]), (p, args)
                decided[want[0]] += 1
        assert min(decided.values()) > 100
