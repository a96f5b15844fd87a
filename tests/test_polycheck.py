import random
from fractions import Fraction as F

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
