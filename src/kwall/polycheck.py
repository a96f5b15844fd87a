"""Exact nonnegativity of affine rational functions on intervals and rays.

Each beta constraint is affine in the weight ratio r = b/a on an interval
between kinks, p(r) = p0 + p1*r, so its minimum over a closed interval sits
at an endpoint.  A function is the pair ``(p0, p1)`` of rationals, or of
integers when the caller has cleared a positive denominator; an endpoint is
an ``int`` or a ``Fraction``.  At r = b/a (a > 0) p has the sign of
a*p0 + b*p1, an integer test for an integer pair.  No verdict or witness
changes when p is scaled by a positive constant, and only a returned witness
is built as a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

Rational = Union[int, Fraction]
Affine = tuple[Rational, Rational]


def nonneg_on_interval(p: Affine, lo: Rational, hi: Rational) -> tuple[bool, Optional[Fraction]]:
    """Decide p >= 0 on [lo, hi]; on failure also return a witness point."""
    p0, p1 = p
    for x in (lo, hi):
        if x.denominator * p0 + x.numerator * p1 < 0:
            return False, Fraction(x)
    return True, None


def nonneg_on_ray(p: Affine, lo: Rational) -> tuple[bool, Optional[Fraction]]:
    """Decide p >= 0 on [lo, infinity); a falling p's witness lies past its root."""
    p0, p1 = p
    if p1 < 0:
        return False, Fraction(max(lo, 1 + abs(Fraction(p0) / p1)) + 1)
    if p1 == 0 and p0 < 0:
        return False, Fraction(max(lo, 1) + 1)
    if lo.denominator * p0 + lo.numerator * p1 < 0:  # slope >= 0: min is p(lo)
        return False, Fraction(lo)
    return True, None
