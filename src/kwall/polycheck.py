"""Exact nonnegativity of affine rational functions on intervals and rays.

Each beta constraint is affine in the weight ratio r = b/a on an interval
between kinks, p(r) = p0 + p1*r, so its minimum over a closed interval sits
at an endpoint.  A function is the pair ``(p0, p1)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

Affine = tuple[Fraction, Fraction]


def nonneg_on_interval(p: Affine, lo, hi) -> tuple[bool, Optional[Fraction]]:
    """Decide p >= 0 on [lo, hi]; on failure also return a witness point."""
    p0, p1 = p
    for x in (Fraction(lo), Fraction(hi)):
        if p0 + p1 * x < 0:
            return False, x
    return True, None


def nonneg_on_ray(p: Affine, lo) -> tuple[bool, Optional[Fraction]]:
    """Decide p >= 0 on [lo, infinity); a falling p's witness lies past its root."""
    p0, p1 = p
    lo = Fraction(lo)
    if p1 < 0:
        return False, max(lo, 1 + abs(Fraction(p0) / p1)) + 1
    if p1 == 0 and p0 < 0:
        return False, max(lo, Fraction(1)) + 1
    return (False, lo) if p0 + p1 * lo < 0 else (True, None)  # slope >= 0: min is p(lo)
