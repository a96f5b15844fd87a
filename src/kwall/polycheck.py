"""Exact nonnegativity of affine rational polynomials on intervals and rays.

Each beta constraint is affine in the weight ratio r = b/a on an interval
between kinks, so its minimum over a closed interval sits at an endpoint.
Polynomials are coefficient tuples in increasing degree order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Poly = tuple[Fraction, ...]


def poly(coeffs: Sequence) -> Poly:
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    if len(out) > 2:
        raise ValueError(f"degree {len(out) - 1} polynomial: only affine ones are decided")
    return tuple(out)


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    """p(x) in Horner form."""
    acc = p[-1] if p else Fraction(0)
    for c in p[-2::-1]:
        acc = acc * x + c
    return acc


def nonneg_on_interval(p: Poly, a, b) -> tuple[bool, Optional[Fraction]]:
    """Decide p >= 0 on [a, b]; on failure also return a witness point."""
    p = poly(p)
    for x in (Fraction(a), Fraction(b)):
        if poly_eval(p, x) < 0:
            return False, x
    return True, None


def nonneg_on_ray(p: Poly, a) -> tuple[bool, Optional[Fraction]]:
    """Decide p >= 0 on [a, infinity); a witness lies past every root."""
    p, a = poly(p), Fraction(a)
    if p and p[-1] < 0:
        cauchy = 1 + max((abs(c) for c in p[:-1]), default=0) / abs(p[-1])
        return False, max(a, cauchy) + 1
    return (False, a) if poly_eval(p, a) < 0 else (True, None)  # slope >= 0: min is p(a)
