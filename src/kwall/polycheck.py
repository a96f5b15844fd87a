"""Exact sign analysis for rational-coefficient polynomials.

Used to decide, with no floating point, whether a beta constraint stays
nonnegative over a whole interval of blowup-weight ratios.  Polynomials are
coefficient tuples in increasing degree order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Poly = tuple[Fraction, ...]


def poly(coeffs: Sequence) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_scale(q, -1))


def poly_scale(p: Poly, c) -> Poly:
    return poly([ci * Fraction(c) for ci in p])


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def poly_deriv(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:])


def poly_rem(p: Poly, q: Poly) -> Poly:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    dq = len(q) - 1
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dq or not r:
            break
        coef = r[-1] / q[-1]
        shift = len(r) - 1 - dq
        for i, c in enumerate(q):
            r[i + shift] -= coef * c
        r.pop()
    return poly(r)


def poly_div_linear(p: Poly, a: Fraction) -> Poly:
    """Synthetic division by (x - a); requires p(a) == 0."""
    out: list[Fraction] = []
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * a + c
        out.append(acc)
    if out and out[-1] != 0:
        raise ValueError("a is not a root")
    return poly(list(reversed(out[:-1])))


def sturm_sequence(p: Poly) -> list[Poly]:
    p = poly(p)
    if not p:
        return []
    seq = [p, poly_deriv(p)]
    while seq[-1]:
        rem = poly_rem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(poly_scale(rem, -1))
    return [s for s in seq if s]


def _sign_changes(seq: list[Poly], x: Fraction) -> int:
    signs = []
    for s in seq:
        v = poly_eval(s, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open(p: Poly, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of p in the open interval (a, b)."""
    p = poly(p)
    if not p:
        raise ValueError("zero polynomial has infinitely many roots")
    if not a < b:
        return 0
    # deflate roots sitting exactly at the endpoints so Sturm applies cleanly
    while p and poly_eval(p, a) == 0:
        p = poly_div_linear(p, a)
    while p and poly_eval(p, b) == 0:
        p = poly_div_linear(p, b)
    if not p:
        return 0
    seq = sturm_sequence(p)
    n = _sign_changes(seq, a) - _sign_changes(seq, b)
    if poly_eval(p, b) == 0:  # count is for (a, b]
        n -= 1
    return n


def cauchy_root_bound(p: Poly) -> Fraction:
    p = poly(p)
    if len(p) <= 1:
        return Fraction(1)
    lead = abs(p[-1])
    return Fraction(1) + max(abs(c) for c in p[:-1]) / lead


def _sign_right_of(p: Poly, a: Fraction) -> int:
    """Sign of p just to the right of a (0 only for the zero polynomial)."""
    q = poly(p)
    while q:
        v = poly_eval(q, a)
        if v != 0:
            return 1 if v > 0 else -1
        q = poly_deriv(q)
    return 0


def _sign_left_of(p: Poly, b: Fraction) -> int:
    """Sign of p just to the left of b."""
    q = poly(p)
    k = 0
    while q:
        v = poly_eval(q, b)
        if v != 0:
            s = 1 if v > 0 else -1
            return s if k % 2 == 0 else -s
        q = poly_deriv(q)
        k += 1
    return 0


def _scan_negative(p: Poly, lo: Fraction, hi: Fraction, from_left: bool) -> Fraction:
    """Find a point with p < 0 approaching lo (or hi) geometrically."""
    width = hi - lo
    for _ in range(512):
        width /= 2
        x = lo + width if from_left else hi - width
        if poly_eval(p, x) < 0:
            return x
    raise ArithmeticError("failed to locate a known-negative point")


def min_witness(p: Poly, a: Fraction, b: Fraction) -> Optional[Fraction]:
    """A rational x in [a, b] with p(x) < 0, or None if p >= 0 on [a, b]."""
    p = poly(p)
    a, b = Fraction(a), Fraction(b)
    if not p:
        return None
    if a == b:
        return a if poly_eval(p, a) < 0 else None
    if poly_eval(p, a) < 0:
        return a
    if poly_eval(p, b) < 0:
        return b
    if _sign_right_of(p, a) < 0:
        return _scan_negative(p, a, b, from_left=True)
    if _sign_left_of(p, b) < 0:
        return _scan_negative(p, a, b, from_left=False)
    # Both one-sided signs are nonnegative.  A dip below zero now requires at
    # least two distinct interior roots (a down- and an up-crossing).
    stack = [(a, b)]
    fuel = 4096
    while stack:
        fuel -= 1
        if fuel <= 0:
            raise ArithmeticError("root isolation did not converge")
        lo, hi = stack.pop()
        if count_roots_open(p, lo, hi) <= 1:
            continue
        mid = (lo + hi) / 2
        v = poly_eval(p, mid)
        if v < 0:
            return mid
        if v == 0:
            if _sign_right_of(p, mid) < 0:
                return _scan_negative(p, mid, hi, from_left=True)
            if _sign_left_of(p, mid) < 0:
                return _scan_negative(p, lo, mid, from_left=False)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return None


def nonneg_on_interval(p: Poly, a, b) -> tuple[bool, Optional[Fraction]]:
    """Decide p >= 0 on [a, b]; on failure also return a witness point."""
    w = min_witness(p, Fraction(a), Fraction(b))
    return (w is None), w


def nonneg_on_ray(p: Poly, a) -> tuple[bool, Optional[Fraction]]:
    """Decide p >= 0 on [a, infinity)."""
    p = poly(p)
    a = Fraction(a)
    if not p:
        return True, None
    if p[-1] < 0:
        x = max(a, cauchy_root_bound(p)) + 1
        return False, x
    bound = max(a, cauchy_root_bound(p)) + 1
    return nonneg_on_interval(p, a, bound)
