"""The comparison, sign and enclosure of ``kwall.exactnum.SurdSum`` computed
in ``Fraction`` arithmetic, as the package computed them before it decided
them on integers: the reference the integer decisions are checked against.
Differences go through the normalizing public constructor."""

from fractions import Fraction
from math import isqrt

from kwall.exactnum import SurdSum


def sqrt_bounds(d, bits):
    """Rational enclosure of sqrt(d) with denominator 2**bits."""
    scale = 1 << bits
    lo = isqrt(d * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


def enclosure(x, bits=64):
    lo = hi = Fraction(0)
    for d, q in x.terms:
        if d == 1:
            lo += q
            hi += q
            continue
        slo, shi = sqrt_bounds(d, bits)
        if q > 0:
            lo, hi = lo + q * slo, hi + q * shi
        else:
            lo, hi = lo + q * shi, hi + q * slo
    return lo, hi


def sign(x):
    ts = x.terms
    if not ts:
        return 0
    if all(q > 0 for _, q in ts):
        return 1
    if all(q < 0 for _, q in ts):
        return -1
    if len(ts) == 2:
        # q1*sqrt(d1) + q2*sqrt(d2) with opposite signs: square both sides
        (d1, q1), (d2, q2) = ts
        lhs = q1 * q1 * d1
        rhs = q2 * q2 * d2
        if lhs == rhs:
            return 0
        return (1 if q1 > 0 else -1) if lhs > rhs else (1 if q2 > 0 else -1)
    bits = 32
    while True:
        lo, hi = enclosure(x, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def difference(x, other):
    """``x - other`` built by the public constructor."""
    terms = other.terms if isinstance(other, SurdSum) else [(1, Fraction(other))]
    return SurdSum(list(x.terms) + [(d, -q) for d, q in terms])


def compare(x, other):
    """The sign of ``x - other``."""
    return sign(difference(x, other))
