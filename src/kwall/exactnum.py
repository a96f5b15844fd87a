"""Exact arithmetic kernel: rationals, sums of quadratic surds, quadratic
polynomials and piecewise-quadratic functions with exact integration.
Piecewise functions have rational breakpoints and integrate to a ``Fraction``;
a surd appears only as a root of a quadratic or in a closed form.

Every value is exact.  A :class:`SurdSum` is a finite sum ``sum(q_i * sqrt(d_i))``
with rational ``q_i`` and pairwise distinct squarefree natural ``d_i`` (the
``d = 1`` term is the rational part).  Distinct squarefree radicals are linearly
independent over the rationals, so equality is structural and the sign of a
nonzero value can always be decided in finitely many refinement steps.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

RationalLike = Union[int, Fraction]
Number = Union[int, Fraction, "SurdSum"]


class ExactDomainError(ValueError):
    """Raised when an operation leaves the supported exact domain."""


# ---------------------------------------------------------------------------
# squarefree decomposition


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        f = lambda x: (x * x + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def _factor(n: int, limit: int = 10**6) -> dict[int, int]:
    fac: dict[int, int] = {}
    p = 2
    while p * p <= n and p <= limit:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            for q, e in _factor(r, limit).items():
                fac[q] = fac.get(q, 0) + 2 * e
        elif n <= limit * limit:
            fac[n] = fac.get(n, 0) + 1
        else:
            d = _pollard_rho(n)
            for q, e in _factor(d, limit).items():
                fac[q] = fac.get(q, 0) + e
            for q, e in _factor(n // d, limit).items():
                fac[q] = fac.get(q, 0) + e
    return fac


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return ``(s, f)`` with ``n == s*s*f`` and ``f`` squarefree."""
    if n <= 0:
        raise ExactDomainError("radicand must be a positive integer")
    if n == 1:
        return 1, 1
    s, f = 1, 1
    for p, e in _factor(n).items():
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    return s, f


# ---------------------------------------------------------------------------
# sums of quadratic surds


def _merge_terms(a: tuple[tuple[int, Fraction], ...],
                 b: tuple[tuple[int, Fraction], ...]) -> tuple[tuple[int, Fraction], ...]:
    """Terms of the sum of two normalized term tuples, normalized."""
    if not b:
        return a
    if not a:
        return b
    acc = dict(a)
    for d, q in b:
        acc[d] = acc[d] + q if d in acc else q
    return tuple((d, q) for d, q in sorted(acc.items()) if q)


class SurdSum:
    """Immutable exact number of the form ``sum(q_i * sqrt(d_i))``.

    Invariant of ``terms``: squarefree radicands in increasing order, each
    with a nonzero ``Fraction`` coefficient.  The public constructor
    normalizes arbitrary terms; sums, negation and division by a rational
    combine operands that already hold the invariant, so they merge terms
    through :meth:`_normalized` without factoring a radicand again.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, RationalLike]] = ()) -> None:
        acc: dict[int, RationalLike] = {}
        for d, q in terms:
            if not q:
                continue
            if d != 1:
                s, d = squarefree_decompose(d)
                if s != 1:
                    q = q * s
            acc[d] = acc[d] + q if d in acc else q
        self._terms = tuple((d, q if type(q) is Fraction else Fraction(q))
                            for d, q in sorted(acc.items()) if q)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _normalized(cls, terms: tuple[tuple[int, Fraction], ...]) -> "SurdSum":
        """Wrap ``terms`` that already hold the invariant, unchecked."""
        x = object.__new__(cls)
        x._terms = terms
        return x

    @classmethod
    def rational(cls, q: RationalLike) -> "SurdSum":
        q = Fraction(q)
        return cls._normalized(((1, q),) if q else ())

    @classmethod
    def sqrt(cls, q: RationalLike) -> "SurdSum":
        """Exact square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ExactDomainError("square root of a negative rational")
        if q == 0:
            return cls()
        # sqrt(p/r) = sqrt(p*r)/r
        return cls([(q.numerator * q.denominator, Fraction(1, q.denominator))])

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(d == 1 for d, _ in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ExactDomainError(f"{self} is irrational")
        return self._terms[0][1]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x: Number) -> "SurdSum":
        if isinstance(x, SurdSum):
            return x
        if isinstance(x, (int, Fraction)):
            return SurdSum.rational(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Number) -> "SurdSum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return SurdSum._normalized(_merge_terms(self._terms, o._terms))

    __radd__ = __add__

    def __neg__(self) -> "SurdSum":
        return SurdSum._normalized(tuple((d, -q) for d, q in self._terms))

    def __sub__(self, other: Number) -> "SurdSum":
        if isinstance(other, (int, Fraction)):
            # a rational shifts the rational head term alone
            ts = self._terms
            if ts and ts[0][0] == 1:
                q = ts[0][1] - other
                return SurdSum._normalized(((1, q),) + ts[1:] if q else ts[1:])
            return SurdSum._normalized(((1, Fraction(-other)),) + ts) if other else self
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Number) -> "SurdSum":
        return (-self) + other

    def __mul__(self, other: Number) -> "SurdSum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: list[tuple[int, Fraction]] = []
        for d1, q1 in self._terms:
            for d2, q2 in o._terms:
                out.append((d1 * d2, q1 * q2))
        return SurdSum(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "SurdSum":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return SurdSum._normalized(tuple((d, q / other) for d, q in self._terms))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero")
        if o.is_rational():
            return self / o.as_fraction()
        radicals = [d for d, _ in o._terms if d != 1]
        if len(radicals) == 1:
            # invert p + q*sqrt(d) by its conjugate
            conj = SurdSum([(d, -q if d != 1 else q) for d, q in o._terms])
            norm = (o * conj).as_fraction()
            if norm == 0:
                raise ZeroDivisionError("division by zero")
            return (self * conj) / norm
        raise ExactDomainError("division by a multi-radical sum is unsupported")

    def __rtruediv__(self, other: Number) -> "SurdSum":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "SurdSum":
        if n < 0:
            return SurdSum.rational(1) / self ** (-n)
        out = SurdSum.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- sign and order ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided on integers.

        Terms of one sign decide by their numerators.  Two terms of opposite
        signs, ``(n1/m1) sqrt(d1)`` and ``(n2/m2) sqrt(d2)``, decide by
        squaring over the common denominator: ``n1^2 d1 m2^2`` against
        ``n2^2 d2 m1^2``.  Three or more refine :meth:`enclosure`, whose
        bounds are nonzero from some precision on (the radicals are linearly
        independent).
        """
        ts = self._terms
        if not ts:
            return 0
        positive = [q.numerator > 0 for _, q in ts]
        if all(positive):
            return 1
        if not any(positive):
            return -1
        if len(ts) == 2:
            (d1, q1), (d2, q2) = ts
            m1, m2 = q1.denominator, q2.denominator
            lhs = q1.numerator ** 2 * d1 * m2 * m2
            rhs = q2.numerator ** 2 * d2 * m1 * m1
            if lhs == rhs:
                return 0
            return (1 if positive[0] else -1) if lhs > rhs else (1 if positive[1] else -1)
        bits = 32
        while True:
            lo, hi = self.enclosure(bits)
            if lo.numerator > 0:
                return 1
            if hi.numerator < 0:
                return -1
            bits *= 2

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SurdSum.rational(other)
        if not isinstance(other, SurdSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a rational value equals its Fraction, so it hashes as one
        ts = self._terms
        if not ts:
            return hash(0)
        if len(ts) == 1 and ts[0][0] == 1:
            return hash(ts[0][1])
        return hash(ts)

    def __lt__(self, other: Number) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: Number) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: Number) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: Number) -> bool:
        return (self - other).sign() >= 0

    # -- numeric output ----------------------------------------------------

    def enclosure(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """Rational interval containing the value, width about 2**-bits.

        Each ``sqrt(d)`` lies in ``[s, s + 1] / 2**bits`` with
        ``s = isqrt(d * 4**bits)``; both ends are summed as integers over
        the one denominator ``lcm(m_i) * 2**bits``, and each is normalized
        once.
        """
        ts = self._terms
        den = lcm(*[q.denominator for _, q in ts])
        lo = hi = 0
        for d, q in ts:
            n = q.numerator * (den // q.denominator)
            if d == 1:
                lo += n << bits
                hi += n << bits
                continue
            s = isqrt(d << 2 * bits)
            if n > 0:
                lo, hi = lo + n * s, hi + n * (s + 1)
            else:
                lo, hi = lo + n * (s + 1), hi + n * s
        return Fraction(lo, den << bits), Fraction(hi, den << bits)

    def approx_str(self, digits: int = 12) -> str:
        """Decimal approximation accurate to the requested digits."""
        bits = 8
        target = Fraction(1, 10 ** (digits + 2))
        while True:
            lo, hi = self.enclosure(bits)
            if hi - lo < target:
                break
            bits *= 2
        mid = (lo + hi) / 2
        scaled = mid * 10**digits
        n = int(scaled) if scaled >= 0 else -int(-scaled)
        # round half away from zero on the scaled integer part
        frac = scaled - n
        if frac >= Fraction(1, 2):
            n += 1
        elif frac <= Fraction(-1, 2):
            n -= 1
        sign = "-" if n < 0 else ""
        n = abs(n)
        whole, dec = divmod(n, 10**digits)
        return f"{sign}{whole}.{str(dec).zfill(digits)}"

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render_surd(self)

    def __repr__(self) -> str:
        return f"SurdSum({list(self._terms)!r})"


def render_fraction(q: RationalLike) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def render_surd(x: Number) -> str:
    """Canonical text form; terms in ascending radicand, '+'/'-' separated."""
    if isinstance(x, (int, Fraction)):
        return render_fraction(x)
    if x.is_zero():
        return "0"
    parts: list[str] = []
    for d, q in x.terms:
        body = render_fraction(abs(q)) if d == 1 else f"{render_fraction(abs(q))}*sqrt({d})"
        if not parts:
            parts.append(body if q > 0 else "-" + body)
        else:
            parts.append(("+" if q > 0 else "-") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# quadratic polynomials and piecewise profiles


class QuadraticPoly(NamedTuple):
    """c2*t**2 + c1*t + c0 with rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def _parts(self) -> tuple[tuple[int, int], ...]:
        """``(numerator, denominator)`` of ``c2``, ``c1`` and ``c0``."""
        return self.c2.as_integer_ratio(), self.c1.as_integer_ratio(), self.c0.as_integer_ratio()

    def __call__(self, t: RationalLike) -> Fraction:
        # over the integers, with t = n/d: one normalization
        (p2, q2), (p1, q1), (p0, q0) = self._parts()
        n, d = t.numerator, t.denominator
        return Fraction(p2 * q1 * q0 * n * n + p1 * q2 * q0 * n * d + p0 * q2 * q1 * d * d,
                        q2 * q1 * q0 * d * d)

    def integral_parts(self, lo: Fraction, hi: Fraction) -> tuple[int, int]:
        """The integral over ``[lo, hi]`` as integers ``(num, den)``, not
        normalized: with ``lo = A/D`` and ``hi = B/D``, it is ``(B - A)/D``
        times ``c2 (A^2 + AB + B^2)/(3 D^2) + c1 (A + B)/(2 D) + c0``."""
        (p2, q2), (p1, q1), (p0, q0) = self._parts()
        d = lo.denominator * hi.denominator
        a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
        inner = (2 * p2 * q1 * q0 * (a * a + a * b + b * b)
                 + 3 * p1 * q2 * q0 * (a + b) * d + 6 * p0 * q2 * q1 * d * d)
        return (b - a) * inner, 6 * q2 * q1 * q0 * d ** 3

    def real_roots(self) -> list[Union[Fraction, SurdSum]]:
        """Sorted real roots as exact values: ``Fraction`` when rational."""
        if self.c2 == 0:
            if self.c1 == 0:
                return []
            return [Fraction(-self.c0) / self.c1]
        # the same roots as a*t^2 + b*t + c over the integers
        (p2, q2), (p1, q1), (p0, q0) = self._parts()
        scale = lcm(q2, q1, q0)
        a, b, c = p2 * (scale // q2), p1 * (scale // q1), p0 * (scale // q0)
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = isqrt(disc)
        if s * s == disc:
            minus, plus = Fraction(-b - s, 2 * a), Fraction(s - b, 2 * a)
        else:
            # sqrt(disc) = k*sqrt(f), f squarefree and > 1: the roots are the
            # two-term surds -b/(2a) -+ (k/(2a))*sqrt(f), k an integer
            ((f, k),) = SurdSum([(disc, 1)]).terms
            half = Fraction(k.numerator, 2 * a)
            head = ((1, Fraction(-b, 2 * a)),) if b else ()
            minus = SurdSum._normalized(head + ((f, -half),))
            plus = SurdSum._normalized(head + ((f, half),))
        # sqrt(disc) >= 0, so the order of the two roots is the sign of a
        return [minus, plus] if a > 0 else [plus, minus]

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c2, self.c1, self.c0)


class PiecewiseQuadratic:
    """Quadratic segments over consecutive intervals ``[b_k, b_{k+1}]``.

    Breakpoints are rational, strictly increasing, and start at 0; the final
    breakpoint is the profile end ``tau``.
    """

    def __init__(self, breakpoints: Sequence[RationalLike], segments: Sequence[QuadraticPoly]):
        points = [Fraction(b) for b in breakpoints]
        if len(points) != len(segments) + 1:
            raise ExactDomainError("need one more breakpoint than segments")
        if points and points[0] != 0:
            raise ExactDomainError("profile must start at 0")
        for a, b in zip(points, points[1:]):
            if not a < b:
                raise ExactDomainError("breakpoints must increase strictly")
        self.breakpoints = points
        self.segments = list(segments)

    @property
    def tau(self) -> Fraction:
        return self.breakpoints[-1]

    def check_continuity(self, starts: Optional[Sequence[Fraction]] = None) -> None:
        """Raise unless adjacent segments agree at their common breakpoint.

        ``starts[k]``, when given, is segment k's value at its start, which
        the caller has already computed; otherwise it is evaluated here.
        """
        for k in range(len(self.segments) - 1):
            b = self.breakpoints[k + 1]
            left = self.segments[k](b)
            right = starts[k + 1] if starts is not None else self.segments[k + 1](b)
            if left != right:
                raise ExactDomainError(f"discontinuous at {b}: {left} != {right}")

    def integrate(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        """The integral over ``[lo, hi]``: the segments' integer parts are
        summed over their product denominator and normalized once."""
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ExactDomainError("reversed integration bounds")
        if lo < 0 or hi > self.tau:
            raise ExactDomainError("integration bounds outside [0, tau]")
        num, den = 0, 1
        for a, b, seg in zip(self.breakpoints, self.breakpoints[1:], self.segments):
            left, right = max(a, lo), min(b, hi)
            if left < right:
                n, d = seg.integral_parts(left, right)
                num, den = num * d + n * den, den * d
        return Fraction(num, den)
