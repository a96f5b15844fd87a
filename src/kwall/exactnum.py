"""Exact arithmetic kernel: rationals, numbers of one quadratic field,
quadratic polynomials and piecewise-quadratic functions with exact
integration.  Piecewise functions have rational breakpoints and integrate to
a ``Fraction``; a surd appears only as a root of a quadratic or in a closed
form, and each is a single quadratic surd.

Every value is exact.  A :class:`SurdSum` is ``p + q*sqrt(d)`` with rational
``p`` and ``q`` and one squarefree ``d > 1``, so equality is structural and
the sign is decided by squaring two integers once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

RationalLike = Union[int, Fraction]
Number = Union[int, Fraction, "SurdSum"]
_TRIAL_LIMIT = 10**6  # _factor's trial-division bound; a cofactor below its square is prime


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


def _factor(n: int) -> dict[int, int]:
    fac: dict[int, int] = {}
    p = 2
    while p * p <= n and p <= _TRIAL_LIMIT:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            for q, e in _factor(r).items():
                fac[q] = fac.get(q, 0) + 2 * e
        elif n <= _TRIAL_LIMIT * _TRIAL_LIMIT:
            fac[n] = fac.get(n, 0) + 1
        else:
            d = _pollard_rho(n)
            for q, e in _factor(d).items():
                fac[q] = fac.get(q, 0) + e
            for q, e in _factor(n // d).items():
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
# numbers of one quadratic field


class SurdSum:
    """Immutable exact number ``p + q*sqrt(d)`` of one quadratic field.

    ``p`` and ``q`` are ``Fraction``; ``d`` is a squarefree integer above 1,
    or 1 with ``q == 0`` for a rational value.  Sums, differences and
    products stay in the field; one that would join two radicands raises
    :class:`ExactDomainError`.  Division is by a rational only.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, terms: Iterable[tuple[int, RationalLike]] = ()) -> None:
        """The sum of ``q_i * sqrt(d_i)`` over positive integers ``d_i``.  After
        squarefree reduction, a radicand above 1 must be the one that the
        terms so far hold with a nonzero coefficient, if any."""
        p = q = 0
        d = 1
        for r, c in terms:
            if not c:
                continue
            if r != 1:
                s, r = squarefree_decompose(r)
                c = c * s
            if r == 1:
                p += c
            elif not q or r == d:
                d, q = r, q + c
            else:
                raise ExactDomainError(f"sqrt({d}) and sqrt({r}) lie in different fields")
        self._p = p if type(p) is Fraction else Fraction(p)
        self._q = q if type(q) is Fraction else Fraction(q)
        self._d = d if q else 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, p: Fraction, q: Fraction, d: int) -> "SurdSum":
        """``p + q*sqrt(d)`` from ``Fraction`` parts and a squarefree ``d``, unchecked."""
        x = object.__new__(cls)
        x._p, x._q, x._d = p, q, d if q else 1
        return x

    @classmethod
    def rational(cls, q: RationalLike) -> "SurdSum":
        return cls._of(Fraction(q), Fraction(0), 1)

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
        """The nonzero terms ``(1, p)`` and ``(d, q)``, in that order."""
        p, q = self._p, self._q
        return (((1, p),) if p else ()) + (((self._d, q),) if q else ())

    def is_zero(self) -> bool:
        return not self._p and not self._q

    def is_rational(self) -> bool:
        return not self._q

    def as_fraction(self) -> Fraction:
        if self._q:
            raise ExactDomainError(f"{self} is irrational")
        return self._p

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x: Number) -> "SurdSum":
        if isinstance(x, SurdSum):
            return x
        if isinstance(x, (int, Fraction)):
            return SurdSum.rational(x)
        return NotImplemented  # type: ignore[return-value]

    def _radicand(self, o: "SurdSum") -> int:
        """The radicand of the field holding both ``self`` and ``o``."""
        if not o._q:
            return self._d
        if self._q and self._d != o._d:
            raise ExactDomainError(f"{self} and {o} lie in different fields")
        return o._d

    def __add__(self, other: Number) -> "SurdSum":
        if isinstance(other, (int, Fraction)):
            return SurdSum._of(self._p + other, self._q, self._d)
        if not isinstance(other, SurdSum):
            return NotImplemented
        return SurdSum._of(self._p + other._p, self._q + other._q, self._radicand(other))

    __radd__ = __add__

    def __neg__(self) -> "SurdSum":
        return SurdSum._of(-self._p, -self._q, self._d)

    def __sub__(self, other: Number) -> "SurdSum":
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            return SurdSum._of(self._p - other, self._q, self._d)
        if not isinstance(other, SurdSum):
            return NotImplemented
        return SurdSum._of(self._p - other._p, self._q - other._q, self._radicand(other))

    def __rsub__(self, other: Number) -> "SurdSum":
        return (-self) + other

    def __mul__(self, other: Number) -> "SurdSum":
        if isinstance(other, (int, Fraction)):
            return SurdSum._of(self._p * other, self._q * other, self._d)
        if not isinstance(other, SurdSum):
            return NotImplemented
        d = self._radicand(other)
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        return SurdSum._of(p1 * p2 + q1 * q2 * d, p1 * q2 + q1 * p2, d)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "SurdSum":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return SurdSum._of(self._p / other, self._q / other, self._d)

    # -- sign and order ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided on integers.

        A rational, or two terms of one sign, decide by a numerator.  With
        ``p = n1/m1`` and ``q = n2/m2`` of opposite signs, ``p^2`` against
        ``q^2 d`` decides, over the common denominator: ``n1^2 m2^2``
        against ``n2^2 d m1^2``.  They are never equal, as ``sqrt(d)`` is
        irrational.
        """
        n1, n2 = self._p.numerator, self._q.numerator
        s1 = (n1 > 0) - (n1 < 0)
        s2 = (n2 > 0) - (n2 < 0)
        if s1 == s2 or not s2:
            return s1
        if not s1:
            return s2
        m1, m2 = self._p.denominator, self._q.denominator
        return s1 if n1 * n1 * m2 * m2 > n2 * n2 * self._d * m1 * m1 else s2

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self._q and self._p == other
        if not isinstance(other, SurdSum):
            return NotImplemented
        return self._p == other._p and self._q == other._q and self._d == other._d

    def __hash__(self) -> int:
        # a rational value equals its Fraction, so it hashes as one
        return hash((self._p, self._q, self._d)) if self._q else hash(self._p)

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

        ``sqrt(d)`` lies in ``[s, s + 1] / 2**bits`` with
        ``s = isqrt(d * 4**bits)``; both ends are summed as integers over
        the one denominator ``lcm(m1, m2) * 2**bits``, and each is
        normalized once.
        """
        p, q = self._p, self._q
        den = lcm(p.denominator, q.denominator)
        lo = hi = p.numerator * (den // p.denominator) << bits
        n = q.numerator * (den // q.denominator)
        if n:
            s = isqrt(self._d << 2 * bits)
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
        return f"SurdSum({list(self.terms)!r})"


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
            # sqrt(disc) = k*sqrt(f) with k an integer and f squarefree above 1,
            # so the roots are -b/(2a) -+ (k/(2a))*sqrt(f)
            root = SurdSum([(disc, 1)])
            mid, half = Fraction(-b, 2 * a), Fraction(root._q.numerator, 2 * a)
            minus, plus = SurdSum._of(mid, -half, root._d), SurdSum._of(mid, half, root._d)
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
