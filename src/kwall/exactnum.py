"""Exact arithmetic kernel: rationals, sums of quadratic surds, quadratic
polynomials and piecewise-quadratic functions with exact integration.

Every value is exact.  A :class:`SurdSum` is a finite sum ``sum(q_i * sqrt(d_i))``
with rational ``q_i`` and pairwise distinct squarefree natural ``d_i`` (the
``d = 1`` term is the rational part).  Distinct squarefree radicals are linearly
independent over the rationals, so equality is structural and the sign of a
nonzero value can always be decided in finitely many refinement steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence, Union

Rational = Fraction

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
# sqrt enclosure


def _sqrt_bounds(d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of sqrt(d) with denominator 2**bits."""
    scale = 1 << bits
    lo = isqrt(d * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


class SurdSum:
    """Immutable exact number of the form ``sum(q_i * sqrt(d_i))``."""

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
    def rational(cls, q: RationalLike) -> "SurdSum":
        return cls([(1, Fraction(q))])

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

    @classmethod
    def quadratic_root(cls, c2: RationalLike, c1: RationalLike, c0: RationalLike,
                       branch: int) -> "SurdSum":
        """Root ``(-c1 + branch*sqrt(c1^2 - 4*c2*c0)) / (2*c2)`` with branch in {-1,+1}."""
        c2, c1, c0 = Fraction(c2), Fraction(c1), Fraction(c0)
        if c2 == 0:
            raise ExactDomainError("quadratic leading coefficient is zero")
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            raise ExactDomainError("quadratic has no real roots")
        root = cls.sqrt(disc)
        if branch < 0:
            root = -root
        return (root - c1) / (2 * c2)

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

    def rational_part(self) -> Fraction:
        for d, q in self._terms:
            if d == 1:
                return q
        return Fraction(0)

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
        return SurdSum(self._terms + o._terms)

    __radd__ = __add__

    def __neg__(self) -> "SurdSum":
        return SurdSum([(d, -q) for d, q in self._terms])

    def __sub__(self, other: Number) -> "SurdSum":
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
            return SurdSum([(d, q / other) for d, q in self._terms])
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
        """Exact sign in {-1, 0, +1}."""
        ts = self._terms
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
        # three or more radicals: nonzero by linear independence, so interval
        # refinement terminates
        bits = 32
        while True:
            lo = hi = Fraction(0)
            for d, q in ts:
                if d == 1:
                    lo += q
                    hi += q
                    continue
                slo, shi = _sqrt_bounds(d, bits)
                if q > 0:
                    lo += q * slo
                    hi += q * shi
                else:
                    lo += q * shi
                    hi += q * slo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SurdSum.rational(other)
        if not isinstance(other, SurdSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

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
        """Rational interval containing the value, width about 2**-bits."""
        lo = hi = Fraction(0)
        for d, q in self._terms:
            if d == 1:
                lo += q
                hi += q
                continue
            slo, shi = _sqrt_bounds(d, bits)
            if q > 0:
                lo, hi = lo + q * slo, hi + q * shi
            else:
                lo, hi = lo + q * shi, hi + q * slo
        return lo, hi

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

    def __float__(self) -> float:
        lo, hi = self.enclosure(64)
        return float((lo + hi) / 2)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render_surd(self)

    def __repr__(self) -> str:
        return f"SurdSum({list(self._terms)!r})"


ZERO = SurdSum()
ONE = SurdSum.rational(1)


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


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def surd_compare(x: Number, y: Number) -> int:
    """Exact three-way comparison: -1, 0 or +1."""
    return (SurdSum._coerce(x) - y).sign()


# ---------------------------------------------------------------------------
# quadratic polynomials and piecewise profiles


@dataclass(frozen=True)
class QuadraticPoly:
    """c2*t**2 + c1*t + c0 with rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __call__(self, t: Number) -> Number:
        if isinstance(t, (int, Fraction)):
            t = Fraction(t)
            return self.c2 * t * t + self.c1 * t + self.c0
        return t * t * self.c2 + t * self.c1 + self.c0

    def antiderivative(self, t: Number) -> Number:
        if isinstance(t, (int, Fraction)):
            t = Fraction(t)
            return self.c2 * t**3 / 3 + self.c1 * t**2 / 2 + self.c0 * t
        return t**3 * Fraction(self.c2, 3) + t**2 * Fraction(self.c1, 2) + t * self.c0

    def real_roots(self) -> list[SurdSum]:
        """Sorted real roots as exact values."""
        if self.c2 == 0:
            if self.c1 == 0:
                return []
            return [SurdSum.rational(-self.c0 / self.c1)]
        disc = self.c1 * self.c1 - 4 * self.c2 * self.c0
        if disc < 0:
            return []
        sq = SurdSum.sqrt(disc)
        minus, plus = (-sq - self.c1) / (2 * self.c2), (sq - self.c1) / (2 * self.c2)
        # sqrt(disc) >= 0, so the order of the two roots is the sign of c2
        return [minus, plus] if self.c2 > 0 else [plus, minus]

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c2, self.c1, self.c0)


def rational_or_surd(x: Number) -> Union[Fraction, "SurdSum"]:
    """``x`` as a ``Fraction`` when it is rational, else as a ``SurdSum``.

    Rational values then take the plain ``Fraction`` paths of comparisons and
    of :class:`QuadraticPoly`.
    """
    if isinstance(x, SurdSum):
        return x.as_fraction() if x.is_rational() else x
    return Fraction(x)


class PiecewiseQuadratic:
    """Quadratic segments over consecutive intervals ``[b_k, b_{k+1}]``.

    Breakpoints are exact (rational or quadratic surd), strictly increasing,
    and start at 0; the final breakpoint is the profile end ``tau``.
    ``breakpoints`` holds them as ``SurdSum``; evaluation works on rational
    breakpoints as ``Fraction``.
    """

    def __init__(self, breakpoints: Sequence[Number], segments: Sequence[QuadraticPoly]):
        points = [rational_or_surd(b) for b in breakpoints]
        if len(points) != len(segments) + 1:
            raise ExactDomainError("need one more breakpoint than segments")
        if points and points[0] != 0:
            raise ExactDomainError("profile must start at 0")
        for a, b in zip(points, points[1:]):
            if not a < b:
                raise ExactDomainError("breakpoints must increase strictly")
        self._points = points
        self.breakpoints = [SurdSum._coerce(b) for b in points]
        self.segments = list(segments)

    @property
    def tau(self) -> SurdSum:
        return self.breakpoints[-1]

    def value_at(self, t: Number) -> SurdSum:
        t = SurdSum._coerce(t)
        if t < 0 or t > self.tau:
            raise ExactDomainError("point outside the profile domain")
        for k in range(len(self.segments)):
            if t <= self.breakpoints[k + 1]:
                return SurdSum._coerce(self.segments[k](t))
        raise AssertionError("unreachable")

    def check_continuity(self) -> None:
        for k in range(len(self.segments) - 1):
            b = self._points[k + 1]
            left = self.segments[k](b)
            right = self.segments[k + 1](b)
            if left != right:
                raise ExactDomainError(f"discontinuous at {b}: {left} != {right}")

    def integrate(self, lo: Number, hi: Number) -> SurdSum:
        lo = rational_or_surd(lo)
        hi = rational_or_surd(hi)
        if lo > hi:
            raise ExactDomainError("reversed integration bounds")
        if lo < 0 or hi > self._points[-1]:
            raise ExactDomainError("integration bounds outside [0, tau]")
        # rational antiderivative values sum as one Fraction; only the
        # terms of irrational ones go through SurdSum normalization
        rational = Fraction(0)
        surds: list[tuple[int, Fraction]] = []
        for k, seg in enumerate(self.segments):
            a = self._points[k]
            b = self._points[k + 1]
            left = a if a > lo else lo
            right = b if b < hi else hi
            if left < right:
                for x, sign in ((right, 1), (left, -1)):
                    value = seg.antiderivative(x)
                    if isinstance(value, Fraction):
                        rational += sign * value
                    else:
                        surds.extend((d, sign * q) for d, q in value.terms)
        return SurdSum([(1, rational), *surds])


def integrate_piecewise(f: PiecewiseQuadratic, lo: Number, hi: Number) -> SurdSum:
    """Exact integral of a piecewise quadratic over ``[lo, hi]``."""
    return f.integrate(lo, hi)
