"""The continuum check of ``kwall.stability.verify_semistable_at`` as the
package computed it before each curve's stability data was cached: the toric
constraints and kink weights rebuilt on every call, two ``Constraint``s per
r-interval, the minimizing local exponent picked with ``Fraction`` keys, and
the endpoint rule on fresh ``Fraction`` polynomials evaluated power by power.
It is the reference the lean check is compared against."""

from fractions import Fraction
from math import gcd

from kwall.pairs import CHART_FAMILIES, PLANES, local_points, toric_multiplicities
from kwall.stability import Constraint
from kwall.volume import fixed_divisor_s


def kink_weights(curve, tag):
    """Primitive (a, b), by increasing b/a, where two local exponents cross
    or the family lists a ``branch_ratios`` entry."""
    pts = local_points(curve, tag)
    ratios = set(CHART_FAMILIES[tag].branch_ratios)
    for k, p in enumerate(pts):
        for q in pts[k + 1:]:
            de, df = p[0] - q[0], q[1] - p[1]
            if de != 0 and df != 0 and (de > 0) == (df > 0):
                g = gcd(de, df)
                ratios.add(Fraction(abs(de) // g, abs(df) // g))
    return [(r.denominator, r.numerator) for r in sorted(ratios)]


def _poly(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _eval(p, x):
    return sum((c * x ** i for i, c in enumerate(p)), Fraction(0))


def _nonneg_on_interval(p, a, b):
    for x in (Fraction(a), Fraction(b)):
        if _eval(p, x) < 0:
            return False, x
    return True, None


def _nonneg_on_ray(p, a):
    if p and p[-1] < 0:
        cauchy = 1 + max((abs(c) for c in p[:-1]), default=0) / abs(p[-1])
        return False, max(a, cauchy) + 1
    return _nonneg_on_interval(p, a, a)


def verify_semistable_at(curve, c):
    c = Fraction(c)
    failures = []
    fixed_s = fixed_divisor_s(curve.surface)
    mults = toric_multiplicities(curve)
    for d, s0 in fixed_s.items():
        con = Constraint(d, Fraction(1), Fraction(mults[d]), s0)
        if con.beta_at(c) < 0:
            failures.append(f"toric {con.name}: beta({c}) = {con.beta_at(c)}")
    for tag in PLANES[curve.surface].chart_tags:
        d1, d2 = CHART_FAMILIES[tag].divisors
        pts = local_points(curve, tag)
        grid = [Fraction(0)] + [Fraction(b, a) for a, b in kink_weights(curve, tag)]
        for idx, lo in enumerate(grid):
            hi = grid[idx + 1] if idx + 1 < len(grid) else None
            probe = (lo + hi) / 2 if hi is not None else lo + 1
            if probe == 0:
                probe = Fraction(1, 2) if hi is None else hi / 2
            e_star, f_star = min(pts, key=lambda p: p[0] + probe * p[1])
            p = _poly([
                Constraint(d1, Fraction(1), Fraction(e_star), fixed_s[d1]).beta_at(c),
                Constraint(d2, Fraction(1), Fraction(f_star), fixed_s[d2]).beta_at(c),
            ])
            if hi is not None:
                ok, witness = _nonneg_on_interval(p, lo, hi)
            else:
                ok, witness = _nonneg_on_ray(p, lo)
            if not ok:
                failures.append(f"{tag}: beta({c}) < 0 near ratio r = {witness}")
    return (not failures), failures
