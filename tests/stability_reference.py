"""``wall_from_chart``, ``_intersect`` and ``verify_semistable_at`` of
``kwall.stability`` in ``Fraction`` arithmetic, as the package computed them
before it decided them on integers: the reference the integer decisions are
checked against.  They read the same S-values, cached curve data and
``polycheck`` decisions, with the rational pair ``(k1 - e*c, k2 - f*c)``.

``candidate_supports`` is ``_candidate_supports`` as it was before it
skipped a crossing pair on a line already scanned: it builds the support of
every crossing pair and drops repeats afterwards."""

from fractions import Fraction

from kwall import polycheck
from kwall import stability as st
from kwall.pairs import (CHART_FAMILIES, DIVISORS, PLANES, admissible_monomials,
                         divisor_orders)
from kwall.volume import fixed_divisor_s, s_closed_form_coefficient, s_engine_coefficient


def candidate_supports(surface):
    """The candidate tuple and the number of chart supports built for it.
    Every quarter-point test goes through ``kwall.stability``, so a counter
    patched there counts the same calls here as in the package."""
    found, builds = [], 0
    monos = admissible_monomials(surface)
    orders = {p: divisor_orders(surface, *p) for p in monos}
    seen = set()
    for tag in PLANES[surface].chart_tags:
        d1, d2 = CHART_FAMILIES[tag].divisors
        local = {p: (orders[p][d1], orders[p][d2]) for p in monos}
        for k, p in enumerate(monos):
            for q in monos[k + 1:]:
                ab = st._crossing(local[p], local[q])
                if ab is None:
                    continue
                a, b = ab
                m = a * local[p][0] + b * local[p][1]
                support = tuple(sorted(p for p in monos
                                       if a * local[p][0] + b * local[p][1] == m))
                builds += 1
                if st.quarter_point_order(surface, support):
                    continue
                key = (tag, a, b, support)
                if key in seen:
                    continue
                seen.add(key)
                found.append(("chart", tag, a, b, m, support))
    emitted = set()
    for d in DIVISORS:
        levels = {}
        for p in monos:
            levels.setdefault(orders[p][d], []).append(p)
        for support in levels.values():
            key = tuple(sorted(support))
            if key in emitted or st.quarter_point_order(surface, support):
                continue
            emitted.add(key)
            found.append(("degenerate", None, None, None, None, key))
    for p in monos:
        key = (p,)
        if key in emitted or st.quarter_point_order(surface, key):
            continue
        emitted.add(key)
        found.append(("single", None, None, None, None, key))
    return tuple(found), builds


def wall_from_chart(chart, m, source="engine"):
    if source == "engine":
        s0 = s_engine_coefficient(chart)
    elif source == "published":
        surd = s_closed_form_coefficient(chart)
        if not surd.is_rational():
            return None
        s0 = surd.as_fraction()
    else:
        raise ValueError(f"unknown source {source!r}")
    if m == 2 * s0:
        return None
    w = (chart.a + chart.b - s0) / (m - 2 * s0)
    return w if 0 < w < Fraction(1, 2) else None


def intersect(cons):
    lower = upper = None
    bind_lo, bind_hi = [], []
    infeasible = False
    for con in cons:
        u, v = con.u, con.v
        if v == 0:
            if u < 0:
                infeasible = True
            continue
        bound = -u / v
        if v > 0:
            if lower is None or bound > lower:
                lower, bind_lo = bound, [con.name]
            elif bound == lower:
                bind_lo.append(con.name)
        else:
            if upper is None or bound < upper:
                upper, bind_hi = bound, [con.name]
            elif bound == upper:
                bind_hi.append(con.name)
    lo_eff = lower if lower is not None else Fraction(0)
    hi_eff = upper if upper is not None else Fraction(1, 2)
    if infeasible or lo_eff > hi_eff or lo_eff >= Fraction(1, 2) or hi_eff <= 0:
        cls = "empty"
    elif lower is not None and upper is not None and lower == upper:
        cls = "point"
    else:
        cls = "interval"
    return st.StabilityThreshold(lower, upper, cls, tuple(bind_lo), tuple(bind_hi))


def verify_semistable_at(curve, c):
    c = Fraction(c)
    failures = []
    data = st._curve_data(curve)
    for con in data.toric:
        beta = con.beta_at(c)
        if beta < 0:
            failures.append(f"toric {con.name}: beta({c}) = {beta}")
    fixed_s = fixed_divisor_s(curve.surface)
    for tag, (pts, kinks) in data.charts.items():
        k1, k2 = (1 - fixed_s[d] * (1 - 2 * c) for d in CHART_FAMILIES[tag].divisors)
        grid = [Fraction(0), *kinks]  # the kink ratios b/a, as Fractions
        for idx, lo in enumerate(grid):
            hi = grid[idx + 1] if idx + 1 < len(grid) else None
            probe = (lo + hi) / 2 if hi is not None else lo + 1
            num, den = probe.numerator, probe.denominator
            e, f = min(pts, key=lambda p: den * p[0] + num * p[1])
            p = (k1 - e * c, k2 - f * c)
            if hi is not None:
                ok, witness = polycheck.nonneg_on_interval(p, lo, hi)
            else:
                ok, witness = polycheck.nonneg_on_ray(p, lo)
            if not ok:
                failures.append(f"{tag}: beta({c}) < 0 near ratio r = {witness}")
    return (not failures), failures
