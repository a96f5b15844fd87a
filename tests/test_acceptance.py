"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is zero: all assertions are exact identities of
rational numbers or numbers of one quadratic field.
"""

import itertools
import random
import time
from fractions import Fraction as F
from math import gcd

from kwall.atlas import bundled_atlas
from kwall.exactnum import PiecewiseQuadratic, QuadraticPoly, SurdSum
from kwall.hkl import (
    POLE,
    audit_dim_formula,
    cone_report,
    cone_threshold,
    hkl_param,
    map_walls,
)
from kwall.pairs import (
    CHART_FAMILIES,
    ChartCase,
    DegenerateWeightError,
    chart_expand,
    multiplicity,
    onePS_to_chart,
    parse_curve,
)
from kwall.stability import (
    enumerate_walls,
    index3_certificate,
    quotient_point_certificate,
    threshold,
    wall_from_chart,
)
from kwall.surface import builtin_surface
from kwall.volume import (
    fixed_divisor_profile,
    fixed_divisor_s,
    s_closed_form_coefficient,
    s_engine_coefficient,
)
from linalg_reference import fraction_solve

W_H = [F(1, 14), F(5, 58), F(1, 10), F(7, 62), F(1, 8), F(5, 34),
       F(1, 6), F(7, 38), F(1, 5), F(5, 22), F(2, 7)]
W_U = [F(29, 106), F(31, 110), F(2, 7), F(35, 118)]


def is_nef(model, d) -> bool:
    return all(model.intersect(d, c) >= 0 for _, c in model.cone)


def _report(n: int, message: str) -> None:
    print(f"criterion {n:2d}: PASS - {message}")


def test_criterion_01_wall_reproduction():
    start = time.monotonic()
    f1 = sorted({r.candidate.w for r in enumerate_walls("f1") if r.confirmed})
    blp = sorted({r.candidate.w for r in enumerate_walls("blp114") if r.confirmed})
    elapsed = time.monotonic() - start
    assert f1 == sorted(W_H)
    assert blp == sorted(W_U)
    assert elapsed < 30
    _report(1, f"11 + 4 walls reproduced exactly in {elapsed:.1f}s")


def test_criterion_02_table_round_trip():
    mechanical = degenerate = 0
    for branch in bundled_atlas().branches:
        curve = parse_curve(branch.curve, branch.surface)
        try:
            chart = onePS_to_chart(branch.weight, branch.surface)
        except DegenerateWeightError:
            assert threshold(curve).is_point(branch.wall), branch.curve
            degenerate += 1
            continue
        support = chart_expand(curve, chart)
        m = multiplicity(support, chart.a, chart.b)
        assert wall_from_chart(chart, m) == branch.wall, branch.curve
        assert threshold(curve).is_point(branch.wall), branch.curve
        mechanical += 1
    assert mechanical == 18 and degenerate == 2
    _report(2, "20 table rows reproduce their wall "
               f"({mechanical} mechanically, {degenerate} degenerate-weight "
               "rows via the threshold interval)")


COPRIME_12 = [(a, b) for a in range(1, 13) for b in range(1, 13) if gcd(a, b) == 1]


def _tabulated_matches_exact(tag: str, a: int, b: int) -> bool:
    if tag in ("case1-010", "case1-001"):
        return a == b
    if tag in ("case2-zu", "case2-yv", "case1p"):
        return True
    if tag == "case2p":
        return b >= 3 * a
    if tag == "case3p":
        return 3 * a <= b <= 4 * a
    raise ValueError(tag)


def test_criterion_03_s_function_oracle_equivalence():
    """Engine integration against the tabulated closed forms, all branches.

    The exact integrals (independently confirmed by anticanonical-polytope
    slicing in test_polytope_oracle) agree with the tabulated expressions on
    the branches listed in _tabulated_matches_exact and nowhere else; in
    particular the engine resolves the two printed orderings of the
    (z,u)-chart formula in favour of (106b + 83a)/48, and the branch
    expressions carrying surds are replaced by the branch-free affine forms.
    The discrepancy partition is asserted exactly.
    """
    mismatch = 0
    for tag, fam in CHART_FAMILIES.items():
        surface = fam.surface
        for a, b in COPRIME_12:
            chart = ChartCase(surface, tag, a, b)
            engine = SurdSum._coerce(s_engine_coefficient(chart))
            formula = s_closed_form_coefficient(chart)
            if _tabulated_matches_exact(tag, a, b):
                assert engine == formula, (tag, a, b)
            else:
                assert engine != formula, (tag, a, b)
                mismatch += 1
    # the ordering resolution of the (z,u)-chart statement
    for a, b in [(1, 2), (2, 1), (3, 5)]:
        chart = ChartCase("blp114", "case1p", a, b)
        assert SurdSum._coerce(s_engine_coefficient(chart)) \
            == SurdSum.rational(F(106 * b + 83 * a, 48))
    _report(3, "engine = closed forms on every unambiguous branch of the "
               f"(a,b) <= 12 sweep; {mismatch} chart values on the four "
               "defective branches resolved by the engine and reported")


def test_criterion_04_fixed_s_values():
    expected = {
        ("f1", "H_x"): F(5, 6), ("f1", "H_y"): F(13, 12),
        ("f1", "H_z"): F(13, 12), ("f1", "E"): F(7, 6),
        ("blp114", "E"): F(83, 48), ("blp114", "H_x"): F(41, 24),
        ("blp114", "H_y"): F(53, 24), ("blp114", "H_z"): F(25, 48),
    }
    for (surface, divisor), coeff in expected.items():
        assert fixed_divisor_s(surface)[divisor] == coeff
        prof = fixed_divisor_profile(surface, divisor)
        for c in (F(0), F(1, 5), F(2, 5)):
            assert prof.s_at(c) == SurdSum.rational(coeff * (1 - 2 * c))
    _report(4, "all eight fixed divisor S-values reproduced exactly, "
               "profiles integrated from scratch")


def test_criterion_05_branch_continuity():
    for a in range(1, 13):
        b = 3 * a
        low = (SurdSum.sqrt(a * (a + b)) * 18 - F(b + 26 * a, 3)) / F(8)
        assert low == SurdSum.rational(F(25 * b + 83 * a, 48)) \
            == SurdSum.rational(F(79 * a, 24))
        low3 = (SurdSum.sqrt(a * (4 * a - b)) * 4 + 72 * a + 27 * b) / F(48)
        mid3 = SurdSum.rational(F(82 * a + 25 * b, 48))
        assert low3 == mid3 == SurdSum.rational(F(157 * a, 48))
        b = 4 * a
        mid4 = SurdSum.rational(F(82 * a + 25 * b, 48))
        high4 = (SurdSum.sqrt(b * (b - 3 * a)) * 2 + 110 * b + 375 * a) / F(216)
        assert mid4 == high4 == SurdSum.rational(F(91 * a, 24))
    _report(5, "closed-form branches agree at b = 3a and b in {3a, 4a} "
               "as exact surd identities for a <= 12")


def first_wall_bound():
    """min of 1/(20 - 3i - 6j) over i >= 0, j >= 1 with positive denominator."""
    best = None
    arg = (0, 1)
    for i in range(0, 7):
        for j in range(1, 4):
            den = 20 - 3 * i - 6 * j
            if den <= 0:
                continue
            val = F(1, den)
            if best is None or val < best:
                best, arg = val, (i, j)
    assert best is not None
    return best, arg


def test_criterion_06_certificates_and_first_wall():
    for k in range(1, 51):
        c = F(k, 102)
        rep = index3_certificate(c)
        assert rep.beta == SurdSum.rational(F(10, 9) * c - F(5, 9))
        assert rep.beta.sign() < 0
        rep_q = quotient_point_certificate(1, c)
        assert rep_q.beta.sign() < 0
    bound, arg = first_wall_bound()
    assert bound == F(1, 14) and arg == (0, 1)
    _report(6, "index-3 and quarter-point certificates destabilize on the "
               "50-point grid; first-wall bound = 1/14 at (0, 1)")


def test_criterion_07_hkl_mapping():
    assert hkl_param(F(1, 14)) == POLE
    rep = map_walls()
    assert rep["match"] is True
    predicted = {F(1, n) for n in (1, 2, 3, 4, 6, 8, 10, 12, 16, 25, 27, 28, 31)}
    images = {F(s) for s in rep["hyperelliptic_images"]} \
        | {F(s) for s in rep["unigonal_images"]}
    assert images == predicted
    assert rep["hyperelliptic_images"] == ["1", "1/2", "1/3", "1/4", "1/6",
                                           "1/8", "1/10", "1/12", "1/16", "1/28"]
    assert rep["unigonal_images"] == ["1/25", "1/27", "1/28", "1/31"]
    _report(7, "wall images under (1-2c)/(56c-4) equal the predicted "
               "{1/n} set with the two-family split; pole exactly at 1/14")


def test_criterion_08_cone_thresholds():
    rep = cone_report()
    assert rep["match"] is True and not rep["missing"]
    first = [cone_threshold(w) for w in W_H[:5]]
    assert first == [F(11 + n, 27 + n) for n in range(1, 6)]
    second = [cone_threshold(w) for w in W_H[5:10]]
    assert second == [F(3 + n, 11 + n) for n in (6, 7, 8, 9, 11)]
    unigonal = [cone_threshold(w) for w in W_U]
    assert unigonal == [F(36 + m, 52 + m) for m in (1, 3, 4, 7)]
    unlisted = [r for r in rep["rows"] if not r["listed"]]
    assert [(r["wall"], r["image"]) for r in unlisted] == [("2/7", "5/7")]
    _report(8, "10 + 4 listed cone thresholds match; the unlisted "
               "2/7 -> 5/7 image is emitted with an annotation")


def test_criterion_09_dimension_audit():
    rep = audit_dim_formula()
    assert rep["verified_ok"] is True
    assert rep["anomalies"] == ["f1 5/22 NL(D9'): residual 1",
                                "blp114 35/118 NL(U4''): residual -1"]
    _report(9, "dimension bookkeeping residual 0 on the verified subset; "
               "the 5/22 branch anomaly reported, not asserted")


def test_criterion_10_zariski_property_suite():
    models = [builtin_surface(i) for i in
              ("f1", "blp114", "index3m", "blp114-quotient-res")]
    rng = random.Random(31337)
    checked = 0
    for model in models:
        gens = list(model.cone)
        for _ in range(1000):
            coeffs = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in gens]
            d = tuple(sum(c * g[1][i] for c, g in zip(coeffs, gens))
                      for i in range(model.rank()))
            z = model.zariski_decompose(d)
            assert is_nef(model, z.positive)
            for name, coeff in z.negative_support:
                assert coeff > 0
                assert model.intersect(z.positive, model.cone_class(name)) == 0
            assert model.self_intersection(z.positive) == _oracle_vol(model, d)
            checked += 1
    _report(10, f"{checked} random decompositions match the active-set "
                "oracle exactly (positivity, orthogonality, definiteness)")


def _oracle_vol(model, d):
    best = None
    gens = list(model.cone)
    for size in range(0, model.rank() + 1):
        for subset in itertools.combinations(range(len(gens)), size):
            block = [[model.intersect(gens[i][1], gens[j][1]) for j in subset]
                     for i in subset]
            coeffs = fraction_solve(block, [model.intersect(d, gens[i][1]) for i in subset])
            if coeffs is None or any(x < 0 for x in coeffs):
                continue
            p = d
            for i, x in zip(subset, coeffs):
                p = tuple(pi - x * ci for pi, ci in zip(p, gens[i][1]))
            if is_nef(model, p):
                v = model.self_intersection(p)
                if best is None or v > best:
                    best = v
    return best


def test_criterion_11_exact_number_kernel():
    rng = random.Random(2)
    for _ in range(2000):
        # each triple lies in one field Q(sqrt(d))
        d = rng.choice([2, 3, 5, 7])

        def rnd():
            return SurdSum([(rng.choice([1, d]),
                             F(rng.randint(-5, 5), rng.randint(1, 5)))
                            for _ in range(rng.randint(0, 3))])
        x, y, z = rnd(), rnd(), rnd()
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
    for _ in range(10_000):
        d = rng.choice([2, 3, 5, 6, 11])
        terms = [(rng.choice([1, d]),
                  F(rng.randint(-8, 8), rng.randint(1, 8)))
                 for _ in range(rng.randint(1, 4))]
        x = SurdSum(terms)
        s = x.sign()
        lo, hi = x.enclosure(64)
        assert (s > 0 and hi > 0) or (s < 0 and lo < 0) or \
            (s == 0 and x.is_zero())
    f = PiecewiseQuadratic(
        [0, 2, 3], [QuadraticPoly(F(-1), F(-2), F(8)),
                    QuadraticPoly(F(0), F(-8), F(16))])
    f.check_continuity()
    for _ in range(100):
        pts = sorted(F(rng.randint(0, 30), 10) for _ in range(3))
        a, b, c = pts
        assert f.integrate(a, b) + f.integrate(b, c) == f.integrate(a, c)
    _report(11, "ring laws, 10^4 sign-vs-interval agreements and "
                "integration additivity all exact")
