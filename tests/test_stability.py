import collections
import hashlib
import random
from fractions import Fraction as F
from math import gcd

import pytest

from kwall import stability
from kwall.atlas import bundled_atlas
from kwall.exactnum import SurdSum
from kwall.pairs import (
    CHART_FAMILIES,
    PLANES,
    ChartCase,
    DegenerateWeightError,
    admissible_monomials,
    chart_expand,
    divisor_orders,
    multiplicity,
    onePS_to_chart,
    parse_curve,
    quarter_point_order,
)
from kwall.stability import (
    BetaReport,
    Constraint,
    _crossing,
    audit_extra_walls,
    chart_constraint,
    confirm_wall,
    enumerate_walls,
    index3_certificate,
    quotient_point_certificate,
    threshold,
    toric_constraints,
    verify_semistable_at,
    wall_from_chart,
)
from kwall.volume import s_closed_form_coefficient

W_H = [F(1, 14), F(5, 58), F(1, 10), F(7, 62), F(1, 8), F(5, 34),
       F(1, 6), F(7, 38), F(1, 5), F(5, 22), F(2, 7)]
W_U = [F(29, 106), F(31, 110), F(2, 7), F(35, 118)]

EPS = F(1, 1000)


@pytest.fixture
def fresh_supports():
    """Empty the per-surface cache of candidate supports before and after
    the test, so a patched enumeration really runs and does not leak."""
    import kwall.stability as st
    st._candidate_supports.cache_clear()
    yield st
    st._candidate_supports.cache_clear()


def wall_formula(branch: str, a: int, b: int, m: int):
    """Closed-form wall value for the plane-model chart branches.

    ``case2`` and ``case1-high`` are the tabulated closed forms.  The
    ``case1-low`` form is derived from the exact S-function, which is branch
    free, so it is the correct Case-1 expression for every weight pair; the
    tabulated Case-1 expressions agree with it only on a = b (see the
    confirmed-wall reproduction tests).  Returns None when the value is
    undefined or falls outside (0, 1/2).
    """
    a, b, m = F(a), F(b), F(m)
    if a <= 0 or b <= 0 or m < 0:
        return None
    if branch == "case2":
        den = 28 * a + 26 * b - 12 * m
        num = 2 * a + b
    elif branch == "case1-high":
        den = 12 * m - 26 * a - 20 * b
        num = 2 * b - a
    elif branch == "case1-low":
        den = 12 * m - 20 * a - 26 * b
        num = 2 * a - b
    else:
        raise ValueError(f"unknown branch {branch!r}")
    if den == 0:
        return None
    w = num / den
    return w if 0 < w < F(1, 2) else None


def toric(curve):
    return {con.name: con for con in toric_constraints(curve)}


def confirmed_walls(surface):
    return sorted({r.candidate.w for r in enumerate_walls(surface) if r.confirmed})


class TestBeta:
    def test_first_wall_toric_reports(self):
        cons = toric(parse_curve("x^4*z*y", "f1"))
        # the quadruple line pins c <= 1/14, the fibers pin c >= 1/14
        at_wall = cons["H_x"].report(F(1, 14))
        assert at_wall.verdict == "critical"
        assert at_wall.a_value == 1 - 4 * F(1, 14)
        assert at_wall.s_value == SurdSum.rational(F(5, 6) * (1 - F(1, 7)))
        assert cons["H_x"].report(F(1, 14) + EPS).verdict == "destabilizing"
        assert cons["H_x"].report(F(1, 14) - EPS).verdict == "positive"
        for d in ("H_y", "H_z", "E"):
            assert cons[d].report(F(1, 14)).verdict == "critical"
            assert cons[d].report(F(1, 14) - EPS).verdict == "destabilizing"

    def test_unigonal_wall_chart_vanishes(self):
        c = parse_curve("z^3+z^2*x^4", "blp114")
        rep = chart_constraint(c, onePS_to_chart((1, 0, 4), "blp114")).report(F(29, 106))
        assert rep.verdict == "critical"
        assert rep.a_value == 5 - 12 * F(29, 106)
        assert rep.s_value == SurdSum.rational(F(91, 24) * (1 - F(29, 53)))

    def test_chart_and_divisor_reports(self):
        c = parse_curve("x^4*z^2+x^3*y^3", "f1")
        chart = ChartCase("f1", "case2-yv", 2, 1)
        assert chart_constraint(c, chart).report(F(5, 58)).verdict == "critical"
        assert toric(c)["E"].report(F(5, 58)).beta == SurdSum.rational(F(2, 58))


class TestWallFormula:
    def test_case2_values(self):
        assert wall_formula("case2", 2, 1, 2) == F(5, 58)
        assert wall_formula("case2", 1, 1, 2) == F(1, 10)
        assert wall_formula("case2", 3, 2, 9) == F(2, 7)

    @pytest.mark.parametrize("k", [2, 3])
    def test_homogeneity_degree_zero(self, k):
        assert wall_formula("case2", 2 * k, k, 2 * k) == F(5, 58)

    def test_out_of_range_is_none(self):
        assert wall_formula("case2", 1, 1, 0) == F(1, 18)
        assert wall_formula("case2", 1, 1, 10) is None  # negative value
        assert wall_formula("case2", 1, 1, 4) is None  # lands exactly on 1/2
        assert wall_formula("case2", 0, 1, 1) is None

    def test_case1_engine_form_pins_upper_bounds(self):
        # the exact Case-1 expression reproduces the two-sided pinch of wall
        # 5/58: the inverse-weight chart (3,1) with m = 12
        assert wall_formula("case1-low", 3, 1, 12) == F(5, 58)
        # and wall 2/7 via the (5,2)-chart with m = 15
        assert wall_formula("case1-low", 5, 2, 15) == F(2, 7)

    def test_case1_published_high_branch_differs_off_diagonal(self):
        # at a = b the published high form agrees with the exact one
        assert wall_formula("case1-high", 1, 1, 4) == wall_formula("case1-low", 1, 1, 4)
        assert wall_formula("case1-high", 3, 1, 12) != wall_formula("case1-low", 3, 1, 12)

    def test_wall_from_chart_sources(self):
        chart = ChartCase("blp114", "case3p", 1, 4)
        assert wall_from_chart(chart, 12) == F(29, 106)
        assert wall_from_chart(chart, 12, source="published") == F(29, 106)
        low = ChartCase("blp114", "case3p", 3, 8)
        assert wall_from_chart(low, 24) == F(41, 130)
        assert wall_from_chart(low, 24, source="published") is None  # surd branch


class TestThresholds:
    @pytest.mark.parametrize("surface,text,w", [
        ("f1", "x^4*z*y", F(1, 14)),
        ("f1", "x^4*z^2+x^3*y^3", F(5, 58)),
        ("f1", "x^4*z^2+x^3*z*y^2+a*x^2*y^4", F(1, 10)),
        ("f1", "x^4*z^2+x*y^5", F(7, 62)),
        ("f1", "x^4*z^2+x^2*z*y^3+a*y^6", F(1, 8)),
        ("f1", "x^3*z^3+a1*x^3*z^2*y+a2*x^3*z*y^2+x^3*y^3", F(1, 8)),
        ("f1", "x^4*z^2+x*z*y^4", F(5, 34)),
        ("f1", "x^3*z^2*y+x^2*y^4", F(5, 34)),
        ("f1", "x^4*z^2+z*y^5", F(1, 6)),
        ("f1", "x^3*z^2*y+x^2*z*y^3+a*x*y^5", F(1, 6)),
        ("f1", "x^3*z^2*y+y^6", F(7, 38)),
        ("f1", "x^3*z^3+x^2*y^4", F(7, 38)),
        ("f1", "x^3*z^2*y+x*z*y^4", F(1, 5)),
        ("f1", "x^3*z^2*y+z*y^5", F(5, 22)),
        ("f1", "x^3*z^3+x^2*z*y^3", F(5, 22)),
        ("f1", "x^3*z^3+x*y^5", F(2, 7)),
        ("blp114", "z^3+z^2*x^4", F(29, 106)),
        ("blp114", "z^3+z*y*x^7", F(31, 110)),
        ("blp114", "z^3+y^2*x^10", F(2, 7)),
        ("blp114", "z^3+z*y^2*x^6+y^3*x^9", F(35, 118)),
    ])
    def test_table_curves_pin_their_wall(self, surface, text, w):
        thr = threshold(parse_curve(text, surface))
        assert thr.is_point(w), thr.to_json()

    def test_generic_curve_interval(self):
        from kwall.pairs import make_curve
        full = make_curve("f1", admissible_monomials("f1"))
        thr = threshold(full)
        assert thr.classification == "interval"
        assert thr.lower == F(1, 14)
        full_u = make_curve("blp114", admissible_monomials("blp114"))
        thr_u = threshold(full_u)
        assert thr_u.classification == "interval"
        assert thr_u.lower == F(29, 106)

    def test_grid_cross_check(self):
        for surface, text in [("f1", "x^4*z^2+x^3*y^3"),
                              ("blp114", "z^3+z*y^2*x^6+y^3*x^9")]:
            thr = threshold(parse_curve(text, surface), grid=30)
            assert thr.classification == "point"
            assert thr.guarantee == "kink-complete+grid(30)"

    def test_bound_values_agree(self):
        c = parse_curve("x^3*z^3+x*y^5", "f1")
        t12 = threshold(c, grid=12)
        t30 = threshold(c, grid=30)
        assert (t12.lower, t12.upper) == (t30.lower, t30.upper)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            threshold(parse_curve("x^4*z*y", "f1"), grid=4)

    @pytest.mark.parametrize("surface", ["f1", "blp114"])
    def test_grid_agrees_on_seeded_supports(self, surface):
        # 1-3 admissible monomials; most thresholds here are empty, and the
        # grid's extra constraints move the raw bounds of an empty one
        from kwall.pairs import make_curve
        rng = random.Random(0)
        monos = admissible_monomials(surface)
        empty = 0
        for _ in range(60):
            curve = make_curve(surface, rng.sample(monos, rng.randint(1, 3)))
            base = threshold(curve)
            swept = threshold(curve, grid=12)
            assert swept.to_json() == {**base.to_json(), "guarantee": "kink-complete+grid(12)"}
            empty += base.classification == "empty"
        assert empty >= 40

    def test_tighter_grid_constraint_raises(self, monkeypatch):
        # a grid valuation that cuts the point threshold {5/58} away
        import kwall.stability as st
        curve = parse_curve("x^4*z^2+x^3*y^3", "f1")
        constraint = st.chart_constraint

        def tightened(curve, chart):
            if (chart.a, chart.b) == (11, 1):  # a weight only the grid sweeps
                return Constraint("tight", F(1), F(20), F(0))  # c <= 1/20 < 5/58
            return constraint(curve, chart)

        monkeypatch.setattr(st, "chart_constraint", tightened)
        assert threshold(curve).is_point(F(5, 58))
        with pytest.raises(ArithmeticError, match="grid sweep tightened"):
            threshold(curve, grid=12)

    def test_verifier_two_sided(self):
        c = parse_curve("x^4*z^2+x^3*y^3", "f1")
        ok, _ = verify_semistable_at(c, F(5, 58))
        assert ok
        bad_hi, fail_hi = verify_semistable_at(c, F(5, 58) + EPS)
        bad_lo, fail_lo = verify_semistable_at(c, F(5, 58) - EPS)
        assert not bad_hi and any("case1-001" in f for f in fail_hi)
        assert not bad_lo and any("case2-yv" in f for f in fail_lo)

    def test_published_case1_form_would_empty_the_wall(self):
        # reductio: with the tabulated Case-1 S the inverse chart of wall
        # 5/58 would force c <= 1/146 while the fibers force c >= 1/26,
        # contradicting the confirmed semistable point at 5/58
        a, b, m = 3, 1, 12
        tabulated_s0 = F(a + b) - F(b * b, 12 * a)
        con = Constraint("tabulated", F(a + b), F(m), tabulated_s0)
        assert con.v < 0
        upper = -con.u / con.v
        assert upper == F(1, 146)
        assert upper < F(5, 58)
        engine_s0 = F(10 * a + 13 * b, 12)
        con2 = Constraint("engine", F(a + b), F(m), engine_s0)
        assert -con2.u / con2.v == F(5, 58)


class TestEnumeration:
    def test_wall_sets(self):
        assert confirmed_walls("f1") == sorted(W_H)
        assert confirmed_walls("blp114") == sorted(W_U)

    def test_confirmed_records_include_table_centers(self):
        recs = enumerate_walls("f1")
        supports = {(r.candidate.w, tuple(sorted(r.candidate.curve.support())))
                    for r in recs if r.confirmed}
        for branch in bundled_atlas().for_surface("f1"):
            curve = parse_curve(branch.curve, branch.surface)
            assert (branch.wall, tuple(sorted(curve.support()))) in supports

    def test_sign_flip_at_walls(self):
        for rec in enumerate_walls("f1"):
            if not rec.confirmed or rec.candidate.chart is None:
                continue
            w = rec.candidate.w
            curve = rec.candidate.curve
            rep = chart_constraint(curve, rec.candidate.chart).report(w)
            assert rep.verdict == "critical"
            ok_up, _ = verify_semistable_at(curve, w + EPS)
            ok_down, _ = verify_semistable_at(curve, w - EPS)
            assert not ok_up and not ok_down

    def test_order_independence(self, monkeypatch, fresh_supports):
        st = fresh_supports
        base = confirmed_walls("f1")
        orig = st.admissible_monomials
        calls = []

        def shuffled(surface):
            calls.append(surface)
            out = orig(surface)
            random.Random(99).shuffle(out)
            return out

        monkeypatch.setattr(st, "admissible_monomials", shuffled)
        st._candidate_supports.cache_clear()
        assert {r.candidate.w for r in st.enumerate_walls("f1") if r.confirmed} \
            == set(base)
        assert calls == ["f1"]

    def test_audit_extras(self):
        assert audit_extra_walls("f1", enumerate_walls("f1")) == []
        extras = audit_extra_walls("blp114", enumerate_walls("blp114"))
        assert [str(r.candidate.w) for r in extras] == ["41/130", "47/142", "59/166"]
        for r in extras:
            assert r.confirmed
            chart = r.candidate.chart
            # every extra is realized on a weight branch where the tabulated
            # S-expression carries a surd, so the published search misses it
            assert (chart.tag == "case2p" and chart.b < 3 * chart.a) or \
                (chart.tag == "case3p" and not 3 * chart.a <= chart.b <= 4 * chart.a)
            assert wall_from_chart(chart, r.candidate.m, source="published") is None

    def test_confirm_rejects_near_miss(self):
        from kwall.stability import WallCandidate
        curve = parse_curve("x^4*z^2+x^3*y^3", "f1")
        cand = WallCandidate(F(1, 12), "f1", curve, (0, 2, 3),
                             ChartCase("f1", "case2-yv", 2, 1), 2, "chart")
        rec = confirm_wall(cand)
        assert not rec.confirmed

    def test_confirm_rejects_non_invariant(self):
        from kwall.stability import WallCandidate
        curve = parse_curve("x^4*z^2+x^3*y^3+x^2*y^4", "f1")
        cand = WallCandidate(F(5, 58), "f1", curve, (0, 2, 3),
                             ChartCase("f1", "case2-yv", 2, 1), 2, "chart")
        rec = confirm_wall(cand)
        assert not rec.confirmed and "invariant" in rec.reason


class TestTableRoundTrip:
    def test_mechanical_rows(self):
        mechanical = 0
        degenerate = 0
        for branch in bundled_atlas().branches:
            curve = parse_curve(branch.curve, branch.surface)
            try:
                chart = onePS_to_chart(branch.weight, branch.surface)
            except DegenerateWeightError:
                thr = threshold(curve)
                assert thr.is_point(branch.wall), branch
                degenerate += 1
                continue
            sup = chart_expand(curve, chart)
            m = multiplicity(sup, chart.a, chart.b)
            w = wall_from_chart(chart, m)
            assert w == branch.wall, branch
            if chart.tag in ("case2-zu", "case2-yv"):
                assert wall_formula("case2", chart.a, chart.b, m) == branch.wall
            mechanical += 1
        assert mechanical == 18 and degenerate == 2


class TestCertificates:
    def test_index3_grid(self):
        for k in range(1, 51):
            c = F(k, 102)
            rep = index3_certificate(c)
            assert rep.beta == SurdSum.rational(F(10, 9) * c - F(5, 9))
            assert rep.verdict == "destabilizing"

    def test_index3_examples(self):
        assert index3_certificate(F(1, 4)).beta == SurdSum.rational(F(-5, 18))
        with pytest.raises(ValueError):
            index3_certificate(F(1, 2))

    def test_quotient_point_grid(self):
        for k in range(1, 51):
            c = F(k, 102)
            rep = quotient_point_certificate(1, c)
            assert rep.verdict == "destabilizing"
            expected_s = SurdSum.sqrt(2) * F(2, 3) * (1 - 2 * c)
            assert rep.s_value == expected_s

    def test_quotient_point_from_curve(self):
        curve = parse_curve("z^2*x^4+z*y^4*x^4+y^4*x^8", "blp114")
        rep = quotient_point_certificate(quarter_point_order("blp114", curve.support()), F(1, 4))
        assert rep.a_value == F(1, 4)
        assert rep.verdict == "destabilizing"
        deeper = parse_curve("z*y^2*x^6+y^4*x^8", "blp114")
        rep2 = quotient_point_certificate(quarter_point_order("blp114", deeper.support()),
                                          F(1, 8))
        assert rep2.a_value == F(1, 2) - 2 * F(1, 8)

    def test_quotient_point_requires_contact(self):
        curve = parse_curve("z^3+z^2*x^4", "blp114")
        with pytest.raises(ValueError):
            quotient_point_certificate(quarter_point_order("blp114", curve.support()), F(1, 4))


class TestValuationRecord:
    """``Constraint`` against the per-site beta arithmetic it replaced."""

    @staticmethod
    def _old_report(name, a0, m, s0, c, note=""):
        a_val = a0 - m * c
        s_val = SurdSum._coerce(s0) * (1 - 2 * c)
        beta_val = SurdSum.rational(a_val) - s_val
        sign = beta_val.sign()
        verdict = "destabilizing" if sign < 0 else ("critical" if sign == 0 else "positive")
        return BetaReport(name, a_val, s_val, beta_val, verdict, note)

    @staticmethod
    def _old_uv(a0, m, s0):
        if isinstance(s0, SurdSum):
            s0 = s0.as_fraction()
        return a0 - s0, 2 * s0 - m

    @staticmethod
    def _old_wall(a0, m, s0):
        if isinstance(s0, SurdSum):
            if not s0.is_rational():
                return None
            s0 = s0.as_fraction()
        den = 2 * s0 - m
        if den == 0:
            return None
        w = (s0 - a0) / den
        return w if 0 < w < F(1, 2) else None

    def test_matches_old_arithmetic(self):
        rng = random.Random(10)
        surds = 0
        for k in range(3000):
            a0 = F(rng.randint(1, 30), rng.randint(1, 4))
            q = F(rng.randint(0, 90), rng.randint(1, 12))
            kind = k % 4
            if kind == 0:
                s0 = q
            elif kind == 1:
                s0 = SurdSum.rational(q)
            else:
                s0 = q + SurdSum.sqrt(rng.choice([2, 3, 8, F(1, 2)])) * F(rng.randint(1, 9), 3)
            m = F(rng.randint(0, 60), rng.randint(1, 3)) if kind != 3 else 2 * q
            c = F(rng.randint(0, 60), rng.randint(1, 120))
            con = Constraint("v", a0, m, s0)
            rep = con.report(c, note="n")
            old = self._old_report("v", a0, m, s0, c, "n")
            assert rep == old and rep.to_json() == old.to_json()
            if kind < 2:
                assert (con.u, con.v) == self._old_uv(a0, m, s0)
                assert con.beta_at(c) == old.beta.as_fraction()
            else:
                surds += 1
        assert surds > 1000

    def test_root_edge_cases(self, monkeypatch):
        """``wall_from_chart`` solves beta(w) = 0 as the constraint root did:
        no wall for a surd S, for m = 2*s0 or for w outside (0, 1/2)."""
        chart = ChartCase("blp114", "case3p", 1, 4)  # a + b = 5, S = 91/24
        assert wall_from_chart(chart, 12) == wall_from_chart(chart, 12, "published") == F(29, 106)
        surd = ChartCase("blp114", "case2p", 1, 1)
        assert not s_closed_form_coefficient(surd).is_rational()
        assert wall_from_chart(surd, 12, "published") is None
        with pytest.raises(ValueError):
            wall_from_chart(chart, 12, "tabulated")
        walls = 0
        # s0 = 2 with m = 4 is the flat case
        for s0 in (F(2), F(5), F(91, 24), F(1, 3), F(9, 4)):
            monkeypatch.setattr(stability, "s_engine_coefficient", lambda _, s0=s0: s0)
            for m in range(13):
                w = wall_from_chart(chart, m)
                assert w == self._old_wall(F(5), F(m), s0), (s0, m)
                walls += w is not None
        assert walls > 5

    def test_crossing_matches_pairwise_rule(self):
        def old_pair(p, q):
            de, df = p[0] - q[0], q[1] - p[1]
            if de == 0 or df == 0 or (de > 0) != (df > 0):
                return None
            g = gcd(abs(de), abs(df))
            return abs(df) // g, abs(de) // g

        checked = 0
        for surface in ("f1", "blp114"):
            monos = admissible_monomials(surface)
            orders = {p: divisor_orders(surface, *p) for p in monos}
            for tag in PLANES[surface].chart_tags:
                d1, d2 = CHART_FAMILIES[tag].divisors
                local = [(orders[p][d1], orders[p][d2]) for p in monos]
                for k, p in enumerate(local):
                    for q in local[k + 1:]:
                        ab = _crossing(p, q)
                        assert ab == old_pair(p, q) == _crossing(q, p)
                        if ab is not None:
                            a, b = ab
                            assert a * p[0] + b * p[1] == a * q[0] + b * q[1]
                            checked += 1
        assert checked > 500

    @pytest.mark.parametrize("surface,source,n,confirmed,digest", [
        ("f1", "published", 115, 41,
         "7e10dbbecdac886bf3d7fcbfe89dacda14a3e9378832f424cc368bf61174db17"),
        ("f1", "engine", 59, 45,
         "d795bcc7551abae1f7dc7b903d4aa18e7f2d8ba4f134f0ff3e08cae76dde6f8e"),
        ("blp114", "published", 5, 4,
         "070e24be3d528f4c944f8dbf6bfcdc86db431511ce10399943a7c1706811f949"),
        ("blp114", "engine", 13, 7,
         "12f15c02add66456a166d80b7633f54ba50cb2bbca7efa07452d3a9a1d454e5a"),
    ])
    def test_wall_records_unchanged(self, surface, source, n, confirmed, digest):
        # SHA-256 of every record's (w, confirmed, reason, binding_lower,
        # binding_upper), recorded before beta moved into ``Constraint``; the
        # benchmark tracer buckets rejections by their reason text
        recs = enumerate_walls(surface, source)
        text = "\n".join(f"{r.candidate.w}|{r.confirmed}|{r.reason}|"
                         f"{','.join(r.binding_lower)}|{','.join(r.binding_upper)}"
                         for r in recs)
        assert (len(recs), sum(r.confirmed for r in recs)) == (n, confirmed)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("surface", ["f1", "blp114"])
@pytest.mark.parametrize("source", ["published", "engine"])
def test_continuum_check_matches_reference(surface, source, monkeypatch):
    """``verify_semistable_at`` returns what the two-``Constraint``-per-interval
    reference returns: on every (curve, w) that ``confirm_wall`` reaches, and
    at seeded off-wall c, where the failure witnesses must agree too."""
    import continuum_reference as ref
    import kwall.stability as st

    reached = []

    def spy(curve, c):
        reached.append((curve, c))
        return verify_semistable_at(curve, c)

    monkeypatch.setattr(st, "verify_semistable_at", spy)
    enumerate_walls(surface, source)
    assert reached
    rng = random.Random(21)
    failing = set()
    for curve, w in reached:
        assert verify_semistable_at(curve, w) == ref.verify_semistable_at(curve, w)
        for c in (w + F(1, rng.randint(100, 10000)), w - F(1, rng.randint(100, 10000)),
                  F(rng.randint(1, 999), 2000)):
            ok, failures = verify_semistable_at(curve, c)
            assert (ok, failures) == ref.verify_semistable_at(curve, c)
            failing.update(f.split(" ")[0].rstrip(":") for f in failures)
    assert failing == {"toric", *PLANES[surface].chart_tags}


class TestCurveCache:
    """Each curve's stability data is computed once; what callers get back
    is theirs to change."""

    def test_grid_first_keeps_kink_guarantee(self):
        import kwall.stability as st
        curve = parse_curve("x^4*z^2+x^2*z*y^3+a*y^6", "f1")
        st._curve_cache.pop(curve, None)
        assert threshold(curve, grid=30).guarantee == "kink-complete+grid(30)"
        assert threshold(curve).guarantee == "kink-complete"

    def test_returned_lists_are_fresh(self):
        import kwall.stability as st
        curve = parse_curve("x^4*z^2+x^3*y^3", "f1")
        thr = threshold(curve)
        for read in (toric_constraints, st.all_constraints):
            first = read(curve)
            expected = list(first)
            first.append(first[0])
            first[0] = None
            assert read(curve) == expected
            first.clear()
            assert read(curve) == expected
        assert threshold(curve) == thr
        assert threshold(curve, grid=12).binding_lower == thr.binding_lower

    def test_tighter_grid_raises_with_cached_threshold(self, monkeypatch):
        import kwall.stability as st
        curve = parse_curve("x^4*z^2+x^3*y^3", "f1")
        assert threshold(curve).is_point(F(5, 58))  # kink threshold now cached
        constraint = st.chart_constraint

        def tightened(curve, chart):
            if (chart.a, chart.b) == (11, 1):  # a weight only the grid sweeps
                return Constraint("tight", F(1), F(20), F(0))  # c <= 1/20 < 5/58
            return constraint(curve, chart)

        monkeypatch.setattr(st, "chart_constraint", tightened)
        with pytest.raises(ArithmeticError, match="grid sweep tightened"):
            threshold(curve, grid=12)
        assert threshold(curve).is_point(F(5, 58))

    def test_candidate_supports_enumerated_once_per_surface(self, monkeypatch,
                                                            fresh_supports):
        """The published and engine passes of ``walls --surface all
        --audit-extra`` read one enumeration of each surface's supports."""
        import io

        from kwall import cli

        st = fresh_supports

        enumerated = []
        monomials = st.admissible_monomials
        monkeypatch.setattr(st, "admissible_monomials",
                            lambda surface: enumerated.append(surface) or monomials(surface))
        out = io.StringIO()
        assert cli.run(["walls", "--surface", "all", "--audit-extra"], out=out) == 0
        assert sorted(enumerated) == ["blp114", "f1"]
        assert cli.run(["walls", "--surface", "all", "--audit-extra"], out=io.StringIO()) == 0
        assert len(enumerated) == 2


@pytest.mark.parametrize("surface, builds, lines, charts",
                         [("f1", 410, 262, 262), ("blp114", 279, 185, 29)])
def test_candidate_supports_scan_each_line_once(monkeypatch, fresh_supports,
                                                surface, builds, lines, charts):
    """Skipping a crossing pair on a line already scanned keeps the
    candidate tuple and its order, and builds one support per distinct
    (tag, a, b, m) line instead of one per crossing pair.  Both
    constructions test every support they build for the quarter point, and
    so does their shared tail, so the difference of those tests is the
    difference of the builds."""
    import stability_reference as ref

    st = fresh_supports
    tests = []
    quarter = st.quarter_point_order
    monkeypatch.setattr(st, "quarter_point_order",
                        lambda surface, support: tests.append(1) or quarter(surface, support))
    want, ref_builds = ref.candidate_supports(surface)
    ref_tests = len(tests)
    got = st._candidate_supports(surface)
    package_tests = len(tests) - ref_tests
    assert got == want
    assert ref_builds == builds
    assert ref_builds - (ref_tests - package_tests) == lines
    assert sum(kind == "chart" for kind, *_ in got) == charts


@pytest.mark.parametrize("surface", ["f1", "blp114"])
def test_sub_support_lowers_no_chart_beta(surface):
    """The monotonicity lemma of the wall-list argument: a sub-support has
    every chart multiplicity at least as large as its support, so its chart
    beta at any c in (0, 1/2) is no larger.  Seeded supports and nonempty
    proper sub-supports of admissible monomials, every chart tag at every
    coprime a + b <= 12."""
    from kwall.pairs import make_curve

    charts = [ChartCase(surface, tag, a, b) for tag in PLANES[surface].chart_tags
              for a in range(1, 12) for b in range(1, 13 - a) if gcd(a, b) == 1]
    assert len(charts) == 45 * len(PLANES[surface].chart_tags)
    rng = random.Random(27)
    monos = admissible_monomials(surface)
    raised = 0
    for _ in range(40):
        support = rng.sample(monos, rng.randint(2, 8))
        curve = make_curve(surface, support)
        part = make_curve(surface, rng.sample(support, rng.randint(1, len(support) - 1)))
        c = F(rng.randint(1, 999), 2000)
        for chart in charts:
            m = multiplicity(chart_expand(curve, chart), chart.a, chart.b)
            m_part = multiplicity(chart_expand(part, chart), chart.a, chart.b)
            assert m_part >= m, (support, part.support(), chart)
            beta = chart_constraint(curve, chart).beta_at(c)
            assert chart_constraint(part, chart).beta_at(c) <= beta, (support, chart, c)
            raised += m_part > m
    assert raised >= 2000, raised


@pytest.mark.parametrize("surface", ["f1", "blp114"])
def test_integer_decisions_match_fraction_reference(surface):
    """``wall_from_chart``, ``_intersect`` and ``verify_semistable_at`` decide
    on integers what their ``Fraction`` versions in ``stability_reference``
    decide: the wall (or None) of every chart candidate under both sources,
    the threshold of every candidate curve, and the continuum check with its
    failure strings at every candidate w and at seeded c in (0, 1/2)."""
    import stability_reference as ref

    curves, walls = set(), 0
    for kind, tag, a, b, m, support in stability._candidate_supports(surface):
        curves.add(stability._support_curve(surface, support))
        if kind == "chart":
            chart = ChartCase(surface, tag, a, b)
            for source in ("engine", "published"):
                w = wall_from_chart(chart, m, source)
                assert w == ref.wall_from_chart(chart, m, source), (chart, m, source)
                walls += w is not None
    assert walls > 20

    classes = set()
    for curve in curves:
        cons = stability.all_constraints(curve)
        got = stability._intersect(cons)
        assert got == ref.intersect(cons), curve
        assert all(type(x) is F for x in (got.lower, got.upper) if x is not None)
        classes.add(got.classification)
    assert {"point", "empty"} <= classes

    rng = random.Random(25)
    failing, checked = set(), 0
    for source in ("engine", "published"):
        for cand in stability._wall_candidates(surface, source):
            for c in (cand.w, cand.w + F(1, rng.randint(100, 10000)),
                      cand.w - F(1, rng.randint(100, 10000)), F(rng.randint(1, 999), 2000)):
                got = verify_semistable_at(cand.curve, c)
                assert got == ref.verify_semistable_at(cand.curve, c), (cand.curve, c)
                failing.update(f.split(" ")[0].rstrip(":") for f in got[1])
                checked += 1
    assert checked > 40 and failing == {"toric", *PLANES[surface].chart_tags}


def test_intersect_matches_fraction_reference_on_seeded_constraints():
    """Ties, flat constraints (v = 0), and empty, point and interval
    thresholds: seeded constraint sets with small entries, some of them
    through one common c, so equal bounds are common."""
    import stability_reference as ref

    rng = random.Random(26)
    seen = collections.Counter()
    for _ in range(2000):
        cons = [Constraint(f"v{j}", F(rng.randint(0, 6), rng.randint(1, 3)),
                           F(rng.randint(0, 12), rng.randint(1, 2)),
                           F(rng.randint(0, 12), rng.randint(1, 4)))
                for j in range(rng.randint(0, 4))]
        w = F(rng.randint(1, 9), 20)
        for j in range(rng.randint(0, 3)):  # through w: a0 = s0 - v*w
            s0, m = F(rng.randint(0, 12), rng.randint(1, 4)), F(rng.randint(0, 12))
            cons.append(Constraint(f"w{j}", s0 - (2 * s0 - m) * w, m, s0))
        got = stability._intersect(cons)
        assert got == ref.intersect(cons), cons
        seen[got.classification] += 1
        seen["flat"] += any(c.v == 0 for c in cons)
        seen["tie"] += len(got.binding_lower) > 1 or len(got.binding_upper) > 1
    assert len(seen) == 5 and min(seen.values()) > 20, seen
