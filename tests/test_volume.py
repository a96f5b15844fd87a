from fractions import Fraction as F
from math import gcd

import pytest

from kwall import volume
from kwall.exactnum import QuadraticPoly, SurdSum
from kwall.surface import builtin_surface, vadd, vscale, vsub
from kwall.volume import (
    BLP114_CHART_TAGS,
    ChartCase,
    F1_CHART_TAGS,
    closed_form_matches_engine,
    closed_form_report,
    fixed_divisor_profile,
    fixed_divisor_s,
    reference_raw,
    s_closed_form,
    s_closed_form_coefficient,
    s_engine,
    s_engine_coefficient,
    s_engine_raw,
    volume_profile,
)

COPRIME_12 = [(a, b) for a in range(1, 13) for b in range(1, 13) if gcd(a, b) == 1]


def all_charts(limit_pairs=COPRIME_12):
    for tag in F1_CHART_TAGS:
        for a, b in limit_pairs:
            yield ChartCase("f1", tag, a, b)
    for tag in BLP114_CHART_TAGS:
        for a, b in limit_pairs:
            yield ChartCase("blp114", tag, a, b)


class TestFixedDivisorProfiles:
    @pytest.mark.parametrize("surface,divisor,raw,tau", [
        ("f1", "H_x", F(20, 3), 2),
        ("f1", "H_y", F(26, 3), 3),
        ("f1", "H_z", F(26, 3), 3),
        ("f1", "E", F(28, 3), 2),
        ("blp114", "E", F(83, 6), 5),
        ("blp114", "H_x", F(41, 3), 5),
        ("blp114", "H_y", F(53, 3), 6),
        ("blp114", "H_z", F(25, 6), F(3, 2)),
    ])
    def test_profiles(self, surface, divisor, raw, tau):
        prof = fixed_divisor_profile(surface, divisor)
        assert prof.raw_integral == SurdSum.rational(raw)
        assert prof.tau == SurdSum.rational(tau)
        prof.profile.check_continuity()
        assert prof.profile.value_at(0) == SurdSum.rational(8)
        assert prof.profile.value_at(prof.tau).is_zero()

    def test_fixed_s_table(self):
        f1 = fixed_divisor_s("f1")
        assert f1 == {"H_x": F(5, 6), "H_y": F(13, 12),
                      "H_z": F(13, 12), "E": F(7, 6)}
        bl = fixed_divisor_s("blp114")
        assert bl == {"H_x": F(41, 24), "H_y": F(53, 24),
                      "H_z": F(25, 48), "E": F(83, 48)}

    def test_table_matches_profiles(self):
        for surface in ("f1", "blp114"):
            for name, coeff in fixed_divisor_s(surface).items():
                prof = fixed_divisor_profile(surface, name)
                assert prof.raw_integral == SurdSum.rational(8 * coeff)

    def test_exceptional_single_segment(self):
        prof = fixed_divisor_profile("f1", "E")
        assert len(prof.profile.segments) == 1
        assert prof.profile.segments[0] == QuadraticPoly(F(-1), F(-2), F(8))
        assert prof.s_at(F(1, 4)) == SurdSum.rational(F(7, 12))


class TestSpecialModels:
    def test_index3_profile(self):
        prof = volume_profile(builtin_surface("index3m"))
        assert len(prof.profile.segments) == 1
        assert prof.profile.segments[0] == QuadraticPoly(F(-9, 2), F(0), F(8))
        assert prof.tau == SurdSum.rational(F(4, 3))
        assert prof.raw_integral == SurdSum.rational(F(64, 9))
        for c in (F(0), F(1, 4), F(2, 5)):
            assert prof.s_at(c) == SurdSum.rational(F(8, 9) * (1 - 2 * c))

    def test_quotient_resolution_profile(self):
        # the honest two-segment profile forced by the resolution lattice;
        # tau = 3/2 and the integral is rational
        prof = volume_profile(builtin_surface("blp114-quotient-res"))
        assert [str(b) for b in prof.profile.breakpoints] == ["0", "1/2", "3/2"]
        assert prof.profile.segments[0] == QuadraticPoly(F(-4), F(0), F(8))
        assert prof.profile.segments[1] == QuadraticPoly(F(-3), F(-1), F(33, 4))
        assert prof.raw_integral == SurdSum.rational(F(47, 6))
        # the tabulated certificate value 2*sqrt(2)/3 underestimates this
        assert prof.s_at(0) > SurdSum.sqrt(2) * F(2, 3)

    def test_profile_requires_nef_big(self):
        m = builtin_surface("f1")
        from kwall.exactnum import ExactDomainError
        with pytest.raises(ExactDomainError):
            volume_profile(m, l0=m.classes["E"], f="E")
        with pytest.raises(ExactDomainError):
            volume_profile(m, l0=m.classes["H_z"], f="E")  # nef but not big


class TestEngineAgainstReference:
    @pytest.mark.parametrize("tag", F1_CHART_TAGS + BLP114_CHART_TAGS)
    def test_engine_equals_reference_closed_form(self, tag):
        surface = "f1" if tag in F1_CHART_TAGS else "blp114"
        for a, b in COPRIME_12:
            chart = ChartCase(surface, tag, a, b)
            assert s_engine_raw(chart) == SurdSum.rational(reference_raw(chart)), \
                f"{tag}({a},{b})"

    def test_profile_monotone_decreasing(self):
        for chart in [ChartCase("f1", "case1-010", 5, 2),
                      ChartCase("blp114", "case2p", 2, 3),
                      ChartCase("blp114", "case3p", 3, 8)]:
            prof = volume_profile(chart.model())
            prev = SurdSum.rational(8)
            assert prof.profile.value_at(0) == prev
            bps = prof.profile.breakpoints
            for k, seg in enumerate(prof.profile.segments):
                mid = (bps[k] + bps[k + 1]) / 2
                val = SurdSum._coerce(seg(mid))
                end = SurdSum._coerce(seg(bps[k + 1]))
                assert val < prev and end < val
                prev = end
            assert prof.profile.value_at(prof.tau).is_zero()


ORACLE_WEIGHTS = [(1, 1), (2, 3), (5, 2), (3, 7)]
CHART_FAMILIES = ("f1-case1", "f1-case2", "blp114-case1p", "blp114-case2p", "blp114-case3p")
FIXED_IDS = ("f1", "blp114", "index3m", "blp114-quotient-res")


def _oracle_cases():
    for kind in CHART_FAMILIES:
        for a, b in ORACLE_WEIGHTS:
            yield builtin_surface(kind, a, b), None
    for ident in FIXED_IDS:
        model = builtin_surface(ident)
        if model.exceptional is not None:
            yield model, None
    for surface in ("f1", "blp114"):
        model = builtin_surface(surface)
        for name in fixed_divisor_s(surface):
            yield model, model.classes[name]


class TestPairingTableOracle:
    """Every segment record of the sweep against P(t) rebuilt as a vector."""

    def _recorded_segments(self, monkeypatch, model, f):
        recorded = []
        original = volume._segment

        def spy(table, support, t_cur):
            seg = original(table, support, t_cur)
            recorded.append((list(support), seg))
            return seg

        monkeypatch.setattr(volume, "_segment", spy)
        try:
            volume_profile(model, f=f)
        finally:
            monkeypatch.undo()
        return recorded

    def test_segments_match_intersect(self, monkeypatch):
        supports_seen = 0
        for model, f in _oracle_cases():
            l0 = model.anticanonical
            f_vec = f if f is not None else model.cone_class(model.exceptional)
            gens = [c for _, c in model.cone]
            recorded = self._recorded_segments(monkeypatch, model, f)
            assert recorded, model.name
            for support, seg in recorded:
                assert sorted(seg.xs) == support
                supports_seen += bool(support)
                # P(t) = l0 - t*f - sum (x0_i + t*x1_i) C_i = p0 - t*p1
                p0, p1 = l0, f_vec
                for i, (x0, x1) in seg.xs.items():
                    p0 = vsub(p0, vscale(x0, gens[i]))
                    p1 = vadd(p1, vscale(x1, gens[i]))
                dot = model.intersect
                assert seg.quad == QuadraticPoly(dot(p1, p1), -2 * dot(p0, p1),
                                                 dot(p0, p0)), model.name
                for i in support:
                    assert dot(p0, gens[i]) == 0 and dot(p1, gens[i]) == 0
                assert sorted(seg.pairings) == [j for j in range(len(gens))
                                                if j not in support]
                for j, pair in seg.pairings.items():
                    assert pair == (dot(p1, gens[j]), dot(p0, gens[j])), (model.name, j)
        assert supports_seen > 0


MATCH_BRANCHES = "matching"
DIFFER_BRANCHES = "differing"


def branch_kind(chart: ChartCase) -> str:
    # weight regions where the tabulated closed forms agree with the exact
    # engine integral
    a, b, tag = chart.a, chart.b, chart.tag
    if tag in ("case1-010", "case1-001"):
        return MATCH_BRANCHES if a == b else DIFFER_BRANCHES
    if tag in ("case2-zu", "case2-yv", "case1p"):
        return MATCH_BRANCHES
    if tag == "case2p":
        return MATCH_BRANCHES if b >= 3 * a else DIFFER_BRANCHES
    if tag == "case3p":
        return MATCH_BRANCHES if 3 * a <= b <= 4 * a else DIFFER_BRANCHES
    raise ValueError(tag)


class TestClosedFormComparison:
    def test_agreement_partition(self):
        for chart in all_charts():
            expected = branch_kind(chart) == MATCH_BRANCHES
            assert closed_form_matches_engine(chart) == expected, \
                f"{chart.tag}({chart.a},{chart.b})"

    def test_case1p_ordering_resolution(self):
        # engine integral follows the (106b + 83a)/48 ordering
        for a, b in [(1, 2), (3, 1), (2, 5), (5, 2)]:
            chart = ChartCase("blp114", "case1p", a, b)
            stated = F(106 * b + 83 * a, 48)
            swapped = F(106 * a + 83 * b, 48)
            engine = s_engine_coefficient(chart)
            assert engine == SurdSum.rational(stated)
            if a != b:
                assert engine != SurdSum.rational(swapped)

    def test_report_fields(self):
        rep = closed_form_report(ChartCase("blp114", "case2p", 1, 1))
        assert rep["match"] is False
        assert rep["engine"] == "9/4"
        assert rep["closed_form"] == "-9/8+9/4*sqrt(2)"

    def test_spec_values(self):
        assert s_closed_form(ChartCase("f1", "case2-yv", 2, 1), F(0)) \
            == SurdSum.rational(F(41, 12))
        assert s_closed_form(ChartCase("f1", "case1-010", 1, 1), F(0)) \
            == SurdSum.rational(F(23, 12))
        assert s_closed_form(ChartCase("blp114", "case3p", 1, 4), F(0)) \
            == SurdSum.rational(F(91, 24))
        assert s_closed_form(ChartCase("blp114", "case2p", 1, 3), F(0)) \
            == SurdSum.rational(F(79, 24))
        assert s_engine(ChartCase("blp114", "case1p", 1, 1), F(0)) \
            == SurdSum.rational(F(189, 48))
        assert s_engine(ChartCase("f1", "case2-yv", 2, 1), F(5, 58)) \
            == SurdSum.rational(F(82, 29))

    def test_s_at_half_vanishes(self):
        for chart in [ChartCase("f1", "case2-zu", 3, 2),
                      ChartCase("blp114", "case3p", 2, 7)]:
            assert s_engine(chart, F(1, 2)).is_zero()
            assert s_closed_form(chart, F(1, 2)).is_zero()


class TestHomogeneityAndContinuity:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_closed_form_homogeneity(self, k):
        for tag in F1_CHART_TAGS + BLP114_CHART_TAGS:
            for a, b in [(1, 1), (2, 1), (1, 3), (1, 4), (3, 2), (1, 5)]:
                base = _scaled_closed_coefficient(tag, a, b)
                surface = "f1" if tag in F1_CHART_TAGS else "blp114"
                assert base == s_closed_form_coefficient(ChartCase(surface, tag, a, b))
                scaled = _scaled_closed_coefficient(tag, k * a, k * b)
                assert scaled == base * k, (tag, a, b, k)

    def test_case2p_continuity_at_3a(self):
        for a in range(1, 13):
            b = 3 * a
            low = (SurdSum.sqrt(a * (a + b)) * 18 - F(b + 26 * a, 3)) / F(8)
            high = SurdSum.rational(F(25 * b + 83 * a, 48))
            assert low == high, a

    def test_case3p_continuity_at_3a_and_4a(self):
        for a in range(1, 13):
            b = 3 * a
            low = (SurdSum.sqrt(a * (4 * a - b)) * 4 + 72 * a + 27 * b) / F(48)
            mid = SurdSum.rational(F(82 * a + 25 * b, 48))
            assert low == mid == SurdSum.rational(F(157 * a, 48)), a
            b = 4 * a
            mid = SurdSum.rational(F(82 * a + 25 * b, 48))
            high = (SurdSum.sqrt(b * (b - 3 * a)) * 2 + 110 * b + 375 * a) / F(216)
            assert mid == high == SurdSum.rational(F(91 * a, 24)), a

    def test_engine_reference_homogeneous(self):
        # the derived engine forms are degree-1 homogeneous by inspection;
        # assert it numerically through the tag-level evaluator
        for tag in F1_CHART_TAGS + BLP114_CHART_TAGS:
            for a, b in [(1, 2), (2, 1), (1, 5)]:
                base = _reference_raw_unchecked(tag, a, b)
                for k in (2, 3, 5):
                    assert _reference_raw_unchecked(tag, k * a, k * b) == k * base


def _scaled_closed_coefficient(tag: str, a: int, b: int) -> SurdSum:
    # evaluate the printed formulas verbatim at possibly non-coprime weights
    af, bf = F(a), F(b)
    if tag in ("case1-010", "case1-001"):
        if bf < af:
            return SurdSum.rational(af + bf - bf * bf / (12 * af))
        return SurdSum.rational((13 * af + 10 * bf) / 12)
    if tag in ("case2-zu", "case2-yv"):
        return SurdSum.rational((14 * af + 13 * bf) / 12)
    if tag == "case1p":
        return SurdSum.rational((106 * bf + 83 * af) / 48)
    if tag == "case2p":
        if bf < 3 * af:
            return (SurdSum.sqrt(af * (af + bf)) * 18 - (bf + 26 * af) / 3) / F(8)
        return SurdSum.rational((25 * bf + 83 * af) / 48)
    if tag == "case3p":
        if bf < 3 * af:
            return (SurdSum.sqrt(af * (4 * af - bf)) * 4 + 72 * af + 27 * bf) / F(48)
        if bf < 4 * af:
            return SurdSum.rational((82 * af + 25 * bf) / 48)
        return (SurdSum.sqrt(bf * (bf - 3 * af)) * 2 + 110 * bf + 375 * af) / F(216)
    raise ValueError(tag)


def _reference_raw_unchecked(tag: str, a: int, b: int) -> F:
    af, bf = F(a), F(b)
    if tag in ("case1-010", "case1-001"):
        return (26 * af + 20 * bf) / 3 if bf >= af else (20 * af + 26 * bf) / 3
    if tag in ("case2-zu", "case2-yv"):
        return (28 * af + 26 * bf) / 3
    if tag == "case1p":
        return (83 * af + 106 * bf) / 6
    if tag == "case2p":
        return (83 * af + 25 * bf) / 6
    if tag == "case3p":
        return (82 * af + 25 * bf) / 6
    raise ValueError(tag)


class TestProfileJson:
    def test_shape(self):
        prof = fixed_divisor_profile("f1", "E")
        data = prof.to_json(F(0))
        assert data["tau"] == "2"
        assert data["raw_integral"] == "28/3"
        assert data["s_at_c"] == "7/6"
        assert data["segments"][0] == {"from": "0", "to": "2",
                                       "poly": ["-1", "-2", "8"]}
