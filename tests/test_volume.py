import hashlib
import io
import json
from fractions import Fraction as F
from math import gcd

import pytest

from kwall import cli, volume
from kwall.exactnum import QuadraticPoly, SurdSum
from kwall.pairs import CHART_FAMILIES, DIVISORS, ChartCase
from kwall.surface import (
    FIXED_MODELS,
    NotPseudoEffectiveError,
    builtin_surface,
)
from kwall.volume import (
    fixed_divisor_profile,
    fixed_divisor_s,
    s_closed_form_coefficient,
    s_engine_coefficient,
    s_engine_raw,
    volume_profile,
)

CHART_KINDS = sorted({fam.model_kind for fam in CHART_FAMILIES.values()})


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(F(c) * a for a in u)


def value_at(profile, t):
    """The profile's value at a rational t in [0, tau], from the first
    segment ending at or after t."""
    t = F(t)
    assert 0 <= t <= profile.tau
    for k, seg in enumerate(profile.segments):
        if t <= profile.breakpoints[k + 1]:
            return seg(t)


COPRIME_12 = [(a, b) for a in range(1, 13) for b in range(1, 13) if gcd(a, b) == 1]


def all_charts(limit_pairs=COPRIME_12):
    for tag, fam in CHART_FAMILIES.items():
        for a, b in limit_pairs:
            yield ChartCase(fam.surface, tag, a, b)


def reference_raw(tag: str, a: int, b: int) -> F:
    """Independently derived closed form of the engine integral.

    Every chart family turns out affine in the weights with no branch
    splits; the splits in the tabulated formulas are artifacts of
    incomplete curve-cone data (checked against lattice-point slicing of
    the anticanonical polytope).
    """
    af, bf = F(a), F(b)
    if tag in ("case1-010", "case1-001"):
        return (20 * af + 26 * bf) / 3
    if tag in ("case2-zu", "case2-yv"):
        return (28 * af + 26 * bf) / 3
    if tag == "case1p":
        return (83 * af + 106 * bf) / 6
    if tag == "case2p":
        return (83 * af + 25 * bf) / 6
    if tag == "case3p":
        return (82 * af + 25 * bf) / 6
    raise ValueError(tag)


def closed_form_matches_engine(chart: ChartCase) -> bool:
    """Whether the tabulated formula branch agrees with the engine."""
    return s_closed_form_coefficient(chart) == SurdSum._coerce(s_engine_coefficient(chart))


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
        assert value_at(prof.profile, 0) == 8
        assert value_at(prof.profile, prof.tau) == 0

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
            volume_profile(m._replace(anticanonical=m.classes["E"]), f="E")
        with pytest.raises(ExactDomainError):
            volume_profile(m._replace(anticanonical=m.classes["H_z"]), f="E")  # nef, not big


class TestEngineAgainstReference:
    @pytest.mark.parametrize("tag", tuple(CHART_FAMILIES))
    def test_engine_equals_reference_closed_form(self, tag):
        surface = CHART_FAMILIES[tag].surface
        for a, b in COPRIME_12:
            chart = ChartCase(surface, tag, a, b)
            assert s_engine_raw(chart.family.model_kind, a, b) == \
                SurdSum.rational(reference_raw(tag, a, b)), \
                f"{tag}({a},{b})"

    def test_profile_monotone_decreasing(self):
        for chart in [ChartCase("f1", "case1-010", 5, 2),
                      ChartCase("blp114", "case2p", 2, 3),
                      ChartCase("blp114", "case3p", 3, 8)]:
            prof = volume_profile(
                builtin_surface(chart.family.model_kind, chart.a, chart.b))
            prev = F(8)
            assert value_at(prof.profile, 0) == prev
            bps = prof.profile.breakpoints
            for k, seg in enumerate(prof.profile.segments):
                mid = (bps[k] + bps[k + 1]) / 2
                val, end = seg(mid), seg(bps[k + 1])
                assert val < prev and end < val
                prev = end
            assert value_at(prof.profile, prof.tau) == 0


ORACLE_WEIGHTS = [(1, 1), (2, 3), (5, 2), (3, 7)]
MODEL_KINDS = ("f1-case1", "f1-case2", "blp114-case1p", "blp114-case2p", "blp114-case3p")
FIXED_IDS = ("f1", "blp114", "index3m", "blp114-quotient-res")


def _oracle_cases():
    for kind in MODEL_KINDS:
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

        def spy(sweep, support, t_cur):
            seg = original(sweep, support, t_cur)
            recorded.append((list(support), sweep.table, seg))
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
            for support, table, seg in recorded:
                assert list(seg.support) == support
                assert sorted(seg.lines) == list(range(len(gens)))
                supports_seen += bool(support)
                # the integer lines as the old Fraction records: the
                # coefficient x0_i + t*x1_i of C_i in N(t), and
                # P(t).C_j = value - t*slope outside the support
                xs = {i: (F(table.dens[i] * a, seg.det * table.den),
                          -F(table.dens[i] * b, seg.det * table.den))
                      for i, (a, b) in seg.lines.items() if i in support}
                pairings = {j: (F(b, seg.det * table.scale * table.den * table.dens[j]),
                                F(a, seg.det * table.scale * table.den * table.dens[j]))
                            for j, (a, b) in seg.lines.items() if j not in support}
                # P(t) = l0 - t*f - sum (x0_i + t*x1_i) C_i = p0 - t*p1
                p0, p1 = l0, f_vec
                for i, (x0, x1) in xs.items():
                    p0 = vsub(p0, vscale(x0, gens[i]))
                    p1 = vadd(p1, vscale(x1, gens[i]))
                dot = model.intersect
                assert seg.quad == QuadraticPoly(dot(p1, p1), -2 * dot(p0, p1),
                                                 dot(p0, p0)), model.name
                for i in support:
                    assert dot(p0, gens[i]) == 0 and dot(p1, gens[i]) == 0
                assert sorted(pairings) == [j for j in range(len(gens))
                                            if j not in support]
                for j, pair in pairings.items():
                    assert pair == (dot(p1, gens[j]), dot(p0, gens[j])), (model.name, j)
                # every event is a line reaching zero after the segment start
                for k, (a, b) in seg.events.items():
                    assert seg.lines[k] == (a, b) and b > 0 and F(a, b) > seg.t_cur
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
        out = io.StringIO()
        assert cli.run(["sfun", "--chart", "case2p", "--a", "1", "--b", "1"], out=out) == 0
        rep = json.loads(out.getvalue())
        assert rep["match"] is False
        assert rep["engine"] == "9/4"
        assert rep["closed_form"] == "-9/8+9/4*sqrt(2)"

    def test_spec_values(self):
        assert s_closed_form_coefficient(ChartCase("f1", "case2-yv", 2, 1)) \
            == SurdSum.rational(F(41, 12))
        assert s_closed_form_coefficient(ChartCase("f1", "case1-010", 1, 1)) \
            == SurdSum.rational(F(23, 12))
        assert s_closed_form_coefficient(ChartCase("blp114", "case3p", 1, 4)) \
            == SurdSum.rational(F(91, 24))
        assert s_closed_form_coefficient(ChartCase("blp114", "case2p", 1, 3)) \
            == SurdSum.rational(F(79, 24))
        assert s_engine_coefficient(ChartCase("blp114", "case1p", 1, 1)) \
            == SurdSum.rational(F(189, 48))
        assert s_engine_coefficient(ChartCase("f1", "case2-yv", 2, 1)) \
            * (1 - 2 * F(5, 58)) \
            == SurdSum.rational(F(82, 29))

    def test_s_at_half_vanishes(self):
        for chart in [ChartCase("f1", "case2-zu", 3, 2),
                      ChartCase("blp114", "case3p", 2, 7)]:
            model = builtin_surface(chart.family.model_kind, chart.a, chart.b)
            assert volume_profile(model).s_at(F(1, 2)) == 0
            assert (s_closed_form_coefficient(chart) * (1 - 2 * F(1, 2))).is_zero()


class TestHomogeneityAndContinuity:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_closed_form_homogeneity(self, k):
        for tag in CHART_FAMILIES:
            for a, b in [(1, 1), (2, 1), (1, 3), (1, 4), (3, 2), (1, 5)]:
                base = _scaled_closed_coefficient(tag, a, b)
                surface = CHART_FAMILIES[tag].surface
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
        # assert it numerically at non-coprime weights
        for tag in CHART_FAMILIES:
            for a, b in [(1, 2), (2, 1), (1, 5)]:
                base = reference_raw(tag, a, b)
                for k in (2, 3, 5):
                    assert reference_raw(tag, k * a, k * b) == k * base


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


class TestProfileJson:
    def test_shape(self):
        prof = fixed_divisor_profile("f1", "E")
        data = prof.to_json(F(0))
        assert data["tau"] == "2"
        assert data["raw_integral"] == "28/3"
        assert data["s_at_c"] == "7/6"
        assert data["segments"][0] == {"from": "0", "to": "2",
                                       "poly": ["-1", "-2", "8"]}


# SHA-256 over the JSON of every builtin profile, recorded before the sweep
# moved to integer arithmetic
BUILTIN_PROFILES_SHA256 = "e59c999dc2c0638b4dc79388cc9367d5af858e8651c11d447b7d592e87993d86"


def test_builtin_profile_digest():
    """Every builtin profile, byte for byte: the 5 chart kinds at every
    coprime a + b <= 30, the default profiles of the fixed models, and every
    toric-divisor profile on f1 and blp114."""
    profiles = [volume_profile(builtin_surface(kind, a, s - a))
                for kind in CHART_KINDS
                for s in range(2, 31) for a in range(1, s) if gcd(a, s - a) == 1]
    profiles += [volume_profile(builtin_surface(ident)) for ident in FIXED_MODELS
                 if builtin_surface(ident).exceptional is not None]
    for surface in ("f1", "blp114"):
        model = builtin_surface(surface)
        profiles += [volume_profile(model, f=model.cone_class(d)) for d in DIVISORS]
    assert len(profiles) == 1395
    digest = hashlib.sha256()
    for prof in profiles:
        digest.update(json.dumps(prof.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == BUILTIN_PROFILES_SHA256


def test_zariski_fallback_rebuilds_the_same_profile(monkeypatch):
    """With every segment check failing, each support after an event comes
    from an honest Zariski decomposition at the sample point, and the
    profiles are unchanged."""
    cases = [(builtin_surface(kind, a, b), None) for kind in CHART_KINDS
             for a, b in [(1, 1), (2, 1), (1, 2), (3, 5), (7, 2), (1, 9), (11, 4)]]
    for surface in ("f1", "blp114"):
        model = builtin_surface(surface)
        cases += [(model, model.cone_class(d)) for d in DIVISORS]
    want = [volume_profile(m, f=f).to_json() for m, f in cases]
    samples = []

    def failing(seg, sample):
        samples.append(F(*sample))
        assert seg.t_cur < samples[-1]
        return False

    monkeypatch.setattr(volume, "_segment_valid", failing)
    assert [volume_profile(m, f=f).to_json() for m, f in cases] == want
    assert len(samples) > len(cases)


@pytest.mark.parametrize("divisor,tau,raw", [
    ("F1", "4/3", "64/9"),
    ("F2", "20/3", "176/9"),
    ("E1", "6", "88/5"),
    ("E2", "6", "88/5"),
])
def test_index3m_divisor_profiles(divisor, tau, raw):
    """The index3m toric profiles, values checked against zariski_decompose;
    each needs a generator in the support from t = 0+."""
    data = volume_profile(builtin_surface("index3m"), f=divisor).to_json()
    assert (data["tau"], data["raw_integral"]) == (tau, raw)


def test_irrational_volume_root_is_a_check_failure(monkeypatch, capsys):
    """A profile that would end at a surd contradicts the rational Zariski
    chambers, so the sweep raises instead of integrating to it."""
    original = volume._segment

    def surd_root(sweep, support, t_cur):
        seg = original(sweep, support, t_cur)
        return seg._replace(events={}, vol_root=SurdSum.sqrt(2) + t_cur)

    monkeypatch.setattr(volume, "_segment", surd_root)
    with pytest.raises(ArithmeticError, match="irrational volume root"):
        volume_profile(builtin_surface("index3m"))
    out = io.StringIO()
    assert cli.run(["profile", "--surface", "index3m"], out=out) == 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err.startswith("check failed: index3m: irrational volume root")


def _every_cone_generator_profile():
    models = [builtin_surface(ident) for ident in FIXED_MODELS]
    models += [builtin_surface(kind, a, s - a) for kind in CHART_KINDS
               for s in range(2, 13) for a in range(1, s) if gcd(a, s - a) == 1]
    for model in models:
        for name, f in model.cone:
            yield model, f, volume_profile(model, f=name)


def test_every_cone_generator_profile_matches_zariski():
    """The sweep against honest Zariski decompositions, with f every cone
    generator of the fixed models and of the chart models with a + b <= 12:
    each segment is vol(l0 - t*f) at three interior points, the volume
    vanishes at tau, and l0 - (tau + 1/1000)*f is not pseudo-effective."""
    count = 0
    for model, f, prof in _every_cone_generator_profile():
        count += 1
        l0, bps = model.anticanonical, prof.profile.breakpoints
        assert all(type(b) is F for b in bps), (model.name, prof.f_name)
        for a, b, seg in zip(bps, bps[1:], prof.profile.segments):
            for k in (1, 2, 3):
                t = a + (b - a) * k / 4
                z = model.zariski_decompose(vsub(l0, vscale(t, f)))
                assert seg(t) == model.self_intersection(z.positive), \
                    (model.name, prof.f_name, t)
        assert prof.profile.segments[-1](prof.tau) == 0
        with pytest.raises(NotPseudoEffectiveError):
            model.zariski_decompose(vsub(l0, vscale(prof.tau + F(1, 1000), f)))
    assert count == 866
