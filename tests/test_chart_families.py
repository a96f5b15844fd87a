"""The chart-family table against the hand-written tables it replaced.

Each weighted-blowup family is named by the two invariant divisors (D1, D2)
through its center; local exponents, the realizing 1-PS, the 1-PS -> chart
map and the verifier's S-slopes are derived from that pair, and the monomial
ranges from the plane table.  The per-family tables and the case analyses
below are the independent oracles for those derivations.
"""

import itertools
from fractions import Fraction as F
from math import gcd

import pytest

from kwall.pairs import (
    CHART_FAMILIES,
    PLANES,
    ChartCase,
    DegenerateWeightError,
    admissible_monomials,
    chart_to_onePS,
    local_points,
    make_curve,
    onePS_to_chart,
    quarter_point_order,
    toric_multiplicities,
)
from kwall.stability import (
    _candidate_supports,
    audit_extra_walls,
    confirm_wall,
    enumerate_walls,
)
from kwall.volume import fixed_divisor_s, s_engine_coefficient

# (y-exp, z-exp) -> exponents in the chart's two local coordinates
LOCAL_MAPS = {
    "case2-yv": lambda i, j: (i + j - 2, j),
    "case2-zu": lambda i, j: (i + j - 2, i),
    "case1-010": lambda i, j: (6 - i - j, j),
    "case1-001": lambda i, j: (6 - i - j, i),
    "case1p": lambda i, j: (i + j - 2, i),
    "case2p": lambda i, j: (i + j - 2, j),
    "case3p": lambda i, j: (12 - i - 4 * j, j),
}


def weight_for_chart(chart: ChartCase):
    a, b = chart.a, chart.b
    return {
        "case2-yv": (0, a, a + b),
        "case2-zu": (0, a + b, a),
        "case1-010": (a, 0, b),
        "case1-001": (a, b, 0),
        "case3p": (a, 0, b),
        "case2p": (-a, 0, b - 3 * a),
        "case1p": (-(a + b), 0, -(3 * a + 4 * b)),
    }[chart.tag]


# (alpha, beta) with S0(1, r) = alpha + beta*r on each family
S_AFFINE = {
    "case1-010": (F(20, 24), F(26, 24)),
    "case1-001": (F(20, 24), F(26, 24)),
    "case2-zu": (F(28, 24), F(26, 24)),
    "case2-yv": (F(28, 24), F(26, 24)),
    "case1p": (F(83, 48), F(106, 48)),
    "case2p": (F(83, 48), F(25, 48)),
    "case3p": (F(82, 48), F(25, 48)),
}

COPRIME_30 = [(a, b) for a in range(1, 30) for b in range(1, 31 - a) if gcd(a, b) == 1]


def charts_30():
    for tag, fam in CHART_FAMILIES.items():
        for a, b in COPRIME_30:
            yield ChartCase(fam.surface, tag, a, b)


def test_tag_order():
    # the first-candidate-wins dedup of the wall enumeration depends on it
    assert PLANES["f1"].chart_tags == ("case1-010", "case1-001", "case2-zu", "case2-yv")
    assert PLANES["blp114"].chart_tags == ("case1p", "case2p", "case3p")


@pytest.mark.parametrize("tag", sorted(CHART_FAMILIES))
def test_local_exponents_match_oracle(tag):
    surface = CHART_FAMILIES[tag].surface
    monos = admissible_monomials(surface)
    for p in monos:
        assert local_points(make_curve(surface, [p]), tag) == (LOCAL_MAPS[tag](*p),)
    curve = make_curve(surface, monos)
    expected = tuple(dict.fromkeys(LOCAL_MAPS[tag](m.i, m.j) for m in curve.monomials))
    assert local_points(curve, tag) == expected


@pytest.mark.parametrize("surface", ["f1", "blp114"])
def test_toric_multiplicities_are_minimal_orders(surface):
    monos = admissible_monomials(surface)
    for k in range(len(monos) - 1):
        curve = make_curve(surface, monos[k:k + 3])
        xs = [m.x_exp(surface) for m in curve.monomials]
        assert toric_multiplicities(curve) == {
            "H_x": min(xs),
            "H_y": min(m.i for m in curve.monomials),
            "H_z": min(m.j for m in curve.monomials),
            "E": min(m.i + m.j for m in curve.monomials) - 2,
        }


def test_onePS_matches_oracle_and_inverts():
    for chart in charts_30():
        lam = chart_to_onePS(chart)
        assert lam == weight_for_chart(chart)
        assert onePS_to_chart(lam, chart.surface) == chart


@pytest.mark.parametrize("tag", sorted(CHART_FAMILIES))
def test_slopes_are_fixed_divisor_s(tag):
    fam = CHART_FAMILIES[tag]
    fixed = fixed_divisor_s(fam.surface)
    assert tuple(fixed[d] for d in fam.divisors) == S_AFFINE[tag]


def test_engine_s_is_linear_in_the_divisor_pair():
    # S0(a, b) = a*S0(D1) + b*S0(D2) on every chart with coprime a + b <= 30
    fixed = {s: fixed_divisor_s(s) for s in ("f1", "blp114")}
    for chart in charts_30():
        d1, d2 = chart.family.divisors
        s0 = fixed[chart.surface]
        assert s_engine_coefficient(chart) == chart.a * s0[d1] + chart.b * s0[d2]


@pytest.mark.parametrize("surface, tag", [("blp114", "case1-010"), ("f1", "case3p"),
                                          ("f1", "nope"), ("p2", "case1p")])
def test_chart_rejects_tag_off_its_surface(surface, tag):
    with pytest.raises(ValueError, match="not valid on"):
        ChartCase(surface, tag, 1, 1)


@pytest.mark.parametrize("a, b, message", [(0, 1, "positive"), (1, -2, "positive"),
                                           (2, 4, "coprime"), (3, 3, "coprime")])
def test_chart_rejects_bad_weights(a, b, message):
    with pytest.raises(ValueError, match=message):
        ChartCase("f1", "case2-yv", a, b)


@pytest.mark.parametrize("surface", ["f1", "blp114"])
def test_audit_extra_confirms_only_new_walls(surface, monkeypatch):
    import kwall.stability as st

    published = enumerate_walls(surface)
    walls = {r.candidate.w for r in published if r.confirmed}
    expected = [r for r in enumerate_walls(surface, source="engine")
                if r.confirmed and r.candidate.w not in walls]
    confirmed = []
    monkeypatch.setattr(st, "confirm_wall",
                        lambda cand: confirmed.append(cand) or confirm_wall(cand))
    assert audit_extra_walls(surface, published) == expected
    assert confirmed and all(cand.w not in walls for cand in confirmed)


def _hand_chart(surface, tag, a, b):
    if a <= 0 or b <= 0:
        raise DegenerateWeightError(f"induced weights ({a},{b}) are degenerate")
    g = gcd(a, b)
    return ChartCase(surface, tag, a // g, b // g)


def hand_onePS_to_chart(lam, surface):
    """The case analysis the fan lookup replaced."""
    l1, l2, l3 = lam
    if surface == "f1":
        if l1 == l2 == l3:
            raise DegenerateWeightError("trivial 1-PS")
        m = min(lam)
        mins = [k for k, v in enumerate(lam) if v == m]
        if len(mins) > 1:
            raise DegenerateWeightError(f"repeated minimal weight in {lam}")
        if mins[0] == 0:
            if l2 == l3:
                raise DegenerateWeightError(f"weights {lam} fix the exceptional direction")
            if l2 > l3:
                return _hand_chart("f1", "case2-zu", l3 - l1, l2 - l3)
            return _hand_chart("f1", "case2-yv", l2 - l1, l3 - l2)
        if mins[0] == 1:
            return _hand_chart("f1", "case1-010", l1 - l2, l3 - l2)
        return _hand_chart("f1", "case1-001", l1 - l3, l2 - l3)
    # weights are defined up to adding (k, k, 4k); normalize l2 = 0
    p = l1 - l2
    q = l3 - 4 * l2
    if p == 0 and q == 0:
        raise DegenerateWeightError("trivial 1-PS")
    if p > 0 and q > 0:
        return _hand_chart("blp114", "case3p", p, q)
    if p > 0:  # q <= 0: flip the action, landing in the (y,v) chart
        return _hand_chart("blp114", "case2p", p, 3 * p - q)
    if p < 0:
        if q > 3 * p:
            return _hand_chart("blp114", "case2p", -p, q - 3 * p)
        if q == 3 * p:
            raise DegenerateWeightError(f"weights {lam} degenerate on the chart")
        if q > 4 * p:
            return _hand_chart("blp114", "case1p", q - 4 * p, 3 * p - q)
        return _hand_chart("blp114", "case3p", -p, -q)
    raise DegenerateWeightError(f"weights {lam} fix the chart coordinate")


def _chart_or_degenerate(chart_map, lam, surface):
    try:
        return chart_map(lam, surface)
    except DegenerateWeightError:
        return None


@pytest.mark.parametrize("surface", ["f1", "blp114"])
def test_fan_lookup_matches_case_analysis(surface):
    # the same (tag, a, b), or both degenerate, on every weight in [-15, 15]^3
    box = range(-15, 16)
    for lam in itertools.product(box, box, box):
        assert _chart_or_degenerate(onePS_to_chart, lam, surface) \
            == _chart_or_degenerate(hand_onePS_to_chart, lam, surface), lam


@pytest.mark.parametrize("surface, lam, message", [
    ("f1", (0, 0, 0), "trivial 1-PS"),
    ("f1", (3, 3, 3), "trivial 1-PS"),
    ("blp114", (2, 2, 8), "trivial 1-PS"),
    ("f1", (1, 0, 0), "ray of H_x"),
    ("f1", (0, 1, 0), "ray of H_y"),
    ("f1", (2, 2, 3), "ray of H_z"),
    ("f1", (0, 1, 1), "ray of E"),
    ("blp114", (0, 0, 1), "ray of H_z"),
    ("blp114", (0, 0, -4), "ray of H_z"),  # -lam at the quarter point
    ("blp114", (-1, 0, -3), "ray of E"),
])
def test_degenerate_weights_name_their_ray(surface, lam, message):
    with pytest.raises(DegenerateWeightError, match=message):
        onePS_to_chart(lam, surface)


def hand_admissible_monomials(surface):
    """The loop ranges the plane table replaced."""
    out = []
    if surface == "f1":
        for i in range(7):
            for j in range(7 - i):
                if i + j >= 2:
                    out.append((i, j))
    else:
        for j in range(4):
            for i in range(13 - 4 * j):
                if i + j >= 2:
                    out.append((i, j))
    return out


@pytest.mark.parametrize("surface", ["f1", "blp114"])
def test_admissible_monomials_match_ranges(surface):
    derived = admissible_monomials(surface)
    assert len(derived) == len(set(derived))
    assert set(derived) == set(hand_admissible_monomials(surface))


@pytest.mark.parametrize("surface", ["f1", "blp114"])
def test_quarter_point_order_matches_z3_tests(surface):
    monos = admissible_monomials(surface)
    supports = [[p] for p in monos] + [[p, q] for k, p in enumerate(monos)
                                       for q in monos[k + 1:]]
    supports += [list(s[-1]) for s in _candidate_supports(surface)] + [monos]
    for support in supports:
        order = quarter_point_order(surface, support)
        # _validated: the pair is destabilized at the quarter point
        warned = bool(make_curve(surface, support).warnings)
        assert warned == (surface == "blp114" and (0, 3) not in support)
        assert (order > 0) == warned
        # _candidate_supports: the support keeps z^3 on blp114
        assert (order == 0) == (surface == "f1" or (0, 3) in support)
        # quotient_point_certificate: ord_F(C) = 3 - max z-exponent
        if surface == "blp114":
            assert order == 3 - max(j for _, j in support)
