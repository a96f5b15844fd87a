"""The chart-family table against the hand-written tables it replaced.

Each weighted-blowup family is named by the two invariant divisors (D1, D2)
through its center; local exponents, the realizing 1-PS and the verifier's
S-slopes are derived from that pair.  The per-family tables below are the
independent oracles for those derivations.
"""

from fractions import Fraction as F
from math import gcd

import pytest

from kwall.pairs import (
    chart_to_onePS,
    local_points,
    make_curve,
    onePS_to_chart,
    toric_multiplicities,
)
from kwall.stability import (
    admissible_monomials,
    audit_extra_walls,
    confirm_wall,
    enumerate_walls,
)
from kwall.volume import (
    BLP114_CHART_TAGS,
    CHART_FAMILIES,
    ChartCase,
    F1_CHART_TAGS,
    fixed_divisor_s,
    s_engine_coefficient,
)

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
    assert F1_CHART_TAGS == ("case1-010", "case1-001", "case2-zu", "case2-yv")
    assert BLP114_CHART_TAGS == ("case1p", "case2p", "case3p")


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
