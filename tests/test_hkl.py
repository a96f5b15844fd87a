import json
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd, isqrt
from typing import Union

import pytest

from kwall.atlas import atlas_from_json, bundled_atlas, diff_atlas
from kwall.hkl import (
    CONE_FAMILY_BLP114,
    CONE_FAMILY_F1,
    POLE,
    audit_dim_formula,
    cone_report,
    cone_threshold,
    hkl_param,
    map_walls,
)


def hkl_param_inverse(s: Union[F, int, str]) -> F:
    """c(s) = (4s+1)/(56s+2), the exact inverse of hkl_param."""
    s = F(s)
    return (4 * s + 1) / (56 * s + 2)


# arithmetic sanity checkers of the lattice side: the Noether budget and the
# local Cartier index bound


@dataclass(frozen=True)
class TSingularity:
    """ADE or cyclic quotient type admitting a one-parameter smoothing."""

    kind: str  # "A" | "D" | "E" | "cyclic"
    n: int
    l: int = 0
    a: int = 0

    def __post_init__(self):
        if self.kind in ("A", "D", "E"):
            if self.n < 1:
                raise ValueError("rank must be positive")
        elif self.kind == "cyclic":
            if self.l < 1 or self.n < 1 or gcd(self.a, self.n) != 1:
                raise ValueError("cyclic type needs l,n >= 1 and gcd(a, n) = 1")
        else:
            raise ValueError(f"unknown singularity kind {self.kind!r}")

    @property
    def milnor(self) -> int:
        if self.kind == "cyclic":
            return self.l - 1
        return self.n


def noether_budget(k2: Union[F, int], rho: int,
                   sings: tuple[TSingularity, ...] = ()) -> F:
    """10 - (K^2 + rho + sum of Milnor numbers); zero means consistent."""
    total = F(k2) + rho + sum(s.milnor for s in sings)
    return F(10) - total


def cartier_index_max(d: Union[F, int], c: Union[F, str], ord_mult: int) -> int:
    """Largest n with (4d/9)(1-2c)^2 <= (2 - c*ord)^2 / n^2, exactly."""
    d = F(d)
    c = F(c)
    if d <= 0:
        raise ValueError("degree must be positive")
    if not 0 <= c < F(1, 2):
        raise ValueError("coefficient must lie in [0, 1/2)")
    if ord_mult < 0:
        raise ValueError("multiplicity must be nonnegative")
    skoda = 2 - c * ord_mult
    if skoda <= 0:
        raise ValueError("positivity bound violated: 2 - c*ord <= 0")
    bound = 9 * skoda**2 / (4 * d * (1 - 2 * c) ** 2)
    # largest n with n^2 <= bound
    return isqrt(bound.numerator // bound.denominator)

W_H = [F(1, 14), F(5, 58), F(1, 10), F(7, 62), F(1, 8), F(5, 34),
       F(1, 6), F(7, 38), F(1, 5), F(5, 22), F(2, 7)]
W_U = [F(29, 106), F(31, 110), F(2, 7), F(35, 118)]


class TestParamTransform:
    def test_values(self):
        assert hkl_param(F(5, 58)) == 1
        assert hkl_param(F(2, 7)) == F(1, 28)
        assert hkl_param(F(1, 14)) == POLE
        assert hkl_param(F(29, 106)) == F(1, 25)

    def test_wall_images(self):
        images = [hkl_param(w) for w in W_H[1:]]
        assert images == [F(1, 1), F(1, 2), F(1, 3), F(1, 4), F(1, 6),
                          F(1, 8), F(1, 10), F(1, 12), F(1, 16), F(1, 28)]
        assert [hkl_param(w) for w in W_U] == \
            [F(1, 25), F(1, 27), F(1, 28), F(1, 31)]

    def test_inverse_on_samples(self):
        for k in range(1, 101):
            c = F(1, 14) + k * (F(1, 2) - F(1, 14)) / 102
            s = hkl_param(c)
            assert hkl_param_inverse(s) == c

    def test_strictly_decreasing(self):
        samples = [F(1, 14) + k * F(3, 700) for k in range(1, 100)]
        values = [hkl_param(c) for c in samples]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)

    def test_map_walls_report(self):
        rep = map_walls()
        assert rep["match"] is True
        assert rep["pole"] == "1/14"
        assert rep["hyperelliptic_images"] == [
            "1", "1/2", "1/3", "1/4", "1/6", "1/8", "1/10", "1/12", "1/16", "1/28"]
        assert rep["unigonal_images"] == ["1/25", "1/27", "1/28", "1/31"]
        # 1/28 is hit from both surfaces
        all_images = rep["hyperelliptic_images"] + rep["unigonal_images"]
        assert all_images.count("1/28") == 2

    def test_map_walls_detects_drift(self):
        data = bundled_atlas().to_json()
        data["branches"][1]["wall"] = "1/11"
        rep = map_walls(atlas_from_json(data))
        assert rep["match"] is False and rep["diffs"]


class TestConeTransform:
    def test_values(self):
        assert cone_threshold(F(1, 14)) == F(3, 7)
        assert cone_threshold(F(29, 106)) == F(37, 53)
        assert cone_threshold(F(2, 7)) == F(5, 7)

    def test_affine_increasing_image(self):
        assert cone_threshold(0) == F(1, 3)
        assert cone_threshold(F(1, 2)) == 1
        samples = [F(k, 100) for k in range(1, 50)]
        values = [cone_threshold(c) for c in samples]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(F(1, 3) < v < 1 for v in values)

    def test_families(self):
        assert [cone_threshold(w) for w in W_H[:5]] == list(CONE_FAMILY_F1[:5])
        assert [cone_threshold(w) for w in W_H[5:10]] == list(CONE_FAMILY_F1[5:])
        assert [cone_threshold(w) for w in W_U] == list(CONE_FAMILY_BLP114)

    def test_report_annotates_unlisted(self):
        rep = cone_report()
        assert rep["match"] is True and not rep["missing"]
        unlisted = [r for r in rep["rows"] if not r["listed"]]
        assert len(unlisted) == 1
        assert unlisted[0]["wall"] == "2/7" and unlisted[0]["surface"] == "f1"
        assert unlisted[0]["image"] == "5/7"
        # 5/7 is nevertheless covered by the second-surface family
        assert F(5, 7) in CONE_FAMILY_BLP114


class TestBudgetAndIndex:
    def test_noether_examples(self):
        assert noether_budget(8, 2) == 0
        assert noether_budget(8, 2, (TSingularity("cyclic", n=2, l=1, a=1),)) == 0
        assert noether_budget(8, 2, (TSingularity("cyclic", n=3, l=1, a=1),)) == 0
        assert noether_budget(1, 9) == 0
        assert noether_budget(8, 2, (TSingularity("A", 1),)) == -1

    def test_milnor_numbers(self):
        assert TSingularity("A", 5).milnor == 5
        assert TSingularity("E", 8).milnor == 8
        assert TSingularity("cyclic", n=3, l=4, a=1).milnor == 3
        with pytest.raises(ValueError):
            TSingularity("cyclic", n=4, l=1, a=2)
        with pytest.raises(ValueError):
            TSingularity("B", 2)

    def test_cartier_bound(self):
        for c in (F(1, 10), F(1, 5), F(2, 7), F(9, 20)):
            assert cartier_index_max(8, c, 4) == 1
        assert cartier_index_max(8, 0, 0) == 1
        assert cartier_index_max(1, 0, 0) == 3
        assert cartier_index_max(F(8, 9), 0, 0) == 3
        with pytest.raises(ValueError):
            cartier_index_max(8, F(2, 5), 5)  # positivity bound fails
        with pytest.raises(ValueError):
            cartier_index_max(0, 0, 0)


class TestDimensionAudit:
    def test_verified_subset_zero(self):
        rep = audit_dim_formula()
        assert rep["verified_ok"] is True

    def test_known_anomalies_reported(self):
        rep = audit_dim_formula()
        assert rep["anomalies"] == [
            "f1 5/22 NL(D9'): residual 1",
            "blp114 35/118 NL(U4''): residual -1",
        ]

    def test_specific_residuals(self):
        rep = audit_dim_formula()
        by_branch = {(r["surface"], r["wall"], r["branch"]): r for r in rep["rows"]}
        assert by_branch[("f1", "7/62", "NL(A4)")]["residual"] == 0
        assert by_branch[("f1", "1/10", "NL(A3)")]["residual"] == 0
        assert by_branch[("f1", "1/10", "NL(A3)")]["dim_center"] == 1
        assert by_branch[("f1", "5/22", "NL(D9')")]["residual"] == 1
        assert by_branch[("f1", "1/14", "A1")]["residual"] is None

    def test_divisorial_rows_consistent(self):
        rep = audit_dim_formula()
        by_branch = {(r["surface"], r["wall"], r["branch"]): r for r in rep["rows"]}
        assert by_branch[("f1", "5/58", "NL(A2)")]["residual"] == 0
        assert by_branch[("blp114", "29/106", "NL(U1)")]["residual"] == 0


class TestAtlas:
    def test_walls_match_enumeration(self):
        from kwall.stability import enumerate_walls
        atlas = bundled_atlas()
        for surface in ("f1", "blp114"):
            records = enumerate_walls(surface)
            assert atlas.walls(surface) == sorted({r.candidate.w for r in records
                                                   if r.confirmed})

    def test_json_round_trip(self):
        atlas = bundled_atlas()
        restored = atlas_from_json(json.loads(atlas.dumps()))
        assert diff_atlas(atlas, restored) == []
        assert restored.to_json() == atlas.to_json()

    def test_diff_detects_changes(self):
        data = json.loads(bundled_atlas().dumps())
        data["branches"][0]["singularity"] = "A2"
        assert diff_atlas(bundled_atlas(), atlas_from_json(data))
