import itertools
import random
import zlib
from fractions import Fraction as F

import pytest

from kwall.surface import (
    NotPseudoEffectiveError,
    SurfaceModel,
    builtin_ids,
    builtin_surface,
    vadd,
    vec,
    vscale,
)

ALL_FIXED = ["f1", "blp114", "index3m", "blp114-quotient-res"]
CHART_SAMPLES = [("f1-case1", 2, 1), ("f1-case1", 1, 3), ("f1-case2", 2, 1),
                 ("f1-case2", 1, 4), ("blp114-case1p", 1, 2),
                 ("blp114-case2p", 1, 1), ("blp114-case2p", 1, 4),
                 ("blp114-case3p", 1, 3), ("blp114-case3p", 2, 7),
                 ("blp114-case3p", 1, 5)]


def all_models():
    models = [builtin_surface(i) for i in ALL_FIXED]
    models += [builtin_surface(k, a, b) for k, a, b in CHART_SAMPLES]
    return models


class TestBuiltins:
    def test_f1_lattice(self):
        m = builtin_surface("f1")
        hz, e = m.classes["H_z"], m.classes["E"]
        assert m.intersect(hz, hz) == 0
        assert m.intersect(hz, e) == 1
        assert m.intersect(e, e) == -1
        assert m.anticanonical == vadd(vscale(3, hz), vscale(2, e))
        assert m.self_intersection(m.anticanonical) == 8
        assert m.degree == 8

    def test_blp114_lattice(self):
        m = builtin_surface("blp114")
        hy, e = m.classes["H_y"], m.classes["E"]
        assert m.intersect(hy, hy) == F(-3, 4)
        assert m.intersect(hy, e) == 1
        assert m.intersect(e, e) == -1
        assert m.anticanonical == vadd(vscale(6, hy), vscale(5, e))
        assert m.self_intersection(m.anticanonical) == 8
        # expand (6H_y+5E)^2 = 36(-3/4) + 60 - 25 = 8
        assert 36 * F(-3, 4) + 60 - 25 == 8

    def test_index3m_lattice(self):
        m = builtin_surface("index3m")
        g = m.gram
        assert g[0][0] == -5 and g[0][1] == 1 and g[1][1] == -2
        assert g[2][2] == -1 and g[3][3] == -1
        assert m.self_intersection(m.anticanonical) == 8

    def test_chart_gram_matches_spec(self):
        a, b = 3, 2
        m = builtin_surface("f1-case2", a, b)
        assert m.gram[0][0] == F(-1, a * b)
        assert m.gram[0][1] == F(1, b)
        assert m.gram[0][2] == F(1, a)
        assert m.gram[1][1] == -1 - F(a, b)
        assert m.gram[2][2] == F(-b, a)
        m1 = builtin_surface("blp114-case1p", a, b)
        assert m1.gram[2][2] == F(-3, 4) - F(b, a)

    def test_all_models_have_degree_8(self):
        for m in all_models():
            assert m.self_intersection(m.anticanonical) == m.degree == 8
            assert m.is_nef(m.anticanonical)

    def test_gram_symmetric(self):
        for m in all_models():
            n = m.rank()
            for i in range(n):
                for j in range(n):
                    assert m.gram[i][j] == m.gram[j][i]

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            builtin_surface("f1-case2", 0, 1)
        with pytest.raises(ValueError):
            builtin_surface("f1-case2", 2, 4)
        with pytest.raises(ValueError):
            builtin_surface("f1-case2")
        with pytest.raises(ValueError):
            builtin_surface("f1", 1, 1)
        with pytest.raises(ValueError):
            builtin_surface("nope")

    def test_builtin_ids_listing(self):
        ids = builtin_ids()
        assert "f1" in ids and "blp114-case3p" in ids

    def test_to_json_shape(self):
        data = builtin_surface("blp114").to_json()
        assert data["degree"] == "8"
        assert data["gram"][0][0] == "-3/4"
        assert [g["name"] for g in data["cone_generators"]] == ["H_y", "E"]


class TestIntersect:
    def test_bilinearity_zero(self):
        m = builtin_surface("f1")
        zero = vec(0, 0)
        assert m.intersect(m.anticanonical, zero) == 0

    def test_dimension_mismatch(self):
        m = builtin_surface("f1")
        with pytest.raises(ValueError):
            m.intersect(vec(1, 0, 0), vec(1, 0))
        with pytest.raises(ValueError):
            m.intersect(vec(1, 0), vec(1, 0, 0))
        with pytest.raises(ValueError):
            builtin_surface("index3m").intersect(vec(1, 0), vec(1, 0))

    @pytest.mark.parametrize("ident,a,b", [(i, None, None) for i in ALL_FIXED] + [
        (kind, a, b) for kind in ("f1-case1", "f1-case2", "blp114-case1p",
                                  "blp114-case2p", "blp114-case3p")
        for a, b in ((1, 1), (2, 3), (5, 2), (3, 7))])
    def test_matches_naive_double_sum(self, ident, a, b):
        m = builtin_surface(ident, a, b)
        rng = random.Random(zlib.crc32(f"{ident}-{a}-{b}".encode()))
        n = m.rank()

        def entry():
            kind = rng.randrange(4)
            if kind == 0:
                return 0
            if kind == 1:
                return rng.randint(-9, 9)  # a plain int entry
            return F(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 7, 9, 12, 35)))

        for _ in range(200):
            d1 = tuple(entry() for _ in range(n))
            d2 = tuple(entry() for _ in range(n))
            naive = sum((F(d1[i]) * m.gram[i][j] * F(d2[j])
                         for i in range(n) for j in range(n)), F(0))
            got = m.intersect(d1, d2)
            assert type(got) is F
            assert got == naive
            assert m.intersect(d2, d1) == naive


class TestNefPseudoeffective:
    def test_f1_examples(self):
        m = builtin_surface("f1")
        assert m.is_nef(vec(1, 0))  # the pullback line class
        assert m.is_nef(m.classes["H_z"])  # the fiber
        assert not m.is_pseudoeffective(vec(-1, 0))
        e = m.classes["E"]
        assert not m.is_nef(e) and m.is_pseudoeffective(e)

    def test_pseudoeffective_cone_membership(self):
        m = builtin_surface("blp114-case3p", 1, 3)
        for _, c in m.cone:
            assert m.is_pseudoeffective(c)
        assert m.is_pseudoeffective(m.anticanonical)


class TestZariski:
    def test_nef_input_fixed(self):
        m = builtin_surface("f1")
        d = vadd(vscale(3, m.classes["H_z"]), m.classes["E"])
        z = m.zariski_decompose(d)
        assert z.positive == d and z.negative_support == ()

    def test_fiber_plus_double_exceptional(self):
        m = builtin_surface("f1")
        d = vadd(m.classes["H_z"], vscale(2, m.classes["E"]))
        z = m.zariski_decompose(d)
        assert z.positive == vec(1, 0)
        assert z.negative_support == (("E", F(1)),)

    def test_blp114_profile_point(self):
        m = builtin_surface("blp114")
        d = vec(6, 2)  # 6H_y + (5-3)E
        z = m.zariski_decompose(d)
        assert z.positive == vec(F(8, 3), 2)
        assert m.self_intersection(z.positive) == F(4, 3)

    def test_not_pseudoeffective_names_separator(self):
        m = builtin_surface("f1")
        with pytest.raises(NotPseudoEffectiveError) as err:
            m.zariski_decompose(vec(-1, 0))
        assert err.value.separating is not None
        name, w = err.value.separating
        assert m.is_nef(w)
        assert m.intersect(w, vec(-1, 0)) < 0

    def _random_psef(self, m, rng):
        return tuple(
            sum(vscale(F(rng.randint(0, 8), rng.randint(1, 4)), c)[i]
                for _, c in m.cone)
            for i in range(m.rank()))

    def _oracle_volume(self, m: SurfaceModel, d):
        best = None
        gens = list(m.cone)
        for size in range(0, m.rank() + 1):
            for subset in itertools.combinations(range(len(gens)), size):
                idx = list(subset)
                try:
                    coeffs = m._support_coefficients(d, idx)
                except ArithmeticError:
                    continue
                if any(x < 0 for x in coeffs):
                    continue
                p = d
                for i, x in zip(idx, coeffs):
                    p = tuple(pi - x * ci for pi, ci in zip(p, gens[i][1]))
                if not m.is_nef(p):
                    continue
                v = m.self_intersection(p)
                if best is None or v > best:
                    best = v
        return best

    @pytest.mark.parametrize("ident,a,b", [
        ("f1", None, None), ("blp114", None, None), ("index3m", None, None),
        ("blp114-quotient-res", None, None),
        ("f1-case1", 2, 1), ("f1-case2", 2, 1),
        ("blp114-case2p", 1, 1), ("blp114-case3p", 2, 7)])
    def test_property_suite(self, ident, a, b):
        m = builtin_surface(ident, a, b)
        rng = random.Random(zlib.crc32(ident.encode()))
        gens = list(m.cone)
        n_cases = 1000
        for _ in range(n_cases):
            coeffs = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in gens]
            d = tuple(sum(c * g[1][i] for c, g in zip(coeffs, gens))
                      for i in range(m.rank()))
            z = m.zariski_decompose(d)
            p = z.positive
            assert m.is_nef(p)
            for name, coeff in z.negative_support:
                assert coeff > 0
                assert m.intersect(p, m.cone_class(name)) == 0
            vol = m.self_intersection(p)
            assert vol >= 0
            assert vol == self._oracle_volume(m, d)

    def test_order_independence(self):
        m = builtin_surface("blp114-case3p", 1, 1)
        rng = random.Random(5)
        for _ in range(100):
            coeffs = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in m.cone]
            d = tuple(sum(c * g[1][i] for c, g in zip(coeffs, m.cone))
                      for i in range(m.rank()))
            base = m.zariski_decompose(d)
            for perm in itertools.permutations(range(len(m.cone))):
                shuffled = SurfaceModel(
                    name=m.name, basis=m.basis, gram=m.gram,
                    cone=tuple(m.cone[i] for i in perm),
                    anticanonical=m.anticanonical, degree=m.degree,
                    classes=m.classes, exceptional=m.exceptional)
                z = shuffled.zariski_decompose(d)
                assert z.positive == base.positive
                assert dict(z.negative_support) == dict(base.negative_support)
            if _ > 3:
                break

    def test_volume_monotone(self):
        m = builtin_surface("f1-case2", 2, 1)
        rng = random.Random(11)
        for _ in range(200):
            coeffs = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in m.cone]
            extra = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in m.cone]
            d = tuple(sum(c * g[1][i] for c, g in zip(coeffs, m.cone))
                      for i in range(m.rank()))
            d2 = tuple(di + sum(c * g[1][i] for c, g in zip(extra, m.cone))
                       for i, di in enumerate(d))
            assert m.volume(d2) >= m.volume(d)
