import itertools
import random
import re
import zlib
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from kwall import surface
from kwall.pairs import CHART_FAMILIES
from kwall.surface import (
    DEGREE,
    NotPseudoEffectiveError,
    SurfaceModel,
    ZariskiDecomposition,
    _kernel_vector,
    builtin_surface,
    fmt_vec,
    solve_linear,
    vec,
)
import model_reference
from linalg_reference import fraction_solve, rref

ALL_FIXED = ["f1", "blp114", "index3m", "blp114-quotient-res"]
CHART_SAMPLES = [("f1-case1", 2, 1), ("f1-case1", 1, 3), ("f1-case2", 2, 1),
                 ("f1-case2", 1, 4), ("blp114-case1p", 1, 2),
                 ("blp114-case2p", 1, 1), ("blp114-case2p", 1, 4),
                 ("blp114-case3p", 1, 3), ("blp114-case3p", 2, 7),
                 ("blp114-case3p", 1, 5)]


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(F(c) * a for a in u)


def is_nef(m, d):
    return all(m.intersect(d, c) >= 0 for _, c in m.cone)


def volume(m, d):
    return m.self_intersection(m.zariski_decompose(d).positive)


def form_image(m, d):
    """d's integer image under the model's scaled form, as
    ``zariski_decompose`` hands it to the iteration and the scan."""
    nums = surface._integer_parts(d)[1]
    return [surface._dot(row, nums) for row in m._cone_record.form]


def is_pseudoeffective(m, d):
    """No nef class pairs negatively with d; the separator scan is complete."""
    return m._separating_nef_class(d, form_image(m, d)) is None


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
        assert DEGREE == 8

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

    def test_fan_models_match_the_hand_oracle(self):
        """Every toric builtin model, derived from its plane fan, equals its
        hand entry in ``model_reference`` field for field, with the same
        class order and JSON: the 3 fixed toric models and the 5 chart kinds
        at every coprime a + b <= 30, 1,388 models."""
        assert {*model_reference.FIXED_MODELS, "index3m"} == set(surface.FIXED_MODELS)
        assert sorted(model_reference.WEIGHTED_MODELS) == _weighted_kinds()
        cases = [(builtin_surface(ident), build())
                 for ident, build in model_reference.FIXED_MODELS.items()]
        cases += [(builtin_surface(kind, a, b), build(a, b))
                  for kind, build in model_reference.WEIGHTED_MODELS.items()
                  for a, b in _coprime_weights(30)]
        assert len(cases) == 1388
        for got, want in cases:
            assert got._asdict() == want._asdict(), want.name
            assert list(got.classes) == list(want.classes), want.name
            assert got.to_json() == want.to_json(), want.name
            assert all(type(x) is F for row in (*got.gram, got.anticanonical) for x in row)
            assert got.self_intersection(got.anticanonical) == DEGREE, want.name

    def test_all_models_have_degree_8(self):
        for m in all_models():
            assert m.self_intersection(m.anticanonical) == DEGREE == 8
            assert is_nef(m, m.anticanonical)

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

    def test_vec_gives_equal_fractions(self):
        """Ints inside and outside the shared range, Fractions and strings all
        give equal Fractions; an integer in -64..64 is one shared object."""
        entries = [0, 1, -1, 64, -64, 65, -65, 10**30, F(3), F(-64), F(65), F(1, 2),
                   F(-7, 3), "1/2", "-3", "65"]
        got = vec(*entries)
        assert got == tuple(F(e) for e in entries)
        assert all(type(x) is F for x in got)
        assert vec(5)[0] is vec(F(5))[0] is vec(5, 0)[0]
        assert vec(-64)[0] is vec(-64)[0] and vec(65)[0] is not vec(65)[0]

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
        assert is_nef(m, vec(1, 0))  # the pullback line class
        assert is_nef(m, m.classes["H_z"])  # the fiber
        assert not is_pseudoeffective(m, vec(-1, 0))
        e = m.classes["E"]
        assert not is_nef(m, e) and is_pseudoeffective(m, e)

    def test_pseudoeffective_cone_membership(self):
        m = builtin_surface("blp114-case3p", 1, 3)
        for _, c in m.cone:
            assert is_pseudoeffective(m, c)
        assert is_pseudoeffective(m, m.anticanonical)


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
        assert is_nef(m, w)
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
                block = [[m.intersect(gens[i][1], gens[j][1]) for j in subset]
                         for i in subset]
                coeffs = fraction_solve(block, [m.intersect(d, gens[i][1]) for i in subset])
                if coeffs is None or any(x < 0 for x in coeffs):
                    continue
                p = d
                for i, x in zip(subset, coeffs):
                    p = tuple(pi - x * ci for pi, ci in zip(p, gens[i][1]))
                if not is_nef(m, p):
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
            assert is_nef(m, p)
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
                    anticanonical=m.anticanonical, classes=m.classes,
                    exceptional=m.exceptional)
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
            assert volume(m, d2) >= volume(m, d)


def _det(rows):
    """Determinant by elimination with row swaps (the oracle for Sylvester's rule)."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _integer_scaled(rows):
    """A positive integer multiple of a rational matrix."""
    den = 1
    for row in rows:
        for x in row:
            den = den * F(x).denominator // gcd(den, F(x).denominator)
    return [[int(x * den) for x in row] for row in rows]


def _sylvester_negative_definite(rows):
    """Every leading minor k is nonzero with sign (-1)^k."""
    for k in range(1, len(rows) + 1):
        minor = _det([row[:k] for row in rows[:k]])
        if minor == 0 or (minor > 0) != (k % 2 == 0):
            return False
    return True


def _congruent(diag, rng):
    """P L diag(diag) L^T P^T with L unit lower triangular and P a permutation."""
    n = len(diag)
    low = [[F(1) if i == j else F(rng.randint(-4, 4), rng.randint(1, 3)) if j < i else F(0)
            for j in range(n)] for i in range(n)]
    m = [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)]
         for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[m[i][j] for j in perm] for i in perm]


def _eliminated_solve(rows, *rhs, negative_definite=False):
    """``solve_linear`` by the fraction-free elimination at every size."""
    n = len(rows)
    aug = [list(row) + [b[r] for b in rhs] for r, row in enumerate(rows)]
    pivots = surface._eliminate(aug, n, swap=not negative_definite)
    if len(pivots) != n or (negative_definite and not surface._alternating(pivots)):
        return None
    sign = 1 if pivots[-1][1] > 0 else -1
    return (sign * pivots[-1][1], *([sign * row[n + k] for row in aug] for k in range(len(rhs))))


def _eliminated_kernel(rows):
    """``_kernel_vector`` by the fraction-free elimination at every size:
    the first free column set to the last pivot's absolute value."""
    n = len(rows[0])
    m = [list(r) for r in rows]
    pivots = surface._eliminate(m, n)
    cols = [c for c, _ in pivots]
    free = [c for c in range(n) if c not in cols][0]
    last = pivots[-1][1] if pivots else 1
    sign = 1 if last > 0 else -1
    nums = [0] * n
    nums[free] = sign * last
    for r, c in enumerate(cols):
        nums[c] = -sign * m[r][free]
    return sign * last, tuple(nums)


class TestLinearAlgebra:
    def test_pivot_rule_equals_sylvester(self):
        rng = random.Random(20040)
        seen = {True: 0, False: 0}
        for case in range(1200):
            n = rng.randint(1, 5)
            kind = case % 5
            if kind == 0:  # negative definite
                m = _congruent([F(-rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)], rng)
                expected = True
            elif kind == 1:  # negative semidefinite, singular
                diag = [F(-rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
                diag[rng.randrange(n)] = F(0)
                m = _congruent(diag, rng)
                expected = False
            elif kind == 2:  # indefinite or positive somewhere
                diag = [F(-rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
                diag[rng.randrange(n)] = F(rng.randint(1, 9), rng.randint(1, 4))
                m = _congruent(diag, rng)
                expected = False
            elif kind == 3:  # definite block bordered by a repeated row and column
                m = _congruent([F(-rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)], rng)
                j = rng.randrange(n)
                m = [row + [row[j]] for row in m]
                m.append(list(m[j]))
                expected = False
            else:  # random symmetric, no known answer
                m = [[F(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        m[i][j] = m[j][i] = F(rng.randint(-6, 3), rng.randint(1, 3))
                expected = None
            block = _integer_scaled(m)
            b = list(range(1, len(block) + 1))
            sol = solve_linear(block, b, negative_definite=True)
            got = sol is not None
            assert got == _sylvester_negative_definite(m), m
            if expected is not None:
                assert got == expected, m
            if got:  # a definite block needs no swap: the same solution
                assert sol == solve_linear(block, b), m
            seen[got] += 1
        assert seen[True] >= 240 and seen[False] >= 720

    def test_pivot_rule_leaves_input(self):
        m = [[-2, 1], [1, -2]]
        assert solve_linear(m, [1, 1], negative_definite=True) == (3, [-3, -3])
        assert m == [[-2, 1], [1, -2]]
        assert solve_linear([], [], negative_definite=True) == (1, [])

    def test_pivot_rule_rejects_a_zero_leading_minor(self):
        """A nonsingular block whose first leading minor is zero needs a row
        swap, and is not negative definite."""
        block = [[0, 1], [1, -1]]
        assert _det([[F(x) for x in row] for row in block]) == -1
        assert not _sylvester_negative_definite(block)
        assert solve_linear(block, [1, 0]) == (1, [1, 1])
        assert solve_linear(block, [1, 0], negative_definite=True) is None

    def test_solve_linear(self):
        rows = [[F(0), F(2), F(1)], [F(1), F(1), F(0)], [F(3), F(0), F(1, 2)]]
        # the same system over the integers: the last row doubled
        det, x = solve_linear([[0, 2, 1], [1, 1, 0], [6, 0, 1]], [1, 2, 6])
        assert det > 0
        x = [F(u, det) for u in x]
        assert [sum(a * b for a, b in zip(row, x)) for row in rows] == [1, 2, 3]
        assert solve_linear([[1, 2], [2, 4]], [1, 2]) is None
        assert solve_linear([], []) == (1, [])

    def test_solve_linear_several_right_hand_sides(self):
        rng = random.Random(21)
        for n in range(1, 5):
            for _ in range(40):
                rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)]
                b0, b1 = ([F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
                          for _ in range(2))
                # the same systems over the integers: [rows | b0 b1] scaled
                aug = _integer_scaled([row + [x, y] for row, x, y in zip(rows, b0, b1)])
                block, c0, c1 = [r[:n] for r in aug], [r[n] for r in aug], [r[n + 1] for r in aug]
                single = solve_linear(block, c0), solve_linear(block, c1)
                both = solve_linear(block, c0, c1)
                if single[0] is None:
                    assert single[1] is None and both is None
                    assert fraction_solve(rows, b0) is None
                else:
                    assert both == (single[0][0], single[0][1], single[1][1])
                    det, x0, x1 = both
                    assert [F(u, det) for u in x0] == fraction_solve(rows, b0)
                    assert [F(u, det) for u in x1] == fraction_solve(rows, b1)
        singular = [[1, 2], [2, 4]]
        assert solve_linear(singular, [1, 2], [0, 1]) is None
        assert solve_linear([], [], []) == (1, [], [])

    def test_solve_linear_matches_fraction_reference(self):
        """Seeded systems, some singular and some needing row swaps: the
        fraction-free solution over ``det`` is the rational solution, and
        ``det`` is the absolute determinant."""
        rng = random.Random(1968)
        seen = {"singular": 0, "swap": 0, "regular": 0}
        for case in range(600):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if case % 4 == 1 and n > 1:  # a repeated combination of two rows
                i, j = rng.sample(range(n), 2)
                k = rng.randrange(n)
                rows[k] = [2 * x - 3 * y for x, y in zip(rows[i], rows[j])]
                if k in (i, j):
                    rows[k] = [0] * n
            if case % 4 == 2:  # a zero leading entry forces a swap
                rows[0][0] = 0
            b = [rng.randint(-20, 20) for _ in range(n)]
            got = solve_linear(rows, b)
            want = fraction_solve(rows, b)
            if want is None:
                assert got is None, rows
                seen["singular"] += 1
                continue
            det, x = got
            assert det == abs(_det([[F(v) for v in row] for row in rows])) and det > 0
            assert [F(u, det) for u in x] == want, rows
            seen["swap" if rows[0][0] == 0 else "regular"] += 1
        assert min(seen.values()) >= 50, seen

    def test_kernel_vector_first_free_column(self):
        assert _kernel_vector([[1, 2, 3]]) == (1, (-2, 1, 0))
        assert _kernel_vector([[0, 1, 0], [0, 0, 2]]) == (2, (2, 0, 0))
        assert _kernel_vector([[1, 1], [2, 2]]) == (1, (-1, 1))
        # a negative last pivot: the denominator stays positive
        assert _kernel_vector([[-2, 1, 0]]) == (2, (1, 2, 0))
        assert _kernel_vector([[1, 0], [0, 1]]) is None
        assert _kernel_vector([]) is None

    def test_kernel_vector_matches_fraction_reference(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]
            m = [[F(x) for x in row] for row in rows]
            pivots = rref(m, n)
            free = [c for c in range(n) if c not in pivots]
            want = None
            if free:
                want = [F(0)] * n
                want[free[0]] = F(1)
                for r, c in enumerate(pivots):
                    want[c] = -m[r][free[0]]
                want = tuple(want)
            got = _kernel_vector(rows)
            if got is not None:
                den, nums = got
                assert den > 0, rows
                got = tuple(F(x, den) for x in nums)
            assert got == want, rows

    def test_closed_form_solves_equal_the_elimination(self):
        """Every 1x1 and 2x2 block with entries in -3..3, with one and with
        two seeded right-hand sides, in both modes: ``solve_linear``'s
        closed forms return the elimination's tuple, or None on the same
        blocks."""
        rng = random.Random(1968)
        seen = {True: 0, False: 0}
        for n in (1, 2):
            for flat in itertools.product(range(-3, 4), repeat=n * n):
                rows = [list(flat[r * n:(r + 1) * n]) for r in range(n)]
                rhs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(2)]
                for k in (1, 2):
                    for definite in (False, True):
                        want = _eliminated_solve(rows, *rhs[:k], negative_definite=definite)
                        got = solve_linear(rows, *rhs[:k], negative_definite=definite)
                        assert got == want, (rows, rhs[:k], definite)
                        seen[want is None] += 1
        assert min(seen.values()) >= 1000, seen

    def test_closed_form_kernels_equal_the_elimination(self):
        """Every 1x2 row with entries in -4..4, and seeded 2x3 systems, some
        with a zero or a dependent row: ``_kernel_vector`` returns the
        elimination's ``(den, nums)``."""
        systems = [[[a, b]] for a in range(-4, 5) for b in range(-4, 5)]
        rng = random.Random(2023)
        for case in range(2000):
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
            if case % 4 == 1:  # a multiple of the other row, zero at k = 0
                k = rng.randint(-2, 2)
                rows[1] = [k * x for x in rows[0]]
            elif case % 4 == 2:
                rows[rng.randrange(2)] = [0, 0, 0]
            systems.append(rows)
        dependent = 0
        for rows in systems:
            assert _kernel_vector(rows) == _eliminated_kernel(rows), rows
            dependent += len(surface._eliminate([list(r) for r in rows], len(rows[0]))) < len(rows)
        assert dependent >= 900, dependent

    def test_cone_gram(self):
        for m in all_models():
            _assert_pairing_table(m)

    def test_cone_gram_every_model(self):
        """The integer cone Gram and rows of the pairing table equal the
        pairwise intersect table on every fixed model and every chart model
        with a + b <= 12."""
        for m in _models_to(12):
            table = _assert_pairing_table(m)
            assert all(type(x) is int for row in table.gram + table.rows for x in row)

    def test_inconsistent_cone_data_raises(self):
        # A^2 = B^2 = 1, A.B = -2: the Zariski iteration on B ends on the
        # support {A, B}, whose Gram block is not negative definite.  -K =
        # A + B pairs to -1 with both generators, so it is not nef, the
        # model keeps no -K row, and B still goes through the iteration.
        m = SurfaceModel(
            name="inconsistent", basis=("A", "B"), gram=(vec(1, -2), vec(-2, 1)),
            cone=(("A", vec(1, 0)), ("B", vec(0, 1))),
            anticanonical=vec(1, 1))
        with pytest.raises(ArithmeticError,
                           match="^inconsistent: support Gram block not negative definite$"):
            m.zariski_decompose(vec(0, 1))
        assert m.intersect(m.anticanonical, vec(1, 0)) == -1
        assert m.intersect(m.anticanonical, vec(0, 1)) == -1
        assert m._anticanonical_row is None


class TestConeRecord:
    """The per-model integer record under every pairing table."""

    def test_built_once_per_model(self, monkeypatch):
        """The first decomposition scales each generator, then -K once for
        the model's anticanonical row, then the class; later ones on the
        same model scale only their class."""
        m = builtin_surface("blp114-case3p", 2, 7)
        scaled = []
        original = surface._integer_parts

        def spy(v):
            scaled.append(tuple(v))
            return original(v)

        monkeypatch.setattr(surface, "_integer_parts", spy)
        d1 = vadd(m.anticanonical, m.cone_class("F"))
        d2 = vadd(m.cone_class("Hzbar"), m.cone_class("Ebar"))
        first = m.zariski_decompose(d1)
        assert scaled == [c for _, c in m.cone] + [m.anticanonical, d1]
        scaled.clear()
        assert m.zariski_decompose(d1) == first
        m.zariski_decompose(d2)
        assert scaled == [d1, d2]

    def test_holds_only_tuples_and_ints(self):
        """No table or caller can change what a later table reads: the record
        is frozen, every field is a tuple of ints, and every table of the
        model shares it."""
        def ints(x):
            return type(x) is int or (type(x) is tuple and all(ints(y) for y in x))

        for m in _models_to(12):
            first = m.pairing_table(m.anticanonical)
            rec = m._cone_record
            assert all(ints(getattr(rec, name)) for name in rec._fields), m.name
            assert ints(first.classes) and ints(first.rows), m.name
            with pytest.raises(AttributeError):
                rec.gram = ()
            m.zariski_decompose(m.anticanonical)
            table = _assert_pairing_table(m)
            assert m._cone_record is rec
            for name in ("scale", "dens", "gens", "gram"):
                assert getattr(table, name) is getattr(first, name) is getattr(rec, name)


    def test_integer_parts_fast_path(self):
        """A vector with common denominator 1 is read off directly, with the
        same ``(den, nums)`` as scaling every entry over the lcm."""
        def general(v):
            den = lcm(*[x.denominator for x in v])
            return den, tuple([x.numerator * (den // x.denominator) for x in v])

        rng = random.Random(19)
        vectors = [vec(F(4, 2), -3, 0, 64, 65, -65), vec(F(1, 2), 3, F(-2, 3))]
        for n in range(1, 6):
            vectors.append(vec(*[0] * n))
            for _ in range(60):
                vectors.append(vec(*[rng.randint(-99, 99) for _ in range(n)]))
                vectors.append(vec(*[F(rng.randint(-99, 99), rng.randint(1, 6))
                                     for _ in range(n)]))
        vectors += [c for m in _models_to(12) for _, c in m.cone]
        dens = set()
        for v in vectors:
            den, nums = surface._integer_parts(v)
            assert (den, nums) == general(v), v
            assert type(den) is int and all(type(x) is int for x in nums), v
            dens.add(den == 1)
        assert dens == {True, False}


# ---------------------------------------------------------------------------
# the check-first decomposition, kept as the oracle for the iterate-first one


def _assert_pairing_table(m):
    """Check every entry of the model's pairing table of its anticanonical
    and exceptional-or-first classes against ``intersect``."""
    extra = (m.anticanonical, m.cone[-1][1])
    table = m.pairing_table(*extra)
    gens = [c for _, c in m.cone]
    assert [F(x, table.dens[j]) for j, g in enumerate(table.gens) for x in g] == \
        [x for g in gens for x in g], m.name
    for i, ci in enumerate(gens):
        for j, cj in enumerate(gens):
            assert F(table.gram[i][j], table.scale * table.dens[i] * table.dens[j]) \
                == m.intersect(ci, cj), m.name
    for v, nums, row in zip(extra, table.classes, table.rows):
        assert [F(x, table.den) for x in nums] == list(v), m.name
        for j, cj in enumerate(gens):
            assert F(row[j], table.scale * table.den * table.dens[j]) == m.intersect(v, cj)
    return table


def _models_to(limit):
    """Every fixed model and every chart model with a + b <= limit."""
    return [builtin_surface(i) for i in ALL_FIXED] + [
        builtin_surface(kind, a, b) for kind in _weighted_kinds()
        for a, b in _coprime_weights(limit)]


def _coprime_weights(limit):
    return [(a, s - a) for s in range(2, limit + 1) for a in range(1, s) if gcd(a, s) == 1]


def _weighted_kinds():
    return sorted({fam.model_kind for fam in CHART_FAMILIES.values()})


def _caratheodory_coordinates(m, d):
    """A nonnegative combination of linearly independent generators equal to d,
    found by scanning generator subsets by size; None if there is none."""
    if all(x == 0 for x in d):
        return {}
    gens = list(m.cone)
    for size in range(1, min(m.rank(), len(gens)) + 1):
        for subset in itertools.combinations(range(len(gens)), size):
            aug = [[gens[i][1][row] for i in subset] + [d[row]] for row in range(len(d))]
            if len(rref(aug, size)) < size or any(r[size] != 0 for r in aug[size:]):
                continue
            sol = [r[size] for r in aug[:size]]
            if all(x >= 0 for x in sol):
                return {gens[i][0]: x for i, x in zip(subset, sol) if x != 0}
    return None


def _check_first_decompose(m, d):
    """Zariski decomposition that decides pseudo-effectivity before iterating."""
    if _caratheodory_coordinates(m, d) is None:
        sep = m._separating_nef_class(d, form_image(m, d))
        if sep is not None:
            raise NotPseudoEffectiveError(
                f"{m.name}: class not pseudo-effective; nef class "
                f"{sep[0]} = {fmt_vec(sep[1])} pairs negatively", sep)
        raise NotPseudoEffectiveError(f"{m.name}: class not pseudo-effective")
    gram = [[m.intersect(ci, cj) for _, cj in m.cone] for _, ci in m.cone]
    dc = [m.intersect(d, c) for _, c in m.cone]
    support = {j for j, v in enumerate(dc) if v < 0}
    for _ in range(len(dc) + 2):
        idx = sorted(support)
        block = [[gram[i][j] for j in idx] for i in idx]
        coeffs = fraction_solve(block, [dc[i] for i in idx]) if idx else []
        if coeffs is None:
            raise ArithmeticError(f"{m.name}: singular Gram block for support {idx}")
        violated = {j for j, row in enumerate(gram) if j not in support
                    and dc[j] < sum(x * row[i] for i, x in zip(idx, coeffs))}
        if not violated:
            if any(x < 0 for x in coeffs):
                raise ArithmeticError(
                    f"{m.name}: negative Zariski coefficient; cone data inconsistent")
            if not _sylvester_negative_definite(block):
                raise ArithmeticError(f"{m.name}: support Gram block not negative definite")
            p = d
            for i, x in zip(idx, coeffs):
                p = tuple(pi - x * ci for pi, ci in zip(p, m.cone[i][1]))
            negative = tuple((m.cone[i][0], x) for i, x in zip(idx, coeffs) if x != 0)
            return p, negative
        support |= violated
    raise ArithmeticError(f"{m.name}: Zariski iteration did not stabilize")


def _outcome(decompose, m, d):
    try:
        z = decompose(m, d)
    except ArithmeticError as exc:
        return type(exc), str(exc), None
    except NotPseudoEffectiveError as exc:
        return type(exc), str(exc), exc.separating
    return z if isinstance(z, tuple) else (z.positive, z.negative_support)


def _probe_classes(m, k, rng):
    """Boundary classes (generator k and the k-th sum of two generators), a
    random pseudo-effective class (one nonnegative coefficient per
    generator), and the negations of both boundary classes."""
    gens = [c for _, c in m.cone]
    pairs = list(itertools.combinations(gens, 2))
    boundary = [gens[k % len(gens)], vadd(*pairs[k % len(pairs)])]
    coeffs = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in gens]
    interior = tuple(sum(x * c[i] for x, c in zip(coeffs, gens)) for i in range(m.rank()))
    return boundary + [interior] + [vscale(-1, d) for d in boundary]


def test_iterate_first_matches_check_first():
    """Same decomposition, or same exception type, text and separator, as the
    check-first order on every fixed model and every family at a + b <= 12;
    every random pseudo-effective class decomposes."""
    models = _models_to(12)
    rng = random.Random(8)
    seen = {True: 0, False: 0}
    for k, m in enumerate(models):
        for j, d in enumerate(_probe_classes(m, k, rng)):
            old = _outcome(_check_first_decompose, m, d)
            assert _outcome(lambda m, d: m.zariski_decompose(d), m, d) == old, (m.name, d)
            seen[old[0] is NotPseudoEffectiveError] += 1
            if j == 2:
                assert isinstance(m.zariski_decompose(d), ZariskiDecomposition), (m.name, d)
    assert min(seen.values()) >= 400, seen


def test_iteration_edge_branches_match_check_first():
    """The iteration's edge branches agree with the check-first order on
    every fixed model and every chart model with a + b <= 12: the zero class
    (an empty support: P = 0, no N), each negative generator C (its own
    support: P = 0, N = C) and -K (nef: P = -K, no N)."""
    models, negative = _models_to(12), 0
    for m in models:
        zero = vec(*[0] * m.rank())
        cases = [(zero, (zero, ())), (m.anticanonical, (m.anticanonical, ()))]
        for name, c in m.cone:
            if m.self_intersection(c) < 0:
                cases.append((c, (zero, ((name, F(1)),))))
                negative += 1
        for d, want in cases:
            assert _outcome(_check_first_decompose, m, d) == want, (m.name, d)
            assert _outcome(lambda m, d: m.zariski_decompose(d), m, d) == want, (m.name, d)
    assert negative >= 2 * len(models)


def test_cone_generators_span_the_lattice():
    """The precondition of the separator's completeness (Farkas): on every
    builtin model the generators span the lattice and the form is nondegenerate."""
    models = _models_to(30)
    assert len(models) == 4 + 5 * 277
    for m in models:
        n = m.rank()
        assert len(rref([list(c) for _, c in m.cone], n)) == n, m.name
        assert len(rref([list(row) for row in m.gram], n)) == n, m.name


def test_one_elimination_per_support_step(monkeypatch):
    """Each support step of the Zariski iteration is one swap-free solve,
    and no second pass tests the final block for negative definiteness: a
    step of size 3 or more makes the solve's one elimination, and a smaller
    step, solved in closed form, makes none.  Some step (on ``index3m``) has
    size 3 or more, so the elimination's branch is covered."""
    eliminations, steps, large = [], [], 0
    eliminate, solve = surface._eliminate, surface.solve_linear

    def count_eliminate(m, ncols, swap=True):
        eliminations.append(swap)
        return eliminate(m, ncols, swap)

    def count_solve(rows, *rhs, **kw):
        steps.append(len(rows))
        return solve(rows, *rhs, **kw)

    monkeypatch.setattr(surface, "_eliminate", count_eliminate)
    monkeypatch.setattr(surface, "solve_linear", count_solve)
    rng = random.Random(18)
    grown = 0
    for m in _models_to(12):
        gens = [c for _, c in m.cone]
        coeffs = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in gens]
        effective = tuple(sum(x * c[i] for x, c in zip(coeffs, gens)) for i in range(m.rank()))
        for d in (vadd(gens[0], gens[1]), m.anticanonical, effective):
            eliminations.clear()
            steps.clear()
            rec = m._cone_record
            m._zariski_iteration(rec, *surface._integer_parts(d), form_image(m, d))
            assert eliminations == [False] * sum(k >= 3 for k in steps), (m.name, d)
            assert steps == sorted(set(steps)), (m.name, d)
            grown += len(steps) > 1
            large += len(eliminations)
    assert grown >= 150 and large >= 1, (grown, large)


def _reference_separating_class(m, d):
    """The separating-class scan in Fractions: per (rank - 1)-subset of the
    generators in order, the kernel of their pairings with the first free
    column set to 1 (``rref``), tried as w and then as -w, with every
    pairing read from the model's rational Gram matrix."""
    n = m.rank()
    gens = list(m.cone)
    functionals = [[sum(m.gram[b][k] * c[k] for k in range(n)) for b in range(n)]
                   for _, c in gens]
    for subset in itertools.combinations(range(len(gens)), n - 1):
        rows = [list(functionals[i]) for i in subset]
        pivots = rref(rows, n)
        free = [c for c in range(n) if c not in pivots]
        if not free:
            continue
        w = [F(0)] * n
        w[free[0]] = F(1)
        for r, c in enumerate(pivots):
            w[c] = -rows[r][free[0]]
        for cand in (tuple(w), tuple(-x for x in w)):
            if all(_gram_pairing(m, cand, c) >= 0 for _, c in gens) \
                    and _gram_pairing(m, cand, d) < 0:
                return "perp(" + ",".join(gens[i][0] for i in subset) + ")", cand
    return None


def _gram_pairing(m, u, v):
    return sum(x * g * y for x, row in zip(u, m.gram) for g, y in zip(row, v))


def test_separating_class_matches_fraction_scan():
    """On every fixed model and every chart model with a + b <= 12, seeded
    classes outside the effective cone get the certificate of the Fraction
    scan, label and vector: nef on every generator and negative on the
    class by the rational Gram matrix."""
    rng = random.Random(1809)
    found = 0
    for m in _models_to(12):
        gens = [c for _, c in m.cone]
        for _ in range(4):
            coeffs = [F(rng.randint(-6, 4), rng.randint(1, 3)) for _ in gens]
            d = tuple(sum(x * c[i] for x, c in zip(coeffs, gens)) for i in range(m.rank()))
            want = _reference_separating_class(m, d)
            if want is None:
                continue
            label, w = want
            assert all(_gram_pairing(m, w, c) >= 0 for c in gens) and _gram_pairing(m, w, d) < 0
            assert m._separating_nef_class(d, form_image(m, d)) == want, (m.name, d)
            with pytest.raises(NotPseudoEffectiveError) as err:
                m.zariski_decompose(d)
            assert err.value.separating == want
            found += 1
    assert found >= 700, found


def test_separating_class_check_catches_a_wrong_scan(monkeypatch):
    """The certificate is checked apart from the scan's generator images:
    with every image negated, the scan takes -w for a nef ray w, which
    pairs negatively with the ample -K, and the check, reading the record's
    own form and generators, refuses it."""
    models = [builtin_surface(i) for i in ALL_FIXED]
    for m in models:
        assert m._separating_nef_class(m.anticanonical,
                                       form_image(m, m.anticanonical)) is None, m.name
    images = surface._images
    monkeypatch.setattr(surface, "_images",
                        lambda form, gens: [[-x for x in g] for g in images(form, gens)])
    for m in models:
        with pytest.raises(ArithmeticError, match="fails its rational check"):
            m._separating_nef_class(m.anticanonical, form_image(m, m.anticanonical))


def test_one_intersect_per_rejected_class(monkeypatch):
    """A class that is not pseudo-effective makes exactly one ``intersect``
    call, the certificate's w.d < 0; a decomposed class makes none.  A
    class that the nef -K pairs negatively is refused with no
    ``solve_linear`` call: the Zariski iteration does not run for it."""
    calls, solves = [], []
    intersect, solve = SurfaceModel.intersect, surface.solve_linear

    def count(self, d1, d2):
        calls.append(1)
        return intersect(self, d1, d2)

    def count_solve(*args, **kw):
        solves.append(1)
        return solve(*args, **kw)

    rng = random.Random(27)
    probes = [(m, d, intersect(m, m.anticanonical, d) < 0)
              for k, m in enumerate(_models_to(12)) for d in _probe_classes(m, k, rng)]
    monkeypatch.setattr(SurfaceModel, "intersect", count)
    monkeypatch.setattr(surface, "solve_linear", count_solve)
    seen = {True: 0, False: 0}
    refuted = 0
    for m, d, negative in probes:
        calls.clear()
        solves.clear()
        try:
            m.zariski_decompose(d)
            rejected = False
        except NotPseudoEffectiveError:
            rejected = True
        assert len(calls) == rejected, (m.name, d)
        if negative:
            assert rejected and not solves, (m.name, d)
            refuted += 1
        seen[rejected] += 1
    # both rejection paths: refuted by -K, and iterated first (such as a
    # negated curve that -K meets in 0)
    assert min(seen.values()) >= 400, seen
    assert refuted >= 350 and seen[True] - refuted >= 50, (seen, refuted)


def test_rejection_text_is_built_on_first_str(monkeypatch):
    """On every model with a + b <= 12, each probe class that is not
    pseudo-effective is refused with the text of the eager message, naming
    its certificate; the vector is rendered on the first ``str()`` alone.
    The plain-message form keeps its message."""
    renders = []
    fmt = surface.fmt_vec

    def count(v):
        renders.append(1)
        return fmt(v)

    monkeypatch.setattr(surface, "fmt_vec", count)
    rng = random.Random(30)
    rejected = 0
    for k, m in enumerate(_models_to(12)):
        for d in _probe_classes(m, k, rng):
            renders.clear()
            try:
                m.zariski_decompose(d)
                continue
            except NotPseudoEffectiveError as exc:
                err = exc
            assert not renders, (m.name, d)
            label, w = err.separating
            want = (f"{m.name}: class not pseudo-effective; nef class "
                    f"{label} = {fmt(w)} pairs negatively")
            assert str(err) == want and str(err) == want, (m.name, d)
            assert len(renders) == 1, (m.name, d)
            rejected += 1
    assert rejected >= 400, rejected
    sep = ("perp(E)", vec(1, 0))
    assert str(NotPseudoEffectiveError("f1: class not pseudo-effective")) \
        == "f1: class not pseudo-effective"
    plain = NotPseudoEffectiveError("f1: refused", sep)
    assert str(plain) == "f1: refused" and plain.separating == sep


def test_every_zariski_model_has_an_anticanonical_row():
    """-K is nef on every model the zariski benchmark builds (the 4 fixed
    models and the 5 chart kinds at coprime a + b <= 30) by the rational
    form, and each of them keeps the integer row ``form * k`` for it."""
    models = _models_to(30)
    assert len(models) == 4 + 5 * 277
    for m in models:
        assert all(m.intersect(m.anticanonical, c) >= 0 for _, c in m.cone), m.name
        k = surface._integer_parts(m.anticanonical)[1]
        row = tuple(surface._dot(r, k) for r in m._cone_record.form)
        assert m._anticanonical_row == row, m.name


def test_refuted_class_without_separator_raises(monkeypatch):
    """A scan that finds no separating class for a class the nef -K pairs
    negatively contradicts Farkas' completeness: decomposing it raises
    ``ArithmeticError`` naming the model, and never decomposes."""
    monkeypatch.setattr(SurfaceModel, "_separating_nef_class", lambda self, d, image: None)
    for m in all_models():
        with pytest.raises(ArithmeticError, match="^" + re.escape(
                f"{m.name}: -K is nef and negative on the class, "
                f"but no separating nef class was found") + "$"):
            m.zariski_decompose(vscale(-1, m.anticanonical))
