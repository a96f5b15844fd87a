"""Rational-lattice surface models: intersection form, effective-cone data,
separating nef classes for classes that are not pseudo-effective, and exact
Zariski decomposition.

A model fixes a basis of the Neron-Severi lattice, the Gram matrix of the
intersection form, a list of effective curve classes that span the effective
cone (every negative class among them generates an extremal ray), the
anticanonical class and a few named divisor classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .exactnum import render_fraction

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

# the pairs live on degree-8 del Pezzo surfaces: the anticanonical class of
# every model (pulled back to its blowups and resolutions) squares to 8, and
# every S-value is a volume integral divided by it
DEGREE = Fraction(8)


# one shared Fraction per small integer, for vec
_SMALL = {i: Fraction(i) for i in range(-64, 65)}


def vec(*entries) -> Vec:
    """The entries as Fractions; an entry equal to an integer in -64..64 is
    one shared ``Fraction``.

    A model's form, generators and classes are mostly such integers, and a
    long-lived caller keeps many models: the zariski benchmark builds 1,389.
    Sharing shrinks each of them from 2,546 to 1,654 bytes (tracemalloc);
    with the 452-byte scaled form it replaces, that pays for the model's
    1,276-byte ``ConeRecord``.  Fractions are immutable, so sharing changes
    no value.
    """
    return tuple(x if (x := _SMALL.get(e)) is not None else Fraction(e) for e in entries)


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def solve_linear(rows: Sequence[Sequence[int]], *rhs: Sequence[int]
                 ) -> Optional[tuple]:
    """Solve the square integer system ``rows x = b`` for every right-hand
    side ``b`` by one fraction-free Gauss-Jordan elimination of
    ``[rows | b_1 ... b_k]``.

    Returns ``(det, x_1, ..., x_k)``: ``det = |det rows| > 0`` and integer
    numerators ``x_k`` with ``rows (x_k / det) = b_k``; None when ``rows`` is
    singular.
    """
    n = len(rows)
    aug = [list(row) + [b[r] for b in rhs] for r, row in enumerate(rows)]
    pivots = _eliminate(aug, n)
    if len(pivots) != n:
        return None
    det = pivots[-1][1] if pivots else 1
    sign = 1 if det > 0 else -1
    return (sign * det, *([sign * row[n + k] for row in aug] for k in range(len(rhs))))


class NotPseudoEffectiveError(ValueError):
    """Input class lies outside the effective cone."""

    def __init__(self, message: str, separating: Optional[tuple[str, Vec]] = None):
        super().__init__(message)
        self.separating = separating


@dataclass(frozen=True)
class ZariskiDecomposition:
    positive: Vec
    negative_support: tuple[tuple[str, Fraction], ...]

    @property
    def support_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.negative_support)


@dataclass(frozen=True, slots=True)
class ConeRecord:
    """The integer intersection data of one model that no class changes:
    built on first use, once per model, and then only read by
    ``intersect``, ``pairing_table``, the Zariski iteration and the
    separating-class scan.

    The form is scaled to integers once (``form = scale * gram``; it is
    symmetric) and each cone generator ``C_j`` to its numerators ``gens[j]``
    over ``dens[j]``, so ``gram[i][j] = scale * dens[i] * dens[j] *
    C_i.C_j``, the upper triangle mirrored.  Every field is a tuple of ints,
    so no table or caller can change what a later call reads.

    The generator images ``form * gens[j]`` are left out: only the
    separating-class scan reads them, on the rare class that is not
    pseudo-effective.  On the zariski benchmark (seed 1700, 30 s, 2-vCPU VM)
    peak RSS was 26.3 MB with no record, 26.1 MB with this one, 26.7 MB with
    the images cached too, and 27.3 MB with this record but without the
    shared small Fractions of ``vec``.
    """

    scale: int
    form: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class PairingTable:
    """Integer intersection numbers of the cone generators ``C_j`` and of a
    few extra classes ``v_k``.

    ``scale``, ``dens``, ``gens`` and ``gram`` are the model's
    ``ConeRecord``, shared by every table of the model.  Per call, the extra
    classes are scaled to numerators ``classes[k]`` over one common ``den``,
    and each takes one row of dot products against the scaled form:

    * ``gram[i][j] = scale * dens[i] * dens[j] * C_i.C_j``;
    * ``rows[k][j] = scale * den * dens[j] * v_k.C_j``.

    So if ``gram x = rows[k]`` on a support, with ``x = u / det``, then
    ``v_k`` pairs with the support as ``sum_i (dens[i] * u_i / (det * den)) C_i``
    does, and ``det * rows[k][j] - sum_i u_i gram[i][j]`` is
    ``det * scale * den * dens[j]`` times the pairing of the rest with ``C_j``.
    """

    scale: int
    den: int
    dens: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    basis: tuple[str, ...]
    gram: Mat
    cone: tuple[tuple[str, Vec], ...]
    anticanonical: Vec
    classes: dict[str, Vec] = field(default_factory=dict)
    exceptional: Optional[str] = None

    # -- basic intersection theory ------------------------------------------

    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def _cone_record(self) -> ConeRecord:
        scale = lcm(*[x.denominator for row in self.gram for x in row])
        form = tuple(tuple([x.numerator * (scale // x.denominator) for x in row])
                     for row in self.gram)
        parts = [_integer_parts(c) for _, c in self.cone]
        gens = tuple([nums for _, nums in parts])
        images = _images(form, gens)
        gram = [[0] * len(gens) for _ in gens]
        for i, a in enumerate(gens):
            for j in range(i, len(gens)):
                gram[i][j] = gram[j][i] = _dot(a, images[j])
        return ConeRecord(scale, form, tuple(d for d, _ in parts), gens,
                          tuple(map(tuple, gram)))

    def intersect(self, d1: Vec, d2: Vec) -> Fraction:
        n = len(self.basis)
        if len(d1) != n or len(d2) != n:
            raise ValueError(f"{self.name}: dimension mismatch")
        rec = self._cone_record
        da, a = _integer_parts(d1)
        db, b = _integer_parts(d2)
        total = 0
        for ai, row in zip(a, rec.form):
            if ai:
                total += ai * sum([g * bj for g, bj in zip(row, b) if bj])
        return Fraction(total, rec.scale * da * db)

    def self_intersection(self, d: Vec) -> Fraction:
        return self.intersect(d, d)

    def cone_class(self, key: str) -> Vec:
        for name, c in self.cone:
            if name == key:
                return c
        if key in self.classes:
            return self.classes[key]
        raise KeyError(f"{self.name}: no class named {key!r}")

    def _separating_nef_class(self, d: Vec) -> Optional[tuple[str, Vec]]:
        """A nef class w with w.d < 0, certifying d not pseudo-effective.

        The scan is complete by Farkas when the cone generators span the
        lattice and the form is nondegenerate: an extremal ray of the nef
        cone is then perpendicular to rank - 1 independent generators, and
        every such perpendicular is tried.  So None means d is
        pseudo-effective.
        """
        from itertools import combinations

        rec = self._cone_record
        # image i is a positive multiple of C_i.e_b over the basis, so
        # w = sum w_b e_b solves w.C_i = 0
        images = _images(rec.form, rec.gens)
        gens = list(self.cone)
        for subset in combinations(range(len(gens)), self.rank() - 1):
            w = _kernel_vector([images[i] for i in subset])
            if w is None:
                continue
            for cand in (w, vscale(-1, w)):
                if all(self.intersect(cand, c) >= 0 for _, c in gens) and self.intersect(cand, d) < 0:
                    label = "perp(" + ",".join(gens[i][0] for i in subset) + ")"
                    return label, cand
        return None

    # -- Zariski decomposition -------------------------------------------

    def pairing_table(self, *classes: Vec) -> PairingTable:
        """The integer pairings of the cone generators with each other and
        with ``classes``: the generator part is the model's cone record, and
        each class is scaled to integers and taken once through the form."""
        n = self.rank()
        if any(len(v) != n for v in classes):
            raise ValueError(f"{self.name}: dimension mismatch")
        rec = self._cone_record
        den, flat = _integer_parts([x for v in classes for x in v])
        nums = tuple([flat[k:k + n] for k in range(0, len(flat), n)])
        # the form is symmetric, so row k is (form * nums[k]) . gens[j]
        rows = tuple(tuple([_dot(w, g) for g in rec.gens])
                     for w in [[_dot(row, v) for row in rec.form] for v in nums])
        return PairingTable(rec.scale, den, rec.dens, rec.gens, nums, rec.gram, rows)

    def zariski_decompose(self, d: Vec) -> ZariskiDecomposition:
        """Unique D = P + N with P nef, P.N_i = 0, Gram(N) negative definite.

        A finished iteration proves d pseudo-effective (P nef, N effective).
        When it fails, a separating nef class proves d is not; without one
        the iteration's error stands.
        """
        try:
            return self._zariski_iteration(d)
        except ArithmeticError:
            sep = self._separating_nef_class(d)
            if sep is None:
                raise
        raise NotPseudoEffectiveError(
            f"{self.name}: class not pseudo-effective; nef class "
            f"{sep[0]} = {fmt_vec(sep[1])} pairs negatively", sep)

    def _zariski_iteration(self, d: Vec) -> ZariskiDecomposition:
        """Grow the support by the generators P meets negatively until none is
        left, over the integer pairing table of ``d``."""
        table = self.pairing_table(d)
        gram, (dc,) = table.gram, table.rows
        support = {j for j, v in enumerate(dc) if v < 0}
        for _ in range(len(dc) + 2):
            idx = sorted(support)
            block = [[gram[i][j] for j in idx] for i in idx]
            sol = solve_linear(block, [dc[i] for i in idx]) if idx else (1, [])
            if sol is None:
                raise ArithmeticError(
                    f"{self.name}: singular Gram block for support {idx}")
            det, coeffs = sol
            # det * scale * den * dens_j * P.C_j = det * dc_j - sum_i u_i gram_ij
            violated = {j for j, row in enumerate(gram) if j not in support
                        and det * dc[j] < sum(u * row[i] for i, u in zip(idx, coeffs))}
            if not violated:
                if any(u < 0 for u in coeffs):
                    raise ArithmeticError(
                        f"{self.name}: negative Zariski coefficient; cone data inconsistent")
                if not _negative_definite(block):
                    raise ArithmeticError(
                        f"{self.name}: support Gram block not negative definite")
                # N = sum dens_i * u_i / (det * den) C_i and P = d - N
                den = det * table.den
                p = [det * x for x in table.classes[0]]
                for i, u in zip(idx, coeffs):
                    if u:
                        p = [x - u * g for x, g in zip(p, table.gens[i])]
                negative = tuple((self.cone[i][0], Fraction(table.dens[i] * u, den))
                                 for i, u in zip(idx, coeffs) if u)
                return ZariskiDecomposition(
                    positive=tuple(Fraction(x, den) for x in p), negative_support=negative)
            support |= violated
        raise ArithmeticError(f"{self.name}: Zariski iteration did not stabilize")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "basis": list(self.basis),
            "gram": [[render_fraction(x) for x in row] for row in self.gram],
            "cone_generators": [
                {"name": n, "coords": [render_fraction(x) for x in c]} for n, c in self.cone
            ],
            "anticanonical": [render_fraction(x) for x in self.anticanonical],
            "degree": render_fraction(DEGREE),
            "classes": {k: [render_fraction(x) for x in v] for k, v in sorted(self.classes.items())},
        }


def _integer_parts(v: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(den, nums)`` with ``v[i] == nums[i] / den`` and ``den`` the lcm of the denominators."""
    den = lcm(*[x.denominator for x in v])
    return den, tuple([x.numerator * (den // x.denominator) for x in v])


def _dot(a: Iterable[int], b: Iterable[int]) -> int:
    return sum(map(mul, a, b))


def _images(form: Sequence[Sequence[int]], gens: Sequence[Sequence[int]]) -> list[list[int]]:
    """``form * g`` for every integer generator ``g``."""
    return [[_dot(row, g) for row in form] for g in gens]


def fmt_vec(v: Vec) -> str:
    return "(" + ",".join(render_fraction(x) for x in v) + ")"


def _eliminate(m: list[list[int]], ncols: int, swap: bool = True) -> list[tuple[int, int]]:
    """Fraction-free Gauss-Jordan elimination of the first ``ncols`` columns
    of the integer rows ``m``, in place: Bareiss's integer-preserving step
    (Math. Comp. 1968) applied to every other row, as in Montante's method.

    Returns ``(column, pivot)`` for pivot k in row k.  Every division is exact,
    and afterwards each pivot row is its reduced row echelon row times the
    last pivot, which is the determinant of the pivot minor up to the sign
    of the row swaps.  With ``swap=False`` the elimination stops at the first
    zero on the diagonal, and pivot k is the leading principal minor of
    order k + 1 (Sylvester's identity).
    """
    pivots: list[tuple[int, int]] = []
    prev = 1
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        if not m[row][col]:
            if not swap:
                break
            piv = next((r for r in range(row + 1, len(m)) if m[r][col]), None)
            if piv is None:
                continue
            m[row], m[piv] = m[piv], m[row]
        top = m[row]
        p = top[col]
        for r, other in enumerate(m):
            if r != row:
                f = other[col]
                m[r] = [(p * x - f * y) // prev for x, y in zip(other, top)]
        prev = p
        pivots.append((col, p))
    return pivots


def _negative_definite(block: list[list[int]]) -> bool:
    """Sylvester's criterion on an integer symmetric block: elimination
    without row swaps meets leading principal minors of signs -, +, -, ..."""
    m = [list(r) for r in block]
    pivots = _eliminate(m, len(m), swap=False)
    return len(pivots) == len(m) and all((p < 0) == (k % 2 == 0)
                                         for k, (_, p) in enumerate(pivots))


def _kernel_vector(rows: list[list[int]]) -> Optional[Vec]:
    """A nonzero rational vector orthogonal to the given integer row
    functionals: the first free column set to 1, the other free columns to 0."""
    if not rows:
        return None
    n = len(rows[0])
    m = [list(r) for r in rows]
    pivots = _eliminate(m, n)
    cols = [c for c, _ in pivots]
    free = [c for c in range(n) if c not in cols]
    if not free:
        return None
    last = pivots[-1][1] if pivots else 1
    sol = [Fraction(0)] * n
    sol[free[0]] = Fraction(1)
    for r, c in enumerate(cols):
        sol[c] = Fraction(-m[r][free[0]], last)
    return tuple(sol)


# ---------------------------------------------------------------------------
# builtin models


def _model_f1() -> SurfaceModel:
    """Plane blown up at [1,0,0]; basis (H, E) with H the line class."""
    gram = (vec(1, 0), vec(0, -1))
    fiber = vec(1, -1)
    e = vec(0, 1)
    classes = {"H_x": vec(1, 0), "H_y": fiber, "H_z": fiber, "E": e, "H": vec(1, 0)}
    return SurfaceModel(
        name="f1", basis=("H", "E"), gram=gram,
        cone=(("E", e), ("fiber", fiber)),
        anticanonical=vec(3, -1), classes=classes)


def _model_blp114() -> SurfaceModel:
    """Weighted plane P(1,1,4) blown up at the smooth point [1,0,0]."""
    gram = (vec(Fraction(-3, 4), 1), vec(1, -1))
    hy = vec(1, 0)
    e = vec(0, 1)
    classes = {"H_y": hy, "E": e, "H_x": vec(1, 1), "H_z": vec(4, 3)}
    return SurfaceModel(
        name="blp114", basis=("H_y", "E"), gram=gram,
        cone=(("H_y", hy), ("E", e)),
        anticanonical=vec(6, 5), classes=classes)


def _model_index3m() -> SurfaceModel:
    """Minimal resolution of the index-3 degree-8 surface (rank-4 lattice)."""
    gram = (vec(-5, 1, 0, 0), vec(1, -2, 1, 1), vec(0, 1, -1, 0), vec(0, 1, 0, -1))
    f1 = vec(1, 0, 0, 0)
    f2 = vec(0, 1, 0, 0)
    e1 = vec(0, 0, 1, 0)
    e2 = vec(0, 0, 0, 1)
    anti = vec(Fraction(4, 3), Fraction(20, 3), 6, 6)
    classes = {"F1": f1, "F2": f2, "E1": e1, "E2": e2,
               "qF": vec(1, Fraction(1, 2), 0, 0)}
    return SurfaceModel(
        name="index3m", basis=("F1", "F2", "E1", "E2"), gram=gram,
        cone=(("F1", f1), ("F2", f2), ("E1", e1), ("E2", e2)),
        anticanonical=anti, classes=classes, exceptional="qF")


def _model_blp114_quotient_res() -> SurfaceModel:
    """Minimal resolution of the quarter point on Bl P(1,1,4); F is the (-4)-curve."""
    gram = (vec(-4, 0, 1), vec(0, -1, 1), vec(1, 1, -1))
    f = vec(1, 0, 0)
    e = vec(0, 1, 0)
    hy = vec(0, 0, 1)
    anti = vec(Fraction(3, 2), 5, 6)
    return SurfaceModel(
        name="blp114-quotient-res", basis=("F", "E", "H_y"), gram=gram,
        cone=(("F", f), ("E", e), ("H_y", hy)),
        anticanonical=anti, classes={"F": f, "E": e, "H_y": hy}, exceptional="F")


def check_weights(a: int, b: int) -> None:
    """Reject blowup weights (a, b) that are not positive and coprime."""
    if a <= 0 or b <= 0:
        raise ValueError("blowup weights must be positive; degenerate 1-PS "
                         "weights are handled by toric divisor valuations")
    if gcd(a, b) != 1:
        raise ValueError("blowup weights must be coprime")


def _model_f1_case1(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of F1 at a torus-fixed point away from E.

    Basis (F, Ebar, Hzbar): Hzbar is the line through both blowup centers,
    Hxbar = (b-a)F + Ebar + Hzbar the line through the new center only.
    """
    gram = (vec(Fraction(-1, a * b), 0, Fraction(1, a)),
            vec(0, -1, 1),
            vec(Fraction(1, a), 1, Fraction(-b, a)))
    f = vec(1, 0, 0)
    ebar = vec(0, 1, 0)
    hz = vec(0, 0, 1)
    hx = vec(b - a, 1, 1)
    anti = vec(3 * b, 2, 3)
    return SurfaceModel(
        name=f"f1-case1({a},{b})", basis=("F", "Ebar", "Hzbar"), gram=gram,
        cone=(("F", f), ("Ebar", ebar), ("Hzbar", hz), ("Hxbar", hx)),
        anticanonical=anti, classes={"F": f, "Ebar": ebar, "Hzbar": hz, "Hxbar": hx},
        exceptional="F")


def _model_f1_case2(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of F1 centered at a fixed point on E.

    Basis (F, Ebar, Lbar) with Lbar the invariant fiber through the center.
    """
    gram = (vec(Fraction(-1, a * b), Fraction(1, b), Fraction(1, a)),
            vec(Fraction(1, b), Fraction(-(a + b), b), 0),
            vec(Fraction(1, a), 0, Fraction(-b, a)))
    f = vec(1, 0, 0)
    ebar = vec(0, 1, 0)
    lbar = vec(0, 0, 1)
    anti = vec(2 * a + 3 * b, 2, 3)
    return SurfaceModel(
        name=f"f1-case2({a},{b})", basis=("F", "Ebar", "Lbar"), gram=gram,
        cone=(("F", f), ("Ebar", ebar), ("Lbar", lbar)),
        anticanonical=anti, classes={"F": f, "Ebar": ebar, "Lbar": lbar},
        exceptional="F")


def _model_blp114_case1p(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of Bl P(1,1,4) at the point of E on H_y."""
    gram = (vec(Fraction(-1, a * b), Fraction(1, b), Fraction(1, a)),
            vec(Fraction(1, b), Fraction(-(a + b), b), 0),
            vec(Fraction(1, a), 0, Fraction(-3, 4) - Fraction(b, a)))
    f = vec(1, 0, 0)
    ebar = vec(0, 1, 0)
    hy = vec(0, 0, 1)
    anti = vec(5 * a + 6 * b, 5, 6)
    return SurfaceModel(
        name=f"blp114-case1p({a},{b})", basis=("F", "Ebar", "Hybar"), gram=gram,
        cone=(("F", f), ("Ebar", ebar), ("Hybar", hy)),
        anticanonical=anti, classes={"F": f, "Ebar": ebar, "Hybar": hy,
                                     "Hzbar": vec(3 * a + 4 * b, 3, 4)},
        exceptional="F")


def _model_blp114_case2p(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of Bl P(1,1,4) at the point of E on H_z."""
    gram = (vec(Fraction(-1, a * b), Fraction(1, b), 0),
            vec(Fraction(1, b), Fraction(-(a + b), b), 1),
            vec(0, 1, Fraction(-3, 4)))
    f = vec(1, 0, 0)
    ebar = vec(0, 1, 0)
    hy = vec(0, 0, 1)
    hz = vec(3 * a - b, 3, 4)
    anti = vec(5 * a, 5, 6)
    return SurfaceModel(
        name=f"blp114-case2p({a},{b})", basis=("F", "Ebar", "Hybar"), gram=gram,
        cone=(("F", f), ("Ebar", ebar), ("Hybar", hy), ("Hzbar", hz)),
        anticanonical=anti, classes={"F": f, "Ebar": ebar, "Hybar": hy, "Hzbar": hz},
        exceptional="F")


def _model_blp114_case3p(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of P(1,1,4) at [0,1,0], pulled back to Bl P(1,1,4)."""
    gram = (vec(Fraction(-1, a * b), Fraction(1, b), 0),
            vec(Fraction(1, b), Fraction(1, 4) - Fraction(a, b), 0),
            vec(0, 0, -1))
    f = vec(1, 0, 0)
    hx = vec(0, 1, 0)
    ebar = vec(0, 0, 1)
    hy = vec(a, 1, -1)
    hz = vec(4 * a - b, 4, -1)
    anti = vec(6 * a, 6, -1)
    return SurfaceModel(
        name=f"blp114-case3p({a},{b})", basis=("F", "Hxbar", "Ebar"), gram=gram,
        cone=(("F", f), ("Hxbar", hx), ("Ebar", ebar), ("Hybar", hy), ("Hzbar", hz)),
        anticanonical=anti,
        classes={"F": f, "Hxbar": hx, "Ebar": ebar, "Hybar": hy, "Hzbar": hz},
        exceptional="F")


FIXED_MODELS = {
    "f1": _model_f1,
    "blp114": _model_blp114,
    "index3m": _model_index3m,
    "blp114-quotient-res": _model_blp114_quotient_res,
}

_WEIGHTED_MODELS = {
    "f1-case1": _model_f1_case1,
    "f1-case2": _model_f1_case2,
    "blp114-case1p": _model_blp114_case1p,
    "blp114-case2p": _model_blp114_case2p,
    "blp114-case3p": _model_blp114_case3p,
}


def builtin_surface(ident: str, a: Optional[int] = None, b: Optional[int] = None) -> SurfaceModel:
    """Builtin surface by id; weighted-blowup ids require coprime weights."""
    if ident in FIXED_MODELS:
        if a is not None or b is not None:
            raise ValueError(f"{ident} takes no weights")
        return FIXED_MODELS[ident]()
    if ident in _WEIGHTED_MODELS:
        if a is None or b is None:
            raise ValueError(f"{ident} requires weights a, b")
        check_weights(a, b)
        return _WEIGHTED_MODELS[ident](a, b)
    raise ValueError(f"unknown surface id {ident!r}")

