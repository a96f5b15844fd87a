"""Rational-lattice surface models: intersection form, effective-cone data,
separating nef classes for classes that are not pseudo-effective, and exact
Zariski decomposition.

A model fixes a basis of the Neron-Severi lattice, the Gram matrix of the
intersection form, a list of effective curve classes that span the effective
cone (every negative class among them generates an extremal ray), the
anticanonical class and a few named divisor classes.

Every builtin model but ``index3m`` is toric: the plane models ``f1`` and
``blp114`` of :data:`kwall.pairs.FAN`, the five chart kinds and
``blp114-quotient-res``.  ``_toric_model`` builds each from the rays u_i of
its fan in counter-clockwise order (Fulton, *Introduction to Toric
Varieties*, 1993, section 5; Cox-Little-Schenck, *Toric Varieties*, 2011,
chapter 10):

* D_i^2 = -det(u_{i-1}, u_{i+1}) / (det(u_{i-1}, u_i) det(u_i, u_{i+1})),
  D_i.D_{i+1} = 1 / det(u_i, u_{i+1}), and 0 for rays that are not neighbours;
* a non-basis D_j = -sum_i det(u_i, u_k) / det(u_j, u_k) D_i over the basis,
  with u_k the other non-basis ray (sum <m, u_i> D_i = 0 at <m, u> = det(u, u_k));
* a ray F = (a u + b v) / det(u, v) inserted into the cone (u, v) has log
  discrepancy A = (a + b) / det(u, v), and the plane's -K pulls back to
  sum D_i + (A - 1) F.  A chart kind inserts F = a u + b v into the smooth
  centre of its first chart family, the quotient resolution F = (u + v) / 4
  into the quarter point's cone, a 1/4(1,1) point.

``index3m`` is entered by hand: its four generators are not a boundary cycle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .exactnum import render_fraction
from .pairs import CHART_FAMILIES, FAN, PLANES, check_weights

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
    return tuple([_vec_entry(e) for e in entries])


def _vec_entry(e) -> Fraction:
    # a Fraction entry is kept as it is, neither copied by Fraction(e) nor
    # hashed (a modular inverse of its denominator) to look it up
    if type(e) is Fraction:
        return _SMALL.get(e.numerator, e) if e.denominator == 1 else e
    x = _SMALL.get(e)
    return Fraction(e) if x is None else x


def solve_linear(rows: Sequence[Sequence[int]], *rhs: Sequence[int],
                 negative_definite: bool = False) -> Optional[tuple]:
    """Solve the square integer system ``rows x = b`` for every right-hand
    side ``b`` by one fraction-free Gauss-Jordan elimination of
    ``[rows | b_1 ... b_k]``.

    Returns ``(det, x_1, ..., x_k)``: ``det = |det rows| > 0`` and integer
    numerators ``x_k`` with ``rows (x_k / det) = b_k``; None when ``rows`` is
    singular.

    With ``negative_definite`` the symmetric ``rows`` must also be negative
    definite, or None is returned.  The elimination then makes no row swap,
    so its pivots are the leading principal minors (Sylvester's identity)
    and the criterion reads their signs; a block that would need a swap has
    a zero leading minor.  On a negative definite block no swap is ever
    needed, so both modes return the same solution.
    """
    n = len(rows)
    aug = [list(row) + [b[r] for b in rhs] for r, row in enumerate(rows)]
    pivots = _eliminate(aug, n, swap=not negative_definite)
    if len(pivots) != n or (negative_definite and not _alternating(pivots)):
        return None
    det = pivots[-1][1] if pivots else 1
    sign = 1 if det > 0 else -1
    return (sign * det, *([sign * row[n + k] for row in aug] for k in range(len(rhs))))


class NotPseudoEffectiveError(ValueError):
    """Input class lies outside the effective cone."""

    def __init__(self, message: str, separating: Optional[tuple[str, Vec]] = None):
        super().__init__(message)
        self.separating = separating


class ZariskiDecomposition(NamedTuple):
    positive: Vec
    negative_support: tuple[tuple[str, Fraction], ...]

    @property
    def support_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.negative_support)


class ConeRecord(NamedTuple):
    """The integer intersection data of one model that no class changes:
    built on first use, once per model, and then only read.  Its readers
    are ``intersect`` (the form), the Zariski iteration (form, generators
    and their Gram matrix, with no table between), ``pairing_table`` (the
    volume sweep's two classes) and the separating-class scan.

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
    shared small Fractions of ``vec``.  The nef rays the scan finds are not
    cached either: a per-model cache of them gave the same outputs but
    raised the benchmark's peak RSS from 24.93 to 25.9 MB, and on 10 s runs
    its ``req_p99_s`` from 139 to 201 us, since each of the 1,389 models
    fills it on first use and those calls land in the slowest 1%.
    """

    scale: int
    form: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]


class PairingTable(NamedTuple):
    """Integer intersection numbers of the cone generators ``C_j`` and of a
    few extra classes ``v_k``: what ``volume.volume_profile`` sweeps, for
    its origin and direction.  The Zariski iteration reads the model's
    ``ConeRecord`` directly and builds no table.

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


class _ModelFields(NamedTuple):
    name: str
    basis: tuple[str, ...]
    gram: Mat
    cone: tuple[tuple[str, Vec], ...]
    anticanonical: Vec
    classes: Mapping[str, Vec] = MappingProxyType({})
    exceptional: Optional[str] = None


class SurfaceModel(_ModelFields):
    """An immutable model record (see the module docstring).  Unlike a bare
    ``NamedTuple`` it has an instance ``__dict__``: ``_cone_record`` is
    cached there on first use, and every attribute assignment is refused."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

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
        return Fraction(_dot(a, [_dot(row, b) for row in rec.form]), rec.scale * da * db)

    def self_intersection(self, d: Vec) -> Fraction:
        return self.intersect(d, d)

    def cone_class(self, key: str) -> Vec:
        for name, c in self.cone:
            if name == key:
                return c
        if key in self.classes:
            return self.classes[key]
        raise KeyError(f"{self.name}: no class named {key!r}")

    def _separating_nef_class(self, d: Vec, image: list[int]) -> Optional[tuple[str, Vec]]:
        """A nef class w with w.d < 0, certifying d not pseudo-effective.

        The scan is complete by Farkas when the cone generators span the
        lattice and the form is nondegenerate: an extremal ray of the nef
        cone is then perpendicular to rank - 1 independent generators, and
        every such perpendicular is tried.  So None means d is
        pseudo-effective.

        Every sign of the scan is an integer's: image j is a positive
        multiple of C_j.e_b over the basis, and ``image`` (``rec.form`` times
        ``nums`` for ``(den, nums) = _integer_parts(d)``, as
        ``zariski_decompose`` passes it) one of d.e_b, so w.C_j and w.d have
        the signs of dot products with w's numerators.  The certificate alone
        is then checked apart from the scan's data: re-scaled from its own
        Fractions and taken once through the form, it must pair nonnegatively
        with every row of ``rec.gens``, and one ``intersect`` must find it
        negative on d.
        """
        rec = self._cone_record
        images = _images(rec.form, rec.gens)
        for subset in combinations(range(len(images)), self.rank() - 1):
            # w = sum w_b e_b solves w.C_i = 0 on the subset
            kernel = _kernel_vector([images[i] for i in subset])
            if kernel is None:
                continue
            den, w = kernel
            # at most one of w and -w pairs negatively with d: try that one
            side = _dot(w, image)
            sign = -1 if side > 0 else 1
            if side and all(sign * _dot(w, g) >= 0 for g in images):
                cand = tuple(Fraction(sign * x, den) for x in w)
                nums = _integer_parts(cand)[1]
                dual = [_dot(row, nums) for row in rec.form]
                if (any(_dot(dual, g) < 0 for g in rec.gens)
                        or self.intersect(cand, d) >= 0):
                    raise ArithmeticError(
                        f"{self.name}: separating class {fmt_vec(cand)} fails its rational check")
                return "perp(" + ",".join(self.cone[i][0] for i in subset) + ")", cand
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
        if len(d) != len(self.basis):
            raise ValueError(f"{self.name}: dimension mismatch")
        # the image is formed here and the record handed on: a helper call
        # and a second lookup of the record in the iteration cost each
        # decomposition about 0.4 us of 25 (in process, on the zariski
        # benchmark's stream)
        rec = self._cone_record
        den, nums = _integer_parts(d)
        image = [_dot(row, nums) for row in rec.form]
        try:
            return self._zariski_iteration(rec, den, nums, image)
        except ArithmeticError:
            sep = self._separating_nef_class(d, image)
            if sep is None:
                raise
        raise NotPseudoEffectiveError(
            f"{self.name}: class not pseudo-effective; nef class "
            f"{sep[0]} = {fmt_vec(sep[1])} pairs negatively", sep)

    def _zariski_iteration(self, rec: ConeRecord, den: int, nums: tuple[int, ...],
                           image: list[int]) -> ZariskiDecomposition:
        """Grow the support by the generators P meets negatively until none is
        left, over the integer pairings of d with the cone record ``rec``.

        ``(den, nums)`` is ``_integer_parts(d)`` and ``image`` is
        ``rec.form`` times ``nums``, so ``dc[j] = scale * den * dens[j] *
        d.C_j``; with ``gram x = dc`` on a support and ``x = u / det``, ``det
        * dc[j] - sum_i u_i gram[i][j]`` is ``det * scale * den * dens[j]``
        times P.C_j.
        """
        gram, gens = rec.gram, rec.gens
        dc = [_dot(image, g) for g in gens]
        support = [j for j, v in enumerate(dc) if v < 0]
        for _ in range(len(dc) + 2):
            # every support grown for a pseudo-effective class is negative
            # definite (Bauer), so one swap-free elimination both solves the
            # step and certifies its block
            sol = solve_linear([[gram[i][j] for j in support] for i in support],
                               [dc[i] for i in support],
                               negative_definite=True) if support else (1, [])
            if sol is None:
                raise ArithmeticError(
                    f"{self.name}: support Gram block not negative definite")
            det, coeffs = sol
            violated = [j for j, row in enumerate(gram) if j not in support
                        and det * dc[j] < sum(map(mul, coeffs, [row[i] for i in support]))]
            if not violated:
                if any(u < 0 for u in coeffs):
                    raise ArithmeticError(
                        f"{self.name}: negative Zariski coefficient; cone data inconsistent")
                # N = sum dens_i * u_i / (det * den) C_i and P = d - N
                den *= det
                p = [det * x for x in nums]
                for i, u in zip(support, coeffs):
                    if u:
                        p = [x - u * g for x, g in zip(p, gens[i])]
                negative = tuple((self.cone[i][0], Fraction(rec.dens[i] * u, den))
                                 for i, u in zip(support, coeffs) if u)
                return ZariskiDecomposition(
                    positive=tuple(Fraction(x, den) for x in p), negative_support=negative)
            support = sorted(support + violated)
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
    """``(den, nums)`` with ``v[i] == nums[i] / den`` and ``den`` the lcm of
    the denominators; an integer vector (``den == 1``) is read off directly."""
    den = lcm(*[x.denominator for x in v])
    if den == 1:
        return 1, tuple([x.numerator for x in v])
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


def _alternating(pivots: list[tuple[int, int]]) -> bool:
    """Sylvester's criterion on the pivots of a swap-free elimination of a
    symmetric block, its leading principal minors: signs -, +, -, ... mean
    negative definite."""
    return all((p < 0) == (k % 2 == 0) for k, (_, p) in enumerate(pivots))


def _kernel_vector(rows: list[list[int]]) -> Optional[tuple[int, tuple[int, ...]]]:
    """A nonzero rational vector orthogonal to the given integer row
    functionals, the first free column set to 1 and the other free columns
    to 0, as ``(den, nums)``: ``den > 0`` and the vector is ``nums / den``."""
    if not rows:
        return None
    n = len(rows[0])
    m = [list(r) for r in rows]
    pivots = _eliminate(m, n)
    cols = [c for c, _ in pivots]
    free = [c for c in range(n) if c not in cols]
    if not free:
        return None
    # pivot row r is its reduced row times the last pivot
    last = pivots[-1][1] if pivots else 1
    sign = 1 if last > 0 else -1
    sol = [0] * n
    sol[free[0]] = sign * last
    for r, c in enumerate(cols):
        sol[c] = -sign * m[r][free[0]]
    return sign * last, tuple(sol)


# ---------------------------------------------------------------------------
# builtin models

# the rays of both plane fans (kwall.pairs.FAN), counter-clockwise
_CYCLE = ("H_x", "H_z", "E", "H_y")

# the ray of each label that is not a ray's name: F is the inserted ray, and a
# chart's strict transform Xbar the ray of X
_RAY = {"H": "H_x", "fiber": "H_y", "Lbar": "H_y", "Ebar": "E",
        "Hxbar": "H_x", "Hybar": "H_y", "Hzbar": "H_z"}

# id -> plane and the labels of the basis, the cone generators and the named
# classes, in the model's order
_TORIC_LABELS = {
    "f1": ("f1", "H E", "E fiber", "H_x H_y H_z E H"),
    "blp114": ("blp114", "H_y E", "H_y E", "H_y E H_x H_z"),
    "blp114-quotient-res": ("blp114", "F E H_y", "F E H_y", "F E H_y"),
    "f1-case1": ("f1", "F Ebar Hzbar", "F Ebar Hzbar Hxbar", "F Ebar Hzbar Hxbar"),
    "f1-case2": ("f1", "F Ebar Lbar", "F Ebar Lbar", "F Ebar Lbar"),
    "blp114-case1p": ("blp114", "F Ebar Hybar", "F Ebar Hybar", "F Ebar Hybar Hzbar"),
    "blp114-case2p": ("blp114", "F Ebar Hybar", "F Ebar Hybar Hzbar", "F Ebar Hybar Hzbar"),
    "blp114-case3p": ("blp114", "F Hxbar Ebar", "F Hxbar Ebar Hybar Hzbar",
                      "F Hxbar Ebar Hybar Hzbar"),
}

# the cone (D1, D2) of each model's inserted ray F: the quarter point's cone
# for its resolution, and for a chart kind the centre of its first family
# (iterating in reverse, the first family is written last)
_CENTRES = {"blp114-quotient-res": PLANES["blp114"].quarter_cone,
            **{fam.model_kind: fam.divisors for fam in reversed(CHART_FAMILIES.values())}}


def _resolve(ident: str) -> tuple:
    """The labels of ``ident`` resolved against its fan, once: the plane's
    rays in counter-clockwise order; (u, v, at) when F goes into the cone
    (u, v) as ray ``at``, else None; the basis labels; each basis ray, in
    basis order, to its unit vector; (s, t, i) for neighbouring basis rays,
    whose pairing is 1 / det(u_i, u_i+1); the non-basis rays (j, k); (j, k)
    or (k, j) for each labelled non-basis ray; and (label, ray) of each cone
    generator and named class.  A ray index counts F in place."""
    plane, *names = _TORIC_LABELS[ident]
    basis, cone, classes = (x.split() for x in names)
    fan, cycle, centre = FAN[plane], list(_CYCLE), None
    if ident in _CENTRES:
        d1, d2 = _CENTRES[ident]
        lo, hi = sorted([cycle.index(d1), cycle.index(d2)])
        at = hi if hi - lo == 1 else len(cycle)  # between neighbours, or after the last ray
        cycle.insert(at, "F")
        centre = (fan[d1], fan[d2], at)
    index = {x: cycle.index(_RAY.get(x, x)) for x in basis + cone + classes}
    ibasis, n = [index[x] for x in basis], len(cycle)
    j, k = [i for i in range(n) if i not in ibasis]
    labelled = {index[x] for x in cone + classes}
    return (
        tuple(fan[d] for d in _CYCLE), centre, tuple(basis),
        {r: vec(*[int(r == c) for c in ibasis]) for r in ibasis},
        [(s, t, r if (c - r) % n == 1 else c) for s, r in enumerate(ibasis)
         for t, c in enumerate(ibasis) if s < t and (c - r) % n in (1, n - 1)],
        (j, k), [(p, q) for p, q in ((j, k), (k, j)) if p in labelled],
        [(x, index[x]) for x in cone], [(x, index[x]) for x in classes])


_TORIC = {ident: _resolve(ident) for ident in _TORIC_LABELS}


def _det(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _ratio(num: int, den: int):
    """num / den as an int when it is one, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _toric_model(ident: str, a: Optional[int] = None, b: Optional[int] = None) -> SurfaceModel:
    """The toric model ``ident``, at weights (a, b) for a chart kind, by the
    formulas of the module docstring."""
    rays, centre, labels, units, neighbours, (j, k), named, cone, classes = _TORIC[ident]
    rays, shift = list(rays), 0
    if centre is not None:
        u, v, at = centre
        wa, wb = (1, 1) if a is None else (a, b)
        d = abs(_det(u, v))
        rays.insert(at, ((wa * u[0] + wb * v[0]) // d, (wa * u[1] + wb * v[1]) // d))
        shift = _ratio(wa + wb - d, d)  # A - 1
    n = len(rays)
    dets = [_det(rays[i], rays[(i + 1) % n]) for i in range(n)]  # det(u_i, u_i+1)
    basis = list(units)
    gram = [[0] * len(basis) for _ in basis]
    for s, i in enumerate(basis):
        gram[s][s] = _ratio(-_det(rays[i - 1], rays[(i + 1) % n]), dets[i - 1] * dets[i])
    for s, t, i in neighbours:
        gram[s][t] = gram[t][s] = _ratio(1, dets[i])
    vecs = dict(units)
    for p, q in named:
        den = _det(rays[p], rays[q])
        vecs[p] = vec(*[_ratio(-_det(rays[i], rays[q]), den) for i in basis])
    # sum D_i = the basis rays + D_j + D_k, and D_j + D_k has coordinates
    # det(u_i, u_j - u_k) / det(u_j, u_k) by the class formula
    den, diff = _det(rays[j], rays[k]), (rays[j][0] - rays[k][0], rays[j][1] - rays[k][1])
    anti = [_ratio(den + _det(rays[i], diff), den) for i in basis]
    if shift:  # F is a basis ray of every model that inserts it
        anti[basis.index(at)] += shift
    return SurfaceModel(
        name=ident if a is None else f"{ident}({a},{b})", basis=labels,
        gram=tuple([vec(*row) for row in gram]), cone=tuple([(x, vecs[i]) for x, i in cone]),
        anticanonical=vec(*anti), classes={x: vecs[i] for x, i in classes},
        exceptional="F" if centre else None)


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


FIXED_MODELS = {
    "f1": partial(_toric_model, "f1"),
    "blp114": partial(_toric_model, "blp114"),
    "index3m": _model_index3m,
    "blp114-quotient-res": partial(_toric_model, "blp114-quotient-res"),
}


def builtin_surface(ident: str, a: Optional[int] = None, b: Optional[int] = None) -> SurfaceModel:
    """Builtin surface by id; weighted-blowup ids require coprime weights."""
    if ident in FIXED_MODELS:
        if a is not None or b is not None:
            raise ValueError(f"{ident} takes no weights")
        return FIXED_MODELS[ident]()
    if ident in _CENTRES:  # a chart kind: the quotient resolution is fixed
        if a is None or b is None:
            raise ValueError(f"{ident} requires weights a, b")
        check_weights(a, b)
        return _toric_model(ident, a, b)
    raise ValueError(f"unknown surface id {ident!r}")
