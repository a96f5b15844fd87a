"""Output checks that do not trust the code under test.

Wall lists and grid thresholds are compared with the published tables.  A
Zariski decomposition is checked against its defining properties, with every
intersection number computed here from the model's public ``gram`` matrix and
``cone`` generators, never through ``SurfaceModel.intersect``.  Each check
returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import F1_ATLAS

PUBLISHED_WALLS = {
    "f1": ["1/14", "5/58", "1/10", "7/62", "1/8", "5/34", "1/6", "7/38", "1/5",
           "5/22", "2/7"],
    "blp114": ["29/106", "31/110", "2/7", "35/118"],
}
# candidates beyond the published tables that the exact engine reports
AUDIT_EXTRA = {"f1": set(), "blp114": {"41/130", "47/142", "59/166"}}
ATLAS_WALL = dict(F1_ATLAS)

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _json(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_walls(stdout: bytes) -> list[str]:
    payload = _json(stdout)
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    problems = []
    walls = payload.get("walls", {})
    for surface, expected in PUBLISHED_WALLS.items():
        if walls.get(surface) != expected:
            problems.append(f"{surface} walls {walls.get(surface)} != published {expected}")
    extra = payload.get("audit_extra", {})
    for surface, expected in AUDIT_EXTRA.items():
        got = {rec.get("w") for rec in extra.get(surface, [])}
        if got != expected or len(extra.get(surface, [])) != len(expected):
            problems.append(f"{surface} audit_extra {sorted(got)} != {sorted(expected)}")
    return problems


def check_grid(curve: str, stdout: bytes) -> list[str]:
    payload = _json(stdout)
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    thr = payload.get("threshold", {})
    want = ATLAS_WALL[curve]
    got = (thr.get("classification"), thr.get("lower"), thr.get("upper"))
    if got != ("point", want, want):
        return [f"{curve}: threshold {got} != ('point', {want}, {want})"]
    return []


# -- zariski ------------------------------------------------------------------


def render_zariski(z) -> str:
    """Canonical text of a decomposition, the zariski workload's stdout."""
    return json.dumps({"P": [str(x) for x in z.positive],
                       "N": [[name, str(x)] for name, x in z.negative_support]},
                      separators=(",", ":"))


def render_not_psef(exc) -> str:
    sep = exc.separating
    cert = None if sep is None else [sep[0], [str(x) for x in sep[1]]]
    return json.dumps({"not_psef": cert}, separators=(",", ":"))


def _det(rows) -> Fraction:
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


class _ModelData:
    """A model's generators with their pairing rows G*c, computed from ``gram``."""

    def __init__(self, model) -> None:
        gram = model.gram
        n = len(gram)
        self.gens = dict(model.cone)
        self.rows = {name: tuple(_dot(gram[i], c) for i in range(n))
                     for name, c in self.gens.items()}

    def pair_all(self, u) -> dict:
        """u.C for every cone generator C."""
        return {name: _dot(u, row) for name, row in self.rows.items()}


class ZariskiChecker:
    """Checks zariski_decompose outcomes; keeps each model's pairing rows."""

    def __init__(self) -> None:
        self._data: dict[int, _ModelData] = {}

    def _model(self, model) -> _ModelData:
        data = self._data.get(id(model))
        if data is None:
            data = self._data[id(model)] = _ModelData(model)
        return data

    def check(self, model, d, negated: bool, out: str) -> list[str]:
        """Problems with one outcome for the class ``d``; empty if it is right."""
        m = self._model(model)
        try:
            res = json.loads(out)
        except ValueError:
            return [f"unparsable result {out[:80]!r}"]
        if "not_psef" in res:
            if not negated:
                return ["pseudo-effective class rejected"]
            cert = res["not_psef"]
            if cert is None:
                return ["rejection carries no separating nef class"]
            w = [Fraction(x) for x in cert[1]]
            problems = [f"certificate {cert[0]} is not nef against {name}"
                        for name, x in m.pair_all(w).items() if x < 0]
            if _dot(w, [_dot(row, d) for row in model.gram]) >= 0:
                problems.append(f"certificate {cert[0]} does not pair negatively with D")
            return problems
        if negated:
            return ["class outside the effective cone was decomposed"]
        if set(res) != {"P", "N"}:
            return [f"unexpected result keys {sorted(res)}"]
        p = [Fraction(x) for x in res["P"]]
        support = [(name, Fraction(x)) for name, x in res["N"]]
        names = [name for name, _ in support]
        if len(set(names)) != len(names) or any(n not in m.gens for n in names):
            return [f"negative part names {names} are not distinct cone generators"]
        problems = []
        total = list(p)
        for name, x in support:
            if x <= 0:
                problems.append(f"coefficient of {name} is {x}, not positive")
            total = [t + x * c for t, c in zip(total, m.gens[name])]
        if total != list(d):
            problems.append("D != P + sum x_i N_i")
        p_dot = m.pair_all(p)
        problems += [f"P is not nef against {name}" for name, x in p_dot.items() if x < 0]
        problems += [f"P.{name} != 0" for name in names if p_dot[name] != 0]
        block = [[_dot(m.gens[a], m.rows[b]) for b in names] for a in names]
        for k in range(1, len(block) + 1):
            minor = _det([row[:k] for row in block[:k]])
            if minor == 0 or (minor > 0) != (k % 2 == 0):
                problems.append("Gram(N) is not negative definite")
                break
        return problems
