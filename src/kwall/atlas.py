"""Bundled wall atlas: per-wall center curves, 1-PS weights, singularity
labels, exceptional-locus dimensions and lattice-locus labels.

The lattice-side dimensions are bundled verified data, not computed here.
``dim_center`` is 1 exactly when the center equation carries a free modulus
(one ``a`` coefficient ranging over nonzero scalars), else 0.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional

from .exactnum import render_fraction
from .pairs import parse_curve


class WallBranch(NamedTuple):
    wall: Fraction
    surface: str
    curve: str
    weight: tuple[int, int, int]
    singularity: str
    dim_center: int
    e_minus_dim: Optional[int]
    nl_label: Optional[str]
    nl_dim: Optional[int]
    crossing: str = "flip"  # flip | divisorial | opening

    def to_json(self) -> dict:
        return {
            "wall": render_fraction(self.wall),
            "surface": self.surface,
            "curve": self.curve,
            "weight": list(self.weight),
            "singularity": self.singularity,
            "dim_center": self.dim_center,
            "e_minus_dim": self.e_minus_dim,
            "nl_label": self.nl_label,
            "nl_dim": self.nl_dim,
            "crossing": self.crossing,
        }


def _f(n: int, d: int) -> Fraction:
    return Fraction(n, d)


_F1_BRANCHES = [
    WallBranch(_f(1, 14), "f1", "x^4*z*y", (1, 0, 0), "A1", 0,
               None, None, None, crossing="opening"),
    WallBranch(_f(5, 58), "f1", "x^4*z^2+x^3*y^3", (0, 2, 3), "A2", 0,
               0, "NL(A2)", 17, crossing="divisorial"),
    WallBranch(_f(1, 10), "f1", "x^4*z^2+x^3*z*y^2+a*x^2*y^4", (0, 1, 2), "A3", 1,
               2, "NL(A3)", 16),
    WallBranch(_f(7, 62), "f1", "x^4*z^2+x*y^5", (0, 2, 5), "A4", 0,
               2, "NL(A4)", 15),
    WallBranch(_f(1, 8), "f1", "x^4*z^2+x^2*z*y^3+a*y^6", (0, 1, 3),
               "A5 tangent to L_z", 1, 5, "NL(A5')", 13),
    WallBranch(_f(1, 8), "f1", "x^3*z^3+a1*x^3*z^2*y+a2*x^3*z*y^2+x^3*y^3",
               (0, 1, 1), "D4", 0, 2, "NL(D4)", 15),
    WallBranch(_f(5, 34), "f1", "x^4*z^2+x*z*y^4", (0, 1, 4),
               "A7 with a line", 0, 6, "NL(A6'')", 11),
    WallBranch(_f(5, 34), "f1", "x^3*z^2*y+x^2*y^4", (0, 2, 3), "D5", 0,
               3, "NL(D5)", 14),
    WallBranch(_f(1, 6), "f1", "x^4*z^2+z*y^5", (0, 1, 5),
               "A9 with a line", 0, 8, "NL(A7''')", 9),
    WallBranch(_f(1, 6), "f1", "x^3*z^2*y+x^2*z*y^3+a*x*y^5", (0, 1, 2), "D6", 1,
               5, "NL(D6)", 13),
    WallBranch(_f(7, 38), "f1", "x^3*z^2*y+y^6", (0, 2, 5),
               "D7 tangent to L_z", 0, 6, "NL(D7')", 11),
    WallBranch(_f(7, 38), "f1", "x^3*z^3+x^2*y^4", (0, 3, 4), "E6", 0,
               4, "NL(E6)", 13),
    WallBranch(_f(1, 5), "f1", "x^3*z^2*y+x*z*y^4", (0, 1, 3),
               "D8 with L_z", 0, 7, "NL(D8')", 10),
    WallBranch(_f(5, 22), "f1", "x^3*z^2*y+z*y^5", (0, 1, 4),
               "D9 with L_z", 0, 9, "NL(D9')", 9),
    WallBranch(_f(5, 22), "f1", "x^3*z^3+x^2*z*y^3", (0, 2, 3), "E7", 0,
               5, "NL(E7)", 12),
    WallBranch(_f(2, 7), "f1", "x^3*z^3+x*y^5", (0, 3, 5), "E8", 0,
               6, "NL(E8)", 11),
]

_BLP114_BRANCHES = [
    WallBranch(_f(29, 106), "blp114", "z^3+z^2*x^4", (1, 0, 4), "A1", 0,
               0, "NL(U1)", 17, crossing="divisorial"),
    WallBranch(_f(31, 110), "blp114", "z^3+z*y*x^7", (2, 0, 7),
               "A1 with a tangent line", 0, 2, "NL(U2')", 15),
    WallBranch(_f(2, 7), "blp114", "z^3+y^2*x^10", (3, 0, 10),
               "A2 with a tangent line", 0, 3, "NL(U3')", 14),
    WallBranch(_f(35, 118), "blp114", "z^3+z*y^2*x^6+y^3*x^9", (1, 0, 3),
               "D4 with a tangent line", 0, 4, "NL(U4'')", 12),
]

ATLAS_VERSION = 1

# branches whose dimension bookkeeping is known consistent (asserted zero)
AUDIT_VERIFIED = {
    ("f1", _f(1, 10), "NL(A3)"), ("f1", _f(7, 62), "NL(A4)"),
    ("f1", _f(1, 8), "NL(A5')"), ("f1", _f(1, 8), "NL(D4)"),
    ("f1", _f(5, 34), "NL(A6'')"), ("f1", _f(5, 34), "NL(D5)"),
    ("f1", _f(1, 6), "NL(A7''')"), ("f1", _f(1, 6), "NL(D6)"),
    ("f1", _f(7, 38), "NL(D7')"), ("f1", _f(7, 38), "NL(E6)"),
    ("f1", _f(1, 5), "NL(D8')"), ("f1", _f(5, 22), "NL(E7)"),
    ("f1", _f(2, 7), "NL(E8)"),
}


class WallAtlas(NamedTuple):
    branches: tuple[WallBranch, ...] = (*_F1_BRANCHES, *_BLP114_BRANCHES)
    version: int = ATLAS_VERSION

    def walls(self, surface: str) -> list[Fraction]:
        return sorted({b.wall for b in self.branches if b.surface == surface})

    def for_surface(self, surface: str) -> list[WallBranch]:
        return [b for b in self.branches if b.surface == surface]

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "branches": [b.to_json() for b in self.branches],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False) + "\n"


def bundled_atlas() -> WallAtlas:
    return WallAtlas()


class AtlasFormatError(ValueError):
    """An atlas document that is not valid JSON or lacks a required field."""


def atlas_from_json(data: dict) -> WallAtlas:
    """An atlas from its JSON form; every center curve must parse on its surface."""
    try:
        branches = []
        for row in data["branches"]:
            branches.append(WallBranch(
                wall=Fraction(row["wall"]),
                surface=row["surface"],
                curve=row["curve"],
                weight=tuple(row["weight"]),
                singularity=row["singularity"],
                dim_center=row["dim_center"],
                e_minus_dim=row["e_minus_dim"],
                nl_label=row["nl_label"],
                nl_dim=row["nl_dim"],
                crossing=row.get("crossing", "flip"),
            ))
        for k, branch in enumerate(branches):
            try:
                parse_curve(branch.curve, branch.surface)
            except ValueError as exc:
                raise AtlasFormatError(
                    f"branch {k}: center curve {branch.curve!r} on "
                    f"{branch.surface}: {exc}") from exc
        return WallAtlas(tuple(branches), version=data.get("version", 0))
    except AtlasFormatError:
        raise
    except KeyError as exc:
        raise AtlasFormatError(f"atlas field {exc.args[0]!r} is missing") from exc
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise AtlasFormatError(f"malformed atlas: {exc}") from exc


def load_atlas(path: Optional[str] = None) -> WallAtlas:
    """Bundled atlas, or an override from a JSON file."""
    if path is None:
        import os
        path = os.environ.get("KWALL_ATLAS")
    if path is None:
        return bundled_atlas()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AtlasFormatError(f"{path}: not valid JSON ({exc})") from exc
    return atlas_from_json(data)


def diff_atlas(a: WallAtlas, b: WallAtlas) -> list[str]:
    """Human-readable differences between two atlases (empty if identical)."""
    out = []
    aj = {(x["surface"], x["wall"], x.get("nl_label")): x for x in a.to_json()["branches"]}
    bj = {(x["surface"], x["wall"], x.get("nl_label")): x for x in b.to_json()["branches"]}
    for key in sorted(set(aj) | set(bj), key=str):
        if key not in aj:
            out.append(f"extra branch {key}")
        elif key not in bj:
            out.append(f"missing branch {key}")
        elif aj[key] != bj[key]:
            out.append(f"branch {key} differs: {aj[key]} != {bj[key]}")
    return out
