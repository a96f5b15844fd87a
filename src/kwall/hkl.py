"""Parameter transforms between the wall-crossing coefficient and the
lattice-model / cone-construction coordinates, plus the
exceptional-dimension audit of the wall atlas.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .atlas import AUDIT_VERIFIED, WallAtlas, bundled_atlas
from .exactnum import render_fraction
from .pairs import PLANES

POLE = "pole"

# predicted parameter values 1/n on the lattice side
PREDICTED_INVERSES = (1, 2, 3, 4, 6, 8, 10, 12, 16, 25, 27, 28, 31)


def hkl_param(c: Union[Fraction, int, str]) -> Union[Fraction, str]:
    """s(c) = (1-2c)/(56c-4); exact, with a pole marker at c = 1/14."""
    c = Fraction(c)
    den = 56 * c - 4
    if den == 0:
        return POLE
    return (1 - 2 * c) / den


def cone_threshold(c: Union[Fraction, int, str]) -> Fraction:
    """(4c+1)/3: the coefficient transform of the cone construction."""
    return (4 * Fraction(c) + 1) / 3


# printed threshold families of the cone construction
CONE_FAMILY_F1 = tuple(Fraction(11 + n, 27 + n) for n in range(1, 6)) + tuple(
    Fraction(3 + n, 11 + n) for n in (6, 7, 8, 9, 11))
CONE_FAMILY_BLP114 = tuple(Fraction(36 + m, 52 + m) for m in (1, 3, 4, 7))


class HklPlane(NamedTuple):
    """What the parameter transforms say about one plane's walls: the report
    key of their images under s(c), the printed cone family of their images
    under (4c+1)/3, and the walls whose cone image that family omits."""

    images: str
    cone_family: tuple[Fraction, ...]
    unlisted: tuple[Fraction, ...] = ()


HKL_PLANES = {"f1": HklPlane("hyperelliptic_images", CONE_FAMILY_F1, (Fraction(2, 7),)),
              "blp114": HklPlane("unigonal_images", CONE_FAMILY_BLP114)}


def map_walls(atlas: Optional[WallAtlas] = None) -> dict:
    """Image of every wall under s(c), checked against the predicted set."""
    atlas = atlas or bundled_atlas()
    report: dict = {"pole": None, "images": {}, "match": True, "diffs": []}
    predicted = sorted(Fraction(1, n) for n in PREDICTED_INVERSES)
    images: list[Fraction] = []
    for surface in PLANES:
        rows = []
        for w in atlas.walls(surface):
            s = hkl_param(w)
            if s == POLE:
                report["pole"] = render_fraction(w)
                rows.append({"wall": render_fraction(w), "s": POLE})
                continue
            images.append(s)
            rows.append({"wall": render_fraction(w), "s": render_fraction(s),
                         "inverse_n": s.denominator if s.numerator == 1 else None})
        report["images"][surface] = rows
    multiset = sorted(images)
    expected_multiset = sorted(predicted + [Fraction(1, 28)])  # 1/28 is hit twice
    if multiset != expected_multiset:
        report["match"] = False
        report["diffs"] = [
            f"images {sorted(map(str, multiset))} != predicted "
            f"{sorted(map(str, expected_multiset))}"]
    report["predicted"] = [f"1/{n}" for n in PREDICTED_INVERSES]
    for surface, rows in report["images"].items():
        report[HKL_PLANES[surface].images] = sorted(
            (row["s"] for row in rows if row["s"] != POLE), key=Fraction, reverse=True)
    return report


def cone_report(atlas: Optional[WallAtlas] = None) -> dict:
    """Images of all walls under (4c+1)/3 versus the printed families."""
    atlas = atlas or bundled_atlas()
    rows = []
    ok = True
    for surface in PLANES:
        hkl = HKL_PLANES[surface]
        for w in atlas.walls(surface):
            img = cone_threshold(w)
            listed = img in hkl.cone_family
            rows.append({
                "surface": surface,
                "wall": render_fraction(w),
                "image": render_fraction(img),
                "listed": listed,
                "note": "" if listed else "image not in the printed families",
            })
            if not listed and w not in hkl.unlisted:
                ok = False
    covered = {Fraction(r["image"]) for r in rows if r["listed"]}
    missing = [render_fraction(v) for surface in PLANES
               for v in HKL_PLANES[surface].cone_family if v not in covered]
    return {"rows": rows, "families_covered": not missing, "missing": missing,
            "match": ok and not missing}


# ---------------------------------------------------------------------------
# dimension audit


def audit_dim_formula(atlas: Optional[WallAtlas] = None) -> dict:
    """Residual of dim E^- + dim E^+ = 17 + dim Z per wall branch."""
    atlas = atlas or bundled_atlas()
    rows = []
    verified_ok = True
    for b in atlas.branches:
        if b.e_minus_dim is None or b.nl_dim is None:
            rows.append({"surface": b.surface, "wall": render_fraction(b.wall),
                         "branch": b.nl_label or b.singularity,
                         "residual": None, "note": "no exceptional data"})
            continue
        residual = b.e_minus_dim + b.nl_dim - 17 - b.dim_center
        verified = (b.surface, b.wall, b.nl_label) in AUDIT_VERIFIED
        note = ""
        if residual != 0:
            note = "anomaly (reported, not asserted)"
        if verified and residual != 0:
            verified_ok = False
            note = "VERIFIED BRANCH FAILED"
        rows.append({"surface": b.surface, "wall": render_fraction(b.wall),
                     "branch": b.nl_label, "e_minus": b.e_minus_dim,
                     "e_plus": b.nl_dim, "dim_center": b.dim_center,
                     "residual": residual, "note": note})
    anomalies = [r for r in rows if r["residual"] not in (0, None)]
    return {"rows": rows, "verified_ok": verified_ok,
            "anomalies": [f"{r['surface']} {r['wall']} {r['branch']}: "
                          f"residual {r['residual']}" for r in anomalies]}
