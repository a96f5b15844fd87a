"""Command-line interface.

Every run is deterministic given its inputs; all numbers are rendered in the
exact canonical text form ("p/q", "p/q*sqrt(d)"), never as floats.  The
optional ``--approx N`` column is computed by exact interval refinement.

Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .atlas import AtlasFormatError, bundled_atlas, diff_atlas, load_atlas
from .exactnum import render_fraction, render_surd
from .hkl import audit_dim_formula, cone_report, map_walls
from .pairs import CurveSyntaxError, DegenerateWeightError, parse_curve, onePS_to_chart
from .stability import (
    TORIC_DIVISORS,
    audit_extra_walls,
    beta_chart,
    beta_toric,
    enumerate_walls,
    index3_certificate,
    quotient_point_certificate,
    threshold,
)
from .surface import NotPseudoEffectiveError, builtin_ids, builtin_surface, vec
from .volume import (
    BLP114_CHART_TAGS,
    ChartCase,
    F1_CHART_TAGS,
    s_closed_form,
    s_engine,
    volume_profile,
)


class CheckFailure(Exception):
    pass


class UsageError(Exception):
    """Bad input found after parsing, such as an unreadable or malformed file; exit 2."""


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _weights(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("weights must be three comma-separated integers")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _bound(text: str) -> int:
    try:
        bound = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if bound < 12:
        raise argparse.ArgumentTypeError("grid bound must be at least 12")
    return bound


def _load_curve_arg(text: str, surface: str):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read curve file {text[1:]!r}: {exc}") from exc
    return parse_curve(text, surface)


def _load_atlas_arg(path: Optional[str]):
    try:
        return load_atlas(path)
    except (OSError, UnicodeDecodeError, AtlasFormatError) as exc:
        raise UsageError(f"cannot load atlas: {exc}") from exc


def _emit(payload: dict, rows: Optional[list[dict]], fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
        return
    if rows is None:
        rows = [payload]
    if not rows:
        stream.write("(no rows)\n")
        return
    headers = list(rows[0].keys())
    if fmt == "csv":
        import csv as _csv

        writer = _csv.writer(stream, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([row.get(h, "") for h in headers])
        return
    if fmt == "md":
        stream.write("| " + " | ".join(headers) + " |\n")
        stream.write("|" + "|".join(["---"] * len(headers)) + "|\n")
        for row in rows:
            stream.write("| " + " | ".join(str(row.get(h, "")) for h in headers) + " |\n")
        return
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_walls(args, out) -> int:
    surfaces = ["f1", "blp114"] if args.surface == "all" else [args.surface]
    atlas = _load_atlas_arg(args.atlas)
    rows = []
    payload: dict = {"walls": {}}
    for surface in surfaces:
        records = enumerate_walls(surface)
        confirmed = sorted({r.candidate.w for r in records if r.confirmed})
        payload["walls"][surface] = [render_fraction(w) for w in confirmed]
        for w in confirmed:
            centers = [b.curve for b in atlas.for_surface(surface) if b.wall == w]
            weights = [",".join(map(str, b.weight)) for b in atlas.for_surface(surface)
                       if b.wall == w]
            rows.append({
                "wall": render_fraction(w),
                "surface": surface,
                "center_curves": "; ".join(centers),
                "weights": "; ".join(weights),
                "realizations": sum(1 for r in records
                                    if r.confirmed and r.candidate.w == w),
            })
    if args.audit_extra:
        payload["audit_extra"] = {}
        for surface in surfaces:
            extras = audit_extra_walls(surface)
            payload["audit_extra"][surface] = [r.to_json() for r in extras]
            for r in extras:
                rows.append({
                    "wall": render_fraction(r.candidate.w),
                    "surface": surface,
                    "center_curves": r.candidate.to_json()["curve"] + " [beyond published]",
                    "weights": "",
                    "realizations": 1,
                })
        payload["audit_note"] = (
            "entries under audit_extra pass every implemented necessary "
            "condition but are absent from the published wall tables")
    _emit(payload, rows, args.format, out)
    return 0


def _chart_from_args(args) -> ChartCase:
    tag = args.chart
    surface = "f1" if tag in F1_CHART_TAGS else "blp114"
    return ChartCase(surface, tag, args.a, args.b)


def _cmd_sfun(args, out) -> int:
    chart = _chart_from_args(args)
    engine = s_engine(chart, args.c)
    formula = s_closed_form(chart, args.c)
    payload = {
        "chart": {"surface": chart.surface, "tag": chart.tag,
                  "a": chart.a, "b": chart.b},
        "c": render_fraction(args.c),
        "engine": render_surd(engine),
        "closed_form": render_surd(formula),
        "match": engine == formula,
    }
    if args.approx:
        payload["engine_approx"] = engine.approx_str(args.approx)
        payload["closed_form_approx"] = formula.approx_str(args.approx)
    if not payload["match"]:
        payload["note"] = ("closed-form branch disagrees with the exact "
                          "integral; the engine value is authoritative")
    row = {"surface": chart.surface, "tag": chart.tag, "a": chart.a,
           "b": chart.b, **{k: v for k, v in payload.items() if k != "chart"}}
    _emit(payload, [row], args.format, out)
    return 0


def _cmd_zariski(args, out) -> int:
    model = builtin_surface(args.surface, args.a, args.b)
    coords = [Fraction(x) for x in args.divisor.split(",")]
    if len(coords) != model.rank():
        raise CheckFailure(
            f"divisor needs {model.rank()} coordinates in basis {model.basis}")
    d = vec(*coords)
    try:
        z = model.zariski_decompose(d)
    except NotPseudoEffectiveError as exc:
        raise CheckFailure(str(exc)) from exc
    payload = {
        "surface": model.name,
        "basis": list(model.basis),
        "divisor": [render_fraction(x) for x in d],
        "positive": [render_fraction(x) for x in z.positive],
        "negative_support": [
            {"curve": name, "coefficient": render_fraction(coeff)}
            for name, coeff in z.negative_support
        ],
        "volume": render_fraction(model.self_intersection(z.positive)),
    }
    _emit(payload, [payload], args.format, out)
    return 0


def _cmd_beta(args, out) -> int:
    curve = _load_curve_arg(args.curve, args.surface)
    reports = []
    note = ""
    if args.weights is not None:
        try:
            chart = onePS_to_chart(args.weights, args.surface)
            reports.append(beta_chart(curve, chart, args.c))
        except DegenerateWeightError as exc:
            note = str(exc)
    for d in TORIC_DIVISORS:
        reports.append(beta_toric(curve, d, args.c))
    payload = {
        "surface": args.surface,
        "curve": curve.to_json()["text"],
        "c": render_fraction(args.c),
        "reports": [r.to_json() for r in reports],
    }
    if note:
        payload["note"] = note
    if curve.warnings:
        payload["warnings"] = list(curve.warnings)
    rows = [r.to_json() for r in reports]
    _emit(payload, rows, args.format, out)
    return 0


def _cmd_threshold(args, out) -> int:
    curve = _load_curve_arg(args.curve, args.surface)
    thr = threshold(curve, bound=args.bound, cross_check_grid=args.grid)
    payload = {
        "surface": args.surface,
        "curve": curve.to_json()["text"],
        "threshold": thr.to_json(),
    }
    _emit(payload, [thr.to_json()], args.format, out)
    return 0


def _cmd_hkl(args, out) -> int:
    atlas = _load_atlas_arg(args.atlas)
    if args.what == "map":
        rep = map_walls(atlas)
        rows = [row for surface in ("f1", "blp114") for row in rep["images"][surface]]
        _emit(rep, rows, args.format, out)
        return 0 if rep["match"] else 1
    if args.what == "cone":
        rep = cone_report(atlas)
        _emit(rep, rep["rows"], args.format, out)
        return 0 if rep["match"] else 1
    rep = audit_dim_formula(atlas)
    _emit(rep, rep["rows"], args.format, out)
    return 0 if rep["verified_ok"] else 1


def _cmd_tables(args, out) -> int:
    if args.emit:
        out.write(bundled_atlas().dumps())
        return 0
    other = _load_atlas_arg(args.atlas)
    diffs = diff_atlas(bundled_atlas(), other)
    payload = {"match": not diffs, "diffs": diffs}
    _emit(payload, [{"diff": d} for d in diffs] or [{"diff": "none"}],
          args.format, out)
    return 0 if not diffs else 1


def _cmd_certify(args, out) -> int:
    if args.kind == "index3":
        rep = index3_certificate(args.c)
    else:
        if args.curve is not None:
            curve = _load_curve_arg(args.curve, "blp114")
            rep = quotient_point_certificate(curve, args.c)
        else:
            rep = quotient_point_certificate(args.ord, args.c)
    payload = rep.to_json()
    if args.approx:
        payload["beta_approx"] = rep.beta.approx_str(args.approx)
    ok = rep.verdict == "destabilizing"
    payload["certified_unstable"] = ok
    _emit(payload, [payload], args.format, out)
    return 0 if ok else 1


def _cmd_surfaces(args, out) -> int:
    if args.id:
        models = [builtin_surface(args.id, args.a, args.b)]
    else:
        models = [builtin_surface(i) for i in builtin_ids()
                  if i in ("f1", "blp114", "index3m", "blp114-quotient-res")]
    payload = {"surfaces": [m.to_json() for m in models]}
    rows = [{"name": m.name, "basis": ",".join(m.basis),
             "degree": render_fraction(m.degree)} for m in models]
    _emit(payload, rows, args.format, out)
    return 0


def _cmd_profile(args, out) -> int:
    model = builtin_surface(args.surface, args.a, args.b)
    f = args.divisor if args.divisor else None
    prof = volume_profile(model, f=f)
    payload = prof.to_json(args.c)
    _emit(payload, payload["segments"], args.format, out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwall",
        description="Exact wall-crossing calculator for degree-8 del Pezzo pairs")
    parser.add_argument("--version", action="version", version=f"kwall {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "md"), default="json")
    common.add_argument("--approx", type=int, default=None, metavar="DIGITS",
                        help="add decimal approximations (exact interval refinement)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walls", parents=[common],
                       help="enumerate and confirm the wall values")
    p.add_argument("--surface", choices=("f1", "blp114", "all"), default="all")
    p.add_argument("--audit-extra", action="store_true",
                   help="also list exact-engine candidates beyond the published tables")
    p.add_argument("--atlas", default=None)
    p.set_defaults(func=_cmd_walls)

    p = sub.add_parser("sfun", parents=[common],
                       help="S-value of a chart valuation, engine vs closed form")
    p.add_argument("--chart", required=True,
                   choices=F1_CHART_TAGS + BLP114_CHART_TAGS)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=_fraction, default=Fraction(0))
    p.set_defaults(func=_cmd_sfun)

    p = sub.add_parser("zariski", parents=[common],
                       help="Zariski decomposition of a divisor class")
    p.add_argument("--surface", required=True)
    p.add_argument("--divisor", required=True,
                   help="comma-separated rational coordinates in the model basis")
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.set_defaults(func=_cmd_zariski)

    p = sub.add_parser("beta", parents=[common], help="beta reports for a pair")
    p.add_argument("--surface", choices=("f1", "blp114"), required=True)
    p.add_argument("--curve", required=True, help="curve text or @file")
    p.add_argument("--weights", type=_weights, default=None, metavar="l1,l2,l3")
    p.add_argument("--c", type=_fraction, required=True)
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("threshold", parents=[common],
                       help="exact stability-threshold interval of a pair")
    p.add_argument("--surface", choices=("f1", "blp114"), required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--bound", type=_bound, default=30)
    p.add_argument("--grid", action="store_true",
                   help="also run the redundant grid cross-check")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("hkl", parents=[common],
                       help="parameter transforms and dimension audit")
    p.add_argument("what", choices=("map", "cone", "audit"))
    p.add_argument("--atlas", default=None)
    p.set_defaults(func=_cmd_hkl)

    p = sub.add_parser("tables", parents=[common], help="bundled wall atlas")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--emit", action="store_true")
    group.add_argument("--check", action="store_true")
    p.add_argument("--atlas", default=None)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("certify", parents=[common],
                       help="named instability certificates")
    p.add_argument("kind", choices=("index3", "quotient-point"))
    p.add_argument("--c", type=_fraction, required=True)
    p.add_argument("--curve", default=None,
                   help="curve on blp114 through the quarter point")
    p.add_argument("--ord", type=int, default=1,
                   help="multiplicity of the branch curve along the quarter point")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("surfaces", parents=[common],
                       help="emit builtin surface models as JSON")
    p.add_argument("--id", default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.set_defaults(func=_cmd_surfaces)

    p = sub.add_parser("profile", parents=[common],
                       help="volume profile of -K - t*F on a builtin model")
    p.add_argument("--surface", required=True)
    p.add_argument("--divisor", default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--c", type=_fraction, default=None)
    p.set_defaults(func=_cmd_profile)

    return parser


def run(argv: Optional[list[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args, out)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CurveSyntaxError, DegenerateWeightError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
