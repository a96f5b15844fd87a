"""kwall benchmark: one closed-loop client, one child process at a time.

    python3 perfbench/run.py --workload {walls,grid,zariski} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off; with ``--trace 1`` the per-layer metrics of a traced run, including the
tracing overhead.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from speed import SLICE_REF_S
from tracer import COUNTERS, SPANS, TRACE_WINDOW

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 9
REQUEST_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_p50_s": "s",
    "req_p99_s": "s",
    "throughput_rps": "1/s",
    "cpu_s_per_req": "s",
    "peak_rss_mb": "MB",
}

# spans whose calls must be nonzero in the traced run of each workload
EXPECTED_CALLS = {
    "walls": {
        "surface.intersect", "surface.solve_linear", "surface.builtin_surface",
        "volume.s_engine_raw", "volume.s_engine_coefficient", "volume.volume_profile",
        "exactnum.surd_new", "exactnum.sign", "exactnum.integrate",
        "exactnum.real_roots", "exactnum.squarefree_decompose",
        "stability.enumerate_walls", "stability.confirm_wall", "stability.threshold",
        "stability.verify_semistable_at", "polycheck.nonneg", "pairs.chart_expand",
        "pairs.multiplicity", "cli.run", "atlas.load_atlas",
    },
    "grid": {
        "surface.intersect", "surface.solve_linear", "surface.builtin_surface",
        "volume.s_engine_raw", "volume.s_engine_coefficient", "volume.volume_profile",
        "exactnum.surd_new", "exactnum.sign", "exactnum.integrate",
        "exactnum.real_roots", "exactnum.squarefree_decompose",
        "stability.threshold", "pairs.chart_expand", "pairs.multiplicity", "cli.run",
    },
    "zariski": {"surface.intersect", "surface.zariski_decompose", "surface.solve_linear"},
}


@dataclass
class Request:
    """One request; times exclude the speed sampler's own slices."""

    key: str  # what was asked, for checks and digests
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    out: bytes
    err: str = ""
    slowdown: float | None = None  # see speed.py


SMOOTH = 7  # speed samples in the rolling median, about 70 ms


def slowdowns(slice_times: list[float]) -> list[float]:
    """Slowdown at each speed sample: rolling median slice time over the reference."""
    half = SMOOTH // 2
    return [statistics.median(slice_times[max(0, i - half):i + half + 1]) / SLICE_REF_S
            for i in range(len(slice_times))]


def mean_slowdown(slice_times: list[float]) -> float | None:
    """Slowdown of a whole interval sampled at even steps; None without samples.

    At slowdown s a step does 1/s of its reference work, so the interval's
    factor is the harmonic mean of the samples' slowdowns.
    """
    if not slice_times:
        return None
    return 1 / statistics.fmean(1 / x for x in slowdowns(slice_times))


def _speed_report() -> tuple[float, float | None]:
    """Seconds the last child spent in calibration slices, and its slowdown."""
    try:
        report = json.loads((WORK / "speed.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return 0.0, None
    finally:
        (WORK / "speed.json").unlink(missing_ok=True)
    return report["spent_s"], mean_slowdown(report["slices_s"])


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("KWALL_ATLAS", None)  # the bundled atlas only
    return env


def _spawn(args: list[str], stdout=subprocess.PIPE):
    err = open(WORK / "stderr.txt", "wb")
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            stdout=stdout, stderr=err, env=_child_env())
    return proc, err


def _stderr_tail() -> str:
    return (WORK / "stderr.txt").read_text(errors="replace")[-400:]


def _reap(proc, timeout: float):
    """Wait for ``proc`` and return its own rusage; kill it after ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(key: str, args: list[str]) -> Request:
    """One fresh child process, timed spawn to exit."""
    args = [args[0], "--speed-out", str(WORK / "speed.json"), *args[1:]]
    t0 = time.perf_counter()
    proc, err = _spawn(args)
    try:
        out = proc.stdout.read()
        usage = _reap(proc, REQUEST_TIMEOUT_S)
    finally:
        proc.stdout.close()
        err.close()
    wall = time.perf_counter() - t0
    spent, slow = _speed_report()
    return Request(key, wall - spent, usage.ru_utime + usage.ru_stime - spent,
                   usage.ru_maxrss / 1024, proc.returncode, out,
                   _stderr_tail() if proc.returncode else "", slow)


def cli_request(key: str, argv: list[str], trace_out: Path | None = None) -> Request:
    """One process running ``kwall.cli.run(argv)``."""
    trace = ["--trace-out", str(trace_out)] if trace_out else []
    return run_child(key, ["cli", *trace, "--", *argv])


def setup_times(with_models: bool) -> list[Request]:
    """Processes that only get ready: import, parser and, if asked, the models."""
    args = ["probe"] + (["--models"] if with_models else [])
    probes = [run_child("probe", args) for _ in range(SETUP_PROBES + 1)]
    for probe in probes:
        if probe.code != 0:
            raise RuntimeError(f"set-up probe failed: {probe.err}")
    return probes[1:]  # the first probe also writes the bytecode caches


# -- workloads as request streams -------------------------------------------


def cli_argv(workload: str, key: str) -> list[str]:
    return workloads.WALLS_ARGV if workload == "walls" else workloads.grid_argv(key)


def cli_inputs(workload: str, seed: int):
    """Endless (key, argv) stream; the key names the input in checks and digests."""
    keys = iter(lambda: "walls", None) if workload == "walls" else workloads.grid_curves(seed)
    for key in keys:
        yield key, cli_argv(workload, key)


def check_cli(workload: str, req: Request, digests: dict) -> list[str]:
    if req.code != 0:
        return [f"exit code {req.code}: {req.err.strip()}"]
    if not req.out.strip():
        return ["empty stdout"]
    if workload == "walls":
        problems = checks.check_walls(req.out)
    else:
        problems = checks.check_grid(req.key, req.out)
    want = digests[workload].get(req.key)
    if want is not None and checks.sha256(req.out) != want:
        problems.append(f"stdout digest {checks.sha256(req.out)} != committed {want}")
    return problems


def cli_selftest(workload: str, req: Request) -> bool:
    """The checker must reject the first output with its wall value tampered."""
    wall = "1/14" if workload == "walls" else checks.ATLAS_WALL[req.key]
    tampered = req.out.replace(f'"{wall}"'.encode(), b'"0"', 1)
    return tampered != req.out and bool(check_cli(workload, Request(
        req.key, 0, 0, 0, 0, tampered), {workload: {}}))


def run_cli_loop(workload: str, seed: int, seconds: float, traced: bool):
    inputs = cli_inputs(workload, seed)
    deadline = time.perf_counter() + seconds
    plain, traced_reqs, summaries = [], [], []
    while not plain or time.perf_counter() < deadline:
        key, argv = next(inputs)
        plain.append(cli_request(key, argv))
        if traced:
            path = WORK / f"trace{len(traced_reqs)}.json"
            traced_reqs.append(cli_request(key, argv, path))
            summaries.append(_read_summary(path))
    return plain, traced_reqs, summaries


def _read_summary(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# -- zariski -----------------------------------------------------------------


def _kwall_models() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from kwall.surface import builtin_surface

    return workloads.build_models(builtin_surface)


def zariski_worker(seed: int, *, seconds: float | None = None, count: int | None = None,
                   trace_out: Path | None = None):
    """Run the worker; return its per-call records and peak RSS in MB.

    Each record gets the slowdown of the speed sample nearest its start.
    """
    args = ["zariski", "--seed", str(seed)]
    args += ["--seconds", str(seconds)] if seconds is not None else ["--count", str(count)]
    args += ["--trace-out", str(trace_out)] if trace_out else []
    proc, err = _spawn(args)
    records, tail = [], None
    try:
        for line in proc.stdout:
            rec = json.loads(line)
            if "maxrss_kb" in rec:
                tail = rec
            else:
                records.append(rec)
        _reap(proc, REQUEST_TIMEOUT_S + (seconds or 0))
    finally:
        proc.stdout.close()
        err.close()
    if proc.returncode != 0 or tail is None:
        raise RuntimeError(f"zariski worker failed ({proc.returncode}): {_stderr_tail()}")
    starts = tail["speed"]["starts"]
    slows = slowdowns(tail["speed"]["slices_s"])
    for rec in records:
        i = bisect.bisect(starts, rec["t"])
        rec["slowdown"] = slows[min(i, len(slows) - 1)] if slows else None
    return records, tail["maxrss_kb"] / 1024


def check_zariski_records(seed: int, records: list[dict], models: dict,
                          digests: dict) -> list[int]:
    """Indices of failed calls.

    At the committed seed, a digest mismatch fails every call it covers.
    """
    failed = set()
    checker = checks.ZariskiChecker()
    stream = workloads.zariski_stream(seed, models)
    for i, rec in enumerate(records):
        key, d, negated = next(stream)
        if checker.check(models[key], d, negated, rec["out"]):
            failed.add(i)
    ref = digests["zariski"]
    if seed == ref["seed"] and len(records) >= ref["count"]:
        got = checks.sha256("\n".join(r["out"] for r in records[:ref["count"]]).encode())
        if got != ref["sha256"]:
            failed.update(range(ref["count"]))
    return sorted(failed)


def zariski_selftest(seed: int, records: list[dict], models: dict) -> bool:
    """The checker must reject the first decomposition with P perturbed."""
    stream = workloads.zariski_stream(seed, models)
    for rec in records:
        key, d, negated = next(stream)
        res = json.loads(rec["out"])
        if "P" in res:
            res["P"][0] = str(Fraction(res["P"][0]) + Fraction(1, 7))
            return bool(checks.ZariskiChecker().check(models[key], d, negated,
                                                      json.dumps(res)))
    return False


# -- metrics -------------------------------------------------------------------


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(probes: list[Request], reqs: list[Request], rss: list[float],
               normalize: bool) -> dict:
    """The end-to-end metrics; with ``normalize``, times are divided by slowdowns."""
    def scaled(rs: list[Request], field: str) -> list[float]:
        if not normalize:
            return [getattr(r, field) for r in rs]
        known = [r.slowdown for r in rs if r.slowdown is not None]
        fallback = statistics.median(known) if known else 1.0
        return [getattr(r, field) / (r.slowdown or fallback) for r in rs]

    walls = scaled(reqs, "wall_s")
    cpus = scaled(reqs, "cpu_s")
    return {
        "setup_s": statistics.median(scaled(probes, "wall_s")),
        "req_p50_s": statistics.median(walls),
        # the tail is taken on CPU time: on a shared host, wall-time tails are
        # set by the hypervisor pausing the whole machine for milliseconds
        "req_p99_s": nearest_rank(cpus, 99),
        "throughput_rps": len(walls) / sum(walls),
        "cpu_s_per_req": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(summaries: list[dict], overhead: float) -> dict:
    """Counts per request over the first summary's window; self time per request."""
    first = summaries[0]
    per_req = first["window_n"]
    calls = {k: v / per_req for k, v in first["window"]["calls"].items()}
    counters = {k: v / per_req for k, v in first["window"]["counters"].items()}
    n = sum(s["n"] for s in summaries)
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = sum(s["total"]["self_s"][name] for s in summaries) / n
    for name in COUNTERS:
        out[name] = counters[name]
    requested = calls["volume.s_engine_raw"]
    out["volume.profile_reuse_ratio"] = (
        1 - counters["volume.profiles_built"] / requested if requested else 0.0)
    candidates = counters["stability.candidates"]
    out["stability.confirm_ratio"] = (
        counters["stability.confirmed"] / candidates if candidates else 0.0)
    out["trace.overhead_ratio"] = overhead
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/req"
    if name.endswith("_ratio"):
        return "ratio"
    return "count/req"


def _normalized(seconds: float, slow: float | None) -> float:
    return seconds / slow if slow else seconds


def _same_counts(a: dict, b: dict) -> bool:
    return a["window"]["calls"] == b["window"]["calls"] and \
        a["window"]["counters"] == b["window"]["counters"]


# -- the two modes ---------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, notes: list[str]):
    """Untraced run: end-to-end metrics, attempted, failed, self-test result."""
    digests = checks.load_digests()
    probes = setup_times(with_models=workload == "zariski")
    if workload == "zariski":
        models = _kwall_models()
        records, rss = zariski_worker(seed, seconds=seconds)
        failed = check_zariski_records(seed, records, models, digests)
        selftest = zariski_selftest(seed, records, models)
        reqs = [Request("zariski", r["wall"], r["cpu"], rss, 0, b"", "", r["slowdown"])
                for r in records]
        rss_values = [rss]
    else:
        reqs, _, _ = run_cli_loop(workload, seed, seconds, traced=False)
        failures = [(r, check_cli(workload, r, digests)) for r in reqs]
        failed = [r for r, problems in failures if problems]
        notes += [f"FAILED {r.key}: {problems}" for r, problems in failures if problems][:3]
        selftest = cli_selftest(workload, reqs[0])
        rss_values = [r.rss_mb for r in reqs]
    slows = [r.slowdown for r in probes + reqs if r.slowdown is not None]
    notes.append(f"setup probes: {len(probes)}; median slowdown: "
                 f"{statistics.median(slows) if slows else 'unmeasured'}")
    raw = end_to_end(probes, reqs, rss_values, normalize=False)
    notes += [f"raw {name} = {value:.6g} {END_TO_END_UNITS[name]}"
              for name, value in raw.items()]
    metrics = end_to_end(probes, reqs, rss_values, normalize=True)
    return metrics, len(reqs), len(failed), selftest


def measure_traced(workload: str, seed: int, seconds: float, notes: list[str]):
    """Traced run: per-layer metrics, attempted, failed, and its own checks.

    Each traced request is paired with an untraced one on the same input: the
    outputs must match, and the ratio of their median times is the tracing
    overhead.  The first input is traced once more; its counts must repeat.
    """
    digests = checks.load_digests()
    if workload == "zariski":
        models = _kwall_models()
        first_path, again_path = WORK / "trace0.json", WORK / "trace1.json"
        traced, _ = zariski_worker(seed, seconds=seconds / 2, trace_out=first_path)
        plain, _ = zariski_worker(seed, count=len(traced))
        zariski_worker(seed, count=min(len(traced), TRACE_WINDOW), trace_out=again_path)
        summaries = [_read_summary(first_path)]
        again = _read_summary(again_path)
        failed = check_zariski_records(seed, traced, models, digests)
        same_out = [a["out"] for a in traced] == [b["out"] for b in plain]
        overhead = (statistics.median(_normalized(r["wall"], r["slowdown"]) for r in traced)
                    / statistics.median(_normalized(r["wall"], r["slowdown"]) for r in plain))
        attempted = len(traced)
    else:
        plain, traced, summaries = run_cli_loop(workload, seed, seconds, traced=True)
        again_req = cli_request(traced[0].key, cli_argv(workload, traced[0].key),
                                WORK / "again.json")
        again = _read_summary(WORK / "again.json")
        failed = [r for r in plain + traced + [again_req]
                  if check_cli(workload, r, digests)]
        same_out = all(a.out == b.out for a, b in zip(plain, traced))
        overhead = (statistics.median(_normalized(r.wall_s, r.slowdown) for r in traced)
                    / statistics.median(_normalized(r.wall_s, r.slowdown) for r in plain))
        attempted = len(plain) + len(traced) + 1
    if None in summaries or again is None:
        notes.append("FAILED: a traced child wrote no trace summary")
        return {}, attempted, len(failed), False
    repeat = _same_counts(summaries[0], again)
    missing = sorted(n for n in EXPECTED_CALLS[workload]
                     if summaries[0]["window"]["calls"][n] == 0)
    notes.append(f"traced outputs equal untraced: {same_out}")
    notes.append(f"traced counts repeat exactly: {repeat}")
    notes.append(f"predicted spans with zero calls: {missing or 'none'}")
    ok = same_out and repeat and not missing
    return per_layer(summaries, overhead), attempted, len(failed), ok


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kwall" / "cli.py").is_file():
        print(f"error: no kwall sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    notes: list[str] = []
    try:
        if args.trace:
            metrics, attempted, failed, ok = measure_traced(
                args.workload, args.seed, args.seconds, notes)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, attempted, failed, ok = measure(
                args.workload, args.seed, args.seconds, notes)
            notes.append(f"checker rejects tampered output: {ok}")
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "commit": _commit(),
        "nproc": os.cpu_count(), "requests": attempted, "setup_probes": SETUP_PROBES,
        "percentiles": "p50 = median of wall time; p99 = nearest rank of CPU time; "
                       "setup_s, cpu_s_per_req and peak_rss_mb are medians",
        "times": "divided by the slowdown the speed sampler measured (speed.py)",
    }
    for note in notes:
        print(note)
    print("provenance " + json.dumps(provenance))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": bool(ok) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
