"""Child process of the benchmark: one set-up probe, CLI request or zariski worker.

    python child.py probe --speed-out FILE [--models]
    python child.py cli --speed-out FILE [--trace-out FILE] -- ARGV...
    python child.py zariski --seed N (--seconds S | --count N) [--trace-out FILE]

The package is imported from ``src/`` next to this directory, so it need not
be installed.  A CLI request calls ``kwall.cli.run(argv)`` and exits with its
code.  The zariski worker builds every model at set-up, then writes one JSON
line per ``zariski_decompose`` call and a last line with its peak memory and
speed samples.  Every child runs the speed sampler of ``speed.py`` from its
start; probes and CLI requests write its report to ``--speed-out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedSampler
from tracer import TRACE_WINDOW, LayerTracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _dump(path: str, tracer, n: int, window: dict | None) -> None:
    total = tracer.snapshot()
    summary = {"n": n, "window_n": min(n, TRACE_WINDOW), "window": window or total,
               "total": total}
    Path(path).write_text(json.dumps(summary), encoding="utf-8")


def _tracer(path: str | None):
    if path is None:
        return None
    tracer = LayerTracer()
    tracer.install()
    return tracer


def main(argv: list[str]) -> int:
    sampler = SpeedSampler()
    sampler.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "cli", "zariski"))
    parser.add_argument("--models", action="store_true")
    parser.add_argument("--speed-out")
    parser.add_argument("--trace-out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]

    sys.path.insert(0, str(SRC))
    import kwall.cli

    if args.mode == "zariski":
        kwall.cli.build_parser()
        from workloads import build_models

        return _zariski_worker(args, build_models(kwall.cli.builtin_surface), sampler)
    try:
        if args.mode == "cli":
            tracer = _tracer(args.trace_out)
            code = kwall.cli.run(args.argv)
            sys.stdout.flush()
            if tracer is not None:
                _dump(args.trace_out, tracer, 1, None)
            return code
        kwall.cli.build_parser()
        if args.models:
            from workloads import build_models

            build_models(kwall.cli.builtin_surface)
        return 0
    finally:
        sampler.stop()
        Path(args.speed_out).write_text(json.dumps(sampler.report()), encoding="utf-8")


def _zariski_worker(args, models, sampler) -> int:
    from checks import render_not_psef, render_zariski
    from kwall.surface import NotPseudoEffectiveError
    from workloads import zariski_stream

    tracer = _tracer(args.trace_out)
    window = None
    out = sys.stdout
    stream = zariski_stream(args.seed, models)
    deadline = None if args.seconds is None else time.perf_counter() + args.seconds
    n = 0
    while (n < args.count) if deadline is None else (time.perf_counter() < deadline):
        key, d, _ = next(stream)
        model = models[key]
        spent = sampler.spent
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            z = model.zariski_decompose(d)
        except Exception as exc:  # every other outcome than a decomposition
            z = exc
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        sampled = sampler.spent - spent  # calibration slices run during the call
        n += 1
        if tracer is not None and n == TRACE_WINDOW:
            window = tracer.snapshot()
        if isinstance(z, NotPseudoEffectiveError):
            result = render_not_psef(z)
        elif isinstance(z, Exception):
            result = json.dumps({"error": f"{type(z).__name__}: {z}"})
        else:
            result = render_zariski(z)
        out.write(f'{{"t":{t0!r},"wall":{wall - sampled!r},"cpu":{cpu - sampled!r},'
                  f'"out":{json.dumps(result)}}}\n')
    sampler.stop()
    out.write(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          "speed": sampler.report()}) + "\n")
    out.flush()
    if tracer is not None:
        _dump(args.trace_out, tracer, n, window)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
