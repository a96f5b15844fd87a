"""The benchmark's contract with kwall: the tracer's callables still exist,
and every output the benchmark checks still has its committed digest."""

import importlib
import importlib.util
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load_tracer().TARGETS
    assert targets
    for metric, module_name, path in targets:
        owner = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            # the tracer replaces methods through the class __dict__
            assert attr in vars(getattr(owner, cls_name)), (metric, module_name, path)
        else:
            assert callable(getattr(owner, path, None)), (metric, module_name, path)


def _load_perfbench(name, monkeypatch):
    """Import ``perfbench/<name>.py`` under the name its siblings import it by."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _cli_stdout(argv) -> bytes:
    from kwall import cli

    buf = io.StringIO()
    assert cli.run(argv, out=buf) == 0, argv
    return buf.getvalue().encode()


class _Models(dict):
    """Builds each zariski-stream model on first use instead of all at set-up."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        model = self[key] = self._build(*key)
        return model


def test_outputs_match_benchmark_digests(monkeypatch):
    """Every stdout the benchmark checks has the SHA-256 in its digests.json."""
    workloads = _load_perfbench("workloads", monkeypatch)
    checks = _load_perfbench("checks", monkeypatch)
    digests = checks.load_digests()

    assert checks.sha256(_cli_stdout(workloads.WALLS_ARGV)) == digests["walls"]["walls"]
    for curve, _ in workloads.F1_ATLAS:
        out = _cli_stdout(workloads.grid_argv(curve))
        assert checks.sha256(out) == digests["grid"][curve], curve

    from kwall.surface import NotPseudoEffectiveError, builtin_surface

    ref = digests["zariski"]
    models = _Models(builtin_surface)
    stream = workloads.zariski_stream(ref["seed"], models)
    outs = []
    for _ in range(ref["count"]):
        key, d, _ = next(stream)
        try:
            outs.append(checks.render_zariski(models[key].zariski_decompose(d)))
        except NotPseudoEffectiveError as exc:
            outs.append(checks.render_not_psef(exc))
        except Exception as exc:  # rendered as the benchmark child renders it
            outs.append(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
    assert checks.sha256("\n".join(outs).encode()) == ref["sha256"]
