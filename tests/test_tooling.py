"""The benchmark's contract with kwall: the tracer's callables still exist,
every span the benchmark predicts still has calls, and every output the
benchmark checks still has its committed digest.  Also: every module-level
definition and method in ``src/kwall`` has a caller in the package, no
layer restates a per-plane fact that ``pairs.PLANES`` records, and no module
keeps a hand-rolled memo dict."""

import ast
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unreferenced_definitions(package_dir):
    """Module-level functions and classes of the package, and the non-dunder
    methods of its classes, that no code in it names.  A re-export from
    ``__init__.py`` is not a caller.

    The guard matches names, not bindings: a definition escapes it when any
    name or attribute elsewhere spells the same, such as a local variable (a
    function ``beta`` would pass because ``Constraint.report`` binds one)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, named = [], set()
    for entry in sorted(os.listdir(package_dir)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(package_dir, entry), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append((entry, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(entry, f"{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, functions)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [f"{module}:{label}" for module, label, name in defined if name not in named]


def test_every_definition_has_a_caller():
    """Code only the tests call lives in the tests."""
    assert _unreferenced_definitions(os.path.join(ROOT, "src", "kwall")) == []


def _plane_restatements(package_dir):
    """Sites that restate what ``pairs.PLANES`` records: comparisons against a
    plane name in the modules that read the record, and imports of the
    ``surface``, ``volume`` or ``stability`` layers from ``pairs``, which owns
    it (``surface`` builds its toric models from the record's fan)."""
    sites = []
    for module in ("pairs", "stability", "volume", "cli", "hkl"):
        with open(os.path.join(package_dir, f"{module}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                values = [e for op in operands
                          for e in (op.elts if isinstance(op, (ast.Tuple, ast.List, ast.Set))
                                    else [op])]
                if any(isinstance(v, ast.Constant) and v.value in ("f1", "blp114")
                       for v in values):
                    sites.append(f"{module}:{node.lineno}: compares a plane name")
            elif module == "pairs" and isinstance(node, (ast.Import, ast.ImportFrom)):
                base = getattr(node, "module", None) or ""
                names = {base} | {f"{base}.{a.name}" for a in node.names}
                if any(layer in name.split(".") for name in names
                       for layer in ("surface", "volume", "stability")):
                    sites.append(f"{module}:{node.lineno}: imports a higher layer")
    return sites


def test_plane_facts_live_in_the_plane_record():
    assert _plane_restatements(os.path.join(ROOT, "src", "kwall")) == []


def _module_cache_dicts(package_dir):
    """Module-level dict literals bound to a ``*_cache`` name: a memo the
    module fills by hand, where ``functools.cache`` on the function it
    serves would do."""
    sites = []
    for entry in sorted(os.listdir(package_dir)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(package_dir, entry), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, (ast.Dict, ast.DictComp)):
                sites += [f"{entry[:-3]}.{t.id}" for t in targets
                          if isinstance(t, ast.Name) and t.id.endswith("_cache")]
    return sites


def test_no_module_memo_dicts():
    assert _module_cache_dicts(os.path.join(ROOT, "src", "kwall")) == []


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


def test_traced_spans_have_calls(monkeypatch, tmp_path):
    """Every span the benchmark predicts for a workload is called by one
    traced ``perfbench/child.py`` run of it."""
    for name in ("workloads", "checks", "speed", "tracer"):
        _load_perfbench(name, monkeypatch)
    run = _load_perfbench("run", monkeypatch)
    workloads = sys.modules["workloads"]
    grid_argv = workloads.grid_argv(workloads.F1_ATLAS[3][0])
    runs = {
        "grid": ("cli", "--speed-out", str(tmp_path / "grid-speed.json"), "--", *grid_argv),
        "walls": ("cli", "--speed-out", str(tmp_path / "walls-speed.json"), "--",
                  *workloads.WALLS_ARGV),
        "zariski": ("zariski", "--seed", "0", "--count", "64"),
    }
    children = {}
    for workload, (mode, *args) in runs.items():
        trace = tmp_path / f"{workload}-trace.json"
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), mode,
               "--trace-out", str(trace), *args]
        children[workload] = trace, subprocess.Popen(
            cmd, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for workload, (trace, child) in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0 and out, (workload, err.decode())
        calls = json.loads(trace.read_text(encoding="utf-8"))["window"]["calls"]
        idle = sorted(n for n in run.EXPECTED_CALLS[workload] if not calls[n])
        assert not idle, (workload, idle)


def test_cli_import_loads_no_dataclass_machinery():
    """Every kwall command is a fresh process that imports ``kwall.cli`` and
    builds the parser; that start-up loads neither ``dataclasses`` nor the
    ``inspect`` module it pulls in."""
    code = ("import sys; before = set(sys.modules); import kwall.cli; "
            "kwall.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_module_imports_dataclasses():
    """The package's records are ``NamedTuple``s, not dataclasses."""
    package_dir = os.path.join(ROOT, "src", "kwall")
    sites = []
    for entry in sorted(os.listdir(package_dir)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(package_dir, entry), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                sites.append(f"{entry}:{node.lineno}")
    assert sites == []
