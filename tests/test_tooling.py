"""The benchmark tracer names kwall callables by module and attribute path;
each of them must still exist, or a traced benchmark run fails at install."""

import importlib
import importlib.util
import os

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
