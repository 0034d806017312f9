"""The program names the benchmark's tracer wraps (perfbench/tracing.py).

The tracer looks each traced function up by module and name, so renaming
or deleting one breaks `perfbench/run.py --trace 1`; this keeps tier-1
aware of that.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_installs_on_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    plan = tracing.TRACED
    originals = [_current(module_name, attr) for module_name, attr, _, _ in plan]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, attr, _, _), original in zip(plan, originals):
            assert _current(module_name, attr) is not original, f"{module_name}.{attr}"
    finally:
        tracer.uninstall()
    for (module_name, attr, _, _), original in zip(plan, originals):
        assert _current(module_name, attr) is original, f"{module_name}.{attr}"
