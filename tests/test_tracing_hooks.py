"""The benchmark's tracer wraps functions of ccbm by name; every name it
hooks must resolve, or `bench/run.py --trace 1` fails on entry."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked(module_name, attr, cls_name):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_hooks_resolve_and_unwind():
    tracing = load_tracing()
    originals = [hooked(*hook[:3]) for hook in tracing.HOOKS]
    with tracing.Tracer() as tracer:
        for hook, original in zip(tracing.HOOKS, originals):
            assert hooked(*hook[:3]) is not original, hook
    for hook, original in zip(tracing.HOOKS, originals):
        assert hooked(*hook[:3]) is original, hook
    assert tracer.roots == []
