"""The benchmark's tracer wraps functions of ccbm by name; every name it
hooks must resolve, or `bench/run.py --trace 1` fails on entry."""

import ast
import importlib
import importlib.util
import json
from itertools import accumulate
from pathlib import Path

import ccbm

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


def test_unused_imports_bind_only_hooked_names():
    """A module-level import marked `noqa: F401` binds a name that nothing in
    ccbm uses; the tracer's HOOKS is the one reason to keep such a name."""
    hooked_names = {(module, attr) for module, attr, cls, _ in load_tracing().HOOKS
                    if cls is None}
    unused = []
    for path in sorted(Path(ccbm.__file__).parent.glob("*.py")):
        module = "ccbm" if path.stem == "__init__" else f"ccbm.{path.stem}"
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            marked = any("noqa: F401" in line
                         for line in lines[node.lineno - 1:node.end_lineno])
            if marked and isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [(module, alias.asname or alias.name) for alias in node.names]
    assert set(unused) <= hooked_names, sorted(set(unused) - hooked_names)


def test_traced_run_records_each_checkpoint_save(tmp_path):
    # bench/run.py --trace 1 stats the chain log the traced save_checkpoint was
    # given, so each save reads the log's size after it
    from ccbm import cli
    tracing = load_tracing()
    assert cli.main(["simulate", "--out", str(tmp_path / "data"), "--n", "40",
                     "--seed", "11", "--pool-size", "8", "--coefficients", "2.5,-2.5"]) == 0
    run_dir = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": str(tmp_path / "data" / "dataset.ndjson"), "output_dir": str(run_dir),
        "oracle": {"type": "pool", "pool": str(tmp_path / "data" / "pool.json")},
        "sampler": {"k": 2, "t_epochs": 4, "m_candidates": 4, "seed": 3,
                    "warm_start_epochs": 1}}))
    with tracing.Tracer() as tracer:
        assert cli.main(["run", "--config", str(config)]) == 0
    saves = tracing.spans_named(tracer.root("cli.run"), "sampler.checkpoint")
    lines = (run_dir / "checkpoints" / "chain.log").read_bytes().splitlines(keepends=True)
    assert len(lines) == 1 + 1 + 4  # the header, then each epoch
    assert [span.value for span in saves] == list(accumulate(map(len, lines)))
