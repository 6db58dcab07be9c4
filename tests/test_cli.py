import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ccbm import cli
from ccbm.concepts import Concept
from ccbm.evaluate import auc, brier
from ccbm.model import OptimizationError, posterior_predictive, sigmoid_predict
from ccbm.oracle import AnnotationCache, KeyphraseBag, OracleError, PoolOracle
from ccbm.sampler import GibbsData

SAMPLER = {"k": 2, "t_epochs": 4, "m_candidates": 4, "omega": 0.5,
           "gamma": 1.0, "seed": 3, "warm_start_epochs": 1, "keep_last": 2,
           "mode": "multi_try"}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    assert cli.main(["simulate", "--out", str(ws / "data"), "--n", "40",
                     "--seed", "11", "--pool-size", "8",
                     "--coefficients", "2.5,-2.5"]) == 0
    return ws


def write_config(ws, run_dir, **extra):
    truth = json.loads((ws / "data" / "truth.json").read_text())
    config = {
        "dataset": str(ws / "data" / "dataset.ndjson"),
        "output_dir": str(run_dir),
        "oracle": {"type": "pool", "pool": str(ws / "data" / "pool.json")},
        "sampler": dict(SAMPLER),
        "keyphrase": {"min_df": 2},
        "truth": truth,
    }
    config.update(extra)
    path = run_dir.parent / f"{run_dir.name}-config.json"
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def finished_run(workspace):
    run_dir = workspace / "run-main"
    config = write_config(workspace, run_dir)
    assert cli.main(["run", "--config", str(config)]) == 0
    return run_dir


@pytest.fixture(scope="module")
def many_sets_run(workspace):
    """A run whose posterior samples span several concept sets."""
    run_dir = workspace / "run-many-sets"
    config = write_config(
        workspace, run_dir,
        oracle={"type": "pool", "pool": str(workspace / "data" / "pool.json"),
                "weight_mode": "uniform"},
        sampler=dict(SAMPLER, k=3, t_epochs=12, m_candidates=3, keep_last=0))
    assert cli.main(["run", "--config", str(config)]) == 0
    return run_dir


def reference_predictions(run_dir, input_path) -> bytes:
    """predictions.ndjson as the per-row loop wrote it: one annotate call per
    row, one sigmoid_predict per (row, sample), one posterior_predictive per row
    and json.dumps of each whole record."""
    cfg, samples = cli._load_run(run_dir)
    observations, _ = cli.load_dataset(input_path, require_labels=False)
    train_obs, train_labels = cli.load_dataset(cfg.dataset)
    oracle = cli.build_oracle(cfg, train_obs, train_labels, AnnotationCache())
    concepts = {c.id: c for s in samples for c in s.concept_set}
    out = []
    for obs in observations:
        try:
            records = oracle.annotate([obs], list(concepts.values()))
        except OracleError as exc:
            out.append(json.dumps({"id": obs.id, "error": str(exc)}))
            continue
        values = {r.concept_id: r.value for r in records}
        breakdown, rows = [], []
        for s in samples:
            row = np.array([values[c.id] for c in s.concept_set] + [1.0])
            rows.append(row)
            breakdown.append({"concepts": [c.question for c in s.concept_set],
                              "values": [values[c.id] for c in s.concept_set],
                              "probability": sigmoid_predict(s.theta, row)})
        out.append(json.dumps({"id": obs.id,
                               "probability": posterior_predictive(samples, rows),
                               "per_sample": breakdown}))
    return "".join(line + "\n" for line in out).encode()


def predict(run_dir, input_path, output) -> bytes:
    assert cli.main(["predict", "--run", str(run_dir), "--input", str(input_path),
                     "--output", str(output)]) == 0
    return output.read_bytes()


def unseen_rows(workspace, n=25):
    """Rows of another simulated dataset, under ids the training set lacks."""
    path = workspace / "unseen.ndjson"
    if not path.exists():
        assert cli.main(["simulate", "--out", str(workspace / "unseen-data"), "--n", str(n),
                         "--seed", "12", "--pool-size", "8",
                         "--coefficients", "2.5,-2.5"]) == 0
        rows = [json.loads(line) for line in
                (workspace / "unseen-data" / "dataset.ndjson").read_text().splitlines()]
        path.write_text("".join(json.dumps({"id": "unseen-" + r["id"], "text": r["text"]})
                                + "\n" for r in rows))
    return path


class TestSimulate:
    def test_outputs(self, workspace):
        lines = (workspace / "data" / "dataset.ndjson").read_text().splitlines()
        assert len(lines) == 40
        rec = json.loads(lines[0])
        assert set(rec) == {"id", "text", "label"}
        pool = json.loads((workspace / "data" / "pool.json").read_text())
        assert len(pool) == 8
        truth = json.loads((workspace / "data" / "truth.json").read_text())
        assert truth == ["Is feature 0 present?", "Is feature 1 present?"]

    def test_clinical_design(self, tmp_path):
        assert cli.main(["simulate", "--out", str(tmp_path), "--n", "30",
                         "--clinical", "--n-decoys", "4"]) == 0
        pool = json.loads((tmp_path / "pool.json").read_text())
        assert len(pool) == 9
        assert pool[0]["keyword"] == "unemployed"


class TestRun:
    def test_artifacts_written(self, finished_run):
        for rel in ("config.snapshot", "samples.jsonl", "manifest.json",
                    "reports/update_log.jsonl", "reports/recovery.json",
                    "checkpoints/chain.json", "cache/annotations.ndjson"):
            assert (finished_run / rel).exists(), rel
        assert not (finished_run / ".lock").exists()

    def test_sample_count(self, finished_run):
        lines = (finished_run / "samples.jsonl").read_text().splitlines()
        # (1 warm + 4 sampling epochs) x 2 slots
        assert len(lines) == 10
        for line in lines:
            rec = json.loads(line)
            assert len(rec["concepts"]) == 2
            assert len(rec["theta"]) == 3

    def test_manifest_cost_accounting(self, finished_run):
        manifest = json.loads((finished_run / "manifest.json").read_text())
        oracle = manifest["oracle"]
        assert oracle["annotation_pairs"] == oracle["cache_misses"]
        acct = oracle["cost_accounting"]
        assert acct["init_pairs"] + acct["new_concept_pairs"] == \
            oracle["annotation_pairs"]
        assert acct["init_pairs"] == 40 * 2
        assert manifest["config"]["sampler"]["seed"] == 3
        assert 0.0 <= manifest["acceptance_rate"] <= 1.0

    def test_recovery_report_on_concentrated_testbed(self, finished_run):
        report = json.loads((finished_run / "reports" / "recovery.json").read_text())
        assert 0.0 <= report["concept_precision"] <= 1.0
        assert 0.0 <= report["concept_recall"] <= 1.0

    def test_reruns_are_byte_identical(self, workspace, finished_run):
        other = workspace / "run-repeat"
        config = write_config(workspace, other)
        assert cli.main(["run", "--config", str(config)]) == 0
        assert (other / "samples.jsonl").read_bytes() == \
            (finished_run / "samples.jsonl").read_bytes()

    def test_warm_cache_rerun_makes_no_oracle_calls(self, workspace, finished_run):
        # reuse the finished run directory: the annotation cache is warm
        config = write_config(workspace, finished_run)
        assert cli.main(["run", "--config", str(config)]) == 0
        manifest = json.loads((finished_run / "manifest.json").read_text())
        assert manifest["oracle"]["annotation_pairs"] == 0
        assert manifest["oracle"]["cache_misses"] == 0

    def test_cli_overrides_reach_the_sampler(self, workspace):
        run_dir = workspace / "run-override"
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--seed", "9",
                         "--t-epochs", "2", "--mode", "single_try"]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        sampler = manifest["config"]["sampler"]
        assert (sampler["seed"], sampler["t_epochs"], sampler["mode"]) == \
            (9, 2, "single_try")


class TestRunErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_oracle_type(self, workspace, tmp_path):
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir,
                              oracle={"type": "carrier-pigeon"})
        assert cli.main(["run", "--config", str(config)]) == 2

    def test_invalid_sampler_config(self, workspace, tmp_path):
        config = write_config(workspace, tmp_path / "run",
                              sampler=dict(SAMPLER, omega=2.0))
        assert cli.main(["run", "--config", str(config)]) == 2

    def test_lock_conflict(self, workspace, finished_run, tmp_path):
        # a lock held by a live process is refused, with or without --resume
        run_dir = tmp_path / "locked"
        (run_dir / "checkpoints").mkdir(parents=True)
        for name in ("chain.json", "chain.log"):
            (run_dir / "checkpoints" / name).write_bytes(
                (finished_run / "checkpoints" / name).read_bytes())
        (run_dir / ".lock").write_text(str(os.getpid()))
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config)]) == 2
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2
        assert (run_dir / ".lock").read_text() == str(os.getpid())

    def test_stale_lock_taken_over(self, workspace, tmp_path):
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait(timeout=60)
        run_dir = tmp_path / "stale"
        run_dir.mkdir()
        (run_dir / ".lock").write_text(str(exited.pid))
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config)]) == 0
        assert (run_dir / "samples.jsonl").exists()
        assert not (run_dir / ".lock").exists()

    @pytest.mark.parametrize("content", ["", "not a pid", "0", "-1", "9" * 30])
    def test_lock_naming_no_process_refused(self, workspace, tmp_path, capsys, content):
        run_dir = tmp_path / "unreadable"
        run_dir.mkdir()
        (run_dir / ".lock").write_text(content)
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config)]) == 2
        assert ".lock if no run is using the directory" in capsys.readouterr().err
        assert (run_dir / ".lock").read_text() == content

    def test_resume_without_checkpoint(self, workspace, tmp_path):
        config = write_config(workspace, tmp_path / "fresh")
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2

    @pytest.mark.parametrize("header", [
        "{}", "{not json", json.dumps({"format": "ccbm-checkpoint-v1", "trace": {}})])
    def test_unusable_checkpoint(self, workspace, tmp_path, capsys, header):
        run_dir = tmp_path / "resume"
        (run_dir / "checkpoints").mkdir(parents=True)
        (run_dir / "checkpoints" / "chain.json").write_text(header)
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2
        assert "chain.json" in capsys.readouterr().err
        assert not (run_dir / ".lock").exists()

    def test_resume_with_another_sampler_config(self, workspace, finished_run, tmp_path,
                                                capsys):
        run_dir = tmp_path / "resume"
        (run_dir / "checkpoints").mkdir(parents=True)
        for name in ("chain.json", "chain.log"):
            (run_dir / "checkpoints" / name).write_bytes(
                (finished_run / "checkpoints" / name).read_bytes())
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--resume", "--seed", "4"]) == 2
        assert "seed 3 -> 4" in capsys.readouterr().err
        assert not (run_dir / ".lock").exists()
        assert not (run_dir / "config.snapshot").exists()

    @pytest.mark.parametrize("texts, omega, message", [
        (["feat0", "feat0 feat1", "feat1"], 0.3, "floor(0.3 * 3) = 0"),
        (["feat0 feat1"], 0.5, "floor(0.5 * 1) = 0"),
        (["feat0", "feat1", "feat2", "feat3"], 0.5, "empty vocabulary")])
    def test_dataset_too_small(self, workspace, tmp_path, capsys, texts, omega, message):
        dataset = tmp_path / "tiny.ndjson"
        dataset.write_text("".join(json.dumps({"id": f"t{i}", "text": text, "label": i % 2})
                                   + "\n" for i, text in enumerate(texts)))
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir, dataset=str(dataset),
                              sampler=dict(SAMPLER, omega=omega))
        assert cli.main(["run", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not (run_dir / "checkpoints" / "chain.json").exists()
        assert not (run_dir / ".lock").exists()

    def test_duplicate_dataset_ids(self, workspace, tmp_path):
        bad = tmp_path / "bad.ndjson"
        row = json.dumps({"id": "dup", "text": "feat0", "label": 1})
        bad.write_text(row + "\n" + row + "\n")
        config = write_config(workspace, tmp_path / "run", dataset=str(bad))
        assert cli.main(["run", "--config", str(config)]) == 2

    def test_corrupt_cache_log(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "corrupt"
        (run_dir / "cache").mkdir(parents=True)
        (run_dir / "cache" / "annotations.ndjson").write_text('{"observation_id": \n{}\n')
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "annotations.ndjson:1" in capsys.readouterr().err
        assert not (run_dir / ".lock").exists()


    def test_corrupt_bag_cache(self, workspace, tmp_path, capsys):
        bags = tmp_path / "bags.json"
        bags.write_text('{"a": ["x"], "b": ')
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir,
                              oracle={"type": "llm", "endpoint": "http://127.0.0.1:9/v1",
                                      "model": "none", "bag_cache": str(bags)})
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "bags.json" in capsys.readouterr().err
        assert not (run_dir / ".lock").exists()


    @pytest.mark.parametrize("oracle, field", [
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "temperature": 0.5}, "temperature"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "task_description": "predict readmission"}, "task_description"),
        ({"type": "pool"}, "pool"),
        ({"type": "pool", "pool": "<pool>", "weight_mode": "bogus"}, "weight_mode"),
    ])
    def test_oracle_config_mistake(self, workspace, tmp_path, capsys, oracle, field):
        if oracle.get("pool") == "<pool>":
            oracle = dict(oracle, pool=str(workspace / "data" / "pool.json"))
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir, oracle=oracle)
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err and "Traceback" not in err
        assert not (run_dir / ".lock").exists()


class TestKillResume:
    def test_interrupt_then_resume_matches_uninterrupted(
            self, workspace, finished_run, monkeypatch):
        run_dir = workspace / "run-interrupted"
        config = write_config(workspace, run_dir)

        original = PoolOracle.propose
        calls = {"n": 0}

        def flaky(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 5:
                raise OracleError("simulated outage")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PoolOracle, "propose", flaky)
        assert cli.main(["run", "--config", str(config)]) == 3
        assert (run_dir / "checkpoints" / "chain.json").exists()
        assert not (run_dir / "samples.jsonl").exists()
        assert not (run_dir / ".lock").exists()

        monkeypatch.setattr(PoolOracle, "propose", original)
        assert cli.main(["run", "--config", str(config), "--resume"]) == 0
        assert (run_dir / "samples.jsonl").read_bytes() == \
            (finished_run / "samples.jsonl").read_bytes()


    def test_crashed_run_leaves_a_lock_that_resume_takes_over(self, workspace, finished_run):
        run_dir = workspace / "run-crashed"
        config = write_config(workspace, run_dir)
        # the run dies at its fifth proposal, without any cleanup
        script = (
            "import os, sys\n"
            "from ccbm import cli\n"
            "from ccbm.oracle import PoolOracle\n"
            "propose, calls = PoolOracle.propose, []\n"
            "def crash(self, *args, **kwargs):\n"
            "    calls.append(1)\n"
            "    if len(calls) == 5:\n"
            "        os._exit(9)\n"
            "    return propose(self, *args, **kwargs)\n"
            "PoolOracle.propose = crash\n"
            "cli.main(['run', '--config', sys.argv[1]])\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        crashed = subprocess.Popen([sys.executable, "-c", script, str(config)],
                                   env=dict(os.environ, PYTHONPATH=src))
        assert crashed.wait(timeout=300) == 9
        assert (run_dir / ".lock").read_text() == str(crashed.pid)
        assert (run_dir / "checkpoints" / "chain.json").exists()
        assert cli.main(["run", "--config", str(config), "--resume"]) == 0
        assert (run_dir / "samples.jsonl").read_bytes() == \
            (finished_run / "samples.jsonl").read_bytes()
        assert not (run_dir / ".lock").exists()


class TestResidualSummary:
    @staticmethod
    def bags(n):
        return [KeyphraseBag(f"o{i}", frozenset({"a", "b"} if i % 3 else {"a", "c"}))
                for i in range(n)]

    def test_one_class_run_exits_3_without_fitting(self, workspace, tmp_path, capsys,
                                                   monkeypatch):
        rows = [json.loads(line) for line in
                (workspace / "data" / "dataset.ndjson").read_text().splitlines()]
        dataset = tmp_path / "positives.ndjson"
        dataset.write_text("".join(json.dumps(dict(r, label=1)) + "\n" for r in rows))
        monkeypatch.setattr(cli, "fit_keyphrase_model", pytest.fail)
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir, dataset=str(dataset))
        assert cli.main(["run", "--config", str(config)]) == 3
        assert "keyphrase summary is empty" in capsys.readouterr().err
        assert not (run_dir / ".lock").exists()

    def test_one_class_subset_gets_no_signal_without_fitting(self, monkeypatch):
        monkeypatch.setattr(cli, "fit_keyphrase_model", pytest.fail)
        labels = np.array([0, 1] * 6)
        data = GibbsData(labels, [f"o{i}" for i in range(12)],
                         lambda concepts: np.zeros((12, len(concepts))))
        provider = cli._make_summary_provider(data, labels, self.bags(12), {}, 0)
        summary = provider([Concept("Is it a?")], np.arange(1, 12, 2))
        assert summary.entries == [] and not summary.residual_signal

    def test_unconverged_fit_is_reported_and_gives_no_signal(self, workspace, tmp_path,
                                                             capsys, monkeypatch):
        def unconverged(*args, **kwargs):
            raise OptimizationError("Newton did not converge in 200 iterations", np.zeros(3))
        monkeypatch.setattr(cli, "fit_keyphrase_model", unconverged)
        summary = cli._fit_initial_summary(self.bags(12), np.array([0, 1] * 6), {}, 0)
        assert summary.entries == [] and not summary.residual_signal
        assert "did not converge" in capsys.readouterr().err
        config = write_config(workspace, tmp_path / "run")
        assert cli.main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "did not converge" in err and "keyphrase summary is empty" in err


class TestPredict:
    def test_scores_training_set(self, workspace, finished_run):
        out = workspace / "predictions.ndjson"
        assert cli.main(["predict", "--run", str(finished_run),
                         "--input", str(workspace / "data" / "dataset.ndjson"),
                         "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 40
        n_posterior = sum(1 for line in
                          (finished_run / "samples.jsonl").read_text().splitlines()
                          if not json.loads(line)["burn_in"])
        for line in lines:
            rec = json.loads(line)
            assert 0.0 <= rec["probability"] <= 1.0
            assert len(rec["per_sample"]) == n_posterior
            assert {"concepts", "values", "probability"} <= set(rec["per_sample"][0])

    def test_unseen_observations_use_keyword_fallback(self, workspace, finished_run):
        new = workspace / "new.ndjson"
        new.write_text(json.dumps(
            {"id": "fresh-1", "text": "The record notes: feat0, feat1."}) + "\n")
        out = workspace / "new-predictions.ndjson"
        assert cli.main(["predict", "--run", str(finished_run),
                         "--input", str(new), "--output", str(out)]) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["id"] == "fresh-1"
        assert 0.0 <= rec["probability"] <= 1.0

    @pytest.mark.parametrize("run", ["finished_run", "many_sets_run"])
    @pytest.mark.parametrize("rows", ["training", "unseen"])
    def test_matches_per_row_reference(self, workspace, tmp_path, request, run, rows):
        run_dir = request.getfixturevalue(run)
        inputs = (workspace / "data" / "dataset.ndjson" if rows == "training"
                  else unseen_rows(workspace))
        got = predict(run_dir, inputs, tmp_path / "p.ndjson")
        assert got == reference_predictions(run_dir, inputs)
        if run == "many_sets_run":
            _, samples = cli._load_run(run_dir)
            assert len({s.concept_set for s in samples}) > 1

    def test_one_annotate_call(self, workspace, finished_run, tmp_path, monkeypatch):
        calls = []
        original = PoolOracle.annotate

        def counted(self, observations, concepts):
            calls.append(len(observations))
            return original(self, observations, concepts)

        monkeypatch.setattr(PoolOracle, "annotate", counted)
        predict(finished_run, unseen_rows(workspace), tmp_path / "p.ndjson")
        assert calls == [25]

    def test_failing_row_gets_an_error_line(self, workspace, many_sets_run, tmp_path,
                                            monkeypatch):
        inputs = unseen_rows(workspace)
        clean = predict(many_sets_run, inputs, tmp_path / "clean.ndjson").splitlines()
        bad_id = json.loads(clean[3])["id"]
        original = PoolOracle.annotate

        def failing(self, observations, concepts):
            if any(o.id == bad_id for o in observations):
                raise OracleError(f"cannot annotate {bad_id}")
            return original(self, observations, concepts)

        monkeypatch.setattr(PoolOracle, "annotate", failing)
        got = predict(many_sets_run, inputs, tmp_path / "patched.ndjson").splitlines()
        assert len(got) == len(clean)
        assert json.loads(got[3]) == {"id": bad_id, "error": f"cannot annotate {bad_id}"}
        assert got[:3] + got[4:] == clean[:3] + clean[4:]

    def test_reused_training_id_with_other_text(self, tmp_path, capsys):
        # the recorded case: after a clinical fit on simulate seed 2, this text
        # was scored on the training row obs-2-00013's values (0.005, not 0.997)
        assert cli.main(["simulate", "--out", str(tmp_path / "data"), "--n", "200",
                         "--seed", "2", "--clinical", "--n-decoys", "5"]) == 0
        config = {"dataset": str(tmp_path / "data" / "dataset.ndjson"),
                  "output_dir": str(tmp_path / "run"),
                  "oracle": {"type": "pool", "pool": str(tmp_path / "data" / "pool.json"),
                             "weight_mode": "uniform"},
                  "sampler": dict(SAMPLER, k=5, t_epochs=1, m_candidates=5, seed=0,
                                  keep_last=0)}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(tmp_path / "config.json")]) == 0
        text = "unemployed, retired, alcohol, drugs"
        reused = tmp_path / "reused.ndjson"
        reused.write_text(json.dumps({"id": "obs-2-00013", "text": text}) + "\n")
        assert cli.main(["predict", "--run", str(tmp_path / "run"), "--input", str(reused),
                         "--output", str(tmp_path / "o.ndjson")]) == 2
        assert "obs-2-00013" in capsys.readouterr().err
        assert not (tmp_path / "o.ndjson").exists()
        fresh = tmp_path / "fresh.ndjson"
        fresh.write_text(json.dumps({"id": "fresh-1", "text": text}) + "\n")
        rec = json.loads(predict(tmp_path / "run", fresh, tmp_path / "o.ndjson"))
        assert rec["probability"] > 0.9

    def test_missing_run_dir(self, workspace, tmp_path):
        assert cli.main(["predict", "--run", str(tmp_path),
                         "--input", str(workspace / "data" / "dataset.ndjson"),
                         "--output", str(tmp_path / "o.ndjson")]) == 2


class TestEval:
    def test_metrics_report(self, workspace, finished_run, capsys):
        assert cli.main(["eval", "--run", str(finished_run)]) == 0
        report = json.loads((finished_run / "reports" / "metrics.json").read_text())
        assert report["n"] == 40
        assert 0.0 <= report["auc"] <= 1.0
        assert 0.0 <= report["brier"] <= 0.25 + 1e-9
        assert sum(report["support_frequencies"].values()) == pytest.approx(1.0)
        printed = json.loads(capsys.readouterr().out)
        assert printed["auc"] == report["auc"]

    @pytest.mark.parametrize("run", ["finished_run", "many_sets_run"])
    def test_matches_per_row_reference(self, request, capsys, run):
        run_dir = request.getfixturevalue(run)
        assert cli.main(["eval", "--run", str(run_dir)]) == 0
        # the per-row loop: an (S, n) matrix of sigmoid_predict, averaged over samples
        cfg, samples = cli._load_run(run_dir)
        observations, labels = cli.load_dataset(cfg.dataset)
        oracle = cli.build_oracle(cfg, observations, labels, AnnotationCache())
        data = cli.gibbs_data_from_oracle(observations, labels, oracle)
        scores = np.mean([[sigmoid_predict(s.theta, row)
                           for row in data.phi(s.concept_set).values] for s in samples], axis=0)
        reference = {"n": len(observations), "auc": auc(scores, labels),
                     "brier": brier(scores, labels),
                     "support_frequencies": {
                         support: n / len(samples) for support, n in Counter(
                             " | ".join(sorted(c.question for c in s.concept_set))
                             for s in samples).items()}}
        assert (run_dir / "reports" / "metrics.json").read_text() == \
            json.dumps(reference, indent=2)

    def test_support_reached_in_several_orders_sums_its_frequencies(self, many_sets_run):
        assert cli.main(["eval", "--run", str(many_sets_run)]) == 0
        _, samples = cli._load_run(many_sets_run)
        orders = Counter(cs.id_set() for cs in {s.concept_set for s in samples})
        assert max(orders.values()) > 1  # some support is reached in two slot orders
        report = json.loads((many_sets_run / "reports" / "metrics.json").read_text())
        assert len(report["support_frequencies"]) == len(orders)
        assert sum(report["support_frequencies"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_recovery_with_truth_file(self, workspace, finished_run):
        assert cli.main(["eval", "--run", str(finished_run),
                         "--truth", str(workspace / "data" / "truth.json")]) == 0
        report = json.loads((finished_run / "reports" / "metrics.json").read_text())
        assert {"concept_precision", "concept_recall"} <= set(report["recovery"])


class TestEnumerate:
    def test_exact_posterior_dump(self, workspace, tmp_path):
        out = tmp_path / "posterior.json"
        assert cli.main(["enumerate",
                         "--dataset", str(workspace / "data" / "dataset.ndjson"),
                         "--pool", str(workspace / "data" / "pool.json"),
                         "--k", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 28  # C(8, 2)
        probs = [entry["probability"] for entry in payload]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)


class TestExtractKeyphrases:
    def test_bags_dumped(self, workspace, finished_run, tmp_path):
        out = tmp_path / "bags.ndjson"
        config = workspace / "run-main-config.json"
        assert cli.main(["extract-keyphrases", "--config", str(config),
                         "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 40
        rec = json.loads(lines[0])
        assert set(rec) == {"observation_id", "phrases"}
