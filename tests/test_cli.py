import json
from pathlib import Path

import numpy as np
import pytest

from ccbm import cli
from ccbm.oracle import OracleError, PoolOracle

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

    def test_lock_conflict(self, workspace, tmp_path):
        run_dir = tmp_path / "locked"
        run_dir.mkdir()
        (run_dir / ".lock").write_text("12345")
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config)]) == 2

    def test_resume_without_checkpoint(self, workspace, tmp_path):
        config = write_config(workspace, tmp_path / "fresh")
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2

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
