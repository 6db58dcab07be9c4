import fcntl
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
import requests

from ccbm import cli
from ccbm.concepts import Concept
from ccbm.evaluate import auc, brier
from ccbm.model import (OptimizationError, PosteriorSample, posterior_predictive,
                        sigmoid_predict)
from ccbm.oracle import AnnotationCache, KeyphraseBag, OracleError, PoolConcept, PoolOracle
from ccbm.sampler import GibbsData, load_checkpoint

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


def dataset_with_text(ws, tmp_path, text) -> Path:
    """A copy of the workspace dataset whose third record's text is text."""
    lines = (ws / "data" / "dataset.ndjson").read_text().splitlines()
    lines[2] = json.dumps(dict(json.loads(lines[2]), text=text))
    path = tmp_path / "bad.ndjson"
    path.write_text("\n".join(lines) + "\n")
    return path


def lock_is_free(run_dir) -> bool:
    """Whether a new open of run_dir/.lock can take its flock, so that no run
    holds it; closing the file releases the lock again."""
    with open(run_dir / ".lock", "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
        return True


def exited_pid() -> int:
    """The pid of a process that has exited."""
    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    exited.wait(timeout=60)
    return exited.pid


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


def load_posterior(run_dir):
    """The run's config and posterior samples, one from_dict per line of
    samples.jsonl, without the CLI's loader."""
    cfg = cli.RunConfig.load(run_dir / "config.snapshot")
    samples = [PosteriorSample.from_dict(json.loads(line))
               for line in (run_dir / "samples.jsonl").read_text().splitlines()]
    return cfg, [s for s in samples if not s.burn_in]


def reference_predictions(run_dir, input_path) -> bytes:
    """predictions.ndjson as a per-row loop writes it: one annotate call per
    row, one sigmoid_predict per (row, sample), one posterior_predictive per
    row and json.dumps of each whole row. A sample joins the record of the
    first sample with its concept questions and the same θ bits, whose
    sigmoid_predict it must equal."""
    cfg, samples = load_posterior(run_dir)
    observations, _ = cli.load_dataset(input_path, require_labels=False)
    train_obs, _ = cli.load_dataset(cfg.dataset)
    oracle = cli.build_oracle(cfg, train_obs, AnnotationCache())
    concepts = {c.id: c for s in samples for c in s.concept_set}
    out = []
    for obs in observations:
        try:
            row = oracle.annotate([obs], list(concepts.values()))[0]
        except OracleError as exc:
            out.append(json.dumps({"id": obs.id, "error": str(exc)}))
            continue
        values = dict(zip(concepts, row.tolist()))
        records, rows = {}, []
        for i, s in enumerate(samples):
            row = np.array([values[c.id] for c in s.concept_set] + [1.0])
            rows.append(row)
            questions = [c.question for c in s.concept_set]
            record = records.setdefault((tuple(questions), s.theta.tobytes()), {
                "concepts": questions, "values": [values[c.id] for c in s.concept_set],
                "probability": sigmoid_predict(s.theta, row), "samples": []})
            assert record["probability"] == sigmoid_predict(s.theta, row)
            record["samples"].append(i)
        out.append(json.dumps({"id": obs.id,
                               "probability": posterior_predictive(samples, rows),
                               "version": 2, "records": list(records.values())}))
    return "".join(line + "\n" for line in out).encode()


def record_of_sample(row, i):
    """The record of a predictions row that posterior sample i uses."""
    (record,) = [r for r in row["records"] if i in r["samples"]]
    return record


def reference_metrics(run_dir) -> str:
    """metrics.json without --truth as the per-row loop wrote it: one
    posterior_predictive per row, the reference reference_predictions uses."""
    cfg, samples = load_posterior(run_dir)
    observations, labels = cli.load_dataset(cfg.dataset)
    oracle = cli.build_oracle(cfg, observations, AnnotationCache())
    data = cli.gibbs_data_from_oracle(observations, labels, oracle)
    designs = [data.designs([s.concept_set])[0] for s in samples]
    scores = np.array([posterior_predictive(samples, [X[i] for X in designs])
                       for i in range(len(observations))])
    return json.dumps({"n": len(observations), "auc": auc(scores, labels),
                       "brier": brier(scores, labels),
                       "support_frequencies": {
                           support: n / len(samples) for support, n in Counter(
                               " | ".join(sorted(c.question for c in s.concept_set))
                               for s in samples).items()}}, indent=2)


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

    @pytest.mark.parametrize("extra, what", [
        (["--coefficients", "a,b"], "--coefficients must be comma-separated finite numbers, "
                                    "got 'a,b'"),
        (["--coefficients", "1,nan"], "--coefficients must be comma-separated finite numbers"),
        (["--n", "-5"], "--n must be >= 1, got -5"),
        (["--n", "0"], "--n must be >= 1, got 0"),
        (["--pool-size", "0"], "--coefficients lists 2 coefficients, more than --pool-size 0"),
        (["--clinical", "--n-decoys", "-1"], "--n-decoys must be >= 0, got -1")],
        ids=["coefficients-not-numbers", "coefficient-nan", "n-negative", "n-zero",
             "more-coefficients-than-pool", "n-decoys-negative"])
    def test_user_error_exits_2_naming_it(self, tmp_path, capsys, extra, what):
        out = tmp_path / "data"
        assert cli.main(["simulate", "--out", str(out), "--n", "10", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and what in err
        assert not out.exists()


class TestRun:
    def test_artifacts_written(self, finished_run):
        for rel in ("config.snapshot", "samples.jsonl", "manifest.json",
                    "reports/update_log.jsonl", "reports/recovery.json",
                    "checkpoints/chain.log", "cache/annotations.ndjson"):
            assert (finished_run / rel).exists(), rel
        # the chain log is the whole checkpoint
        assert [p.name for p in (finished_run / "checkpoints").iterdir()] == ["chain.log"]
        assert lock_is_free(finished_run)

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
        # LLM work is not counted for the pool oracle
        assert oracle["llm_calls"] is oracle["llm_retries"] is oracle["imputed_values"] is None

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

    def test_k_above_the_pool_size(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir, sampler=dict(SAMPLER, k=50))
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sampler.k 50 is more than the 8 concepts of "
                              "oracle.pool")
        assert not run_dir.exists()

    @pytest.mark.parametrize("field, value, what", [
        ("k", 0, "k must be an integer >= 1, got 0"),
        ("k", 2.5, "k must be an integer >= 1, got 2.5"),
        ("t_epochs", True, "t_epochs must be an integer >= 1, got True"),
        ("m_candidates", "4", "m_candidates must be an integer >= 1, got '4'"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("warm_start_epochs", -1, "warm_start_epochs must be an integer >= 0, got -1"),
        ("keep_last", -3, "keep_last must be an integer >= 0, got -3"),
        ("gamma", 0, "gamma must be finite and positive, got 0"),
        ("gamma", -1, "gamma must be finite and positive, got -1"),
        pytest.param("gamma", 10**400, f"gamma must be finite and positive, got {10**400}",
                     id="gamma-beyond-the-float-range"),
        ("gamma", True, "gamma must be finite and positive, got True"),
        ("omega", "0.5", "omega must be a finite number > 0 and < 1, got '0.5'")])
    def test_unrunnable_sampler_config(self, workspace, tmp_path, capsys, field, value, what):
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir, sampler=dict(SAMPLER, **{field: value}))
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sampler.{field} must") and what in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("edit, argv, what", [
        (lambda config: dict(config, oracle="pool"), [],
         "oracle must be a JSON object, got 'pool'"),
        (lambda config: dict(config, keyphrase=["min_df"]), [],
         "keyphrase must be a JSON object, got ['min_df']"),
        (lambda config: [1], ["--seed", "3"], "config must be a JSON object, got [1]"),
        (lambda config: dict(config, dataset=5), [], "dataset must be a string, got 5"),
        (lambda config: dict(config, output_dir=["x"]), [],
         "output_dir must be a string, got ['x']"),
        (lambda config: dict(config, truth="Is feature 0 present?"), [],
         "truth must list at least one string, got 'Is feature 0 present?'"),
        (lambda config: dict(config, weightmode="uniform"), [],
         "has an unknown field 'weightmode'; its fields are dataset, output_dir"),
        (lambda config: dict(config, keyphrase={"top_n": "abc"}), [],
         "keyphrase.top_n must be an integer >= 1, got 'abc'"),
        (lambda config: dict(config, keyphrase={"top_n": 0}), [],
         "keyphrase.top_n must be an integer >= 1, got 0"),
        (lambda config: dict(config, keyphrase={"top_n": -1}), [],
         "keyphrase.top_n must be an integer >= 1, got -1"),
        (lambda config: dict(config, keyphrase={"min_df": True}), [],
         "keyphrase.min_df must be an integer >= 1, got True"),
        (lambda config: dict(config, keyphrase={"topn": 5}), [],
         "keyphrase has an unknown field 'topn'"),
        (lambda config: dict(config, keyphrase={"min_df": 1.5}), ["--resume"],
         "keyphrase.min_df must be an integer >= 1, got 1.5")],
        ids=["oracle", "keyphrase", "top-level", "dataset", "output-dir", "truth",
             "unknown-top-level-field", "top-n-not-a-number", "top-n-zero", "top-n-negative",
             "min-df-bool", "unknown-keyphrase-field", "min-df-on-resume"])
    def test_config_of_the_wrong_shape(self, workspace, tmp_path, capsys, edit, argv, what):
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir)
        config.write_text(json.dumps(edit(json.loads(config.read_text()))))
        assert cli.main(["run", "--config", str(config), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and what in err and "Traceback" not in err
        assert not (run_dir / ".lock").exists()

    def test_lock_conflict(self, workspace, finished_run, tmp_path, capsys):
        # a lock another open file holds is refused, with or without --resume
        run_dir = tmp_path / "locked"
        (run_dir / "checkpoints").mkdir(parents=True)
        (run_dir / "checkpoints" / "chain.log").write_bytes(
            (finished_run / "checkpoints" / "chain.log").read_bytes())
        config = write_config(workspace, run_dir)
        with open(run_dir / ".lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert cli.main(["run", "--config", str(config)]) == 2
            assert cli.main(["run", "--config", str(config), "--resume"]) == 2
            assert capsys.readouterr().err.count("is locked by another run") == 2
        assert not (run_dir / "config.snapshot").exists()
        assert lock_is_free(run_dir)

    def test_stale_lock_taken_over(self, workspace, tmp_path):
        run_dir = tmp_path / "stale"
        run_dir.mkdir()
        (run_dir / ".lock").write_text(str(exited_pid()))
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config)]) == 0
        assert (run_dir / "samples.jsonl").exists()
        assert (run_dir / ".lock").read_text() == str(os.getpid())
        assert lock_is_free(run_dir)

    @pytest.mark.parametrize("content", ["", "not a pid", "0", "-1", "9" * 30, "1"])
    def test_unheld_lock_taken_over(self, workspace, tmp_path, content):
        # a lock file that no process holds is taken over, whatever it
        # contains; "1" names a live process (init) that holds no lock
        run_dir = tmp_path / "unheld"
        run_dir.mkdir()
        (run_dir / ".lock").write_text(content)
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config)]) == 0
        assert (run_dir / ".lock").read_text() == str(os.getpid())
        assert lock_is_free(run_dir)

    def test_one_of_two_racing_takeovers_gets_the_lock(self, tmp_path, monkeypatch):
        """Two runs that find the same stale lock at once: exactly one of them
        gets it. A run that reads .lock waits there for the other, and then
        one of them waits 0.2 s more, so the pid it read is out of date by the
        time it acts on it: the other run has locked the directory meanwhile."""
        run_dir = tmp_path / "race"
        run_dir.mkdir()
        (run_dir / ".lock").write_text(str(exited_pid()))
        barrier, read_text, waited = threading.Barrier(2, timeout=30), Path.read_text, set()

        def racing_read(path, *args, **kwargs):
            text = read_text(path, *args, **kwargs)
            if path.name == ".lock" and threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                if barrier.wait() == 0:
                    time.sleep(0.2)
            return text

        monkeypatch.setattr(Path, "read_text", racing_read)
        results = []

        def take():
            try:
                results.append(cli._acquire_lock(run_dir))
            except cli.ConfigError as exc:
                results.append(exc)

        threads = [threading.Thread(target=take) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        held = [r for r in results if not isinstance(r, cli.ConfigError)]
        assert len(results) == 2 and len(held) == 1
        assert not lock_is_free(run_dir)
        held[0].close()
        assert lock_is_free(run_dir)

    @pytest.mark.parametrize("truth, what", [
        ([], "truth must list at least one string, got []"),
        (["Is feature 9 present?"], "['Is feature 9 present?']"),
        (["Is feature 0 present?", "Is feature 9 present?"], "['Is feature 9 present?']")],
        ids=["empty", "none-in-pool", "one-not-in-pool"])
    def test_truth_checked_before_the_chain(self, workspace, tmp_path, capsys, truth, what):
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir, truth=truth)
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and what in err
        assert not (run_dir / "checkpoints" / "chain.log").exists()

    def test_resume_without_checkpoint(self, workspace, tmp_path):
        config = write_config(workspace, tmp_path / "fresh")
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2

    @pytest.mark.parametrize("header", [
        "{}", "{not json", json.dumps({"format": "ccbm-checkpoint-v1", "trace": {}})])
    def test_unusable_checkpoint(self, workspace, tmp_path, capsys, header):
        run_dir = tmp_path / "resume"
        (run_dir / "checkpoints").mkdir(parents=True)
        (run_dir / "checkpoints" / "chain.log").write_text(header + "\n")
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2
        assert "chain.log:1: corrupt checkpoint line" in capsys.readouterr().err
        assert lock_is_free(run_dir)

    @pytest.mark.parametrize("log", [b"", b"\n"], ids=["empty", "blank-line"])
    def test_checkpoint_without_a_header(self, workspace, tmp_path, capsys, log):
        run_dir = tmp_path / "resume"
        (run_dir / "checkpoints").mkdir(parents=True)
        (run_dir / "checkpoints" / "chain.log").write_bytes(log)
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "chain.log holds no checkpoint header" in err and "Traceback" not in err
        assert not (run_dir / "samples.jsonl").exists()
        assert lock_is_free(run_dir)

    def test_checkpoint_that_cannot_be_read(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "resume"
        (run_dir / "checkpoints" / "chain.log").mkdir(parents=True)
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and "chain.log" in err and "Traceback" not in err
        assert lock_is_free(run_dir)

    def test_resume_with_another_sampler_config(self, workspace, finished_run, tmp_path,
                                                capsys):
        run_dir = tmp_path / "resume"
        (run_dir / "checkpoints").mkdir(parents=True)
        (run_dir / "checkpoints" / "chain.log").write_bytes(
            (finished_run / "checkpoints" / "chain.log").read_bytes())
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--resume", "--seed", "4"]) == 2
        assert "seed 3 -> 4" in capsys.readouterr().err
        assert lock_is_free(run_dir)
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
        assert not (run_dir / "checkpoints" / "chain.log").exists()
        assert lock_is_free(run_dir)

    @pytest.mark.parametrize("text", [None, 5, ["feat0"]], ids=["null", "number", "list"])
    def test_non_string_text_exits_2_naming_the_line(self, workspace, tmp_path, capsys, text):
        bad = dataset_with_text(workspace, tmp_path, text)
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir, dataset=str(bad))
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: bad dataset record: text must be a string" in err
        assert "Traceback" not in err
        assert not (run_dir / "checkpoints" / "chain.log").exists()

    @pytest.mark.parametrize("lines, error", [
        (['{"id": "a", "text": "x", "label": 1}', "", '{"id": "b", "text":', "{"],
         "3: bad dataset record: Expecting value"),
        (["", '{"id": "a", "text": "x", "label": 1}', "  ", '{"id": "b", "text": "y"}',
          "{"], "4: label must be 0 or 1"),
        (["[1", "2], 5"], "1: bad dataset record: Expecting ',' delimiter"),
        (['{"id": "a", "text": "x", "label": 1, "z": [1',
          '2]}, {"id": "b", "text": "y", "label": 0}'],
         "1: bad dataset record: Expecting ',' delimiter")],
        ids=["after-a-blank-line", "label", "one-array-over-two-lines",
             "one-record-over-two-lines"])
    def test_bad_dataset_line_is_named_by_its_number(self, tmp_path, lines, error):
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(f'{path}:{error}')}"):
            cli.load_dataset(path)

    def test_dataset_with_blank_lines_and_padding(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text('\n  {"id": 7, "text": "x", "label": 1}\t\n\n'
                        '{"id": "b", "text": "y [1", "label": 0}')
        observations, labels = cli.load_dataset(path)
        assert [(o.id, o.payload, o.label) for o in observations] == [
            ("7", "x", 1), ("b", "y [1", 0)]
        assert labels.tolist() == [1, 0]
        assert cli.load_dataset(path, require_labels=False)[1].tolist() == [1, 0]

    def test_missing_dataset_makes_no_run_directory(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        missing = tmp_path / "none.ndjson"
        config = write_config(workspace, run_dir, dataset=str(missing))
        assert cli.main(["run", "--config", str(config)]) == 2
        assert f"dataset file {missing} does not exist" in capsys.readouterr().err
        assert not run_dir.exists()

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
        assert lock_is_free(run_dir)


    def test_corrupt_bag_cache(self, workspace, tmp_path, capsys):
        bags = tmp_path / "bags.json"
        bags.write_text('{"a": ["x"], "b": ')
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir,
                              oracle={"type": "llm", "endpoint": "http://127.0.0.1:9/v1",
                                      "model": "none", "bag_cache": str(bags)})
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "bags.json" in capsys.readouterr().err
        assert lock_is_free(run_dir)


    def test_corrupt_bag_log_line(self, workspace, tmp_path, capsys):
        bags = tmp_path / "bags.ndjson"
        bags.write_text('{"observation_id": "a", "phrases": ["x"]}\n{"observation_id": \n'
                        '{"observation_id": "b", "phrases": []}\n')
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir,
                              oracle={"type": "llm", "endpoint": "http://127.0.0.1:9/v1",
                                      "model": "none", "bag_cache": str(bags)})
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "bags.ndjson:2" in err and "can be deleted" in err and "Traceback" not in err
        assert lock_is_free(run_dir)

    @pytest.mark.parametrize("oracle, field", [
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "temperature": 0.5}, "temperature"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "task_description": "predict readmission"}, "task_description"),
        ({"type": "pool"}, "pool"),
        ({"type": "pool", "pool": "<pool>", "weight_mode": "bogus"}, "weight_mode"),
        ({"type": "pool", "pool": "<pool>", "weightmode": "uniform"},
         "oracle has an unknown field 'weightmode'"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "max_in_flight": 0}, "max_in_flight must be an integer >= 1, got 0"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "backoff_seconds": []}, "backoff_seconds must list at least one finite number"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "max_retries": 0}, "max_retries must be an integer >= 1, got 0"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "max_in_flight": True}, "max_in_flight must be an integer >= 1, got True"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "backoff_seconds": [1.0, -2.0]}, "got [1.0, -2.0]"),
        ({"type": "llm", "endpoint": 5, "model": "none"}, "endpoint must be a string, got 5"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "prompt_dir": ["p"]}, "prompt_dir must be a string, got ['p']"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "annotate_temperature": -0.5}, "annotate_temperature must be a finite number >= 0"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "propose_temperature": "hot"}, "propose_temperature must be a finite number >= 0"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "request_timeout": 0}, "request_timeout must be finite and positive, got 0"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "bag_cache": 5}, "oracle.bag_cache must be a string, got 5"),
        ({"type": "pool", "pool": [{"question": "Is it a?", "keyword": 5}]},
         "the keyword of 'Is it a?' must be a string, not int"),
        ({"type": "pool", "pool": [{"question": "Is it a?", "keyword": None}]},
         "the keyword of 'Is it a?' must be a string, not NoneType"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "request_timeout": True}, "oracle.request_timeout must be finite and positive, got True"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "backoff_seconds": [True]}, "oracle.backoff_seconds must list at least one finite number "
                                      ">= 0, got [True]"),
        ({"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "none",
          "annotate_temperature": True},
         "oracle.annotate_temperature must be a finite number >= 0, got True"),
        ({"type": "pool", "pool": []}, "sampler.k 2 is more than the 0 concepts of oracle.pool"),
        ({"type": "pool", "pool": {}},
         "oracle.pool must be a string or be a list of JSON objects, got {}"),
        ({"type": "carrier-pigeon"},
         "oracle.type must be one of 'pool', 'llm', got 'carrier-pigeon'"),
        ({"type": "pool", "pool": [{"question": "Is it a?", "keyword": "a"}] * 2},
         "pool contains duplicate concepts"),
        ({"type": "pool", "pool": "<missing>"}, "cannot read concept pool"),
    ])
    def test_oracle_config_mistake(self, workspace, tmp_path, capsys, oracle, field):
        if oracle.get("pool") in ("<pool>", "<missing>"):
            name = "pool.json" if oracle["pool"] == "<pool>" else "missing.json"
            oracle = dict(oracle, pool=str(workspace / "data" / name))
        run_dir = tmp_path / "run"
        config = write_config(workspace, run_dir, oracle=oracle)
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err and "Traceback" not in err
        # the schema and the pool are checked before the run directory is made
        assert not run_dir.exists()


    @pytest.mark.parametrize("command", ["predict", "eval", "enumerate"])
    def test_pool_keyword_not_a_string(self, workspace, finished_run, tmp_path, capsys,
                                       command):
        pool = json.loads((workspace / "data" / "pool.json").read_text())
        pool[1]["keyword"] = 5
        bad_pool = tmp_path / "pool.json"
        bad_pool.write_text(json.dumps(pool))
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        snapshot = json.loads((run_dir / "config.snapshot").read_text())
        snapshot["oracle"]["pool"] = str(bad_pool)
        (run_dir / "config.snapshot").write_text(json.dumps(snapshot))
        argv = {"predict": ["predict", "--run", str(run_dir), "--input",
                            str(workspace / "data" / "dataset.ndjson"),
                            "--output", str(tmp_path / "predictions.ndjson")],
                "eval": ["eval", "--run", str(run_dir)],
                "enumerate": ["enumerate", "--dataset", str(workspace / "data" / "dataset.ndjson"),
                              "--pool", str(bad_pool), "--k", "2",
                              "--out", str(tmp_path / "exact.json")]}[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"the keyword of {pool[1]['question']!r} must be a string, not int" in err
        assert "Traceback" not in err


class TestLLMRunCounts:
    """The manifest counts LLM calls, retries and imputations as the transport
    saw them, and a flaky transport that always answers on a retry leaves the
    samples as they were."""

    class Transport:
        def __init__(self, fake, flaky):
            self.fake, self.flaky = fake, flaky
            self.lock = threading.Lock()
            self.calls = self.failures = 0
            self.seen = set()

        def __call__(self, url, headers, payload):
            prompt = payload["messages"][0]["content"]
            with self.lock:
                self.calls += 1
                fail = (self.flaky and prompt not in self.seen
                        and hashlib.sha256(prompt.encode()).digest()[0] % 3 == 0)
                self.seen.add(prompt)
                self.failures += fail
            if fail:
                raise requests.ConnectionError("flaky")
            return self.fake(url, headers, payload)

    def test_flaky_transport(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from fake_llm import FakeChatTransport
        from ccbm.llm import ChatClient
        data = tmp_path / "data"
        assert cli.main(["simulate", "--out", str(data), "--n", "60", "--seed", "4",
                         "--clinical", "--n-decoys", "5"]) == 0
        texts = [json.loads(line)["text"]
                 for line in (data / "dataset.ndjson").read_text().splitlines()]
        results = {}
        for flaky in (False, True):
            transport = self.Transport(FakeChatTransport(texts), flaky)
            monkeypatch.setattr(ChatClient, "_http_post", staticmethod(transport))
            run_dir = tmp_path / f"run-{flaky}"
            config = tmp_path / f"config-{flaky}.json"
            config.write_text(json.dumps({
                "dataset": str(data / "dataset.ndjson"), "output_dir": str(run_dir),
                "oracle": {"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "fake",
                           "max_in_flight": 4, "backoff_seconds": [0, 0, 0]},
                "sampler": dict(SAMPLER, k=4, t_epochs=2, m_candidates=4)}))
            assert cli.main(["run", "--config", str(config)]) == 0
            oracle = json.loads((run_dir / "manifest.json").read_text())["oracle"]
            assert oracle["llm_calls"] == transport.calls
            assert oracle["llm_retries"] == transport.failures
            assert oracle["imputed_values"] == 0
            results[flaky] = (run_dir / "samples.jsonl").read_bytes(), transport
        assert results[True][1].failures > 0 and results[False][1].failures == 0
        assert results[True][1].calls == results[False][1].calls + results[True][1].failures
        assert results[True][0] == results[False][0]


def run_with_edited_llm_answers(tmp_path, monkeypatch, edit, **extra) -> tuple[int, Path]:
    """The exit code of an LLM run over the benchmark's fake transport, each
    of whose answers goes through edit, and the run directory; extra holds
    further top-level config fields."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from fake_llm import FakeChatTransport, chat_body
    from ccbm.llm import ChatClient
    data = tmp_path / "data"
    assert cli.main(["simulate", "--out", str(data), "--n", "40", "--seed", "4",
                     "--clinical", "--n-decoys", "5"]) == 0
    fake = FakeChatTransport(json.loads(line)["text"]
                             for line in (data / "dataset.ndjson").read_text().splitlines())

    def transport(url, headers, payload):
        answer = json.loads(fake(url, headers, payload)["choices"][0]["message"]["content"])
        return chat_body(edit(answer))

    monkeypatch.setattr(ChatClient, "_http_post", staticmethod(transport))
    run_dir = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": str(data / "dataset.ndjson"), "output_dir": str(run_dir),
        "oracle": {"type": "llm", "endpoint": "http://127.0.0.1:9/v1", "model": "fake",
                   "max_in_flight": 2, "backoff_seconds": [0, 0, 0]},
        "sampler": dict(SAMPLER, k=4, t_epochs=1, m_candidates=4), **extra}))
    return cli.main(["run", "--config", str(config)]), run_dir


def test_llm_truth_naming_a_question_twice_is_one_concept(tmp_path, monkeypatch, capsys):
    """On an LLM run, truth questions equal up to case and whitespace are one
    true concept, for run and for eval --truth."""
    truth = ["Does the note mention chest pain?", "  does the note mention  CHEST pain? "]
    code, run_dir = run_with_edited_llm_answers(tmp_path, monkeypatch, lambda answer: answer,
                                                truth=truth)
    assert code == 0
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth))
    assert cli.main(["eval", "--run", str(run_dir), "--truth", str(path)]) == 0
    assert "recovery" in json.loads((run_dir / "reports" / "metrics.json").read_text())
    assert [c.question for c in cli._truth_concepts(truth, oracle=None)] == [truth[0]]


def test_llm_blank_truth_question_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    truth = ["Does the note mention chest pain?", " \t"]
    code, run_dir = run_with_edited_llm_answers(tmp_path, monkeypatch, lambda answer: answer,
                                                truth=truth)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "must not be blank: [' \\t']" in err
    assert "Traceback" not in err and not (run_dir / "samples.jsonl").exists()
    # eval --truth on a finished LLM run
    code, run_dir = run_with_edited_llm_answers(tmp_path / "ok", monkeypatch,
                                                lambda answer: answer)
    assert code == 0
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth))
    assert cli.main(["eval", "--run", str(run_dir), "--truth", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must not be blank: [' \\t']" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["keyphrases", "concepts", "candidates"],
                         ids=["extraction", "init", "proposal"])
def test_llm_answer_not_a_json_object_exits_3(tmp_path, monkeypatch, capsys, field):
    """An extraction, init or proposal answer that is a JSON array is retried,
    then ends the run with an oracle error (exit 3), not a traceback."""
    code, run_dir = run_with_edited_llm_answers(
        tmp_path, monkeypatch, lambda answer: [answer] if field in answer else answer)
    assert code == 3
    err = capsys.readouterr().err
    assert "after 3 attempts: expected a JSON object, got list" in err
    assert "Traceback" not in err and not (run_dir / "samples.jsonl").exists()
    assert lock_is_free(run_dir)


def test_llm_extraction_without_a_keyphrase_list_exits_3(tmp_path, monkeypatch, capsys):
    code, run_dir = run_with_edited_llm_answers(
        tmp_path, monkeypatch,
        lambda answer: {"keyphrases": "chest pain"} if "keyphrases" in answer else answer)
    assert code == 3
    err = capsys.readouterr().err
    assert "after 3 attempts: expected a list under 'keyphrases', got 'chest pain'" in err
    assert "Traceback" not in err and lock_is_free(run_dir)


@pytest.mark.parametrize("weight, incumbent_weight", [(1e-30, 1e308), (1e308, 1.0)],
                         ids=["q-underflows-to-0", "sum-overflows"])
def test_float_edge_llm_weights_give_valid_proposals(tmp_path, monkeypatch, capsys,
                                                     weight, incumbent_weight):
    """LLM weights far apart, or whose sum overflows, still define a q: the
    run finishes. A candidate whose q underflows to 0 is never tried, so the
    chain stays where it is."""
    def edit(answer):
        if "candidates" not in answer:
            return answer
        return dict(answer, incumbent_weight=incumbent_weight,
                    candidates=[dict(entry, weight=weight) for entry in answer["candidates"]])

    code, run_dir = run_with_edited_llm_answers(tmp_path, monkeypatch, edit)
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    outcomes = [json.loads(line)["outcome"] for line in
                (run_dir / "reports" / "update_log.jsonl").read_text().splitlines()]
    assert len(outcomes) == 8
    if weight < incumbent_weight:
        assert outcomes == ["stay"] * 8
    assert lock_is_free(run_dir)


def test_llm_run_stopped_after_epoch_1_resumes_to_the_clean_samples(tmp_path, monkeypatch,
                                                                    capsys):
    """An LLM run whose proposal calls fail after epoch 1 exits 3; --resume
    with the transport mended writes the samples.jsonl of a run that never
    failed: the proposal tries come from the checkpointed RNG alone."""
    sampler = dict(SAMPLER, k=4, t_epochs=3, m_candidates=4)
    code, clean = run_with_edited_llm_answers(tmp_path / "clean", monkeypatch,
                                              lambda answer: answer, sampler=sampler)
    assert code == 0
    proposals = {"made": 0, "up_to": 8}  # k proposals in each of epochs 0 and 1

    def fail_late(answer):
        if "candidates" in answer:
            proposals["made"] += 1
            if proposals["made"] > proposals["up_to"]:
                raise OSError("endpoint down")
        return answer

    tmp = tmp_path / "stopped"
    code, run_dir = run_with_edited_llm_answers(tmp, monkeypatch, fail_late, sampler=sampler)
    assert code == 3 and not (run_dir / "samples.jsonl").exists()
    epochs = (run_dir / "checkpoints" / "chain.log").read_text().splitlines()[1:]
    assert [json.loads(line)["epoch"] for line in epochs] == [0, 1]
    proposals["up_to"] = float("inf")
    assert cli.main(["run", "--config", str(tmp / "config.json"), "--resume"]) == 0
    assert (run_dir / "samples.jsonl").read_bytes() == (clean / "samples.jsonl").read_bytes()


def test_pool_truth_matches_the_pool_up_to_case_and_whitespace(tmp_path, capsys):
    """A pool run's truth question names the pool concept it equals as a
    concept, in any case or spacing, as on an LLM run."""
    pool = [PoolConcept(Concept(f"Is feature {i} present?"), f"feat{i}") for i in range(3)]
    oracle = PoolOracle(pool, [])
    truth = cli._truth_concepts(["  is FEATURE 2 present?", "is feature 0 present?",
                                 "Is feature 2 present?"], oracle)
    assert [c.question for c in truth] == ["Is feature 0 present?", "Is feature 2 present?"]
    with pytest.raises(cli.ConfigError, match="must not be blank"):
        cli._truth_concepts(["Is feature 0 present?", " "], oracle)


def edit_record(line: bytes, edit) -> bytes:
    """The chain-log line with edit applied to its record."""
    record = json.loads(line)
    edit(record)
    return json.dumps(record).encode()


def int_question(line: bytes) -> bytes:
    """The epoch line with its first sample's first question replaced by an int."""
    return edit_record(line, lambda r: r["samples"][0]["concepts"][0].update(question=7))


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
        assert (run_dir / "checkpoints" / "chain.log").exists()
        assert not (run_dir / "samples.jsonl").exists()
        assert lock_is_free(run_dir)

        monkeypatch.setattr(PoolOracle, "propose", original)
        # the resumed chain starts from its checkpoint: nothing initializes it
        def refuse(self, *args, **kwargs):
            raise AssertionError("initialize_concepts called on --resume")

        monkeypatch.setattr(PoolOracle, "initialize_concepts", refuse)
        assert cli.main(["run", "--config", str(config), "--resume"]) == 0
        assert (run_dir / "samples.jsonl").read_bytes() == \
            (finished_run / "samples.jsonl").read_bytes()

    def test_resume_after_the_pool_lost_the_chain_concepts(self, workspace, tmp_path,
                                                          monkeypatch, capsys):
        run_dir = tmp_path / "run"
        pool = json.loads((workspace / "data" / "pool.json").read_text())
        oracle = {"type": "pool", "pool": pool, "weight_mode": "uniform"}
        config = write_config(workspace, run_dir, oracle=oracle, truth=None)
        original = PoolOracle.propose
        calls = {"n": 0}

        def flaky(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 5:
                raise OracleError("simulated outage")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PoolOracle, "propose", flaky)
        assert cli.main(["run", "--config", str(config)]) == 3
        monkeypatch.setattr(PoolOracle, "propose", original)
        state = json.loads((run_dir / "checkpoints" / "chain.log").read_text()
                           .splitlines()[-1])["samples"][-1]["concepts"]
        lost = {c["question"] for c in state}
        oracle["pool"] = [entry for entry in pool if entry["question"] not in lost]
        config = write_config(workspace, run_dir, oracle=oracle, truth=None)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config), "--resume"]) == 3
        err = capsys.readouterr().err
        assert f"concept {state[0]['question']!r} is not in the pool" in err
        assert "checkpoint at" in err and "Traceback" not in err
        assert lock_is_free(run_dir)


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
        assert (run_dir / "checkpoints" / "chain.log").exists()
        assert cli.main(["run", "--config", str(config), "--resume"]) == 0
        assert (run_dir / "samples.jsonl").read_bytes() == \
            (finished_run / "samples.jsonl").read_bytes()
        assert lock_is_free(run_dir)

    @staticmethod
    def copy_checkpoint(run_dir, log: bytes):
        (run_dir / "checkpoints").mkdir(parents=True)
        (run_dir / "checkpoints" / "chain.log").write_bytes(log)

    def test_cut_at_every_offset_of_the_last_two_lines(self, workspace, finished_run,
                                                       tmp_path):
        """A kill between or during epochs leaves chain.log cut anywhere in its
        last two lines. Every such cut loads as the chain after its last whole
        line, with the torn rest cut off; the resume from each kind of cut
        (inside the second-last line, at the line boundary, inside the last
        line, or no cut) writes the uninterrupted run's samples.jsonl and
        chain.log byte for byte."""
        log = (finished_run / "checkpoints" / "chain.log").read_bytes()
        starts = [0] + [i + 1 for i, b in enumerate(log) if b == ord("\n")]
        second_last, last = starts[-3], starts[-2]
        loaded = {}
        self.copy_checkpoint(tmp_path / "load", b"")
        path = tmp_path / "load" / "checkpoints" / "chain.log"
        for cut in range(second_last, len(log) + 1):
            whole = max(start for start in starts if start <= cut)
            path.write_bytes(log[:cut])
            payload = load_checkpoint(path)
            assert path.read_bytes() == log[:whole], cut
            # the header, then epochs 0, 1, ...
            assert payload["epoch_done"] == starts.index(whole) - 2, cut
            trace = payload["trace"]
            chain = (payload["state"], payload["rng_state"], trace.update_log,
                     trace.acceptance_count, trace.proposal_count,
                     [sample.to_dict() for sample in trace.samples])
            assert loaded.setdefault(whole, chain) == chain, cut
        for cut in (second_last + 1, last - 1, last, last + 1, len(log) - 1, len(log)):
            run_dir = tmp_path / f"resume-{cut}"
            self.copy_checkpoint(run_dir, log[:cut])
            config = write_config(workspace, run_dir)
            assert cli.main(["run", "--config", str(config), "--resume"]) == 0
            for name in ("samples.jsonl", "checkpoints/chain.log"):
                assert (run_dir / name).read_bytes() == \
                    (finished_run / name).read_bytes(), (cut, name)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:1] + [b"{not json"] + lines[2:], "chain.log:2: corrupt"),
        (lambda lines: lines[:1] + [b'{"epoch": 0}'] + lines[2:], "chain.log:2: corrupt"),
        (lambda lines: lines[:2] + lines[3:], "chain.log:3: corrupt checkpoint line: "
                                              "epoch 2 with 2 samples where epoch 1 with 2"),
        (lambda lines: lines[:1] + [int_question(lines[1])] + lines[2:],
         "chain.log:2: corrupt checkpoint line: concept question must be a string, not int"),
        (lambda lines: lines[:2] + [edit_record(lines[2], lambda r: r["samples"].pop())]
         + lines[3:], "chain.log:3: corrupt checkpoint line: epoch 1 with 1 samples where "
                      "epoch 1 with 2 belongs"),
        (lambda lines: [edit_record(lines[0], lambda r: r.pop("rng_state"))] + lines[1:],
         "chain.log:1: corrupt checkpoint line: 'rng_state'")])
    def test_corrupt_or_gapped_log_exits_2_naming_the_line(
            self, workspace, finished_run, tmp_path, capsys, edit, message):
        lines = (finished_run / "checkpoints" / "chain.log").read_bytes().splitlines()
        run_dir = tmp_path / "resume"
        self.copy_checkpoint(run_dir, b"\n".join(edit(lines)) + b"\n")
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2
        assert message in capsys.readouterr().err
        assert not (run_dir / "samples.jsonl").exists()

    def test_v2_header_exits_2(self, workspace, finished_run, tmp_path, capsys):
        run_dir = tmp_path / "resume"
        epochs = (finished_run / "checkpoints" / "chain.log").read_bytes().splitlines(True)[1:]
        v2 = json.dumps({"format": "ccbm-checkpoint-v2", "epoch_done": 4, "log_offset": 0})
        self.copy_checkpoint(run_dir, v2.encode() + b"\n" + b"".join(epochs))
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2
        assert "chain.log:1: corrupt checkpoint line: format 'ccbm-checkpoint-v2' is not " \
            "ccbm-checkpoint-v4; start a fresh run" in capsys.readouterr().err

    def test_v3_run_directory_exits_2_naming_the_first_line(self, workspace, finished_run,
                                                            tmp_path, capsys):
        """A v3 checkpoint is a chain.json header beside a chain.log of epoch
        lines that repeat their state and acceptance counters; its log's first
        line is an epoch, not a v4 header."""
        lines = [json.loads(line) for line in
                 (finished_run / "checkpoints" / "chain.log").read_text().splitlines()]
        header, epochs, accepted, proposed = lines[0], lines[1:], 0, 0
        for epoch in epochs:
            proposed += sum(s["phase"] == "sample" for s in epoch["samples"])
            accepted += sum(s["phase"] == "sample" and s["accepted"] for s in epoch["samples"])
            epoch.update(state=[{"question": c["question"]}
                                for c in epoch["samples"][-1]["concepts"]],
                         acceptance_count=accepted, proposal_count=proposed)
        run_dir = tmp_path / "resume"
        log = "".join(json.dumps(epoch) + "\n" for epoch in epochs).encode()
        self.copy_checkpoint(run_dir, log)
        (run_dir / "checkpoints" / "chain.json").write_text(
            json.dumps(dict(header, format="ccbm-checkpoint-v3")))
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "chain.log:1: corrupt checkpoint line: format None is not " \
            "ccbm-checkpoint-v4; start a fresh run" in err and "Traceback" not in err
        assert (run_dir / "checkpoints" / "chain.log").read_bytes() == log
        assert not (run_dir / "samples.jsonl").exists()

    def test_fresh_run_over_a_stale_log_starts_a_new_one(self, workspace, finished_run,
                                                         tmp_path):
        run_dir = tmp_path / "fresh"
        stale = (finished_run / "checkpoints" / "chain.log").read_bytes()
        self.copy_checkpoint(run_dir, stale + stale + b'{"epoch": 9')
        config = write_config(workspace, run_dir)
        assert cli.main(["run", "--config", str(config)]) == 0
        for name in ("samples.jsonl", "checkpoints/chain.log"):
            assert (run_dir / name).read_bytes() == (finished_run / name).read_bytes(), name


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
        assert lock_is_free(run_dir)

    def test_one_class_subset_gets_no_signal_without_fitting(self, monkeypatch):
        monkeypatch.setattr(cli, "fit_keyphrase_model", pytest.fail)
        labels = np.array([0, 1] * 6)
        data = GibbsData(labels, lambda concepts: np.zeros((12, len(concepts))))
        provider = cli._make_summary_provider(data, labels, self.bags(12),
                                              cli.KeyphraseConfig())
        assert provider([Concept("Is it a?")], np.arange(1, 12, 2)) == []

    def test_unconverged_fit_is_reported_and_gives_no_signal(self, workspace, tmp_path,
                                                             capsys, monkeypatch):
        def unconverged(*args, **kwargs):
            raise OptimizationError("Newton did not converge in 200 iterations", np.zeros(3))
        monkeypatch.setattr(cli, "fit_keyphrase_model", unconverged)
        assert cli._fit_initial_summary(self.bags(12), np.array([0, 1] * 6),
                                         cli.KeyphraseConfig()) == []
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
            assert rec["version"] == 2
            # every posterior sample uses one record, listed in order of first use
            used = [i for r in rec["records"] for i in r["samples"]]
            assert sorted(used) == list(range(n_posterior))
            firsts = [r["samples"][0] for r in rec["records"]]
            assert firsts == sorted(firsts)
            assert all(set(r) == {"concepts", "values", "probability", "samples"}
                       for r in rec["records"])

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

    def test_pool_run_never_builds_the_training_matrix(self, workspace, finished_run,
                                                       tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(PoolOracle, "matrix", property(lambda self: built.append(1)))
        predict(finished_run, unseen_rows(workspace), tmp_path / "p.ndjson")
        assert built == []

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

    def test_reused_training_id_with_other_text(self, tmp_path):
        # the recorded case: after a clinical fit on simulate seed 2, this text
        # was once scored on the training row obs-2-00013's values (0.005, not
        # 0.997); a pool run scores every input row on its own text
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
        got = json.loads(predict(tmp_path / "run", reused, tmp_path / "o.ndjson"))
        fresh = tmp_path / "fresh.ndjson"
        fresh.write_text(json.dumps({"id": "fresh-1", "text": text}) + "\n")
        rec = json.loads(predict(tmp_path / "run", fresh, tmp_path / "o.ndjson"))
        assert got["probability"] == rec["probability"] > 0.9
        assert got["records"] == rec["records"]

    def test_llm_run_rejects_a_reused_training_id_with_other_text(self, tmp_path, monkeypatch,
                                                                 capsys):
        # an LLM run's cached answers are looked up by id
        code, run_dir = run_with_edited_llm_answers(tmp_path, monkeypatch, lambda answer: answer)
        assert code == 0
        first = json.loads((tmp_path / "data" / "dataset.ndjson").read_text().splitlines()[0])
        reused = tmp_path / "reused.ndjson"
        reused.write_text(json.dumps({"id": first["id"], "text": first["text"] + " more"})
                          + "\n")
        out = tmp_path / "o.ndjson"
        assert cli.main(["predict", "--run", str(run_dir), "--input", str(reused),
                         "--output", str(out)]) == 2
        assert f"input observation {first['id']!r} reuses a training id" in \
            capsys.readouterr().err
        assert not out.exists()
        # the same id with the training text is scored
        reused.write_text(json.dumps({"id": first["id"], "text": first["text"]}) + "\n")
        assert "error" not in json.loads(predict(run_dir, reused, out))

    def test_pool_predict_never_reads_the_training_set(self, workspace, finished_run,
                                                       tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        dataset = tmp_path / "train.ndjson"
        shutil.copy(workspace / "data" / "dataset.ndjson", dataset)
        snapshot = run_dir / "config.snapshot"
        snapshot.write_text(json.dumps(dict(json.loads(snapshot.read_text()),
                                            dataset=str(dataset)), indent=2))
        inputs = unseen_rows(workspace)
        before = predict(run_dir, inputs, tmp_path / "before.ndjson")
        dataset.rename(tmp_path / "moved.ndjson")
        assert predict(run_dir, inputs, tmp_path / "after.ndjson") == before
        assert before == predict(finished_run, inputs, tmp_path / "main.ndjson")
        # eval scores the training set, so it still reads it
        assert cli.main(["eval", "--run", str(run_dir)]) == 2
        assert f"cannot read dataset {dataset}" in capsys.readouterr().err

    def test_rows_with_one_text_share_their_line_but_not_an_error(
            self, workspace, many_sets_run, tmp_path, monkeypatch):
        # two ids with one text and a failing row between them, after a row
        # whose values are the zeros a failing row keeps
        rows = [json.loads(line) for line in unseen_rows(workspace).read_text().splitlines()]
        rows = [{"id": "no-keyword", "text": "Nothing to note."}] + rows
        twin = dict(rows[2], id="twin")
        bad_id = rows[3]["id"]
        inputs = tmp_path / "twins.ndjson"
        inputs.write_text("".join(json.dumps(r) + "\n" for r in rows[:4] + [twin] + rows[4:]))
        original = PoolOracle.annotate

        def failing(self, observations, concepts):
            if any(o.id == bad_id for o in observations):
                raise OracleError(f"cannot annotate {bad_id}")
            return original(self, observations, concepts)

        monkeypatch.setattr(PoolOracle, "annotate", failing)
        got = predict(many_sets_run, inputs, tmp_path / "p.ndjson")
        assert got == reference_predictions(many_sets_run, inputs)
        lines = [json.loads(line) for line in got.splitlines()]
        assert all(v == 0.0 for r in lines[0]["records"] for v in r["values"])
        assert lines[3] == {"id": bad_id, "error": f"cannot annotate {bad_id}"}
        assert lines[2]["id"] == rows[2]["id"] and lines[4]["id"] == "twin"
        assert {k: v for k, v in lines[2].items() if k != "id"} == \
            {k: v for k, v in lines[4].items() if k != "id"}

    def test_an_id_reused_across_inputs_is_scored_on_its_own_text(self, finished_run,
                                                                 tmp_path):
        def score(oid, text):
            rows = tmp_path / f"{oid}-{len(text)}.ndjson"
            rows.write_text(json.dumps({"id": oid, "text": text}) + "\n")
            return json.loads(predict(finished_run, rows, tmp_path / "o.ndjson"))["probability"]

        low = score("reused", "The record notes: feat1.")
        high = score("reused", "The record notes: feat0.")
        assert high == score("fresh", "The record notes: feat0.") and high > low

    def test_pool_predict_and_eval_leave_the_annotation_log_alone(self, workspace,
                                                                  finished_run, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        log = run_dir / "cache" / "annotations.ndjson"
        before = log.read_bytes()
        predict(run_dir, unseen_rows(workspace), tmp_path / "p.ndjson")
        assert cli.main(["eval", "--run", str(run_dir)]) == 0
        assert log.read_bytes() == before

    def test_llm_predict_reads_the_annotation_log(self, tmp_path, monkeypatch):
        code, run_dir = run_with_edited_llm_answers(tmp_path, monkeypatch, lambda answer: answer)
        assert code == 0
        from ccbm.llm import ChatClient
        answer, calls = ChatClient._http_post, []
        monkeypatch.setattr(ChatClient, "_http_post",
                            staticmethod(lambda *args: calls.append(1) or answer(*args)))
        dataset = tmp_path / "data" / "dataset.ndjson"
        # the run annotated every training row for the concepts its samples use
        predict(run_dir, dataset, tmp_path / "p.ndjson")
        assert calls == []
        (run_dir / "cache" / "annotations.ndjson").unlink()
        predict(run_dir, dataset, tmp_path / "p.ndjson")
        assert calls

    @pytest.mark.parametrize("text", [None, 5, ["feat0"]], ids=["null", "number", "list"])
    def test_non_string_text_exits_2_naming_the_line(self, workspace, finished_run, tmp_path,
                                                     capsys, text):
        bad = dataset_with_text(workspace, tmp_path, text)
        out = tmp_path / "p.ndjson"
        assert cli.main(["predict", "--run", str(finished_run), "--input", str(bad),
                         "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: bad dataset record: text must be a string" in err
        assert "Traceback" not in err and not out.exists()

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
        assert (run_dir / "reports" / "metrics.json").read_text() == reference_metrics(run_dir)

    def test_scores_equal_predict_probabilities(self, workspace, many_sets_run, tmp_path,
                                                monkeypatch):
        """eval scores each training row as predict does, bit for bit, on a run
        with many distinct records."""
        _, samples = cli._load_run(many_sets_run)
        assert len(cli._posterior_records(samples)[1]) > 20
        got = predict(many_sets_run, workspace / "data" / "dataset.ndjson", tmp_path / "p")
        scored = []
        monkeypatch.setattr(cli, "brier",
                            lambda scores, labels: scored.append(scores) or brier(scores, labels))
        assert cli.main(["eval", "--run", str(many_sets_run)]) == 0
        assert [json.loads(line)["probability"] for line in got.splitlines()] == \
            scored[0].tolist()

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

    @pytest.mark.parametrize("truth, what", [
        ([], "truth.json must list at least one string, got []"),
        (["Is feature 0 present?", "Is feature 9 present?"], "['Is feature 9 present?']"),
        ("Is feature 0 present?", "must list at least one string, got 'Is feature 0 present?'")],
        ids=["empty", "not-in-pool", "not-a-list"])
    def test_unusable_truth_file(self, finished_run, tmp_path, capsys, truth, what):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth))
        assert cli.main(["eval", "--run", str(finished_run), "--truth", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and what in err and "Traceback" not in err


def nudged(d, entry, value):
    """A copy of the sample record d whose theta[entry] is value."""
    theta = list(d["theta"])
    theta[entry] = value
    return dict(d, theta=theta)


def ulp_apart(post):
    """A second θ for post[0]'s concept set, one ulp above it in one entry, as
    a resume or another memory layout of the fits can leave."""
    return post + [nudged(post[0], 0, float(np.nextafter(post[0]["theta"][0], np.inf)))]


def signed_zero(post):
    """One θ entry 0.0 in one sample and -0.0 in another of the same set."""
    return [nudged(post[0], 0, 0.0)] + post[1:] + [nudged(post[0], 0, -0.0)]


def one_sample(post):
    """A single posterior sample (S = 1)."""
    return post[:1]


@pytest.fixture(params=[ulp_apart, signed_zero, one_sample], ids=lambda edit: edit.__name__)
def edited_run(request, many_sets_run, tmp_path):
    """A copy of the many-sets run whose posterior samples (not its burn-in
    lines) are edited; returns the edit and the run directory."""
    run_dir = tmp_path / "run"
    shutil.copytree(many_sets_run, run_dir)
    records = [json.loads(line) for line in (run_dir / "samples.jsonl").read_text().splitlines()]
    posterior = request.param([d for d in records if not d["burn_in"]])
    (run_dir / "samples.jsonl").write_text("".join(
        json.dumps(d) + "\n" for d in [d for d in records if d["burn_in"]] + posterior))
    return request.param, run_dir


class TestEditedSamples:
    """predict and eval match the per-row references byte for byte on
    posterior samples with repeated and nearly repeated records."""

    def test_predict(self, workspace, edited_run, tmp_path):
        edit, run_dir = edited_run
        inputs = unseen_rows(workspace)
        got = predict(run_dir, inputs, tmp_path / "p.ndjson")
        assert got == reference_predictions(run_dir, inputs)
        rows = [json.loads(line) for line in got.splitlines()]
        if edit is one_sample:
            assert all(r["records"] == [dict(r["records"][0], samples=[0])] for r in rows)
            return
        # the edited samples, the first and the last, keep records of their own
        last = len(cli._load_run(run_dir)[1]) - 1
        for r in rows:
            first, nudged = record_of_sample(r, 0), record_of_sample(r, last)
            assert first is not nudged and first["concepts"] == nudged["concepts"]
        if edit is ulp_apart:
            # the nudged θ must change some probability, or the case shows nothing
            assert any(record_of_sample(r, 0)["probability"] !=
                       record_of_sample(r, last)["probability"] for r in rows)

    def test_eval(self, edited_run, capsys):
        _, run_dir = edited_run
        assert cli.main(["eval", "--run", str(run_dir)]) == 0
        assert (run_dir / "reports" / "metrics.json").read_text() == reference_metrics(run_dir)


def torn_last_line(lines):
    """The last line cut in half, without its newline."""
    return lines[:-1] + [lines[-1][:len(lines[-1]) // 2]], len(lines)


def non_json_middle_line(lines):
    mid = len(lines) // 2
    return lines[:mid] + ["{not json"] + lines[mid + 1:], mid + 1


def missing_theta(lines):
    record = json.loads(lines[2])
    del record["theta"]
    return lines[:2] + [json.dumps(record)] + lines[3:], 3


def short_theta(lines):
    """A theta without its intercept, which would not fit the design."""
    record = json.loads(lines[1])
    record["theta"] = record["theta"][:-1]
    return lines[:1] + [json.dumps(record)] + lines[2:], 2


class TestCorruptSamples:
    """A damaged samples.jsonl exits 2 naming its line, and is left as it is."""

    @pytest.mark.parametrize("damage", [torn_last_line, non_json_middle_line, missing_theta,
                                        short_theta],
                             ids=lambda damage: damage.__name__)
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_exits_2_naming_the_line(self, workspace, finished_run, tmp_path, capsys,
                                     command, damage):
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        samples = run_dir / "samples.jsonl"
        lines, lineno = damage(samples.read_text().splitlines())
        damaged = "\n".join(lines) + ("" if damage is torn_last_line else "\n")
        samples.write_text(damaged)
        argv = ["eval", "--run", str(run_dir)] if command == "eval" else [
            "predict", "--run", str(run_dir),
            "--input", str(workspace / "data" / "dataset.ndjson"),
            "--output", str(tmp_path / "o.ndjson")]
        assert cli.main(argv) == 2
        assert f"samples.jsonl:{lineno}: corrupt posterior sample" in capsys.readouterr().err
        assert samples.read_text() == damaged
        assert not (tmp_path / "o.ndjson").exists()


def run_with_reports_file(run_dir, tmp):
    """A copy of the run at tmp/run whose reports path is a regular file."""
    copy = tmp / "run"
    shutil.copytree(run_dir, copy)
    shutil.rmtree(copy / "reports")
    (copy / "reports").write_text("a file, not a directory")
    return copy


def run_dir_with_lock_dir(tmp):
    """A run directory tmp/run whose .lock path is a directory."""
    (tmp / "run" / ".lock").mkdir(parents=True)
    return tmp / "run"


UNUSABLE_PATHS = {
    "predict-input": lambda ws, run, tmp: (
        ["predict", "--run", run, "--input", tmp / "missing.ndjson", "--output", tmp / "o"],
        tmp / "missing.ndjson"),
    "predict-output": lambda ws, run, tmp: (
        ["predict", "--run", run, "--input", ws / "data" / "dataset.ndjson",
         "--output", tmp / "no-dir" / "o"], tmp / "no-dir" / "o"),
    "enumerate-dataset": lambda ws, run, tmp: (
        ["enumerate", "--dataset", tmp / "missing.ndjson", "--pool", ws / "data" / "pool.json",
         "--k", "2", "--out", tmp / "o"], tmp / "missing.ndjson"),
    "enumerate-pool": lambda ws, run, tmp: (
        ["enumerate", "--dataset", ws / "data" / "dataset.ndjson", "--pool", tmp / "missing",
         "--k", "2", "--out", tmp / "o"], tmp / "missing"),
    "enumerate-out": lambda ws, run, tmp: (
        ["enumerate", "--dataset", ws / "data" / "dataset.ndjson",
         "--pool", ws / "data" / "pool.json", "--k", "2", "--out", tmp / "no-dir" / "o"],
        tmp / "no-dir" / "o"),
    "extract-keyphrases-input": lambda ws, run, tmp: (
        ["extract-keyphrases", "--config", ws / "run-main-config.json",
         "--input", tmp / "missing.ndjson", "--output", tmp / "o"], tmp / "missing.ndjson"),
    "eval-reports": lambda ws, run, tmp: (
        ["eval", "--run", run_with_reports_file(run, tmp)], tmp / "run" / "reports"),
    "eval-truth": lambda ws, run, tmp: (
        ["eval", "--run", run, "--truth", tmp / "missing.json"], tmp / "missing.json"),
    "run-output-dir": lambda ws, run, tmp: (
        ["run", "--config", ws / "run-main-config.json", "--output-dir", tmp / "a-file" / "run"],
        tmp / "a-file" / "run"),
    "run-lock": lambda ws, run, tmp: (
        ["run", "--config", ws / "run-main-config.json", "--output-dir", run_dir_with_lock_dir(tmp)],
        tmp / "run" / ".lock"),
    "simulate-out": lambda ws, run, tmp: (
        ["simulate", "--out", tmp / "a-file" / "data", "--n", "10"], tmp / "a-file" / "data"),
}


@pytest.mark.parametrize("case", list(UNUSABLE_PATHS))
def test_unusable_path_exits_2_naming_it(workspace, finished_run, tmp_path, capsys, case):
    """An input that cannot be read or an output that cannot be written is a
    configuration error that names the path, not a traceback."""
    (tmp_path / "a-file").write_text("a file, not a directory")
    argv, path = UNUSABLE_PATHS[case](workspace, finished_run, tmp_path)
    assert cli.main([str(arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(path) in err
    assert "locked by another run" not in err


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


    @pytest.mark.parametrize("extra, pool, what", [
        (["--gamma", "0"], None, "--gamma must be finite and positive, got 0.0"),
        (["--gamma", "-1"], None, "--gamma must be finite and positive, got -1.0"),
        (["--gamma", "nan"], None, "--gamma must be finite and positive, got nan"),
        (["--k", "0"], None, "--k must be >= 1, got 0"),
        (["--k", "-1"], None, "--k must be >= 1, got -1"),
        (["--k", "20"], None, "--k 20 is more than the 8 concepts of"),
        ([], "duplicate", "pool contains duplicate concepts"),
        (["--k", "5"], "wide", "--k 5: enumeration would visit 658008 supports")],
        ids=["gamma-zero", "gamma-negative", "gamma-nan", "k-zero", "k-negative",
             "k-above-pool", "duplicate-concept", "over-budget"])
    def test_user_error_exits_2_naming_it(self, workspace, tmp_path, capsys, extra, pool, what):
        pool_path = workspace / "data" / "pool.json"
        if pool is not None:
            entries = json.loads(pool_path.read_text())
            entries = entries + entries[:1] if pool == "duplicate" else [
                {"question": f"Is feature {i} present?", "keyword": f"feat{i}"}
                for i in range(40)]
            pool_path = tmp_path / "pool.json"
            pool_path.write_text(json.dumps(entries))
        out = tmp_path / "exact.json"
        assert cli.main(["enumerate", "--dataset", str(workspace / "data" / "dataset.ndjson"),
                         "--pool", str(pool_path), "--k", "2", "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and what in err
        assert not out.exists()


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
