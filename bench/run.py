"""Benchmark for `ccbm run` and `ccbm predict`.

    python3 bench/run.py --workload clinical --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop with a single client: each
round issues `ccbm run` and then `ccbm predict` through ccbm.cli.main, in
process, the next command only after the previous one returned. Every round
refits from an empty run directory with the same seed, so every round does
the same work. Rounds repeat until --seconds have passed (at least
MIN_ROUNDS). Set-up time is measured on fresh interpreters (setup_probe.py).

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics; with --trace 1 rounds alternate untraced and traced, and
the result holds the per-layer metrics. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import tracing
from checks import CheckFailed, require

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 3
MIN_ROUNDS = 3
DEADLINE_S = 140.0  # start no round after this, so a run ends well inside 180 s
# One held-out set for every --seed, so held-out AUC moves with the fit and not
# with the draw of the held-out set. Training seeds are even (or 11), so the
# held-out set never shares a seed, nor therefore an observation id, with them.
HELDOUT_SEED = 1
LLM_ENDPOINT = "http://127.0.0.1:9/v1/chat/completions"  # never contacted: transport is faked

CLINICAL_COEFFICIENTS = {"unemployed": 4.0, "retired": 4.0, "alcohol": 4.0,
                         "smoking": -4.0, "drugs": 5.0}


@dataclass(frozen=True)
class Workload:
    simulate: tuple[str, ...]  # ccbm simulate arguments besides --out, --n, --seed
    train_seed: int | None  # None: the training data comes from --seed
    n_train: int
    n_heldout: int
    oracle: dict
    sampler: dict
    coefficients: dict  # generating coefficient per note keyword
    intercept: float
    auc_margin: float  # allowed |held-out AUC - Bayes-optimal AUC|
    recall_floor: float = 0.0
    tv_bound: float = 0.0  # 0: no comparison with `ccbm enumerate`

    @property
    def pool_oracle(self) -> bool:
        return self.oracle["type"] == "pool"


WORKLOADS = {
    # m_candidates covers the 25 concepts outside a 5-concept context, so the
    # greedy warm start reaches the true support in its first epoch.
    "clinical": Workload(
        simulate=("--clinical",), train_seed=None, n_train=800, n_heldout=3200,
        oracle={"type": "pool", "weight_mode": "uniform"},
        sampler=dict(k=6, t_epochs=1, m_candidates=25, omega=0.5, gamma=1.0,
                     warm_start_epochs=1, keep_last=0, mode="multi_try"),
        coefficients=CLINICAL_COEFFICIENTS, intercept=-6.0, auc_margin=0.02,
        recall_floor=0.9),
    "exact-pool": Workload(
        simulate=("--pool-size", "10", "--coefficients", "2.5,-2.5"),
        train_seed=11, n_train=60, n_heldout=250,
        oracle={"type": "pool", "weight_mode": "exact"},
        sampler=dict(k=2, t_epochs=300, m_candidates=10, omega=0.5, gamma=1.0,
                     warm_start_epochs=1, keep_last=0, mode="single_try"),
        coefficients={"feat0": 2.5, "feat1": -2.5}, intercept=0.0, auc_margin=0.05,
        tv_bound=0.15),
    "llm-fake": Workload(
        simulate=("--clinical",), train_seed=None, n_train=200, n_heldout=1600,
        oracle={"type": "llm", "endpoint": LLM_ENDPOINT, "model": "fake",
                "max_in_flight": len(os.sched_getaffinity(0))},
        sampler=dict(k=6, t_epochs=3, m_candidates=8, omega=0.5, gamma=1.0,
                     warm_start_epochs=1, keep_last=20, mode="multi_try"),
        coefficients=CLINICAL_COEFFICIENTS, intercept=-6.0, auc_margin=0.03),
}


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = RUNS / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
        self.train_dir = self.work / "train"
        self.heldout_dir = self.work / "heldout"
        self.transport = None
        self.attempted = 0
        self.failed = 0

    # -- set-up -----------------------------------------------------------

    def simulate_argv(self, out: Path) -> list[list[str]]:
        wl = self.wl
        train_seed = 2 * self.seed if wl.train_seed is None else wl.train_seed
        return [["simulate", "--out", str(out / "train"), "--n", str(wl.n_train),
                 "--seed", str(train_seed), *wl.simulate],
                ["simulate", "--out", str(out / "heldout"), "--n", str(wl.n_heldout),
                 "--seed", str(HELDOUT_SEED), *wl.simulate]]

    def setup(self) -> list[float]:
        """Fresh interpreters import ccbm.cli and write the inputs; wall times."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        for probe in range(SETUP_PROBES):
            out = self.work if probe == 0 else self.work / f"probe{probe}"
            argv = json.dumps(self.simulate_argv(out))
            start = time.perf_counter()
            subprocess.run([sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                            argv], env=env, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
            if probe:
                for sub in ("train", "heldout"):
                    require(_digest(out / sub / "dataset.ndjson")
                            == _digest(self.work / sub / "dataset.ndjson"),
                            "simulate is not deterministic for a fixed seed")
                shutil.rmtree(out)
        return times

    def load_inputs(self):
        self.train = checks.read_ndjson(self.train_dir / "dataset.ndjson")
        self.heldout = checks.read_ndjson(self.heldout_dir / "dataset.ndjson")
        train_ids = {r["id"] for r in self.train}
        require(train_ids.isdisjoint(r["id"] for r in self.heldout),
                "held-out ids overlap training ids")
        self.truth = json.loads((self.train_dir / "truth.json").read_text())
        self.bayes_auc = checks.bayes_auc(self.heldout, self.wl.coefficients,
                                          self.wl.intercept)
        if not self.wl.pool_oracle:
            import ccbm.llm
            from fake_llm import FakeChatTransport
            # Replace only the HTTP transport: every other part of the client runs.
            self.transport = FakeChatTransport(r["text"] for r in self.train + self.heldout)
            ccbm.llm.ChatClient._http_post = staticmethod(self.transport)
        self.exact = None
        if self.wl.tv_bound:
            out = self.work / "exact.json"
            self.cli(["enumerate", "--dataset", str(self.train_dir / "dataset.ndjson"),
                      "--pool", str(self.train_dir / "pool.json"),
                      "--k", str(self.wl.sampler["k"]), "--out", str(out)])
            self.exact = json.loads(out.read_text())

    def write_config(self, round_dir: Path) -> Path:
        oracle = dict(self.wl.oracle)
        if self.wl.pool_oracle:
            oracle["pool"] = str(self.train_dir / "pool.json")
        config = {"dataset": str(self.train_dir / "dataset.ndjson"),
                  "output_dir": str(round_dir / "run"),
                  "oracle": oracle,
                  "sampler": dict(self.wl.sampler, seed=self.seed),
                  "truth": self.truth if self.wl.recall_floor else None}
        path = round_dir / "config.json"
        path.write_text(json.dumps(config, indent=2))
        return path

    # -- rounds -----------------------------------------------------------

    @staticmethod
    def cli(argv: list[str]):
        from ccbm.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"ccbm {argv[0]} exited with code {code}")

    def round(self, index: int, tracer=None) -> dict | None:
        """One `ccbm run` plus one `ccbm predict`; timings and checked outputs.

        Both commands count as attempted; a command that raises or exits
        non-zero counts as failed, and so does a predict left without a fit.
        """
        round_dir = self.work / f"round{index}"
        round_dir.mkdir()
        config = self.write_config(round_dir)
        run_dir = round_dir / "run"
        preds = round_dir / "predictions.ndjson"
        before = self.transport.snapshot() if self.transport else None
        self.attempted += 2
        unfinished = 2
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                start = time.perf_counter()
                self.cli(["run", "--config", str(config)])
                fit_s = time.perf_counter() - start
                unfinished = 1
                after_fit = self.transport.snapshot() if self.transport else None
                start = time.perf_counter()
                self.cli(["predict", "--run", str(run_dir),
                          "--input", str(self.heldout_dir / "dataset.ndjson"),
                          "--output", str(preds)])
                predict_s = time.perf_counter() - start
        except Exception:  # a failed operation is counted; the benchmark goes on
            traceback.print_exc()
            self.failed += unfinished
            return None
        result = {"fit_s": fit_s, "predict_s": predict_s,
                  "predict_obs_per_s": len(self.heldout) / predict_s}
        result.update(self.check_round(run_dir, preds, before, after_fit))
        checked = ", ".join(f"{k} {result[k]:.4f}" for k in ("heldout_auc", "recall", "tv")
                            if k in result)
        print(f"round {index}{' traced' if tracer else ''}: fit {fit_s:.3f} s, predict "
              f"{predict_s:.3f} s, {checked} (Bayes-optimal AUC {self.bayes_auc:.4f})",
              file=sys.stderr)
        return result

    def check_round(self, run_dir: Path, preds: Path, before, after_fit) -> dict:
        wl = self.wl
        manifest = json.loads((run_dir / "manifest.json").read_text())
        oracle = manifest["oracle"]
        out = {"samples_sha": _digest(run_dir / "samples.jsonl"),
               "manifest": manifest,
               "cache_log_bytes": (run_dir / "cache" / "annotations.ndjson").stat().st_size}
        checks.cache_log_in_unit_interval(run_dir / "cache" / "annotations.ndjson")
        if wl.pool_oracle:
            require(oracle["annotation_pairs"] == oracle["cache_misses"],
                    f"annotation_pairs {oracle['annotation_pairs']} != "
                    f"cache_misses {oracle['cache_misses']}")
            out["extractions"] = oracle["annotation_pairs"]
        else:
            out["llm_fit"] = {
                "calls": {kind: n - before["calls"][kind]
                          for kind, n in after_fit["calls"].items()},
                "questions": after_fit["questions"] - before["questions"],
                "prompt_bytes": after_fit["prompt_bytes"] - before["prompt_bytes"]}
            out["extractions"] = out["llm_fit"]["questions"]
        probs = {}
        for p in checks.iter_ndjson(preds):
            require("error" not in p, f"predict failed on {p['id']}: {p.get('error')}")
            require(0.0 <= p["probability"] <= 1.0, "probability outside [0, 1]")
            probs[p["id"]] = p["probability"]
        require(len(probs) == len(self.heldout), "predict dropped observations")
        heldout_auc = checks.auc([probs[r["id"]] for r in self.heldout],
                                 [r["label"] for r in self.heldout])
        require(abs(heldout_auc - self.bayes_auc) <= wl.auc_margin,
                f"held-out AUC {heldout_auc:.4f} is more than {wl.auc_margin} from the "
                f"Bayes-optimal {self.bayes_auc:.4f}")
        out["heldout_auc"] = heldout_auc
        out["updates"] = sum(1 for _ in checks.iter_ndjson(run_dir / "samples.jsonl"))
        samples = checks.posterior_samples(run_dir / "samples.jsonl")
        out["ess"] = checks.top_support_ess(samples)
        if wl.recall_floor:
            recall = checks.question_recall(samples, self.truth)
            require(recall >= wl.recall_floor,
                    f"recall of the true questions {recall:.3f} < {wl.recall_floor}")
            out["recall"] = recall
        if self.exact is not None:
            tv = checks.tv_to_enumeration(samples, self.exact)
            require(tv <= wl.tv_bound, f"TV to enumeration {tv:.3f} > {wl.tv_bound}")
            out["tv"] = tv
        return out

    def run(self) -> dict:
        start = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        setup_times = self.setup()
        _import_ccbm()
        self.load_inputs()
        rounds, traced = [], []
        t0 = time.perf_counter()
        index = 0
        while (index < (2 if self.trace else MIN_ROUNDS)
               or time.perf_counter() - t0 < self.seconds):
            if time.perf_counter() - start > DEADLINE_S:
                break
            if self.trace and index % 2 == 1:
                tracer = tracing.Tracer()
                result = self.round(index, tracer)
                if result is not None:
                    traced.append((result, tracer, index))
            else:
                result = self.round(index)
                if result is not None:
                    rounds.append(result)
            shutil.rmtree(self.work / f"round{index}")
            gc.collect()
            index += 1
        require(bool(rounds) and (bool(traced) or not self.trace),
                "every round failed")
        done = rounds + [r for r, _, _ in traced]
        require(len({r["samples_sha"] for r in done}) == 1,
                "repeated fits with the same seed wrote different samples.jsonl")
        if self.trace:
            metrics = layers.per_layer_metrics(self, rounds, [(r, t) for r, t, _ in traced])
            tracing.write_spans(RUNS / f"spans-{self.name}-seed{self.seed}.jsonl",
                                [(i, t) for _, t, i in traced])
        else:
            def med(key):
                return statistics.median(r[key] for r in rounds)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "fit_s": (med("fit_s"), "s"),
                "predict_obs_per_s": (med("predict_obs_per_s"), "obs/s"),
                "heldout_auc": (med("heldout_auc"), "AUC"),
                "extractions": (med("extractions"), "count"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
        shutil.rmtree(self.work)
        return metrics


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _import_ccbm():
    sys.path.insert(0, str(SRC))
    import ccbm.cli
    if Path(ccbm.cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"ccbm imported from {ccbm.cli.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ccbm" / "cli.py").is_file():
        print(f"ccbm sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = bench.run()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(bench.attempted, 1),
                          "failed": bench.failed, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
