"""Command-line pipeline: run, predict, eval, simulate, enumerate,
extract-keyphrases.

A run owns an output directory with a frozen config snapshot, a manifest,
posterior samples, the annotation cache, and resumable checkpoints. Every
output is reproducible from (config, seed, frozen cache).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .concepts import Concept, ConceptSet
from .evaluate import (ConceptMatchRule, auc, brier, enumerate_posterior,
                       recovery_report, support_frequencies)
from .keyphrase import (build_bow, fit_keyphrase_model, summarize_top_keyphrases)
from .llm import LLMConfig, LLMOracle
from .model import posterior_predictive, sigmoid_predict
from .oracle import (AnnotationCache, ConceptOracle, Observation, OracleError,
                     PoolConcept, PoolOracle)
from .sampler import (OracleFailure, SamplerConfig, gibbs_data_from_oracle,
                      load_checkpoint, run_gibbs)
from .synthetic import SyntheticSpec, clinical_spec, generate_synthetic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    dataset: Path
    output_dir: Path
    oracle: dict
    sampler: SamplerConfig
    keyphrase: dict
    truth: Optional[list[str]] = None

    @staticmethod
    def load(path: Path, overrides: Optional[dict] = None) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            if key in ("seed", "t_epochs", "m_candidates", "omega", "mode", "k", "gamma"):
                raw.setdefault("sampler", {})[key] = value
            else:
                raw[key] = value
        try:
            sampler = SamplerConfig.from_dict(raw["sampler"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid sampler config: {exc}") from exc
        for field in ("dataset", "output_dir", "oracle"):
            if field not in raw:
                raise ConfigError(f"config is missing the {field!r} field")
        dataset = Path(raw["dataset"])
        if not dataset.exists():
            raise ConfigError(f"dataset file {dataset} does not exist")
        oracle = raw["oracle"]
        if oracle.get("type") not in ("pool", "llm"):
            raise ConfigError("oracle.type must be 'pool' or 'llm'")
        return RunConfig(
            dataset=dataset,
            output_dir=Path(raw["output_dir"]),
            oracle=oracle,
            sampler=sampler,
            keyphrase=raw.get("keyphrase", {}),
            truth=raw.get("truth"),
        )

    def to_dict(self) -> dict:
        return {
            "dataset": str(self.dataset),
            "output_dir": str(self.output_dir),
            "oracle": self.oracle,
            "sampler": self.sampler.to_dict(),
            "keyphrase": self.keyphrase,
            "truth": self.truth,
        }


def load_dataset(path: Path, require_labels: bool = True):
    observations: list[Observation] = []
    labels: list[Optional[int]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                obs = Observation(id=str(rec["id"]), payload=rec["text"],
                                  label=rec.get("label"))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad dataset record: {exc}") from exc
            if require_labels and obs.label not in (0, 1):
                raise ConfigError(f"{path}:{lineno}: label must be 0 or 1")
            observations.append(obs)
            labels.append(obs.label)
    if not observations:
        raise ConfigError(f"dataset {path} is empty")
    ids = [o.id for o in observations]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"dataset {path} contains duplicate observation ids")
    y = np.array([l if l is not None else -1 for l in labels])
    return observations, y


def load_pool(spec) -> list[PoolConcept]:
    if isinstance(spec, (str, Path)):
        spec = json.loads(Path(spec).read_text())
    return [PoolConcept(Concept(entry["question"]), entry["keyword"]) for entry in spec]


def build_oracle(cfg: RunConfig, observations, labels,
                 cache: AnnotationCache) -> ConceptOracle:
    okind = cfg.oracle["type"]
    if okind == "pool":
        pool = load_pool(cfg.oracle["pool"])
        return PoolOracle(pool, observations, labels, gamma=cfg.sampler.gamma,
                          weight_mode=cfg.oracle.get("weight_mode", "exact"),
                          cache=cache)
    llm_cfg = LLMConfig.from_dict(
        {k: v for k, v in cfg.oracle.items() if k not in ("type", "bag_cache")})
    bag_cache = cfg.oracle.get("bag_cache")
    return LLMOracle(llm_cfg, cache=cache,
                     bag_cache_path=Path(bag_cache) if bag_cache else None)


# ---------------------------------------------------------------------------
# run pipeline


def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _open_cache(run_dir: Path) -> AnnotationCache:
    try:
        return AnnotationCache(run_dir / "cache" / "annotations.ndjson")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _acquire_lock(run_dir: Path, resume: bool):
    lock = run_dir / ".lock"
    if lock.exists() and not resume:
        raise ConfigError(f"run directory {run_dir} is locked by another run")
    lock.write_text(str(os.getpid()))
    return lock


def _fit_initial_summary(bags, labels, keyphrase_cfg, seed):
    vocab, bow = build_bow(bags, min_df=int(keyphrase_cfg.get("min_df", 2)))
    fit = fit_keyphrase_model(bow, None, labels, seed=seed, vocabulary=vocab)
    return summarize_top_keyphrases(fit, top_n=int(keyphrase_cfg.get("top_n", 50)))


def _make_summary_provider(data, labels, bags, keyphrase_cfg, seed):
    """Residual-model summary on the conditioning subset, for LLM proposals."""
    def provider(concepts, subset):
        rows = np.asarray(subset, dtype=int)
        design = np.column_stack(data.columns(concepts))[rows]
        sub_bags = [bags[i] for i in rows]
        try:
            vocab, bow = build_bow(sub_bags, min_df=int(keyphrase_cfg.get("min_df", 2)))
        except ValueError:
            return []
        fit = fit_keyphrase_model(bow, design, labels[rows], seed=seed, vocabulary=vocab)
        return summarize_top_keyphrases(fit, top_n=int(keyphrase_cfg.get("top_n", 50)))
    return provider


def cmd_run(args) -> int:
    overrides = {
        "seed": args.seed, "t_epochs": args.t_epochs, "omega": args.omega,
        "mode": args.mode, "m_candidates": args.m_candidates,
        "dataset": args.dataset, "output_dir": args.output_dir,
    }
    cfg = RunConfig.load(args.config, overrides)
    run_dir = cfg.output_dir
    for sub in ("cache", "checkpoints", "reports"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    lock = _acquire_lock(run_dir, resume=args.resume)
    started = time.time()
    try:
        _atomic_write(run_dir / "config.snapshot", json.dumps(cfg.to_dict(), indent=2))
        observations, labels = load_dataset(cfg.dataset)
        cache = _open_cache(run_dir)
        oracle = build_oracle(cfg, observations, labels, cache)

        bags = oracle.extract_keyphrases(observations)
        summary = _fit_initial_summary(bags, labels, cfg.keyphrase, cfg.sampler.seed)
        data = gibbs_data_from_oracle(observations, labels, oracle)
        if isinstance(oracle, LLMOracle):
            oracle.summary_provider = _make_summary_provider(
                data, labels, bags, cfg.keyphrase, cfg.sampler.seed)
        init = oracle.initialize_concepts(summary, cfg.sampler.k)

        checkpoint = run_dir / "checkpoints" / "chain.json"
        resume_payload = None
        if args.resume:
            if not checkpoint.exists():
                raise ConfigError(f"--resume given but {checkpoint} does not exist")
            resume_payload = load_checkpoint(checkpoint)
        trace = run_gibbs(data, oracle, cfg.sampler, init,
                          checkpoint_path=checkpoint, resume_from=resume_payload)

        _atomic_write(run_dir / "samples.jsonl",
                      "".join(json.dumps(s.to_dict()) + "\n" for s in trace.samples))
        _atomic_write(run_dir / "reports" / "update_log.jsonl",
                      "".join(json.dumps(r) + "\n" for r in trace.update_log))

        epochs: dict[int, float] = {}
        for s in trace.samples:
            epochs[s.epoch] = s.log_marginal_full
        manifest = {
            "version": __version__,
            "config": cfg.to_dict(),
            "started": started,
            "finished": time.time(),
            "n_observations": len(observations),
            "acceptance_rate": trace.acceptance_rate,
            "acceptance_count": trace.acceptance_count,
            "proposal_count": trace.proposal_count,
            "log_marginal_by_epoch": {str(e): v for e, v in sorted(epochs.items())},
            "oracle": {
                "annotation_pairs": getattr(oracle, "annotation_pairs", None),
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
                "clamp_events": cache.clamp_events,
                "cost_accounting": {
                    "n": len(observations),
                    "k": cfg.sampler.k,
                    "init_pairs": len(observations) * cfg.sampler.k,
                    "new_concept_pairs":
                        (getattr(oracle, "annotation_pairs", 0) or 0)
                        - len(observations) * cfg.sampler.k,
                },
            },
        }
        _atomic_write(run_dir / "manifest.json", json.dumps(manifest, indent=2))

        if cfg.truth and cfg.oracle["type"] == "pool":
            pool = load_pool(cfg.oracle["pool"])
            truth = ConceptSet(pc.concept for pc in pool
                               if pc.concept.question in cfg.truth)
            posterior_sets = [s.concept_set for s in trace.posterior_samples()]
            report = _recovery_for_run(posterior_sets, truth, data)
            _atomic_write(run_dir / "reports" / "recovery.json",
                          json.dumps(report.to_dict(), indent=2))
        return EXIT_OK
    except OracleFailure as exc:
        print(f"oracle failure: {exc}; checkpoint at {exc.checkpoint}", file=sys.stderr)
        return EXIT_ORACLE
    finally:
        lock.unlink(missing_ok=True)


def _recovery_for_run(samples: list[ConceptSet], truth: ConceptSet, data):
    concepts = list({c.id: c for cs in [*samples, truth] for c in cs}.values())
    panel = {c.id: col for c, col in zip(concepts, data.columns(concepts))}
    return recovery_report(samples, truth, ConceptMatchRule(), panel)


# ---------------------------------------------------------------------------
# predict / eval


def _load_run(run_dir: Path):
    from .model import PosteriorSample
    samples_path = run_dir / "samples.jsonl"
    if not samples_path.exists():
        raise ConfigError(f"{run_dir} has no samples.jsonl; run has not completed")
    cfg = RunConfig.load(run_dir / "config.snapshot")
    samples = [PosteriorSample.from_dict(json.loads(line))
               for line in samples_path.read_text().splitlines() if line]
    return cfg, [s for s in samples if not s.burn_in]


def cmd_predict(args) -> int:
    run_dir = Path(args.run)
    cfg, samples = _load_run(run_dir)
    if not samples:
        raise ConfigError("run contains no posterior samples")
    observations, _ = load_dataset(Path(args.input), require_labels=False)
    train_obs, train_labels = load_dataset(cfg.dataset)
    cache = _open_cache(run_dir)
    oracle = build_oracle(cfg, train_obs, train_labels, cache)

    concepts = {c.id: c for s in samples for c in s.concept_set}
    out_lines = []
    for obs in observations:
        try:
            records = oracle.annotate([obs], list(concepts.values()))
        except OracleError as exc:
            out_lines.append(json.dumps({"id": obs.id, "error": str(exc)}))
            continue
        values = {r.concept_id: r.value for r in records}
        breakdown = []
        rows = []
        for s in samples:
            row = np.array([values[c.id] for c in s.concept_set] + [1.0])
            rows.append(row)
            breakdown.append({
                "concepts": [c.question for c in s.concept_set],
                "values": [values[c.id] for c in s.concept_set],
                "probability": sigmoid_predict(s.theta, row),
            })
        prob = posterior_predictive(samples, rows)
        out_lines.append(json.dumps({"id": obs.id, "probability": prob,
                                     "per_sample": breakdown}))
    Path(args.output).write_text("".join(line + "\n" for line in out_lines))
    return EXIT_OK


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    cfg, samples = _load_run(run_dir)
    observations, labels = load_dataset(cfg.dataset)
    cache = _open_cache(run_dir)
    oracle = build_oracle(cfg, observations, labels, cache)

    data = gibbs_data_from_oracle(observations, labels, oracle)
    data.fill([c for s in samples for c in s.concept_set])
    scores = np.mean([[sigmoid_predict(s.theta, row) for row in data.phi(s.concept_set).values]
                      for s in samples], axis=0)
    report = {
        "n": len(observations),
        "auc": auc(scores, labels),
        "brier": brier(scores, labels),
        "support_frequencies": {
            " | ".join(sorted(c.question for c in cs)): freq
            for cs, freq in _frequencies_by_set(samples).items()},
    }
    if args.truth:
        truth_questions = json.loads(Path(args.truth).read_text())
        pool = load_pool(cfg.oracle["pool"]) if cfg.oracle["type"] == "pool" else []
        truth = ConceptSet([pc.concept for pc in pool
                            if pc.concept.question in truth_questions]
                           or [Concept(q) for q in truth_questions])
        recovery = _recovery_for_run([s.concept_set for s in samples], truth, data)
        report["recovery"] = recovery.to_dict()
    out = run_dir / "reports" / "metrics.json"
    out.parent.mkdir(exist_ok=True)
    _atomic_write(out, json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _frequencies_by_set(samples):
    freq: dict = {}
    for s in samples:
        freq[s.concept_set] = freq.get(s.concept_set, 0) + 1
    return {cs: n / len(samples) for cs, n in freq.items()}


# ---------------------------------------------------------------------------
# simulate / enumerate / extract-keyphrases


def cmd_simulate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.clinical:
        spec = clinical_spec(args.n, seed=args.seed, n_decoys=args.n_decoys)
    else:
        pool = [(f"Is feature {i} present?", f"feat{i}") for i in range(args.pool_size)]
        coefficients = [float(c) for c in args.coefficients.split(",")]
        spec = SyntheticSpec(n=args.n, pool=pool,
                             true_support=list(range(len(coefficients))),
                             coefficients=coefficients, seed=args.seed)
    data = generate_synthetic(spec)
    with open(out / "dataset.ndjson", "w") as fh:
        for obs in data.observations:
            fh.write(json.dumps({"id": obs.id, "text": obs.payload,
                                 "label": obs.label}) + "\n")
    _atomic_write(out / "pool.json", json.dumps(
        [{"question": q, "keyword": kw} for q, kw in spec.pool], indent=2))
    _atomic_write(out / "truth.json", json.dumps(
        [spec.pool[j][0] for j in spec.true_support], indent=2))
    print(f"wrote {len(data.observations)} observations to {out}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    observations, labels = load_dataset(Path(args.dataset))
    pool = load_pool(Path(args.pool))
    oracle = PoolOracle(pool, observations, labels, gamma=args.gamma)
    annotations = oracle._matrix
    posterior = enumerate_posterior([pc.concept for pc in pool], args.k,
                                    labels, annotations, gamma=args.gamma)
    by_question = {pc.concept.id: pc.concept.question for pc in pool}
    payload = [{"support": sorted(by_question[cid] for cid in support),
                "probability": prob}
               for support, prob in sorted(posterior.items(),
                                           key=lambda kv: -kv[1])]
    _atomic_write(Path(args.out), json.dumps(payload, indent=2))
    print(f"wrote {len(payload)} supports to {args.out}")
    return EXIT_OK


def cmd_extract_keyphrases(args) -> int:
    cfg = RunConfig.load(args.config)
    observations, labels = load_dataset(Path(args.input or cfg.dataset),
                                        require_labels=False)
    cache = AnnotationCache()
    oracle = build_oracle(cfg, observations, labels, cache)
    bags = oracle.extract_keyphrases(observations)
    with open(args.output, "w") as fh:
        for bag in bags:
            fh.write(json.dumps({"observation_id": bag.observation_id,
                                 "phrases": sorted(bag.phrases)}) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccbm",
        description="Bayesian concept bottleneck models with oracle-proposed concepts")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the full sampling pipeline")
    run.add_argument("--config", required=True)
    run.add_argument("--resume", action="store_true",
                     help="resume from the run directory's checkpoint")
    run.add_argument("--seed", type=int)
    run.add_argument("--t-epochs", dest="t_epochs", type=int)
    run.add_argument("--m-candidates", dest="m_candidates", type=int)
    run.add_argument("--omega", type=float)
    run.add_argument("--mode", choices=["single_try", "multi_try"])
    run.add_argument("--dataset")
    run.add_argument("--output-dir", dest="output_dir")
    run.set_defaults(fn=cmd_run)

    predict = sub.add_parser("predict", help="score new observations with a finished run")
    predict.add_argument("--run", required=True)
    predict.add_argument("--input", required=True)
    predict.add_argument("--output", required=True)
    predict.set_defaults(fn=cmd_predict)

    ev = sub.add_parser("eval", help="metrics and recovery report for a finished run")
    ev.add_argument("--run", required=True)
    ev.add_argument("--truth", help="JSON file listing true concept questions")
    ev.set_defaults(fn=cmd_eval)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--out", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--clinical", action="store_true",
                     help="use the five-feature socio-clinical design")
    sim.add_argument("--n-decoys", dest="n_decoys", type=int, default=25)
    sim.add_argument("--pool-size", dest="pool_size", type=int, default=10)
    sim.add_argument("--coefficients", default="2.5,-2.5")
    sim.set_defaults(fn=cmd_simulate)

    enum = sub.add_parser("enumerate", help="brute-force exact posterior over supports")
    enum.add_argument("--dataset", required=True)
    enum.add_argument("--pool", required=True)
    enum.add_argument("--k", type=int, required=True)
    enum.add_argument("--gamma", type=float, default=1.0)
    enum.add_argument("--out", required=True)
    enum.set_defaults(fn=cmd_enumerate)

    extract = sub.add_parser("extract-keyphrases", help="dump keyphrase bags")
    extract.add_argument("--config", required=True)
    extract.add_argument("--input")
    extract.add_argument("--output", required=True)
    extract.set_defaults(fn=cmd_extract_keyphrases)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
