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
from .keyphrase import (KeyphraseSummary, build_bow, fit_keyphrase_model,
                        summarize_top_keyphrases)
from .llm import LLMConfig, LLMOracle
from .model import OptimizationError, sigmoid_predict_many
# ccbm.cli.sigmoid_predict and ccbm.cli.posterior_predictive stay bound:
# bench/tracing.py wraps them by name
from .model import posterior_predictive, sigmoid_predict  # noqa: F401
from .oracle import (AnnotationCache, ConceptOracle, Observation, OracleError,
                     PoolConcept, PoolOracle)
from .sampler import (OracleFailure, SamplerConfig, annotation_table,
                      gibbs_data_from_oracle, load_checkpoint, run_gibbs, subset_size)
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
    """The configured oracle; a config mistake raises ConfigError naming the field."""
    if cfg.oracle["type"] == "pool":
        if "pool" not in cfg.oracle:
            raise ConfigError("oracle config is missing the 'pool' field")
        try:
            pool = load_pool(cfg.oracle["pool"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read oracle.pool {cfg.oracle['pool']}: {exc!r}") from exc
        try:
            return PoolOracle(pool, observations, labels, gamma=cfg.sampler.gamma,
                              weight_mode=cfg.oracle.get("weight_mode", "exact"),
                              cache=cache)
        except ValueError as exc:
            raise ConfigError(f"invalid pool oracle config: {exc}") from exc
    try:
        llm_cfg = LLMConfig.from_dict(
            {k: v for k, v in cfg.oracle.items() if k not in ("type", "bag_cache")})
    except TypeError as exc:  # a missing or unknown field
        raise ConfigError(f"invalid LLM oracle config: {exc}") from exc
    bag_cache = cfg.oracle.get("bag_cache")
    try:
        return LLMOracle(llm_cfg, cache=cache,
                         bag_cache_path=Path(bag_cache) if bag_cache else None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _acquire_lock(run_dir: Path):
    """Create run_dir/.lock holding this process's pid, atomically.

    A lock whose recorded pid is no longer alive was left by a run that died,
    and is taken over. A lock held by a live pid, or one that names no
    process, is refused.
    """
    lock = run_dir / ".lock"
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except FileExistsError:
            pass
        try:
            # signal 0 only checks; a pid <= 0 names a process group and is refused
            os.kill(int(lock.read_text()), 0)
        except FileNotFoundError:
            continue  # released meanwhile
        except ProcessLookupError:
            lock.unlink(missing_ok=True)
            continue
        except (OSError, ValueError, OverflowError):
            pass  # alive under another user, or no pid
        raise ConfigError(f"run directory {run_dir} is locked by another run; remove {lock} "
                          "if no run is using the directory")
    with os.fdopen(fd, "w") as fh:
        fh.write(str(os.getpid()))
    return lock


def _load_resume(checkpoint: Path, sampler: SamplerConfig) -> dict:
    """The checkpoint to resume from, which must match the run's sampler config."""
    if not checkpoint.exists():
        raise ConfigError(f"--resume given but {checkpoint} does not exist")
    try:
        payload = load_checkpoint(checkpoint)
    except ValueError as exc:
        raise ConfigError(f"cannot resume: {exc}") from exc
    saved = payload["config"].to_dict()
    changed = [f"{key} {saved[key]!r} -> {value!r}"
               for key, value in sampler.to_dict().items() if saved[key] != value]
    if changed:
        raise ConfigError(f"cannot resume: the sampler config differs from {checkpoint}: "
                          + ", ".join(changed))
    return payload


def _residual_summary(vocab, bow, concepts, labels, keyphrase_cfg, seed) -> KeyphraseSummary:
    """Top keyphrases of the residual model. Labels of one class leave nothing
    to explain, and a fit that does not converge is reported and ranks no
    phrase: either way the summary carries no residual signal."""
    if len(np.unique(labels)) < 2:
        return KeyphraseSummary(entries=[], residual_signal=False)
    try:
        fit = fit_keyphrase_model(bow, concepts, labels, seed=seed, vocabulary=vocab)
    except OptimizationError as exc:
        print(f"warning: keyphrase model not fitted: {exc}", file=sys.stderr)
        return KeyphraseSummary(entries=[], residual_signal=False)
    return summarize_top_keyphrases(fit, top_n=int(keyphrase_cfg.get("top_n", 50)))


def _fit_initial_summary(bags, labels, keyphrase_cfg, seed):
    try:
        vocab, bow = build_bow(bags, min_df=int(keyphrase_cfg.get("min_df", 2)))
    except ValueError as exc:
        raise ConfigError(f"cannot summarize the dataset's keyphrases: {exc}") from exc
    return _residual_summary(vocab, bow, None, labels, keyphrase_cfg, seed)


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
        return _residual_summary(vocab, bow, design, labels[rows], keyphrase_cfg, seed)
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
    lock = _acquire_lock(run_dir)
    started = time.time()
    try:
        checkpoint = run_dir / "checkpoints" / "chain.json"
        resume_payload = _load_resume(checkpoint, cfg.sampler) if args.resume else None
        _atomic_write(run_dir / "config.snapshot", json.dumps(cfg.to_dict(), indent=2))
        observations, labels = load_dataset(cfg.dataset)
        try:
            subset_size(len(observations), cfg.sampler.omega)
        except ValueError as exc:
            raise ConfigError(f"dataset {cfg.dataset} is too small: {exc}") from exc
        cache = _open_cache(run_dir)
        oracle = build_oracle(cfg, observations, labels, cache)

        bags = oracle.extract_keyphrases(observations)
        summary = _fit_initial_summary(bags, labels, cfg.keyphrase, cfg.sampler.seed)
        data = gibbs_data_from_oracle(observations, labels, oracle)
        if isinstance(oracle, LLMOracle):
            oracle.summary_provider = _make_summary_provider(
                data, labels, bags, cfg.keyphrase, cfg.sampler.seed)
        init = oracle.initialize_concepts(summary, cfg.sampler.k)

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
    samples = [s for s in samples if not s.burn_in]
    if not samples:
        raise ConfigError("run contains no posterior samples")
    return cfg, samples


def _concept_set_groups(samples) -> list[tuple[ConceptSet, list[int]]]:
    """Each distinct concept set, in order of first use, with its samples' indices."""
    groups: dict[ConceptSet, list[int]] = {}
    for j, s in enumerate(samples):
        groups.setdefault(s.concept_set, []).append(j)
    return list(groups.items())


def _sample_probabilities(samples, groups, designs) -> np.ndarray:
    """Every sample's plug-in probability on every row, as an (n, S) matrix:
    one product per concept set, over that set's (n, d) design."""
    probs = np.empty((designs[0].shape[0], len(samples)))
    for (_, members), X in zip(groups, designs):
        probs[:, members] = sigmoid_predict_many(
            X, np.array([samples[j].theta for j in members]))
    return probs


def _annotate_rows(oracle, observations, concepts) -> tuple[np.ndarray, dict[int, str]]:
    """The (n, C) concept values of every row, from one annotate call.

    If that call fails, each row is annotated alone; a row whose call fails
    keeps zeros and its error message is returned by row index.
    """
    try:
        return annotation_table(oracle, observations, concepts), {}
    except OracleError:
        pass
    values = np.zeros((len(observations), len(concepts)))
    errors = {}
    for i, obs in enumerate(observations):
        try:
            values[i] = annotation_table(oracle, [obs], concepts)[0]
        except OracleError as exc:
            errors[i] = str(exc)
    return values, errors


def _check_training_ids(observations, train_obs):
    """Annotations are cached by observation id, so an input row that reuses a
    training id with other text would be scored on the training row's values."""
    train_text = {o.id: o.payload for o in train_obs}
    for obs in observations:
        if train_text.get(obs.id, obs.payload) != obs.payload:
            raise ConfigError(f"input observation {obs.id!r} reuses a training id with "
                              "different text; give it an id of its own")


def cmd_predict(args) -> int:
    run_dir = Path(args.run)
    cfg, samples = _load_run(run_dir)
    observations, _ = load_dataset(Path(args.input), require_labels=False)
    train_obs, train_labels = load_dataset(cfg.dataset)
    _check_training_ids(observations, train_obs)
    cache = _open_cache(run_dir)
    oracle = build_oracle(cfg, train_obs, train_labels, cache)

    concepts = list({c.id: c for s in samples for c in s.concept_set}.values())
    column = {c.id: j for j, c in enumerate(concepts)}
    values, errors = _annotate_rows(oracle, observations, concepts)
    groups = _concept_set_groups(samples)
    set_values = [values[:, [column[c.id] for c in cs]] for cs, _ in groups]
    ones = np.ones((len(observations), 1))
    probs = _sample_probabilities(samples, groups, [np.hstack([v, ones]) for v in set_values])
    ensemble = np.mean(probs, axis=1)

    # Lines are written one at a time, and each (row, concept set) part of a
    # per-sample record is encoded once: a sample adds only its probability.
    # The bytes equal json.dumps of the whole record.
    heads = ['{"concepts": ' + json.dumps([c.question for c in cs]) + ', "values": '
             for cs, _ in groups]
    index = {cs: g for g, (cs, _) in enumerate(groups)}
    group_of = [index[s.concept_set] for s in samples]
    set_rows = [v.tolist() for v in set_values]
    with open(args.output, "w") as fh:
        for i, obs in enumerate(observations):
            if i in errors:
                fh.write(json.dumps({"id": obs.id, "error": errors[i]}) + "\n")
                continue
            prefixes = [head + json.dumps(v[i]) + ', "probability": '
                        for head, v in zip(heads, set_rows)]
            per_sample = ", ".join([prefixes[g] + repr(p) + "}"
                                    for g, p in zip(group_of, probs[i].tolist())])
            fh.write(f'{{"id": {json.dumps(obs.id)}, "probability": {float(ensemble[i])!r}, '
                     f'"per_sample": [{per_sample}]}}\n')
    return EXIT_OK


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    cfg, samples = _load_run(run_dir)
    observations, labels = load_dataset(cfg.dataset)
    cache = _open_cache(run_dir)
    oracle = build_oracle(cfg, observations, labels, cache)

    data = gibbs_data_from_oracle(observations, labels, oracle)
    data.fill([c for s in samples for c in s.concept_set])
    groups = _concept_set_groups(samples)
    probs = _sample_probabilities(samples, groups, [data.phi(cs).values for cs, _ in groups])
    frequencies = support_frequencies([s.concept_set for s in samples])
    # (S, n) layout, averaged over samples in sample order
    scores = np.ascontiguousarray(probs.T).mean(axis=0)
    report = {
        "n": len(observations),
        "auc": auc(scores, labels),
        "brier": brier(scores, labels),
        # one support reached in several slot orders is one key
        "support_frequencies": {
            " | ".join(sorted(c.question for c in cs)): frequencies[cs.id_set()]
            for cs, _ in groups},
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
