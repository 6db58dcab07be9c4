"""Command-line pipeline: run, predict, eval, simulate, enumerate,
extract-keyphrases.

A run owns an output directory with a frozen config snapshot, a manifest,
posterior samples, the annotation cache, and resumable checkpoints. Every
output of a pool run is reproducible from (config, seed); an LLM run's also
needs its frozen annotation cache, which predict and eval read and extend.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .concepts import Concept, ConceptSet
from .config import ConfigError, load, setting
from .evaluate import (ConceptMatchRule, auc, brier, enumerate_posterior,
                       recovery_report, support_frequencies)
from .keyphrase import KeyphraseConfig, build_bow, fit_keyphrase_model, top_keyphrases
from .llm import LLMConfig, LLMOracle
from .model import OptimizationError, PosteriorSample, sigmoid_predict_many, stack_designs
# ccbm.cli.sigmoid_predict and ccbm.cli.posterior_predictive stay bound:
# bench/tracing.py wraps them by name
from .model import posterior_predictive, sigmoid_predict  # noqa: F401
from .oracle import (AnnotationCache, ConceptOracle, Observation, OracleError,
                     PoolConcept, PoolOracle, apply_block)
from .sampler import (OracleFailure, SamplerConfig, gibbs_data_from_oracle,
                      load_checkpoint, run_gibbs, subset_size)
from .synthetic import SyntheticSpec, clinical_spec, generate_synthetic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
# the layout of a scored predictions.ndjson row: each distinct posterior record
# once, with the indices of the samples that use it (version 1, which had no
# version field, repeated the record once per sample under "per_sample")
PREDICTIONS_VERSION = 2


def _read_json(path: Path, what: str):
    """The JSON value a file holds; a file that cannot be read or parsed
    raises ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _make_dir(path: Path):
    """Create the directory path and its parents; one that cannot be created
    raises ConfigError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {path}: {exc}") from exc


def _open_output(path):
    """The file at path, opened for writing; one that cannot be created raises
    ConfigError naming it."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class PoolOracleConfig:
    type: str = setting(choices=("pool",))
    # a concept pool file, or its {"question", "keyword"} entries
    pool: Union[str, list[dict]]
    weight_mode: str = setting("exact", choices=("exact", "uniform"))


@dataclass(frozen=True)
class LLMOracleConfig(LLMConfig):
    type: str = setting(choices=("llm",), kw_only=True)
    bag_cache: Optional[str] = None


@dataclass
class RunConfig:
    dataset: str
    output_dir: str
    oracle: Union[PoolOracleConfig, LLMOracleConfig]
    sampler: SamplerConfig
    keyphrase: KeyphraseConfig = KeyphraseConfig()
    truth: Optional[list[str]] = setting(None, nonempty=True)
    given: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the concepts of a pool oracle's pool, read when the config is loaded
    pool: list[PoolConcept] = field(default_factory=list, init=False, repr=False,
                                    compare=False)

    @staticmethod
    def load(path: Path, overrides: Optional[dict] = None) -> "RunConfig":
        """The run config at path, with the overrides that are not None put
        in, and a pool oracle's pool read, so that a pool that cannot be used
        raises ConfigError before any command writes a file."""
        raw = _read_json(path, "config")
        if isinstance(raw, dict) and isinstance(raw.setdefault("sampler", {}), dict):
            for key, value in (overrides or {}).items():
                if value is not None:
                    (raw if key in ("dataset", "output_dir") else raw["sampler"])[key] = value
        cfg = load(RunConfig, raw)
        cfg.given = raw
        if isinstance(cfg.oracle, PoolOracleConfig):
            cfg.pool = load_pool(cfg.oracle.pool)
        return cfg

    def to_dict(self) -> dict:
        """The snapshot: every sampler field, and the oracle and keyphrase fields as given."""
        return dict(dataset=str(Path(self.dataset)), output_dir=str(Path(self.output_dir)),
                    oracle=self.given["oracle"], sampler=self.sampler.to_dict(),
                    keyphrase=self.given.get("keyphrase", {}), truth=self.truth)


_DECODE = json.JSONDecoder().raw_decode


def _parse_line(line: str):
    """json.loads of a stripped line, by one raw_decode without json.loads'
    wrappers; json.loads words a failure."""
    try:
        value, end = _DECODE(line)
    except ValueError:
        end = None
    return value if end == len(line) else json.loads(line)


def load_dataset(path: Path, require_labels: bool = True):
    observations: list[Observation] = []
    try:
        lines = Path(path).read_text().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = _parse_line(line)
            obs = Observation(id=str(rec["id"]), payload=rec["text"],
                              label=rec.get("label"))
            if not isinstance(obs.payload, str):
                raise TypeError(f"text must be a string, got {obs.payload!r}")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad dataset record: {exc}") from exc
        if require_labels and obs.label not in (0, 1):
            raise ConfigError(f"{path}:{lineno}: label must be 0 or 1")
        observations.append(obs)
    if not observations:
        raise ConfigError(f"dataset {path} is empty")
    ids = [o.id for o in observations]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"dataset {path} contains duplicate observation ids")
    y = np.array([o.label if o.label is not None else -1 for o in observations])
    return observations, y


def load_pool(spec) -> list[PoolConcept]:
    """The pool concepts of spec: a list of {"question", "keyword"} entries,
    or the path of a JSON file holding one. A pool that cannot be read, or
    that holds one concept twice, raises ConfigError."""
    entries = _read_json(spec, "concept pool") if isinstance(spec, (str, Path)) else spec
    try:
        pool = [PoolConcept(Concept(entry["question"]), entry["keyword"]) for entry in entries]
        if len({pc.concept.id for pc in pool}) != len(pool):
            raise ValueError("pool contains duplicate concepts")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid concept pool {spec}: {exc!r}") from exc
    return pool


def build_oracle(cfg: RunConfig, observations,
                 cache: Optional[AnnotationCache]) -> ConceptOracle:
    """The configured oracle, over cfg's pool on a pool run; a corrupt bag
    cache raises ConfigError."""
    if isinstance(cfg.oracle, PoolOracleConfig):
        return PoolOracle(cfg.pool, observations, weight_mode=cfg.oracle.weight_mode,
                          cache=cache)
    try:
        return LLMOracle(cfg.oracle, cache=cache, bag_cache_path=cfg.oracle.bag_cache)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _truth_concepts(questions: list[str], oracle: ConceptOracle) -> ConceptSet:
    """The true concepts that questions name, up to case and whitespace: pool
    concepts, in pool order, on a pool run, and new concepts otherwise, in
    first-mention order. A question that is blank, or not in the pool on a
    pool run, raises ConfigError naming it."""
    blank = [q for q in questions if not q.strip()]
    if blank:
        raise ConfigError(f"truth questions must not be blank: {blank}")
    named = dict.fromkeys(map(Concept, questions))
    if not isinstance(oracle, PoolOracle):
        return ConceptSet(named)
    pooled = dict.fromkeys(pc.concept for pc in oracle.pool)
    missing = [q for q in questions if Concept(q) not in pooled]
    if missing:
        raise ConfigError(f"truth questions not in the concept pool: {missing}")
    return ConceptSet(c for c in pooled if c in named)


# ---------------------------------------------------------------------------
# run pipeline


def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _open_cache(run_dir: Path) -> AnnotationCache:
    try:
        return AnnotationCache(run_dir / "cache" / "annotations.ndjson")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _acquire_lock(run_dir: Path):
    """An exclusive flock on run_dir/.lock, held until the returned file is
    closed or this process exits, however it exits. The file holds the pid
    for people to read, and stays: unlinking it would let a waiter lock the
    orphaned inode while another run locks a new file."""
    lock = run_dir / ".lock"
    try:
        fh = open(lock, "a+")
    except OSError as exc:
        raise ConfigError(f"cannot open the run lock {lock}: {exc}") from exc
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        fh.close()
        raise ConfigError(f"run directory {run_dir} is locked by another run") from None
    fh.truncate(0)
    fh.write(str(os.getpid()))
    fh.flush()
    return fh


def _load_resume(checkpoint: Path, sampler: SamplerConfig) -> dict:
    """The checkpoint to resume from, which must match the run's sampler config."""
    if not checkpoint.exists():
        raise ConfigError(f"--resume given but {checkpoint} does not exist")
    try:
        payload = load_checkpoint(checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot resume: {exc}") from exc
    saved = payload["config"].to_dict()
    changed = [f"{key} {saved[key]!r} -> {value!r}"
               for key, value in sampler.to_dict().items() if saved[key] != value]
    if changed:
        raise ConfigError(f"cannot resume: the sampler config differs from {checkpoint}: "
                          + ", ".join(changed))
    return payload


def _residual_summary(vocab, bow, concepts, labels, keyphrase_cfg) -> list[str]:
    """Top keyphrases of the residual model. Labels of one class leave nothing
    to explain, and a fit that does not converge is reported and ranks no
    phrase: either way the summary is empty."""
    if len(np.unique(labels)) < 2:
        return []
    try:
        fit = fit_keyphrase_model(bow, concepts, labels)
    except OptimizationError as exc:
        print(f"warning: keyphrase model not fitted: {exc}", file=sys.stderr)
        return []
    return top_keyphrases(vocab, fit.beta_w, keyphrase_cfg.top_n)


def _fit_initial_summary(bags, labels, keyphrase_cfg) -> list[str]:
    try:
        vocab, bow = build_bow(bags, min_df=keyphrase_cfg.min_df)
    except ValueError as exc:
        raise ConfigError(f"cannot summarize the dataset's keyphrases: {exc}") from exc
    return _residual_summary(vocab, bow, None, labels, keyphrase_cfg)


def _make_summary_provider(data, labels, bags, keyphrase_cfg):
    """Residual-model summary on the conditioning subset, for LLM proposals."""
    def provider(concepts, subset) -> list[str]:
        rows = np.asarray(subset, dtype=int)
        # the concept columns: the keyphrase model adds its own intercept
        design = data.designs([concepts], rows)[0, :, :-1]
        sub_bags = [bags[i] for i in rows]
        try:  # a subset too small to share a phrase has an empty vocabulary
            vocab, bow = build_bow(sub_bags, min_df=keyphrase_cfg.min_df)
        except ValueError:
            return []
        return _residual_summary(vocab, bow, design, labels[rows], keyphrase_cfg)
    return provider


def cmd_run(args) -> int:
    overrides = {
        "seed": args.seed, "t_epochs": args.t_epochs, "omega": args.omega,
        "mode": args.mode, "m_candidates": args.m_candidates,
        "dataset": args.dataset, "output_dir": args.output_dir,
    }
    cfg = RunConfig.load(args.config, overrides)
    if not Path(cfg.dataset).exists():
        raise ConfigError(f"dataset file {cfg.dataset} does not exist")
    if isinstance(cfg.oracle, PoolOracleConfig) and cfg.sampler.k > len(cfg.pool):
        raise ConfigError(f"sampler.k {cfg.sampler.k} is more than the "
                          f"{len(cfg.pool)} concepts of oracle.pool")
    run_dir = Path(cfg.output_dir)
    for sub in ("cache", "checkpoints", "reports"):
        _make_dir(run_dir / sub)
    lock = _acquire_lock(run_dir)
    started = time.time()
    try:
        checkpoint = run_dir / "checkpoints" / "chain.log"
        resume_payload = _load_resume(checkpoint, cfg.sampler) if args.resume else None
        _atomic_write(run_dir / "config.snapshot", json.dumps(cfg.to_dict(), indent=2))
        observations, labels = load_dataset(cfg.dataset)
        try:
            subset_size(len(observations), cfg.sampler.omega)
        except ValueError as exc:
            raise ConfigError(f"dataset {cfg.dataset} is too small: {exc}") from exc
        cache = _open_cache(run_dir)
        oracle = build_oracle(cfg, observations, cache)
        truth = _truth_concepts(cfg.truth, oracle) if cfg.truth is not None else None

        bags = oracle.extract_keyphrases(observations)
        data = gibbs_data_from_oracle(observations, labels, oracle)
        if isinstance(oracle, LLMOracle):
            oracle.summary_provider = _make_summary_provider(data, labels, bags, cfg.keyphrase)
        if resume_payload is None:
            summary = _fit_initial_summary(bags, labels, cfg.keyphrase)
            init = oracle.initialize_concepts(summary, cfg.sampler.k)
        else:  # the chain resumes from its checkpoint, which holds its state
            init = resume_payload["state"]

        trace = run_gibbs(data, oracle, cfg.sampler, init,
                          checkpoint_path=checkpoint, resume_from=resume_payload)

        _atomic_write(run_dir / "samples.jsonl",
                      "".join(json.dumps(s.to_dict()) + "\n" for s in trace.samples))
        _atomic_write(run_dir / "reports" / "update_log.jsonl",
                      "".join(json.dumps(r) + "\n" for r in trace.update_log))

        epochs: dict[int, float] = {}
        for s in trace.samples:
            epochs[s.epoch] = s.log_marginal_full
        llm = oracle if isinstance(oracle, LLMOracle) else None
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
                # this invocation's LLM work; null for the pool oracle
                "llm_calls": llm.client.call_count if llm else None,
                "llm_retries": llm.client.retry_count if llm else None,
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

        if truth is not None and isinstance(oracle, PoolOracle):
            posterior_sets = [s.concept_set for s in trace.posterior_samples()]
            report = _recovery_for_run(posterior_sets, truth, data)
            _atomic_write(run_dir / "reports" / "recovery.json",
                          json.dumps(report.to_dict(), indent=2))
        return EXIT_OK
    except OracleFailure as exc:
        print(f"oracle failure: {exc}; checkpoint at {exc.checkpoint}", file=sys.stderr)
        return EXIT_ORACLE
    finally:
        lock.close()


def _recovery_for_run(samples: list[ConceptSet], truth: ConceptSet, data):
    concepts = list({c.id: c for cs in [*samples, truth] for c in cs}.values())
    # contiguous copies: a strided column can be summed in another order
    panel = dict(zip([c.id for c in concepts], data.designs([concepts])[0, :, :-1].T.copy()))
    return recovery_report(samples, truth, ConceptMatchRule(), panel)


# ---------------------------------------------------------------------------
# predict / eval


def _load_samples(path: Path) -> list[PosteriorSample]:
    """The records of samples.jsonl, parsed as one block by apply_block: a
    corrupt line raises ConfigError naming path:line.

    The file is written atomically, so a torn last line means it is damaged:
    it is reported like any other corrupt line, and the file is left as it is.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    samples: list[PosteriorSample] = []
    # one ConceptSet per distinct concept list: a chain repeats its state
    sets: dict[tuple[str, ...], ConceptSet] = {}

    def sample(d) -> PosteriorSample:
        questions = tuple(c["question"] for c in d["concepts"])
        if questions not in sets:
            sets[questions] = ConceptSet(Concept(q) for q in questions)
        s = PosteriorSample.from_dict(d, sets[questions])
        if s.theta.shape != (len(questions) + 1,):
            raise ValueError("theta must hold one coefficient per concept and an intercept")
        return s

    if data and not data.endswith(b"\n"):
        data += b"\n"  # a torn last line, terminated to be parsed and so reported
    try:
        # a block that fails adds nothing: the whole list is built first
        apply_block(path, data, 0, lambda records: samples.extend([sample(d) for d in records]),
                    "posterior sample")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return samples


def _load_run(run_dir: Path):
    samples_path = run_dir / "samples.jsonl"
    if not samples_path.exists():
        raise ConfigError(f"{run_dir} has no samples.jsonl; run has not completed")
    cfg = RunConfig.load(run_dir / "config.snapshot")
    samples = [s for s in _load_samples(samples_path) if not s.burn_in]
    if not samples:
        raise ConfigError("run contains no posterior samples")
    return cfg, samples


def _posterior_records(samples):
    """The samples' distinct concept sets and distinct (concept set, theta)
    records, each in order of first use.

    Returns the concept sets, the records as (concept-set index, theta) and
    each sample's record index. A chain repeats its state on every rejected
    update, so S samples hold few records. Thetas are keyed by their bits:
    after a resume, one concept set can carry thetas that differ in their last
    bits, and those stay separate records.
    """
    sets: dict[ConceptSet, int] = {}
    index: dict[tuple[int, bytes], int] = {}
    records: list[tuple[int, np.ndarray]] = []
    record_of = []
    for s in samples:
        g = sets.setdefault(s.concept_set, len(sets))
        u = index.setdefault((g, s.theta.tobytes()), len(records))
        if u == len(records):
            records.append((g, s.theta))
        record_of.append(u)
    return list(sets), records, record_of


def _record_probabilities(records, record_of, designs) -> tuple[np.ndarray, np.ndarray]:
    """Every record's plug-in probability on every row, as an (n, U) matrix
    (one product per concept set, over its design in the stack), and every
    row's ensemble probability, the mean of its (n, S) row of samples, summed
    as posterior_predictive sums them. predict and eval both score here."""
    members = [[] for _ in designs]
    for u, (g, _) in enumerate(records):
        members[g].append(u)
    probs = np.empty((designs.shape[1], len(records)))
    for cols, X in zip(members, designs):
        probs[:, cols] = sigmoid_predict_many(X, np.array([records[u][1] for u in cols]))
    return probs, np.mean(np.take(probs, record_of, axis=1), axis=1)


def _annotate_rows(oracle, observations, concepts) -> tuple[np.ndarray, dict[int, str]]:
    """The (n, C) concept values of every row, from one annotate call.

    If that call fails, each row is annotated alone; a row whose call fails
    keeps zeros and its error message is returned by row index.
    """
    try:
        return oracle.annotate(observations, concepts), {}
    except OracleError:
        pass
    values = np.zeros((len(observations), len(concepts)))
    errors = {}
    for i, obs in enumerate(observations):
        try:
            values[i] = oracle.annotate([obs], concepts)[0]
        except OracleError as exc:
            errors[i] = str(exc)
    return values, errors


def _scoring_oracle(cfg: RunConfig, run_dir: Path) -> ConceptOracle:
    """The oracle predict and eval annotate through. A pool value is a pure
    function of the keyword and the text, so a pool run's oracle has no
    training rows and no cache: every row is scored on its own text, and
    neither the training set nor the run's annotation log is read. An LLM
    run's answers cost calls, so its oracle reads and extends the log."""
    pool = isinstance(cfg.oracle, PoolOracleConfig)
    return build_oracle(cfg, [], None if pool else _open_cache(run_dir))


def _check_training_ids(observations, train_obs):
    """An LLM run's cached answers are looked up by observation id, so an input
    row that reuses a training id with other text would be scored on the
    training row's answers. A pool run scores each row on its own text."""
    train_text = {o.id: o.payload for o in train_obs}
    for obs in observations:
        if train_text.get(obs.id, obs.payload) != obs.payload:
            raise ConfigError(f"input observation {obs.id!r} reuses a training id with "
                              "different text; give it an id of its own")


def cmd_predict(args) -> int:
    run_dir = Path(args.run)
    cfg, samples = _load_run(run_dir)
    observations, _ = load_dataset(Path(args.input), require_labels=False)
    if isinstance(cfg.oracle, LLMOracleConfig):
        _check_training_ids(observations, load_dataset(cfg.dataset)[0])
    oracle = _scoring_oracle(cfg, run_dir)

    concepts = list({c.id: c for s in samples for c in s.concept_set}.values())
    column = {c.id: j for j, c in enumerate(concepts)}
    values, errors = _annotate_rows(oracle, observations, concepts)
    sets, records, record_of = _posterior_records(samples)
    set_columns = [[column[c.id] for c in cs] for cs in sets]
    probs, ensemble = _record_probabilities(records, record_of,
                                            stack_designs(values, set_columns))

    # Lines are written one at a time. All of a line after its id depends only
    # on the row's values, so it is encoded once per distinct values row (an
    # error row's zeros are not its values). Each value is encoded as its repr,
    # which is how json.dumps writes a finite float (oracle values lie in
    # [0, 1]), and each record's sample indices once for all rows. The bytes
    # equal json.dumps of the whole row.
    heads = ['{"concepts": ' + json.dumps([c.question for c in cs]) + ', "values": ['
             for cs in sets]
    record_set = [g for g, _ in records]
    uses: list[list[int]] = [[] for _ in records]
    for i, u in enumerate(record_of):
        uses[u].append(i)
    tails = [', "samples": ' + json.dumps(used) + "}" for used in uses]
    bodies: dict[bytes, str] = {}
    with _open_output(args.output) as fh:
        for i, obs in enumerate(observations):
            if i in errors:
                fh.write(json.dumps({"id": obs.id, "error": errors[i]}) + "\n")
                continue
            key = values[i].tobytes()
            if key not in bodies:
                cells = list(map(repr, values[i].tolist()))
                prefixes = [head + ", ".join([cells[j] for j in cols]) + '], "probability": '
                            for head, cols in zip(heads, set_columns)]
                encoded = ", ".join([prefixes[g] + repr(p) + tail for g, p, tail
                                     in zip(record_set, probs[i].tolist(), tails)])
                bodies[key] = (f'{float(ensemble[i])!r}, "version": {PREDICTIONS_VERSION}, '
                               f'"records": [{encoded}]}}\n')
            fh.write(f'{{"id": {json.dumps(obs.id)}, "probability": {bodies[key]}')
    return EXIT_OK


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    cfg, samples = _load_run(run_dir)
    observations, labels = load_dataset(cfg.dataset)
    oracle = _scoring_oracle(cfg, run_dir)
    truth = (_truth_concepts(load(list[str], _read_json(args.truth, "truth file"),
                                  f"truth file {args.truth}", {"nonempty": True}), oracle)
             if args.truth else None)

    data = gibbs_data_from_oracle(observations, labels, oracle)
    sets, records, record_of = _posterior_records(samples)
    _, scores = _record_probabilities(records, record_of, data.designs(sets))
    frequencies = support_frequencies([s.concept_set for s in samples])
    report = {
        "n": len(observations),
        "auc": auc(scores, labels),
        "brier": brier(scores, labels),
        # one support reached in several slot orders is one key
        "support_frequencies": {
            " | ".join(sorted(c.question for c in cs)): frequencies[cs.id_set()]
            for cs in sets},
    }
    if truth is not None:
        recovery = _recovery_for_run([s.concept_set for s in samples], truth, data)
        report["recovery"] = recovery.to_dict()
    out = run_dir / "reports" / "metrics.json"
    _make_dir(out.parent)
    _atomic_write(out, json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / enumerate / extract-keyphrases


def cmd_simulate(args) -> int:
    for flag, value, least in (("--n", args.n, 1), ("--n-decoys", args.n_decoys, 0)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    out = Path(args.out)
    if args.clinical:
        spec = clinical_spec(args.n, seed=args.seed, n_decoys=args.n_decoys)
    else:
        pool = [(f"Is feature {i} present?", f"feat{i}") for i in range(args.pool_size)]
        try:
            coefficients = [float(c) for c in args.coefficients.split(",")]
            if not np.all(np.isfinite(coefficients)):
                raise ValueError
        except ValueError:
            raise ConfigError("--coefficients must be comma-separated finite numbers, "
                              f"got {args.coefficients!r}") from None
        if len(coefficients) > args.pool_size:
            raise ConfigError(f"--coefficients lists {len(coefficients)} coefficients, "
                              f"more than --pool-size {args.pool_size}")
        spec = SyntheticSpec(n=args.n, pool=pool,
                             true_support=list(range(len(coefficients))),
                             coefficients=coefficients, seed=args.seed)
    _make_dir(out)
    data = generate_synthetic(spec)
    with _open_output(out / "dataset.ndjson") as fh:
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
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if not 0 < args.gamma < np.inf:
        raise ConfigError(f"--gamma must be finite and positive, got {args.gamma}")
    observations, labels = load_dataset(Path(args.dataset))
    pool = load_pool(Path(args.pool))
    if args.k > len(pool):
        raise ConfigError(f"--k {args.k} is more than the {len(pool)} concepts of {args.pool}")
    oracle = PoolOracle(pool, observations)
    try:
        posterior = enumerate_posterior([pc.concept for pc in pool], args.k,
                                        labels, oracle.matrix, gamma=args.gamma)
    except ValueError as exc:  # over the enumeration budget
        raise ConfigError(f"--k {args.k}: {exc}") from exc
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
    observations, _ = load_dataset(Path(args.input or cfg.dataset), require_labels=False)
    oracle = build_oracle(cfg, observations, None)
    bags = oracle.extract_keyphrases(observations)
    with _open_output(args.output) as fh:
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
