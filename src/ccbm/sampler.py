"""Metropolis-within-Gibbs over concept sets.

Implements the split-sample update, its multiple-try variant, the greedy
warm-start, and the chain driver with per-epoch checkpoints (a small header
plus an append-only chain log) so a run can resume exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .concepts import Concept, ConceptSet
from .model import AnnotationMatrix, PosteriorSample, log_marginal_likelihoods
# ccbm.sampler.log_marginal_likelihood stays bound: bench/tracing.py wraps it by name
from .model import log_marginal_likelihood  # noqa: F401
from .oracle import ConceptOracle, Observation, OracleError, OracleProposal


@dataclass(frozen=True)
class SamplerConfig:
    k: int
    t_epochs: int
    m_candidates: int
    omega: float = 0.5
    gamma: float = 1.0
    seed: int = 0
    warm_start_epochs: int = 1
    keep_last: int = 20
    mode: str = "multi_try"  # or "single_try"

    def __post_init__(self):
        if not 0 < self.omega < 1:
            raise ValueError(f"omega must lie in (0, 1), got {self.omega}")
        if self.m_candidates < 1:
            raise ValueError("m_candidates must be >= 1")
        if self.t_epochs < 1:
            raise ValueError("t_epochs must be >= 1")
        if self.mode not in ("single_try", "multi_try"):
            raise ValueError(f"unknown sampler mode {self.mode!r}")

    def to_dict(self) -> dict:
        return {
            "k": self.k, "t_epochs": self.t_epochs, "m_candidates": self.m_candidates,
            "omega": self.omega, "gamma": self.gamma, "seed": self.seed,
            "warm_start_epochs": self.warm_start_epochs, "keep_last": self.keep_last,
            "mode": self.mode,
        }

    @staticmethod
    def from_dict(d: dict) -> "SamplerConfig":
        return SamplerConfig(**d)


class GibbsData:
    """Annotated training data as seen by the chain.

    Keeps a per-concept column store, filled by column_fn only for concepts not
    stored yet; designs(concept_sets) stacks stored columns and the intercept
    column.
    """

    def __init__(self, labels: np.ndarray, row_ids: Sequence[str],
                 column_fn: Callable[[Sequence[Concept]], np.ndarray]):
        self.labels = np.asarray(labels, dtype=float)
        self.row_ids = tuple(row_ids)
        if self.labels.shape[0] != len(self.row_ids):
            raise ValueError("labels must align with row ids")
        self._column_fn = column_fn
        self._columns: dict[str, np.ndarray] = {}

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def fill(self, concepts: Sequence[Concept]):
        """Store the columns of the given concepts, in one column_fn call.

        A column is checked to lie in [0, 1] here, once, so designs built from
        stored columns need no further check.
        """
        missing = list({c.id: c for c in concepts if c.id not in self._columns}.values())
        if missing:
            columns = np.asarray(self._column_fn(missing), dtype=float).T.copy()
            if not np.all((columns >= 0.0) & (columns <= 1.0)):
                raise ValueError("concept annotation values must lie in [0, 1]")
            self._columns.update(zip((c.id for c in missing), columns))

    def columns(self, concepts: Sequence[Concept]) -> list[np.ndarray]:
        """The stored n-vector of each concept, filling any not stored yet."""
        self.fill(concepts)
        return [self._columns[c.id] for c in concepts]

    def designs(self, concept_sets: Sequence[Sequence[Concept]],
                rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The (E, n, K+1) stack of the designs of E concept sets of one size K:
        each set's stored columns in its order, then the intercept column.
        With rows, only those rows of each design."""
        self.fill([c for concepts in concept_sets for c in concepts])
        rows = slice(None) if rows is None else rows
        X = np.ones((len(concept_sets), len(self.labels[rows]), len(concept_sets[0]) + 1))
        for e, concepts in enumerate(concept_sets):
            for j, c in enumerate(concepts):
                X[e, :, j] = self._columns[c.id][rows]
        return X

    # ccbm eval builds its designs here; bench/tracing.py also wraps phi by name
    def phi(self, concepts: Sequence[Concept]) -> AnnotationMatrix:
        return AnnotationMatrix(values=self.designs([concepts])[0], row_ids=self.row_ids)


def annotation_table(oracle: ConceptOracle, observations: Sequence[Observation],
                     concepts: Sequence[Concept]) -> np.ndarray:
    """The (n, C) values of every concept for every observation, from one
    annotate call."""
    records = oracle.annotate(observations, concepts)
    values = {(r.observation_id, r.concept_id): r.value for r in records}
    return np.array([[values[(o.id, c.id)] for c in concepts] for o in observations],
                    dtype=float).reshape(len(observations), len(concepts))


def gibbs_data_from_oracle(observations, labels, oracle: ConceptOracle) -> GibbsData:
    """Bind a dataset to an oracle's annotate operation."""
    obs = list(observations)
    return GibbsData(labels, [o.id for o in obs],
                     lambda concepts: annotation_table(oracle, obs, concepts))


def subset_size(n: int, omega: float) -> int:
    """floor(omega * n), which must leave at least one row on each side."""
    size = int(np.floor(omega * n))
    if size < 1 or size > n - 1:
        raise ValueError(
            f"subset size floor({omega} * {n}) = {size} is degenerate; need 1 <= size <= n-1")
    return size


def draw_subset(n: int, omega: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform random subset of size floor(omega * n), without replacement."""
    return np.sort(rng.choice(n, size=subset_size(n, omega), replace=False))


@dataclass
class UpdateResult:
    state: ConceptSet
    accepted: bool
    log_alpha: float  # of the realized proposal; 0.0 when no valid candidate survived
    proposal: Optional[OracleProposal] = None
    chosen: Optional[Concept] = None
    log_weights: Optional[np.ndarray] = None


class _MarginalCache:
    """Laplace fits of the chain's concept sets.

    Full-data fits are memoized per ordered concept tuple; the fits on a
    conditioning subset change with every update and are not.
    """

    def __init__(self, data: GibbsData, gamma: float):
        self.data = data
        self.gamma = gamma
        self._cache: dict[tuple[str, ...], tuple[float, np.ndarray]] = {}

    def _full_fits(self, concept_sets: Sequence[Sequence[Concept]]
                   ) -> list[tuple[float, np.ndarray]]:
        """(log marginal, MAP theta) of each set on the full data; the sets not
        memoized yet are fitted in one stacked solve."""
        keys = [tuple(c.id for c in concepts) for concepts in concept_sets]
        todo = {key: concepts for key, concepts in zip(keys, concept_sets)
                if key not in self._cache}
        if todo:
            values, thetas, _ = log_marginal_likelihoods(
                self.data.designs(list(todo.values())), self.data.labels, self.gamma)
            self._cache.update(zip(todo, zip(map(float, values), thetas)))
        return [self._cache[key] for key in keys]

    def full(self, concepts: Sequence[Concept]) -> tuple[float, np.ndarray]:
        return self._full_fits([concepts])[0]

    def log_partial_bayes(self, concept_sets: Sequence[Sequence[Concept]],
                          subset: np.ndarray) -> np.ndarray:
        """log p(y_{S^c} | y_S, c, X) of each of several concept sets of one
        size, as a difference of two Laplace marginals: the full-data fits
        (memoized) and the subset fits, each set of fits one stacked solve."""
        if subset.size and (subset.min() < 0 or subset.max() >= self.data.n):
            raise ValueError("subset indices out of range")
        full = np.array([value for value, _ in self._full_fits(concept_sets)])
        sub = log_marginal_likelihoods(self.data.designs(concept_sets, subset),
                                       self.data.labels[subset], self.gamma)[0]
        return full - sub


def _candidate_sets(state: ConceptSet, slot: int, proposal: OracleProposal):
    """Drop candidates that duplicate the conditioning set; keep the incumbent."""
    context_ids = {c.id for c in state.without(slot)}
    kept = [(i, c) for i, c in enumerate(proposal.candidates) if c.id not in context_ids]
    return kept


def ss_mh_update(state: ConceptSet, slot: int, subset: np.ndarray, data: GibbsData,
                 oracle: ConceptOracle, cfg: SamplerConfig, rng: np.random.Generator,
                 marginals: Optional[_MarginalCache] = None,
                 proposal: Optional[OracleProposal] = None) -> UpdateResult:
    """Single-try split-sample Metropolis update for one slot.

    Accepts with probability min{1, exp(lpb(candidate) - lpb(current))} where
    lpb is the log partial Bayes factor conditioned on the subset rows.
    """
    marginals = marginals or _MarginalCache(data, cfg.gamma)
    incumbent = state[slot]
    if proposal is None:
        proposal = oracle.propose(state.without(slot), incumbent, subset, cfg.m_candidates, rng)
    kept = _candidate_sets(state, slot, proposal)
    if not kept:
        return UpdateResult(state, False, -np.inf, proposal)
    weights = np.array([proposal.q_weights[i] for i, _ in kept])
    if weights.sum() <= 0:
        raise ValueError("all proposal weights are zero")
    pick = rng.choice(len(kept), p=weights / weights.sum())
    candidate = kept[int(pick)][1]
    if candidate.id == incumbent.id:
        # identical annotation columns; delta is exactly 0
        return UpdateResult(state, True, 0.0, proposal, candidate)
    cand_state = state.replace(slot, candidate)
    lpb_current, lpb_candidate = marginals.log_partial_bayes(
        [state.concepts, cand_state.concepts], subset)
    log_alpha = min(0.0, lpb_candidate - lpb_current)
    accepted = np.log(rng.random()) < log_alpha
    return UpdateResult(cand_state if accepted else state, bool(accepted),
                        log_alpha, proposal, candidate)


def _multi_try_weights(state: ConceptSet, slot: int, subset: np.ndarray,
                       proposal: OracleProposal, marginals: _MarginalCache):
    """log w_m for surviving candidates, and log w_0 for the incumbent.

    The incumbent and every candidate with q > 0 are scored in one call; a
    re-proposed incumbent is scored once, as the incumbent.
    """
    if proposal.q_current <= 0:
        raise ValueError("q_current must be positive for the multi-try update")
    kept = _candidate_sets(state, slot, proposal)
    # the incumbent first, so its columns are filled before the candidates'
    scored = [state]
    rows = []  # each kept candidate's row of scored; None where q = 0
    for i, cand in kept:
        if proposal.q_weights[i] <= 0:
            rows.append(None)
        elif cand.id == state[slot].id:
            rows.append(0)
        else:
            rows.append(len(scored))
            scored.append(state.replace(slot, cand))
    lpb = marginals.log_partial_bayes([s.concepts for s in scored], subset)
    log_ws = np.array([-np.inf if r is None else lpb[r] + np.log(proposal.q_weights[i])
                       for (i, _), r in zip(kept, rows)])
    states = [None if r is None else scored[r] for r in rows]
    log_w0 = lpb[0] + np.log(proposal.q_current)
    return kept, log_ws, states, log_w0


def multi_ss_mh_update(state: ConceptSet, slot: int, subset: np.ndarray, data: GibbsData,
                       oracle: ConceptOracle, cfg: SamplerConfig, rng: np.random.Generator,
                       marginals: Optional[_MarginalCache] = None,
                       proposal: Optional[OracleProposal] = None) -> UpdateResult:
    """Multiple-try split-sample Metropolis update, all in log space.

    Samples one of the M candidates with probability proportional to
    w_m = exp(lpb_m) * q_m, then accepts with the modified multiple-try ratio
    q_current * sum_m w_m / (q_chosen * sum_{m != chosen, incl. incumbent} w_m).
    """
    marginals = marginals or _MarginalCache(data, cfg.gamma)
    incumbent = state[slot]
    if proposal is None:
        proposal = oracle.propose(state.without(slot), incumbent, subset, cfg.m_candidates, rng)
    kept, log_ws, states, log_w0 = _multi_try_weights(state, slot, subset, proposal, marginals)
    if len(kept) == 0:
        return UpdateResult(state, False, -np.inf, proposal)
    if np.all(np.isinf(log_ws)):
        raise ValueError("all proposal weights are zero")
    # Gumbel-max draw of the candidate index, numerically stable in log space
    gumbels = -np.log(-np.log(rng.random(len(log_ws))))
    pick = int(np.argmax(log_ws + gumbels))
    chosen = kept[pick][1]
    cand_state = states[pick]
    q_chosen = proposal.q_weights[kept[pick][0]]
    rest = np.concatenate([log_ws[:pick], log_ws[pick + 1:], [log_w0]])
    log_alpha = min(0.0, (np.log(proposal.q_current) + logsumexp(log_ws)
                          - np.log(q_chosen) - logsumexp(rest)))
    accepted = np.log(rng.random()) < log_alpha
    return UpdateResult(cand_state if accepted else state, bool(accepted),
                        float(log_alpha), proposal, chosen, log_ws)


def greedy_warm_start_update(state: ConceptSet, slot: int, subset: np.ndarray,
                             data: GibbsData, oracle: ConceptOracle, cfg: SamplerConfig,
                             rng: np.random.Generator,
                             marginals: Optional[_MarginalCache] = None,
                             proposal: Optional[OracleProposal] = None) -> UpdateResult:
    """Install the argmax-weight concept: incumbent on ties, else lowest index."""
    marginals = marginals or _MarginalCache(data, cfg.gamma)
    incumbent = state[slot]
    if proposal is None:
        proposal = oracle.propose(state.without(slot), incumbent, subset, cfg.m_candidates, rng)
    kept, log_ws, states, log_w0 = _multi_try_weights(state, slot, subset, proposal, marginals)
    if len(kept) == 0:
        return UpdateResult(state, False, 0.0, proposal)
    best = int(np.argmax(log_ws))  # argmax takes the first maximizer
    if log_w0 >= log_ws[best] or states[best] is state:
        return UpdateResult(state, False, 0.0, proposal, incumbent, log_ws)
    return UpdateResult(states[best], True, 0.0, proposal, kept[best][1], log_ws)


@dataclass
class ChainTrace:
    samples: list[PosteriorSample] = field(default_factory=list)
    acceptance_count: int = 0
    proposal_count: int = 0
    update_log: list[dict] = field(default_factory=list)

    def posterior_samples(self) -> list[PosteriorSample]:
        return [s for s in self.samples if not s.burn_in]

    @property
    def acceptance_rate(self) -> float:
        return self.acceptance_count / self.proposal_count if self.proposal_count else 0.0


class OracleFailure(RuntimeError):
    """Raised when the oracle fails mid-run; the checkpoint path is attached."""

    def __init__(self, message: str, checkpoint: Optional[Path]):
        super().__init__(message)
        self.checkpoint = checkpoint


def _rng_state(rng: np.random.Generator) -> dict:
    return json.loads(json.dumps(rng.bit_generator.state))


CHECKPOINT_FORMAT = "ccbm-checkpoint-v2"


def _log_path(path: Path) -> Path:
    """The chain log that belongs to the checkpoint header at path."""
    return Path(path).with_suffix(".log")


def save_checkpoint(path: Path, trace: ChainTrace, cfg: SamplerConfig,
                    state: ConceptSet, epoch_done: int, rng: np.random.Generator,
                    log_offset: int, entry: Optional[dict] = None) -> int:
    """Commit the chain as it stands after epoch_done.

    The chain log next to path (see _log_path) is first cut to
    log_offset, the end of what the last header committed, so an uncommitted
    tail is dropped; entry, one epoch's samples, update-log lines and RNG
    state, is appended as one NDJSON line. Then the header (config, state,
    RNG state, counters and the new log offset) atomically replaces path.
    Returns the new log offset.
    """
    with open(_log_path(path), "ab") as log:
        log.truncate(log_offset)
        if entry is not None:
            line = (json.dumps(entry) + "\n").encode("utf-8")
            log.write(line)
            log_offset += len(line)
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": cfg.to_dict(),
        "epoch_done": epoch_done,
        "state": [{"question": c.question} for c in state],
        "rng_state": _rng_state(rng),
        "acceptance_count": trace.acceptance_count,
        "proposal_count": trace.proposal_count,
        "log_offset": log_offset,
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(header))
    tmp.replace(path)
    return log_offset


def load_checkpoint(path: Path) -> dict:
    """Read a header and the chain log up to its committed offset.

    Raises ValueError naming the file when either is unreadable, of another
    format, or inconsistent with the other.
    """
    path = Path(path)
    try:
        header = json.loads(path.read_text())
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"format {fmt!r} is not {CHECKPOINT_FORMAT}; start a fresh run")
        offset = header["log_offset"]
        with open(_log_path(path), "rb") as log:
            raw = log.read(offset)
        if len(raw) != offset or (raw and not raw.endswith(b"\n")):
            raise ValueError(f"{_log_path(path)} ends before the committed offset {offset}")
        entries = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
        if [e["epoch"] for e in entries] != list(range(header["epoch_done"] + 1)):
            raise ValueError(f"{_log_path(path)} does not hold epochs 0..{header['epoch_done']}")
        trace = ChainTrace(
            samples=[PosteriorSample.from_dict(s) for e in entries for s in e["samples"]],
            acceptance_count=header["acceptance_count"],
            proposal_count=header["proposal_count"],
            update_log=[line for e in entries for line in e["update_log"]])
        return {
            "config": SamplerConfig.from_dict(header["config"]),
            "epoch_done": header["epoch_done"],
            "state": ConceptSet(Concept(c["question"]) for c in header["state"]),
            "rng_state": header["rng_state"],
            "log_offset": offset,
            "trace": trace,
        }
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} is not a usable checkpoint: {exc}") from exc


_UPDATES = {
    "single_try": ss_mh_update,
    "multi_try": multi_ss_mh_update,
}


def run_gibbs(data: GibbsData, oracle: ConceptOracle, cfg: SamplerConfig,
              init: ConceptSet, checkpoint_path: Optional[Path] = None,
              resume_from: Optional[dict] = None) -> ChainTrace:
    """Run warm-start then sampling epochs, appending one sample per slot update.

    Deterministic given (cfg.seed, data, a deterministic oracle). When
    checkpoint_path is set, a checkpoint is committed at the start and after
    every epoch (see save_checkpoint); an oracle failure leaves the last one
    in place. Pass a payload from load_checkpoint as resume_from to continue
    an interrupted run exactly.
    """
    update = _UPDATES[cfg.mode]
    marginals = _MarginalCache(data, cfg.gamma)
    total_epochs = cfg.warm_start_epochs + cfg.t_epochs

    if resume_from is not None:
        trace = resume_from["trace"]
        state = resume_from["state"]
        start_epoch = resume_from["epoch_done"] + 1
        log_offset = resume_from["log_offset"]
        rng = np.random.default_rng()
        rng.bit_generator.state = resume_from["rng_state"]
    else:
        trace = ChainTrace()
        state = init
        start_epoch = 0
        log_offset = 0
        rng = np.random.default_rng(cfg.seed)
    if checkpoint_path is not None:
        # the last committed epoch boundary, which an oracle failure leaves in place
        log_offset = save_checkpoint(checkpoint_path, trace, cfg, state,
                                     start_epoch - 1, rng, log_offset)

    for epoch in range(start_epoch, total_epochs):
        warm = epoch < cfg.warm_start_epochs
        first_sample, first_line = len(trace.samples), len(trace.update_log)
        for slot in range(cfg.k):
            subset = draw_subset(data.n, cfg.omega, rng)
            try:
                if warm:
                    result = greedy_warm_start_update(
                        state, slot, subset, data, oracle, cfg, rng, marginals)
                else:
                    result = update(state, slot, subset, data, oracle, cfg, rng, marginals)
            except OracleError as exc:
                raise OracleFailure(f"oracle failed at epoch {epoch} slot {slot}: {exc}",
                                    checkpoint_path) from exc
            state = result.state
            lml, theta = marginals.full(state.concepts)
            trace.samples.append(PosteriorSample(
                concept_set=state, theta=theta, log_marginal_full=lml,
                epoch=epoch, slot=slot, accepted=result.accepted,
                burn_in=warm, phase="warm_start" if warm else "sample"))
            if not warm:
                trace.proposal_count += 1
                trace.acceptance_count += int(result.accepted)
            trace.update_log.append({
                "epoch": epoch, "slot": slot, "subset_size": int(len(subset)),
                "n_candidates": len(result.proposal.candidates) if result.proposal else 0,
                "log_alpha": None if not np.isfinite(result.log_alpha) else float(result.log_alpha),
                "accepted": result.accepted,
                "phase": "warm_start" if warm else "sample",
            })
        if checkpoint_path is not None:
            entry = {"epoch": epoch,
                     "samples": [s.to_dict() for s in trace.samples[first_sample:]],
                     "update_log": trace.update_log[first_line:],
                     "rng_state": _rng_state(rng)}
            log_offset = save_checkpoint(checkpoint_path, trace, cfg, state, epoch, rng,
                                         log_offset, entry)

    _mark_burn_in(trace, cfg)
    return trace


def _mark_burn_in(trace: ChainTrace, cfg: SamplerConfig):
    """Keep the last keep_last warm-start states as posterior samples.

    A warm-start phase has only K * warm_start_epochs states, so the retained
    count is min(that, keep_last); everything earlier is burn-in.
    """
    warm = [s for s in trace.samples if s.phase == "warm_start"]
    keep = warm[-cfg.keep_last:] if cfg.keep_last > 0 else []
    kept_ids = {id(s) for s in keep}
    for s in warm:
        s.burn_in = id(s) not in kept_ids
