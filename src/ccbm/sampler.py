"""Metropolis-within-Gibbs over concept sets.

Implements the split-sample update, its multiple-try variant, the greedy
warm-start, and the chain driver with per-epoch RNG checkpoints so a run can
resume exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .concepts import Concept, ConceptSet
from .model import (AnnotationMatrix, ModelConfig, PosteriorSample,
                    log_marginal_likelihood)
from .oracle import ConceptOracle, OracleError, OracleProposal


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
    stored yet; phi(concepts) stacks stored columns and the intercept column.
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
        """Store the columns of the given concepts, in one column_fn call."""
        missing = list({c.id: c for c in concepts if c.id not in self._columns}.values())
        if missing:
            columns = np.asarray(self._column_fn(missing), dtype=float).T.copy()
            self._columns.update(zip((c.id for c in missing), columns))

    def columns(self, concepts: Sequence[Concept]) -> list[np.ndarray]:
        """The stored n-vector of each concept, filling any not stored yet."""
        self.fill(concepts)
        return [self._columns[c.id] for c in concepts]

    def phi(self, concepts: Sequence[Concept]) -> AnnotationMatrix:
        return AnnotationMatrix(values=np.column_stack([*self.columns(concepts), np.ones(self.n)]),
                                row_ids=self.row_ids)


def gibbs_data_from_oracle(observations, labels, oracle: ConceptOracle) -> GibbsData:
    """Bind a dataset to an oracle's annotate operation."""
    obs = list(observations)

    def column_fn(concepts):
        records = oracle.annotate(obs, concepts)
        values = {(r.observation_id, r.concept_id): r.value for r in records}
        return np.array([[values[(o.id, c.id)] for c in concepts] for o in obs])

    return GibbsData(labels, [o.id for o in obs], column_fn)


def draw_subset(n: int, omega: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform random subset of size floor(omega * n), without replacement."""
    size = int(np.floor(omega * n))
    if size < 1 or size > n - 1:
        raise ValueError(
            f"subset size floor({omega} * {n}) = {size} is degenerate; need 1 <= size <= n-1")
    return np.sort(rng.choice(n, size=size, replace=False))


@dataclass
class UpdateResult:
    state: ConceptSet
    accepted: bool
    log_alpha: float  # of the realized proposal; 0.0 when no valid candidate survived
    proposal: Optional[OracleProposal] = None
    chosen: Optional[Concept] = None
    log_weights: Optional[np.ndarray] = None


class _MarginalCache:
    """Memoizes full-data Laplace fits per ordered concept tuple."""

    def __init__(self, data: GibbsData, gamma: float):
        self.data = data
        self.gamma = gamma
        self._cache: dict[tuple[str, ...], tuple[float, np.ndarray]] = {}

    def full(self, concepts: Sequence[Concept]) -> tuple[float, np.ndarray]:
        key = tuple(c.id for c in concepts)
        if key not in self._cache:
            phi = self.data.phi(concepts)
            cfg = ModelConfig(gamma=self.gamma, k=len(concepts))
            lm = log_marginal_likelihood(phi, self.data.labels, cfg)
            self._cache[key] = (lm.value, lm.theta_map)
        return self._cache[key]

    def subset(self, concepts: Sequence[Concept], subset: np.ndarray) -> float:
        phi = self.data.phi(concepts)
        sub = AnnotationMatrix(values=phi.values[subset],
                               row_ids=tuple(phi.row_ids[i] for i in subset))
        cfg = ModelConfig(gamma=self.gamma, k=len(concepts))
        return log_marginal_likelihood(sub, self.data.labels[subset], cfg).value

    def log_partial_bayes(self, concepts: Sequence[Concept], subset: np.ndarray) -> float:
        return self.full(concepts)[0] - self.subset(concepts, subset)


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
    delta = (marginals.log_partial_bayes(cand_state.concepts, subset)
             - marginals.log_partial_bayes(state.concepts, subset))
    log_alpha = min(0.0, delta)
    accepted = np.log(rng.random()) < log_alpha
    return UpdateResult(cand_state if accepted else state, bool(accepted),
                        log_alpha, proposal, candidate)


def _multi_try_weights(state: ConceptSet, slot: int, subset: np.ndarray,
                       proposal: OracleProposal, marginals: _MarginalCache):
    """log w_m for surviving candidates, and log w_0 for the incumbent."""
    kept = _candidate_sets(state, slot, proposal)
    # one oracle round trip for every column the candidate designs need
    marginals.data.fill([*state.concepts, *(c for i, c in kept if proposal.q_weights[i] > 0)])
    log_ws, states = [], []
    lpb_current = None
    for i, cand in kept:
        q = proposal.q_weights[i]
        if q <= 0:
            log_ws.append(-np.inf)
            states.append(None)
            continue
        cand_state = state if cand.id == state[slot].id else state.replace(slot, cand)
        lpb = marginals.log_partial_bayes(cand_state.concepts, subset)
        if cand_state is state:
            lpb_current = lpb  # a re-proposed incumbent: reuse its fit for w_0
        log_ws.append(lpb + np.log(q))
        states.append(cand_state)
    if proposal.q_current <= 0:
        raise ValueError("q_current must be positive for the multi-try update")
    if lpb_current is None:
        lpb_current = marginals.log_partial_bayes(state.concepts, subset)
    log_w0 = lpb_current + np.log(proposal.q_current)
    return kept, np.asarray(log_ws), states, log_w0


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
    rng_state_checkpoints: list[dict] = field(default_factory=list)
    update_log: list[dict] = field(default_factory=list)

    def posterior_samples(self) -> list[PosteriorSample]:
        return [s for s in self.samples if not s.burn_in]

    @property
    def acceptance_rate(self) -> float:
        return self.acceptance_count / self.proposal_count if self.proposal_count else 0.0

    def to_dict(self) -> dict:
        return {
            "samples": [s.to_dict() for s in self.samples],
            "acceptance_count": self.acceptance_count,
            "proposal_count": self.proposal_count,
            "rng_state_checkpoints": self.rng_state_checkpoints,
            "update_log": self.update_log,
        }

    @staticmethod
    def from_dict(d: dict) -> "ChainTrace":
        return ChainTrace(
            samples=[PosteriorSample.from_dict(s) for s in d["samples"]],
            acceptance_count=d["acceptance_count"],
            proposal_count=d["proposal_count"],
            rng_state_checkpoints=d["rng_state_checkpoints"],
            update_log=d.get("update_log", []),
        )


class OracleFailure(RuntimeError):
    """Raised when the oracle fails mid-run; the checkpoint path is attached."""

    def __init__(self, message: str, checkpoint: Optional[Path]):
        super().__init__(message)
        self.checkpoint = checkpoint


def _rng_state(rng: np.random.Generator) -> dict:
    return json.loads(json.dumps(rng.bit_generator.state))


def save_checkpoint(path: Path, trace: ChainTrace, cfg: SamplerConfig,
                    state: ConceptSet, epoch_done: int, rng: np.random.Generator):
    payload = {
        "format": "ccbm-checkpoint-v1",
        "config": cfg.to_dict(),
        "epoch_done": epoch_done,
        "state": [{"question": c.question} for c in state],
        "rng_state": _rng_state(rng),
        "trace": trace.to_dict(),
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def load_checkpoint(path: Path) -> dict:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != "ccbm-checkpoint-v1":
        raise ValueError(f"{path} is not a recognized checkpoint file")
    payload["trace"] = ChainTrace.from_dict(payload["trace"])
    payload["state"] = ConceptSet(Concept(c["question"]) for c in payload["state"])
    payload["config"] = SamplerConfig.from_dict(payload["config"])
    return payload


_UPDATES = {
    "single_try": ss_mh_update,
    "multi_try": multi_ss_mh_update,
}


def run_gibbs(data: GibbsData, oracle: ConceptOracle, cfg: SamplerConfig,
              init: ConceptSet, checkpoint_path: Optional[Path] = None,
              resume_from: Optional[dict] = None) -> ChainTrace:
    """Run warm-start then sampling epochs, appending one sample per slot update.

    Deterministic given (cfg.seed, data, a deterministic oracle). When
    checkpoint_path is set, a resumable checkpoint is written after every
    epoch and on oracle failure. Pass a payload from load_checkpoint as
    resume_from to continue an interrupted run exactly.
    """
    update = _UPDATES[cfg.mode]
    marginals = _MarginalCache(data, cfg.gamma)
    total_epochs = cfg.warm_start_epochs + cfg.t_epochs

    if resume_from is not None:
        trace = resume_from["trace"]
        state = resume_from["state"]
        start_epoch = resume_from["epoch_done"] + 1
        rng = np.random.default_rng()
        rng.bit_generator.state = resume_from["rng_state"]
    else:
        trace = ChainTrace()
        state = init
        start_epoch = 0
        rng = np.random.default_rng(cfg.seed)

    for epoch in range(start_epoch, total_epochs):
        warm = epoch < cfg.warm_start_epochs
        # snapshot so a mid-epoch oracle failure checkpoints a clean epoch boundary
        snap = (len(trace.samples), len(trace.update_log), trace.acceptance_count,
                trace.proposal_count, state, _rng_state(rng))
        for slot in range(cfg.k):
            subset = draw_subset(data.n, cfg.omega, rng)
            try:
                if warm:
                    result = greedy_warm_start_update(
                        state, slot, subset, data, oracle, cfg, rng, marginals)
                else:
                    result = update(state, slot, subset, data, oracle, cfg, rng, marginals)
            except OracleError as exc:
                if checkpoint_path is not None:
                    trace.samples = trace.samples[:snap[0]]
                    trace.update_log = trace.update_log[:snap[1]]
                    trace.acceptance_count, trace.proposal_count = snap[2], snap[3]
                    rollback = np.random.default_rng()
                    rollback.bit_generator.state = snap[5]
                    save_checkpoint(checkpoint_path, trace, cfg, snap[4], epoch - 1, rollback)
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
        trace.rng_state_checkpoints.append(_rng_state(rng))
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, trace, cfg, state, epoch, rng)

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
