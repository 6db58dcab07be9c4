"""Metropolis-within-Gibbs over concept sets.

Implements the split-sample multiple-try update, whose case M=1 is the
single-try update, the greedy warm start, and the chain driver. Its checkpoint
is one append-only chain log: a header line written when a fresh chain
starts, then one self-contained line per finished epoch, so a run can resume
exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .concepts import Concept, ConceptSet
from .config import check_fields, load, setting
from .model import PosteriorSample, log_marginal_likelihoods, logsumexp, stack_designs
from .oracle import ConceptOracle, OracleError, OracleProposal, append_lines, read_log

# ccbm.sampler.log_marginal_likelihood stays bound: bench/tracing.py wraps it by name
log_marginal_likelihood = log_marginal_likelihoods


@dataclass(frozen=True)
class SamplerConfig:
    k: int = setting(least=1)
    t_epochs: int = setting(least=1)
    m_candidates: int = setting(least=1)
    omega: float = setting(0.5, above=0, below=1)
    gamma: float = setting(1.0, above=0)
    seed: int = setting(0, least=0)
    warm_start_epochs: int = setting(1, least=0)
    keep_last: int = setting(20, least=0)
    mode: str = setting("multi_try", choices=("single_try", "multi_try"))  # single_try: M=1

    def __post_init__(self):
        check_fields(self, "sampler")

    def to_dict(self) -> dict:
        return asdict(self)


class GibbsData:
    """Annotated training data as seen by the chain.

    Keeps one (n, C) table of concept columns with an id -> column index,
    filled by column_fn only for concepts not stored yet; designs(concept_sets)
    lays stored columns out through stack_designs.
    """

    def __init__(self, labels: np.ndarray, column_fn: Callable[[Sequence[Concept]], np.ndarray]):
        self.labels = np.asarray(labels, dtype=float)
        self._column_fn = column_fn
        self._table = np.empty((self.n, 0))
        self._index: dict[str, int] = {}

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def fill(self, concepts: Sequence[Concept]):
        """Store the columns of the given concepts, in one column_fn call.

        A column is checked to lie in [0, 1] here, once, so designs built from
        stored columns need no further check.
        """
        missing = list({c.id: c for c in concepts if c.id not in self._index}.values())
        if missing:
            columns = np.asarray(self._column_fn(missing), dtype=float)
            if not np.all((columns >= 0.0) & (columns <= 1.0)):
                raise ValueError("concept annotation values must lie in [0, 1]")
            # a run fills a few tens of columns, so one copy per fill is cheap
            self._table = np.hstack([self._table, columns])
            self._index.update((c.id, j) for j, c in enumerate(missing, len(self._index)))

    def designs(self, concept_sets: Sequence[Sequence[Concept]],
                rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The (E, n, K+1) stack_designs stack of E concept sets of one size
        K, from their stored columns; any not stored yet are filled first.
        With rows, only those rows of each design."""
        try:
            columns = [[self._index[c.id] for c in concepts] for concepts in concept_sets]
        except KeyError:
            self.fill([c for concepts in concept_sets for c in concepts])
            columns = [[self._index[c.id] for c in concepts] for concepts in concept_sets]
        return stack_designs(self._table, columns, rows)

    # bench/tracing.py wraps phi by name
    def phi(self, concepts: Sequence[Concept]) -> np.ndarray:
        return self.designs([concepts])[0]


def gibbs_data_from_oracle(observations, labels, oracle: ConceptOracle) -> GibbsData:
    """Bind a dataset to an oracle's annotate operation."""
    obs = list(observations)
    return GibbsData(labels, lambda concepts: oracle.annotate(obs, concepts))


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
    log_alpha: float  # of the realized proposal; 0.0 for a chosen incumbent and the warm start
    proposal: OracleProposal
    chosen: Concept
    log_weights: np.ndarray


class _MarginalCache:
    """The one place the chain's Laplace fits are computed and memoized.

    Full-data fits are memoized per ordered concept tuple for the whole run.
    Fits on an update's conditioning rows S are memoized per unordered concept
    set, and reset when the rows change; the first request for a set on S
    fixes the column order it is fitted in. In exact mode that request is the
    pool oracle's enumeration (see ConceptOracle.propose's score).
    """

    def __init__(self, data: GibbsData, gamma: float):
        self.data = data
        self.gamma = gamma
        self._cache: dict[tuple[str, ...], tuple[float, np.ndarray]] = {}
        self._rows: Optional[np.ndarray] = None
        self._subset: dict[frozenset[str], float] = {}

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

    def subset(self, concept_sets: Sequence[Sequence[Concept]],
               rows: np.ndarray) -> np.ndarray:
        """The log marginal of each concept set on the given rows; the sets not
        memoized for these rows yet are fitted in one stacked solve."""
        if self._rows is None or not np.array_equal(rows, self._rows):
            if rows.size and (rows.min() < 0 or rows.max() >= self.data.n):
                raise ValueError("subset indices out of range")
            self._rows, self._subset = np.array(rows), {}
        keys = [frozenset(c.id for c in concepts) for concepts in concept_sets]
        todo = {key: concepts for key, concepts in zip(keys, concept_sets)
                if key not in self._subset}
        if todo:
            values = log_marginal_likelihoods(self.data.designs(list(todo.values()), rows),
                                              self.data.labels[rows], self.gamma)[0]
            self._subset.update(zip(todo, map(float, values)))
        return np.array([self._subset[key] for key in keys])

    def log_partial_bayes(self, concept_sets: Sequence[Sequence[Concept]],
                          subset: Optional[np.ndarray]) -> np.ndarray:
        """log p(y_{S^c} | y_S, c, X) of each concept set, as a difference of
        two Laplace marginals: the full-data fit minus the fit on the subset
        S, both memoized (the subset's first, so bad rows fail before any
        solve). With subset None, S is empty: the marginal of no rows is 0,
        so this is the full-data fit alone, and nothing is fitted on rows."""
        sub = 0.0 if subset is None else self.subset(concept_sets, subset)
        return np.array([value for value, _ in self._full_fits(concept_sets)]) - sub


def _propose(state: ConceptSet, slot: int, subset: np.ndarray, oracle: ConceptOracle,
             m: int, rng: np.random.Generator, marginals: _MarginalCache) -> OracleProposal:
    """The oracle's m tries for the slot; its score fits sets on the subset
    through the chain's memo."""
    return oracle.propose(state.without(slot), state[slot], subset, m, rng,
                          score=lambda concept_sets: marginals.subset(concept_sets, subset))


def _multi_try_weights(state: ConceptSet, slot: int, subset: np.ndarray,
                       proposal: OracleProposal, marginals: _MarginalCache):
    """log w_m = log pi + log q_m of each try, in order, and log w_0 for the
    incumbent, where log pi is the set's log partial Bayes factor on the
    subset rows, or its full-data log marginal when q was not formed on them
    (see OracleProposal.on_subset).

    The incumbent and each distinct candidate are scored once, in one call;
    each try keeps its own entry. A try that repeats a concept of the other
    slots fails in ConceptSet.replace.
    """
    # the incumbent first, so its columns are filled before the candidates'
    scored = [state]
    index = {state[slot].id: 0}  # concept id -> its state's row of scored
    rows = []  # each try's row of scored
    for cand in proposal.candidates:
        if cand.id not in index:
            index[cand.id] = len(scored)
            scored.append(state.replace(slot, cand))
        rows.append(index[cand.id])
    log_pi = marginals.log_partial_bayes([s.concepts for s in scored],
                                         subset if proposal.on_subset else None)
    log_ws = np.array([log_pi[r] + np.log(q) for r, q in zip(rows, proposal.q_weights)])
    states = [scored[r] for r in rows]
    log_w0 = log_pi[0] + np.log(proposal.q_current)
    return log_ws, states, log_w0


def multi_ss_mh_update(state: ConceptSet, slot: int, subset: np.ndarray, data: GibbsData,
                       oracle: ConceptOracle, cfg: SamplerConfig, rng: np.random.Generator,
                       marginals: Optional[_MarginalCache] = None,
                       proposal: Optional[OracleProposal] = None) -> UpdateResult:
    """Multiple-try split-sample Metropolis update, all in log space: the
    update of every sampling epoch.

    Asks the oracle for m_candidates tries, or for one in single_try mode.
    Samples one try with probability proportional to w_m = pi_m * q_m (see
    _multi_try_weights), then accepts with the modified multiple-try ratio
    q_current * sum_m w_m / (q_chosen * sum_{m != chosen, incl. incumbent} w_m),
    which at M=1 is the single-try ratio pi(candidate) / pi(current). A chosen
    incumbent leaves the state as it is and counts as accepted, with no
    acceptance draw.
    """
    marginals = marginals or _MarginalCache(data, cfg.gamma)
    if proposal is None:
        tries = 1 if cfg.mode == "single_try" else cfg.m_candidates
        proposal = _propose(state, slot, subset, oracle, tries, rng, marginals)
    log_ws, states, log_w0 = _multi_try_weights(state, slot, subset, proposal, marginals)
    # Gumbel-max draw of the candidate index, numerically stable in log space
    gumbels = -np.log(-np.log(rng.random(len(log_ws))))
    pick = int(np.argmax(log_ws + gumbels))
    chosen = proposal.candidates[pick]
    cand_state = states[pick]
    if cand_state is state:
        return UpdateResult(state, True, 0.0, proposal, chosen, log_ws)
    log_alpha = multi_try_log_alpha(proposal, log_ws, log_w0, pick)
    accepted = np.log(rng.random()) < log_alpha
    return UpdateResult(cand_state if accepted else state, bool(accepted),
                        log_alpha, proposal, chosen, log_ws)


def multi_try_log_alpha(proposal: OracleProposal, log_ws: np.ndarray, log_w0: float,
                        pick: int) -> float:
    """The log acceptance probability of try pick (see multi_ss_mh_update)."""
    rest = np.concatenate([log_ws[:pick], log_ws[pick + 1:], [log_w0]])
    return float(min(0.0, (np.log(proposal.q_current) + logsumexp(log_ws)
                           - np.log(proposal.q_weights[pick]) - logsumexp(rest))))


def greedy_warm_start_update(state: ConceptSet, slot: int, subset: np.ndarray,
                             data: GibbsData, oracle: ConceptOracle, cfg: SamplerConfig,
                             rng: np.random.Generator,
                             marginals: Optional[_MarginalCache] = None,
                             proposal: Optional[OracleProposal] = None) -> UpdateResult:
    """Install the argmax-weight concept: incumbent on ties, else lowest index."""
    marginals = marginals or _MarginalCache(data, cfg.gamma)
    if proposal is None:
        proposal = _propose(state, slot, subset, oracle, cfg.m_candidates, rng, marginals)
    log_ws, states, log_w0 = _multi_try_weights(state, slot, subset, proposal, marginals)
    best = int(np.argmax(log_ws))  # argmax takes the first maximizer
    if log_w0 >= log_ws[best] or states[best] is state:
        return UpdateResult(state, False, 0.0, proposal, state[slot], log_ws)
    return UpdateResult(states[best], True, 0.0, proposal, proposal.candidates[best], log_ws)


@dataclass
class ChainTrace:
    samples: list[PosteriorSample] = field(default_factory=list)
    update_log: list[dict] = field(default_factory=list)

    def posterior_samples(self) -> list[PosteriorSample]:
        return [s for s in self.samples if not s.burn_in]

    @property
    def proposal_count(self) -> int:
        return sum(s.phase == "sample" for s in self.samples)

    @property
    def acceptance_count(self) -> int:
        return sum(s.phase == "sample" and s.accepted for s in self.samples)

    @property
    def acceptance_rate(self) -> float:
        return self.acceptance_count / self.proposal_count if self.proposal_count else 0.0


class OracleFailure(RuntimeError):
    """Raised when the oracle fails mid-run; the checkpoint path is attached."""

    def __init__(self, message: str, checkpoint: Optional[Path]):
        super().__init__(message)
        self.checkpoint = checkpoint


CHECKPOINT_FORMAT = "ccbm-checkpoint-v4"
# every chain-log line after the header: one finished epoch and the RNG state after it
_EPOCH_FIELDS = ("epoch", "samples", "update_log", "rng_state")


# bench/tracing.py wraps save_checkpoint by name and stats its first argument
def save_checkpoint(path: Path, record: dict, start: bool = False):
    """Commit one line of the chain log at path.

    With start, record is the header of a fresh chain, written with one plain
    write that replaces whatever the file held. Otherwise record is one
    finished epoch, appended as one line.
    """
    line = json.dumps(record) + "\n"
    if start:
        path.write_text(line)
    else:
        append_lines(path, [line])


def _header(record) -> dict:
    """The sampler config, start state and start RNG state of a header line."""
    fmt = record.get("format") if isinstance(record, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"format {fmt!r} is not {CHECKPOINT_FORMAT}; start a fresh run")
    return {"config": load(SamplerConfig, record["config"], "sampler"),
            "state": ConceptSet(Concept(c["question"]) for c in record["state"]),
            "rng_state": record["rng_state"]}


def load_checkpoint(path: Path) -> dict:
    """Read a chain log, to resume after its last epoch, or from the header's
    start when it holds none. The resume state is the last sample's concept set.

    The log is read by read_log, so a torn last line is dropped and cut off.
    Raises ValueError naming path:line when the first line is not a header of
    this format, or a later line is corrupt or breaks the run of epochs 0, 1,
    2, ... of K samples each; and naming path when it holds no header. A log
    that cannot be read raises OSError.
    """
    header: dict = {}
    epochs: list[dict] = []

    def apply(records):
        # a call that raises keeps nothing (see apply_block)
        start = header or _header(records[0])
        k = start["config"].k
        # every field is read here, so read_log names a line that lacks one
        parsed = [{key: e[key] for key in _EPOCH_FIELDS}
                  for e in (records if header else records[1:])]
        for i, e in enumerate(parsed, len(epochs)):
            e["samples"] = [PosteriorSample.from_dict(s) for s in e["samples"]]
            if e["epoch"] != i or len(e["samples"]) != k:
                raise ValueError(f"epoch {e['epoch']} with {len(e['samples'])} samples "
                                 f"where epoch {i} with {k} belongs")
        header.update(start)
        epochs.extend(parsed)

    read_log(path, apply, "checkpoint line")
    if not header:
        raise ValueError(f"{path} holds no checkpoint header; start a fresh run")
    samples = [s for e in epochs for s in e["samples"]]
    last = epochs[-1] if epochs else {"epoch": -1, "rng_state": header["rng_state"]}
    return {"config": header["config"], "epoch_done": last["epoch"],
            "state": samples[-1].concept_set if samples else header["state"],
            "rng_state": last["rng_state"],
            "trace": ChainTrace(samples, [line for e in epochs for line in e["update_log"]])}


def run_gibbs(data: GibbsData, oracle: ConceptOracle, cfg: SamplerConfig,
              init: ConceptSet, checkpoint_path: Optional[Path] = None,
              resume_from: Optional[dict] = None) -> ChainTrace:
    """Run warm-start then sampling epochs, appending one sample per slot update.

    Deterministic given (cfg.seed, data, a deterministic oracle). When
    checkpoint_path is set, a fresh chain writes the chain log's header there
    and every finished epoch appends one line (see save_checkpoint); an
    oracle failure leaves the last finished epoch as the resume point. Pass a
    payload from load_checkpoint as resume_from to continue an interrupted
    run exactly.
    """
    marginals = _MarginalCache(data, cfg.gamma)
    total_epochs = cfg.warm_start_epochs + cfg.t_epochs
    # a sample's burn_in is fixed when it is made: the warm-start states before
    # the last keep_last of its K * warm_start_epochs
    kept_from = cfg.warm_start_epochs * cfg.k - cfg.keep_last

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
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, {
                "format": CHECKPOINT_FORMAT, "config": cfg.to_dict(),
                "state": [{"question": c.question} for c in state],
                "rng_state": rng.bit_generator.state},
                start=True)

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
                    result = multi_ss_mh_update(state, slot, subset, data, oracle, cfg, rng,
                                                marginals)
            except OracleError as exc:
                raise OracleFailure(f"oracle failed at epoch {epoch} slot {slot}: {exc}",
                                    checkpoint_path) from exc
            moved = result.state is not state
            state = result.state
            lml, theta = marginals.full(state.concepts)
            trace.samples.append(PosteriorSample(
                concept_set=state, theta=theta, log_marginal_full=lml,
                epoch=epoch, slot=slot, accepted=result.accepted,
                burn_in=warm and epoch * cfg.k + slot < kept_from,
                phase="warm_start" if warm else "sample"))
            trace.update_log.append({
                "epoch": epoch, "slot": slot, "subset_size": int(len(subset)),
                "n_candidates": len(result.proposal.candidates),
                "log_alpha": float(result.log_alpha),
                "accepted": result.accepted,
                "outcome": "move" if moved else "stay" if result.accepted or warm else "reject",
                "phase": "warm_start" if warm else "sample",
            })
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, {
                "epoch": epoch,
                "samples": [s.to_dict() for s in trace.samples[first_sample:]],
                "update_log": trace.update_log[first_line:],
                "rng_state": rng.bit_generator.state})
    return trace
