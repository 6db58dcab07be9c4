"""Concept-oracle contract, annotation cache, and the deterministic pool oracle.

The oracle is the pluggable component that extracts keyphrases, proposes
candidate concepts with weights, annotates concept values, and initializes a
concept set. Production uses an LLM (see llm.py); tests and the enumeration
harness use the finite-pool oracle defined here, which is a pure function of
(inputs, pool definition, RNG).
"""

from __future__ import annotations

import json
import re
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .concepts import Concept, ConceptSet
from .model import log_marginal_likelihoods

# ccbm.oracle.log_marginal_likelihood stays bound: bench/tracing.py wraps it by name
log_marginal_likelihood = log_marginal_likelihoods


class OracleError(RuntimeError):
    pass


class ProposalError(OracleError):
    pass


class InitializationError(OracleError):
    pass


class AnnotationError(OracleError):
    pass


@dataclass(frozen=True)
class Observation:
    """One data point: stable id, opaque payload, optional binary label."""

    id: str
    payload: str
    label: Optional[int] = None


@dataclass(frozen=True)
class KeyphraseBag:
    observation_id: str
    phrases: frozenset[str]


@dataclass
class OracleProposal:
    """M tries for one Gibbs slot, with the proposal probability q of each.

    A try may repeat a concept: each is one draw from q and keeps its own
    weight. q_current is q of the incumbent. Every q is finite and positive,
    as the multi-try ratio needs; this is checked here and nowhere else.
    on_subset says whether q was formed on the update's rows S, as the
    partial posterior p(c | c_-k, y_S) is, and as an LLM shown S is assumed
    to draw from. When it was not, the sampler weighs the tries by their
    full-data marginals: the split-sample rule with S empty.
    """

    candidates: list[Concept]
    q_weights: np.ndarray
    q_current: float
    on_subset: bool = True

    def __post_init__(self):
        self.q_weights = np.asarray(self.q_weights, dtype=float)
        if not self.candidates:
            raise ValueError("proposal must contain at least one candidate")
        if len(self.candidates) != len(self.q_weights):
            raise ValueError("weights must align with candidates")
        if not np.all(np.isfinite(self.q_weights) & (self.q_weights > 0)):
            raise ValueError("proposal weights must be finite and positive")
        if not (np.isfinite(self.q_current) and self.q_current > 0):
            raise ValueError("q_current must be finite and positive")

    @classmethod
    def draw(cls, support: Sequence[Concept], weights: np.ndarray, incumbent: int,
             m: int, rng: np.random.Generator, on_subset: bool) -> "OracleProposal":
        """m i.i.d. tries, by the one rng.choice of both oracles, from q over
        support, q proportional to weights (finite, nonnegative, not all 0)
        and q_current that of support[incumbent]."""
        q = weights / weights.max()
        q /= q.sum()
        draws = rng.choice(len(support), size=m, p=q)
        return cls(candidates=[support[i] for i in draws], q_weights=q[draws],
                   q_current=float(q[incumbent]), on_subset=on_subset)


_WORD_RE = re.compile(r"[^\w\s]")


def normalize_phrase(phrase: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace, cap at two tokens."""
    cleaned = _WORD_RE.sub(" ", phrase.lower())
    tokens = cleaned.split()
    return " ".join(tokens[:2])


LOG_BLOCK_BYTES = 1 << 18  # complete lines parsed per json.loads when a log is read


def read_log(path: Path, apply: Callable[[list], None], what: str):
    """Pass the records of an append-only NDJSON log to apply, one block of
    complete lines at a time, then cut off an unterminated last line.

    Blocks are about LOG_BLOCK_BYTES, parsed by apply_block. An unterminated
    last line, left by a torn append, is dropped and cut off, so the next
    append starts on a fresh line.
    """
    complete, lineno, tail = 0, 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(LOG_BLOCK_BYTES):
            block = tail + chunk
            end = block.rfind(b"\n") + 1
            block, tail = block[:end], block[end:]
            if block:
                apply_block(path, block, lineno, apply, what)
                lineno += block.count(b"\n")
                complete += end
    if tail:
        with open(path, "r+b") as fh:
            fh.truncate(complete)


def apply_block(path: Path, block: bytes, lines_before: int,
                apply: Callable[[list], None], what: str):
    """Pass the records of block (complete NDJSON lines of path, after its
    first lines_before lines) to apply, parsed by one json.loads of the lines
    joined into an array. If that fails, or apply rejects a record (KeyError,
    TypeError, ValueError), the lines are passed again one at a time, so apply
    should keep nothing from a call that raises; blank lines are skipped and
    the first corrupt one raises ValueError naming path:line."""
    try:
        text = block.decode("utf-8")
        records = json.loads("[" + text[:-1].replace("\n", ",") + "]")
        if len(records) == text.count("\n"):
            apply(records)
            return
    except (KeyError, TypeError, ValueError):
        pass
    for lineno, line in enumerate(block.split(b"\n")[:-1], lines_before + 1):
        if not line.strip():
            continue
        try:
            apply([json.loads(line)])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: corrupt {what}: {exc}") from exc


def append_lines(path: Path, lines: Sequence[str]):
    """Append newline-terminated lines to a log in one write."""
    with open(path, "a") as fh:
        fh.write("".join(lines))


class AnnotationCache:
    """Append-only (observation, concept) -> value store.

    Backed by a newline-delimited JSON log when given a path; the log is
    compacted on load (last record wins), read in blocks by read_log, which
    drops a torn last line. Each id is held as one string object however many
    records name it. Supports concurrent readers with serialized appends.
    """

    def __init__(self, path: Optional[Path] = None):
        self.path = Path(path) if path is not None else None
        self._store: dict[tuple[str, str], float] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.clamp_events = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self):
        ids: dict[str, str] = {}
        share = ids.setdefault
        store = self._store

        def apply(records):
            for rec in records:
                oid, cid = rec["observation_id"], rec["concept_id"]
                store[share(oid, oid), share(cid, cid)] = rec["value"]

        read_log(self.path, apply, "annotation record")

    def get_many(self, pairs: Sequence[tuple[str, str]]) -> list[Optional[float]]:
        """The cached value of each pair, None where there is none."""
        values = list(map(self._store.get, pairs))
        missing = values.count(None)
        self.hits += len(values) - missing
        self.misses += missing
        return values

    def put_many(self, pairs: Sequence[tuple[str, str]], values: Sequence[float],
                 source: str):
        """Store each pair's value, clamped to [0, 1], and append one log line
        per pair: the line json.dumps writes for the record, built from a
        template, with each id quoted once and one timestamp per call."""
        with self._lock:
            clamped = []
            for value in map(float, values):
                if not 0.0 <= value <= 1.0:  # NaN included, so every line reads back
                    value = min(1.0, max(0.0, value))
                    self.clamp_events += 1
                clamped.append(value)
            self._store.update(zip(pairs, clamped))
            if self.path is None or not clamped:
                return
            quoted = {i: json.dumps(i) for i in set(chain.from_iterable(pairs))}
            tail = f', "source": {json.dumps(source)}, "timestamp": {time.time()!r}}}\n'
            append_lines(self.path, [
                f'{{"observation_id": {quoted[oid]}, "concept_id": {quoted[cid]}, '
                f'"value": {value!r}{tail}'
                for (oid, cid), value in zip(pairs, clamped)])

    def __len__(self) -> int:
        return len(self._store)


# concept sets -> their Laplace log marginals on an update's conditioning rows
Scorer = Callable[[Sequence[Sequence[Concept]]], np.ndarray]


class ConceptOracle(ABC):
    """Operations the sampler and pipeline require from any oracle."""

    @abstractmethod
    def extract_keyphrases(self, observations: Sequence[Observation]) -> list[KeyphraseBag]:
        ...

    @abstractmethod
    def initialize_concepts(self, phrases: Sequence[str], k: int) -> ConceptSet:
        """k concepts to start from, given the keyphrase summary: phrases, strongest first."""

    @abstractmethod
    def propose(self, context: Sequence[Concept], incumbent: Concept,
                subset: np.ndarray, m: int, rng: np.random.Generator,
                score: Optional[Scorer] = None) -> OracleProposal:
        """m tries for the slot held by incumbent, given the other slots'
        concepts (context) and the conditioning rows subset; see
        OracleProposal.

        score, when given, maps concept sets to their Laplace log marginals on
        the subset rows, fitted and memoized by the chain; an oracle that
        weighs candidates by the data asks it rather than fitting them."""

    @abstractmethod
    def annotate(self, observations: Sequence[Observation],
                 concepts: Sequence[Concept]) -> np.ndarray:
        """The (n, C) table of every concept's value for every observation."""


def cached_table(cache: AnnotationCache, observations: Sequence[Observation],
                 concepts: Sequence[Concept]) -> tuple[np.ndarray, np.ndarray]:
    """The (n, C) table of cached values, NaN where none is cached, and the
    mask of those uncached cells, from one get_many call."""
    cids = [c.id for c in concepts]
    values = cache.get_many([(obs.id, cid) for obs in observations for cid in cids])
    table = np.array(values, dtype=float).reshape(len(observations), len(cids))
    return table, np.isnan(table)


def fresh_pairs(observations: Sequence[Observation], concepts: Sequence[Concept],
                rows: Sequence[int], cols: Sequence[int]) -> list[tuple[str, str]]:
    """The (observation id, concept id) of each of the given table cells."""
    return [(observations[r].id, concepts[c].id) for r, c in zip(rows, cols)]


@dataclass(frozen=True)
class PoolConcept:
    """A pool entry: the concept question plus the keyword that activates it."""

    concept: Concept
    keyword: str

    def __post_init__(self):
        if not isinstance(self.keyword, str):
            raise TypeError(f"the keyword of {self.concept.question!r} must be a string, "
                            f"not {type(self.keyword).__name__}")


def keyword_pattern(keyword: str) -> re.Pattern:
    """Matches the keyword as a whole word in lowercased text."""
    return re.compile(r"\b" + re.escape(keyword.lower()) + r"\b")


def keyword_value(payload: str, keyword: str) -> float:
    """Binary extraction: 1.0 iff the keyword occurs as a whole word."""
    return 1.0 if keyword_pattern(keyword).search(payload.lower()) else 0.0


_WORD_RUN = re.compile(r"\w+")


class PoolOracle(ConceptOracle):
    """Deterministic oracle over a finite concept pool.

    Annotation values come either from a precomputed matrix aligned with the
    training observations or from whole-word keyword matching on payload text,
    which builds the matrix when none is given and scores observations outside
    the training set (e.g. at prediction time). A keyword whose lowercase form
    is one run of word characters is looked up in the set of the note's
    maximal word runs, found by one scan per note; any other keyword (spaces,
    punctuation, the empty string) is searched for by its own pattern. Both
    give keyword_value's values.

    propose draws its M tries i.i.d. from q over the eligible concepts (those
    outside the other slots). weight_mode "exact" takes q to be the partial
    posterior of the conditioning rows, enumerated by scoring every eligible
    concept through the score the sampler passes to propose; "uniform" takes
    q uniform, which does not depend on the rows.
    """

    def __init__(self, pool: Sequence[PoolConcept], observations: Sequence[Observation],
                 annotation_matrix: Optional[np.ndarray] = None,
                 weight_mode: str = "exact",
                 cache: Optional[AnnotationCache] = None):
        if weight_mode not in ("exact", "uniform"):
            raise ValueError(f"weight_mode must be 'exact' or 'uniform', got {weight_mode!r}")
        ids = [pc.concept.id for pc in pool]
        if len(set(ids)) != len(ids):
            raise ValueError("pool contains duplicate concepts")
        self.pool = list(pool)
        self.observations = list(observations)
        self.weight_mode = weight_mode
        self.cache = cache
        self._by_id = {pc.concept.id: i for i, pc in enumerate(self.pool)}
        self._obs_row = {obs.id: i for i, obs in enumerate(self.observations)}
        # a word-run keyword's lowercase form, any other keyword's own pattern:
        # one alternation of patterns would miss a keyword that another contains
        self._matchers = [pc.keyword.lower() if _WORD_RUN.fullmatch(pc.keyword.lower())
                          else keyword_pattern(pc.keyword) for pc in self.pool]
        self._matrix: Optional[np.ndarray] = None
        if annotation_matrix is not None:
            matrix = np.asarray(annotation_matrix, dtype=float)
            if matrix.shape != (len(self.observations), len(self.pool)):
                raise ValueError("annotation matrix shape must be (n_obs, pool size)")
            if not np.all((matrix >= 0.0) & (matrix <= 1.0)):
                raise ValueError("concept annotation values must lie in [0, 1]")
            self._matrix = matrix
        self.annotation_pairs = 0  # extraction "calls": cache misses filled by this oracle

    @property
    def matrix(self) -> np.ndarray:
        """The (n_obs, pool size) values of the training observations: the
        given matrix, or else keyword matches, computed on first use."""
        if self._matrix is None:
            self._matrix = np.array([
                self._keyword_values(obs.payload, range(len(self.pool)))
                for obs in self.observations
            ], dtype=float).reshape(len(self.observations), len(self.pool))
        return self._matrix

    # -- extraction -------------------------------------------------------

    def _keyword_values(self, payload: str, pool_indices: Sequence[int]) -> list[float]:
        """1.0 where the pool keyword occurs in the text as a whole word."""
        text = payload.lower()
        words = set(_WORD_RUN.findall(text))
        return [1.0 if (m in words if isinstance(m, str) else m.search(text)) else 0.0
                for m in map(self._matchers.__getitem__, pool_indices)]

    def _table(self, observations: Sequence[Observation], concepts: Sequence[Concept],
               cols: Sequence[int]) -> np.ndarray:
        """The (n, len(cols)) values of concepts[cols]: a training row's from
        the matrix, any other row's from keyword matches on its text. A
        concept outside the pool raises AnnotationError."""
        pool_index = [self._by_id.get(concepts[j].id) for j in cols]
        if None in pool_index:
            raise AnnotationError(f"concept {concepts[cols[pool_index.index(None)]].question!r}"
                                  " is not in the pool")
        train = [self._obs_row.get(obs.id) for obs in observations]
        other = [r for r, row in enumerate(train) if row is None]
        table = np.empty((len(observations), len(pool_index)))
        if len(other) < len(train):
            on_train = [r for r, row in enumerate(train) if row is not None]
            table[on_train] = self.matrix[np.ix_([train[r] for r in on_train], pool_index)]
        if other:
            table[other] = [self._keyword_values(observations[r].payload, pool_index)
                            for r in other]
        return table

    def annotate(self, observations: Sequence[Observation],
                 concepts: Sequence[Concept]) -> np.ndarray:
        """Every value from _table; with a cache, only the cells it lacks,
        which are then cached."""
        if self.cache is None:
            table = self._table(observations, concepts, range(len(concepts)))
            self.annotation_pairs += table.size
            return table
        table, missing = cached_table(self.cache, observations, concepts)
        rows, cols = np.nonzero(missing)
        if not rows.size:
            return table
        todo, lacking = np.unique(rows), np.unique(cols)
        block = np.ix_(todo, lacking)
        table[block] = np.where(missing[block], self._table(
            [observations[r] for r in todo.tolist()], concepts, lacking.tolist()), table[block])
        self.cache.put_many(fresh_pairs(observations, concepts, rows.tolist(), cols.tolist()),
                            table[rows, cols].tolist(), "pool")
        self.annotation_pairs += len(rows)
        return table

    def extract_keyphrases(self, observations: Sequence[Observation]) -> list[KeyphraseBag]:
        keys = [normalize_phrase(pc.keyword) for pc in self.pool]
        table = self._table(observations, [pc.concept for pc in self.pool], range(len(keys)))
        return [KeyphraseBag(obs.id, frozenset(key for key, v in zip(keys, row) if v >= 0.5))
                for obs, row in zip(observations, table.tolist())]

    # -- initialization ---------------------------------------------------

    def initialize_concepts(self, phrases: Sequence[str], k: int) -> ConceptSet:
        """Top-k pool concepts by absolute correlation with summary phrase
        indicators over the training rows.

        Scores are rounded to 1e-9 and ties go to pool order, so rounding noise
        in the correlations cannot pick among concepts that score alike.
        """
        if not phrases:
            raise InitializationError("keyphrase summary is empty")
        if len(self.pool) < k:
            raise InitializationError(f"pool has fewer than {k} concepts")
        # a training row's bag holds the phrase of every keyword at >= 0.5 in
        # its matrix row (see extract_keyphrases)
        active = self.matrix >= 0.5
        keys = np.array([normalize_phrase(pc.keyword) for pc in self.pool])
        indicator = np.column_stack([active[:, keys == phrase].any(axis=1)
                                     for phrase in phrases]).astype(float)
        # |corr| of every (pool column, indicator) pair as one product of
        # centered, unit-norm columns; a constant column scores 0
        scores = np.zeros(len(self.pool))
        x = self.matrix - self.matrix.mean(axis=0)
        z = indicator - indicator.mean(axis=0)
        live_x = np.ptp(self.matrix, axis=0) > 0
        live_z = np.ptp(indicator, axis=0) > 0
        if live_x.any() and live_z.any():
            x, z = x[:, live_x], z[:, live_z]
            corr = (x / np.linalg.norm(x, axis=0)).T @ (z / np.linalg.norm(z, axis=0))
            scores[live_x] = np.abs(corr).max(axis=1)
        order = np.argsort(-np.round(scores, 9), kind="stable")[:k]
        return ConceptSet(self.pool[int(j)].concept for j in order)

    # -- proposals --------------------------------------------------------

    def _eligible(self, context: Sequence[Concept]) -> list[int]:
        """Pool indices of the concepts outside the context."""
        context_ids = {c.id for c in context}
        eligible = [i for i, pc in enumerate(self.pool) if pc.concept.id not in context_ids]
        if not eligible:
            raise ProposalError("no pool concepts outside the conditioning set")
        return eligible

    def partial_posterior_weights(self, context: Sequence[Concept], score: Scorer
                                  ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Enumerated p(C_k | c_-k, y_rows, X) over eligible pool indices, up
        to a constant: weights of largest value 1, and the log marginal on the
        rows that each weight is proportional to: score's value of the set of
        the context's concepts, then the eligible concept."""
        eligible = self._eligible(context)
        log_marginals = score([[*context, self.pool[i].concept] for i in eligible])
        return eligible, np.exp(log_marginals - log_marginals.max()), log_marginals

    def propose(self, context: Sequence[Concept], incumbent: Concept,
                subset: np.ndarray, m: int, rng: np.random.Generator,
                score: Optional[Scorer] = None) -> OracleProposal:
        """m i.i.d. draws from q: uniform, or in exact mode the partial
        posterior enumerated from score, which exact mode requires. The
        incumbent must be a pool concept."""
        inc_idx = self._by_id.get(incumbent.id)
        if inc_idx is None:
            raise ProposalError(f"concept {incumbent.question!r} is not in the pool")
        if self.weight_mode == "uniform":
            eligible = self._eligible(context)
            weights = np.ones(len(eligible))
        elif score is None:
            raise ProposalError("the exact pool oracle needs a score to propose")
        else:
            eligible, weights, _ = self.partial_posterior_weights(context, score)
        return OracleProposal.draw([self.pool[i].concept for i in eligible], weights,
                                   eligible.index(inc_idx), m, rng,
                                   on_subset=self.weight_mode == "exact")
