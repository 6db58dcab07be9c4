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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .concepts import Concept, ConceptSet
from .model import AnnotationMatrix, ModelConfig, log_marginal_likelihood


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


@dataclass(frozen=True)
class AnnotationRecord:
    observation_id: str
    concept_id: str
    value: float
    source: str  # llm | pool | human-override


@dataclass(frozen=True)
class OracleMode:
    """Which portion of the data informs proposals.

    partial_posterior is the default; prior_only and full_posterior exist for
    ablation and reproduce degenerate update behaviour.
    """

    mode: str = "partial_posterior"

    MODES = ("prior_only", "partial_posterior", "full_posterior")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {self.mode!r}")


@dataclass
class OracleProposal:
    """M candidate concepts with proposal weights for one Gibbs slot."""

    candidates: list[Concept]
    q_weights: np.ndarray
    q_current: float

    def __post_init__(self):
        self.q_weights = np.asarray(self.q_weights, dtype=float)
        if not self.candidates:
            raise ValueError("proposal must contain at least one candidate")
        if len(self.candidates) != len(self.q_weights):
            raise ValueError("weights must align with candidates")
        if not np.all(np.isfinite(self.q_weights)) or np.any(self.q_weights < 0):
            raise ValueError("proposal weights must be finite and nonnegative")
        if not (np.isfinite(self.q_current) and self.q_current >= 0):
            raise ValueError("q_current must be finite and nonnegative")
        ids = [c.id for c in self.candidates]
        if len(set(ids)) != len(ids):
            raise ValueError("candidates must be distinct")


_WORD_RE = re.compile(r"[^\w\s]")


def normalize_phrase(phrase: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace, cap at two tokens."""
    cleaned = _WORD_RE.sub(" ", phrase.lower())
    tokens = cleaned.split()
    return " ".join(tokens[:2])


class AnnotationCache:
    """Append-only (observation, concept) -> value store.

    Backed by a newline-delimited JSON log when given a path; the log is
    compacted on load (last record wins) and survives crashes mid-run: an
    unterminated last line, left by a torn append, is dropped and cut off.
    Supports concurrent readers with serialized appends.
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
        raw = self.path.read_bytes()
        complete = raw.rfind(b"\n") + 1
        for lineno, line in enumerate(raw[:complete].decode("utf-8").split("\n"), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                self._store[(rec["observation_id"], rec["concept_id"])] = rec["value"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{self.path}:{lineno}: corrupt annotation record: {exc}") from exc
        if complete < len(raw):
            # a crash mid-append left an unterminated last line: drop it, so the
            # next append starts on a fresh line
            with open(self.path, "r+b") as fh:
                fh.truncate(complete)

    def get_many(self, pairs: Sequence[tuple[str, str]]) -> dict[tuple[str, str], float]:
        found = {}
        for pair in pairs:
            if pair in self._store:
                found[pair] = self._store[pair]
        self.hits += len(found)
        self.misses += len(pairs) - len(found)
        return found

    def put_many(self, records: Sequence[AnnotationRecord]):
        with self._lock:
            lines = []
            for rec in records:
                value = rec.value
                if value < 0.0 or value > 1.0:
                    value = min(1.0, max(0.0, value))
                    self.clamp_events += 1
                self._store[(rec.observation_id, rec.concept_id)] = value
                lines.append(json.dumps({
                    "observation_id": rec.observation_id,
                    "concept_id": rec.concept_id,
                    "value": value,
                    "source": rec.source,
                    "timestamp": time.time(),
                }))
            if self.path is not None and lines:
                with open(self.path, "a") as fh:
                    fh.write("\n".join(lines) + "\n")

    def __len__(self) -> int:
        return len(self._store)


class ConceptOracle(ABC):
    """Operations the sampler and pipeline require from any oracle."""

    @abstractmethod
    def extract_keyphrases(self, observations: Sequence[Observation]) -> list[KeyphraseBag]:
        ...

    @abstractmethod
    def initialize_concepts(self, keyphrase_summary, k: int) -> ConceptSet:
        ...

    @abstractmethod
    def propose(self, context: Sequence[Concept], incumbent: Concept,
                subset: np.ndarray, m: int, rng: np.random.Generator) -> OracleProposal:
        ...

    @abstractmethod
    def annotate(self, observations: Sequence[Observation],
                 concepts: Sequence[Concept]) -> list[AnnotationRecord]:
        ...


@dataclass(frozen=True)
class PoolConcept:
    """A pool entry: the concept question plus the keyword that activates it."""

    concept: Concept
    keyword: str


def keyword_value(payload: str, keyword: str) -> float:
    """Binary extraction: 1.0 iff the keyword occurs as a whole word."""
    pattern = r"\b" + re.escape(keyword.lower()) + r"\b"
    return 1.0 if re.search(pattern, payload.lower()) else 0.0


class PoolOracle(ConceptOracle):
    """Deterministic oracle over a finite concept pool.

    Annotation values come either from a precomputed matrix aligned with the
    training observations or from whole-word keyword matching on payload text
    (used for observations outside the training set, e.g. at prediction time).

    weight_mode "exact" scores every eligible pool concept by the Laplace
    marginal of the conditioning rows and reports the enumerated conditional
    partial posterior as proposal weights; "uniform" samples candidates
    uniformly without replacement with equal weights.
    """

    def __init__(self, pool: Sequence[PoolConcept], observations: Sequence[Observation],
                 labels: np.ndarray, gamma: float,
                 annotation_matrix: Optional[np.ndarray] = None,
                 weight_mode: str = "exact",
                 mode: OracleMode = OracleMode(),
                 cache: Optional[AnnotationCache] = None):
        if weight_mode not in ("exact", "uniform"):
            raise ValueError(f"weight_mode must be 'exact' or 'uniform', got {weight_mode!r}")
        ids = [pc.concept.id for pc in pool]
        if len(set(ids)) != len(ids):
            raise ValueError("pool contains duplicate concepts")
        self.pool = list(pool)
        self.observations = list(observations)
        self.labels = np.asarray(labels, dtype=float)
        self.gamma = gamma
        self.weight_mode = weight_mode
        self.mode = mode
        self.cache = cache if cache is not None else AnnotationCache()
        self._by_id = {pc.concept.id: i for i, pc in enumerate(self.pool)}
        self._obs_row = {obs.id: i for i, obs in enumerate(self.observations)}
        if annotation_matrix is not None:
            matrix = np.asarray(annotation_matrix, dtype=float)
            if matrix.shape != (len(self.observations), len(self.pool)):
                raise ValueError("annotation matrix shape must be (n_obs, pool size)")
            self._matrix = matrix
        else:
            self._matrix = np.array([
                [keyword_value(obs.payload, pc.keyword) for pc in self.pool]
                for obs in self.observations
            ], dtype=float)
        self.annotation_pairs = 0  # extraction "calls": cache misses filled by this oracle

    # -- extraction -------------------------------------------------------

    def _value(self, obs: Observation, pool_index: int) -> float:
        row = self._obs_row.get(obs.id)
        if row is not None:
            return float(self._matrix[row, pool_index])
        return keyword_value(obs.payload, self.pool[pool_index].keyword)

    def annotate(self, observations: Sequence[Observation],
                 concepts: Sequence[Concept]) -> list[AnnotationRecord]:
        pairs = [(obs.id, c.id) for obs in observations for c in concepts]
        cached = self.cache.get_many(pairs)
        fresh = []
        for obs in observations:
            for c in concepts:
                if (obs.id, c.id) in cached:
                    continue
                idx = self._by_id.get(c.id)
                if idx is None:
                    raise AnnotationError(f"concept {c.question!r} is not in the pool")
                fresh.append(AnnotationRecord(obs.id, c.id, self._value(obs, idx), "pool"))
        self.cache.put_many(fresh)
        self.annotation_pairs += len(fresh)
        values = dict(cached)
        values.update({(r.observation_id, r.concept_id): r.value for r in fresh})
        return [AnnotationRecord(obs.id, c.id, values[(obs.id, c.id)], "pool")
                for obs in observations for c in concepts]

    def extract_keyphrases(self, observations: Sequence[Observation]) -> list[KeyphraseBag]:
        bags = []
        for obs in observations:
            active = {normalize_phrase(pc.keyword)
                      for i, pc in enumerate(self.pool) if self._value(obs, i) >= 0.5}
            bags.append(KeyphraseBag(obs.id, frozenset(active)))
        return bags

    # -- initialization ---------------------------------------------------

    def initialize_concepts(self, keyphrase_summary, k: int) -> ConceptSet:
        """Top-k pool concepts by absolute correlation with summary phrase indicators."""
        phrases = [entry[0] for entry in getattr(keyphrase_summary, "entries", keyphrase_summary)]
        if not phrases:
            raise InitializationError("keyphrase summary is empty")
        bags = self.extract_keyphrases(self.observations)
        indicator = np.array([
            [1.0 if phrase in bag.phrases else 0.0 for phrase in phrases]
            for bag in bags
        ])
        scores = np.zeros(len(self.pool))
        for j in range(len(self.pool)):
            col = self._matrix[:, j]
            if np.std(col) == 0:
                continue
            best = 0.0
            for p in range(indicator.shape[1]):
                ind = indicator[:, p]
                if np.std(ind) == 0:
                    continue
                best = max(best, abs(float(np.corrcoef(col, ind)[0, 1])))
            scores[j] = best
        order = np.argsort(-scores, kind="stable")[:k]
        if len(order) < k:
            raise InitializationError(f"pool has fewer than {k} concepts")
        return ConceptSet(self.pool[int(j)].concept for j in sorted(order, key=lambda j: (-scores[j], j)))

    # -- proposals --------------------------------------------------------

    def _conditioning_rows(self, subset: np.ndarray) -> np.ndarray:
        if self.mode.mode == "partial_posterior":
            return np.asarray(subset, dtype=int)
        if self.mode.mode == "full_posterior":
            return np.arange(len(self.observations))
        return np.array([], dtype=int)  # prior_only

    def partial_posterior_weights(self, context: Sequence[Concept],
                                  rows: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Enumerated p(C_k | c_-k, y_rows, X) over eligible pool indices."""
        context_ids = {c.id for c in context}
        eligible = [i for i, pc in enumerate(self.pool) if pc.concept.id not in context_ids]
        if not eligible:
            raise ProposalError("no pool concepts outside the conditioning set")
        ctx_idx = [self._by_id[c.id] for c in context]
        rows = np.asarray(rows, dtype=int)
        cfg = ModelConfig(gamma=self.gamma, k=len(context) + 1)
        log_scores = np.empty(len(eligible))
        row_ids = tuple(self.observations[i].id for i in rows)
        y = self.labels[rows]
        for pos, j in enumerate(eligible):
            cols = self._matrix[np.ix_(rows, ctx_idx + [j])]
            phi = AnnotationMatrix.build(cols, row_ids)
            log_scores[pos] = log_marginal_likelihood(phi, y, cfg).value
        log_scores -= log_scores.max()
        probs = np.exp(log_scores)
        probs /= probs.sum()
        return eligible, probs

    def propose(self, context: Sequence[Concept], incumbent: Concept,
                subset: np.ndarray, m: int, rng: np.random.Generator) -> OracleProposal:
        context_ids = {c.id for c in context}
        if incumbent.id in context_ids:
            raise ProposalError("incumbent concept duplicates the conditioning set")
        eligible = [i for i, pc in enumerate(self.pool) if pc.concept.id not in context_ids]
        if not eligible:
            raise ProposalError("no pool concepts outside the conditioning set")

        if self.weight_mode == "uniform":
            q = 1.0 / len(eligible)
            if len(eligible) <= m:
                chosen = list(eligible)
            else:
                chosen = sorted(rng.choice(eligible, size=m, replace=False).tolist())
            return OracleProposal(
                candidates=[self.pool[j].concept for j in chosen],
                q_weights=np.full(len(chosen), q),
                q_current=q,
            )

        rows = self._conditioning_rows(subset)
        if rows.size == 0:
            # prior_only with exact weights degenerates to uniform over the pool
            q = 1.0 / len(eligible)
            chosen = eligible[:m]
            return OracleProposal(
                candidates=[self.pool[j].concept for j in chosen],
                q_weights=np.full(len(chosen), q),
                q_current=q,
            )
        eligible, probs = self.partial_posterior_weights(context, rows)
        order = np.argsort(-probs, kind="stable")[:m]
        q_current = 0.0
        inc_idx = self._by_id.get(incumbent.id)
        if inc_idx is not None and inc_idx in eligible:
            q_current = float(probs[eligible.index(inc_idx)])
        return OracleProposal(
            candidates=[self.pool[eligible[int(i)]].concept for i in order],
            q_weights=probs[order],
            q_current=q_current,
        )
