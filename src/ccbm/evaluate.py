"""Metrics, concept matching, recovery reports, and the brute-force posterior
enumeration oracle."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .concepts import Concept, ConceptSet
from .model import log_marginal_likelihoods, logsumexp, stack_designs

ENUMERATION_CHUNK = 1024  # supports per stacked solve; bounds the (E, n, d) design stack


class MetricUndefinedError(ValueError):
    pass


class InconclusiveMatchError(RuntimeError):
    """The shared annotation panel is too small to decide a concept match."""


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with midrank tie handling."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    neg = labels == 0
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC requires both classes present")
    # midranks: tied scores share the mean of the ranks they span
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2)[group]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def brier(scores: np.ndarray, labels: np.ndarray) -> float:
    scores = np.asarray(scores, dtype=float)
    if scores.size and (scores.min() < 0 or scores.max() > 1):
        raise ValueError("scores must lie in [0, 1]")
    return float(np.mean((scores - np.asarray(labels, dtype=float)) ** 2))


@dataclass(frozen=True)
class ConceptMatchRule:
    """Two concepts match when |Pearson corr| of their annotations exceeds threshold."""

    threshold: float = 0.5
    borderline: tuple[float, float] = (0.45, 0.55)
    min_panel: int = 10

    def __post_init__(self):
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must lie in (0, 1]")


def _match_corr(a: Concept, b: Concept, rule: ConceptMatchRule,
                annotations: Mapping[str, np.ndarray]) -> float | None:
    """|Pearson correlation| of the two concepts' annotation columns, or None
    when either column is constant (its correlation is undefined).

    Raises InconclusiveMatchError when the shared panel is too small.
    """
    if a.id not in annotations or b.id not in annotations:
        raise KeyError("both concepts must be annotated on the shared panel")
    col_a = np.asarray(annotations[a.id], dtype=float)
    col_b = np.asarray(annotations[b.id], dtype=float)
    if col_a.shape != col_b.shape or col_a.ndim != 1:
        raise ValueError("annotation columns must be aligned 1-D vectors")
    if col_a.size < rule.min_panel:
        raise InconclusiveMatchError(
            f"shared panel has {col_a.size} observations; need >= {rule.min_panel}")
    if np.std(col_a) == 0 or np.std(col_b) == 0:
        return None
    return abs(float(np.corrcoef(col_a, col_b)[0, 1]))


def concepts_match(a: Concept, b: Concept, rule: ConceptMatchRule,
                   annotations: Mapping[str, np.ndarray]) -> bool:
    """True iff the two concepts' annotation columns correlate past the cutoff.

    Constant columns never match anything (their correlation is undefined).
    Raises InconclusiveMatchError when the shared panel is too small, which is
    deliberately distinct from returning False.
    """
    corr = _match_corr(a, b, rule, annotations)
    return corr is not None and corr > rule.threshold


@dataclass
class RecoveryReport:
    concept_precision: float
    concept_recall: float
    per_concept_frequency: dict[str, float]     # concept question -> posterior frequency
    matched_pairs: list[tuple[str, str, float]]  # (sampled question, true question, |corr|)
    borderline_pairs: list[tuple[str, str, float]]
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "concept_precision": self.concept_precision,
            "concept_recall": self.concept_recall,
            "per_concept_frequency": self.per_concept_frequency,
            "matched_pairs": self.matched_pairs,
            "borderline_pairs": self.borderline_pairs,
            "warnings": self.warnings,
        }


def recovery_report(samples: Sequence[ConceptSet], truth: ConceptSet,
                    rule: ConceptMatchRule,
                    annotations: Mapping[str, np.ndarray]) -> RecoveryReport:
    """Posterior-averaged concept precision and recall under the matching rule.

    Precision: fraction, over all (sample, slot) pairs, of sampled concepts
    matching some true concept. Recall: mean over true concepts of the
    fraction of samples containing a match for it.
    """
    if not samples:
        raise ValueError("recovery report requires at least one posterior sample")
    warnings: list[str] = []
    corr_of: dict[tuple[str, str], float | None] = {}  # None: undefined or inconclusive

    def match(sampled: Concept, true: Concept) -> bool:
        key = (sampled.id, true.id)
        if key not in corr_of:
            try:
                corr_of[key] = _match_corr(sampled, true, rule, annotations)
            except InconclusiveMatchError as exc:
                warnings.append(f"{sampled.question!r} vs {true.question!r}: {exc}")
                corr_of[key] = None
        corr = corr_of[key]
        return corr is not None and corr > rule.threshold

    total_slots = 0
    matched_slots = 0
    recall_hits = {c.id: 0 for c in truth}
    freq: dict[str, int] = {}
    for cs in samples:
        sample_matches = {c.id: False for c in truth}
        for concept in cs:
            freq[concept.question] = freq.get(concept.question, 0) + 1
            total_slots += 1
            hit = False
            for true in truth:
                if match(concept, true):
                    hit = True
                    sample_matches[true.id] = True
            matched_slots += int(hit)
        for true in truth:
            recall_hits[true.id] += int(sample_matches[true.id])

    n_samples = len(samples)
    questions = {c.id: c.question for cs in samples for c in cs}
    truth_q = {c.id: c.question for c in truth}
    pairs = [(questions[sid], truth_q[tid], corr)
             for (sid, tid), corr in sorted(corr_of.items())]
    matched_pairs = [p for p in pairs if p[2] is not None and p[2] > rule.threshold]
    borderline = [p for p in pairs
                  if p[2] is not None and rule.borderline[0] <= p[2] <= rule.borderline[1]]
    return RecoveryReport(
        concept_precision=matched_slots / total_slots,
        concept_recall=float(np.mean([recall_hits[c.id] / n_samples for c in truth])),
        per_concept_frequency={q: n / n_samples for q, n in sorted(freq.items())},
        matched_pairs=matched_pairs,
        borderline_pairs=borderline,
        warnings=warnings,
    )


def tv_distance(p: Mapping, q: Mapping) -> float:
    """Total variation distance between two distributions over hashable states."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def enumerate_posterior(pool: Sequence[Concept], k: int, y: np.ndarray,
                        annotations: np.ndarray, gamma: float,
                        budget: int = 100_000) -> dict[frozenset[str], float]:
    """Exact posterior over unordered k-subsets of the pool, uniform prior.

    Uses the Laplace log marginal likelihood for each support, its concepts
    in pool order, and normalizes in log space. Supports are scored in
    stacked solves of at most ENUMERATION_CHUNK designs. Refuses when the
    number of supports exceeds the budget.
    """
    n_support = math.comb(len(pool), k)
    if n_support > budget:
        raise ValueError(
            f"enumeration would visit {n_support} supports, over the budget of {budget}")
    annotations = np.asarray(annotations, dtype=float)
    if annotations.ndim != 2 or annotations.shape[1] != len(pool):
        raise ValueError("annotations need one column per pool concept")
    if not np.all((annotations >= 0.0) & (annotations <= 1.0)):
        raise ValueError("concept annotation values must lie in [0, 1]")
    y = np.asarray(y, dtype=float)
    combos = list(itertools.combinations(range(len(pool)), k))
    if not combos:
        return {}
    log_probs = []
    for start in range(0, len(combos), ENUMERATION_CHUNK):
        X = stack_designs(annotations, combos[start:start + ENUMERATION_CHUNK])
        log_probs.append(log_marginal_likelihoods(X, y, gamma)[0])
    log_probs = np.concatenate(log_probs)
    log_z = logsumexp(log_probs)
    return {frozenset(pool[j].id for j in combo): float(np.exp(lp - log_z))
            for combo, lp in zip(combos, log_probs)}


def support_frequencies(samples: Sequence[ConceptSet]) -> dict[frozenset[str], float]:
    """Empirical distribution over unordered supports in a sample list."""
    counts: dict[frozenset[str], int] = {}
    for cs in samples:
        key = cs.id_set()
        counts[key] = counts.get(key, 0) + 1
    total = len(samples)
    return {k: v / total for k, v in counts.items()}
