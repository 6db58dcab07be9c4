"""Seeded synthetic data generator for recovery experiments.

Observations carry a templated sentence listing their active feature names, so
keyword-matching pool oracles and LLM oracles can both run on the same files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .concepts import Concept, ConceptSet
from .model import sigmoid
from .oracle import KeyphraseBag, Observation, PoolConcept, normalize_phrase


@dataclass
class SyntheticSpec:
    n: int
    pool: list[tuple[str, str]]          # (concept question, feature name)
    true_support: list[int]
    coefficients: list[float]
    intercept: float = 0.0
    feature_probs: float | Sequence[float] = 0.5
    seed: int = 0

    def __post_init__(self):
        if len(self.coefficients) != len(self.true_support):
            raise ValueError("need one coefficient per true-support feature")
        if any(j < 0 or j >= len(self.pool) for j in self.true_support):
            raise ValueError("true_support indices out of pool range")


@dataclass
class SyntheticData:
    observations: list[Observation]
    labels: np.ndarray
    annotations: np.ndarray              # n x pool-size feature indicators
    pool_concepts: list[PoolConcept]
    truth: ConceptSet
    bags: list[KeyphraseBag]
    spec: SyntheticSpec


def generate_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Bernoulli features, logistic labels, templated payload text. Seeded."""
    rng = np.random.default_rng(spec.seed)
    p_count = len(spec.pool)
    probs = np.broadcast_to(np.asarray(spec.feature_probs, dtype=float), (p_count,))
    features = (rng.random((spec.n, p_count)) < probs[None, :]).astype(float)

    logits = spec.intercept + features[:, spec.true_support] @ np.asarray(spec.coefficients)
    labels = (rng.random(spec.n) < sigmoid(logits)).astype(int)

    pool_concepts = [PoolConcept(Concept(question), keyword) for question, keyword in spec.pool]
    names = [name for _, name in spec.pool]
    phrases = [normalize_phrase(name) for name in names]
    observations = []
    bags = []
    for i, row in enumerate(features >= 0.5):
        active = np.flatnonzero(row).tolist()
        listed = ", ".join([names[j] for j in active]) if active else "nothing notable"
        text = "The record notes: " + listed + "."
        obs_id = f"obs-{spec.seed}-{i:05d}"
        observations.append(Observation(id=obs_id, payload=text, label=int(labels[i])))
        bags.append(KeyphraseBag(obs_id, frozenset([phrases[j] for j in active])))

    truth = ConceptSet(pool_concepts[j].concept for j in spec.true_support)
    return SyntheticData(observations=observations, labels=labels, annotations=features,
                         pool_concepts=pool_concepts, truth=truth, bags=bags, spec=spec)


CLINICAL_FEATURES = [
    # (question, feature name, coefficient); the five-feature logistic design
    ("Does the note imply the patient is unemployed?", "unemployed", 4.0),
    ("Does the note imply the patient is retired?", "retired", 4.0),
    ("Does the note mention the patient consuming alcohol in the present or the past?",
     "alcohol", 4.0),
    ("Does the note mention the patient smoking in the present or the past?",
     "smoking", -4.0),
    ("Does the note mention the patient using recreational drugs in the present or the past?",
     "drugs", 5.0),
]


def clinical_spec(n: int, seed: int = 0, n_decoys: int = 25,
                  intercept: float = -6.0, feature_prob: float = 0.5) -> SyntheticSpec:
    """Five socio-clinical features with coefficients (4, 4, 4, -4, 5) plus decoys.

    The default intercept roughly centers the label rate given the strong
    positive coefficients.
    """
    pool = [(q, name) for q, name, _ in CLINICAL_FEATURES]
    pool += [(f"Does the note mention the patient having condition {i}?", f"condition{i}")
             for i in range(n_decoys)]
    return SyntheticSpec(
        n=n,
        pool=pool,
        true_support=list(range(len(CLINICAL_FEATURES))),
        coefficients=[c for _, _, c in CLINICAL_FEATURES],
        intercept=intercept,
        feature_probs=feature_prob,
        seed=seed,
    )
