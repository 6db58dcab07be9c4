"""Keyphrase residual model: bag-of-words design, one ridge-penalized binary
logistic fit at a fixed penalty on the concept model's Newton solver, and the
keyphrase summary used to prompt concept proposals: a list of phrases,
strongest first.

The summary only chooses which phrases a proposal prompt lists, so nothing in
the sampler's exactness reads the penalty.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import setting
from .model import map_fit
from .oracle import KeyphraseBag

CONCEPT_RIDGE = 1e-6  # tiny fixed ridge on concept columns, conditioning only
KEYPHRASE_LAMBDA = 10 ** (1 / 3)  # ridge on phrase coefficients, about 2.154


@dataclass(frozen=True)
class KeyphraseConfig:
    top_n: int = setting(50, least=1)  # phrases a summary holds at most
    min_df: int = setting(2, least=1)  # documents a phrase must appear in to enter the vocabulary


def build_bow(bags: Sequence[KeyphraseBag],
              min_df: int = KeyphraseConfig.min_df) -> tuple[list[str], np.ndarray]:
    """The vocabulary, the phrases with document frequency >= min_df in
    sorted order, and the dense float 0/1 presence matrix over it."""
    df = Counter(phrase for bag in bags for phrase in bag.phrases)
    phrases = sorted(p for p, c in df.items() if c >= min_df)
    if not phrases:
        raise ValueError(f"empty vocabulary: no phrase appears in at least {min_df} documents")
    index = {p: i for i, p in enumerate(phrases)}
    rows, cols = [], []
    for i, bag in enumerate(bags):
        for phrase in bag.phrases:
            j = index.get(phrase)
            if j is not None:
                rows.append(i)
                cols.append(j)
    matrix = np.zeros((len(bags), len(phrases)))
    matrix[rows, cols] = 1.0
    return phrases, matrix


@dataclass
class KeyphraseModelFit:
    beta_w: np.ndarray          # (V,) phrase coefficients
    beta_c: np.ndarray          # (C,) concept coefficients
    intercept: np.ndarray       # (1,)


def _design(bow, concepts: Optional[np.ndarray]) -> tuple[np.ndarray, int, int]:
    X_w = np.asarray(bow, dtype=float)
    n = X_w.shape[0]
    X_c = np.zeros((n, 0)) if concepts is None else np.atleast_2d(np.asarray(concepts, dtype=float))
    if X_c.shape[0] != n:
        raise ValueError("concept rows must align with bag-of-words rows")
    X = np.hstack([X_c, X_w, np.ones((n, 1))])
    return X, X_c.shape[1], X_w.shape[1]


def fit_keyphrase_model(bow, concepts: Optional[np.ndarray], y: np.ndarray) -> KeyphraseModelFit:
    """Fit the binary keyphrase model: one ridge-penalized logistic MAP fit.

    The phrase coefficients carry the ridge KEYPHRASE_LAMBDA, the concept
    columns a tiny ridge for conditioning, and the intercept a prior variance
    of 1e10, flat in effect. y must hold 0/1 labels of both classes; a fit
    that does not converge raises OptimizationError.
    """
    y = np.asarray(y)
    if set(np.unique(y).tolist()) != {0, 1}:
        raise ValueError("the keyphrase model needs 0/1 labels of both classes")
    X, n_c, n_w = _design(bow, concepts)
    variance = np.concatenate([np.full(n_c, 1.0 / CONCEPT_RIDGE),
                               np.full(n_w, 1.0 / KEYPHRASE_LAMBDA), [1e10]])
    beta = map_fit(X, y, variance)
    return KeyphraseModelFit(beta_w=beta[n_c:n_c + n_w], beta_c=beta[:n_c], intercept=beta[-1:])


def top_keyphrases(vocabulary: Sequence[str], beta_w: np.ndarray,
                   top_n: int = KeyphraseConfig.top_n) -> list[str]:
    """The keyphrase summary: at most top_n phrases of nonzero coefficient,
    by absolute coefficient, descending; ties break lexicographically. An
    empty list means the residual model found no signal."""
    order = sorted(range(len(vocabulary)), key=lambda j: (-abs(beta_w[j]), vocabulary[j]))
    return [vocabulary[j] for j in order[:top_n] if beta_w[j] != 0.0]
