"""Keyphrase residual model: bag-of-words design, ridge-penalized binary
logistic fit with cross-validated penalty, and the keyphrase summary used to
prompt concept proposals: a list of phrases, strongest first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import setting
from .model import SharedDesign, log1pexp
from .oracle import KeyphraseBag

CONCEPT_RIDGE = 1e-6  # tiny fixed ridge on concept columns, conditioning only
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-3, 3, 10))


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
    lambda_: float
    cv_scores: list[tuple[float, float]]


def _design(bow, concepts: Optional[np.ndarray]) -> tuple[np.ndarray, int, int]:
    X_w = np.asarray(bow, dtype=float)
    n = X_w.shape[0]
    X_c = np.zeros((n, 0)) if concepts is None else np.atleast_2d(np.asarray(concepts, dtype=float))
    if X_c.shape[0] != n:
        raise ValueError("concept rows must align with bag-of-words rows")
    X = np.hstack([X_c, X_w, np.ones((n, 1))])
    return X, X_c.shape[1], X_w.shape[1]


def _penalties(n_concepts: int, n_words: int, lam: float) -> np.ndarray:
    return np.concatenate([
        np.full(n_concepts, CONCEPT_RIDGE),
        np.full(n_words, lam),
        [0.0],  # unpenalized intercept
    ])


def fit_keyphrase_model(bow, concepts: Optional[np.ndarray], y: np.ndarray,
                        lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
                        folds: int = 5, seed: int = 0) -> KeyphraseModelFit:
    """Fit the binary keyphrase model with lambda chosen by k-fold cross-validation.

    Only the bag-of-words block is penalized by lambda; concept columns carry
    a tiny fixed ridge for conditioning and the intercept is unpenalized.
    The whole grid is one stacked solve over the shared design: each
    (lambda, fold) pair weights its training rows 1 and its held-out rows 0.
    A fold whose training rows hold one class is skipped. The argmin lambda
    is the first occurrence in grid order. y must hold 0/1 labels of both
    classes; a fit that does not converge raises OptimizationError.
    """
    y = np.asarray(y)
    if folds < 2:
        raise ValueError("cross-validation requires folds >= 2")
    if set(np.unique(y).tolist()) != {0, 1}:
        raise ValueError("the keyphrase model needs 0/1 labels of both classes")
    X, n_c, n_w = _design(bow, concepts)
    y = y.astype(float)
    n = X.shape[0]

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[order] = np.arange(n) % folds
    train = [fold_of != f for f in range(folds)]
    train = [tr for tr in train if 0 < y[tr].sum() < np.count_nonzero(tr)]

    design = SharedDesign(X, y)
    cv_scores: list[tuple[float, float]] = []
    if train:
        penalties = [_penalties(n_c, n_w, lam) for lam in lambda_grid]
        beta = design.fit(np.tile(np.array(train, dtype=float), (len(lambda_grid), 1)),
                          np.repeat(penalties, len(train), axis=0))
        z = beta @ X.T
        losses = (-y * z + log1pexp(z)).reshape(len(lambda_grid), len(train), n)
    for i, lam in enumerate(lambda_grid):
        heldout = [float(np.mean(losses[i, f][~tr])) for f, tr in enumerate(train)]
        cv_scores.append((float(lam), float(np.mean(heldout)) if heldout else float("nan")))
    best_lambda = min(cv_scores, key=lambda t: t[1])[0]

    beta = design.fit(np.ones((1, n)), _penalties(n_c, n_w, best_lambda)[None])[0]
    return KeyphraseModelFit(beta_w=beta[n_c:n_c + n_w], beta_c=beta[:n_c],
                             intercept=beta[-1:], lambda_=best_lambda,
                             cv_scores=cv_scores)


def top_keyphrases(vocabulary: Sequence[str], beta_w: np.ndarray,
                   top_n: int = KeyphraseConfig.top_n) -> list[str]:
    """The keyphrase summary: at most top_n phrases of nonzero coefficient,
    by absolute coefficient, descending; ties break lexicographically. An
    empty list means the residual model found no signal."""
    order = sorted(range(len(vocabulary)), key=lambda j: (-abs(beta_w[j]), vocabulary[j]))
    return [vocabulary[j] for j in order[:top_n] if beta_w[j] != 0.0]
