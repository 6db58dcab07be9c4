import numpy as np
import pytest

from ccbm import keyphrase
from ccbm.keyphrase import (CONCEPT_RIDGE, KEYPHRASE_LAMBDA, build_bow,
                            fit_keyphrase_model, top_keyphrases)
from ccbm.model import OptimizationError, log1pexp, sigmoid
from ccbm.oracle import KeyphraseBag
from ccbm.synthetic import clinical_spec, generate_synthetic


def bags_from_lists(word_lists):
    return [KeyphraseBag(f"o{i}", frozenset(words))
            for i, words in enumerate(word_lists)]


def planted_corpus(n=150, seed=0, flip=0.05):
    """One phrase tracks the label, the rest are independent noise."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(int)
    word_lists = []
    for i in range(n):
        words = []
        signal = y[i] if rng.random() > flip else 1 - y[i]
        if signal:
            words.append("alpha")
        for noise in ("beta", "gamma", "delta", "epsilon"):
            if rng.random() < 0.4:
                words.append(noise)
        words.append("filler")
        word_lists.append(words)
    return bags_from_lists(word_lists), y


class TestBuildBow:
    def test_min_df_filters_rare_phrases(self):
        bags = bags_from_lists([["a", "b"], ["a"], ["a", "c"]])
        vocab, matrix = build_bow(bags, min_df=2)
        assert vocab == ["a"]
        assert matrix.shape == (3, 1)
        assert matrix.dtype == np.float64
        assert matrix.ravel().tolist() == [1.0, 1.0, 1.0]

    def test_binary_presence_matrix(self):
        bags = bags_from_lists([["a", "b"], ["b"], []])
        vocab, matrix = build_bow(bags, min_df=1)
        assert vocab == ["a", "b"]
        assert matrix.tolist() == [[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]

    def test_empty_vocabulary_rejected(self):
        bags = bags_from_lists([["a"], ["b"]])
        with pytest.raises(ValueError):
            build_bow(bags, min_df=2)


def _fit_binary(X, y, pen, max_iter=200, tol=1e-8):
    """A serial damped Newton for the penalized logistic loss, kept as the
    reference of the keyphrase fit: an unpenalized coordinate stays solvable
    through the curvature floor and the 1e-10 on the Hessian's diagonal."""
    d = X.shape[1]
    beta = np.zeros(d)

    def obj(b):
        z = X @ b
        return float(np.sum(-y * z + log1pexp(z)) + 0.5 * np.sum(pen * b * b))

    g = obj(beta)
    for _ in range(max_iter):
        z = X @ beta
        p = sigmoid(z)
        grad = X.T @ (p - y) + pen * beta
        if np.max(np.abs(grad)) <= tol:
            break
        w = np.maximum(p * (1 - p), 1e-10)
        H = (X * w[:, None]).T @ X + np.diag(pen + 1e-10)
        step = np.linalg.solve(H, grad)
        t = 1.0
        for _ in range(50):
            cand = beta - t * step
            gc = obj(cand)
            if gc <= g - 1e-4 * t * (grad @ step) + 1e-12 * max(1.0, abs(g)):
                beta, g = cand, gc
                break
            t *= 0.5
        else:
            break
    return beta


def reference_fit(bow, concepts, y):
    """The coefficients (concepts, phrases, intercept) one _fit_binary at
    KEYPHRASE_LAMBDA computes, with the intercept unpenalized."""
    X, n_c, n_w = keyphrase._design(bow, concepts)
    pen = np.concatenate([np.full(n_c, CONCEPT_RIDGE), np.full(n_w, KEYPHRASE_LAMBDA), [0.0]])
    return _fit_binary(X, np.asarray(y, dtype=float), pen)


def clinical_subset(seed, n=100, k=6):
    """An LLM-proposal-shaped problem: a subset of clinical notes, its keyphrase
    bags and k concept columns of the conditioning set."""
    data = generate_synthetic(clinical_spec(2 * n, seed=seed))
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(2 * n, size=n, replace=False))
    cols = rng.choice(data.annotations.shape[1], size=k, replace=False)
    return ([data.bags[i] for i in rows], data.annotations[np.ix_(rows, cols)],
            data.labels[rows])


class TestStackedCV:
    """The ridge fit on the concept model's solver against the serial reference."""

    def assert_matches_reference(self, bags, concepts, y):
        vocab, bow = build_bow(bags, min_df=2)
        fit = fit_keyphrase_model(bow, concepts, y)
        beta = reference_fit(bow, concepts, y)
        n_c = 0 if concepts is None else concepts.shape[1]
        np.testing.assert_allclose(np.concatenate([fit.beta_c, fit.beta_w, fit.intercept]),
                                   beta, rtol=0, atol=1e-8)
        assert top_keyphrases(vocab, fit.beta_w) == top_keyphrases(vocab, beta[n_c:-1])

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_corpus_matches_serial_fits(self, seed):
        bags, y = planted_corpus(seed=seed)
        self.assert_matches_reference(bags, None, y)

    @pytest.mark.parametrize("seed", range(8))
    def test_clinical_subset_matches_serial_fits(self, seed):
        bags, concepts, y = clinical_subset(seed)
        self.assert_matches_reference(bags, concepts, y)

    def test_degenerate_fold_skipped_as_in_serial_fits(self):
        # one positive: a nearly separable fit
        bags, y = planted_corpus(n=40, seed=5)
        y = np.zeros_like(y)
        y[3] = 1
        self.assert_matches_reference(bags, None, y)

    def test_one_class_labels_rejected(self):
        bags, y = planted_corpus()
        vocab, bow = build_bow(bags, min_df=2)
        with pytest.raises(ValueError):
            fit_keyphrase_model(bow, None, np.ones_like(y))

    def test_unconverged_fit_raises(self, monkeypatch):
        fit = keyphrase.map_fit
        monkeypatch.setattr(keyphrase, "map_fit",
                            lambda X, y, variance: fit(X, y, variance, max_iter=1))
        bags, y = planted_corpus()
        vocab, bow = build_bow(bags, min_df=2)
        with pytest.raises(OptimizationError):
            fit_keyphrase_model(bow, None, y)


class TestFitKeyphraseModel:
    def test_planted_signal_ranks_first(self):
        bags, y = planted_corpus()
        vocab, bow = build_bow(bags, min_df=2)
        fit = fit_keyphrase_model(bow, None, y)
        assert top_keyphrases(vocab, fit.beta_w)[0] == "alpha"
        assert fit.beta_w[vocab.index("alpha")] > 0  # positive association

    def test_concept_column_absorbs_the_signal(self):
        # conditioning on a concept equal to the signal phrase shrinks that
        # phrase's residual coefficient
        bags, y = planted_corpus(seed=2)
        vocab, bow = build_bow(bags, min_df=2)
        j = vocab.index("alpha")
        concept_col = bow[:, j:j + 1]
        plain = fit_keyphrase_model(bow, None, y)
        conditioned = fit_keyphrase_model(bow, concept_col, y)
        assert abs(conditioned.beta_w[j]) < abs(plain.beta_w[j]) / 2

    def test_intercept_is_unpenalized(self, monkeypatch):
        # with an overwhelming phrase penalty the fit reduces to the base rate
        monkeypatch.setattr(keyphrase, "KEYPHRASE_LAMBDA", 1e8)
        rng = np.random.default_rng(4)
        y = (rng.random(200) < 0.9).astype(int)
        bags = bags_from_lists([["x"] if rng.random() < 0.5 else ["z"]
                                for _ in range(200)])
        vocab, bow = build_bow(bags, min_df=1)
        fit = fit_keyphrase_model(bow, None, y)
        assert np.max(np.abs(fit.beta_w)) < 1e-3
        assert sigmoid(fit.intercept)[0] == pytest.approx(np.mean(y), abs=0.01)

    def test_misaligned_concepts_rejected(self):
        bags, y = planted_corpus()
        vocab, bow = build_bow(bags, min_df=2)
        with pytest.raises(ValueError):
            fit_keyphrase_model(bow, np.ones((3, 1)), y)


class TestSummarize:
    def test_absolute_magnitude_ordering(self):
        assert top_keyphrases(["p", "q", "r"], [0.2, -0.9, 0.5]) == ["q", "r", "p"]

    def test_ties_break_lexicographically(self):
        assert top_keyphrases(["b", "a", "c"], [0.5, -0.5, 0.3]) == ["a", "b", "c"]

    def test_zero_coefficients_dropped(self):
        assert top_keyphrases(["p", "q"], [0.0, 0.4]) == ["q"]

    def test_all_zero_flags_no_residual_signal(self):
        # an empty summary is the no-signal case
        assert top_keyphrases(["p", "q"], [0.0, 0.0]) == []

    def test_top_n_truncates(self):
        assert top_keyphrases(["p", "q", "r"], [0.3, 0.2, 0.1], top_n=2) == ["p", "q"]
