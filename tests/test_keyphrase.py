import numpy as np
import pytest

from ccbm import keyphrase
from ccbm.keyphrase import (DEFAULT_LAMBDA_GRID, KeyphraseModelFit,
                            KeyphraseSummary, Vocabulary, build_bow,
                            fit_keyphrase_model, summarize_top_keyphrases)
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
        assert vocab.phrases() == ["a"]
        assert matrix.shape == (3, 1)
        assert matrix.toarray().ravel().tolist() == [1.0, 1.0, 1.0]

    def test_binary_presence_matrix(self):
        bags = bags_from_lists([["a", "b"], ["b"], []])
        vocab, matrix = build_bow(bags, min_df=1)
        dense = matrix.toarray()
        cols = vocab.phrases()
        assert cols == ["a", "b"]
        assert dense[0].tolist() == [1.0, 1.0]
        assert dense[1].tolist() == [0.0, 1.0]
        assert dense[2].tolist() == [0.0, 0.0]

    def test_empty_vocabulary_rejected(self):
        bags = bags_from_lists([["a"], ["b"]])
        with pytest.raises(ValueError):
            build_bow(bags, min_df=2)

    def test_doc_freq_recorded(self):
        bags = bags_from_lists([["a", "b"], ["a"]])
        vocab, _ = build_bow(bags, min_df=1)
        assert vocab.doc_freq == {"a": 2, "b": 1}


def _fit_binary(X, y, pen, max_iter=200, tol=1e-8):
    """The serial damped Newton the stacked CV solve replaced, kept as its reference."""
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


def reference_cv(bow, concepts, y, folds=5, seed=0, lambda_grid=DEFAULT_LAMBDA_GRID):
    """(lambda, cv_scores, coefficients) as one _fit_binary per (lambda, fold)
    and a final fit computed them."""
    X, n_c, n_w = keyphrase._design(bow, concepts)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[order] = np.arange(n) % folds
    cv_scores = []
    for lam in lambda_grid:
        pen = keyphrase._penalties(n_c, n_w, lam)
        losses = []
        for f in range(folds):
            te = fold_of == f
            tr = ~te
            if len(np.unique(y[tr])) < 2:
                continue
            beta = _fit_binary(X[tr], y[tr], pen)
            z = X[te] @ beta
            losses.append(float(np.mean(-y[te] * z + log1pexp(z))))
        cv_scores.append((float(lam), float(np.mean(losses))))
    best = min(cv_scores, key=lambda t: t[1])[0]
    return best, cv_scores, _fit_binary(X, y, keyphrase._penalties(n_c, n_w, best))


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
    def assert_matches_reference(self, bags, concepts, y):
        vocab, bow = build_bow(bags, min_df=2)
        fit = fit_keyphrase_model(bow, concepts, y, vocabulary=vocab)
        best, cv_scores, beta = reference_cv(bow, concepts, y)
        assert fit.lambda_ == best
        assert [lam for lam, _ in fit.cv_scores] == [lam for lam, _ in cv_scores]
        np.testing.assert_allclose([s for _, s in fit.cv_scores], [s for _, s in cv_scores],
                                   rtol=0, atol=1e-8)
        n_c = 0 if concepts is None else concepts.shape[1]
        np.testing.assert_allclose(np.concatenate([fit.beta_c, fit.beta_w, fit.intercept]),
                                   beta, rtol=0, atol=1e-8)
        reference = KeyphraseModelFit(beta_w=beta[n_c:-1], beta_c=beta[:n_c],
                                      intercept=beta[-1:], lambda_=best,
                                      cv_scores=cv_scores, vocabulary=vocab)
        assert ([e[0] for e in summarize_top_keyphrases(fit).entries]
                == [e[0] for e in summarize_top_keyphrases(reference).entries])

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_corpus_matches_serial_fits(self, seed):
        bags, y = planted_corpus(seed=seed)
        self.assert_matches_reference(bags, None, y)

    @pytest.mark.parametrize("seed", range(8))
    def test_clinical_subset_matches_serial_fits(self, seed):
        bags, concepts, y = clinical_subset(seed)
        self.assert_matches_reference(bags, concepts, y)

    def test_degenerate_fold_skipped_as_in_serial_fits(self):
        # one positive: the fold holding it trains on a single class
        bags, y = planted_corpus(n=40, seed=5)
        y = np.zeros_like(y)
        y[3] = 1
        self.assert_matches_reference(bags, None, y)

    def test_one_class_labels_rejected(self):
        bags, y = planted_corpus()
        vocab, bow = build_bow(bags, min_df=2)
        with pytest.raises(ValueError):
            fit_keyphrase_model(bow, None, np.ones_like(y), vocabulary=vocab)

    def test_unconverged_fit_raises(self, monkeypatch):
        fit = keyphrase.SharedDesign.fit
        monkeypatch.setattr(keyphrase.SharedDesign, "fit",
                            lambda self, w, p: fit(self, w, p, max_iter=1))
        bags, y = planted_corpus()
        vocab, bow = build_bow(bags, min_df=2)
        with pytest.raises(OptimizationError):
            fit_keyphrase_model(bow, None, y, vocabulary=vocab)


class TestFitKeyphraseModel:
    def test_planted_signal_ranks_first(self):
        bags, y = planted_corpus()
        vocab, bow = build_bow(bags, min_df=2)
        fit = fit_keyphrase_model(bow, None, y, vocabulary=vocab)
        summary = summarize_top_keyphrases(fit)
        assert summary.entries[0][0] == "alpha"
        assert summary.entries[0][2] == 1  # positive association

    def test_concept_column_absorbs_the_signal(self):
        # conditioning on a concept equal to the signal phrase shrinks that
        # phrase's residual coefficient
        bags, y = planted_corpus(seed=2)
        vocab, bow = build_bow(bags, min_df=2)
        j = vocab.index["alpha"]
        concept_col = bow.toarray()[:, j:j + 1]
        plain = fit_keyphrase_model(bow, None, y, vocabulary=vocab)
        conditioned = fit_keyphrase_model(bow, concept_col, y, vocabulary=vocab)
        assert abs(conditioned.beta_w[j]) < abs(plain.beta_w[j]) / 2

    def test_lambda_is_first_occurrence_argmin(self):
        bags, y = planted_corpus(seed=3)
        vocab, bow = build_bow(bags, min_df=2)
        fit = fit_keyphrase_model(bow, None, y, vocabulary=vocab)
        best = min(score for _, score in fit.cv_scores)
        expected = next(lam for lam, score in fit.cv_scores if score == best)
        assert fit.lambda_ == expected

    def test_intercept_is_unpenalized(self):
        # with an overwhelming phrase penalty the fit reduces to the base rate
        rng = np.random.default_rng(4)
        y = (rng.random(200) < 0.9).astype(int)
        bags = bags_from_lists([["x"] if rng.random() < 0.5 else ["z"]
                                for _ in range(200)])
        vocab, bow = build_bow(bags, min_df=1)
        fit = fit_keyphrase_model(bow, None, y, vocabulary=vocab,
                                  lambda_grid=(1e8,), folds=2)
        assert np.max(np.abs(fit.beta_w)) < 1e-3
        assert sigmoid(fit.intercept)[0] == pytest.approx(np.mean(y), abs=0.01)

    def test_folds_validated(self):
        bags, y = planted_corpus()
        vocab, bow = build_bow(bags, min_df=2)
        with pytest.raises(ValueError):
            fit_keyphrase_model(bow, None, y, vocabulary=vocab, folds=1)

    def test_misaligned_concepts_rejected(self):
        bags, y = planted_corpus()
        vocab, bow = build_bow(bags, min_df=2)
        with pytest.raises(ValueError):
            fit_keyphrase_model(bow, np.ones((3, 1)), y, vocabulary=vocab)


class TestSummarize:
    def _fit(self, phrases, beta_w):
        vocab = Vocabulary(index={p: i for i, p in enumerate(phrases)},
                           doc_freq={p: 1 for p in phrases})
        return KeyphraseModelFit(beta_w=np.asarray(beta_w, dtype=float),
                                 beta_c=np.zeros(0), intercept=np.zeros(1),
                                 lambda_=1.0, cv_scores=[], vocabulary=vocab)

    def test_absolute_magnitude_ordering(self):
        fit = self._fit(["p", "q", "r"], [0.2, -0.9, 0.5])
        entries = summarize_top_keyphrases(fit).entries
        assert [e[0] for e in entries] == ["q", "r", "p"]
        assert entries[0][2] == -1

    def test_ties_break_lexicographically(self):
        fit = self._fit(["b", "a", "c"], [0.5, -0.5, 0.3])
        entries = summarize_top_keyphrases(fit).entries
        assert [e[0] for e in entries] == ["a", "b", "c"]

    def test_zero_coefficients_dropped(self):
        fit = self._fit(["p", "q"], [0.0, 0.4])
        summary = summarize_top_keyphrases(fit)
        assert [e[0] for e in summary.entries] == ["q"]
        assert summary.residual_signal

    def test_all_zero_flags_no_residual_signal(self):
        fit = self._fit(["p", "q"], [0.0, 0.0])
        summary = summarize_top_keyphrases(fit)
        assert summary.entries == []
        assert not summary.residual_signal

    def test_top_n_truncates(self):
        fit = self._fit(["p", "q", "r"], [0.3, 0.2, 0.1])
        assert len(summarize_top_keyphrases(fit, top_n=2).entries) == 2

    def test_missing_vocabulary_rejected(self):
        fit = self._fit(["p"], [0.1])
        fit.vocabulary = None
        with pytest.raises(ValueError):
            summarize_top_keyphrases(fit)
