import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbm.concepts import Concept, ConceptSet
from ccbm.model import (AnnotationMatrix, ModelConfig, OptimizationError,
                        PosteriorSample, log1pexp, log_marginal_likelihood,
                        log_marginal_likelihoods, map_estimate,
                        posterior_predictive, sigmoid, sigmoid_predict,
                        sigmoid_predict_many)
from ccbm.sampler import GibbsData, _MarginalCache

from conftest import quadrature_log_marginal


def random_instance(rng, n, gamma):
    phi = AnnotationMatrix.build(rng.random((n, 1)), [str(i) for i in range(n)])
    y = (rng.random(n) < 0.5).astype(float)
    return phi, y, ModelConfig(gamma=gamma, k=1)


def serial_objective(theta, X, y, gamma):
    z = X @ theta
    return float(np.sum(-y * z + log1pexp(z)) + 0.5 * theta @ theta / gamma**2)


def serial_map(X, y, gamma, tol=1e-8, max_iter=100):
    """The one-design damped Newton the stacked solver replaced, kept as its reference."""
    d = X.shape[1]
    theta = np.zeros(d)
    if X.shape[0] == 0:
        return theta
    g = serial_objective(theta, X, y, gamma)
    for _ in range(max_iter):
        z = X @ theta
        p = sigmoid(z)
        grad = X.T @ (p - y) + theta / gamma**2
        if np.max(np.abs(grad)) <= tol:
            return theta
        w = p * (1.0 - p)
        H = (X * w[:, None]).T @ X + np.eye(d) / gamma**2
        step = np.linalg.solve(H, grad)
        t = 1.0
        for _ in range(50):
            cand = theta - t * step
            g_cand = serial_objective(cand, X, y, gamma)
            if g_cand <= g - 1e-4 * t * (grad @ step) + 1e-12 * max(1.0, abs(g)):
                theta, g = cand, g_cand
                break
            t *= 0.5
        else:
            raise OptimizationError("line search failed to make progress", theta)
    grad = X.T @ (sigmoid(X @ theta) - y) + theta / gamma**2
    if np.max(np.abs(grad)) <= tol:
        return theta
    raise OptimizationError("Newton did not converge", theta)


def serial_laplace(X, y, gamma, max_iter=100):
    """(log marginal, theta, log det H) as the serial Laplace fit computed them."""
    d = X.shape[1]
    theta = serial_map(X, y, gamma, max_iter=max_iter)
    g = serial_objective(theta, X, y, gamma)
    p = sigmoid(X @ theta)
    w = p * (1.0 - p)
    H = (X * w[:, None]).T @ X + np.eye(d) / gamma**2
    log_det = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(H)))))
    return float(-g - 0.5 * d * np.log(gamma**2) - 0.5 * log_det), theta, log_det


def random_stack(rng, E, n, d):
    """E designs of d-1 concept columns (binary or graded) plus the intercept."""
    cols = rng.random((E, n, d - 1))
    if rng.random() < 0.5:
        cols = (cols < 0.5).astype(float)
    return np.concatenate([cols, np.ones((E, n, 1))], axis=2)


class TestStackedSolver:
    def test_bitwise_equal_to_serial_fits(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            E, n, d = int(rng.integers(1, 10)), int(rng.integers(0, 400)), int(rng.integers(2, 7))
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            X = random_stack(rng, E, n, d)
            y = (rng.random(n) < 0.5).astype(float)
            values, thetas, log_dets = log_marginal_likelihoods(X, y, gamma)
            for e in range(E):
                value, theta, log_det = serial_laplace(X[e], y, gamma)
                assert values[e] == value and log_dets[e] == log_det
                assert np.array_equal(thetas[e], theta)

    def test_single_design_bitwise_equal_to_serial_fit(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n, d = int(rng.integers(0, 400)), int(rng.integers(2, 7))
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            X = random_stack(rng, 1, n, d)[0]
            y = (rng.random(n) < 0.5).astype(float)
            phi = AnnotationMatrix(values=X, row_ids=tuple(map(str, range(n))))
            cfg = ModelConfig(gamma=gamma, k=d - 1)
            value, theta, log_det = serial_laplace(X, y, gamma)
            lm = log_marginal_likelihood(phi, y, cfg)
            assert lm.value == value and lm.log_det_hessian == log_det
            assert np.array_equal(lm.theta_map, theta)
            assert np.array_equal(map_estimate(phi, y, cfg), serial_map(X, y, gamma))

    def test_unconverged_design_raises(self):
        # a design that converges at once beside a separable one that needs
        # more than three Newton steps
        n = 40
        y = np.arange(n) % 2.0
        X = np.ones((2, n, 2))
        X[0, :, 0] = 0.0
        X[1, :, 0] = y
        log_marginal_likelihoods(X[:1], y, 4.0, max_iter=3)  # the first alone converges
        with pytest.raises(OptimizationError) as serial_failure:
            serial_map(X[1], y, 4.0, max_iter=3)
        with pytest.raises(OptimizationError) as failure:
            log_marginal_likelihoods(X, y, 4.0, max_iter=3)
        assert np.array_equal(failure.value.theta, serial_failure.value.theta)
        phi = AnnotationMatrix(values=X[1], row_ids=tuple(map(str, range(n))))
        with pytest.raises(OptimizationError):
            map_estimate(phi, y, ModelConfig(gamma=4.0, k=1), max_iter=3)


class TestSigmoid:
    def test_zero_theta_gives_half(self):
        assert sigmoid_predict(np.zeros(3), np.array([0.3, 0.9, 1.0])) == 0.5

    def test_cancellation(self):
        assert sigmoid_predict(np.array([2.0, -2.0]), np.array([1.0, 1.0])) == 0.5

    def test_direct_arithmetic(self):
        p = sigmoid_predict(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert p == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sigmoid_predict(np.zeros(2), np.zeros(3))

    def test_overflow_safe(self):
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        assert np.isfinite(log1pexp(np.array([800.0, -800.0]))).all()


class TestMapEstimate:
    def test_empty_data_prior_mode(self):
        phi = AnnotationMatrix(values=np.zeros((0, 2)), row_ids=())
        theta = map_estimate(phi, np.zeros(0), ModelConfig(gamma=1.0, k=1))
        assert np.array_equal(theta, np.zeros(2))

    def test_balanced_labels_give_zero(self):
        # identical rows with labels {0,1}: logistic gradient vanishes at 0
        phi = AnnotationMatrix.build(np.array([[0.7], [0.7]]), ["a", "b"])
        theta = map_estimate(phi, np.array([0.0, 1.0]), ModelConfig(gamma=1.0, k=1))
        assert np.max(np.abs(theta)) < 1e-8

    def test_matches_gradient_descent_oracle(self, rng):
        phi, y, cfg = random_instance(rng, 8, 1.0)
        theta = map_estimate(phi, y, cfg)
        # independent plain gradient-descent minimizer of the same objective
        ref = np.zeros(2)
        for _ in range(200000):
            z = phi.values @ ref
            grad = phi.values.T @ (sigmoid(z) - y) + ref / cfg.gamma**2
            ref -= 0.05 * grad
        assert np.max(np.abs(theta - ref)) < 1e-6

    def test_gradient_norm_at_solution(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            phi, y, cfg = random_instance(r, 12, 0.7)
            theta = map_estimate(phi, y, cfg)
            z = phi.values @ theta
            grad = phi.values.T @ (sigmoid(z) - y) + theta / cfg.gamma**2
            assert np.max(np.abs(grad)) <= 1e-8

    def test_matches_sklearn_reference(self, rng):
        sklearn = pytest.importorskip("sklearn.linear_model")
        X = rng.random((40, 2))
        y = (rng.random(40) < 0.5).astype(float)
        phi = AnnotationMatrix.build(X, [str(i) for i in range(40)])
        for gamma in (0.5, 1.0, 2.0):
            theta = map_estimate(phi, y, ModelConfig(gamma=gamma, k=2))
            ref = sklearn.LogisticRegression(
                C=gamma**2, fit_intercept=False, tol=1e-12, max_iter=5000)
            ref.fit(phi.values, y)
            assert np.max(np.abs(ref.coef_.ravel() - theta)) < 1e-6


class TestLogMarginal:
    def test_empty_data_is_exactly_zero(self):
        phi = AnnotationMatrix(values=np.zeros((0, 2)), row_ids=())
        lm = log_marginal_likelihood(phi, np.zeros(0), ModelConfig(gamma=1.0, k=1))
        assert lm.value == 0.0

    def test_tiny_gamma_collapses_to_coin_flips(self):
        n = 7
        phi = AnnotationMatrix.build(np.linspace(0, 1, n)[:, None],
                                     [str(i) for i in range(n)])
        y = np.array([0, 1, 0, 1, 1, 0, 1], dtype=float)
        lm = log_marginal_likelihood(phi, y, ModelConfig(gamma=1e-4, k=1))
        assert lm.value == pytest.approx(-n * np.log(2), rel=1e-4)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(42)
        phi, y, cfg = random_instance(rng, 6, 1.0)
        lm = log_marginal_likelihood(phi, y, cfg)
        ref = quadrature_log_marginal(phi.values, y, cfg.gamma)
        assert abs(lm.value - ref) / abs(ref) <= 0.02

    def test_permutation_invariance(self, rng):
        phi, y, cfg = random_instance(rng, 9, 1.0)
        perm = rng.permutation(9)
        phi_p = AnnotationMatrix(values=phi.values[perm],
                                 row_ids=tuple(phi.row_ids[i] for i in perm))
        a = log_marginal_likelihood(phi, y, cfg).value
        b = log_marginal_likelihood(phi_p, y[perm], cfg).value
        assert a == pytest.approx(b, abs=1e-9)

    def test_column_permutation_invariance(self, rng):
        X = rng.random((10, 2))
        y = (rng.random(10) < 0.5).astype(float)
        ids = [str(i) for i in range(10)]
        cfg = ModelConfig(gamma=1.0, k=2)
        a = log_marginal_likelihood(AnnotationMatrix.build(X, ids), y, cfg)
        b = log_marginal_likelihood(AnnotationMatrix.build(X[:, ::-1], ids), y, cfg)
        assert a.value == pytest.approx(b.value, abs=1e-9)
        assert a.theta_map[0] == pytest.approx(b.theta_map[1], abs=1e-7)

    def test_hessian_dominates_prior_precision(self, rng):
        phi, y, cfg = random_instance(rng, 8, 1.0)
        theta = map_estimate(phi, y, cfg)
        p = sigmoid(phi.values @ theta)
        H = (phi.values * (p * (1 - p))[:, None]).T @ phi.values
        assert np.min(np.linalg.eigvalsh(H)) > -1e-12

    def test_duplication_moves_per_observation_marginal_toward_plugin(self, rng):
        # doubling the data amortizes the complexity penalty: the per-row
        # marginal rises toward the plug-in average log-likelihood
        phi, y, cfg = random_instance(rng, 8, 1.0)
        lm = log_marginal_likelihood(phi, y, cfg)
        z = phi.values @ lm.theta_map
        plugin_avg = float(np.mean(y * z - np.logaddexp(0.0, z)))
        doubled_phi = AnnotationMatrix(
            values=np.vstack([phi.values, phi.values]),
            row_ids=phi.row_ids + tuple(f"{r}-copy" for r in phi.row_ids))
        doubled = log_marginal_likelihood(doubled_phi, np.concatenate([y, y]), cfg).value
        assert lm.value / len(y) < doubled / (2 * len(y)) < plugin_avg


class TestPartialBayes:
    """_MarginalCache.log_partial_bayes: log p(y_{S^c} | y_S, c, X) as a
    difference of two Laplace marginals, here of one concept set."""

    @staticmethod
    def marginals(phi, y, cfg):
        data = GibbsData(y, phi.row_ids, lambda concepts: phi.values[:, :-1])
        return _MarginalCache(data, cfg.gamma), [Concept("Is it x?")]

    def test_full_subset_is_zero(self, rng):
        phi, y, cfg = random_instance(rng, 8, 1.0)
        cache, concepts = self.marginals(phi, y, cfg)
        assert cache.log_partial_bayes([concepts], np.arange(8))[0] == 0.0

    def test_empty_subset_is_full_marginal(self, rng):
        phi, y, cfg = random_instance(rng, 8, 1.0)
        full = log_marginal_likelihood(phi, y, cfg).value
        cache, concepts = self.marginals(phi, y, cfg)
        assert cache.log_partial_bayes([concepts], np.array([], dtype=int))[0] == full

    def test_chain_rule_identity(self, rng):
        phi, y, cfg = random_instance(rng, 10, 1.0)
        s = np.array([0, 2, 5, 7])
        phi_s = AnnotationMatrix(values=phi.values[s],
                                 row_ids=tuple(phi.row_ids[i] for i in s))
        cache, concepts = self.marginals(phi, y, cfg)
        lhs = log_marginal_likelihood(phi, y, cfg).value
        rhs = (log_marginal_likelihood(phi_s, y[s], cfg).value
               + cache.log_partial_bayes([concepts], s)[0])
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_quadrature_difference(self):
        rng = np.random.default_rng(42)
        phi, y, cfg = random_instance(rng, 8, 1.0)
        s = np.arange(4)
        cache, concepts = self.marginals(phi, y, cfg)
        lpb = cache.log_partial_bayes([concepts], s)[0]
        ref = (quadrature_log_marginal(phi.values, y, cfg.gamma)
               - quadrature_log_marginal(phi.values[s], y[s], cfg.gamma))
        assert abs(lpb - ref) / abs(ref) <= 0.02

    def test_out_of_range_subset_rejected(self, rng):
        phi, y, cfg = random_instance(rng, 5, 1.0)
        cache, concepts = self.marginals(phi, y, cfg)
        for index in (7, -1):
            with pytest.raises(ValueError):
                cache.log_partial_bayes([concepts], np.array([index]))


class TestAnnotationMatrix:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            AnnotationMatrix.build(np.array([[1.5]]), ["a"])

    def test_rejects_broken_intercept(self):
        with pytest.raises(ValueError):
            AnnotationMatrix(values=np.array([[0.5, 0.0]]), row_ids=("a",))

    def test_build_appends_intercept(self):
        phi = AnnotationMatrix.build(np.array([[0.2], [0.8]]), ["a", "b"])
        assert phi.values.shape == (2, 2)
        assert np.all(phi.values[:, -1] == 1.0)


class TestSigmoidPredictMany:
    """The batched scorer against one sigmoid_predict per (row, theta)."""

    @staticmethod
    def _instances(seed, binary, count=300):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            d, n, s = (int(v) for v in rng.integers(1, [8, 30, 20]))
            X = (rng.random((n, d)) < 0.5).astype(float) if binary else rng.random((n, d))
            X[:, -1] = 1.0
            yield X, rng.normal(0.0, 3.0, (s, d))

    @staticmethod
    def _reference(X, thetas):
        return np.array([[sigmoid_predict(t, row) for t in thetas] for row in X])

    def test_binary_designs_bitwise(self):
        for X, thetas in self._instances(0, binary=True):
            assert np.array_equal(sigmoid_predict_many(X, thetas), self._reference(X, thetas))

    def test_fractional_designs_within_bound(self):
        # the two summation orders of theta . row differ by at most
        # (d - 1) eps sum_j |x_j theta_j| (sigma' <= 1/4 carries a quarter of it
        # to p), plus a few eps for evaluating sigma at two nearby points
        eps = np.finfo(float).eps
        for X, thetas in self._instances(1, binary=False):
            got, ref = sigmoid_predict_many(X, thetas), self._reference(X, thetas)
            bound = (X.shape[1] - 1) * eps * (np.abs(X) @ np.abs(thetas).T) / 4 + 4 * eps
            assert np.all(np.abs(got - ref) <= bound)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sigmoid_predict_many(np.ones((4, 3)), np.zeros((2, 2)))


class TestPosteriorPredictive:
    def _sample(self, theta):
        cs = ConceptSet([Concept("Is it red?")])
        return PosteriorSample(concept_set=cs, theta=np.asarray(theta),
                               log_marginal_full=0.0, epoch=0, slot=0, accepted=True)

    def test_singleton_mean(self):
        s = self._sample([1.0, 0.0])
        row = np.array([0.5, 1.0])
        assert posterior_predictive([s], [row]) == sigmoid_predict(s.theta, row)

    def test_two_sample_mean(self):
        lo = self._sample([np.log(0.2 / 0.8), 0.0])
        hi = self._sample([np.log(0.8 / 0.2), 0.0])
        row = np.array([1.0, 0.0])
        assert posterior_predictive([lo, hi], [row, row]) == pytest.approx(0.5, abs=1e-12)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            posterior_predictive([], [])

    def test_round_trip_serialization(self):
        s = self._sample([0.3, -0.1])
        restored = PosteriorSample.from_dict(s.to_dict())
        assert restored.concept_set == s.concept_set
        assert np.allclose(restored.theta, s.theta)


class TestConfigValidation:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(gamma=0.0, k=1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(gamma=1.0, k=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12),
       gamma=st.sampled_from([0.5, 1.0, 2.0]))
def test_marginal_finite_and_map_converges(seed, n, gamma):
    rng = np.random.default_rng(seed)
    phi = AnnotationMatrix.build(rng.random((n, 1)), [str(i) for i in range(n)])
    y = (rng.random(n) < 0.5).astype(float)
    lm = log_marginal_likelihood(phi, y, ModelConfig(gamma=gamma, k=1))
    assert np.isfinite(lm.value)
    assert np.isfinite(lm.theta_map).all()
    # marginal likelihood is a probability of n binary outcomes
    assert lm.value < 0.0 or n == 0
