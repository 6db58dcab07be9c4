import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbm.concepts import Concept, ConceptSet
from ccbm.model import (OptimizationError, PosteriorSample, log1pexp, log1pexp_sigmoid,
                        log_marginal_likelihoods, logsumexp, posterior_predictive,
                        sigmoid, sigmoid_predict, sigmoid_predict_many, stack_designs)
from ccbm.sampler import GibbsData, _MarginalCache

from conftest import quadrature_log_marginal


def one_design(values):
    """The stack_designs stack (1, n, d+1) of one design: the d columns of
    values, then the intercept."""
    values = np.asarray(values, dtype=float)
    return stack_designs(values, [range(values.shape[1])])


def random_instance(rng, n, gamma):
    X = one_design(rng.random((n, 1)))
    y = (rng.random(n) < 0.5).astype(float)
    return X, y, gamma


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
            gamma = float(rng.choice([0.5, 0.7, 1.0, 1.5, 2.0, 3.0]))
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
            gamma = float(rng.choice([0.5, 0.7, 1.0, 1.5, 2.0, 3.0]))
            X = random_stack(rng, 1, n, d)
            y = (rng.random(n) < 0.5).astype(float)
            value, theta, log_det = serial_laplace(X[0], y, gamma)
            values, thetas, log_dets = log_marginal_likelihoods(X, y, gamma)
            assert values[0] == value and log_dets[0] == log_det
            assert np.array_equal(thetas[0], theta)

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
        with pytest.raises(OptimizationError):
            log_marginal_likelihoods(X[1:], y, 4.0, max_iter=3)


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


def masked_log1pexp(z):
    """The masked reference: one branch per sign of z."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def masked_sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestBranchFreeKernels:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(11)
        magnitudes = 10.0 ** rng.uniform(-300, 300, size=4000)
        signs = rng.choice([-1.0, 1.0], size=4000)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.79, -709.79, 745.2, -745.2,
                 1e308, -1e308, 1.0, -1.0, 36.0, -36.0, 1e-300, -1e-300]
        return [np.concatenate([magnitudes * signs, edges]),
                rng.normal(scale=8.0, size=(9, 30)),
                rng.normal(scale=40.0, size=(25, 800))]

    @staticmethod
    def shared_log1pexp(z):
        return log1pexp_sigmoid(np.asarray(z, dtype=float))[0]

    @staticmethod
    def shared_sigmoid(z):
        return log1pexp_sigmoid(np.asarray(z, dtype=float))[1]

    @pytest.mark.parametrize("kernel, reference", [
        (log1pexp, masked_log1pexp), (sigmoid, masked_sigmoid),
        # the Newton objectives' kernel, one exp(-|z|) for both
        (shared_log1pexp, masked_log1pexp), (shared_sigmoid, masked_sigmoid),
        (shared_log1pexp, log1pexp), (shared_sigmoid, sigmoid)])
    def test_bit_identical_to_masked_reference(self, kernel, reference):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # an overflow fails the test
            for z in self.inputs():
                got, want = kernel(z), reference(z)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)  # NaN stays NaN, of either sign
                assert got[~nan].tobytes() == want[~nan].tobytes()


class TestLogSumExp:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(5)
        for _ in range(3000):
            a = rng.normal(scale=10.0 ** rng.uniform(-3, np.log10(800)),
                           size=int(rng.integers(1, 41)))
            if rng.random() < 0.3:  # ties at the max
                a[rng.integers(len(a), size=int(rng.integers(1, len(a) + 1)))] = a.max()
            if rng.random() < 0.3:  # scattered -inf entries
                a[rng.random(len(a)) < 0.3] = -np.inf
            yield a
        yield from (np.full(n, -np.inf) for n in (1, 2, 7))
        yield from (np.zeros(n) for n in (1, 3, 40))

    def test_bit_identical_to_scipy(self):
        from scipy.special import logsumexp as scipy_logsumexp
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for a in self.inputs():
                want = scipy_logsumexp(a)
                got = logsumexp(a)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), a

    def test_all_minus_inf_is_minus_inf(self):
        assert logsumexp([-np.inf, -np.inf]) == -np.inf

    def test_input_left_unchanged(self):
        a = np.array([1.0, 3.0, 3.0, -np.inf])
        logsumexp(a)
        assert a.tolist() == [1.0, 3.0, 3.0, -np.inf]


class TestMapEstimate:
    def test_empty_data_prior_mode(self):
        theta = log_marginal_likelihoods(np.zeros((1, 0, 2)), np.zeros(0), 1.0)[1][0]
        assert np.array_equal(theta, np.zeros(2))

    def test_balanced_labels_give_zero(self):
        # identical rows with labels {0,1}: logistic gradient vanishes at 0
        theta = log_marginal_likelihoods(one_design([[0.7], [0.7]]), np.array([0.0, 1.0]),
                                         1.0)[1][0]
        assert np.max(np.abs(theta)) < 1e-8

    def test_matches_gradient_descent_oracle(self, rng):
        X, y, gamma = random_instance(rng, 8, 1.0)
        theta = log_marginal_likelihoods(X, y, gamma)[1][0]
        # independent plain gradient-descent minimizer of the same objective
        ref = np.zeros(2)
        for _ in range(200000):
            z = X[0] @ ref
            grad = X[0].T @ (sigmoid(z) - y) + ref / gamma**2
            ref -= 0.05 * grad
        assert np.max(np.abs(theta - ref)) < 1e-6

    def test_gradient_norm_at_solution(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            X, y, gamma = random_instance(r, 12, 0.7)
            theta = log_marginal_likelihoods(X, y, gamma)[1][0]
            z = X[0] @ theta
            grad = X[0].T @ (sigmoid(z) - y) + theta / gamma**2
            assert np.max(np.abs(grad)) <= 1e-8

    def test_matches_sklearn_reference(self, rng):
        sklearn = pytest.importorskip("sklearn.linear_model")
        X = one_design(rng.random((40, 2)))
        y = (rng.random(40) < 0.5).astype(float)
        for gamma in (0.5, 1.0, 2.0):
            theta = log_marginal_likelihoods(X, y, gamma)[1][0]
            ref = sklearn.LogisticRegression(
                C=gamma**2, fit_intercept=False, tol=1e-12, max_iter=5000)
            ref.fit(X[0], y)
            assert np.max(np.abs(ref.coef_.ravel() - theta)) < 1e-6


class TestLogMarginal:
    def test_empty_data_is_exactly_zero(self):
        assert log_marginal_likelihoods(np.zeros((1, 0, 2)), np.zeros(0), 1.0)[0][0] == 0.0

    def test_tiny_gamma_collapses_to_coin_flips(self):
        n = 7
        X = one_design(np.linspace(0, 1, n)[:, None])
        y = np.array([0, 1, 0, 1, 1, 0, 1], dtype=float)
        value = log_marginal_likelihoods(X, y, 1e-4)[0][0]
        assert value == pytest.approx(-n * np.log(2), rel=1e-4)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(42)
        X, y, gamma = random_instance(rng, 6, 1.0)
        value = log_marginal_likelihoods(X, y, gamma)[0][0]
        ref = quadrature_log_marginal(X[0], y, gamma)
        assert abs(value - ref) / abs(ref) <= 0.02

    def test_permutation_invariance(self, rng):
        X, y, gamma = random_instance(rng, 9, 1.0)
        perm = rng.permutation(9)
        a = log_marginal_likelihoods(X, y, gamma)[0][0]
        b = log_marginal_likelihoods(X[:, perm], y[perm], gamma)[0][0]
        assert a == pytest.approx(b, abs=1e-9)

    def test_column_permutation_invariance(self, rng):
        X = rng.random((10, 2))
        y = (rng.random(10) < 0.5).astype(float)
        a_value, a_theta, _ = log_marginal_likelihoods(one_design(X), y, 1.0)
        b_value, b_theta, _ = log_marginal_likelihoods(one_design(X[:, ::-1]), y, 1.0)
        assert a_value[0] == pytest.approx(b_value[0], abs=1e-9)
        assert a_theta[0, 0] == pytest.approx(b_theta[0, 1], abs=1e-7)

    def test_hessian_dominates_prior_precision(self, rng):
        X, y, gamma = random_instance(rng, 8, 1.0)
        theta = log_marginal_likelihoods(X, y, gamma)[1][0]
        p = sigmoid(X[0] @ theta)
        H = (X[0] * (p * (1 - p))[:, None]).T @ X[0]
        assert np.min(np.linalg.eigvalsh(H)) > -1e-12

    def test_duplication_moves_per_observation_marginal_toward_plugin(self, rng):
        # doubling the data amortizes the complexity penalty: the per-row
        # marginal rises toward the plug-in average log-likelihood
        X, y, gamma = random_instance(rng, 8, 1.0)
        values, thetas, _ = log_marginal_likelihoods(X, y, gamma)
        z = X[0] @ thetas[0]
        plugin_avg = float(np.mean(y * z - np.logaddexp(0.0, z)))
        doubled = log_marginal_likelihoods(np.concatenate([X, X], axis=1),
                                           np.concatenate([y, y]), gamma)[0][0]
        assert values[0] / len(y) < doubled / (2 * len(y)) < plugin_avg


class TestStackDesigns:
    def test_columns_in_list_order_then_the_intercept(self):
        table = np.arange(12.0).reshape(4, 3) / 12
        rows = np.array([3, 0])
        X = stack_designs(table, [[2, 0], [1, 1]], rows)
        assert X.shape == (2, 2, 3) and X.flags.c_contiguous
        assert np.array_equal(X[0, :, :2], table[np.ix_(rows, [2, 0])])
        assert np.array_equal(X[1, :, :2], table[np.ix_(rows, [1, 1])])
        assert np.all(X[:, :, -1] == 1.0)


class TestPartialBayes:
    """_MarginalCache.log_partial_bayes: log p(y_{S^c} | y_S, c, X) as a
    difference of two Laplace marginals, here of one concept set."""

    @staticmethod
    def marginals(X, y, gamma):
        data = GibbsData(y, lambda concepts: X[0, :, :-1])
        return _MarginalCache(data, gamma), [Concept("Is it x?")]

    def test_full_subset_is_zero(self, rng):
        X, y, gamma = random_instance(rng, 8, 1.0)
        cache, concepts = self.marginals(X, y, gamma)
        assert cache.log_partial_bayes([concepts], np.arange(8))[0] == 0.0

    def test_empty_subset_is_full_marginal(self, rng):
        X, y, gamma = random_instance(rng, 8, 1.0)
        full = log_marginal_likelihoods(X, y, gamma)[0][0]
        cache, concepts = self.marginals(X, y, gamma)
        assert cache.log_partial_bayes([concepts], np.array([], dtype=int))[0] == full

    def test_chain_rule_identity(self, rng):
        X, y, gamma = random_instance(rng, 10, 1.0)
        s = np.array([0, 2, 5, 7])
        cache, concepts = self.marginals(X, y, gamma)
        lhs = log_marginal_likelihoods(X, y, gamma)[0][0]
        rhs = (log_marginal_likelihoods(X[:, s], y[s], gamma)[0][0]
               + cache.log_partial_bayes([concepts], s)[0])
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_quadrature_difference(self):
        rng = np.random.default_rng(42)
        X, y, gamma = random_instance(rng, 8, 1.0)
        s = np.arange(4)
        cache, concepts = self.marginals(X, y, gamma)
        lpb = cache.log_partial_bayes([concepts], s)[0]
        ref = (quadrature_log_marginal(X[0], y, gamma)
               - quadrature_log_marginal(X[0, s], y[s], gamma))
        assert abs(lpb - ref) / abs(ref) <= 0.02

    def test_out_of_range_subset_rejected(self, rng):
        X, y, gamma = random_instance(rng, 5, 1.0)
        cache, concepts = self.marginals(X, y, gamma)
        for index in (7, -1):
            with pytest.raises(ValueError):
                cache.log_partial_bayes([concepts], np.array([index]))


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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12),
       gamma=st.sampled_from([0.5, 1.0, 2.0]))
def test_marginal_finite_and_map_converges(seed, n, gamma):
    rng = np.random.default_rng(seed)
    X = one_design(rng.random((n, 1)))
    y = (rng.random(n) < 0.5).astype(float)
    values, thetas, _ = log_marginal_likelihoods(X, y, gamma)
    assert np.isfinite(values[0])
    assert np.isfinite(thetas[0]).all()
    # marginal likelihood is a probability of n binary outcomes
    assert values[0] < 0.0 or n == 0
