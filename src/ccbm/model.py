"""Probability core for the logistic concept model.

Gaussian-prior MAP estimation, Laplace-approximated log marginal likelihoods,
the damped Newton solver that every penalized logistic fit runs through, and
the posterior-predictive ensemble. Everything here is a pure function of its
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .concepts import ConceptSet


class OptimizationError(RuntimeError):
    """Newton solver failed to converge; carries the last iterate."""

    def __init__(self, message: str, theta: np.ndarray):
        super().__init__(message)
        self.theta = theta


class NumericalError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Prior scale and model size.

    gamma is the standard deviation of the N(0, gamma^2 I) prior on all
    coefficients, intercept included.
    """

    gamma: float
    k: int

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class AnnotationMatrix:
    """n x (K+1) design of concept extraction values plus an intercept column.

    Concept columns follow the concept-set order; the intercept column is last.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("annotation matrix must be 2-D")
        if self.values.shape[0] != len(self.row_ids):
            raise ValueError("row_ids must align with matrix rows")
        concept_cols = self.values[:, :-1]
        if concept_cols.size and (concept_cols.min() < 0 or concept_cols.max() > 1):
            raise ValueError("concept annotation values must lie in [0, 1]")
        if self.values.size and not np.all(self.values[:, -1] == 1.0):
            raise ValueError("intercept column must be all ones")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def build(concept_values: np.ndarray, row_ids: Sequence[str]) -> "AnnotationMatrix":
        concept_values = np.atleast_2d(np.asarray(concept_values, dtype=float))
        ones = np.ones((concept_values.shape[0], 1))
        return AnnotationMatrix(values=np.hstack([concept_values, ones]),
                                row_ids=tuple(row_ids))


@dataclass
class LogMarginal:
    """Laplace-approximated log marginal likelihood together with its MAP fit."""

    value: float
    theta_map: np.ndarray
    log_det_hessian: float


def log1pexp(z: np.ndarray) -> np.ndarray:
    """Overflow-safe log(1 + exp(z))."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_predict(theta: np.ndarray, phi_row: np.ndarray) -> float:
    """Probability sigma(theta . phi_row) for one annotated observation."""
    theta = np.asarray(theta, dtype=float)
    phi_row = np.asarray(phi_row, dtype=float)
    if theta.shape != phi_row.shape:
        raise ValueError(
            f"dimension mismatch: theta has shape {theta.shape}, row has {phi_row.shape}")
    return float(sigmoid(theta @ phi_row))


def sigmoid_predict_many(X: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """sigma(theta . row) for every row of the (n, d) design X and every row of
    the (S, d) thetas, as an (n, S) matrix.

    theta . row is summed column by column in index order, which is how
    theta @ row sums short vectors: on 0/1 designs with d <= 13 each entry
    equals sigmoid_predict(theta, row) bit for bit, where one X @ thetas.T
    product would not.
    """
    X = np.asarray(X, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != X.shape[1]:
        raise ValueError(
            f"dimension mismatch: thetas have shape {thetas.shape}, design has {X.shape}")
    z = X[:, :1] * thetas[:, 0]
    for j in range(1, X.shape[1]):
        z = z + X[:, j:j + 1] * thetas[:, j]
    return sigmoid(z)


class _Designs:
    """Stacked designs X (E, n, d) sharing the labels y and the N(0, gamma^2 I)
    prior: the fits of the concept model.

    theta holds one (d, 1) column per design, so each product is a
    matrix-vector product per design, as in a fit of that design alone.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, gamma: float):
        y = np.asarray(y, dtype=float)
        if X.shape[1] != y.shape[0]:
            raise ValueError("rows of phi must align with labels")
        self.X, self.y, self.gamma = X, y[:, None], gamma
        self.Xt = X.transpose(0, 2, 1)
        self.size, self.d = X.shape[0], X.shape[2]
        self.prior = np.eye(self.d) / gamma**2

    def take(self, keep: np.ndarray) -> "_Designs":
        return _Designs(self.X[keep], self.y[:, 0], self.gamma)

    def objective(self, theta: np.ndarray) -> np.ndarray:
        z = self.X @ theta
        # (0.5 theta)^T theta as a (1, d) @ (d, 1) product, one per design
        return ((-self.y * z + log1pexp(z)).sum(axis=1)[:, 0]
                + ((0.5 * theta).transpose(0, 2, 1) @ theta)[:, 0, 0] / self.gamma**2)

    def gradient(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = sigmoid(self.X @ theta)
        return self.Xt @ (p - self.y) + theta / self.gamma**2, p

    def hessian(self, p: np.ndarray) -> np.ndarray:
        w = p * (1.0 - p)
        return (self.X * w).transpose(0, 2, 1) @ self.X + self.prior


class SharedDesign:
    """One (n, d) design X with 0/1 labels y, fitted under many row weightings
    and per-coordinate ridge penalties in one stacked solve.

    The Hessian of every fit is one product W @ Q of the (E, n) weighted
    curvatures with the (n, d(d+1)/2) table Q of column-pair products, which
    is built once here. Q takes n d(d+1)/2 floats.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        n, d = self.X.shape
        if self.y.shape != (n,):
            raise ValueError("labels must align with design rows")
        rows, cols = np.triu_indices(d)
        self.pairs = np.empty((n, len(rows)))
        for j in range(d):  # filled in place, one block of columns per j
            start = j * d - j * (j - 1) // 2
            np.multiply(self.X[:, j:j + 1], self.X[:, j:], out=self.pairs[:, start:start + d - j])
        # column of pairs holding each entry of the symmetric d x d Hessian
        self.unpack = np.empty((d, d), dtype=int)
        self.unpack[rows, cols] = self.unpack[cols, rows] = np.arange(len(rows))
        self.unpack = self.unpack.ravel()

    def fit(self, weights: np.ndarray, penalty: np.ndarray, tol: float = 1e-8,
            max_iter: int = 200) -> np.ndarray:
        """MAP coefficients (E, d) of the E losses
        sum_i weights[e, i] [-y_i z_i + log(1 + exp(z_i))] + 1/2 sum_j penalty[e, j] beta_j^2,
        by damped Newton from 0; raises OptimizationError if one does not converge."""
        return _newton(_Penalized(self, np.asarray(weights, dtype=float),
                                  np.asarray(penalty, dtype=float)), tol, max_iter)[0]


class _Penalized:
    """The fits of a SharedDesign under row weights (E, n) and penalties (E, d).

    The curvature is floored at 1e-10 and 1e-10 is added to the Hessian's
    diagonal, so an unpenalized coordinate stays solvable on saturated rows.
    """

    def __init__(self, design: SharedDesign, weights: np.ndarray, penalty: np.ndarray):
        self.design, self.weights, self.penalty = design, weights, penalty
        self.size, self.d = penalty.shape

    def take(self, keep: np.ndarray) -> "_Penalized":
        return _Penalized(self.design, self.weights[keep], self.penalty[keep])

    def objective(self, theta: np.ndarray) -> np.ndarray:
        beta = theta[:, :, 0]
        z = beta @ self.design.X.T
        return ((self.weights * (-self.design.y * z + log1pexp(z))).sum(axis=1)
                + 0.5 * (self.penalty * beta * beta).sum(axis=1))

    def gradient(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        beta = theta[:, :, 0]
        p = sigmoid(beta @ self.design.X.T)
        grad = (self.weights * (p - self.design.y)) @ self.design.X + self.penalty * beta
        return grad[:, :, None], p

    def hessian(self, p: np.ndarray) -> np.ndarray:
        packed = (self.weights * np.maximum(p * (1.0 - p), 1e-10)) @ self.design.pairs
        H = packed[:, self.design.unpack].reshape(self.size, self.d, self.d)
        diag = np.arange(self.d)
        H[:, diag, diag] += self.penalty + 1e-10
        return H


class _Stack:
    """Results for a stack of designs, filled in as designs leave it.

    A stack whose designs all leave at once keeps its arrays as they are;
    only a partial exit needs the index bookkeeping.
    """

    def __init__(self, size: int):
        self.size = size
        self.index: Optional[np.ndarray] = None  # original position of each pending design
        self.out: Optional[Sequence[np.ndarray]] = None

    def settle(self, mask: np.ndarray, arrays: Sequence[np.ndarray]) -> bool:
        """Record the pending designs under mask; True once none is pending."""
        count = np.count_nonzero(mask)
        if count == 0:
            return False
        if self.out is None:
            if count == self.size:
                self.out = arrays
                return True
            self.index = np.arange(self.size)
            self.out = [np.empty((self.size, *a.shape[1:])) for a in arrays]
        for out, a in zip(self.out, arrays):
            out[self.index[mask]] = a[mask]
        self.index = self.index[~mask]
        return count == len(mask)


def _line_search(problem, theta, g, grad, step):
    """Backtracking line search along -step, per design; every design tries
    the same step lengths 1, 1/2, 1/4, ... until it accepts one."""
    decrement = (grad.transpose(0, 2, 1) @ step)[:, 0, 0]
    # the epsilon term absorbs floating-point noise once the decrement falls
    # below machine precision
    slack = 1e-12 * np.maximum(1.0, np.abs(g))
    stack = _Stack(len(g))
    t = 1.0
    for _ in range(50):
        cand = theta - t * step
        g_cand = problem.objective(cand)
        ok = g_cand <= g - 1e-4 * t * decrement + slack
        if stack.settle(ok, (cand, g_cand)):
            return stack.out
        if stack.index is not None and len(stack.index) < len(g):
            problem = problem.take(~ok)
            theta, g, step, decrement, slack = (
                a[~ok] for a in (theta, g, step, decrement, slack))
        t *= 0.5
    raise OptimizationError("line search failed to make progress", theta[0, :, 0])


def _newton(problem, tol: float, max_iter: int) -> Sequence[np.ndarray]:
    """Damped Newton from 0 for a stack of penalized logistic fits (_Designs
    or _Penalized).

    Returns theta (E, d), the objective (E,) and the fitted probabilities at
    the optimum. Fits leave the stack as they converge; one that fails
    raises OptimizationError with its last iterate.
    """
    stack = _Stack(problem.size)
    theta = np.zeros((problem.size, problem.d, 1))
    g = problem.objective(theta)
    for it in range(max_iter + 1):
        grad, p = problem.gradient(theta)
        converged = np.abs(grad).max(axis=1)[:, 0] <= tol
        if stack.settle(converged, (theta, g, p)):
            theta, g, p = stack.out
            return theta[:, :, 0], g, p
        if stack.index is not None and len(stack.index) < len(g):
            problem = problem.take(~converged)
            theta, g, p, grad = (a[~converged] for a in (theta, g, p, grad))
        if it == max_iter:
            raise OptimizationError(
                f"Newton did not converge in {max_iter} iterations "
                f"(grad inf-norm {np.max(np.abs(grad[0])):.3e})", theta[0, :, 0])
        step = np.linalg.solve(problem.hessian(p), grad)
        theta, g = _line_search(problem, theta, g, grad, step)


def map_estimate(phi: AnnotationMatrix, y: np.ndarray, cfg: ModelConfig,
                 tol: float = 1e-8, max_iter: int = 100) -> np.ndarray:
    """Ridge-logistic MAP coefficients via damped Newton.

    Minimizes sum_i [-y_i z_i + log(1+exp(z_i))] + ||theta||^2 / (2 gamma^2)
    starting from 0, to gradient infinity-norm <= tol. The objective is
    strongly convex so Newton with backtracking always converges in a handful
    of steps at this dimension.
    """
    return _newton(_Designs(phi.values[None], y, cfg.gamma), tol, max_iter)[0][0]


def log_marginal_likelihoods(X: np.ndarray, y: np.ndarray, gamma: float,
                             tol: float = 1e-8, max_iter: int = 100
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Laplace log marginal likelihoods of a stack of designs X (E, n, d).

    The designs share the labels y and the N(0, gamma^2 I) prior; the caller
    has validated their values (see AnnotationMatrix). Returns the log
    marginals (E,), the MAP coefficients (E, d) and log det H (E,). Each
    design's results are bit-identical to fitting it alone.
    """
    d = X.shape[2]
    designs = _Designs(X, y, gamma)
    theta, g, p = _newton(designs, tol, max_iter)
    H = designs.hessian(p)
    try:
        chol = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:  # H >= gamma^-2 I, so this is diagnostic only
        raise NumericalError(
            f"Hessian factorization failed (cond ~ {np.max(np.linalg.cond(H)):.3e})") from exc
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    value = -g - 0.5 * d * np.log(gamma**2) - 0.5 * log_det
    if not np.all(np.isfinite(value)):
        raise NumericalError("non-finite log marginal likelihood")
    return value, theta, log_det


def log_marginal_likelihood(phi: AnnotationMatrix, y: np.ndarray,
                            cfg: ModelConfig) -> LogMarginal:
    """Laplace approximation of the log marginal likelihood.

    log p(y | c, X) ~= -g(theta_MAP) - (d/2) log(gamma^2) - 1/2 log det H,
    where H = sum_i sigma_i (1-sigma_i) phi_i phi_i^T + gamma^-2 I. The two
    (2 pi)^{d/2} factors from the prior normalization and the Gaussian
    integral cancel exactly. For empty data this is identically 0.
    """
    value, theta, log_det = log_marginal_likelihoods(phi.values[None], y, cfg.gamma)
    return LogMarginal(value=float(value[0]), theta_map=theta[0],
                       log_det_hessian=float(log_det[0]))


@dataclass
class PosteriorSample:
    """One recorded chain state with its full-data MAP fit."""

    concept_set: ConceptSet
    theta: np.ndarray
    log_marginal_full: float
    epoch: int
    slot: int
    accepted: bool
    burn_in: bool = False
    phase: str = "sample"  # "warm_start" or "sample"

    def to_dict(self) -> dict:
        return {
            "concepts": [{"question": c.question, "id": c.id} for c in self.concept_set],
            "theta": [float(t) for t in self.theta],
            "log_marginal_full": self.log_marginal_full,
            "epoch": self.epoch,
            "slot": self.slot,
            "accepted": self.accepted,
            "burn_in": self.burn_in,
            "phase": self.phase,
        }

    @staticmethod
    def from_dict(d: dict) -> "PosteriorSample":
        from .concepts import Concept
        return PosteriorSample(
            concept_set=ConceptSet(Concept(c["question"]) for c in d["concepts"]),
            theta=np.asarray(d["theta"], dtype=float),
            log_marginal_full=d["log_marginal_full"],
            epoch=d["epoch"],
            slot=d["slot"],
            accepted=d["accepted"],
            burn_in=d.get("burn_in", False),
            phase=d.get("phase", "sample"),
        )


def posterior_predictive(samples: Sequence[PosteriorSample],
                         phi_rows: Sequence[np.ndarray]) -> float:
    """Ensemble probability: mean of per-sample plug-in predictions.

    phi_rows[i] must be the observation annotated under samples[i]'s concept
    set (intercept included), since each sample sees its own design.
    """
    if not samples:
        raise ValueError("posterior predictive requires at least one sample")
    if len(phi_rows) != len(samples):
        raise ValueError("need one annotated row per posterior sample")
    preds = [sigmoid_predict(s.theta, row) for s, row in zip(samples, phi_rows)]
    return float(np.mean(preds))
