"""Probability core for the logistic concept model.

Gaussian-prior MAP estimation, Laplace-approximated log marginal likelihoods,
the one damped Newton solver that every penalized logistic fit runs through
(the concept model's stacked fits and the keyphrase model's ridge fit), and
the posterior-predictive ensemble. Everything here is a pure function of its
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .concepts import Concept, ConceptSet


class OptimizationError(RuntimeError):
    """Newton solver failed to converge; carries the last iterate."""

    def __init__(self, message: str, theta: np.ndarray):
        super().__init__(message)
        self.theta = theta


class NumericalError(RuntimeError):
    pass


def stack_designs(table: np.ndarray, columns: Sequence[Sequence[int]],
                  rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The row-major (E, n, K+1) stack of E designs: each list's K columns of
    the (n, C) annotation table in its order, then the intercept column; with
    rows, only those rows. Every design the program fits or scores is laid
    out here, since a design's layout sets the rounding of its products."""
    columns = np.asarray(columns, dtype=int)
    table = table if rows is None else table[rows]
    X = np.ones((columns.shape[0], table.shape[0], columns.shape[1] + 1))
    X[:, :, :-1] = table[:, columns].transpose(1, 0, 2)
    return X


def log1pexp(z: np.ndarray) -> np.ndarray:
    """Overflow-safe log(1 + exp(z)), without branches."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def logsumexp(a) -> float:
    """log(sum(exp(a))) over a 1-D array.

    Follows scipy.special.logsumexp's order of operations, so the result is
    bit-identical to it: the elements equal to the max are set to -inf in
    place (the length, and so numpy's pairwise summation order, is kept) and
    enter as log(m) for their count m.
    """
    a = np.array(a, dtype=float)
    a_max = np.max(a)
    if not np.isfinite(a_max):  # all -inf (or an inf/nan entry): the direct sum decides
        with np.errstate(divide="ignore"):
            return float(np.log(np.sum(np.exp(a))))
    at_max = a == a_max
    m = float(np.count_nonzero(at_max))
    a[at_max] = -np.inf
    s = np.sum(np.exp(a - a_max))
    if s != 0:
        s /= m
    return float(np.log1p(s) + np.log(m) + a_max)


def sigmoid(z):
    """Overflow-safe 1 / (1 + exp(-z)), without branches."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def log1pexp_sigmoid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log1pexp(z), sigmoid(z)), bit for bit, from one exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(e), np.where(z >= 0, 1.0, e) / (1.0 + e)


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
    """Stacked designs X (E, n, d) sharing the labels y and the
    N(0, gamma^2 diag(variance)) prior: the fits of the concept model, and the
    keyphrase model's one ridge fit.

    theta holds one (d, 1) column per design, so each product is a
    matrix-vector product per design, as in a fit of that design alone. At
    the default variance, a scalar 1.0, each prior term is multiplied by
    exactly 1.0, so a concept-model fit rounds bit for bit as the plain
    N(0, gamma^2 I) fit would.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, gamma: float, variance=1.0):
        y = np.asarray(y, dtype=float)
        if X.shape[1] != y.shape[0]:
            raise ValueError("rows of phi must align with labels")
        self.X, self.y, self.gamma, self.variance = X, y[:, None], gamma, variance
        self.Xt = X.transpose(0, 2, 1)
        self.size, self.d = X.shape[0], X.shape[2]
        # the prior precision times gamma^2: a scalar, or a (d, 1) column, one per coordinate
        self.precision = 1.0 / variance
        self.prior = np.eye(self.d) * self.precision / gamma**2

    def take(self, keep: np.ndarray) -> "_Designs":
        return _Designs(self.X[keep], self.y[:, 0], self.gamma, self.variance)

    def objective(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = self.X @ theta
        loss, p = log1pexp_sigmoid(z)
        # (0.5 theta)^T (precision theta) as a (1, d) @ (d, 1) product, one per design
        return ((-self.y * z + loss).sum(axis=1)[:, 0]
                + ((0.5 * theta).transpose(0, 2, 1) @ (self.precision * theta))[:, 0, 0]
                / self.gamma**2), p

    def gradient(self, theta: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self.Xt @ (p - self.y) + self.precision * theta / self.gamma**2

    def hessian(self, p: np.ndarray) -> np.ndarray:
        w = p * (1.0 - p)
        return (self.X * w).transpose(0, 2, 1) @ self.X + self.prior


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
    the same step lengths 1, 1/2, 1/4, ... until it accepts one.

    Returns the accepted theta, its objective and its fitted probabilities."""
    decrement = (grad.transpose(0, 2, 1) @ step)[:, 0, 0]
    # the epsilon term absorbs floating-point noise once the decrement falls
    # below machine precision
    slack = 1e-12 * np.maximum(1.0, np.abs(g))
    stack = _Stack(len(g))
    t = 1.0
    for _ in range(50):
        cand = theta - t * step
        g_cand, p_cand = problem.objective(cand)
        ok = g_cand <= g - 1e-4 * t * decrement + slack
        if stack.settle(ok, (cand, g_cand, p_cand)):
            return stack.out
        if stack.index is not None and len(stack.index) < len(g):
            problem = problem.take(~ok)
            theta, g, step, decrement, slack = (
                a[~ok] for a in (theta, g, step, decrement, slack))
        t *= 0.5
    raise OptimizationError("line search failed to make progress", theta[0, :, 0])


def _newton(problem, tol: float, max_iter: int) -> Sequence[np.ndarray]:
    """Damped Newton from 0 for a stack of penalized logistic fits (_Designs).

    Returns theta (E, d), the objective (E,) and the fitted probabilities at
    the optimum. Fits leave the stack as they converge; one that fails
    raises OptimizationError with its last iterate.
    """
    stack = _Stack(problem.size)
    theta = np.zeros((problem.size, problem.d, 1))
    g, p = problem.objective(theta)
    for it in range(max_iter + 1):
        grad = problem.gradient(theta, p)
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
        theta, g, p = _line_search(problem, theta, g, grad, step)


def log_marginal_likelihoods(X: np.ndarray, y: np.ndarray, gamma: float,
                             tol: float = 1e-8, max_iter: int = 100
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Laplace log marginal likelihoods of a stack of designs X (E, n, d):
    -g(theta_MAP) - (d/2) log(gamma^2) - 1/2 log det H for each, with g the
    penalized loss, theta_MAP its damped-Newton minimizer and H its Hessian
    there. The (2 pi)^{d/2} factors cancel, so empty data gives exactly 0.

    The designs share the labels y and the N(0, gamma^2 I) prior; the caller
    has checked their values lie in [0, 1] (see GibbsData.fill). Returns the
    log marginals (E,), the MAP coefficients (E, d) and log det H (E,).
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


def map_fit(X: np.ndarray, y: np.ndarray, variance: np.ndarray, tol: float = 1e-8,
            max_iter: int = 200) -> np.ndarray:
    """MAP coefficients (d,) of one logistic design X (n, d) with labels y
    under the N(0, diag(variance)) prior, by the damped Newton every fit runs
    through; raises OptimizationError if it does not converge."""
    problem = _Designs(X[None], y, 1.0, np.asarray(variance, dtype=float)[:, None])
    return _newton(problem, tol, max_iter)[0][0]


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
    def from_dict(d: dict, concept_set: Optional[ConceptSet] = None) -> "PosteriorSample":
        """The sample d records; concept_set, if given, is d's concepts built
        already (a loader of many samples builds each set once)."""
        if concept_set is None:
            concept_set = ConceptSet(Concept(c["question"]) for c in d["concepts"])
        return PosteriorSample(
            concept_set=concept_set,
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
