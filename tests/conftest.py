import numpy as np
import pytest

from ccbm.concepts import Concept, ConceptSet
from ccbm.oracle import AnnotationCache, PoolConcept, PoolOracle
from ccbm.synthetic import SyntheticSpec, generate_synthetic


def make_pool_dataset(n=60, pool_size=10, coefficients=(2.5, -2.5), seed=11,
                      true_support=(0, 1)):
    spec = SyntheticSpec(
        n=n,
        pool=[(f"Is feature {i} present?", f"feat{i}") for i in range(pool_size)],
        true_support=list(true_support),
        coefficients=list(coefficients),
        seed=seed,
    )
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def pool_dataset():
    """10-feature testbed with a concentrated 2-concept posterior."""
    return make_pool_dataset()


def make_oracle(data, weight_mode="exact"):
    return PoolOracle(data.pool_concepts, data.observations,
                      annotation_matrix=data.annotations,
                      weight_mode=weight_mode, cache=AnnotationCache())


def quadrature_log_marginal(phi_values, y, gamma, lo=-8.0, hi=8.0, nodes=400):
    """Independent 2-D trapezoid-rule oracle for the d=2 log marginal."""
    grid = np.linspace(lo, hi, nodes)
    t0, t1 = np.meshgrid(grid, grid, indexing="ij")
    log_prior = (-0.5 * (t0**2 + t1**2) / gamma**2
                 - np.log(2 * np.pi * gamma**2))
    z = (phi_values[:, 0][:, None, None] * t0[None]
         + phi_values[:, 1][:, None, None] * t1[None])
    log_lik = np.sum(np.asarray(y)[:, None, None] * z
                     - np.logaddexp(0.0, z), axis=0)
    log_f = log_prior + log_lik
    peak = log_f.max()
    f = np.exp(log_f - peak)
    integral = np.trapezoid(np.trapezoid(f, grid, axis=1), grid, axis=0)
    return peak + np.log(integral)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
