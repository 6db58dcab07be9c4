import numpy as np
import pytest

from ccbm.model import sigmoid
from ccbm.oracle import KeyphraseBag, Observation, keyword_value, normalize_phrase
from ccbm.synthetic import (CLINICAL_FEATURES, SyntheticSpec, clinical_spec,
                            generate_synthetic)

from conftest import make_pool_dataset


class TestClinicalSpec:
    def test_coefficients_and_support(self):
        spec = clinical_spec(n=100)
        assert spec.coefficients == [4.0, 4.0, 4.0, -4.0, 5.0]
        assert spec.true_support == [0, 1, 2, 3, 4]
        assert len(spec.pool) == 30

    def test_decoy_count_configurable(self):
        assert len(clinical_spec(n=10, n_decoys=3).pool) == 8

    def test_feature_names_drive_payloads(self):
        data = generate_synthetic(clinical_spec(n=50, seed=1))
        names = [name for _, name, _ in CLINICAL_FEATURES]
        for i, obs in enumerate(data.observations):
            for j, name in enumerate(names):
                assert keyword_value(obs.payload, name) == data.annotations[i, j]


class TestGenerator:
    def test_null_coefficients_give_balanced_labels(self):
        spec = SyntheticSpec(n=2000, pool=[("Is f0 present?", "f0")],
                             true_support=[0], coefficients=[0.0], seed=0)
        data = generate_synthetic(spec)
        assert abs(float(np.mean(data.labels)) - 0.5) <= 0.03

    def test_conditional_log_odds_recovered(self):
        spec = SyntheticSpec(n=50_000, pool=[("Is f0 present?", "f0")],
                             true_support=[0], coefficients=[2.0], seed=7)
        data = generate_synthetic(spec)
        on = data.labels[data.annotations[:, 0] == 1].mean()
        off = data.labels[data.annotations[:, 0] == 0].mean()
        log_odds = np.log(on / (1 - on)) - np.log(off / (1 - off))
        assert log_odds == pytest.approx(2.0, abs=0.15)

    def test_bit_reproducible(self):
        a = make_pool_dataset(seed=21)
        b = make_pool_dataset(seed=21)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.annotations, b.annotations)
        assert [o.id for o in a.observations] == [o.id for o in b.observations]
        assert [o.payload for o in a.observations] == [o.payload for o in b.observations]

    def test_different_seeds_differ(self):
        a = make_pool_dataset(seed=21)
        b = make_pool_dataset(seed=22)
        assert not np.array_equal(a.annotations, b.annotations)

    def test_truth_matches_support(self):
        data = make_pool_dataset(true_support=(2, 5), coefficients=(1.0, -1.0))
        assert data.truth.id_set() == {data.pool_concepts[2].concept.id,
                                       data.pool_concepts[5].concept.id}

    def test_bags_mirror_annotations(self):
        data = make_pool_dataset(n=30)
        for i, bag in enumerate(data.bags):
            active = {f"feat{j}" for j in range(10) if data.annotations[i, j] >= 0.5}
            assert bag.phrases == frozenset(active)

    def test_feature_probability_vector(self):
        spec = SyntheticSpec(
            n=5000, pool=[("Is f0 present?", "f0"), ("Is f1 present?", "f1")],
            true_support=[0], coefficients=[1.0],
            feature_probs=[0.9, 0.1], seed=3)
        data = generate_synthetic(spec)
        assert data.annotations[:, 0].mean() == pytest.approx(0.9, abs=0.02)
        assert data.annotations[:, 1].mean() == pytest.approx(0.1, abs=0.02)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, pool=[("q?", "f")], true_support=[0],
                          coefficients=[1.0, 2.0])
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, pool=[("q?", "f")], true_support=[3],
                          coefficients=[1.0])


def per_row_reference(spec):
    """generate_synthetic, one row at a time with one normalize_phrase call
    per active feature."""
    rng = np.random.default_rng(spec.seed)
    p_count = len(spec.pool)
    probs = np.broadcast_to(np.asarray(spec.feature_probs, dtype=float), (p_count,))
    features = (rng.random((spec.n, p_count)) < probs[None, :]).astype(float)
    logits = spec.intercept + features[:, spec.true_support] @ np.asarray(spec.coefficients)
    labels = (rng.random(spec.n) < sigmoid(logits)).astype(int)
    observations, bags = [], []
    for i in range(spec.n):
        active = [spec.pool[j][1] for j in range(p_count) if features[i, j] >= 0.5]
        text = "The record notes: " + (", ".join(active) if active else "nothing notable") + "."
        obs_id = f"obs-{spec.seed}-{i:05d}"
        observations.append(Observation(id=obs_id, payload=text, label=int(labels[i])))
        bags.append(KeyphraseBag(obs_id, frozenset(normalize_phrase(a) for a in active)))
    return features, labels, observations, bags


@pytest.mark.parametrize("spec", [
    clinical_spec(n=300, seed=5),
    # keywords that normalization changes, and sparse rows (about half have nothing active)
    SyntheticSpec(n=200, pool=[("q0?", "Alcohol  Use"), ("q1?", " SMOKING "),
                               ("q2?", "drug-use"), ("q3?", "Alcohol Use")],
                  true_support=[0, 2], coefficients=[1.5, -1.0], intercept=0.3,
                  feature_probs=[0.2, 0.1, 0.3, 0.05], seed=9),
])
def test_rows_equal_per_row_reference(spec):
    data = generate_synthetic(spec)
    features, labels, observations, bags = per_row_reference(spec)
    assert np.array_equal(data.annotations, features)
    assert np.array_equal(data.labels, labels)
    assert data.observations == observations
    assert data.bags == bags
