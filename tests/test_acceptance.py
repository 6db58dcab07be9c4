"""End-to-end acceptance gate.

Each test covers one numbered criterion at its stated tolerance and prints a
single pass line with the measured value.
"""

import json
import time

import numpy as np
import pytest

from ccbm import cli
from ccbm.concepts import Concept, ConceptSet
from ccbm.evaluate import (ConceptMatchRule, auc, brier, concepts_match,
                           enumerate_posterior, recovery_report,
                           support_frequencies, tv_distance)
from ccbm.model import log_marginal_likelihoods, sigmoid, stack_designs
from ccbm.oracle import AnnotationCache, OracleError, PoolOracle
from ccbm.sampler import SamplerConfig, gibbs_data_from_oracle, run_gibbs
from ccbm.synthetic import clinical_spec, generate_synthetic

from conftest import make_oracle, make_pool_dataset, quadrature_log_marginal
from test_sampler import _paired_updates


def test_criterion_1_laplace_matches_quadrature():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for i in range(20):
        n = int(rng.integers(5, 11))
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        X = stack_designs((rng.random((n, 1)) < 0.5).astype(float), [[0]])
        y = (rng.random(n) < 0.5).astype(float)
        value = log_marginal_likelihoods(X, y, gamma)[0][0]
        ref = quadrature_log_marginal(X[0], y, gamma)
        worst = max(worst, abs(value - ref) / abs(ref))
    elapsed = time.time() - start
    assert worst <= 0.02
    assert elapsed < 5.0
    print(f"criterion 1: PASS (max relative error {worst:.4f}, {elapsed:.1f}s)")


def _stationarity_tv(weight_mode, mode, m_candidates, omega):
    data = make_pool_dataset()  # 10-concept pool, n=60, concentrated posterior
    oracle = make_oracle(data, weight_mode=weight_mode)
    gibbs = gibbs_data_from_oracle(data.observations, data.labels, oracle)
    cfg = SamplerConfig(k=2, t_epochs=2750, m_candidates=m_candidates,
                        omega=omega, seed=3, warm_start_epochs=1, keep_last=0,
                        mode=mode)
    init = ConceptSet([data.pool_concepts[5].concept,
                       data.pool_concepts[7].concept])
    trace = run_gibbs(gibbs, oracle, cfg, init)
    states = [s.concept_set for s in trace.samples if s.phase == "sample"]
    assert len(states) == 5500
    kept = states[500:]  # 500 burn-in, 5,000 kept
    exact = enumerate_posterior([pc.concept for pc in data.pool_concepts], 2,
                                data.labels, data.annotations, gamma=1.0)
    return tv_distance(support_frequencies(kept), exact)


def test_criterion_2_stationarity_exact_and_uniform_oracles():
    start = time.time()
    tv_exact = _stationarity_tv("exact", "single_try", m_candidates=10, omega=0.5)
    tv_uniform = _stationarity_tv("uniform", "multi_try", m_candidates=3, omega=0.1)
    elapsed = time.time() - start
    assert tv_exact <= 0.05
    assert tv_uniform <= 0.05
    assert elapsed < 120.0
    print(f"criterion 2: PASS (TV exact {tv_exact:.3f}, "
          f"TV uniform-Q {tv_uniform:.3f}, {elapsed:.1f}s)")


@pytest.mark.parametrize("weight_mode,mode,m_candidates", [
    ("exact", "single_try", 2), ("exact", "multi_try", 3),
    ("uniform", "multi_try", 2), ("uniform", "multi_try", 5)])
def test_stationarity_at_half_omega_below_the_eligible_set(weight_mode, mode, m_candidates):
    # M is below the 9 eligible concepts, and S is half the rows, so a try
    # rule that is not i.i.d. from q, or a ratio that ignores how q depends
    # on S, shows as TV to enumeration. uniform single-try mixes too slowly
    # for 2,750 epochs; TestDetailedBalance covers it.
    tv = _stationarity_tv(weight_mode, mode, m_candidates=m_candidates, omega=0.5)
    assert tv <= 0.05
    print(f"stationarity {weight_mode} {mode} M={m_candidates}: PASS (TV {tv:.3f})")


def test_criterion_3_multi_try_reduces_to_single_try_at_m1():
    worst = 0.0
    for seed in range(1000):
        single, multi = _paired_updates(seed)
        worst = max(worst, abs(single.log_alpha - multi.log_alpha))
    assert worst <= 1e-12
    print(f"criterion 3: PASS (max acceptance-probability gap {worst:.2e} "
          f"over 1,000 instances)")


def _recovery_run(n, seed):
    data = generate_synthetic(clinical_spec(n, seed=seed))
    oracle = PoolOracle(data.pool_concepts, data.observations,
                        annotation_matrix=data.annotations,
                        weight_mode="uniform", cache=AnnotationCache())
    gibbs = gibbs_data_from_oracle(data.observations, data.labels, oracle)
    cfg = SamplerConfig(k=6, t_epochs=12, m_candidates=8, omega=0.5, seed=seed,
                        warm_start_epochs=2, keep_last=6, mode="multi_try")
    init = ConceptSet([data.pool_concepts[j].concept for j in range(5, 11)])
    trace = run_gibbs(gibbs, oracle, cfg, init)
    samples = [s for s in trace.samples if not s.burn_in]
    panel = {pc.concept.id: data.annotations[:, j]
             for j, pc in enumerate(data.pool_concepts)}
    report = recovery_report([s.concept_set for s in samples], data.truth,
                             ConceptMatchRule(), panel)
    return data, samples, report


def _heldout_auc(data, samples, seed):
    test = generate_synthetic(clinical_spec(2000, seed=10_000 + seed))
    col_of = {pc.concept.id: j for j, pc in enumerate(data.pool_concepts)}
    member_scores = []
    for s in samples:
        cols = [col_of[c.id] for c in s.concept_set]
        phi = np.column_stack([test.annotations[:, cols],
                               np.ones(len(test.labels))])
        member_scores.append(sigmoid(phi @ s.theta))
    ensemble = np.mean(member_scores, axis=0)

    # reference: CBM fit directly on the true 5-concept support
    truth_cols = data.spec.true_support
    theta = log_marginal_likelihoods(stack_designs(data.annotations, [truth_cols]),
                                     data.labels.astype(float), 1.0)[1][0]
    phi_test = np.column_stack([test.annotations[:, truth_cols],
                                np.ones(len(test.labels))])
    reference = sigmoid(phi_test @ theta)
    return auc(ensemble, test.labels), auc(reference, test.labels)


def test_criterion_4_recovery_trend_and_heldout_auc():
    start = time.time()
    sizes = (100, 200, 400, 800)
    seeds = range(10)
    mean_recall = {}
    auc_gaps = []
    for n in sizes:
        recalls = []
        for seed in seeds:
            data, samples, report = _recovery_run(n, seed)
            recalls.append(report.concept_recall)
            if n == 800:
                model_auc, oracle_auc = _heldout_auc(data, samples, seed)
                auc_gaps.append(oracle_auc - model_auc)
        mean_recall[n] = float(np.mean(recalls))

    trend = [mean_recall[n] for n in sizes]
    inversions = sum(1 for a, b in zip(trend, trend[1:]) if b < a)
    gap = float(np.mean(auc_gaps))
    elapsed = time.time() - start
    assert inversions <= 1, f"recall trend {trend} has {inversions} inversions"
    assert mean_recall[800] >= 0.9
    assert abs(gap) <= 0.03
    assert elapsed < 900.0
    print(f"criterion 4: PASS (recall trend {[round(r, 3) for r in trend]}, "
          f"AUC gap to oracle CBM {gap:+.4f}, {elapsed:.0f}s)")


def test_criterion_5_metric_hand_cases():
    assert auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])) == 0.75
    assert brier(np.array([0.2, 0.9]), np.array([0, 1])) == 0.025
    print("criterion 5: PASS (auc 0.75, brier 0.025)")


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("acceptance-cli")
    assert cli.main(["simulate", "--out", str(ws / "data"), "--n", "40",
                     "--seed", "11", "--pool-size", "8",
                     "--coefficients", "2.5,-2.5"]) == 0
    return ws


def _write_cli_config(ws, run_dir):
    config = {
        "dataset": str(ws / "data" / "dataset.ndjson"),
        "output_dir": str(run_dir),
        "oracle": {"type": "pool", "pool": str(ws / "data" / "pool.json")},
        "sampler": {"k": 2, "t_epochs": 4, "m_candidates": 4, "omega": 0.5,
                    "gamma": 1.0, "seed": 3, "warm_start_epochs": 1,
                    "keep_last": 2, "mode": "multi_try"},
        "keyphrase": {"min_df": 2},
    }
    path = run_dir.parent / f"{run_dir.name}-config.json"
    path.write_text(json.dumps(config))
    return path


def test_criterion_6_cost_audit(cli_workspace):
    run_dir = cli_workspace / "run-cost"
    config = _write_cli_config(cli_workspace, run_dir)
    assert cli.main(["run", "--config", str(config)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    oracle = manifest["oracle"]
    acct = oracle["cost_accounting"]
    cold_calls = oracle["annotation_pairs"]
    assert cold_calls == oracle["cache_misses"]
    assert cold_calls == acct["init_pairs"] + acct["new_concept_pairs"]
    assert acct["init_pairs"] == 40 * 2
    # O(nTK) bound: at most (M + 1) new concepts per slot update
    n, k = 40, 2
    t_total = 1 + 4  # warm-start + sampling epochs
    assert cold_calls <= n * k + n * t_total * k * (4 + 1)

    # warm rerun on the same directory performs zero oracle calls
    assert cli.main(["run", "--config", str(config)]) == 0
    warm = json.loads((run_dir / "manifest.json").read_text())["oracle"]
    assert warm["annotation_pairs"] == 0
    assert warm["cache_misses"] == 0
    print(f"criterion 6: PASS (cold calls {cold_calls} = misses, warm calls 0)")


def test_criterion_7_determinism_and_resume(cli_workspace, monkeypatch):
    dirs = [cli_workspace / "run-det-a", cli_workspace / "run-det-b"]
    for run_dir in dirs:
        config = _write_cli_config(cli_workspace, run_dir)
        assert cli.main(["run", "--config", str(config)]) == 0
    bytes_a = (dirs[0] / "samples.jsonl").read_bytes()
    assert bytes_a == (dirs[1] / "samples.jsonl").read_bytes()

    # kill after epoch 1, then resume; result must match the clean runs
    run_dir = cli_workspace / "run-resume"
    config = _write_cli_config(cli_workspace, run_dir)
    original = PoolOracle.propose
    calls = {"n": 0}

    def flaky(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 5:  # first slot of epoch 2; epochs 0-1 are complete
            raise OracleError("simulated outage")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PoolOracle, "propose", flaky)
    assert cli.main(["run", "--config", str(config)]) == 3
    # the chain log's last line is the last finished epoch
    last = (run_dir / "checkpoints" / "chain.log").read_text().splitlines()[-1]
    assert json.loads(last)["epoch"] == 1
    monkeypatch.setattr(PoolOracle, "propose", original)
    assert cli.main(["run", "--config", str(config), "--resume"]) == 0
    assert (run_dir / "samples.jsonl").read_bytes() == bytes_a
    print("criterion 7: PASS (byte-identical reruns; resume after epoch 1 "
          "matches uninterrupted run)")


def test_criterion_8_concept_matching_and_borderline_band():
    rule = ConceptMatchRule()
    a, b = Concept("a?"), Concept("b?")
    col = np.tile([1.0, 0.0], 10)
    assert concepts_match(a, b, rule, {a.id: col, b.id: col.copy()})
    assert concepts_match(a, b, rule, {a.id: col, b.id: 1.0 - col})
    rng = np.random.default_rng(8)
    assert not concepts_match(a, b, rule, {
        a.id: (rng.random(1000) < 0.5).astype(float),
        b.id: (rng.random(1000) < 0.5).astype(float)})

    # constructed fixture: |corr| exactly 0.50 (in band), 0.30 and 0.90 (out)
    base = np.tile([1.0, -1.0], 10)
    ortho = np.tile([1.0, 1.0, -1.0, -1.0], 5)
    truth = Concept("Is the true signal present?")
    in_band = Concept("Is it half correlated?")
    low = Concept("Is it weakly correlated?")
    high = Concept("Is it strongly correlated?")
    panel = {truth.id: base}
    for concept, r in ((in_band, 0.5), (low, 0.3), (high, 0.9)):
        panel[concept.id] = r * base + np.sqrt(1 - r * r) * ortho
    samples = [ConceptSet([in_band]), ConceptSet([low]), ConceptSet([high])]
    report = recovery_report(samples, ConceptSet([truth]), rule, panel)
    assert [(p[0], round(p[2], 6)) for p in report.borderline_pairs] == \
        [(in_band.question, 0.5)]
    print("criterion 8: PASS (identity/complement/independent cases; "
          "borderline band lists exactly the |corr|=0.50 pair)")
