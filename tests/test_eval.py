import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccbm
from ccbm import evaluate
from ccbm.concepts import Concept, ConceptSet
from ccbm.evaluate import (ConceptMatchRule, InconclusiveMatchError,
                           MetricUndefinedError, auc, brier, enumerate_posterior,
                           recovery_report, support_frequencies)
from ccbm.model import log_marginal_likelihoods, logsumexp, stack_designs
from ccbm.sampler import GibbsData, _MarginalCache

from conftest import concepts_match, make_pool_dataset, tv_distance

SRC = str(Path(ccbm.__file__).resolve().parents[1])


class TestAuc:
    def test_four_point_hand_case(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert auc(scores, labels) == 0.75

    def test_perfect_and_inverted(self):
        labels = np.array([0, 0, 1, 1])
        assert auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
        assert auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0

    def test_ties_get_half_credit(self):
        assert auc(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.random(40)
        labels = (rng.random(40) < 0.5).astype(int)
        assert auc(scores, labels) == pytest.approx(
            auc(np.exp(3 * scores), labels), abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError):
            auc(np.array([0.2, 0.4]), np.array([1, 1]))

    @pytest.mark.parametrize("levels", [None, 2, 5, 50])
    def test_matches_rankdata_reference_exactly(self, levels):
        from scipy.stats import rankdata
        rng = np.random.default_rng(levels or 0)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            scores = rng.random(n) if levels is None else rng.integers(0, levels, n) / levels
            labels = np.r_[0, 1, (rng.random(n - 2) < 0.4).astype(int)]
            ranks = rankdata(scores)
            n_pos = int(labels.sum())
            reference = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) \
                / (n_pos * (n - n_pos))
            assert auc(scores, labels) == reference

    def test_cli_import_loads_no_scipy_and_no_requests(self):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ccbm.cli"],
                             env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                             check=True)
        assert "ccbm.cli" in out.stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                    if line.startswith("import time:") and "|" in line}
        for package in ("scipy", "requests"):
            assert not {m for m in imported if m == package or m.startswith(package + ".")}


# Runs the pool-oracle commands end to end in one fresh interpreter, then
# prints which modules of scipy and requests it loaded.
POOL_COMMANDS_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
from ccbm.cli import main

ws = Path(sys.argv[1])
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
run(["simulate", "--out", str(ws / "data"), "--n", "30", "--seed", "4", "--pool-size", "5"])
config = {"dataset": str(ws / "data" / "dataset.ndjson"), "output_dir": str(ws / "run"),
          "oracle": {"type": "pool", "pool": str(ws / "data" / "pool.json")},
          "sampler": {"k": 2, "t_epochs": 2, "m_candidates": 3, "mode": "multi_try",
                      "warm_start_epochs": 0, "seed": 1}}
(ws / "config.json").write_text(json.dumps(config))
run(["run", "--config", str(ws / "config.json")])
run(["predict", "--run", str(ws / "run"), "--input", str(ws / "data" / "dataset.ndjson"),
     "--output", str(ws / "predictions.ndjson")])
run(["eval", "--run", str(ws / "run"), "--truth", str(ws / "data" / "truth.json")])
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "requests"))))
"""


def test_pool_commands_load_no_scipy_and_no_requests(tmp_path):
    out = subprocess.run([sys.executable, "-c", POOL_COMMANDS_SCRIPT, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                         text=True, check=True)
    assert (tmp_path / "predictions.ndjson").stat().st_size > 0
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


class TestBrier:
    def test_hand_case(self):
        scores = np.array([0.9, 0.1, 0.8, 0.3])
        labels = np.array([1, 0, 1, 0])
        assert brier(scores, labels) == pytest.approx(0.0375, abs=1e-12)

    def test_perfect_is_zero(self):
        assert brier(np.array([1.0, 0.0]), np.array([1, 0])) == 0.0

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(ValueError):
            brier(np.array([1.2]), np.array([1]))

    def test_ensemble_never_beaten_by_mean_member(self):
        # averaging probabilities before scoring is at least as good as
        # averaging the members' scores (convexity of the squared error)
        rng = np.random.default_rng(1)
        labels = (rng.random(30) < 0.5).astype(int)
        members = rng.random((5, 30))
        ensemble = brier(members.mean(axis=0), labels)
        mean_member = float(np.mean([brier(m, labels) for m in members]))
        assert ensemble <= mean_member + 1e-12


def _panel(**columns):
    return {k: np.asarray(v, dtype=float) for k, v in columns.items()}


class TestConceptsMatch:
    rule = ConceptMatchRule()

    def test_identical_columns_match(self):
        a, b = Concept("a?"), Concept("b?")
        col = np.tile([1.0, 0.0], 6)
        assert concepts_match(a, b, self.rule, {a.id: col, b.id: col.copy()})

    def test_complement_columns_match(self):
        a, b = Concept("a?"), Concept("b?")
        col = np.tile([1.0, 0.0], 6)
        assert concepts_match(a, b, self.rule, {a.id: col, b.id: 1.0 - col})

    def test_independent_columns_do_not_match(self):
        rng = np.random.default_rng(2)
        a, b = Concept("a?"), Concept("b?")
        panel = {a.id: (rng.random(200) < 0.5).astype(float),
                 b.id: (rng.random(200) < 0.5).astype(float)}
        assert not concepts_match(a, b, self.rule, panel)

    def test_constant_column_never_matches(self):
        a, b = Concept("a?"), Concept("b?")
        panel = {a.id: np.ones(12), b.id: np.tile([1.0, 0.0], 6)}
        assert not concepts_match(a, b, self.rule, panel)

    def test_small_panel_is_inconclusive_not_false(self):
        a, b = Concept("a?"), Concept("b?")
        col = np.tile([1.0, 0.0], 4)  # 8 < 10 observations
        with pytest.raises(InconclusiveMatchError):
            concepts_match(a, b, self.rule, {a.id: col, b.id: col.copy()})

    def test_missing_annotation_is_an_error(self):
        a, b = Concept("a?"), Concept("b?")
        with pytest.raises(KeyError):
            concepts_match(a, b, self.rule, {a.id: np.zeros(12)})

    def test_exact_threshold_does_not_match(self):
        # corr(a, 0.5 a + sqrt(0.75) z) = 0.5 exactly when z is orthogonal
        a, b = Concept("a?"), Concept("b?")
        base = np.tile([1.0, -1.0], 6)
        ortho = np.tile([1.0, 1.0, -1.0, -1.0], 3)
        panel = {a.id: base, b.id: 0.5 * base + np.sqrt(0.75) * ortho}
        assert not concepts_match(a, b, self.rule, panel)


class TestRecoveryReport:
    def _setup(self):
        true = Concept("Is the true signal present?")
        match = Concept("Does the signal fire?")
        miss = Concept("Is an unrelated thing present?")
        rng = np.random.default_rng(3)
        col = (rng.random(40) < 0.5).astype(float)
        panel = {true.id: col, match.id: col.copy(),
                 miss.id: (rng.random(40) < 0.5).astype(float)}
        return true, match, miss, panel

    def test_hand_case_precision_and_recall(self):
        true, match, miss, panel = self._setup()
        samples = [ConceptSet([match])] * 3 + [ConceptSet([miss])] * 2
        report = recovery_report(samples, ConceptSet([true]),
                                 ConceptMatchRule(), panel)
        assert report.concept_precision == pytest.approx(0.6)
        assert report.concept_recall == pytest.approx(0.6)

    def test_per_concept_frequency(self):
        true, match, miss, panel = self._setup()
        samples = [ConceptSet([match])] * 3 + [ConceptSet([miss])] * 2
        report = recovery_report(samples, ConceptSet([true]),
                                 ConceptMatchRule(), panel)
        assert report.per_concept_frequency == {
            match.question: pytest.approx(0.6),
            miss.question: pytest.approx(0.4),
        }

    def test_matched_pairs_listed_with_correlation(self):
        true, match, miss, panel = self._setup()
        report = recovery_report([ConceptSet([match])], ConceptSet([true]),
                                 ConceptMatchRule(), panel)
        assert report.matched_pairs == [(match.question, true.question,
                                         pytest.approx(1.0))]

    def test_borderline_pair_reported(self):
        true, border = Concept("true?"), Concept("border?")
        base = np.tile([1.0, -1.0], 6)
        ortho = np.tile([1.0, 1.0, -1.0, -1.0], 3)
        panel = {true.id: base, border.id: 0.5 * base + np.sqrt(0.75) * ortho}
        report = recovery_report([ConceptSet([border])], ConceptSet([true]),
                                 ConceptMatchRule(), panel)
        assert report.concept_precision == 0.0
        assert len(report.borderline_pairs) == 1
        assert report.borderline_pairs[0][2] == pytest.approx(0.5)

    def test_inconclusive_panels_surface_as_warnings(self):
        true, match = Concept("true?"), Concept("match?")
        col = np.tile([1.0, 0.0], 4)
        panel = {true.id: col, match.id: col.copy()}
        report = recovery_report([ConceptSet([match])], ConceptSet([true]),
                                 ConceptMatchRule(), panel)
        assert report.concept_precision == 0.0
        assert report.warnings

    def test_empty_samples_rejected(self):
        true = Concept("true?")
        with pytest.raises(ValueError):
            recovery_report([], ConceptSet([true]), ConceptMatchRule(), {})


class TestTvDistance:
    def test_identical_is_zero(self):
        assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0

    def test_disjoint_is_one(self):
        assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0

    def test_hand_case(self):
        assert tv_distance({"a": 0.7, "b": 0.3}, {"a": 0.4, "b": 0.6}) == \
            pytest.approx(0.3)


class TestEnumeratePosterior:
    def test_sums_to_one(self, pool_dataset):
        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        post = enumerate_posterior(pool, 2, pool_dataset.labels,
                                   pool_dataset.annotations, gamma=1.0)
        assert len(post) == 45
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)

    def test_full_pool_support_is_certain(self):
        data = make_pool_dataset(n=20, pool_size=3, coefficients=(1.0,),
                                 true_support=(0,))
        pool = [pc.concept for pc in data.pool_concepts]
        post = enumerate_posterior(pool, 3, data.labels, data.annotations,
                                   gamma=1.0)
        assert post == {frozenset(c.id for c in pool): pytest.approx(1.0)}

    def test_duplicate_columns_get_equal_mass(self, rng):
        pool = [Concept("a?"), Concept("b?"), Concept("c?")]
        col = (rng.random(30) < 0.5).astype(float)
        other = (rng.random(30) < 0.5).astype(float)
        annotations = np.column_stack([col, col, other])
        y = (rng.random(30) < 0.5).astype(float)
        post = enumerate_posterior(pool, 2, y, annotations, gamma=1.0)
        ids = [c.id for c in pool]
        ac = post[frozenset([ids[0], ids[2]])]
        bc = post[frozenset([ids[1], ids[2]])]
        assert ac == pytest.approx(bc, rel=1e-9)

    def test_budget_refusal(self, pool_dataset):
        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        with pytest.raises(ValueError, match="budget"):
            enumerate_posterior(pool, 2, pool_dataset.labels,
                                pool_dataset.annotations, gamma=1.0, budget=10)

    @staticmethod
    def per_support_reference(pool, k, y, annotations, gamma):
        """The posterior as one single-design log_marginal_likelihoods solve per
        support, scipy's logsumexp for the normalizer."""
        from scipy.special import logsumexp
        supports, log_probs = [], []
        for combo in itertools.combinations(range(len(pool)), k):
            X = stack_designs(annotations[:, combo], [range(k)])
            log_probs.append(log_marginal_likelihoods(X, y, gamma)[0][0])
            supports.append(frozenset(pool[j].id for j in combo))
        log_probs = np.asarray(log_probs)
        log_z = logsumexp(log_probs)
        return {s: float(np.exp(lp - log_z)) for s, lp in zip(supports, log_probs)}

    @pytest.mark.parametrize("k, chunk", [(1, evaluate.ENUMERATION_CHUNK),
                                          (2, evaluate.ENUMERATION_CHUNK), (2, 7), (3, 16)])
    def test_stacked_solves_equal_per_support_loop(self, pool_dataset, monkeypatch, k, chunk):
        monkeypatch.setattr(evaluate, "ENUMERATION_CHUNK", chunk)
        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        args = (pool, k, pool_dataset.labels.astype(float), pool_dataset.annotations, 1.0)
        got = enumerate_posterior(*args)
        want = self.per_support_reference(*args)
        assert list(got) == list(want)
        assert [got[s] for s in want] == list(want.values())  # bit for bit

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_the_chains_full_data_fits(self, pool_dataset, k):
        """Each support scores as the chain's memo fits it, bit for bit: the
        design layout is the chain's."""
        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        index = {c.id: j for j, c in enumerate(pool)}
        data = GibbsData(pool_dataset.labels, lambda concepts: pool_dataset.annotations[
            :, [index[c.id] for c in concepts]])
        marginals = _MarginalCache(data, 1.0)
        combos = list(itertools.combinations(range(len(pool)), k))
        log_probs = np.array([marginals.full([pool[j] for j in combo])[0] for combo in combos])
        log_z = logsumexp(log_probs)
        want = {frozenset(pool[j].id for j in combo): float(np.exp(lp - log_z))
                for combo, lp in zip(combos, log_probs)}
        got = enumerate_posterior(pool, k, pool_dataset.labels, pool_dataset.annotations, 1.0)
        assert list(got.items()) == list(want.items())

    def test_values_outside_the_unit_interval_rejected(self, pool_dataset):
        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        for bad in (np.nan, 1.5, -0.5):
            annotations = pool_dataset.annotations.copy()
            annotations[3, 2] = bad
            with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
                enumerate_posterior(pool, 2, pool_dataset.labels, annotations, gamma=1.0)

    def test_k_above_pool_size_is_empty(self, pool_dataset):
        pool = [pc.concept for pc in pool_dataset.pool_concepts][:3]
        assert enumerate_posterior(pool, 4, pool_dataset.labels,
                                   pool_dataset.annotations[:, :3], gamma=1.0) == {}

    def test_annotations_must_cover_the_pool(self, pool_dataset):
        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        with pytest.raises(ValueError, match="one column per pool concept"):
            enumerate_posterior(pool, 2, pool_dataset.labels,
                                pool_dataset.annotations[:, :-1], gamma=1.0)

    def test_true_support_is_the_mode(self, pool_dataset):
        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        post = enumerate_posterior(pool, 2, pool_dataset.labels,
                                   pool_dataset.annotations, gamma=1.0)
        mode = max(post, key=post.get)
        assert mode == pool_dataset.truth.id_set()


class TestSupportFrequencies:
    def test_counts_unordered_supports(self):
        a, b = Concept("a?"), Concept("b?")
        samples = [ConceptSet([a, b]), ConceptSet([b, a]), ConceptSet([a, Concept("c?")])]
        freq = support_frequencies(samples)
        assert freq[ConceptSet([a, b]).id_set()] == pytest.approx(2 / 3)
