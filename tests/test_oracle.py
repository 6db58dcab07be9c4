import numpy as np
import pytest

from ccbm.concepts import Concept, ConceptSet
from ccbm.evaluate import enumerate_posterior
from ccbm.keyphrase import KeyphraseSummary
from ccbm.model import AnnotationMatrix, ModelConfig, log_marginal_likelihood
from ccbm.oracle import (AnnotationCache, AnnotationError, AnnotationRecord,
                         Observation, OracleMode, OracleProposal, PoolConcept,
                         PoolOracle, ProposalError, keyword_value,
                         normalize_phrase)

from conftest import make_oracle, make_pool_dataset


class TestNormalizePhrase:
    def test_lowercase_and_punctuation(self):
        assert normalize_phrase("Heart-Failure!") == "heart failure"

    def test_whitespace_collapse(self):
        assert normalize_phrase("  chest   pain ") == "chest pain"

    def test_token_cap_at_two(self):
        assert normalize_phrase("severe chest pain today") == "severe chest"

    def test_empty(self):
        assert normalize_phrase("!!!") == ""


class TestKeywordValue:
    def test_whole_word_match(self):
        assert keyword_value("patient reports smoking daily", "smoking") == 1.0

    def test_substring_is_not_a_match(self):
        assert keyword_value("nonsmoking household", "smoking") == 0.0

    def test_case_insensitive(self):
        assert keyword_value("Smoking cessation advised", "smoking") == 1.0

    def test_regex_metacharacters_are_literal(self):
        assert keyword_value("value is a+b here", "a+b") == 1.0


class TestAnnotationCache:
    def test_hit_miss_accounting(self):
        cache = AnnotationCache()
        cache.put_many([AnnotationRecord("o1", "c1", 1.0, "pool")])
        found = cache.get_many([("o1", "c1"), ("o1", "c2")])
        assert found == {("o1", "c1"): 1.0}
        assert cache.hits == 1 and cache.misses == 1

    def test_out_of_range_values_clamped_and_counted(self):
        cache = AnnotationCache()
        cache.put_many([AnnotationRecord("o1", "c1", 1.7, "llm"),
                        AnnotationRecord("o1", "c2", -0.2, "llm")])
        assert cache.get_many([("o1", "c1")])[("o1", "c1")] == 1.0
        assert cache.get_many([("o1", "c2")])[("o1", "c2")] == 0.0
        assert cache.clamp_events == 2

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        first = AnnotationCache(path)
        first.put_many([AnnotationRecord("o1", "c1", 0.25, "llm")])
        second = AnnotationCache(path)
        assert second.get_many([("o1", "c1")]) == {("o1", "c1"): 0.25}

    def test_compaction_last_record_wins(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        writer = AnnotationCache(path)
        writer.put_many([AnnotationRecord("o1", "c1", 0.2, "llm")])
        writer.put_many([AnnotationRecord("o1", "c1", 0.9, "human-override")])
        reloaded = AnnotationCache(path)
        assert reloaded.get_many([("o1", "c1")]) == {("o1", "c1"): 0.9}
        assert len(reloaded) == 1

    def test_partial_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        writer = AnnotationCache(path)
        writer.put_many([AnnotationRecord("o1", "c1", 0.5, "llm")])
        with open(path, "a") as fh:
            fh.write("\n")
        assert len(AnnotationCache(path)) == 1

    def test_torn_last_record_dropped_and_cut(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        writer = AnnotationCache(path)
        writer.put_many([AnnotationRecord("o1", "c1", 0.25, "llm"),
                         AnnotationRecord("o2", "c1", 0.75, "llm")])
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])  # a crash mid-append
        reopened = AnnotationCache(path)
        assert reopened.get_many([("o1", "c1"), ("o2", "c1")]) == {("o1", "c1"): 0.25}
        assert path.read_bytes() == raw[:raw.index(b"\n") + 1]
        reopened.put_many([AnnotationRecord("o3", "c1", 1.0, "llm")])
        again = AnnotationCache(path)
        assert again.get_many([("o1", "c1"), ("o3", "c1")]) == \
            {("o1", "c1"): 0.25, ("o3", "c1"): 1.0}

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        writer = AnnotationCache(path)
        writer.put_many([AnnotationRecord("o1", "c1", 0.5, "llm")])
        with open(path, "a") as fh:
            fh.write('{"observation_id": "o2", "conc\n')
        writer.put_many([AnnotationRecord("o3", "c1", 0.5, "llm")])
        with pytest.raises(ValueError, match=r"cache\.ndjson:2"):
            AnnotationCache(path)


class TestOracleProposal:
    def test_duplicate_candidates_rejected(self):
        c = Concept("Is it red?")
        with pytest.raises(ValueError):
            OracleProposal([c, Concept("is it red?")], np.array([0.5, 0.5]), 0.1)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            OracleProposal([Concept("a?")], np.array([-0.1]), 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OracleProposal([], np.array([]), 0.1)


class TestPoolAnnotate:
    def test_matrix_values_for_training_rows(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        concepts = [pool_dataset.pool_concepts[2].concept]
        records = oracle.annotate(pool_dataset.observations[:5], concepts)
        expected = pool_dataset.annotations[:5, 2]
        assert [r.value for r in records] == expected.tolist()

    def test_keyword_fallback_for_unseen_observation(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        new = Observation("new-1", "The record notes: feat0, feat7.")
        records = oracle.annotate([new], [pc.concept for pc in pool_dataset.pool_concepts])
        values = {r.concept_id: r.value for r in records}
        by_id = {pc.concept.id: pc.keyword for pc in pool_dataset.pool_concepts}
        for cid, value in values.items():
            assert value == (1.0 if by_id[cid] in ("feat0", "feat7") else 0.0)

    def test_unknown_concept_raises(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        with pytest.raises(AnnotationError):
            oracle.annotate(pool_dataset.observations[:1],
                            [Concept("Is this concept from outer space?")])

    def test_cache_hits_cost_nothing(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        concepts = [pc.concept for pc in pool_dataset.pool_concepts[:3]]
        oracle.annotate(pool_dataset.observations, concepts)
        cost_after_first = oracle.annotation_pairs
        assert cost_after_first == 60 * 3
        oracle.annotate(pool_dataset.observations, concepts)
        assert oracle.annotation_pairs == cost_after_first
        assert oracle.cache.hits == 60 * 3


class TestPoolProposals:
    def test_exact_weights_match_restricted_enumeration(self, pool_dataset):
        # independent route: enumerate all 2-supports on the subset rows,
        # restrict to supports containing the context concept, renormalize
        oracle = make_oracle(pool_dataset)
        context = [pool_dataset.pool_concepts[4].concept]
        incumbent = pool_dataset.pool_concepts[6].concept
        subset = np.arange(30)
        proposal = oracle.propose(context, incumbent, subset, m=9,
                                  rng=np.random.default_rng(0))

        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        exact = enumerate_posterior(pool, 2, pool_dataset.labels[subset],
                                    pool_dataset.annotations[subset], gamma=1.0)
        ctx_id = context[0].id
        restricted = {s: p for s, p in exact.items() if ctx_id in s}
        z = sum(restricted.values())
        want = {next(iter(s - {ctx_id})): p / z for s, p in restricted.items()}
        got = {c.id: w for c, w in zip(proposal.candidates, proposal.q_weights)}
        assert set(got) == set(want)
        for cid in want:
            assert got[cid] == pytest.approx(want[cid], abs=1e-9)

    def test_stacked_weights_equal_one_fit_per_candidate(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        context = [pool_dataset.pool_concepts[j].concept for j in (4, 1)]
        rows = np.sort(np.random.default_rng(3).choice(60, size=30, replace=False))
        eligible, probs = oracle.partial_posterior_weights(context, rows)
        # the loop the stacked solve replaced: context columns, candidate, intercept
        cols = [4, 1]
        log_scores = np.array([log_marginal_likelihood(
            AnnotationMatrix.build(pool_dataset.annotations[np.ix_(rows, cols + [j])],
                                   [str(i) for i in rows]),
            pool_dataset.labels[rows], ModelConfig(gamma=1.0, k=3)).value for j in eligible])
        log_scores -= log_scores.max()
        want = np.exp(log_scores)
        want /= want.sum()
        assert eligible == [0, 2, 3, 5, 6, 7, 8, 9]
        assert np.array_equal(probs, want)

    def test_out_of_range_annotations_rejected(self, pool_dataset):
        matrix = pool_dataset.annotations.copy()
        matrix[0, 3] = 1.5
        oracle = PoolOracle(pool_dataset.pool_concepts, pool_dataset.observations,
                            pool_dataset.labels, gamma=1.0, annotation_matrix=matrix)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            oracle.partial_posterior_weights([pool_dataset.pool_concepts[4].concept],
                                             np.arange(30))

    def test_exact_mode_returns_top_m_descending(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        context = [pool_dataset.pool_concepts[4].concept]
        incumbent = pool_dataset.pool_concepts[6].concept
        full = oracle.propose(context, incumbent, np.arange(30), m=9,
                              rng=np.random.default_rng(0))
        top3 = oracle.propose(context, incumbent, np.arange(30), m=3,
                              rng=np.random.default_rng(0))
        assert np.all(np.diff(full.q_weights) <= 0)
        assert top3.candidates == full.candidates[:3]
        assert np.array_equal(top3.q_weights, full.q_weights[:3])

    def test_q_current_is_incumbent_weight(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        context = [pool_dataset.pool_concepts[4].concept]
        incumbent = pool_dataset.pool_concepts[6].concept
        proposal = oracle.propose(context, incumbent, np.arange(30), m=9,
                                  rng=np.random.default_rng(0))
        by_id = {c.id: w for c, w in zip(proposal.candidates, proposal.q_weights)}
        assert proposal.q_current == by_id[incumbent.id]

    def test_uniform_mode_draws_without_replacement(self, pool_dataset):
        oracle = make_oracle(pool_dataset, weight_mode="uniform")
        context = [pool_dataset.pool_concepts[0].concept]
        incumbent = pool_dataset.pool_concepts[1].concept
        proposal = oracle.propose(context, incumbent, np.arange(30), m=3,
                                  rng=np.random.default_rng(5))
        assert len(proposal.candidates) == 3
        assert len({c.id for c in proposal.candidates}) == 3
        assert np.all(proposal.q_weights == 1.0 / 9)
        assert proposal.q_current == 1.0 / 9
        ctx_id = context[0].id
        assert all(c.id != ctx_id for c in proposal.candidates)

    def test_uniform_mode_covers_small_pools(self, pool_dataset):
        oracle = make_oracle(pool_dataset, weight_mode="uniform")
        context = [pool_dataset.pool_concepts[0].concept]
        incumbent = pool_dataset.pool_concepts[1].concept
        proposal = oracle.propose(context, incumbent, np.arange(30), m=50,
                                  rng=np.random.default_rng(5))
        assert len(proposal.candidates) == 9

    def test_prior_only_mode_is_uniform(self, pool_dataset):
        oracle = PoolOracle(pool_dataset.pool_concepts, pool_dataset.observations,
                            pool_dataset.labels, gamma=1.0,
                            annotation_matrix=pool_dataset.annotations,
                            mode=OracleMode("prior_only"), cache=AnnotationCache())
        proposal = oracle.propose([pool_dataset.pool_concepts[0].concept],
                                  pool_dataset.pool_concepts[1].concept,
                                  np.arange(30), m=4, rng=np.random.default_rng(0))
        assert np.all(proposal.q_weights == 1.0 / 9)

    def test_incumbent_in_context_rejected(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        c = pool_dataset.pool_concepts[0].concept
        with pytest.raises(ProposalError):
            oracle.propose([c], c, np.arange(30), m=3,
                           rng=np.random.default_rng(0))

    def test_exhausted_pool_rejected(self):
        data = make_pool_dataset(pool_size=2, coefficients=(2.0,), true_support=(0,))
        oracle = make_oracle(data)
        with pytest.raises(ProposalError):
            oracle.propose([pc.concept for pc in data.pool_concepts],
                           data.pool_concepts[0].concept,
                           np.arange(10), m=1, rng=np.random.default_rng(0))


class TestPoolInitialization:
    def test_top_k_by_phrase_correlation(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        summary = KeyphraseSummary(entries=[("feat0", 2.0, 1), ("feat3", -1.0, -1)])
        init = oracle.initialize_concepts(summary, k=2)
        assert init.id_set() == {pool_dataset.pool_concepts[0].concept.id,
                                 pool_dataset.pool_concepts[3].concept.id}

    def test_plain_phrase_list_accepted(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        init = oracle.initialize_concepts([("feat5", 1.0, 1)], k=1)
        assert init[0] == pool_dataset.pool_concepts[5].concept

    def test_empty_summary_rejected(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        with pytest.raises(Exception):
            oracle.initialize_concepts(KeyphraseSummary(entries=[]), k=2)

    def test_ties_go_to_pool_order_without_extracting(self, pool_dataset, monkeypatch):
        # every keyword is a summary phrase whose indicator is its own column, so
        # every concept scores 1 up to rounding noise
        oracle = make_oracle(pool_dataset)
        monkeypatch.setattr(oracle, "extract_keyphrases", None)
        summary = [(f"feat{j}", 1.0, 1) for j in reversed(range(10))]
        init = oracle.initialize_concepts(summary, k=3)
        assert list(init) == [pool_dataset.pool_concepts[j].concept for j in range(3)]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_pair_corrcoef_reference(self, pool_dataset, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.random(pool_dataset.annotations.shape)
        matrix[:, 7] = 0.25  # a constant column scores 0
        oracle = PoolOracle(pool_dataset.pool_concepts, pool_dataset.observations,
                            pool_dataset.labels, gamma=1.0, annotation_matrix=matrix)
        phrases = [f"feat{j}" for j in rng.choice(10, size=3, replace=False)]
        bags = oracle.extract_keyphrases(pool_dataset.observations)
        indicator = np.array([[phrase in bag.phrases for phrase in phrases] for bag in bags],
                             dtype=float)
        scores = np.zeros(10)
        for j in range(10):
            if np.std(matrix[:, j]) == 0:
                continue
            scores[j] = max((abs(np.corrcoef(matrix[:, j], ind)[0, 1])
                             for ind in indicator.T if np.std(ind) > 0), default=0.0)
        want = np.argsort(-np.round(scores, 9), kind="stable")[:4]
        init = oracle.initialize_concepts([(p, 1.0, 1) for p in phrases], k=4)
        assert list(init) == [pool_dataset.pool_concepts[j].concept for j in want]


class TestPoolKeyphrases:
    def test_bags_are_active_keywords(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        bags = oracle.extract_keyphrases(pool_dataset.observations[:4])
        for i, bag in enumerate(bags):
            active = {f"feat{j}" for j in range(10)
                      if pool_dataset.annotations[i, j] >= 0.5}
            assert bag.phrases == frozenset(active)

    def test_duplicate_pool_rejected(self, pool_dataset):
        pc = pool_dataset.pool_concepts
        with pytest.raises(ValueError):
            PoolOracle(list(pc) + [pc[0]], pool_dataset.observations,
                       pool_dataset.labels, gamma=1.0)
