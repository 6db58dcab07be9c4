import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccbm.oracle
from ccbm.concepts import Concept, ConceptSet
from ccbm.evaluate import enumerate_posterior
from ccbm.model import log_marginal_likelihoods, stack_designs
from ccbm.oracle import (AnnotationCache, AnnotationError, Observation, OracleProposal, PoolConcept,
                         PoolOracle, ProposalError, keyword_value,
                         normalize_phrase)
from ccbm.sampler import _MarginalCache, gibbs_data_from_oracle

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
        cache.put_many([("o1", "c1")], [1.0], "pool")
        found = cache.get_many([("o1", "c1"), ("o1", "c2")])
        assert found == [1.0, None]
        assert cache.hits == 1 and cache.misses == 1

    def test_out_of_range_values_clamped_and_counted(self):
        cache = AnnotationCache()
        cache.put_many([("o1", "c1"), ("o1", "c2")], [1.7, -0.2], "llm")
        assert cache.get_many([("o1", "c1")]) == [1.0]
        assert cache.get_many([("o1", "c2")]) == [0.0]
        assert cache.clamp_events == 2

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        first = AnnotationCache(path)
        first.put_many([("o1", "c1")], [0.25], "llm")
        second = AnnotationCache(path)
        assert second.get_many([("o1", "c1")]) == [0.25]

    def test_compaction_last_record_wins(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        writer = AnnotationCache(path)
        writer.put_many([("o1", "c1")], [0.2], "llm")
        writer.put_many([("o1", "c1")], [0.9], "human-override")
        reloaded = AnnotationCache(path)
        assert reloaded.get_many([("o1", "c1")]) == [0.9]
        assert len(reloaded) == 1

    def test_partial_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        writer = AnnotationCache(path)
        writer.put_many([("o1", "c1")], [0.5], "llm")
        with open(path, "a") as fh:
            fh.write("\n")
        assert len(AnnotationCache(path)) == 1

    def test_torn_last_record_dropped_and_cut(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        writer = AnnotationCache(path)
        writer.put_many([("o1", "c1"), ("o2", "c1")], [0.25, 0.75], "llm")
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])  # a crash mid-append
        reopened = AnnotationCache(path)
        assert reopened.get_many([("o1", "c1"), ("o2", "c1")]) == [0.25, None]
        assert path.read_bytes() == raw[:raw.index(b"\n") + 1]
        reopened.put_many([("o3", "c1")], [1.0], "llm")
        again = AnnotationCache(path)
        assert again.get_many([("o1", "c1"), ("o3", "c1")]) == [0.25, 1.0]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        writer = AnnotationCache(path)
        writer.put_many([("o1", "c1")], [0.5], "llm")
        with open(path, "a") as fh:
            fh.write('{"observation_id": "o2", "conc\n')
        writer.put_many([("o3", "c1")], [0.5], "llm")
        with pytest.raises(ValueError, match=r"cache\.ndjson:2"):
            AnnotationCache(path)


class TestOracleProposal:
    def test_repeated_candidates_carried(self):
        # each try is one draw from q, so a concept drawn twice is two tries
        c, d = Concept("Is it red?"), Concept("Is it blue?")
        proposal = OracleProposal([c, d, Concept("is it red?")], np.array([0.4, 0.2, 0.4]), 0.1)
        assert proposal.candidates == [c, d, c]
        assert proposal.q_weights.tolist() == [0.4, 0.2, 0.4]
        assert proposal.on_subset

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            OracleProposal([Concept("a?")], np.array([-0.1]), 0.1)

    def test_zero_weight_rejected(self):
        # the multi-try ratio needs every q finite and positive
        for q in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="weights must be finite and positive"):
                OracleProposal([Concept("a?"), Concept("b?")], np.array([0.5, q]), 0.1)

    def test_zero_q_current_rejected(self):
        for q_current in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="q_current must be finite and positive"):
                OracleProposal([Concept("a?")], np.array([1.0]), q_current)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OracleProposal([], np.array([]), 0.1)


class TestPoolAnnotate:
    def test_matrix_values_for_training_rows(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        concepts = [pool_dataset.pool_concepts[2].concept]
        table = oracle.annotate(pool_dataset.observations[:5], concepts)
        expected = pool_dataset.annotations[:5, 2]
        assert table[:, 0].tolist() == expected.tolist()

    def test_keyword_fallback_for_unseen_observation(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        new = Observation("new-1", "The record notes: feat0, feat7.")
        table = oracle.annotate([new], [pc.concept for pc in pool_dataset.pool_concepts])
        assert table.shape == (1, len(pool_dataset.pool_concepts))
        for pc, value in zip(pool_dataset.pool_concepts, table[0]):
            assert value == (1.0 if pc.keyword in ("feat0", "feat7") else 0.0)

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


# Keywords of every kind: word runs (ASCII, digits, "_", accented letters,
# either case), keywords that also occur inside longer words, keywords with
# punctuation or spaces, "İ" (its lowercase is two code points), and "".
MIXED_KEYWORDS = ["feat3", "unemployed", "condition11", "42", "under_score", "café", "Naïve",
                  "HIV", "smoking", "drug", "a+b", "x-ray", "drug use", "İ", "İstanbul", ""]
MIXED_POOL = [PoolConcept(Concept(f"Does the note mention {kw!r}?"), kw)
              for kw in MIXED_KEYWORDS]
NOTE_WORDS = ["feat3", "FEAT3", "feat33", "Unemployed", "condition11", "condition1", "42",
              "under_score", "under", "score", "café", "CAFÉ", "cafés", "naïve", "NAÏVE",
              "hiv", "HIV", "smoking", "nonsmoking", "drug", "drugs", "Drug", "use", "a", "b",
              "x", "ray", "İ", "i", "İstanbul", "istanbul"]
NOTE_SEPARATORS = [" ", ", ", ". ", "+", "-", " (", ") ", "; ", "\n", "_", "'", "/"]
NOTES = st.lists(st.tuples(st.sampled_from(NOTE_WORDS), st.sampled_from(NOTE_SEPARATORS)),
                 max_size=12).map(lambda parts: "".join(w + sep for w, sep in parts))


class TestPoolAnnotationTable:
    """The (n, C) table against values taken one pair at a time: the
    dataset's matrix for training rows, keyword_value for other rows."""

    def reference(self, data, observations, concepts, cached=()):
        row = {o.id: i for i, o in enumerate(data.observations)}
        pool = {pc.concept.id: (j, pc.keyword) for j, pc in enumerate(data.pool_concepts)}
        cached = dict(cached)
        out = np.empty((len(observations), len(concepts)))
        for i, obs in enumerate(observations):
            for c_idx, c in enumerate(concepts):
                j, keyword = pool[c.id]
                if (obs.id, c.id) in cached:
                    out[i, c_idx] = cached[(obs.id, c.id)]
                elif obs.id in row:
                    out[i, c_idx] = data.annotations[row[obs.id], j]
                else:
                    out[i, c_idx] = keyword_value(obs.payload, keyword)
        return out

    def unseen(self, n=12):
        rng = np.random.default_rng(4)
        return [Observation(f"new-{i}", "The record notes: " + ", ".join(
                    f"feat{j}" for j in sorted(rng.choice(10, size=3, replace=False))) + ".")
                for i in range(n)]

    def test_matrix_and_keyword_paths(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        concepts = [pool_dataset.pool_concepts[j].concept for j in (7, 2, 5, 0)]
        rows = pool_dataset.observations[10:30] + self.unseen() + pool_dataset.observations[:3]
        table = oracle.annotate(rows, concepts)
        assert table.shape == (len(rows), len(concepts))
        assert np.array_equal(table, self.reference(pool_dataset, rows, concepts))
        assert oracle.annotation_pairs == table.size
        # cached on the way: the same call again is all hits and returns the same table
        assert np.array_equal(oracle.annotate(rows, concepts), table)
        assert oracle.annotation_pairs == table.size
        assert oracle.cache.hits == table.size

    @settings(max_examples=80, deadline=None)
    @given(st.lists(NOTES, min_size=1, max_size=6), st.lists(NOTES, min_size=1, max_size=6))
    def test_word_scan_equals_regex_reference(self, train_notes, new_notes):
        train = [Observation(f"train-{i}", text) for i, text in enumerate(train_notes)]
        new = [Observation(f"new-{i}", text) for i, text in enumerate(new_notes)]
        oracle = PoolOracle(MIXED_POOL, train, weight_mode="uniform")
        assert np.array_equal(oracle.matrix, [[keyword_value(obs.payload, pc.keyword)
                                               for pc in MIXED_POOL] for obs in train])
        # unseen rows, with the concepts in another order than the pool's
        pool = MIXED_POOL[::-1]
        assert np.array_equal(oracle.annotate(new, [pc.concept for pc in pool]),
                              [[keyword_value(obs.payload, pc.keyword) for pc in pool]
                               for obs in new])

    @pytest.mark.parametrize("extra", [[], ["a+b"]])
    def test_word_keywords_make_no_pattern_search(self, pool_dataset, monkeypatch, extra):
        """Building the matrix and annotating unseen rows searches a keyword's
        pattern only for a keyword that is not one word run."""
        pool = pool_dataset.pool_concepts + [
            PoolConcept(Concept(f"Is {kw} noted?"), kw) for kw in extra]
        rows = self.unseen()
        expected = [[keyword_value(obs.payload, pc.keyword) for pc in pool] for obs in rows]
        searches = Counter()
        compile_pattern = ccbm.oracle.keyword_pattern

        class CountedPattern:
            def __init__(self, keyword):
                self.keyword, self.pattern = keyword, compile_pattern(keyword)

            def search(self, text):
                searches[self.keyword] += 1
                return self.pattern.search(text)

        monkeypatch.setattr(ccbm.oracle, "keyword_pattern", CountedPattern)
        oracle = PoolOracle(pool, pool_dataset.observations, weight_mode="uniform")
        assert np.array_equal(oracle.matrix[:, :len(pool_dataset.pool_concepts)],
                              pool_dataset.annotations)
        assert np.array_equal(oracle.annotate(rows, [pc.concept for pc in pool]), expected)
        n = len(pool_dataset.observations) + len(rows)
        assert searches == Counter({kw: n for kw in extra})

    def test_without_a_cache(self, pool_dataset):
        """Without a cache every value is computed, as the cached path
        computes the cells it lacks, and an unknown concept always raises."""
        oracle = PoolOracle(pool_dataset.pool_concepts, pool_dataset.observations,
                            annotation_matrix=pool_dataset.annotations)
        assert oracle.cache is None
        concepts = [pool_dataset.pool_concepts[j].concept for j in (7, 2, 5, 0)]
        rows = pool_dataset.observations[10:30] + self.unseen() + pool_dataset.observations[:3]
        table = oracle.annotate(rows, concepts)
        assert np.array_equal(table, self.reference(pool_dataset, rows, concepts))
        assert np.array_equal(table, make_oracle(pool_dataset).annotate(rows, concepts))
        assert oracle.annotation_pairs == table.size
        alien = Concept("Is this concept from outer space?")
        with pytest.raises(AnnotationError, match="outer space"):
            oracle.annotate(rows[:2], [concepts[0], alien])

    def test_partly_cached_rows(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        concepts = [pool_dataset.pool_concepts[j].concept for j in (1, 4, 9)]
        rows = pool_dataset.observations[:8] + self.unseen(6)
        # cached values win over the matrix and the keywords, which they differ from
        cached = {(rows[i].id, concepts[j].id): 0.25 for i, j in
                  [(0, 0), (0, 2), (3, 1), (9, 0), (9, 1), (9, 2), (12, 2)]}
        oracle.cache.put_many(list(cached), list(cached.values()), "human-override")
        table = oracle.annotate(rows, concepts)
        assert np.array_equal(table, self.reference(pool_dataset, rows, concepts, cached))
        assert oracle.annotation_pairs == table.size - len(cached)
        assert (oracle.cache.hits, oracle.cache.misses) == (len(cached),
                                                            table.size - len(cached))

    def test_fresh_values_reach_the_log_in_row_order(self, pool_dataset, tmp_path):
        log = tmp_path / "annotations.ndjson"
        oracle = make_oracle(pool_dataset)
        oracle.cache = AnnotationCache(log)
        concepts = [pool_dataset.pool_concepts[j].concept for j in (3, 6)]
        rows = self.unseen(3) + pool_dataset.observations[:2]
        oracle.cache.put_many([(rows[1].id, concepts[0].id)], [0.5], "human-override")
        table = oracle.annotate(rows, concepts)
        written = [json.loads(line) for line in log.read_text().splitlines()][1:]
        assert [(r["observation_id"], r["concept_id"], r["value"], r["source"])
                for r in written] == [
            (obs.id, c.id, table[i, j], "pool") for i, obs in enumerate(rows)
            for j, c in enumerate(concepts) if (i, j) != (1, 0)]

    def test_unknown_concept_raises_before_anything_is_cached(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        alien = Concept("Is this concept from outer space?")
        concepts = [pool_dataset.pool_concepts[0].concept, alien]
        with pytest.raises(AnnotationError, match="outer space"):
            oracle.annotate(pool_dataset.observations[:4], concepts)
        assert len(oracle.cache) == 0 and oracle.annotation_pairs == 0
        # an unknown concept whose values are all cached is not asked for
        rows = pool_dataset.observations[:2]
        oracle.cache.put_many([(o.id, alien.id) for o in rows], [1.0, 0.0], "human-override")
        table = oracle.annotate(rows, concepts)
        assert table[:, 1].tolist() == [1.0, 0.0]
        assert table[:, 0].tolist() == pool_dataset.annotations[:2, 0].tolist()

    def test_empty_table(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        assert oracle.annotate([], [pool_dataset.pool_concepts[0].concept]).shape == (0, 1)
        assert oracle.annotate(pool_dataset.observations[:3], []).shape == (3, 0)

    def test_training_matrix_built_on_first_use(self, pool_dataset):
        oracle = PoolOracle(pool_dataset.pool_concepts, pool_dataset.observations)
        concepts = [pc.concept for pc in pool_dataset.pool_concepts]
        oracle.annotate(self.unseen(), concepts)
        assert oracle._matrix is None
        table = oracle.annotate(pool_dataset.observations, concepts)
        assert oracle._matrix is not None
        assert np.array_equal(table, pool_dataset.annotations)


def subset_scorer(data, oracle, rows, gamma=1.0):
    """The chain's memoized subset fits on rows, as the sampler passes them
    to propose."""
    marginals = _MarginalCache(gibbs_data_from_oracle(data.observations, data.labels, oracle),
                               gamma)
    return lambda concept_sets: marginals.subset(concept_sets, rows)


class TestPoolProposals:
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_exact_weights_match_restricted_enumeration(self, pool_dataset, gamma):
        # independent route: enumerate all 2-supports on the subset rows,
        # restrict to supports containing the context concept, renormalize
        oracle = make_oracle(pool_dataset)
        context = [pool_dataset.pool_concepts[4].concept]
        subset = np.arange(30)
        eligible, weights, _ = oracle.partial_posterior_weights(
            context, subset_scorer(pool_dataset, oracle, subset, gamma))
        probs = weights / weights.sum()

        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        exact = enumerate_posterior(pool, 2, pool_dataset.labels[subset],
                                    pool_dataset.annotations[subset], gamma=gamma)
        ctx_id = context[0].id
        restricted = {s: p for s, p in exact.items() if ctx_id in s}
        z = sum(restricted.values())
        want = {next(iter(s - {ctx_id})): p / z for s, p in restricted.items()}
        got = {pool[i].id: w for i, w in zip(eligible, probs)}
        assert set(got) == set(want)
        for cid in want:
            assert got[cid] == pytest.approx(want[cid], abs=1e-9)

    def test_stacked_weights_equal_one_fit_per_candidate(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        context = [pool_dataset.pool_concepts[j].concept for j in (4, 1)]
        rows = np.sort(np.random.default_rng(3).choice(60, size=30, replace=False))
        eligible, weights, log_marginals = oracle.partial_posterior_weights(
            context, subset_scorer(pool_dataset, oracle, rows))
        # the loop the stacked solve replaced: context columns, candidate, intercept
        cols = [4, 1]
        log_scores = np.array([log_marginal_likelihoods(
            stack_designs(pool_dataset.annotations[np.ix_(rows, cols + [j])], [range(3)]),
            pool_dataset.labels[rows], 1.0)[0][0] for j in eligible])
        assert np.array_equal(log_marginals, log_scores)
        assert eligible == [0, 2, 3, 5, 6, 7, 8, 9]
        assert np.array_equal(weights, np.exp(log_scores - log_scores.max()))

    def test_out_of_range_annotations_rejected(self, pool_dataset):
        matrix = pool_dataset.annotations.copy()
        matrix[0, 3] = 1.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PoolOracle(pool_dataset.pool_concepts, pool_dataset.observations,
                       annotation_matrix=matrix)

    @pytest.mark.parametrize("weight_mode", ["exact", "uniform"])
    def test_draws_are_rng_choice_over_probs(self, pool_dataset, weight_mode):
        oracle = make_oracle(pool_dataset, weight_mode=weight_mode)
        context = [pool_dataset.pool_concepts[4].concept]
        score = subset_scorer(pool_dataset, oracle, np.arange(30))
        eligible, weights, _ = oracle.partial_posterior_weights(context, score)
        probs = weights / weights.sum()
        if weight_mode == "uniform":
            probs = np.full(9, 1.0 / 9)
        # m past the 9 eligible concepts still gives m tries
        proposal = oracle.propose(context, pool_dataset.pool_concepts[6].concept,
                                  np.arange(30), m=50, rng=np.random.default_rng(4),
                                  score=score)
        draws = np.random.default_rng(4).choice(9, size=50, p=probs)
        assert proposal.candidates == [pool_dataset.pool_concepts[eligible[i]].concept
                                       for i in draws]
        assert np.array_equal(proposal.q_weights, probs[draws])
        assert proposal.on_subset == (weight_mode == "exact")

    def test_q_current_is_incumbent_weight(self, pool_dataset):
        context = [pool_dataset.pool_concepts[4].concept]
        for weight_mode in ("exact", "uniform"):
            oracle = make_oracle(pool_dataset, weight_mode=weight_mode)
            score = subset_scorer(pool_dataset, oracle, np.arange(30))
            eligible, weights, _ = oracle.partial_posterior_weights(context, score)
            probs = weights / weights.sum()
            if weight_mode == "uniform":
                probs = np.full(9, 1.0 / 9)
            for i, q in zip(eligible, probs):
                proposal = oracle.propose(context, pool_dataset.pool_concepts[i].concept,
                                          np.arange(30), m=1, rng=np.random.default_rng(0),
                                          score=score)
                assert proposal.q_current == q

    def test_exact_mode_without_score_rejected(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        with pytest.raises(ProposalError, match="score"):
            oracle.propose([pool_dataset.pool_concepts[4].concept],
                           pool_dataset.pool_concepts[6].concept, np.arange(30), m=3,
                           rng=np.random.default_rng(0))
        # the uniform oracle weighs nothing by the data and needs none
        make_oracle(pool_dataset, weight_mode="uniform").propose(
            [pool_dataset.pool_concepts[4].concept], pool_dataset.pool_concepts[6].concept,
            np.arange(30), m=3, rng=np.random.default_rng(0))

    def test_uniform_mode_draws_with_replacement(self, pool_dataset):
        oracle = make_oracle(pool_dataset, weight_mode="uniform")
        context = [pool_dataset.pool_concepts[0].concept]
        incumbent = pool_dataset.pool_concepts[1].concept
        proposal = oracle.propose(context, incumbent, np.arange(30), m=200,
                                  rng=np.random.default_rng(5))
        assert len(proposal.candidates) == 200
        assert np.all(proposal.q_weights == 1.0 / 9)
        assert proposal.q_current == 1.0 / 9 and not proposal.on_subset
        counts = Counter(c.id for c in proposal.candidates)
        ctx_id = context[0].id
        assert len(counts) == 9 and ctx_id not in counts
        # 200 uniform draws over 9 concepts: each near 22, with a 5-sd margin
        assert all(abs(n - 200 / 9) <= 5 * np.sqrt(200 * (1 / 9) * (8 / 9))
                   for n in counts.values())

    @pytest.mark.parametrize("weight_mode", ["exact", "uniform"])
    def test_incumbent_outside_the_pool_rejected(self, pool_dataset, weight_mode):
        oracle = make_oracle(pool_dataset, weight_mode=weight_mode)
        outsider = Concept("Is it outside the pool?")
        with pytest.raises(ProposalError, match="'Is it outside the pool\\?' is not in the pool"):
            oracle.propose([pool_dataset.pool_concepts[0].concept], outsider, np.arange(30),
                           m=3, rng=np.random.default_rng(0),
                           score=subset_scorer(pool_dataset, oracle, np.arange(30)))

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
        init = oracle.initialize_concepts(["feat0", "feat3"], k=2)
        assert init.id_set() == {pool_dataset.pool_concepts[0].concept.id,
                                 pool_dataset.pool_concepts[3].concept.id}

    def test_plain_phrase_list_accepted(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        init = oracle.initialize_concepts(["feat5"], k=1)
        assert init[0] == pool_dataset.pool_concepts[5].concept

    def test_empty_summary_rejected(self, pool_dataset):
        oracle = make_oracle(pool_dataset)
        with pytest.raises(Exception):
            oracle.initialize_concepts([], k=2)

    def test_starts_from_the_whole_phrase(self):
        # "smoking" is a phrase, not a sequence whose first item "s" is one
        smokes = PoolConcept(Concept("Smokes?"), "smoking")
        letter = PoolConcept(Concept("Is it s?"), "s")
        texts = ["patient smoking", "smoking s", "s only", "none", "s", "smoking daily"]
        oracle = PoolOracle([letter, smokes],
                            [Observation(f"o{i}", text) for i, text in enumerate(texts)])
        assert list(oracle.initialize_concepts(["smoking"], k=1)) == [smokes.concept]

    def test_ties_go_to_pool_order_without_extracting(self, pool_dataset, monkeypatch):
        # every keyword is a summary phrase whose indicator is its own column, so
        # every concept scores 1 up to rounding noise
        oracle = make_oracle(pool_dataset)
        monkeypatch.setattr(oracle, "extract_keyphrases", None)
        init = oracle.initialize_concepts([f"feat{j}" for j in reversed(range(10))], k=3)
        assert list(init) == [pool_dataset.pool_concepts[j].concept for j in range(3)]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_pair_corrcoef_reference(self, pool_dataset, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.random(pool_dataset.annotations.shape)
        matrix[:, 7] = 0.25  # a constant column scores 0
        oracle = PoolOracle(pool_dataset.pool_concepts, pool_dataset.observations,
                            annotation_matrix=matrix)
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
        init = oracle.initialize_concepts(phrases, k=4)
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
            PoolOracle(list(pc) + [pc[0]], pool_dataset.observations)
