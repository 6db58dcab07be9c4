import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbm.concepts import Concept, ConceptSet
from ccbm.evaluate import enumerate_posterior, support_frequencies, tv_distance
from ccbm.model import AnnotationMatrix, ModelConfig, log_marginal_likelihood
from ccbm.oracle import (AnnotationCache, Observation, OracleError,
                         OracleProposal, PoolConcept, PoolOracle)
import ccbm.sampler as sampler
from ccbm.sampler import (ChainTrace, OracleFailure, SamplerConfig, _candidate_sets,
                          _MarginalCache, _multi_try_weights, draw_subset,
                          gibbs_data_from_oracle, greedy_warm_start_update,
                          load_checkpoint, multi_ss_mh_update, run_gibbs,
                          save_checkpoint, ss_mh_update)

from conftest import make_oracle, make_pool_dataset, quadrature_log_marginal


def make_env(seed, n=20, n_concepts=4, k=2):
    """Random binary columns per concept, random labels, direct column lookup."""
    rng = np.random.default_rng(seed)
    concepts = [Concept(f"Is attribute {i} set? (env {seed})")
                for i in range(n_concepts)]
    columns = {c.id: (rng.random(n) < 0.5).astype(float) for c in concepts}
    labels = (rng.random(n) < 0.5).astype(float)

    from ccbm.sampler import GibbsData

    def column_fn(cs):
        return np.column_stack([columns[c.id] for c in cs])

    data = GibbsData(labels, [str(i) for i in range(n)], column_fn)
    state = ConceptSet(concepts[:k])
    return data, concepts, state, columns, rng


def pool_chain(data, weight_mode, mode, cfg_kwargs, init_indices=(5, 7),
               checkpoint_path=None):
    oracle = make_oracle(data, weight_mode=weight_mode)
    gibbs = gibbs_data_from_oracle(data.observations, data.labels, oracle)
    cfg = SamplerConfig(mode=mode, **cfg_kwargs)
    init = ConceptSet([data.pool_concepts[i].concept for i in init_indices])
    return run_gibbs(gibbs, oracle, cfg, init, checkpoint_path=checkpoint_path)


def chain_log_rng_states(checkpoint):
    """The RNG state after each epoch, from the chain log, and the header's."""
    entries = [json.loads(line) for line in
               checkpoint.with_suffix(".log").read_text().splitlines()]
    return [e["rng_state"] for e in entries], json.loads(checkpoint.read_text())["rng_state"]


class TestDrawSubset:
    def test_floor_size(self, rng):
        assert len(draw_subset(10, 0.5, rng)) == 5
        assert len(draw_subset(3, 0.5, rng)) == 1

    def test_degenerate_sizes_rejected(self, rng):
        with pytest.raises(ValueError, match="0.05.*10"):
            draw_subset(10, 0.05, rng)  # floor = 0
        with pytest.raises(ValueError):
            draw_subset(1, 0.9, rng)

    def test_no_duplicates_and_sorted(self, rng):
        s = draw_subset(50, 0.5, rng)
        assert len(np.unique(s)) == len(s)
        assert np.all(np.diff(s) > 0)

    def test_marginal_inclusion_frequency(self, rng):
        hits = np.zeros(10)
        for _ in range(10_000):
            hits[draw_subset(10, 0.5, rng)] += 1
        freq = hits / 10_000
        assert np.all(np.abs(freq - 0.5) <= 0.02)


class TestSingleTryUpdate:
    def test_incumbent_candidate_accepted_with_unit_alpha(self, rng):
        data, concepts, state, _, _ = make_env(0)
        incumbent = state[1]
        proposal = OracleProposal([incumbent], np.array([1.0]), 1.0)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=1)
        result = ss_mh_update(state, 1, np.arange(5), data, None, cfg, rng,
                              proposal=proposal)
        assert result.accepted and result.log_alpha == 0.0
        assert result.state is state

    def test_full_subset_always_accepts(self, rng):
        # S^c empty: both partial Bayes terms are exactly 0
        data, concepts, state, _, _ = make_env(1)
        proposal = OracleProposal([concepts[2]], np.array([1.0]), 1.0)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=1)
        result = ss_mh_update(state, 1, np.arange(data.n), data, None, cfg, rng,
                              proposal=proposal)
        assert result.log_alpha == 0.0 and result.accepted

    def test_label_matching_candidate_dominates(self, rng):
        n = 200
        r = np.random.default_rng(3)
        labels = (r.random(n) < 0.5).astype(float)
        good = Concept("Does the perfect indicator fire?")
        bad = Concept("Does the noise column fire?")
        columns = {good.id: labels.copy(), bad.id: (r.random(n) < 0.5).astype(float)}

        from ccbm.sampler import GibbsData
        data = GibbsData(labels, [str(i) for i in range(n)],
                         lambda cs: np.column_stack([columns[c.id] for c in cs]))
        state = ConceptSet([bad])
        subset = np.arange(100)
        proposal = OracleProposal([good], np.array([1.0]), 1.0)
        cfg = SamplerConfig(k=1, t_epochs=1, m_candidates=1)
        result = ss_mh_update(state, 0, subset, data, None, cfg, rng,
                              proposal=proposal)
        assert result.log_alpha == 0.0 and result.accepted
        # the improvement agrees with the quadrature-oracle Bayes factor
        phi_good = np.column_stack([columns[good.id], np.ones(n)])
        phi_bad = np.column_stack([columns[bad.id], np.ones(n)])
        delta_ref = (
            (quadrature_log_marginal(phi_good, labels, 1.0)
             - quadrature_log_marginal(phi_good[subset], labels[subset], 1.0))
            - (quadrature_log_marginal(phi_bad, labels, 1.0)
               - quadrature_log_marginal(phi_bad[subset], labels[subset], 1.0)))
        assert delta_ref > 10.0

    def test_candidate_duplicating_context_is_rejected(self, rng):
        data, concepts, state, _, _ = make_env(2)
        dup = state[0]  # equals the conditioning concept for slot 1
        proposal = OracleProposal([dup], np.array([1.0]), 1.0)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=1)
        result = ss_mh_update(state, 1, np.arange(5), data, None, cfg, rng,
                              proposal=proposal)
        assert not result.accepted
        assert result.state is state


def _paired_updates(seed):
    """One random instance: identical inputs for single- and multi-try at M=1."""
    data, concepts, state, _, _ = make_env(seed, n=12, n_concepts=4)
    inst = np.random.default_rng(seed + 10_000)
    cand = concepts[2] if inst.random() < 0.8 else state[1]
    q1 = float(inst.uniform(0.05, 1.0))
    q_cur = float(inst.uniform(0.05, 1.0))
    proposal = OracleProposal([cand], np.array([q1]), q_cur)
    subset = np.sort(inst.choice(12, size=6, replace=False))
    cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=1)
    single = ss_mh_update(state, 1, subset, data, None, cfg,
                          np.random.default_rng(0), proposal=proposal)
    multi = multi_ss_mh_update(state, 1, subset, data, None, cfg,
                               np.random.default_rng(0), proposal=proposal)
    return single, multi


class TestMultiTryUpdate:
    def test_m1_reduction_sample(self):
        for seed in range(200):
            single, multi = _paired_updates(seed)
            assert abs(single.log_alpha - multi.log_alpha) <= 1e-12

    def test_all_candidates_equal_incumbent(self, rng):
        data, concepts, state, _, _ = make_env(4)
        inc = state[1]
        proposal = OracleProposal([inc], np.array([0.7]), 0.7)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=1)
        result = multi_ss_mh_update(state, 1, np.arange(6), data, None, cfg, rng,
                                    proposal=proposal)
        assert result.accepted and result.log_alpha == 0.0
        assert result.state is state

    def test_zero_q_current_rejected(self, rng):
        data, concepts, state, _, _ = make_env(5)
        proposal = OracleProposal([concepts[2]], np.array([1.0]), 0.0)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=1)
        with pytest.raises(ValueError):
            multi_ss_mh_update(state, 1, np.arange(6), data, None, cfg, rng,
                               proposal=proposal)

    def test_context_duplicates_dropped_not_fatal(self, rng):
        data, concepts, state, _, _ = make_env(6)
        proposal = OracleProposal([state[0], concepts[2]],
                                  np.array([0.5, 0.5]), 0.2)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=2)
        result = multi_ss_mh_update(state, 1, np.arange(6), data, None, cfg, rng,
                                    proposal=proposal)
        assert result.chosen == concepts[2]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 4))
    def test_log_alpha_is_valid_log_probability(self, seed, m):
        data, concepts, state, _, _ = make_env(seed % 50, n=10, n_concepts=6)
        inst = np.random.default_rng(seed)
        cands = [concepts[i] for i in inst.choice([1, 2, 3, 4, 5], size=m,
                                                  replace=False)]
        weights = inst.uniform(0.01, 1.0, size=m)
        proposal = OracleProposal(cands, weights, float(inst.uniform(0.01, 1.0)))
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=m)
        result = multi_ss_mh_update(state, 1, np.arange(5), data, None, cfg,
                                    np.random.default_rng(seed), proposal=proposal)
        assert not np.isnan(result.log_alpha)
        assert result.log_alpha <= 0.0


class TestGreedyWarmStart:
    def test_incumbent_argmax_unchanged(self, rng):
        data, concepts, state, columns, _ = make_env(7)
        # make the incumbent the dominant column by aligning it with labels
        columns[state[1].id][:] = data.labels
        proposal = OracleProposal([concepts[2], concepts[3]],
                                  np.array([0.5, 0.5]), 0.5)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=2)
        result = greedy_warm_start_update(state, 1, np.arange(8), data, None,
                                          cfg, rng, proposal=proposal)
        assert result.state is state

    def test_dominating_candidate_installed(self, rng):
        data, concepts, state, columns, _ = make_env(8)
        columns[concepts[2].id][:] = data.labels
        proposal = OracleProposal([concepts[2], concepts[3]],
                                  np.array([0.5, 0.5]), 0.5)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=2)
        result = greedy_warm_start_update(state, 1, np.arange(8), data, None,
                                          cfg, rng, proposal=proposal)
        assert result.state[1] == concepts[2]

    def test_warm_start_beats_or_matches_single_epoch_sampling(self):
        # frequency of landing on the posterior-mode support after one epoch
        data = make_pool_dataset(n=40, seed=5)
        truth = data.truth.id_set()
        warm_hits = mcmc_hits = 0
        for seed in range(50):
            r = np.random.default_rng(seed)
            init_idx = r.choice(10, size=2, replace=False)
            kwargs = dict(k=2, t_epochs=1, m_candidates=10, omega=0.5,
                          seed=seed, keep_last=2)
            warm = pool_chain(data, "exact", "single_try",
                              dict(kwargs, warm_start_epochs=1),
                              init_indices=tuple(init_idx))
            warm_state = [s for s in warm.samples if s.phase == "warm_start"][-1]
            warm_hits += warm_state.concept_set.id_set() == truth
            cold = pool_chain(data, "exact", "single_try",
                              dict(kwargs, warm_start_epochs=0, t_epochs=1),
                              init_indices=tuple(init_idx))
            first_sample = [s for s in cold.samples if s.phase == "sample"][-1]
            mcmc_hits += first_sample.concept_set.id_set() == truth
        assert warm_hits >= mcmc_hits


class TestRunGibbs:
    def test_single_concept_pool_chain_is_constant(self):
        labels = np.array([0, 1, 1, 0, 1, 0, 1, 1, 0, 0], dtype=float)
        obs = [Observation(f"o{i}", "x", int(labels[i])) for i in range(10)]
        pool = [PoolConcept(Concept("Is the only attribute set?"), "x")]
        matrix = np.array([[1.0]] * 10)
        oracle = PoolOracle(pool, obs, labels, gamma=1.0,
                            annotation_matrix=matrix, cache=AnnotationCache())
        data = gibbs_data_from_oracle(obs, labels, oracle)
        cfg = SamplerConfig(k=1, t_epochs=10, m_candidates=3, seed=0,
                            warm_start_epochs=1, keep_last=1)
        trace = run_gibbs(data, oracle, cfg, ConceptSet([pool[0].concept]))
        states = {s.concept_set for s in trace.samples}
        assert len(states) == 1
        assert trace.acceptance_rate == 1.0

    def test_deterministic_reruns_are_identical(self, pool_dataset, tmp_path):
        kwargs = dict(k=2, t_epochs=5, m_candidates=5, seed=7, keep_last=2)
        ckpt_a, ckpt_b = tmp_path / "a.json", tmp_path / "b.json"
        a = pool_chain(pool_dataset, "exact", "multi_try", kwargs, checkpoint_path=ckpt_a)
        b = pool_chain(pool_dataset, "exact", "multi_try", kwargs, checkpoint_path=ckpt_b)
        assert [s.to_dict() for s in a.samples] == [s.to_dict() for s in b.samples]
        assert ckpt_a.with_suffix(".log").read_text() == ckpt_b.with_suffix(".log").read_text()
        assert chain_log_rng_states(ckpt_a) == chain_log_rng_states(ckpt_b)
        assert a.update_log == b.update_log

    def test_no_duplicate_concepts_in_any_state(self, pool_dataset):
        trace = pool_chain(pool_dataset, "uniform", "multi_try",
                           dict(k=2, t_epochs=10, m_candidates=3, seed=1, keep_last=2))
        for s in trace.samples:
            assert len(s.concept_set.id_set()) == 2

    def test_burn_in_marking_keeps_last_warm_states(self, pool_dataset):
        trace = pool_chain(pool_dataset, "exact", "single_try",
                           dict(k=2, t_epochs=2, m_candidates=5, seed=2,
                                warm_start_epochs=3, keep_last=4))
        warm = [s for s in trace.samples if s.phase == "warm_start"]
        assert len(warm) == 6
        assert [s.burn_in for s in warm] == [True, True, False, False, False, False]
        assert len(trace.posterior_samples()) == 4 + 4

    def test_exact_mode_chain_matches_enumeration(self, pool_dataset):
        trace = pool_chain(pool_dataset, "exact", "single_try",
                           dict(k=2, t_epochs=1500, m_candidates=10, seed=3,
                                keep_last=0))
        kept = [s.concept_set for s in trace.samples if s.phase == "sample"][200:]
        exact = enumerate_posterior(
            [pc.concept for pc in pool_dataset.pool_concepts], 2,
            pool_dataset.labels, pool_dataset.annotations, gamma=1.0)
        assert tv_distance(support_frequencies(kept), exact) <= 0.08


class FlakyOracle:
    """Pool-oracle wrapper that fails a fixed propose call, then recovers."""

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.fail_at = fail_at
        self.calls = 0

    def propose(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OracleError("simulated outage")
        return self.inner.propose(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestCheckpointResume:
    def test_round_trip(self, tmp_path, pool_dataset, rng):
        oracle = make_oracle(pool_dataset)
        data = gibbs_data_from_oracle(pool_dataset.observations,
                                      pool_dataset.labels, oracle)
        cfg = SamplerConfig(k=2, t_epochs=3, m_candidates=5, seed=9, keep_last=2)
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        trace = run_gibbs(data, oracle, cfg, init,
                          checkpoint_path=tmp_path / "chain.json")
        payload = load_checkpoint(tmp_path / "chain.json")
        assert payload["config"] == cfg
        assert payload["epoch_done"] == 3  # warm start + 3 sampling epochs, 0-based
        # burn-in flags are finalized only when a run completes, so compare
        # everything else
        def strip(sample):
            d = sample.to_dict()
            d.pop("burn_in")
            return d
        assert [strip(s) for s in payload["trace"].samples] == \
            [strip(s) for s in trace.samples]

    def test_unrecognized_file_rejected(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("{}")
        with pytest.raises(ValueError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("header", [
        "[]", "not json",
        json.dumps({"format": "ccbm-checkpoint-v1", "trace": {}}),
        json.dumps({"format": "ccbm-checkpoint-v2", "epoch_done": 0, "log_offset": 10})])
    def test_unusable_header_rejected_by_name(self, tmp_path, header):
        bad = tmp_path / "x.json"
        bad.write_text(header)
        with pytest.raises(ValueError, match="x.json"):
            load_checkpoint(bad)

    def test_header_stays_small_and_log_grows_linearly(self, tmp_path, pool_dataset,
                                                       monkeypatch):
        import ccbm.sampler as sampler
        sizes = []
        real = sampler.save_checkpoint

        def recording(path, *args):
            offset = real(path, *args)
            sizes.append((path.stat().st_size, path.with_suffix(".log").stat().st_size))
            return offset

        monkeypatch.setattr(sampler, "save_checkpoint", recording)
        oracle = make_oracle(pool_dataset)
        data = gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels, oracle)
        cfg = SamplerConfig(k=2, t_epochs=40, m_candidates=10, seed=5, mode="single_try")
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        run_gibbs(data, oracle, cfg, init, checkpoint_path=tmp_path / "chain.json")
        assert len(sizes) == 1 + 41  # the start header, then one per epoch
        headers = [h for h, _ in sizes]
        assert max(headers) - min(headers) < 32
        growth = np.diff([log for _, log in sizes[1:]])
        assert sizes[0][1] == 0 and growth.min() > 0.8 * growth.max()

    def test_uncommitted_tail_ignored_then_cut(self, tmp_path, pool_dataset):
        cfg = SamplerConfig(k=2, t_epochs=4, m_candidates=5, seed=13, keep_last=2,
                            mode="multi_try")
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        oracle = make_oracle(pool_dataset)
        reference = tmp_path / "ref" / "chain.json"
        reference.parent.mkdir()
        run_gibbs(gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels,
                                         oracle), oracle, cfg, init, checkpoint_path=reference)

        flaky = FlakyOracle(make_oracle(pool_dataset), fail_at=7)
        ckpt = tmp_path / "chain.json"
        with pytest.raises(OracleFailure):
            run_gibbs(gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels,
                                             flaky), flaky, cfg, init, checkpoint_path=ckpt)
        committed = ckpt.with_suffix(".log").read_bytes()
        with open(ckpt.with_suffix(".log"), "ab") as log:
            log.write(b'{"epoch": 3, "samples": [{"concepts": []}]}\n{"epoch": 4, "sa')
        payload = load_checkpoint(ckpt)
        assert payload["log_offset"] == len(committed)
        assert len(payload["trace"].samples) == 2 * (payload["epoch_done"] + 1)

        oracle = make_oracle(pool_dataset)
        run_gibbs(gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels,
                                         oracle), oracle, cfg, init, checkpoint_path=ckpt,
                  resume_from=payload)
        assert ckpt.read_bytes() == reference.read_bytes()
        assert ckpt.with_suffix(".log").read_bytes() == \
            reference.with_suffix(".log").read_bytes()

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, pool_dataset):
        kwargs = dict(k=2, t_epochs=4, m_candidates=5, seed=13, keep_last=2)
        reference_ckpt = tmp_path / "reference.json"
        reference = pool_chain(pool_dataset, "exact", "multi_try", kwargs,
                               checkpoint_path=reference_ckpt)

        flaky = FlakyOracle(make_oracle(pool_dataset), fail_at=7)
        data = gibbs_data_from_oracle(pool_dataset.observations,
                                      pool_dataset.labels, flaky)
        cfg = SamplerConfig(mode="multi_try", **kwargs)
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        ckpt = tmp_path / "chain.json"
        with pytest.raises(OracleFailure) as failure:
            run_gibbs(data, flaky, cfg, init, checkpoint_path=ckpt)
        assert failure.value.checkpoint == ckpt

        oracle = make_oracle(pool_dataset)
        data = gibbs_data_from_oracle(pool_dataset.observations,
                                      pool_dataset.labels, oracle)
        resumed = run_gibbs(data, oracle, cfg, init, checkpoint_path=ckpt,
                            resume_from=load_checkpoint(ckpt))
        assert [s.to_dict() for s in resumed.samples] == \
            [s.to_dict() for s in reference.samples]
        assert resumed.acceptance_count == reference.acceptance_count
        assert ckpt.with_suffix(".log").read_text() == \
            reference_ckpt.with_suffix(".log").read_text()
        assert chain_log_rng_states(ckpt) == chain_log_rng_states(reference_ckpt)


class TestDetailedBalance:
    def test_pairwise_balance_on_k1_pool(self):
        data = make_pool_dataset(n=30, pool_size=4, coefficients=(2.0,),
                                 true_support=(0,), seed=4)
        oracle = make_oracle(data)
        gibbs = gibbs_data_from_oracle(data.observations, data.labels, oracle)
        cfg = SamplerConfig(k=1, t_epochs=1, m_candidates=4, omega=0.5, seed=0,
                            mode="single_try")
        concepts = [pc.concept for pc in data.pool_concepts]
        pi = enumerate_posterior(concepts, 1, data.labels, data.annotations,
                                 gamma=1.0)
        pi = {next(iter(k)): v for k, v in pi.items()}

        trials = 3000
        counts = {c.id: {d.id: 0 for d in concepts} for c in concepts}
        rng = np.random.default_rng(99)
        from ccbm.sampler import _MarginalCache
        marginals = _MarginalCache(gibbs, 1.0)
        for c in concepts:
            state = ConceptSet([c])
            for _ in range(trials):
                subset = draw_subset(gibbs.n, 0.5, rng)
                result = ss_mh_update(state, 0, subset, gibbs, oracle, cfg, rng,
                                      marginals=marginals)
                counts[c.id][result.state[0].id] += 1

        for a in concepts:
            for b in concepts:
                if a.id >= b.id:
                    continue
                p_ab = counts[a.id][b.id] / trials
                p_ba = counts[b.id][a.id] / trials
                flow_ab = pi[a.id] * p_ab
                flow_ba = pi[b.id] * p_ba
                se = np.sqrt(pi[a.id]**2 * p_ab * (1 - p_ab) / trials
                             + pi[b.id]**2 * p_ba * (1 - p_ba) / trials)
                assert abs(flow_ab - flow_ba) <= 3 * se + 1e-12, \
                    f"flow {flow_ab:.5f} vs {flow_ba:.5f}, se {se:.5f}"


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(k=2, t_epochs=1, m_candidates=1, omega=1.0)
        with pytest.raises(ValueError):
            SamplerConfig(k=2, t_epochs=0, m_candidates=1)
        with pytest.raises(ValueError):
            SamplerConfig(k=2, t_epochs=1, m_candidates=1, mode="bogus")

    def test_round_trip(self):
        cfg = SamplerConfig(k=3, t_epochs=4, m_candidates=5, omega=0.4,
                            gamma=2.0, seed=42, mode="single_try")
        assert SamplerConfig.from_dict(cfg.to_dict()) == cfg


def per_record_design(oracle, observations, concepts):
    """The design as assembled before the column store: one dict entry per pair."""
    records = oracle.annotate(observations, concepts)
    values = {(r.observation_id, r.concept_id): r.value for r in records}
    return np.array([[values[(o.id, c.id)] for c in concepts] + [1.0]
                     for o in observations])


class TestColumnStore:
    def test_phi_matches_per_record_assembly(self, pool_dataset):
        obs = pool_dataset.observations
        pool = [pc.concept for pc in pool_dataset.pool_concepts]
        data = gibbs_data_from_oracle(obs, pool_dataset.labels, make_oracle(pool_dataset))
        reference = make_oracle(pool_dataset)
        subset = draw_subset(data.n, 0.5, np.random.default_rng(5))
        for concepts in ([pool[3], pool[1]],           # nothing stored yet
                         [pool[1], pool[3]],           # all stored, new order
                         [pool[0], pool[3], pool[8]],  # stored and unstored mixed
                         [pool[2], pool[2], pool[1]]):  # a repeated concept
            phi = data.phi(concepts)
            assert phi.row_ids == tuple(o.id for o in obs)
            assert np.array_equal(phi.values, per_record_design(reference, obs, concepts))
            assert np.array_equal(phi.values[subset], per_record_design(
                reference, [obs[i] for i in subset], concepts))

    def test_only_unstored_concepts_reach_column_fn(self):
        data, concepts, _, columns, _ = make_env(0, n_concepts=4)
        calls = []
        inner = data._column_fn
        data._column_fn = lambda cs: calls.append([c.id for c in cs]) or inner(cs)
        a, b, c, d = concepts
        data.phi([a, b])
        data.phi([b, a])
        data.fill([c, a, c, d])
        data.phi([d, c, a])
        assert calls == [[a.id, b.id], [c.id, d.id]]
        assert np.array_equal(data.phi([c]).values[:, 0], columns[c.id])

    def test_pool_chain_annotates_each_pair_once(self, pool_dataset):
        # M covers every eligible concept, so every proposal re-proposes the incumbent
        oracle = make_oracle(pool_dataset)
        data = gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels, oracle)
        cfg = SamplerConfig(k=2, t_epochs=3, m_candidates=10, seed=7, mode="multi_try")
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        run_gibbs(data, oracle, cfg, init)
        assert oracle.annotation_pairs == len(oracle.cache) == 60 * 10
        assert oracle.cache.misses == oracle.annotation_pairs

    def test_reproposed_incumbent_fits_its_subset_marginal_once(self, monkeypatch, rng):
        import ccbm.sampler as sampler
        stacks = []
        real = sampler.log_marginal_likelihoods
        monkeypatch.setattr(sampler, "log_marginal_likelihoods",
                            lambda X, y, gamma: stacks.append(X.shape[:2]) or real(X, y, gamma))
        data, concepts, state, _, _ = make_env(2, n_concepts=4)
        candidates = [state[1], concepts[2], concepts[3]]
        proposal = OracleProposal(candidates, np.array([0.3, 0.3, 0.2]), 0.3)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=3)
        marginals = sampler._MarginalCache(data, cfg.gamma)
        multi_ss_mh_update(state, 1, np.arange(10), data, None, cfg, rng,
                           marginals=marginals, proposal=proposal)
        # one full and one subset design per candidate state, the incumbent's
        # included, in one stacked solve each
        assert stacks == [(3, 20), (3, 10)]
        # the full-data fits are memoized: scoring the same states again solves
        # only their subset stack, and the recorded sample's fit is a lookup
        stacks.clear()
        multi_ss_mh_update(state, 1, np.arange(10), data, None, cfg, rng,
                           marginals=marginals, proposal=proposal)
        marginals.full(state.concepts)
        assert stacks == [(3, 10)]

    def test_out_of_range_column_rejected_once_at_fill(self, monkeypatch, rng):
        import ccbm.model as model
        data, concepts, state, columns, _ = make_env(3, n_concepts=5)
        columns[concepts[3].id][4] = 1.5
        columns[concepts[4].id][0] = np.nan
        for bad in (concepts[3], concepts[4]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                data.fill([concepts[2], bad])
            assert concepts[2].id not in data._columns and bad.id not in data._columns

        def no_scan(self):
            raise AssertionError("a stored column was range-checked again")

        monkeypatch.setattr(model.AnnotationMatrix, "__post_init__", no_scan)
        proposal = OracleProposal([state[1], concepts[2]], np.array([0.5, 0.5]), 0.5)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=2)
        for update in (multi_ss_mh_update, ss_mh_update, greedy_warm_start_update):
            update(state, 1, np.arange(10), data, None, cfg, rng, proposal=proposal)


class SerialMarginals:
    """The reference for _MarginalCache: each concept set's full-data fit
    (memoized) and then its subset fit, each solved alone."""

    def __init__(self, data, gamma):
        self.data, self.gamma, self._cache = data, gamma, {}

    def full(self, concepts):
        key = tuple(c.id for c in concepts)
        if key not in self._cache:
            lm = log_marginal_likelihood(self.data.phi(concepts), self.data.labels,
                                         ModelConfig(gamma=self.gamma, k=len(concepts)))
            self._cache[key] = (lm.value, lm.theta_map)
        return self._cache[key]

    def subset(self, concepts, subset):
        if subset.size and (subset.min() < 0 or subset.max() >= self.data.n):
            raise ValueError("subset indices out of range")
        phi = self.data.phi(concepts)
        sub = AnnotationMatrix(values=phi.values[subset],
                               row_ids=tuple(phi.row_ids[i] for i in subset))
        return log_marginal_likelihood(sub, self.data.labels[subset],
                                       ModelConfig(gamma=self.gamma, k=len(concepts))).value

    def log_partial_bayes(self, concepts, subset):
        return self.full(concepts)[0] - self.subset(concepts, subset)


def serial_multi_try_weights(state, slot, subset, proposal, marginals):
    """The reference for _multi_try_weights: one candidate at a time."""
    kept = _candidate_sets(state, slot, proposal)
    marginals.data.fill([*state.concepts, *(c for i, c in kept if proposal.q_weights[i] > 0)])
    log_ws, states = [], []
    lpb_current = None
    for i, cand in kept:
        q = proposal.q_weights[i]
        if q <= 0:
            log_ws.append(-np.inf)
            states.append(None)
            continue
        cand_state = state if cand.id == state[slot].id else state.replace(slot, cand)
        lpb = marginals.log_partial_bayes(cand_state.concepts, subset)
        if cand_state is state:
            lpb_current = lpb
        log_ws.append(lpb + np.log(q))
        states.append(cand_state)
    if proposal.q_current <= 0:
        raise ValueError("q_current must be positive for the multi-try update")
    if lpb_current is None:
        lpb_current = marginals.log_partial_bayes(state.concepts, subset)
    log_w0 = lpb_current + np.log(proposal.q_current)
    return kept, np.asarray(log_ws), states, log_w0


def serial_ss_mh_update(state, slot, subset, data, oracle, cfg, rng, marginals, proposal):
    """The reference for ss_mh_update: the candidate's fits, then the current state's."""
    kept = _candidate_sets(state, slot, proposal)
    if not kept:
        return sampler.UpdateResult(state, False, -np.inf, proposal)
    weights = np.array([proposal.q_weights[i] for i, _ in kept])
    pick = rng.choice(len(kept), p=weights / weights.sum())
    candidate = kept[int(pick)][1]
    if candidate.id == state[slot].id:
        return sampler.UpdateResult(state, True, 0.0, proposal, candidate)
    cand_state = state.replace(slot, candidate)
    delta = (marginals.log_partial_bayes(cand_state.concepts, subset)
             - marginals.log_partial_bayes(state.concepts, subset))
    log_alpha = min(0.0, delta)
    accepted = np.log(rng.random()) < log_alpha
    return sampler.UpdateResult(cand_state if accepted else state, bool(accepted),
                                log_alpha, proposal, candidate)


UPDATES = {"multi_try": multi_ss_mh_update, "warm_start": greedy_warm_start_update,
           "single_try": ss_mh_update}


def serial_update(mode, state, slot, subset, data, cfg, rng, marginals, proposal):
    if mode == "single_try":
        return serial_ss_mh_update(state, slot, subset, data, None, cfg, rng, marginals,
                                   proposal)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "_multi_try_weights", serial_multi_try_weights)
        return UPDATES[mode](state, slot, subset, data, None, cfg, rng, marginals, proposal)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def rng_copy(rng):
    copy = np.random.default_rng()
    copy.bit_generator.state = rng.bit_generator.state
    return copy


class TestStackedScorer:
    """_MarginalCache.log_partial_bayes scores all of an update's concept sets
    in two stacked solves; every weight and decision equals SerialMarginals'
    bit for bit."""

    @pytest.mark.parametrize("weight_mode", ["exact", "uniform"])
    @pytest.mark.parametrize("mode", ["multi_try", "warm_start", "single_try"])
    def test_matches_serial_reference_on_pool_chains(self, mode, weight_mode):
        reproposed = zero_q = 0
        for seed, m in ((0, 3), (1, 10), (2, 6), (3, 9)):
            data = make_pool_dataset(n=40, seed=20 + seed)
            oracle = make_oracle(data, weight_mode=weight_mode)
            stacked = _MarginalCache(
                gibbs_data_from_oracle(data.observations, data.labels, oracle), 1.0)
            serial = SerialMarginals(
                gibbs_data_from_oracle(data.observations, data.labels, oracle), 1.0)
            cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=m)
            rng = np.random.default_rng(seed)
            state = ConceptSet(data.pool_concepts[int(i)].concept
                               for i in rng.choice(10, size=2, replace=False))
            for step in range(20):
                slot = step % 2
                n = stacked.data.n
                subset = (np.array([], dtype=int) if step == 3 else np.arange(n) if step == 7
                          else draw_subset(n, 0.5, rng))
                proposal = oracle.propose(state.without(slot), state[slot], subset, m, rng)
                if step % 3 == 1 and len(proposal.candidates) > 1:
                    q = proposal.q_weights.copy()
                    q[rng.random(len(q)) < 0.5] = 0.0
                    q[rng.integers(len(q))] = proposal.q_weights.max()
                    proposal = OracleProposal(proposal.candidates, q, proposal.q_current)
                reproposed += state[slot] in proposal.candidates
                zero_q += int(np.sum(proposal.q_weights == 0))
                if mode != "single_try":
                    got = _multi_try_weights(state, slot, subset, proposal, stacked)
                    want = serial_multi_try_weights(state, slot, subset, proposal, serial)
                    assert got[0] == want[0] and got[2] == want[2]
                    assert bits(got[1]) == bits(want[1]) and bits(got[3]) == bits(want[3])
                a, b = rng_copy(rng), rng_copy(rng)
                result = UPDATES[mode](state, slot, subset, stacked.data, None, cfg, a,
                                       stacked, proposal)
                ref = serial_update(mode, state, slot, subset, serial.data, cfg, b, serial,
                                    proposal)
                assert (result.state, result.accepted, result.chosen) == \
                    (ref.state, ref.accepted, ref.chosen)
                assert bits(result.log_alpha) == bits(ref.log_alpha)
                assert bits(result.log_weights if result.log_weights is not None else []) == \
                    bits(ref.log_weights if ref.log_weights is not None else [])
                assert a.bit_generator.state == b.bit_generator.state
                (lml, theta), (ref_lml, ref_theta) = (
                    stacked.full(result.state.concepts), serial.full(result.state.concepts))
                assert bits(lml) == bits(ref_lml) and bits(theta) == bits(ref_theta)
                state, rng = result.state, a
        assert reproposed > 0 and zero_q > 0

    @pytest.mark.parametrize("mode", ["multi_try", "warm_start", "single_try"])
    def test_out_of_range_subset_rejected(self, mode):
        data, concepts, state, _, _ = make_env(9)
        proposal = OracleProposal([concepts[2], concepts[3]], np.array([0.5, 0.5]), 0.5)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=2)
        for index in (data.n, -1):
            with pytest.raises(ValueError, match="out of range"):
                UPDATES[mode](state, 1, np.array([0, index]), data, None, cfg,
                              np.random.default_rng(0), proposal=proposal)


class AnsweringPost:
    """Chat transport that answers every annotation question with 1."""

    def __init__(self):
        self.prompts = []

    def __call__(self, url, headers, payload):
        prompt = payload["messages"][0]["content"]
        self.prompts.append(prompt)
        block = prompt.split("Questions:\n", 1)[1].split("\n\nnote:", 1)[0]
        answers = [1.0] * len(block.splitlines())
        return {"choices": [{"message": {"content": json.dumps({"answers": answers})}}]}


def test_llm_multi_try_update_sends_one_prompt_per_observation():
    from ccbm.llm import ChatClient, LLMConfig, LLMOracle
    config = LLMConfig(endpoint="http://fake/v1/chat", model="test", max_in_flight=1)
    post = AnsweringPost()
    oracle = LLMOracle(config, client=ChatClient(config, post_fn=post))
    obs = [Observation(f"o{i}", f"note {i}") for i in range(12)]
    labels = np.arange(12) % 2
    data = gibbs_data_from_oracle(obs, labels, oracle)
    concepts = [Concept(f"Is attribute {i} set?") for i in range(5)]
    state = ConceptSet(concepts[:2])
    data.fill(state)
    assert len(post.prompts) == len(obs)
    proposal = OracleProposal([state[1], *concepts[2:]], np.full(4, 0.2), 0.2)
    cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=4)
    multi_ss_mh_update(state, 1, np.arange(6), data, oracle, cfg,
                       np.random.default_rng(0), proposal=proposal)
    assert len(post.prompts) == 2 * len(obs)
    assert oracle.annotation_pairs == len(obs) * len(concepts)
