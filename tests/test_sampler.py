import itertools
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbm.concepts import Concept, ConceptSet
from ccbm.config import load
from ccbm.evaluate import enumerate_posterior, support_frequencies, tv_distance
from ccbm.model import log_marginal_likelihoods, logsumexp
from ccbm.oracle import (AnnotationCache, Observation, OracleError,
                         OracleProposal, PoolConcept, PoolOracle)
import ccbm.sampler as sampler
from ccbm.sampler import (ChainTrace, OracleFailure, SamplerConfig, _MarginalCache,
                          _multi_try_weights, draw_subset, multi_try_log_alpha,
                          gibbs_data_from_oracle, greedy_warm_start_update,
                          load_checkpoint, multi_ss_mh_update, run_gibbs,
                          save_checkpoint)

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

    data = GibbsData(labels, column_fn)
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
    """The RNG state of the chain log's header, then after each epoch."""
    return [json.loads(line)["rng_state"] for line in checkpoint.read_text().splitlines()]


def mark_burn_in(samples, keep_last):
    """The burn-in rule as a pass over a finished chain, kept as the reference
    for the flags run_gibbs fixes as it makes each sample: the last keep_last
    warm-start states are posterior samples, every earlier one is burn-in."""
    warm = [s for s in samples if s.phase == "warm_start"]
    kept = {id(s) for s in (warm[-keep_last:] if keep_last > 0 else [])}
    return [s.phase == "warm_start" and id(s) not in kept for s in samples]


def ss_mh_update(state, slot, subset, data, cfg, rng, proposal):
    """The single-try split-sample update as it stood before single-try became
    the multi-try update at M=1: draw one candidate by q, then accept with
    probability min{1, exp(lpb(candidate) - lpb(current))}. Kept as the
    reference of criterion 3's reduction identity; it weighs no tries."""
    marginals = _MarginalCache(data, cfg.gamma)
    incumbent = state[slot]
    context_ids = {c.id for c in state.without(slot)}
    kept = [(i, c) for i, c in enumerate(proposal.candidates) if c.id not in context_ids]
    if not kept:
        return SimpleNamespace(state=state, accepted=False, log_alpha=-np.inf)
    weights = np.array([proposal.q_weights[i] for i, _ in kept])
    if weights.sum() <= 0:
        raise ValueError("all proposal weights are zero")
    pick = rng.choice(len(kept), p=weights / weights.sum())
    candidate = kept[int(pick)][1]
    if candidate.id == incumbent.id:
        return SimpleNamespace(state=state, accepted=True, log_alpha=0.0, chosen=candidate)
    cand_state = state.replace(slot, candidate)
    lpb_current, lpb_candidate = marginals.log_partial_bayes(
        [state.concepts, cand_state.concepts], subset)
    log_alpha = min(0.0, lpb_candidate - lpb_current)
    accepted = np.log(rng.random()) < log_alpha
    return SimpleNamespace(state=cand_state if accepted else state, accepted=bool(accepted),
                           log_alpha=log_alpha, chosen=candidate)


SINGLE_TRY = SamplerConfig(k=2, t_epochs=1, m_candidates=1, mode="single_try")


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
    """Single-try is the multi-try update with one try."""

    def test_incumbent_candidate_accepted_with_unit_alpha(self, rng):
        data, concepts, state, _, _ = make_env(0)
        incumbent = state[1]
        proposal = OracleProposal([incumbent], np.array([1.0]), 1.0)
        result = multi_ss_mh_update(state, 1, np.arange(5), data, None, SINGLE_TRY, rng,
                                    proposal=proposal)
        assert result.accepted and result.log_alpha == 0.0
        assert result.state is state

    def test_full_subset_always_accepts(self, rng):
        # S^c empty: both partial Bayes terms are exactly 0
        data, concepts, state, _, _ = make_env(1)
        proposal = OracleProposal([concepts[2]], np.array([1.0]), 1.0)
        result = multi_ss_mh_update(state, 1, np.arange(data.n), data, None, SINGLE_TRY, rng,
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
        data = GibbsData(labels, lambda cs: np.column_stack([columns[c.id] for c in cs]))
        state = ConceptSet([bad])
        subset = np.arange(100)
        proposal = OracleProposal([good], np.array([1.0]), 1.0)
        cfg = SamplerConfig(k=1, t_epochs=1, m_candidates=1, mode="single_try")
        result = multi_ss_mh_update(state, 0, subset, data, None, cfg, rng,
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
        with pytest.raises(ValueError, match="duplicate"):
            multi_ss_mh_update(state, 1, np.arange(5), data, None, SINGLE_TRY, rng,
                               proposal=proposal)


def _paired_updates(seed):
    """One random instance: identical inputs for single- and multi-try at M=1."""
    data, concepts, state, _, _ = make_env(seed, n=12, n_concepts=4)
    inst = np.random.default_rng(seed + 10_000)
    cand = concepts[2] if inst.random() < 0.8 else state[1]
    q1 = float(inst.uniform(0.05, 1.0))
    q_cur = float(inst.uniform(0.05, 1.0))
    proposal = OracleProposal([cand], np.array([q1]), q_cur)
    subset = np.sort(inst.choice(12, size=6, replace=False))
    single = ss_mh_update(state, 1, subset, data, SINGLE_TRY, np.random.default_rng(0),
                          proposal)
    multi = multi_ss_mh_update(state, 1, subset, data, None, SINGLE_TRY,
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

    @pytest.mark.parametrize("update", [multi_ss_mh_update, greedy_warm_start_update])
    def test_try_repeating_a_context_concept_raises(self, rng, update):
        # no oracle proposes one; a hand-built proposal fails in ConceptSet.replace
        data, concepts, state, _, _ = make_env(6)
        proposal = OracleProposal([concepts[2], state[0]], np.array([0.5, 0.5]), 0.2)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=2)
        with pytest.raises(ValueError, match="duplicate"):
            update(state, 1, np.arange(6), data, None, cfg, rng, proposal=proposal)

    def test_repeated_tries_keep_their_weights_and_solve_once(self, monkeypatch, rng):
        data, concepts, state, _, _ = make_env(9, n_concepts=4)
        shapes = solve_shapes(monkeypatch)
        proposal = OracleProposal([concepts[2], state[1], concepts[2], concepts[3]],
                                  np.array([0.3, 0.2, 0.3, 0.1]), 0.2)
        marginals = _MarginalCache(data, 1.0)
        log_ws, states, log_w0 = _multi_try_weights(state, 1, np.arange(10), proposal,
                                                    marginals)
        # the incumbent and the two distinct candidates, in one stack each
        assert shapes == [(3, 10), (3, 20)]
        assert [s[1] for s in states] == proposal.candidates and len(log_ws) == 4
        assert states[0] is states[2] and states[1] is state
        assert bits(log_ws[0]) == bits(log_ws[2]) and bits(log_ws[1]) == bits(log_w0)
        want = marginals.log_partial_bayes([states[3].concepts], np.arange(10))[0] + np.log(0.1)
        assert bits(log_ws[3]) == bits(want)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=4)
        result = multi_ss_mh_update(state, 1, np.arange(10), data, None, cfg, rng,
                                    marginals, proposal)
        assert result.log_weights.shape == (4,) and shapes == [(3, 10), (3, 20)]

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
        oracle = PoolOracle(pool, obs, annotation_matrix=matrix, cache=AnnotationCache())
        data = gibbs_data_from_oracle(obs, labels, oracle)
        cfg = SamplerConfig(k=1, t_epochs=10, m_candidates=3, seed=0,
                            warm_start_epochs=1, keep_last=1)
        trace = run_gibbs(data, oracle, cfg, ConceptSet([pool[0].concept]))
        states = {s.concept_set for s in trace.samples}
        assert len(states) == 1
        assert trace.acceptance_rate == 1.0

    def test_deterministic_reruns_are_identical(self, pool_dataset, tmp_path):
        kwargs = dict(k=2, t_epochs=5, m_candidates=5, seed=7, keep_last=2)
        ckpt_a, ckpt_b = tmp_path / "a.log", tmp_path / "b.log"
        a = pool_chain(pool_dataset, "exact", "multi_try", kwargs, checkpoint_path=ckpt_a)
        b = pool_chain(pool_dataset, "exact", "multi_try", kwargs, checkpoint_path=ckpt_b)
        assert [s.to_dict() for s in a.samples] == [s.to_dict() for s in b.samples]
        assert ckpt_a.read_text() == ckpt_b.read_text()
        assert chain_log_rng_states(ckpt_a) == chain_log_rng_states(ckpt_b)
        assert a.update_log == b.update_log

    def test_outcome_tells_moves_from_stays_and_rejections(self, pool_dataset):
        # M=3 of 9 eligible: every outcome occurs
        trace = pool_chain(pool_dataset, "exact", "multi_try",
                           dict(k=2, t_epochs=10, m_candidates=3, seed=2, keep_last=2))
        before = [ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)]),
                  *(s.concept_set for s in trace.samples)]
        outcomes = []
        for prev, sample, line in zip(before, trace.samples, trace.update_log):
            moved = sample.concept_set.concepts != prev.concepts
            expected = ("move" if moved else "stay" if sample.accepted or
                        sample.phase == "warm_start" else "reject")
            assert line["outcome"] == expected
            outcomes.append(expected)
        assert set(outcomes[2:]) == {"move", "stay", "reject"}

    def test_no_duplicate_concepts_in_any_state(self, pool_dataset):
        trace = pool_chain(pool_dataset, "uniform", "multi_try",
                           dict(k=2, t_epochs=10, m_candidates=3, seed=1, keep_last=2))
        for s in trace.samples:
            assert len(s.concept_set.id_set()) == 2

    @pytest.mark.parametrize("mode,tries", [("single_try", 1), ("multi_try", 4)])
    def test_oracle_asked_for_one_try_per_single_try_update(self, pool_dataset, mode, tries):
        oracle = make_oracle(pool_dataset)
        asked = []
        real = oracle.propose

        def recording(context, incumbent, subset, m, rng, score=None):
            asked.append(m)
            return real(context, incumbent, subset, m, rng, score=score)

        oracle.propose = recording
        data = gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels, oracle)
        cfg = SamplerConfig(k=2, t_epochs=3, m_candidates=4, seed=1, warm_start_epochs=2,
                            mode=mode)
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        trace = run_gibbs(data, oracle, cfg, init)
        # the warm start asks for m_candidates tries, each sampling update for its tries
        assert asked == [4] * 2 * 2 + [tries] * 2 * 3
        assert [e["n_candidates"] for e in trace.update_log] == asked

    def test_burn_in_marking_keeps_last_warm_states(self, pool_dataset):
        trace = pool_chain(pool_dataset, "exact", "single_try",
                           dict(k=2, t_epochs=2, m_candidates=5, seed=2,
                                warm_start_epochs=3, keep_last=4))
        warm = [s for s in trace.samples if s.phase == "warm_start"]
        assert len(warm) == 6
        assert [s.burn_in for s in warm] == [True, True, False, False, False, False]
        assert len(trace.posterior_samples()) == 4 + 4

    @pytest.mark.parametrize("keep_last", [0, 3, 6, 20])  # K * warm_start_epochs = 6
    def test_burn_in_is_fixed_when_a_sample_is_made(self, pool_dataset, tmp_path, keep_last):
        kwargs = dict(k=2, t_epochs=2, m_candidates=5, seed=2, warm_start_epochs=3,
                      keep_last=keep_last)
        ckpt = tmp_path / "chain.log"
        trace = pool_chain(pool_dataset, "exact", "multi_try", kwargs, checkpoint_path=ckpt)
        assert [s.burn_in for s in trace.samples] == mark_burn_in(trace.samples, keep_last)
        # the log holds the chain's samples as they are, flags included
        assert [s.to_dict() for s in load_checkpoint(ckpt)["trace"].samples] == \
            [s.to_dict() for s in trace.samples]
        # resumed after the second of the three warm-start epochs
        cut = tmp_path / "cut.log"
        cut.write_bytes(b"".join(ckpt.read_bytes().splitlines(keepends=True)[:3]))
        payload = load_checkpoint(cut)
        assert payload["epoch_done"] == 1
        oracle = make_oracle(pool_dataset)
        resumed = run_gibbs(gibbs_data_from_oracle(pool_dataset.observations,
                                                   pool_dataset.labels, oracle),
                            oracle, SamplerConfig(mode="multi_try", **kwargs), None,
                            checkpoint_path=cut, resume_from=payload)
        assert [s.to_dict() for s in resumed.samples] == [s.to_dict() for s in trace.samples]
        assert cut.read_bytes() == ckpt.read_bytes()

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
                          checkpoint_path=tmp_path / "chain.log")
        payload = load_checkpoint(tmp_path / "chain.log")
        assert payload["config"] == cfg
        assert payload["epoch_done"] == 3  # warm start + 3 sampling epochs, 0-based
        assert payload["state"] == trace.samples[-1].concept_set
        loaded = payload["trace"]
        assert [s.to_dict() for s in loaded.samples] == [s.to_dict() for s in trace.samples]
        assert loaded.update_log == trace.update_log
        assert (loaded.acceptance_count, loaded.proposal_count) == \
            (trace.acceptance_count, trace.proposal_count)

    def test_unrecognized_file_rejected(self, tmp_path):
        bad = tmp_path / "chain.log"
        bad.write_text("{}\n")
        with pytest.raises(ValueError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("header", [
        "[]", "not json",
        json.dumps({"format": "ccbm-checkpoint-v1", "trace": {}}),
        json.dumps({"format": "ccbm-checkpoint-v2", "epoch_done": 0, "log_offset": 10})])
    def test_unusable_header_rejected_by_name(self, tmp_path, header):
        bad = tmp_path / "chain.log"
        bad.write_text(header + "\n")
        with pytest.raises(ValueError, match="chain.log:1: "):
            load_checkpoint(bad)

    @pytest.mark.parametrize("content", [b"", b'{"format": "ccbm-checkpoint-v4", "con'])
    def test_log_without_a_header_rejected_by_name(self, tmp_path, content):
        # an empty log, or a header torn by a crash, holds no chain to resume
        bad = tmp_path / "chain.log"
        bad.write_bytes(content)
        with pytest.raises(ValueError, match="chain.log holds no checkpoint header"):
            load_checkpoint(bad)
        assert bad.read_bytes() == b""

    def test_header_stays_small_and_log_grows_linearly(self, tmp_path, pool_dataset,
                                                       monkeypatch):
        import ccbm.sampler as sampler
        sizes = []
        real = sampler.save_checkpoint

        def recording(path, *args, **kwargs):
            real(path, *args, **kwargs)
            sizes.append((path.read_bytes().split(b"\n")[0], path.stat().st_size))

        monkeypatch.setattr(sampler, "save_checkpoint", recording)
        oracle = make_oracle(pool_dataset)
        data = gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels, oracle)
        cfg = SamplerConfig(k=2, t_epochs=40, m_candidates=10, seed=5, mode="single_try")
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        run_gibbs(data, oracle, cfg, init, checkpoint_path=tmp_path / "chain.log")
        assert len(sizes) == 1 + 41  # the start header, then one per epoch
        assert len({header for header, _ in sizes}) == 1  # the header is written once
        growth = np.diff([size for _, size in sizes])
        assert sizes[0][1] == len(sizes[0][0]) + 1 and growth.min() > 0.8 * growth.max()

    def test_long_chain_makes_no_rename(self, tmp_path, pool_dataset, monkeypatch):
        # the header is one plain write; every epoch after it is an append
        renames = []

        def counting(real):
            def wrapper(*args, **kwargs):
                renames.append(args)
                return real(*args, **kwargs)
            return wrapper

        for name in ("replace", "rename"):  # Path.replace and Path.rename call these
            monkeypatch.setattr(os, name, counting(getattr(os, name)))
        oracle = make_oracle(pool_dataset)
        data = gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels, oracle)
        cfg = SamplerConfig(k=2, t_epochs=300, m_candidates=10, seed=5, mode="single_try")
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        ckpt = tmp_path / "chain.log"
        run_gibbs(data, oracle, cfg, init, checkpoint_path=ckpt)
        assert renames == []
        assert len(ckpt.read_text().splitlines()) == 1 + 301
        assert [path.name for path in tmp_path.iterdir()] == ["chain.log"]

    def test_uncommitted_tail_ignored_then_cut(self, tmp_path, pool_dataset):
        cfg = SamplerConfig(k=2, t_epochs=4, m_candidates=5, seed=13, keep_last=2,
                            mode="multi_try")
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        oracle = make_oracle(pool_dataset)
        reference = tmp_path / "ref" / "chain.log"
        reference.parent.mkdir()
        run_gibbs(gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels,
                                         oracle), oracle, cfg, init, checkpoint_path=reference)

        flaky = FlakyOracle(make_oracle(pool_dataset), fail_at=7)
        ckpt = tmp_path / "chain.log"
        with pytest.raises(OracleFailure):
            run_gibbs(gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels,
                                             flaky), flaky, cfg, init, checkpoint_path=ckpt)
        # a crash mid-append leaves a torn line: dropped on load and cut off
        committed = ckpt.read_bytes()
        with open(ckpt, "ab") as log:
            log.write(b'{"epoch": 3, "samples": [{"concepts": []}], "sa')
        payload = load_checkpoint(ckpt)
        assert ckpt.read_bytes() == committed
        assert payload["epoch_done"] == 2
        assert len(payload["trace"].samples) == 2 * (payload["epoch_done"] + 1)

        oracle = make_oracle(pool_dataset)
        run_gibbs(gibbs_data_from_oracle(pool_dataset.observations, pool_dataset.labels,
                                         oracle), oracle, cfg, init, checkpoint_path=ckpt,
                  resume_from=payload)
        assert ckpt.read_bytes() == reference.read_bytes()

    def test_resume_from_header_alone(self, tmp_path, pool_dataset):
        # a chain that stopped before its first epoch resumes from the header's start
        kwargs = dict(k=2, t_epochs=2, m_candidates=5, seed=13, keep_last=2)
        reference_ckpt = tmp_path / "reference.log"
        reference = pool_chain(pool_dataset, "exact", "multi_try", kwargs,
                               checkpoint_path=reference_ckpt)
        ckpt = tmp_path / "chain.log"
        ckpt.write_bytes(reference_ckpt.read_bytes().splitlines(keepends=True)[0])
        payload = load_checkpoint(ckpt)
        assert payload["epoch_done"] == -1 and payload["trace"].samples == []
        oracle = make_oracle(pool_dataset)
        resumed = run_gibbs(gibbs_data_from_oracle(pool_dataset.observations,
                                                   pool_dataset.labels, oracle),
                            oracle, SamplerConfig(mode="multi_try", **kwargs), None,
                            checkpoint_path=ckpt, resume_from=payload)
        assert [s.to_dict() for s in resumed.samples] == \
            [s.to_dict() for s in reference.samples]
        assert ckpt.read_bytes() == reference_ckpt.read_bytes()

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, pool_dataset):
        kwargs = dict(k=2, t_epochs=4, m_candidates=5, seed=13, keep_last=2)
        reference_ckpt = tmp_path / "reference.log"
        reference = pool_chain(pool_dataset, "exact", "multi_try", kwargs,
                               checkpoint_path=reference_ckpt)

        flaky = FlakyOracle(make_oracle(pool_dataset), fail_at=7)
        data = gibbs_data_from_oracle(pool_dataset.observations,
                                      pool_dataset.labels, flaky)
        cfg = SamplerConfig(mode="multi_try", **kwargs)
        init = ConceptSet([pool_dataset.pool_concepts[i].concept for i in (5, 7)])
        ckpt = tmp_path / "chain.log"
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
        assert ckpt.read_text() == reference_ckpt.read_text()
        assert chain_log_rng_states(ckpt) == chain_log_rng_states(reference_ckpt)


class TestDetailedBalance:
    @pytest.mark.parametrize("weight_mode", ["exact", "uniform"])
    @pytest.mark.parametrize("mode", ["single_try", "multi_try"])
    def test_pairwise_balance_on_k1_pool(self, weight_mode, mode):
        # multi-try draws M=2 of the 4 concepts
        data = make_pool_dataset(n=30, pool_size=4, coefficients=(2.0,),
                                 true_support=(0,), seed=4)
        oracle = make_oracle(data, weight_mode=weight_mode)
        gibbs = gibbs_data_from_oracle(data.observations, data.labels, oracle)
        cfg = SamplerConfig(k=1, t_epochs=1, m_candidates=2, omega=0.5, seed=0,
                            mode=mode)
        concepts = [pc.concept for pc in data.pool_concepts]
        pi = enumerate_posterior(concepts, 1, data.labels, data.annotations,
                                 gamma=1.0)
        pi = {next(iter(k)): v for k, v in pi.items()}

        trials = 3000
        counts = {c.id: {d.id: 0 for d in concepts} for c in concepts}
        rng = np.random.default_rng(99)
        marginals = _MarginalCache(gibbs, 1.0)
        for c in concepts:
            state = ConceptSet([c])
            for _ in range(trials):
                subset = draw_subset(gibbs.n, 0.5, rng)
                result = multi_ss_mh_update(state, 0, subset, gibbs, oracle, cfg, rng,
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


def enumerated_kernel(context, slot, support, q, subset, m, on_subset, marginals):
    """K_S[a, b], a != b, of the multiple-try update of slot with the other
    slots held at context, for fixed rows S: every M-tuple of tries from the
    support with probability prod q, the pick law w_j / sum_i w_i of the
    update's own weights, and its own acceptance probability. A chosen
    incumbent stays, so the diagonal is left 0."""
    kernel = np.zeros((len(support), len(support)))
    for a, incumbent in enumerate(support):
        state = ConceptSet([*context[:slot], incumbent, *context[slot:]])
        for tries in itertools.product(range(len(support)), repeat=m):
            tries = list(tries)
            proposal = OracleProposal([support[i] for i in tries], q[tries], q[a], on_subset)
            log_ws, _, log_w0 = _multi_try_weights(state, slot, subset, proposal, marginals)
            pick = np.exp(log_ws - logsumexp(log_ws)) * np.prod(q[tries])
            for j, b in enumerate(tries):
                if b != a:
                    kernel[a, b] += pick[j] * np.exp(
                        multi_try_log_alpha(proposal, log_ws, log_w0, j))
    return kernel


class TestExactDetailedBalance:
    """pi(a) K_S(a, b) = pi(b) K_S(b, a) to 1e-12 of the largest flow, for
    each of a few fixed subsets S, with K_S enumerated (enumerated_kernel):
    no sampling, no seed, no standard errors. On TestDetailedBalance's k=1,
    4-concept pool (6 subsets) and on criterion 2's k=2, 10-concept testbed
    (2 contexts, one subset each; slot 0 or 1 over the 9 concepts outside
    the context)."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("weight_mode", ["exact", "uniform"])
    @pytest.mark.parametrize("testbed", ["k1-pool", "criterion-2"])
    def test_flows_balance_exactly(self, testbed, weight_mode, m):
        if testbed == "k1-pool":
            data = make_pool_dataset(n=30, pool_size=4, coefficients=(2.0,),
                                     true_support=(0,), seed=4)
            cases, k, n_subsets = [((), 0)], 1, 6
        else:
            data = make_pool_dataset()
            cases, k, n_subsets = [((0,), 1), ((5,), 0)], 2, 1
        oracle = make_oracle(data, weight_mode=weight_mode)
        gibbs = gibbs_data_from_oracle(data.observations, data.labels, oracle)
        marginals = _MarginalCache(gibbs, 1.0)
        concepts = [pc.concept for pc in data.pool_concepts]
        posterior = enumerate_posterior(concepts, k, data.labels, data.annotations, gamma=1.0)
        rng = np.random.default_rng(17)
        for context_indices, slot in cases:
            context = [concepts[i] for i in context_indices]
            support = [c for c in concepts if c not in context]
            pi = np.array([posterior[frozenset(c.id for c in [*context, s])]
                           for s in support])
            for _ in range(n_subsets):
                subset = draw_subset(gibbs.n, 0.5, rng)
                if weight_mode == "exact":
                    _, weights, _ = oracle.partial_posterior_weights(
                        context, lambda sets: marginals.subset(sets, subset))
                    q = weights / weights.sum()
                else:
                    q = np.full(len(support), 1.0 / len(support))
                kernel = enumerated_kernel(context, slot, support, q, subset, m,
                                           weight_mode == "exact", marginals)
                flows = pi[:, None] * kernel
                assert flows.max() > 0
                gap = np.abs(flows - flows.T).max() / flows.max()
                assert gap <= 1e-12, f"relative flow gap {gap:.2e}"


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(k=2, t_epochs=1, m_candidates=1, omega=1.0)
        with pytest.raises(ValueError):
            SamplerConfig(k=2, t_epochs=0, m_candidates=1)
        with pytest.raises(ValueError):
            SamplerConfig(k=2, t_epochs=1, m_candidates=1, mode="bogus")
        with pytest.raises(ValueError, match="sampler.gamma must be finite and positive, got True"):
            SamplerConfig(k=2, t_epochs=1, m_candidates=1, gamma=True)

    def test_round_trip(self):
        cfg = SamplerConfig(k=3, t_epochs=4, m_candidates=5, omega=0.4,
                            gamma=2.0, seed=42, mode="single_try")
        assert load(SamplerConfig, cfg.to_dict(), "sampler") == cfg


def per_record_design(oracle, observations, concepts):
    """The design assembled one record at a time, as before the column store
    and the annotation table: one annotate call and one dict entry per pair."""
    values = {(o.id, c.id): float(oracle.annotate([o], [c])[0, 0])
              for o in observations for c in concepts}
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
            X = data.designs([concepts])[0]
            assert np.array_equal(X, per_record_design(reference, obs, concepts))
            assert np.array_equal(X[subset], per_record_design(
                reference, [obs[i] for i in subset], concepts))

    def test_only_unstored_concepts_reach_column_fn(self):
        data, concepts, _, columns, _ = make_env(0, n_concepts=4)
        calls = []
        inner = data._column_fn
        data._column_fn = lambda cs: calls.append([c.id for c in cs]) or inner(cs)
        a, b, c, d = concepts
        data.designs([[a, b]])
        data.designs([[b, a]])
        data.fill([c, a, c, d])
        data.designs([[d, c, a]])
        assert calls == [[a.id, b.id], [c.id, d.id]]
        assert np.array_equal(data.designs([[c]])[0, :, 0], columns[c.id])

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
        # one subset and one full design per candidate state, the incumbent's
        # included, in one stacked solve each
        assert stacks == [(3, 10), (3, 20)]
        # the full-data fits are memoized for the run and the subset fits for
        # these rows: scoring the same states again solves nothing, and the
        # recorded sample's fit is a lookup
        stacks.clear()
        multi_ss_mh_update(state, 1, np.arange(10), data, None, cfg, rng,
                           marginals=marginals, proposal=proposal)
        marginals.full(state.concepts)
        assert stacks == []

    def test_out_of_range_column_rejected_once_at_fill(self, rng):
        data, concepts, state, columns, _ = make_env(3, n_concepts=5)
        columns[concepts[3].id][4] = 1.5
        columns[concepts[4].id][0] = np.nan
        for bad in (concepts[3], concepts[4]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                data.fill([concepts[2], bad])
            assert concepts[2].id not in data._index and bad.id not in data._index
        proposal = OracleProposal([state[1], concepts[2]], np.array([0.5, 0.5]), 0.5)
        cfg = SamplerConfig(k=2, t_epochs=1, m_candidates=2)
        for update in (multi_ss_mh_update, greedy_warm_start_update):
            update(state, 1, np.arange(10), data, None, cfg, rng, proposal=proposal)


class SerialMarginals:
    """The reference for _MarginalCache: each concept set's full-data fit
    (memoized) and then its subset fit, each solved alone.

    With oracle_order, a subset fit puts its columns in the exact pool
    oracle's order (the other slots, the slot's concept, the intercept), as
    the oracle's enumeration fits them into the chain's memo."""

    def __init__(self, data, gamma):
        self.data, self.gamma, self._cache = data, gamma, {}
        self.oracle_order = False

    def full(self, concepts):
        key = tuple(c.id for c in concepts)
        if key not in self._cache:
            values, thetas, _ = log_marginal_likelihoods(self.data.designs([concepts]),
                                                         self.data.labels, self.gamma)
            self._cache[key] = (float(values[0]), thetas[0])
        return self._cache[key]

    def subset(self, concepts, subset, slot):
        if subset.size and (subset.min() < 0 or subset.max() >= self.data.n):
            raise ValueError("subset indices out of range")
        if self.oracle_order:
            concepts = (*concepts[:slot], *concepts[slot + 1:], concepts[slot])
        X = self.data.designs([concepts])[0]
        return float(log_marginal_likelihoods(X[subset][None], self.data.labels[subset],
                                              self.gamma)[0][0])

    def log_partial_bayes(self, concepts, subset, slot):
        return self.full(concepts)[0] - self.subset(concepts, subset, slot)


def serial_multi_try_weights(state, slot, subset, proposal, marginals):
    """The reference for _multi_try_weights: one candidate at a time, by its
    partial Bayes factor, or by its full-data fit alone when q was not formed
    on the subset."""
    def score(concepts):
        if proposal.on_subset:
            return marginals.log_partial_bayes(concepts, subset, slot)
        return marginals.full(concepts)[0]

    marginals.data.fill([*state.concepts, *proposal.candidates])
    log_ws, states = [], []
    lpb_current = None
    for cand, q in zip(proposal.candidates, proposal.q_weights):
        cand_state = state if cand.id == state[slot].id else state.replace(slot, cand)
        lpb = score(cand_state.concepts)
        if cand_state is state:
            lpb_current = lpb
        log_ws.append(lpb + np.log(q))
        states.append(cand_state)
    if lpb_current is None:
        lpb_current = score(state.concepts)
    log_w0 = lpb_current + np.log(proposal.q_current)
    return np.asarray(log_ws), states, log_w0


UPDATES = {"multi_try": multi_ss_mh_update, "warm_start": greedy_warm_start_update,
           "single_try": multi_ss_mh_update}


def mode_config(mode, m):
    """The sampler config of an update mode; warm_start runs in a multi_try chain."""
    return SamplerConfig(k=2, t_epochs=1, m_candidates=m,
                         mode="single_try" if mode == "single_try" else "multi_try")


def serial_update(mode, state, slot, subset, data, cfg, rng, marginals, proposal):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "_multi_try_weights", serial_multi_try_weights)
        return UPDATES[mode](state, slot, subset, data, None, cfg, rng, marginals, proposal)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def rng_copy(rng):
    copy = np.random.default_rng()
    copy.bit_generator.state = rng.bit_generator.state
    return copy


def solve_shapes(monkeypatch):
    """(designs, rows) of every stacked solve the sampler makes."""
    shapes = []

    def counting(X, y, gamma, *args, **kwargs):
        shapes.append(X.shape[:2])
        return log_marginal_likelihoods(X, y, gamma, *args, **kwargs)

    monkeypatch.setattr(sampler, "log_marginal_likelihoods", counting)
    return shapes


class TestStackedScorer:
    """_MarginalCache.log_partial_bayes scores all of an update's concept sets
    with at most two stacked solves; every weight and decision equals
    SerialMarginals' bit for bit.

    In exact mode the oracle's enumeration fits every eligible set on the
    subset first, in the oracle's column order, so the reference fits the
    subset in that order for it; the old reference, which fits each set's
    subset in the set's order, agrees to 1e-12. Uniform proposals are
    weighed by full-data fits alone. single_try is the multi-try update
    given the oracle's one try."""

    @pytest.mark.parametrize("weight_mode", ["exact", "uniform"])
    @pytest.mark.parametrize("mode", ["multi_try", "warm_start", "single_try"])
    def test_matches_serial_reference_on_pool_chains(self, mode, weight_mode):
        reproposed = rescaled = 0
        for seed, m in ((0, 3), (1, 10), (2, 6), (3, 9)):
            data = make_pool_dataset(n=40, seed=20 + seed)
            oracle = make_oracle(data, weight_mode=weight_mode)
            stacked = _MarginalCache(
                gibbs_data_from_oracle(data.observations, data.labels, oracle), 1.0)
            serial = SerialMarginals(
                gibbs_data_from_oracle(data.observations, data.labels, oracle), 1.0)
            set_order = SerialMarginals(serial.data, 1.0)
            m = 1 if mode == "single_try" else m
            cfg = mode_config(mode, m)
            rng = np.random.default_rng(seed)
            state = ConceptSet(data.pool_concepts[int(i)].concept
                               for i in rng.choice(10, size=2, replace=False))
            for step in range(20):
                slot = step % 2
                n = stacked.data.n
                subset = (np.array([], dtype=int) if step == 3 else np.arange(n) if step == 7
                          else draw_subset(n, 0.5, rng))
                proposal = oracle.propose(
                    state.without(slot), state[slot], subset, m, rng,
                    score=lambda concept_sets: stacked.subset(concept_sets, subset))
                q_drawn = proposal.q_weights
                if step % 3 == 1 and len(proposal.candidates) > 1:  # rebuilt by hand
                    q = proposal.q_weights.copy()
                    q[rng.random(len(q)) < 0.5] *= 0.25
                    q[rng.integers(len(q))] = proposal.q_weights.max()
                    proposal = OracleProposal(proposal.candidates, q, proposal.q_current,
                                              proposal.on_subset)
                # the exact oracle's enumeration filled the memo for these rows
                serial.oracle_order = weight_mode == "exact"
                reproposed += state[slot] in proposal.candidates
                rescaled += int(np.sum(proposal.q_weights != q_drawn))
                got = _multi_try_weights(state, slot, subset, proposal, stacked)
                want = serial_multi_try_weights(state, slot, subset, proposal, serial)
                assert got[1] == want[1]
                assert bits(got[0]) == bits(want[0]) and bits(got[2]) == bits(want[2])
                a, b, c = rng_copy(rng), rng_copy(rng), rng_copy(rng)
                result = UPDATES[mode](state, slot, subset, stacked.data, None, cfg, a,
                                       stacked, proposal)
                ref = serial_update(mode, state, slot, subset, serial.data, cfg, b, serial,
                                    proposal)
                assert (result.state, result.accepted, result.chosen) == \
                    (ref.state, ref.accepted, ref.chosen)
                assert bits(result.log_alpha) == bits(ref.log_alpha)
                assert bits(result.log_weights) == bits(ref.log_weights)
                assert a.bit_generator.state == b.bit_generator.state
                old = serial_update(mode, state, slot, subset, set_order.data, cfg, c,
                                    set_order, proposal)
                assert result.log_alpha == pytest.approx(old.log_alpha, rel=0, abs=1e-12)
                assert np.allclose(result.log_weights, old.log_weights, rtol=0, atol=1e-12)
                (lml, theta), (ref_lml, ref_theta) = (
                    stacked.full(result.state.concepts), serial.full(result.state.concepts))
                assert bits(lml) == bits(ref_lml) and bits(theta) == bits(ref_theta)
                state, rng = result.state, a
        assert reproposed > 0 and (rescaled > 0 or m == 1)

    @pytest.mark.parametrize("mode", ["multi_try", "warm_start", "single_try"])
    def test_out_of_range_subset_rejected(self, monkeypatch, mode):
        data = make_pool_dataset(n=40, seed=21)
        oracle = make_oracle(data)
        gibbs = gibbs_data_from_oracle(data.observations, data.labels, oracle)
        state = ConceptSet(data.pool_concepts[i].concept for i in (5, 7))
        cfg = mode_config(mode, 4)
        hand_built = OracleProposal([data.pool_concepts[j].concept for j in (2, 3)],
                                    np.array([0.5, 0.5]), 0.5)
        shapes = solve_shapes(monkeypatch)
        for index in (gibbs.n, -1):
            subset = np.array([0, index])
            # the oracle's enumeration asks first, or the sampler does
            for proposal in (None, hand_built):
                with pytest.raises(ValueError, match="out of range"):
                    UPDATES[mode](state, 1, subset, gibbs, oracle, cfg,
                                  np.random.default_rng(0), proposal=proposal)
        assert shapes == []


class TestSubsetSolves:
    """Every subset fit is made by _MarginalCache.subset, in ccbm.sampler,
    and memoized for the update's rows; in exact mode the oracle's
    enumeration asks first, through the score passed to propose."""

    @pytest.mark.parametrize("mode,warm", [("single_try", 1), ("multi_try", 1),
                                           ("multi_try", 5)])
    def test_exact_chain_makes_one_subset_stack_per_update(self, monkeypatch, mode, warm):
        data = make_pool_dataset(n=40, seed=21)
        shapes = solve_shapes(monkeypatch)
        trace = pool_chain(data, "exact", mode,
                           dict(k=2, t_epochs=6, m_candidates=4, seed=1,
                                warm_start_epochs=warm))
        subset_stacks = [e for e, rows in shapes if rows == 20]
        # the enumeration: one design per concept outside the other slot
        assert subset_stacks == [9] * len(trace.samples) == [9] * 2 * (6 + warm)
        assert trace.acceptance_count > 0 and {rows for _, rows in shapes} == {20, 40}

    @pytest.mark.parametrize("mode", ["single_try", "multi_try"])
    def test_uniform_chain_makes_no_subset_solves(self, monkeypatch, mode):
        # a uniform q does not depend on the subset rows, so the tries are
        # weighed by their full-data fits alone
        data = make_pool_dataset(n=40, seed=21)
        shapes = solve_shapes(monkeypatch)
        trace = pool_chain(data, "uniform", mode,
                           dict(k=2, t_epochs=4, m_candidates=4, seed=1))
        assert {rows for _, rows in shapes} == {40}
        assert trace.acceptance_count > 0

    def test_subset_memo_is_kept_for_the_rows_and_reset_by_new_rows(self, monkeypatch):
        data, concepts, state, _, _ = make_env(7, n_concepts=4)
        marginals = _MarginalCache(data, 1.0)
        shapes = solve_shapes(monkeypatch)
        sets = [state.concepts, (concepts[2], concepts[1])]
        rows, other = np.arange(10), np.arange(5, 15)
        first = marginals.subset(sets, rows)
        assert shapes == [(2, 10)]
        # the same rows in a new array, and one set in another order: all memoized
        again = marginals.subset([sets[1][::-1], *sets], np.arange(10))
        assert shapes == [(2, 10)]
        assert bits(again) == bits(first[[1, 0, 1]])
        marginals.subset(sets, other)
        marginals.subset(sets[:1], rows)  # the memo of rows went with the new rows
        assert shapes == [(2, 10), (2, 10), (1, 10)]


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
