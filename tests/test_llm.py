import json

import numpy as np
import pytest
import requests

from ccbm.concepts import Concept
from ccbm.llm import (WEIGHT_FLOOR, ChatClient, LLMConfig, LLMOracle,
                      load_template, parse_json_content)
from ccbm.oracle import (AnnotationCache, InitializationError, Observation,
                         OracleError, ProposalError)


def chat_body(obj):
    return {"choices": [{"message": {"content": json.dumps(obj)}}]}


class FakePost:
    """Scripted transport: each call pops the next response or raises it."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def __call__(self, url, headers, payload):
        self.requests.append((url, headers, payload))
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    @property
    def prompts(self):
        return [p["messages"][0]["content"] for _, _, p in self.requests]


def make_config(**overrides):
    defaults = dict(endpoint="http://fake/v1/chat", model="test-model",
                    max_in_flight=1, backoff_seconds=(1.0, 4.0, 16.0))
    defaults.update(overrides)
    return LLMConfig(**defaults)


def make_oracle(responses, config=None, **kwargs):
    config = config or make_config()
    post = FakePost(responses)
    sleeps = []
    client = ChatClient(config, post_fn=post, sleep_fn=sleeps.append)
    oracle = LLMOracle(config, client=client, **kwargs)
    return oracle, post, sleeps


class TestParseJsonContent:
    def test_plain_object(self):
        assert parse_json_content('{"a": 1}') == {"a": 1}

    def test_code_fenced(self):
        assert parse_json_content('```json\n{"a": 1}\n```') == {"a": 1}

    def test_prose_wrapped(self):
        assert parse_json_content('Sure! {"a": 1} hope that helps') == {"a": 1}

    def test_garbage_raises(self):
        with pytest.raises(json.JSONDecodeError):
            parse_json_content("no json here")


class TestChatClient:
    def test_first_try_success(self):
        post = FakePost([chat_body({"ok": True})])
        client = ChatClient(make_config(), post_fn=post, sleep_fn=lambda s: None)
        assert client.complete_json("hi", 0.0) == {"ok": True}
        assert client.call_count == 1 and client.retry_count == 0

    def test_transport_errors_are_retried_with_backoff(self):
        post = FakePost([requests.ConnectionError("down"),
                         requests.ConnectionError("down"),
                         chat_body({"ok": True})])
        sleeps = []
        client = ChatClient(make_config(), post_fn=post, sleep_fn=sleeps.append)
        assert client.complete_json("hi", 0.0) == {"ok": True}
        assert sleeps == [1.0, 4.0]
        assert client.call_count == 3 and client.retry_count == 2

    def test_malformed_content_is_retried(self):
        post = FakePost([{"choices": [{"message": {"content": "not json"}}]},
                         chat_body({"ok": True})])
        client = ChatClient(make_config(), post_fn=post, sleep_fn=lambda s: None)
        assert client.complete_json("hi", 0.0) == {"ok": True}

    def test_exhausted_retries_raise(self):
        post = FakePost([requests.ConnectionError("down")] * 3)
        sleeps = []
        client = ChatClient(make_config(), post_fn=post, sleep_fn=sleeps.append)
        with pytest.raises(OracleError, match="after 3 attempts"):
            client.complete_json("hi", 0.0)
        assert sleeps == [1.0, 4.0]

    def test_bearer_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("CCBM_API_KEY", "secret-token")
        post = FakePost([chat_body({})])
        ChatClient(make_config(), post_fn=post).complete_json("hi", 0.0)
        _, headers, _ = post.requests[0]
        assert headers["Authorization"] == "Bearer secret-token"

    def test_no_key_no_auth_header(self, monkeypatch):
        monkeypatch.delenv("CCBM_API_KEY", raising=False)
        post = FakePost([chat_body({})])
        ChatClient(make_config(), post_fn=post).complete_json("hi", 0.0)
        _, headers, _ = post.requests[0]
        assert "Authorization" not in headers

    def test_temperature_and_model_forwarded(self):
        post = FakePost([chat_body({})])
        ChatClient(make_config(), post_fn=post).complete_json("hi", 0.7)
        _, _, payload = post.requests[0]
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 0.7


class TestTemplates:
    def test_packaged_templates_load(self):
        for name in ("extract_keyphrases", "propose_concepts", "annotate",
                     "initialize_concepts"):
            assert "{" in load_template(name)

    def test_override_directory_wins(self, tmp_path):
        (tmp_path / "annotate.txt").write_text("custom {questions} {note}")
        assert load_template("annotate", str(tmp_path)) == "custom {questions} {note}"

    def test_missing_override_falls_back(self, tmp_path):
        assert load_template("annotate", str(tmp_path)) == load_template("annotate")


class TestExtractKeyphrases:
    def test_strings_and_structured_entries_merge(self):
        oracle, post, _ = make_oracle([chat_body({
            "keyphrases": ["Chest Pain!", {"descriptor": "smoking",
                                           "synonyms": ["tobacco use"]}]})])
        bags = oracle.extract_keyphrases([Observation("o1", "some note text")])
        assert bags[0].phrases == {"chest pain", "smoking", "tobacco use"}

    def test_empty_payload_costs_nothing(self):
        oracle, post, _ = make_oracle([])
        bags = oracle.extract_keyphrases([Observation("o1", "   ")])
        assert bags[0].phrases == frozenset()
        assert post.requests == []

    def test_bag_cache_avoids_repeat_calls(self, tmp_path):
        cache_path = tmp_path / "bags.json"
        oracle, post, _ = make_oracle(
            [chat_body({"keyphrases": ["alpha"]})], bag_cache_path=cache_path)
        oracle.extract_keyphrases([Observation("o1", "note")])
        assert len(post.requests) == 1

        # a fresh oracle with the same cache file makes no calls at all
        reloaded, post2, _ = make_oracle([], bag_cache_path=cache_path)
        bags = reloaded.extract_keyphrases([Observation("o1", "note")])
        assert bags[0].phrases == {"alpha"}
        assert post2.requests == []


class TestInitializeConcepts:
    def test_top_k_returned(self):
        oracle, post, _ = make_oracle([chat_body({
            "concepts": ["Is the patient retired?", "Is the patient employed?",
                         "Extra question?"]})])
        cs = oracle.initialize_concepts(["retired", "employed"], k=2)
        assert len(cs) == 2
        assert cs[0].question == "Is the patient retired?"

    def test_duplicates_collapsed_then_retry(self):
        dup = chat_body({"concepts": ["Same question?", "same  question?"]})
        good = chat_body({"concepts": ["A?", "B?"]})
        oracle, post, _ = make_oracle([dup, good])
        cs = oracle.initialize_concepts(["x"], k=2)
        assert {c.question for c in cs} == {"A?", "B?"}
        assert len(post.requests) == 2

    def test_persistent_shortfall_raises(self):
        short = chat_body({"concepts": ["Only one?"]})
        oracle, post, _ = make_oracle([short] * 3)
        with pytest.raises(InitializationError):
            oracle.initialize_concepts(["x"], k=2)

    def test_empty_summary_rejected(self):
        oracle, _, _ = make_oracle([])
        with pytest.raises(InitializationError):
            oracle.initialize_concepts([], k=2)


def proposal_oracle(body, incumbent_weight=None, **oracle_kwargs):
    if incumbent_weight is not None:
        body = dict(body, incumbent_weight=incumbent_weight)
    return make_oracle([chat_body(body)],
                       summary_provider=lambda ctx, subset: ["phrase one"],
                       **oracle_kwargs)


class TestPropose:
    context = [Concept("Is it a context concept?")]
    incumbent = Concept("Is it the incumbent?")

    def propose(self, body, m=3, **kwargs):
        oracle, post, _ = proposal_oracle(body, **kwargs)
        proposal = oracle.propose(self.context, self.incumbent,
                                  np.arange(5), m, np.random.default_rng(0))
        return oracle, post, proposal

    def test_weights_normalized_with_incumbent(self):
        body = {"candidates": [{"question": "A?", "weight": 3.0},
                               {"question": "B?", "weight": 1.0}]}
        _, _, p = self.propose(body, incumbent_weight=1.0)
        assert p.q_weights.sum() + p.q_current == pytest.approx(1.0, abs=1e-12)
        assert p.q_weights[0] / p.q_weights[1] == pytest.approx(3.0)
        assert p.q_current == pytest.approx(0.2)

    def test_missing_weights_imputed_uniform_and_logged(self):
        body = {"candidates": ["A?", "B?"]}
        oracle, _, p = self.propose(body, incumbent_weight=1.0)
        assert p.q_weights[0] == p.q_weights[1]
        assert any(e["event"] == "weights_imputed_uniform" for e in oracle.run_log)

    def test_zero_incumbent_weight_floored_and_logged(self):
        body = {"candidates": [{"question": "A?", "weight": 1.0}]}
        oracle, _, p = self.propose(body)
        assert p.q_current > 0
        assert p.q_current == pytest.approx(WEIGHT_FLOOR * p.q_weights.sum(),
                                            rel=1e-9)
        assert any(e["event"] == "incumbent_weight_floored" for e in oracle.run_log)

    def test_all_zero_weights_fall_back_to_uniform(self):
        body = {"candidates": [{"question": "A?", "weight": 0.0},
                               {"question": "B?", "weight": 0.0}]}
        oracle, _, p = self.propose(body, incumbent_weight=1.0)
        assert p.q_weights[0] == p.q_weights[1] > 0
        assert any(e["event"] == "weights_all_zero_uniform_fallback"
                   for e in oracle.run_log)

    def test_context_duplicates_and_repeats_skipped(self):
        body = {"candidates": [self.context[0].question, "A?", "a?", "B?"]}
        _, _, p = self.propose(body, incumbent_weight=1.0)
        assert [c.question for c in p.candidates] == ["A?", "B?"]

    def test_candidate_list_truncated_at_m(self):
        body = {"candidates": ["A?", "B?", "C?", "D?"]}
        _, _, p = self.propose(body, m=2, incumbent_weight=1.0)
        assert len(p.candidates) == 2

    def test_no_usable_candidates_raises(self):
        with pytest.raises(ProposalError):
            self.propose({"candidates": [self.context[0].question]})

    def test_missing_summary_provider_raises(self):
        oracle, _, _ = make_oracle([])
        with pytest.raises(ProposalError):
            oracle.propose(self.context, self.incumbent, np.arange(5), 3,
                           np.random.default_rng(0))

    def test_reproposed_incumbent_keeps_its_weight(self):
        body = {"candidates": [{"question": self.incumbent.question, "weight": 4.0},
                               {"question": "A?", "weight": 1.0}]}
        _, _, p = self.propose(body)
        assert p.q_current == pytest.approx(p.q_weights[0])


class TestAnnotate:
    concepts = [Concept("Is it red?"), Concept("Is it large?")]

    def test_values_parsed_and_cached(self):
        oracle, post, _ = make_oracle([chat_body({"answers": [1, 0]})])
        obs = [Observation("o1", "a red small thing", label=1)]
        records = oracle.annotate(obs, self.concepts)
        assert [r.value for r in records] == [1.0, 0.0]
        assert oracle.annotation_pairs == 2
        # warm repeat: no new calls, no new pairs
        again = oracle.annotate(obs, self.concepts)
        assert [r.value for r in again] == [1.0, 0.0]
        assert len(post.requests) == 1
        assert oracle.annotation_pairs == 2

    def test_asks_only_for_missing_concepts(self):
        a, b = self.concepts
        oracle, post, _ = make_oracle([chat_body({"answers": [1]}),
                                       chat_body({"answers": [0]})])
        obs = [Observation("o1", "a red small thing")]
        oracle.annotate(obs, [a])
        records = oracle.annotate(obs, [a, b])
        assert [r.value for r in records] == [1.0, 0.0]
        assert b.question in post.prompts[1]
        assert a.question not in post.prompts[1]
        assert oracle.annotation_pairs == 2

    def test_each_observation_asked_for_its_own_missing_concepts(self):
        a, b = self.concepts
        oracle, post, _ = make_oracle([chat_body({"answers": [1]}),
                                       chat_body({"answers": [1, 0]}),
                                       chat_body({"answers": [0]}),
                                       chat_body({"answers": [1, 0]})])
        obs = [Observation(f"o{i}", f"note {i}") for i in range(3)]
        oracle.annotate(obs[1:2], [a])
        records = oracle.annotate(obs, [a, b])
        assert [r.value for r in records] == [1.0, 0.0] * 3
        for prompt, note in zip(post.prompts[1:], ("note 0", "note 1", "note 2")):
            assert note in prompt and b.question in prompt
            assert (a.question in prompt) == (note != "note 1")
        assert oracle.annotation_pairs == 6

    def test_prompt_is_label_blind(self):
        # identical observations with different labels produce identical prompts
        prompts = []
        for label in (0, 1):
            oracle, post, _ = make_oracle([chat_body({"answers": [1, 0]})])
            oracle.annotate([Observation("o1", "the note text", label=label)],
                            self.concepts)
            prompts.append(post.prompts[0])
        assert prompts[0] == prompts[1]
        assert "the note text" in prompts[0]
        for c in self.concepts:
            assert c.question in prompts[0]

    def test_failure_imputes_half_and_flags(self):
        oracle, post, _ = make_oracle([chat_body({"answers": [1]})])  # wrong length
        records = oracle.annotate([Observation("o1", "note")], self.concepts)
        assert [r.value for r in records] == [0.5, 0.5]
        assert oracle.imputed_values == 2
        assert any(e["event"] == "annotation_imputed" for e in oracle.run_log)

    def test_transport_failure_imputes_after_retries(self):
        oracle, post, sleeps = make_oracle([requests.ConnectionError("down")] * 3)
        records = oracle.annotate([Observation("o1", "note")], self.concepts)
        assert [r.value for r in records] == [0.5, 0.5]
        assert oracle.imputed_values == 2

    def test_out_of_range_values_clamped(self):
        oracle, _, _ = make_oracle([chat_body({"answers": [1.4, -0.2]})])
        records = oracle.annotate([Observation("o1", "note")], self.concepts)
        assert [r.value for r in records] == [1.0, 0.0]
        assert oracle.cache.clamp_events == 2


class TestLLMConfig:
    def test_round_trip(self):
        cfg = make_config(task_description="predict readmission",
                          prompt_dir="/tmp/prompts")
        assert LLMConfig.from_dict(cfg.to_dict()) == cfg
