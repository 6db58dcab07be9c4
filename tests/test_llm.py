import hashlib
import json
import re
import sys
import threading
from dataclasses import asdict

import numpy as np
import pytest
import requests

from ccbm.concepts import Concept
from ccbm.config import load
from ccbm.llm import (WEIGHT_FLOOR, ChatClient, LLMConfig, LLMOracle,
                      _support_weights, load_template, parse_json_content)
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

    @pytest.mark.parametrize("content", ['[{"a": 1}]', '"text"', "3", "null", "[]"])
    def test_an_answer_that_is_not_an_object_raises(self, content):
        with pytest.raises(ValueError, match="expected a JSON object"):
            parse_json_content(content)


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

    def test_an_answer_that_is_not_an_object_is_retried(self):
        post = FakePost([chat_body(["a", "b"]), chat_body({"ok": True})])
        client = ChatClient(make_config(), post_fn=post, sleep_fn=lambda s: None)
        assert client.complete_json("hi", 0.0) == {"ok": True}
        assert client.call_count == 2 and client.retry_count == 1

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


def test_each_template_read_once_per_oracle(monkeypatch):
    import ccbm.llm
    reads = []

    def counting_load(name, prompt_dir=None):
        reads.append(name)
        return load_template(name, prompt_dir)

    monkeypatch.setattr(ccbm.llm, "load_template", counting_load)
    proposal = chat_body({"candidates": ["A?"], "incumbent_weight": 1.0})
    oracle, post, _ = make_oracle(
        [chat_body({"keyphrases": ["chest pain"]}), proposal, chat_body({"answers": [1]})] * 2,
        summary_provider=lambda ctx, subset: ["phrase one"])
    for i in range(2):
        obs = [Observation(f"o{i}", f"note {i}")]
        oracle.extract_keyphrases(obs)
        oracle.propose([], Concept("Is it the incumbent?"), np.arange(1), 1,
                       np.random.default_rng(0))
        oracle.annotate(obs, [Concept("Is it red?")])
    assert sorted(reads) == ["annotate", "extract_keyphrases", "propose_concepts"]
    assert post.prompts[3] == load_template("extract_keyphrases").format(note="note 1")
    assert post.prompts[5] == load_template("annotate").format(
        questions="1. Is it red?", note="note 1")


class TestExtractKeyphrases:
    def test_strings_and_structured_entries_merge(self):
        oracle, post, _ = make_oracle([chat_body({
            "keyphrases": ["Chest Pain!", {"descriptor": "smoking",
                                           "synonyms": ["tobacco use"]}]})])
        bags = oracle.extract_keyphrases([Observation("o1", "some note text")])
        assert bags[0].phrases == {"chest pain", "smoking", "tobacco use"}

    # a keyphrases field that is not a list counts as absent, and an answer
    # without a keyphrase list is asked again
    @pytest.mark.parametrize("bodies, phrases", [
        ([{"keyphrases": [3]}], set()),
        ([{"keyphrases": "chest pain"}, {"keyphrases": ["fever"]}], {"fever"}),
        ([{"keyphrases": [None, ["fever"], "cough"]}], {"cough"}),
        ([{"keyphrases": [{"descriptor": 5, "synonyms": ["tobacco"]}]}], {"tobacco"}),
        ([{"keyphrases": [{"descriptor": "smoking", "synonyms": "tobacco"}]}], {"smoking"}),
        ([{"keyphrases": [{"descriptor": "smoking", "synonyms": ["tobacco", 7, None]}]}],
         {"smoking", "tobacco"}),
        ([{}, {"keyphrases": ["fever"]}], {"fever"})],
        ids=["number-entry", "field-not-a-list", "entries-not-strings", "descriptor-number",
             "synonyms-a-string", "synonyms-not-strings", "no-field"])
    def test_malformed_entries_count_as_absent(self, bodies, phrases):
        oracle, post, _ = make_oracle([chat_body(body) for body in bodies])
        bags = oracle.extract_keyphrases([Observation("o1", "some note text")])
        assert bags[0].phrases == phrases and len(post.requests) == len(bodies)

    @pytest.mark.parametrize("body, got", [({"keyphrases": "chest pain"}, "'chest pain'"),
                                           ({}, "None")],
                             ids=["field-not-a-list", "no-field"])
    def test_an_answer_without_a_keyphrase_list_is_retried_and_never_cached(
            self, tmp_path, body, got):
        bags = tmp_path / "bags.ndjson"
        oracle, post, _ = make_oracle([chat_body(body)] * 3, bag_cache_path=bags)
        with pytest.raises(OracleError, match=f"after 3 attempts: expected a list under "
                                              f"'keyphrases', got {got}"):
            oracle.extract_keyphrases([Observation("o1", "some note text")])
        assert len(post.requests) == 3
        # a second oracle on the bag log asks again
        again, post, _ = make_oracle([chat_body(body), chat_body({"keyphrases": ["fever"]})],
                                     bag_cache_path=bags)
        assert again.extract_keyphrases([Observation("o1", "some note text")])[0].phrases \
            == {"fever"}
        assert len(post.requests) == 2

    def test_an_empty_keyphrase_list_is_an_answer_and_is_cached(self, tmp_path):
        bags = tmp_path / "bags.ndjson"
        oracle, post, _ = make_oracle([chat_body({"keyphrases": []})], bag_cache_path=bags)
        assert oracle.extract_keyphrases([Observation("o1", "some note text")])[0].phrases \
            == frozenset()
        again, post, _ = make_oracle([], bag_cache_path=bags)
        assert again.extract_keyphrases([Observation("o1", "some note text")])[0].phrases \
            == frozenset()
        assert post.requests == []

    def test_an_answer_that_is_not_an_object_raises_after_retries(self):
        oracle, post, _ = make_oracle([chat_body([{"keyphrases": ["fever"]}])] * 3)
        with pytest.raises(OracleError, match="expected a JSON object, got list"):
            oracle.extract_keyphrases([Observation("o1", "some note text")])
        assert len(post.requests) == 3

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

    def test_bag_cache_written_once_by_concurrent_workers(self, tmp_path, monkeypatch):
        import re
        import sys
        import threading
        import ccbm.llm
        cache_path = tmp_path / "bags.ndjson"
        lock = threading.Lock()
        prompts = []
        appends = []
        append_lines = ccbm.llm.append_lines

        def recording_append(path, lines):
            # who appends, how many prompts were answered by then, how many lines
            appends.append((threading.current_thread() is threading.main_thread(),
                            len(prompts), len(lines)))
            return append_lines(path, lines)

        monkeypatch.setattr(ccbm.llm, "append_lines", recording_append)

        def post(url, headers, payload):
            prompt = payload["messages"][0]["content"]
            with lock:
                prompts.append(prompt)
            word = re.search(r"note (word\d+)", prompt).group(1)
            return chat_body({"keyphrases": [word, "shared"]})

        config = make_config(max_in_flight=4)
        observations = [Observation(f"o{i}", f"note word{i}") for i in range(50)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            oracle = LLMOracle(config, client=ChatClient(config, post_fn=post),
                               bag_cache_path=cache_path)
            bags = oracle.extract_keyphrases(observations)
            # a call that extracts nothing new appends nothing
            assert oracle.extract_keyphrases(observations[:10]) == bags[:10]
        finally:
            sys.setswitchinterval(switch)
        assert len(prompts) == 50
        # one append per call, from the calling thread, after every worker is done
        assert appends == [(True, 50, 50)]
        assert [json.loads(line) for line in cache_path.read_text().splitlines()] == [
            {"observation_id": b.observation_id, "phrases": sorted(b.phrases)} for b in bags]

        reloaded, post2, _ = make_oracle([], config=config, bag_cache_path=cache_path)
        assert reloaded.extract_keyphrases(observations) == bags
        assert post2.requests == []


class TestBagLog:
    def written(self, path, n=3):
        oracle, _, _ = make_oracle([chat_body({"keyphrases": [f"word{i}"]}) for i in range(n)],
                                   bag_cache_path=path)
        return oracle.extract_keyphrases([Observation(f"o{i}", f"note {i}") for i in range(n)])

    def test_torn_tail_dropped_and_cut(self, tmp_path):
        path = tmp_path / "bags.ndjson"
        self.written(path)
        raw = path.read_bytes()
        for cut in range(raw.rindex(b"\n", 0, len(raw) - 1) + 1, len(raw)):
            path.write_bytes(raw[:cut])
            oracle, post, _ = make_oracle([chat_body({"keyphrases": ["fresh"]})],
                                          bag_cache_path=path)
            assert path.read_bytes() == raw[:raw.rindex(b"\n", 0, cut) + 1]
            bags = oracle.extract_keyphrases([Observation(f"o{i}", f"note {i}")
                                              for i in range(3)])
            assert [sorted(b.phrases) for b in bags] == [["word0"], ["word1"], ["fresh"]]
            assert len(post.requests) == 1
            assert [json.loads(line)["observation_id"]
                    for line in path.read_text().splitlines()] == ["o0", "o1", "o2"]

    def test_corrupt_middle_line_names_the_file(self, tmp_path):
        path = tmp_path / "bags.ndjson"
        self.written(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + '{"observation_id": "o1", "phr\n' + lines[2])
        with pytest.raises(ValueError, match=r"bags\.ndjson:2: .*only a cache and can be deleted"):
            make_oracle([], bag_cache_path=path)

    @pytest.mark.parametrize("content", ['{"o1": ["alpha"], "o2": []}', "{}",
                                         '{"observation_id": ["alpha"]}'])
    def test_old_single_object_file_names_the_file(self, tmp_path, content):
        path = tmp_path / "bags.json"
        path.write_text(content)
        with pytest.raises(ValueError, match=r"bags\.json .*only a cache and can be deleted"):
            make_oracle([], bag_cache_path=path)
        assert path.read_text() == content


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

    @pytest.mark.parametrize("body", [{"concepts": "Q1?"}, {"concepts": [5, None, ["Q?"]]},
                                      {"concepts": {"Q1?": 1}}],
                             ids=["field-a-string", "entries-not-strings", "field-an-object"])
    def test_malformed_concepts_count_as_absent(self, body):
        oracle, post, _ = make_oracle([chat_body(body)] * 3)
        with pytest.raises(InitializationError, match="fewer than 1 distinct concepts"):
            oracle.initialize_concepts(["x"], k=1)
        assert len(post.requests) == 3

    def test_an_answer_that_is_not_an_object_raises_after_retries(self):
        oracle, post, _ = make_oracle([chat_body(["A?", "B?"])] * 3)
        with pytest.raises(OracleError, match="expected a JSON object, got list"):
            oracle.initialize_concepts(["x"], k=2)
        assert len(post.requests) == 3

    def test_empty_summary_rejected(self):
        oracle, _, _ = make_oracle([])
        with pytest.raises(InitializationError):
            oracle.initialize_concepts([], k=2)

    def test_starts_from_the_whole_phrase(self):
        oracle, post, _ = make_oracle([chat_body({"concepts": ["Smokes?"]})])
        assert [c.question for c in oracle.initialize_concepts(["smoking"], k=1)] == ["Smokes?"]
        assert post.prompts == [load_template("initialize_concepts").format(
            k=1, top_keyphrases="- smoking")]


def proposal_oracle(body, incumbent_weight=None, **oracle_kwargs):
    if incumbent_weight is not None:
        body = dict(body, incumbent_weight=incumbent_weight)
    return make_oracle([chat_body(body)],
                       summary_provider=lambda ctx, subset: ["phrase one"],
                       **oracle_kwargs)


class TestPropose:
    context = [Concept("Is it a context concept?")]
    incumbent = Concept("Is it the incumbent?")

    def propose(self, body, m=3, rng=None, **kwargs):
        oracle, post, _ = proposal_oracle(body, **kwargs)
        proposal = oracle.propose(self.context, self.incumbent, np.arange(5), m,
                                  rng or np.random.default_rng(0))
        return oracle, post, proposal

    def law(self, body, m=3, incumbent_weight=None):
        """q of each support concept, by question: the answer's weights,
        normalized as OracleProposal.draw normalizes them."""
        if incumbent_weight is not None:
            body = dict(body, incumbent_weight=incumbent_weight)
        support, weights = _support_weights(body, self.context, self.incumbent, m)
        assert np.all(np.isfinite(weights)) and weights.max() == 1.0
        return dict(zip([c.question for c in support], (weights / weights.sum()).tolist()))

    def test_weights_normalized_with_incumbent(self):
        body = {"candidates": [{"question": "A?", "weight": 3.0},
                               {"question": "B?", "weight": 1.0}]}
        law = self.law(body, incumbent_weight=1.0)
        assert law == pytest.approx({"A?": 0.6, "B?": 0.2, self.incumbent.question: 0.2})
        _, _, p = self.propose(body, incumbent_weight=1.0)
        assert p.q_current == pytest.approx(0.2)
        assert p.q_weights.tolist() == pytest.approx([law[c.question] for c in p.candidates])

    def test_missing_weights_imputed_uniform(self):
        law = self.law({"candidates": ["A?", "B?"]}, incumbent_weight=1.0)
        assert law["A?"] == law["B?"] == law[self.incumbent.question]

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), 10 ** 400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    def test_weight_not_a_finite_number_imputed_like_a_missing_one(self, weight):
        # json.loads reads NaN, Infinity and ints beyond the float range
        body = {"candidates": [{"question": "A?", "weight": weight},
                               {"question": "B?", "weight": 2.0}]}
        assert self.law(body, incumbent_weight=1.0) == \
            {"A?": 0.25, "B?": 0.5, self.incumbent.question: 0.25}

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_incumbent_weight_not_a_finite_number_floored(self, weight):
        body = {"candidates": [{"question": "A?", "weight": 1.0}]}
        law = self.law(body, incumbent_weight=weight)
        assert law[self.incumbent.question] == pytest.approx(WEIGHT_FLOOR * law["A?"],
                                                             rel=1e-9)

    def test_zero_incumbent_weight_floored(self):
        body = {"candidates": [{"question": "A?", "weight": 1.0}]}
        law = self.law(body)
        assert law[self.incumbent.question] == pytest.approx(WEIGHT_FLOOR * law["A?"],
                                                             rel=1e-9)
        _, _, p = self.propose(body)
        assert p.q_current == law[self.incumbent.question] > 0

    def test_all_zero_weights_fall_back_to_uniform(self):
        body = {"candidates": [{"question": "A?", "weight": 0.0},
                               {"question": "B?", "weight": 0.0}]}
        law = self.law(body, incumbent_weight=1.0)
        assert law["A?"] == law["B?"] == law[self.incumbent.question]

    @pytest.mark.parametrize("weights, incumbent_weight, law", [
        # the candidate's q underflows to 0, so every try is the incumbent
        ([1e-30], 1e308, {"A?": 0.0, "Is it the incumbent?": 1.0}),
        # the weights' sum would overflow; the incumbent gets the floor
        ([1e308, 1e308], 1.0, {"A?": 1 / 2.002, "B?": 1 / 2.002,
                               "Is it the incumbent?": 0.002 / 2.002})],
        ids=["underflow", "overflow"])
    def test_float_edge_weights_give_a_valid_law(self, weights, incumbent_weight, law):
        body = {"candidates": [{"question": f"{name}?", "weight": w}
                               for name, w in zip("AB", weights)]}
        assert self.law(body, incumbent_weight=incumbent_weight) == pytest.approx(law)
        _, _, p = self.propose(body, m=8, incumbent_weight=incumbent_weight)
        assert p.q_weights.tolist() == pytest.approx([law[c.question] for c in p.candidates])
        assert p.q_current == pytest.approx(law[self.incumbent.question])

    def test_context_duplicates_and_repeats_skipped(self):
        body = {"candidates": [self.context[0].question, "A?", "a?", "B?"]}
        assert list(self.law(body, incumbent_weight=1.0)) == \
            ["A?", "B?", self.incumbent.question]

    def test_candidate_list_truncated_at_m(self):
        body = {"candidates": ["A?", "B?", "C?", "D?"]}
        assert list(self.law(body, m=2, incumbent_weight=1.0)) == \
            ["A?", "B?", self.incumbent.question]
        _, _, p = self.propose(body, m=2, incumbent_weight=1.0)
        assert len(p.candidates) == 2

    @pytest.mark.parametrize("candidates", [
        [5, "A?", None, ["B?"]],
        [{"question": 5, "weight": 1.0}, {"question": "A?", "weight": 1.0}]],
        ids=["entries-not-strings-or-objects", "question-a-number"])
    def test_malformed_candidates_count_as_absent(self, candidates):
        law = self.law({"candidates": candidates}, incumbent_weight=1.0)
        assert list(law) == ["A?", self.incumbent.question]

    def test_a_candidates_string_counts_as_absent(self):
        # not the candidates "I", "s", ... of its characters
        with pytest.raises(ProposalError, match="no usable candidates"):
            self.propose({"candidates": "Is it A?"}, incumbent_weight=1.0)

    def test_an_answer_that_is_not_an_object_raises_after_retries(self):
        oracle, post, _ = make_oracle([chat_body([{"candidates": ["A?"]}])] * 3,
                                      summary_provider=lambda ctx, subset: ["phrase one"])
        with pytest.raises(ProposalError, match="expected a JSON object, got list"):
            oracle.propose(self.context, self.incumbent, np.arange(5), 3,
                           np.random.default_rng(0))
        assert len(post.requests) == 3

    def test_no_usable_candidates_raises(self):
        with pytest.raises(ProposalError):
            self.propose({"candidates": [self.context[0].question]})

    def test_prompt_lists_the_provider_phrases_in_order(self):
        asked = []

        def provider(concepts, subset):
            asked.append((list(concepts), subset.tolist()))
            return ["zeta", "alpha", "mu"]

        oracle, post, _ = make_oracle([chat_body({"candidates": ["A?"]})],
                                      summary_provider=provider)
        oracle.propose(self.context, self.incumbent, np.arange(5), 3, np.random.default_rng(0))
        # the summary is fitted on the other slots alone, never on the incumbent
        assert asked == [(self.context, [0, 1, 2, 3, 4])]
        assert "\n- zeta\n- alpha\n- mu\n" in post.prompts[0]

    def test_missing_summary_provider_raises(self):
        oracle, _, _ = make_oracle([])
        with pytest.raises(ProposalError):
            oracle.propose(self.context, self.incumbent, np.arange(5), 3,
                           np.random.default_rng(0))

    def test_reproposed_incumbent_keeps_its_weight(self):
        body = {"candidates": [{"question": self.incumbent.question, "weight": 4.0},
                               {"question": "A?", "weight": 1.0}]}
        assert self.law(body) == {self.incumbent.question: 0.8, "A?": 0.2}
        _, _, p = self.propose(body)
        assert p.q_current == 0.8

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_tries_are_one_choice_of_a_twin_rng(self, seed, m):
        # support A?, B?, the incumbent; q exactly 0.5, 0.25, 0.25
        body = {"candidates": [{"question": "A?", "weight": 2.0},
                               {"question": "B?", "weight": 1.0}]}
        _, _, p = self.propose(body, m=m, rng=np.random.default_rng(seed),
                               incumbent_weight=1.0)
        q = np.array([0.5, 0.25, 0.25])
        draws = np.random.default_rng(seed).choice(3, size=m, p=q)
        support = ["A?", "B?", self.incumbent.question]
        assert [c.question for c in p.candidates] == [support[i] for i in draws]
        assert p.q_weights.tolist() == q[draws].tolist()
        assert p.q_current == 0.25 and p.on_subset

    def test_q_does_not_depend_on_the_incumbent(self):
        """With an answer that ignores the incumbent line, two incumbents get
        one law over the listed candidates: the prompt differs only in that
        line, since the summary is fitted without the incumbent."""
        def transport(url, headers, payload):
            prompt = payload["messages"][0]["content"]
            head = prompt[:prompt.index("The current incumbent")]
            digest = hashlib.sha256(head.encode()).digest()
            return chat_body({"candidates": [{"question": f"Is it {name}?", "weight": 1 + b}
                                             for name, b in zip("ABC", digest)],
                              "incumbent_weight": 1 + digest[3]})

        def provider(concepts, subset):
            return [c.question for c in concepts]

        proposals = []
        for incumbent in (self.incumbent, Concept("Is it another incumbent?")):
            client = ChatClient(make_config(), post_fn=transport, sleep_fn=lambda s: None)
            oracle = LLMOracle(make_config(), client=client, summary_provider=provider)
            proposals.append(oracle.propose(self.context, incumbent, np.arange(5), 3,
                                            np.random.default_rng(1)))
        first, second = proposals
        assert first.q_current == second.q_current
        assert first.q_weights.tolist() == second.q_weights.tolist()
        rename = {self.incumbent.question: "Is it another incumbent?"}
        assert [rename.get(c.question, c.question) for c in first.candidates] == \
            [c.question for c in second.candidates]


class TestAnnotate:
    concepts = [Concept("Is it red?"), Concept("Is it large?")]

    def test_values_parsed_and_cached(self):
        oracle, post, _ = make_oracle([chat_body({"answers": [1, 0]})])
        obs = [Observation("o1", "a red small thing", label=1)]
        table = oracle.annotate(obs, self.concepts)
        assert table.tolist() == [[1.0, 0.0]]
        assert oracle.annotation_pairs == 2
        # warm repeat: no new calls, no new pairs
        again = oracle.annotate(obs, self.concepts)
        assert again.tolist() == [[1.0, 0.0]]
        assert len(post.requests) == 1
        assert oracle.annotation_pairs == 2

    def test_asks_only_for_missing_concepts(self):
        a, b = self.concepts
        oracle, post, _ = make_oracle([chat_body({"answers": [1]}),
                                       chat_body({"answers": [0]})])
        obs = [Observation("o1", "a red small thing")]
        oracle.annotate(obs, [a])
        table = oracle.annotate(obs, [a, b])
        assert table.tolist() == [[1.0, 0.0]]
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
        table = oracle.annotate(obs, [a, b])
        assert table.tolist() == [[1.0, 0.0]] * 3
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
        # a wrong-length answer at every attempt
        oracle, post, _ = make_oracle([chat_body({"answers": [1]})] * 3)
        table = oracle.annotate([Observation("o1", "note")], self.concepts)
        assert table.tolist() == [[0.5, 0.5]]
        assert oracle.imputed_values == 2
        assert len(post.requests) == 3 and oracle.client.retry_count == 2

    @pytest.mark.parametrize("bad", [[1], [1, 0, 1], [float("nan"), 1], "1, 0", None],
                             ids=["short", "long", "nan", "string", "none"])
    def test_a_malformed_answer_is_asked_again(self, tmp_path, bad):
        log = tmp_path / "annotations.ndjson"
        oracle, post, _ = make_oracle([chat_body({"answers": bad}),
                                       chat_body({"answers": [0.25, 1]})],
                                      cache=AnnotationCache(log))
        table = oracle.annotate([Observation("o1", "note")], self.concepts)
        assert table.tolist() == [[0.25, 1.0]]
        assert len(post.requests) == 2 and oracle.imputed_values == 0
        assert AnnotationCache(log).get_many([("o1", c.id) for c in self.concepts]) == \
            [0.25, 1.0]

    def test_transport_failure_imputes_after_retries(self):
        oracle, post, sleeps = make_oracle([requests.ConnectionError("down")] * 3)
        table = oracle.annotate([Observation("o1", "note")], self.concepts)
        assert table.tolist() == [[0.5, 0.5]]
        assert oracle.imputed_values == 2

    def test_imputed_values_are_not_cached(self, tmp_path):
        log = tmp_path / "annotations.ndjson"
        obs = [Observation("o1", "note one"), Observation("o2", "note two")]
        oracle, _, _ = make_oracle([chat_body({"answers": [1, 0]})]
                                   + [requests.ConnectionError("down")] * 3,
                                   cache=AnnotationCache(log))
        table = oracle.annotate(obs, self.concepts)
        assert table.tolist() == [[1.0, 0.0], [0.5, 0.5]]
        assert oracle.imputed_values == 2
        assert [json.loads(line)["observation_id"]
                for line in log.read_text().splitlines()] == ["o1", "o1"]
        # the next run asks again for what was imputed, and only for that
        oracle, post, _ = make_oracle([chat_body({"answers": [0, 1]})],
                                      cache=AnnotationCache(log))
        table = oracle.annotate(obs, self.concepts)
        assert table.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert len(post.prompts) == 1 and "note two" in post.prompts[0]

    def test_out_of_range_values_clamped(self):
        oracle, _, _ = make_oracle([chat_body({"answers": [1.4, -0.2]})])
        table = oracle.annotate([Observation("o1", "note")], self.concepts)
        assert table.tolist() == [[1.0, 0.0]]
        assert oracle.cache.clamp_events == 2


class TestAnnotationTable:
    concepts = [Concept("Is it red?"), Concept("Is it large?"), Concept("Is it round?")]

    def test_clamped_imputed_and_partly_cached_rows(self, tmp_path):
        log = tmp_path / "annotations.ndjson"
        obs = [Observation(f"o{i}", f"note {i}") for i in range(4)]
        a, b, c = self.concepts
        cache = AnnotationCache(log)
        cache.put_many([("o2", a.id), ("o3", a.id), ("o3", b.id), ("o3", c.id)],
                       [0.25, 1.0, 0.0, 1.0], "llm")
        answers = {"note 0": [1.4, -0.2, 0.5], "note 2": [0.75, 2.0]}

        def post(url, headers, payload):
            prompt = payload["messages"][0]["content"]
            for note, values in answers.items():
                if note in prompt:
                    return chat_body({"answers": values})
            raise requests.ConnectionError("down")  # note 1 fails every attempt

        config = make_config(max_in_flight=3)
        oracle = LLMOracle(config, cache=cache,
                           client=ChatClient(config, post_fn=post, sleep_fn=lambda s: None))
        table = oracle.annotate(obs, self.concepts)
        assert table.tolist() == [[1.0, 0.0, 0.5],
                                  [0.5, 0.5, 0.5],   # imputed for this call only
                                  [0.25, 0.75, 1.0],
                                  [1.0, 0.0, 1.0]]
        assert oracle.imputed_values == 3
        assert oracle.annotation_pairs == 8
        assert cache.clamp_events == 3
        assert (cache.hits, cache.misses) == (4, 8)
        # the per-record reference: every record the call cached, clamped,
        # row by row and in concept order within a row; nothing for o1
        written = [json.loads(line) for line in log.read_text().splitlines()][4:]
        assert [(r["observation_id"], r["concept_id"], r["value"], r["source"])
                for r in written] == [("o0", a.id, 1.0, "llm"), ("o0", b.id, 0.0, "llm"),
                                      ("o0", c.id, 0.5, "llm"), ("o2", b.id, 0.75, "llm"),
                                      ("o2", c.id, 1.0, "llm")]
        assert len({r["timestamp"] for r in written}) == 1
        assert AnnotationCache(log).get_many([("o1", x.id) for x in self.concepts]) == \
            [None] * 3

    def test_nan_answer_is_imputed_not_cached(self):
        # a NaN at every attempt
        oracle, post, _ = make_oracle([chat_body({"answers": [float("nan"), 1]})] * 3)
        table = oracle.annotate([Observation("o1", "note")], self.concepts[:2])
        assert table.tolist() == [[0.5, 0.5]]
        assert oracle.imputed_values == 2 and len(oracle.cache) == 0
        assert len(post.requests) == 3


class TestLLMCounts:
    """call_count, retry_count and imputed_values are counted from the worker
    threads; with a flaky transport they equal the transport's own counts."""

    class FlakyPost:
        def __init__(self, fail_first, fail_always=()):
            self.fail_first, self.fail_always = fail_first, set(fail_always)
            self.lock = threading.Lock()
            self.calls = self.failures = 0
            self.seen = set()

        def __call__(self, url, headers, payload):
            prompt = payload["messages"][0]["content"]
            note = int(re.search(r"note number (\d+)", prompt).group(1))
            with self.lock:
                self.calls += 1
                first = note not in self.seen
                self.seen.add(note)
                fail = note in self.fail_always or (first and note % self.fail_first == 0)
                self.failures += fail
            if fail:
                raise requests.ConnectionError("flaky")
            return chat_body({"answers": [note % 2, 1]})

    def run(self, post, n=300):
        config = make_config(max_in_flight=4)
        oracle = LLMOracle(config, client=ChatClient(config, post_fn=post,
                                                     sleep_fn=lambda s: None))
        observations = [Observation(f"o{i}", f"note number {i}") for i in range(n)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = oracle.annotate(observations, TestAnnotate.concepts)
        finally:
            sys.setswitchinterval(switch)
        return oracle, table

    def test_retries_counted_like_the_transport(self):
        post = self.FlakyPost(fail_first=3)
        oracle, table = self.run(post)
        assert post.failures == 100
        assert oracle.client.call_count == post.calls == 400
        assert oracle.client.retry_count == post.failures
        assert oracle.imputed_values == 0
        assert table[:, 0].tolist() == [float(i % 2) for i in range(300)]

    def test_imputations_counted_like_the_transport(self):
        always = range(0, 300, 7)
        post = self.FlakyPost(fail_first=5, fail_always=always)
        oracle, table = self.run(post)
        retries = post.failures - len(always)  # the last failed attempt is not retried
        assert oracle.client.call_count == post.calls
        assert oracle.client.retry_count == retries
        assert oracle.imputed_values == 2 * len(always)
        assert table[list(always)].tolist() == [[0.5, 0.5]] * len(always)


class TestLLMConfig:
    def test_round_trip(self):
        cfg = make_config(prompt_dir="/tmp/prompts")
        assert load(LLMConfig, asdict(cfg), "oracle") == cfg

    @pytest.mark.parametrize("field, value", [
        ("backoff_seconds", (True,)), ("max_in_flight", 2.0), ("request_timeout", 10**400),
        ("prompt_dir", 5)])
    def test_a_directly_built_config_is_checked(self, field, value):
        with pytest.raises(ValueError, match=rf"^oracle\.{field} must ") as caught:
            make_config(**{field: value})
        assert str(caught.value).endswith(f", got {value!r}")
