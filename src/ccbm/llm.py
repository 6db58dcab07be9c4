"""Remote LLM oracle speaking a chat-completions-style HTTP protocol.

The client retries transport and parse failures with exponential backoff and
reads its credential from an environment variable. All prompt texts live in
external template files so deployments can swap them without code changes.
Tests inject post_fn to fake the remote end; nothing here requires a network
unless actually pointed at one.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .concepts import Concept, ConceptSet
from .config import check_fields, setting
from .oracle import (AnnotationCache, ConceptOracle, InitializationError, KeyphraseBag,
                     Observation, OracleError, OracleProposal, ProposalError, Scorer,
                     append_lines, cached_table, fresh_pairs, normalize_phrase, read_log)

WEIGHT_FLOOR = 1e-3  # floor for proposal weights, as a fraction of the listed candidates' mass
# how every line of the keyphrase bag log begins
BAG_LINE_HEAD = b'{"observation_id": "'


@dataclass(frozen=True)
class LLMConfig:
    endpoint: str
    model: str
    api_key_env: str = "CCBM_API_KEY"
    max_retries: int = setting(3, least=1)
    backoff_seconds: tuple[float, ...] = setting((1.0, 4.0, 16.0), least=0, nonempty=True)
    annotate_temperature: float = setting(0.0, least=0)
    propose_temperature: float = setting(1.0, least=0)
    request_timeout: float = setting(120.0, above=0)
    max_in_flight: int = setting(4, least=1)
    prompt_dir: Optional[str] = None

    def __post_init__(self):
        check_fields(self, "oracle")


def load_template(name: str, prompt_dir: Optional[str] = None) -> str:
    if prompt_dir is not None:
        path = Path(prompt_dir) / f"{name}.txt"
        if path.exists():
            return path.read_text()
    return resources.files("ccbm.prompts").joinpath(f"{name}.txt").read_text()


_JSON_BLOCK_RE = re.compile(r"\{.*\}", re.DOTALL)


def parse_json_content(content: str) -> dict:
    """Parse a JSON object out of a chat response, tolerating code fences. An
    answer that holds no JSON object raises ValueError."""
    text = content.strip()
    if text.startswith("```"):
        text = re.sub(r"^```[a-z]*\s*|\s*```$", "", text)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        match = _JSON_BLOCK_RE.search(text)
        if match is None:
            raise
        value = json.loads(match.group(0))
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value


def _list_field(body: dict, name: str) -> list:
    """The answer's field name if it is a list; any other value counts as absent."""
    value = body.get(name)
    return value if isinstance(value, list) else []


def _required_list(body: dict, name: str) -> list:
    """The answer's field name, which must be a list: else ValueError."""
    value = body.get(name)
    if not isinstance(value, list):
        raise ValueError(f"expected a list under {name!r}, got {value!r}")
    return value


def _answers(body: dict, n: int) -> list[float]:
    """The n numbers of an annotation answer; another count, an entry that is
    not a number, or a NaN raises ValueError or TypeError."""
    values = [float(a) for a in _required_list(body, "answers")]
    if len(values) != n or any(v != v for v in values):
        raise ValueError(f"expected {n} numbers as answers, got {body['answers']!r}")
    return values


class ChatClient:
    """Minimal chat-completions client with retry/backoff.

    post_fn(url, headers, payload) -> response body dict; the default uses
    requests, which is imported only when a client with that default is
    built. Transport failures (OSError, which every requests exception
    derives from) and parse failures are retried, so a flaky model gets the
    same second chances as a flaky network; an answer that is not a JSON
    object is a parse failure. call_count and retry_count are
    counted under a lock, since the oracle calls from worker threads.
    """

    def __init__(self, config: LLMConfig,
                 post_fn: Optional[Callable[[str, dict, dict], dict]] = None,
                 sleep_fn: Callable[[float], None] = time.sleep):
        self.config = config
        if post_fn is None:
            import requests  # noqa: F401  -- fail here, not in a worker thread, if it is missing
            post_fn = self._http_post
        self.post_fn = post_fn
        self.sleep_fn = sleep_fn
        self.call_count = 0
        self.retry_count = 0
        self._count_lock = threading.Lock()

    def _http_post(self, url: str, headers: dict, payload: dict) -> dict:
        import requests

        response = requests.post(url, headers=headers, json=payload,
                                 timeout=self.config.request_timeout)
        response.raise_for_status()
        return response.json()

    def _headers(self) -> dict:
        key = os.environ.get(self.config.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete_json(self, prompt: str, temperature: float,
                      parse: Callable[[dict], object] = lambda answer: answer):
        """One prompt -> parse of the JSON object answered, with retries. An
        answer that parse rejects (KeyError, TypeError, ValueError) is a parse
        failure."""
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "response_format": {"type": "json_object"},
        }
        last_error: Optional[Exception] = None
        for attempt in range(self.config.max_retries):
            if attempt > 0:
                self.sleep_fn(self.config.backoff_seconds[
                    min(attempt - 1, len(self.config.backoff_seconds) - 1)])
                with self._count_lock:
                    self.retry_count += 1
            try:
                with self._count_lock:
                    self.call_count += 1
                body = self.post_fn(self.config.endpoint, self._headers(), payload)
                return parse(parse_json_content(body["choices"][0]["message"]["content"]))
            except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                last_error = exc
        raise OracleError(
            f"request failed after {self.config.max_retries} attempts: {last_error}")


class LLMOracle(ConceptOracle):
    """Concept oracle backed by a chat-completions endpoint.

    Annotation prompts contain only the observation text and concept
    questions, never labels, so no target information can leak into the
    extracted values. The target is referred to as "Y".

    propose needs the residual-model keyphrase summary for the current data
    subset; the pipeline supplies it through summary_provider(context, subset)
    -> list of phrase strings, strongest first.
    """

    def __init__(self, config: LLMConfig, cache: Optional[AnnotationCache] = None,
                 client: Optional[ChatClient] = None,
                 summary_provider: Optional[Callable] = None,
                 bag_cache_path: Optional[Path] = None):
        self.config = config
        self.cache = cache if cache is not None else AnnotationCache()
        self.client = client if client is not None else ChatClient(config)
        self.summary_provider = summary_provider
        self.annotation_pairs = 0
        self.imputed_values = 0  # counted under _lock: worker threads impute
        self._lock = threading.Lock()
        self._templates: dict[str, str] = {}  # prompt template text by name, read once
        self._bag_cache_path = Path(bag_cache_path) if bag_cache_path else None
        self._bag_cache: dict[str, list[str]] = {}
        if self._bag_cache_path is not None and self._bag_cache_path.exists():
            self._load_bags(self._bag_cache_path)

    def _load_bags(self, path: Path):
        """Read the keyphrase bag log: one {"observation_id", "phrases"} line
        per extracted observation, read like the annotation log."""
        hint = f"{path} is only a cache and can be deleted"
        with open(path, "rb") as fh:
            head = fh.read(len(BAG_LINE_HEAD))
        if not BAG_LINE_HEAD.startswith(head):
            raise ValueError(f"keyphrase bag cache {path} is not a bag log, one JSON "
                             f"record per line (an older single-object file?); {hint}")

        def apply(records):
            for rec in records:
                if not isinstance(rec["phrases"], list):
                    raise TypeError("phrases must be a list")
                self._bag_cache[rec["observation_id"]] = rec["phrases"]

        try:
            read_log(path, apply, "keyphrase bag record")
        except ValueError as exc:
            raise ValueError(f"{exc}; {hint}") from exc

    def _template(self, name: str) -> str:
        text = self._templates.get(name)
        if text is None:  # two threads may both read it first; they read the same text
            text = self._templates[name] = load_template(name, self.config.prompt_dir)
        return text

    # -- keyphrase extraction ---------------------------------------------

    def _extract_one(self, obs: Observation) -> list[str]:
        if obs.id in self._bag_cache:
            return self._bag_cache[obs.id]
        if not obs.payload.strip():
            phrases: list[str] = []
        else:
            prompt = self._template("extract_keyphrases").format(note=obs.payload)
            # an answer without a keyphrase list is retried, never cached as
            # an empty bag; {"keyphrases": []} is an answer
            entries = self.client.complete_json(
                prompt, self.config.annotate_temperature,
                parse=lambda body: _required_list(body, "keyphrases"))
            phrases = []
            for entry in entries:
                if isinstance(entry, dict):
                    phrases += [entry.get("descriptor"), *_list_field(entry, "synonyms")]
                else:
                    phrases.append(entry)
        # an entry, descriptor or synonym that is not a string counts as absent
        normalized = sorted({p for p in (normalize_phrase(s) for s in phrases
                                         if isinstance(s, str)) if p})
        self._bag_cache[obs.id] = normalized
        return normalized

    def extract_keyphrases(self, observations: Sequence[Observation]) -> list[KeyphraseBag]:
        known = len(self._bag_cache)
        try:
            with ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
                results = list(pool.map(self._extract_one, observations))
        finally:
            # one append per call, after the workers are done, so what they
            # extracted before a failure is kept; lines go in input order
            if self._bag_cache_path is not None and len(self._bag_cache) > known:
                fresh = set(islice(self._bag_cache, known, None))
                append_lines(self._bag_cache_path, [
                    json.dumps({"observation_id": oid, "phrases": self._bag_cache[oid]}) + "\n"
                    for oid in dict.fromkeys(obs.id for obs in observations) if oid in fresh])
        return [KeyphraseBag(obs.id, frozenset(phrases))
                for obs, phrases in zip(observations, results)]

    # -- initialization ---------------------------------------------------

    def initialize_concepts(self, phrases: Sequence[str], k: int) -> ConceptSet:
        if not phrases:
            raise InitializationError("keyphrase summary is empty")
        prompt = self._template("initialize_concepts").format(
            k=k, top_keyphrases="\n".join(f"- {p}" for p in phrases))
        for attempt in range(self.config.max_retries):
            body = self.client.complete_json(prompt, self.config.propose_temperature)
            # distinct concepts, each as first spelled
            concepts = list(dict.fromkeys(Concept(q.strip()) for q in _list_field(body, "concepts")
                                          if isinstance(q, str) and q.strip()))
            if len(concepts) >= k:
                return ConceptSet(concepts[:k])
        raise InitializationError(
            f"oracle returned fewer than {k} distinct concepts after "
            f"{self.config.max_retries} attempts")

    # -- proposals --------------------------------------------------------

    def propose(self, context: Sequence[Concept], incumbent: Concept,
                subset: np.ndarray, m: int, rng: np.random.Generator,
                score: Optional[Scorer] = None) -> OracleProposal:
        """m i.i.d. tries from the answer's q; see _support_weights."""
        if self.summary_provider is None:
            raise ProposalError("LLM oracle needs a summary_provider to propose")
        phrases = self.summary_provider(list(context), subset)
        existing = "\n".join(f"{i + 1}. {c.question}" for i, c in enumerate(context))
        prompt = self._template("propose_concepts").format(
            k=len(context) + 1,
            existing_concepts=existing or "(none yet)",
            top_keyphrases="\n".join(f"- {p}" for p in phrases) or "(no residual signal)")
        prompt += (f"\nPropose at most {m} candidate meta-concepts. The current "
                   f"incumbent for the slot being replaced is: {incumbent.question}")
        try:
            body = self.client.complete_json(prompt, self.config.propose_temperature)
        except OracleError as exc:
            raise ProposalError(str(exc)) from exc
        support, weights = _support_weights(body, context, incumbent, m)
        return OracleProposal.draw(support, weights, support.index(incumbent), m, rng,
                                   on_subset=True)

    # -- annotation -------------------------------------------------------

    def _annotate_one(self, obs: Observation,
                      concepts: Sequence[Concept]) -> Optional[list[float]]:
        """The observation's answers, or None after a failed call. An answer
        that is not one number per concept, or holds a NaN, is asked again."""
        questions = "\n".join(f"{i + 1}. {c.question}" for i, c in enumerate(concepts))
        prompt = self._template("annotate").format(questions=questions, note=obs.payload)
        try:
            return self.client.complete_json(prompt, self.config.annotate_temperature,
                                             parse=lambda body: _answers(body, len(concepts)))
        except OracleError:
            with self._lock:
                self.imputed_values += len(concepts)
            return None

    def annotate(self, observations: Sequence[Observation],
                 concepts: Sequence[Concept]) -> np.ndarray:
        """Cached values; for the rest, one call per observation asking only
        for its uncached concepts. Answers are clamped to [0, 1] and cached."""
        table, missing = cached_table(self.cache, observations, concepts)
        todo = [(r, np.flatnonzero(missing[r]).tolist())
                for r in np.flatnonzero(missing.any(axis=1)).tolist()]
        if not todo:
            return table
        with ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
            answers = list(pool.map(
                lambda job: self._annotate_one(observations[job[0]],
                                               [concepts[j] for j in job[1]]), todo))
        rows, cols, values = [], [], []
        for (r, lacking), got in zip(todo, answers):
            # never drop an observation: a failed call imputes 0.5 for this
            # call only and is not cached, so a later call asks again
            if got is None:
                table[r, lacking] = 0.5
                continue
            table[r, lacking] = np.clip(got, 0.0, 1.0)
            rows += [r] * len(lacking)
            cols += lacking
            values += got
        self.cache.put_many(fresh_pairs(observations, concepts, rows, cols), values, "llm")
        self.annotation_pairs += int(missing.sum())
        return table


def _support_weights(body: dict, context: Sequence[Concept], incumbent: Concept,
                     m: int) -> tuple[list[Concept], np.ndarray]:
    """The answer's support, its first m distinct listed candidates outside
    the context plus the incumbent if unlisted, and their weights: missing
    ones count as 1 (all of them if all are 0), the incumbent's is the larger
    of incumbent_weight and its listed one, and none is below WEIGHT_FLOOR
    times the listed mass, so the incumbent's q is never 0."""
    listed: dict[Concept, float] = {}
    for entry in _list_field(body, "candidates"):
        if isinstance(entry, str):
            question, weight = entry, None
        elif isinstance(entry, dict):
            question, weight = entry.get("question"), entry.get("weight")
        else:  # a malformed entry counts as absent
            continue
        if not isinstance(question, str) or not question.strip():
            continue
        c = Concept(question.strip())
        if c in context or c in listed:
            continue
        listed[c] = _weight(weight, absent=1.0)
        if len(listed) == m:
            break
    if not listed:
        raise ProposalError("oracle proposed no usable candidates")
    if not any(listed.values()):
        listed = dict.fromkeys(listed, 1.0)
    support = dict(listed)  # the incumbent last, unless it is listed
    support[incumbent] = max(_weight(body.get("incumbent_weight"), absent=0.0),
                             listed.get(incumbent, 0.0))
    weights = np.array(list(support.values()))
    weights /= weights.max()  # a largest weight of 1, so the mass cannot overflow
    return list(support), np.maximum(weights, WEIGHT_FLOOR * weights[:len(listed)].sum())


def _weight(value, absent: float) -> float:
    """value as a weight, 0 if negative, if it is a finite number, else absent:
    json.loads also gives NaN, Infinity and ints beyond the float range."""
    if isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
        return max(float(value), 0.0)
    return absent

