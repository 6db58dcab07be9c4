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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
import requests

from .concepts import Concept, ConceptSet
from .oracle import (AnnotationCache, AnnotationError, AnnotationRecord,
                     ConceptOracle, InitializationError, KeyphraseBag,
                     Observation, OracleError, OracleProposal, ProposalError,
                     normalize_phrase)

WEIGHT_FLOOR = 1e-3  # floor for zero/missing weights, as a fraction of candidate mass


@dataclass(frozen=True)
class LLMConfig:
    endpoint: str
    model: str
    api_key_env: str = "CCBM_API_KEY"
    max_retries: int = 3
    backoff_seconds: tuple[float, ...] = (1.0, 4.0, 16.0)
    annotate_temperature: float = 0.0
    propose_temperature: float = 1.0
    request_timeout: float = 120.0
    max_in_flight: int = 4
    prompt_dir: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "endpoint": self.endpoint, "model": self.model,
            "api_key_env": self.api_key_env, "max_retries": self.max_retries,
            "backoff_seconds": list(self.backoff_seconds),
            "annotate_temperature": self.annotate_temperature,
            "propose_temperature": self.propose_temperature,
            "request_timeout": self.request_timeout,
            "max_in_flight": self.max_in_flight,
            "prompt_dir": self.prompt_dir,
        }

    @staticmethod
    def from_dict(d: dict) -> "LLMConfig":
        d = dict(d)
        if "backoff_seconds" in d:
            d["backoff_seconds"] = tuple(d["backoff_seconds"])
        return LLMConfig(**d)


def load_template(name: str, prompt_dir: Optional[str] = None) -> str:
    if prompt_dir is not None:
        path = Path(prompt_dir) / f"{name}.txt"
        if path.exists():
            return path.read_text()
    return resources.files("ccbm.prompts").joinpath(f"{name}.txt").read_text()


_JSON_BLOCK_RE = re.compile(r"\{.*\}", re.DOTALL)


def parse_json_content(content: str) -> dict:
    """Parse a JSON object out of a chat response, tolerating code fences."""
    text = content.strip()
    if text.startswith("```"):
        text = re.sub(r"^```[a-z]*\s*|\s*```$", "", text)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        match = _JSON_BLOCK_RE.search(text)
        if match is None:
            raise
        return json.loads(match.group(0))


class ChatClient:
    """Minimal chat-completions client with retry/backoff.

    post_fn(url, headers, payload) -> response body dict; the default uses
    requests. Parse failures count as retryable errors so a flaky model gets
    the same second chances as a flaky network.
    """

    def __init__(self, config: LLMConfig,
                 post_fn: Optional[Callable[[str, dict, dict], dict]] = None,
                 sleep_fn: Callable[[float], None] = time.sleep):
        self.config = config
        self.post_fn = post_fn if post_fn is not None else self._http_post
        self.sleep_fn = sleep_fn
        self.call_count = 0
        self.retry_count = 0

    def _http_post(self, url: str, headers: dict, payload: dict) -> dict:
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

    def complete_json(self, prompt: str, temperature: float) -> dict:
        """One prompt -> parsed JSON object, with retries."""
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
                self.retry_count += 1
            try:
                self.call_count += 1
                body = self.post_fn(self.config.endpoint, self._headers(), payload)
                content = body["choices"][0]["message"]["content"]
                return parse_json_content(content)
            except (requests.RequestException, KeyError, IndexError,
                    json.JSONDecodeError, TypeError) as exc:
                last_error = exc
        raise OracleError(
            f"request failed after {self.config.max_retries} attempts: {last_error}")


class LLMOracle(ConceptOracle):
    """Concept oracle backed by a chat-completions endpoint.

    Annotation prompts contain only the observation text and concept
    questions, never labels, so no target information can leak into the
    extracted values. The target is referred to as "Y" unless the config
    opts into a task description.

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
        self.run_log: list[dict] = []
        self.annotation_pairs = 0
        self.imputed_values = 0
        self._bag_cache_path = Path(bag_cache_path) if bag_cache_path else None
        self._bag_cache: dict[str, list[str]] = {}
        if self._bag_cache_path is not None and self._bag_cache_path.exists():
            try:
                self._bag_cache = json.loads(self._bag_cache_path.read_text())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValueError(
                    f"corrupt keyphrase bag cache {self._bag_cache_path}: {exc}") from exc
            if not isinstance(self._bag_cache, dict):
                raise ValueError(
                    f"corrupt keyphrase bag cache {self._bag_cache_path}: not a JSON object")

    def _template(self, name: str) -> str:
        return load_template(name, self.config.prompt_dir)

    # -- keyphrase extraction ---------------------------------------------

    def _extract_one(self, obs: Observation) -> list[str]:
        if obs.id in self._bag_cache:
            return self._bag_cache[obs.id]
        if not obs.payload.strip():
            phrases: list[str] = []
        else:
            prompt = self._template("extract_keyphrases").format(note=obs.payload)
            body = self.client.complete_json(prompt, self.config.annotate_temperature)
            phrases = []
            for entry in body.get("keyphrases", []):
                if isinstance(entry, str):
                    phrases.append(entry)
                    continue
                phrases.append(entry.get("descriptor", ""))
                phrases.extend(entry.get("synonyms", []))
        normalized = sorted({p for p in (normalize_phrase(s) for s in phrases) if p})
        self._bag_cache[obs.id] = normalized
        return normalized

    def extract_keyphrases(self, observations: Sequence[Observation]) -> list[KeyphraseBag]:
        cached = len(self._bag_cache)
        try:
            with ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
                results = list(pool.map(self._extract_one, observations))
        finally:
            # one write per call, after the workers are done, so what they
            # extracted before a failure is kept and the file is never torn
            if self._bag_cache_path is not None and len(self._bag_cache) > cached:
                tmp = self._bag_cache_path.with_name(self._bag_cache_path.name + ".tmp")
                tmp.write_text(json.dumps(self._bag_cache))
                tmp.replace(self._bag_cache_path)
        return [KeyphraseBag(obs.id, frozenset(phrases))
                for obs, phrases in zip(observations, results)]

    # -- initialization ---------------------------------------------------

    def initialize_concepts(self, keyphrase_summary, k: int) -> ConceptSet:
        phrases = _summary_phrases(keyphrase_summary)
        if not phrases:
            raise InitializationError("keyphrase summary is empty")
        prompt = self._template("initialize_concepts").format(
            k=k, top_keyphrases="\n".join(f"- {p}" for p in phrases))
        for attempt in range(self.config.max_retries):
            body = self.client.complete_json(prompt, self.config.propose_temperature)
            questions = [q for q in body.get("concepts", []) if isinstance(q, str) and q.strip()]
            concepts = []
            seen = set()
            for q in questions:
                c = Concept(q.strip())
                if c.id not in seen:
                    seen.add(c.id)
                    concepts.append(c)
            if len(concepts) >= k:
                return ConceptSet(concepts[:k])
        raise InitializationError(
            f"oracle returned fewer than {k} distinct concepts after "
            f"{self.config.max_retries} attempts")

    # -- proposals --------------------------------------------------------

    def propose(self, context: Sequence[Concept], incumbent: Concept,
                subset: np.ndarray, m: int, rng: np.random.Generator) -> OracleProposal:
        if self.summary_provider is None:
            raise ProposalError("LLM oracle needs a summary_provider to propose")
        phrases = _summary_phrases(self.summary_provider(list(context) + [incumbent], subset))
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
        return self._parse_proposal(body, context, incumbent, m)

    def _parse_proposal(self, body: dict, context: Sequence[Concept],
                        incumbent: Concept, m: int) -> OracleProposal:
        context_ids = {c.id for c in context}
        candidates: list[Concept] = []
        raw_weights: list[Optional[float]] = []
        seen = set()
        for entry in body.get("candidates", []):
            if isinstance(entry, str):
                question, weight = entry, None
            else:
                question = entry.get("question", "")
                weight = entry.get("weight")
            if not isinstance(question, str) or not question.strip():
                continue
            c = Concept(question.strip())
            if c.id in context_ids or c.id in seen:
                continue
            seen.add(c.id)
            candidates.append(c)
            raw_weights.append(float(weight) if isinstance(weight, (int, float)) else None)
            if len(candidates) == m:
                break
        if not candidates:
            raise ProposalError("oracle proposed no usable candidates")

        missing = [w is None for w in raw_weights]
        if any(missing):
            self.run_log.append({"event": "weights_imputed_uniform",
                                 "n_missing": int(sum(missing))})
            raw_weights = [1.0 if w is None else w for w in raw_weights]
        weights = np.asarray(raw_weights, dtype=float)
        weights = np.clip(weights, 0.0, None)

        incumbent_weight = body.get("incumbent_weight")
        q_current = (float(incumbent_weight)
                     if isinstance(incumbent_weight, (int, float)) else 0.0)
        if incumbent.id in {c.id for c in candidates}:
            # the oracle re-proposed the incumbent; its candidate weight wins
            idx = [c.id for c in candidates].index(incumbent.id)
            q_current = max(q_current, float(weights[idx]))

        total = float(weights.sum())
        if total <= 0:
            weights = np.full(len(candidates), 1.0)
            total = float(len(candidates))
            self.run_log.append({"event": "weights_all_zero_uniform_fallback"})
        floor = WEIGHT_FLOOR * total
        weights = np.maximum(weights, floor)
        if q_current <= 0:
            self.run_log.append({"event": "incumbent_weight_floored"})
            q_current = floor
        norm = float(weights.sum()) + q_current
        return OracleProposal(candidates=candidates, q_weights=weights / norm,
                              q_current=q_current / norm)

    # -- annotation -------------------------------------------------------

    def _annotate_one(self, obs: Observation,
                      concepts: Sequence[Concept]) -> Optional[list[float]]:
        """The observation's answers, or None after a failed call."""
        questions = "\n".join(f"{i + 1}. {c.question}" for i, c in enumerate(concepts))
        prompt = self._template("annotate").format(questions=questions, note=obs.payload)
        try:
            body = self.client.complete_json(prompt, self.config.annotate_temperature)
            answers = body["answers"]
            if not isinstance(answers, list) or len(answers) != len(concepts):
                raise AnnotationError(
                    f"expected {len(concepts)} answers, got {answers!r}")
            return [float(a) for a in answers]
        except (OracleError, AnnotationError, KeyError, TypeError, ValueError):
            self.imputed_values += len(concepts)
            self.run_log.append({"event": "annotation_imputed",
                                 "observation_id": obs.id,
                                 "n_concepts": len(concepts)})
            return None

    def annotate(self, observations: Sequence[Observation],
                 concepts: Sequence[Concept]) -> list[AnnotationRecord]:
        pairs = [(obs.id, c.id) for obs in observations for c in concepts]
        cached = self.cache.get_many(pairs)
        # ask each observation only for the concepts it has no cached value for
        todo = [(obs, lacking) for obs in observations
                if (lacking := [c for c in concepts if (obs.id, c.id) not in cached])]
        fresh: list[AnnotationRecord] = []
        imputed: list[AnnotationRecord] = []
        if todo:
            with ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
                rows = list(pool.map(lambda job: self._annotate_one(*job), todo))
            for (obs, lacking), values in zip(todo, rows):
                # never drop an observation: a failed call imputes 0.5 for this
                # call only and is not cached, so a later call asks again
                (imputed if values is None else fresh).extend(
                    AnnotationRecord(obs.id, c.id, v, "llm")
                    for c, v in zip(lacking, values or [0.5] * len(lacking)))
        self.cache.put_many(fresh)
        fresh += imputed
        self.annotation_pairs += len(fresh)
        values = dict(cached)
        values.update({(r.observation_id, r.concept_id):
                       min(1.0, max(0.0, r.value)) for r in fresh})
        return [AnnotationRecord(obs.id, c.id, values[(obs.id, c.id)], "llm")
                for obs in observations for c in concepts]


def _summary_phrases(summary) -> list[str]:
    """Accept a KeyphraseSummary, a list of (phrase, ...) tuples, or strings."""
    entries = getattr(summary, "entries", summary)
    phrases = []
    for entry in entries:
        phrases.append(entry if isinstance(entry, str) else entry[0])
    return phrases
