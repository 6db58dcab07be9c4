"""Deterministic stand-in for the chat-completions endpoint of the LLM oracle.

Every answer is a function of the prompt text alone, so a run's results do not
depend on how the oracle's worker threads interleave. The transport never
fails and never sleeps. It recognises the four shipped prompt templates:

- keyphrase extraction: the note's comma-separated items are the keyphrases;
- initialization: one concept per listed top keyphrase, in listed order;
- proposal: the strongest listed keyphrases not yet in the concept set, plus
  decoys picked by a hash of the prompt;
- annotation: 1 when the question's keyword occurs in the note as a whole
  word, else 0.

Questions have the form "Does the note mention <keyword>?".
"""

from __future__ import annotations

import hashlib
import json
import re
import threading

from checks import note_features

QUESTION = "Does the note mention {}?"
_QUESTION_RE = re.compile(r"^Does the note mention (.+)\?$")
_LABEL_RE = re.compile(r"\blabel\b", re.IGNORECASE)
# Phrases no synthetic note contains; a decoy on one gives a constant column.
ABSENT_PHRASES = ("fever", "insomnia", "fatigue", "cough", "rash", "vertigo")
DECOYS = 2  # decoy candidates per proposal
KINDS = ("extract", "init", "propose", "annotate")


def chat_body(obj) -> dict:
    return {"choices": [{"message": {"content": json.dumps(obj)}}]}


def _between(text: str, start: str, end: str | None = None) -> str:
    head = text.index(start) + len(start)
    return text[head:text.index(end, head)] if end is not None else text[head:]


def _listed_phrases(prompt: str) -> list[str]:
    return [line[2:].strip() for line in prompt.splitlines() if line.startswith("- ")]


def _keyword(question: str) -> str:
    match = _QUESTION_RE.match(question.strip())
    if match is None:
        raise AssertionError(f"question not asked by this transport: {question!r}")
    return match.group(1)


def _whole_word(keyword: str, text: str) -> bool:
    return re.search(r"\b" + re.escape(keyword.lower()) + r"\b", text.lower()) is not None


class FakeChatTransport:
    """post_fn(url, headers, payload) -> chat-completions response body.

    notes is the set of every note text the run may annotate; an annotation
    prompt must carry one of them verbatim and must not mention a label.
    Counters are guarded by a lock because the oracle calls from a thread pool.
    """

    def __init__(self, notes):
        self.notes = frozenset(notes)
        self._lock = threading.Lock()
        self.calls = dict.fromkeys(KINDS, 0)
        self.questions = 0
        self.prompt_bytes = 0

    def snapshot(self) -> dict:
        with self._lock:
            return {"calls": dict(self.calls), "questions": self.questions,
                    "prompt_bytes": self.prompt_bytes}

    def __call__(self, url: str, headers: dict, payload: dict) -> dict:
        prompt = payload["messages"][0]["content"]
        if "Output a list of descriptors" in prompt:
            kind, answer, asked = "extract", self._extract(prompt), 0
        elif "generate an initial set of exactly" in prompt:
            kind, answer, asked = "init", self._initialize(prompt), 0
        elif "create cohesive candidates" in prompt:
            kind, answer, asked = "propose", self._propose(prompt), 0
        elif "answer each question with 1 for yes or 0 for no" in prompt:
            answer = self._annotate(prompt)
            kind, asked = "annotate", len(answer["answers"])
        else:
            raise AssertionError("prompt matches no known template")
        with self._lock:
            self.calls[kind] += 1
            self.questions += asked
            self.prompt_bytes += len(prompt.encode("utf-8"))
        return chat_body(answer)

    def _extract(self, prompt: str) -> dict:
        note = _between(prompt, "Here is a note:\n", "\n\nOutput a list").strip()
        return {"keyphrases": [{"descriptor": item, "synonyms": []}
                               for item in sorted(note_features(note))]}

    def _initialize(self, prompt: str) -> dict:
        return {"concepts": [QUESTION.format(p) for p in _listed_phrases(prompt)]}

    def _propose(self, prompt: str) -> dict:
        m = int(re.search(r"Propose at most (\d+) candidate", prompt).group(1))
        incumbent = _between(prompt, "slot being replaced is: ").strip()
        existing_block = _between(prompt, "meta-concepts so far:\n", "\n\nTo improve")
        existing = {_keyword(line.split(". ", 1)[1])
                    for line in existing_block.splitlines() if ". " in line}
        listed = [p for p in _listed_phrases(prompt) if p not in existing]
        n_top = max(1, m - DECOYS)
        chosen = listed[:n_top]
        rest = listed[n_top:] + [p for p in ABSENT_PHRASES if p not in existing]
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        for byte in digest:
            if len(chosen) >= m or not rest:
                break
            chosen.append(rest.pop(byte % len(rest)))
        rank = {p: r for r, p in enumerate(listed)}
        top = set(listed[:n_top])
        candidates = [{"question": QUESTION.format(p),
                       "weight": 1.0 / (2 + rank[p]) if p in top else 0.02}
                      for p in chosen]
        inc_phrase = _keyword(incumbent)
        inc_weight = 1.0 / (2 + rank[inc_phrase]) if inc_phrase in rank else 0.02
        return {"candidates": candidates, "incumbent_weight": inc_weight}

    def _annotate(self, prompt: str) -> dict:
        block = _between(prompt, "Questions:\n", "\n\nnote:\n")
        note = _between(prompt, "\n\nnote:\n").strip()
        if note not in self.notes:
            raise AssertionError("annotation prompt carries text that is not a dataset note")
        if _LABEL_RE.search(block) or _LABEL_RE.search(note):
            raise AssertionError("annotation prompt mentions a label")
        questions = [line.split(". ", 1)[1] for line in block.splitlines() if ". " in line]
        return {"answers": [1.0 if _whole_word(_keyword(q), note) else 0.0
                            for q in questions]}
