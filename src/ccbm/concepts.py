"""Concept identity and concept-set state."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator


def normalize_question(text: str) -> str:
    """Lowercase and collapse whitespace so identity is stable across formatting."""
    return re.sub(r"\s+", " ", text.strip().lower())


def concept_id(question: str) -> str:
    normalized = normalize_question(question)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Concept:
    """A natural-language yes/no question with a content-derived identity.

    Two concepts are equal iff their ids are equal, i.e. iff their questions
    normalize to the same string.
    """

    question: str
    id: str = field(default="", compare=True)

    def __post_init__(self):
        if not isinstance(self.question, str):
            raise TypeError("concept question must be a string, not "
                            + type(self.question).__name__)
        if not self.question.strip():
            raise ValueError("concept question must be non-empty")
        if not self.id:
            object.__setattr__(self, "id", concept_id(self.question))

    def __hash__(self) -> int:
        return hash(self.id)

    def __eq__(self, other) -> bool:
        return isinstance(other, Concept) and self.id == other.id


class ConceptSet:
    """Ordered vector of K distinct concepts; the state of the Gibbs chain."""

    __slots__ = ("concepts", "_ids")

    def __init__(self, concepts: Iterable[Concept]):
        concepts = tuple(concepts)
        if not concepts:
            raise ValueError("concept set must contain at least one concept")
        ids = tuple(c.id for c in concepts)
        if len(set(ids)) != len(ids):
            raise ValueError("concept set contains duplicate concepts")
        self.concepts = concepts
        self._ids = ids

    @property
    def k(self) -> int:
        return len(self.concepts)

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def id_set(self) -> frozenset[str]:
        return frozenset(self._ids)

    def without(self, slot: int) -> tuple[Concept, ...]:
        return self.concepts[:slot] + self.concepts[slot + 1:]

    def replace(self, slot: int, concept: Concept) -> "ConceptSet":
        if any(c.id == concept.id for i, c in enumerate(self.concepts) if i != slot):
            raise ValueError("replacement would duplicate a concept already in the set")
        return ConceptSet(self.concepts[:slot] + (concept,) + self.concepts[slot + 1:])

    def __iter__(self) -> Iterator[Concept]:
        return iter(self.concepts)

    def __len__(self) -> int:
        return len(self.concepts)

    def __getitem__(self, slot: int) -> Concept:
        return self.concepts[slot]

    def __eq__(self, other) -> bool:
        return isinstance(other, ConceptSet) and self._ids == other._ids

    def __hash__(self) -> int:
        return hash(self._ids)

    def __repr__(self) -> str:
        return f"ConceptSet({[c.question for c in self.concepts]!r})"
