"""Span and counter recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: public functions are
wrapped at the place each caller looks them up (ccbm.cli binds run_gibbs,
fit_keyphrase_model and the model's predict helpers at import; ccbm.sampler
and ccbm.oracle bind log_marginal_likelihood; methods are looked up on their
classes). Each span carries the name of the module that defines the wrapped
code, which is the layer its time is charged to.

Calls made from the oracle's worker threads are not recorded, so the spans
form one tree per command on the main thread; the fake LLM transport counts
those calls instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path

# (module, attribute, class or None, span name). The span's layer is the part
# of its name before the dot.
HOOKS = [
    ("ccbm.cli", "cmd_run", None, "cli.run"),
    ("ccbm.cli", "cmd_predict", None, "cli.predict"),
    ("ccbm.cli", "_fit_initial_summary", None, "cli.summary"),
    ("ccbm.cli", "_atomic_write", None, "cli.write"),
    ("ccbm.cli", "_load_run", None, "cli.load_run"),
    ("ccbm.cli", "load_dataset", None, "cli.load_dataset"),
    ("ccbm.cli", "build_oracle", None, "cli.build_oracle"),
    ("ccbm.cli", "AnnotationCache", None, "cli.open_cache"),
    ("ccbm.cli", "run_gibbs", None, "sampler.chain"),
    ("ccbm.cli", "fit_keyphrase_model", None, "keyphrase.fit"),
    ("ccbm.cli", "build_bow", None, "keyphrase.bow"),
    ("ccbm.cli", "recovery_report", None, "evaluate.recovery"),
    ("ccbm.cli", "sigmoid_predict", None, "model.predict"),
    ("ccbm.cli", "posterior_predictive", None, "model.predict"),
    ("ccbm.sampler", "log_marginal_likelihood", None, "model.fit"),
    ("ccbm.oracle", "log_marginal_likelihood", None, "model.fit"),
    ("ccbm.sampler", "save_checkpoint", None, "sampler.checkpoint"),
    ("ccbm.sampler", "phi", "GibbsData", "sampler.design"),
    ("ccbm.oracle", "propose", "PoolOracle", "oracle.propose"),
    ("ccbm.oracle", "annotate", "PoolOracle", "oracle.annotate"),
    ("ccbm.oracle", "extract_keyphrases", "PoolOracle", "oracle.extract"),
    ("ccbm.oracle", "initialize_concepts", "PoolOracle", "oracle.init"),
    ("ccbm.oracle", "get_many", "AnnotationCache", "oracle.cache_get"),
    ("ccbm.oracle", "put_many", "AnnotationCache", "oracle.cache_put"),
    ("ccbm.llm", "propose", "LLMOracle", "llm.propose"),
    ("ccbm.llm", "annotate", "LLMOracle", "llm.annotate"),
    ("ccbm.llm", "extract_keyphrases", "LLMOracle", "llm.extract"),
    ("ccbm.llm", "initialize_concepts", "LLMOracle", "llm.init"),
    ("ccbm.llm", "complete_json", "ChatClient", "llm.call"),
]
# What a span keeps of its call, computed when the call returns: the size of
# the checkpoint just written, the row count of a fitted design, the oracle.
MEASURES = {
    "sampler.checkpoint": lambda args, result: Path(args[0]).stat().st_size,
    "model.fit": lambda args, result: args[0].n,
    "cli.build_oracle": lambda args, result: result,
}
LAYERS = ("cli", "sampler", "model", "oracle", "llm", "keyphrase", "evaluate")


class Span:
    __slots__ = ("name", "layer", "start", "end", "children", "value")

    def __init__(self, name):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.children: list[Span] = []
        self.value = None
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Installs the HOOKS wrappers on enter and removes them on exit."""

    def __init__(self):
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._main = threading.main_thread()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, cls_name, span_name in HOOKS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name):
        stack, roots, main = self._stack, self.roots, self._main
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not main:
                return fn(*args, **kwargs)
            span = Span(name)
            (stack[-1].children if stack else roots).append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.value = measure(args, result)
            return result
        return traced

    def root(self, name: str) -> Span:
        matches = [s for s in self.roots if s.name == name]
        if len(matches) != 1:
            raise RuntimeError(f"expected one {name} span, found {len(matches)}")
        return matches[0]


def write_spans(path: Path, tracers: list[tuple[int, Tracer]]):
    """One JSON line per span of each traced round: id, parent id, name, layer,
    and start and end in seconds from the round's first span."""
    with open(path, "w") as fh:
        for round_index, tracer in tracers:
            origin = tracer.roots[0].start
            next_id = 0

            def visit(span, parent):
                nonlocal next_id
                span_id, next_id = next_id, next_id + 1
                fh.write(json.dumps({"round": round_index, "id": span_id, "parent": parent,
                                     "name": span.name, "layer": span.layer,
                                     "start": span.start - origin,
                                     "end": span.end - origin}) + "\n")
                for child in span.children:
                    visit(child, span_id)

            for root in tracer.roots:
                visit(root, None)


def self_times(root: Span) -> dict[str, float]:
    """Self time per layer over a span tree; the values sum to root.duration."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span in root.walk():
        out[span.layer] += span.self_time()
    return out


def spans_named(root: Span, *names: str, direct: bool = False) -> list[Span]:
    """Spans with one of the names under root (only its children if direct)."""
    pool = root.children if direct else root.walk()
    return [s for s in pool if s.name in names]


def total(spans) -> float:
    return sum(s.duration for s in spans)
