"""Per-layer metrics of a traced benchmark run, named after ccbm's modules.

Fit-side figures come from the span tree under the traced `ccbm run`
(cli.run), predict-side figures from the tree under `ccbm predict`
(cli.predict). Oracle call counts cover both oracle classes; their time is
charged to the module that defines the class (oracle or llm) in the self
times. Each metric is the median over the traced rounds; counts repeat
exactly from round to round.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, self_times, spans_named, total

MIB = 1024 * 1024


def _round_metrics(bench, result: dict, tracer, untraced_fit_s: float) -> dict:
    run = tracer.root("cli.run")
    predict = tracer.root("cli.predict")
    manifest = result["manifest"]
    oracle = manifest["oracle"]
    fits = spans_named(run, "model.fit")
    designs = spans_named(run, "sampler.design")
    checkpoints = spans_named(run, "sampler.checkpoint")
    proposes = spans_named(run, "oracle.propose", "llm.propose")
    annotates = spans_named(run, "oracle.annotate", "llm.annotate")
    predicts = spans_named(predict, "model.predict")
    loads = spans_named(predict, "cli.load_run", "cli.load_dataset", "cli.build_oracle",
                        "cli.open_cache", direct=True)
    keyphrase_fits = spans_named(run, "keyphrase.fit")
    lookups = oracle["cache_hits"] + oracle["cache_misses"]
    m = {
        "sampler.updates": (result["updates"], "count"),
        "sampler.design_builds": (len(designs), "count"),
        "sampler.design_s": (total(designs), "s"),
        "sampler.checkpoints": (len(checkpoints), "count"),
        "sampler.checkpoint_mib": (sum(s.value for s in checkpoints) / MIB, "MiB"),
        "sampler.checkpoint_s": (total(checkpoints), "s"),
        "sampler.accept_rate": (manifest["acceptance_rate"], "ratio"),
        "sampler.ess": (result["ess"], "samples"),
        "model.fits": (len(fits), "count"),
        "model.fits_subset": (sum(s.value < bench.wl.n_train for s in fits), "count"),
        "model.fit_s": (total(fits), "s"),
        "model.us_per_fit": (1e6 * total(fits) / max(len(fits), 1), "us"),
        "model.predict_calls": (len(predicts), "count"),
        "model.predict_s": (total(predicts), "s"),
        "oracle.propose_calls": (len(proposes), "count"),
        "oracle.propose_s": (total(proposes), "s"),
        "oracle.annotate_calls": (len(annotates), "count"),
        "oracle.annotate_s": (total(annotates), "s"),
        "oracle.cache_hits": (oracle["cache_hits"], "count"),
        "oracle.cache_misses": (oracle["cache_misses"], "count"),
        "oracle.cache_hit_ratio": (oracle["cache_hits"] / max(lookups, 1), "ratio"),
        "oracle.cache_log_mib": (result["cache_log_bytes"] / MIB, "MiB"),
        "keyphrase.fits": (len(keyphrase_fits), "count"),
        "keyphrase.fit_s": (total(keyphrase_fits), "s"),
        "keyphrase.bow_s": (total(spans_named(run, "keyphrase.bow")), "s"),
        "evaluate.recovery_s": (total(spans_named(run, "evaluate.recovery")), "s"),
        "cli.extract_s": (total(spans_named(run, "oracle.extract", "llm.extract",
                                            direct=True)), "s"),
        "cli.summary_s": (total(spans_named(run, "cli.summary", direct=True)), "s"),
        "cli.init_s": (total(spans_named(run, "oracle.init", "llm.init", direct=True)), "s"),
        "cli.chain_s": (total(spans_named(run, "sampler.chain", direct=True)), "s"),
        "cli.write_s": (total(spans_named(run, "cli.write", direct=True)), "s"),
        "cli.predict_load_s": (total(loads), "s"),
        "cli.predict_score_s": (predict.duration - total(loads), "s"),
    }
    m.update(_llm_metrics(result, run))
    layer_self = self_times(run)
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (layer_self[layer], "s")
    m["trace.fit_s"] = (result["fit_s"], "s")
    m["trace.untraced_fit_s"] = (untraced_fit_s, "s")
    m["trace.overhead_s"] = (result["fit_s"] - untraced_fit_s, "s")
    m["trace.self_share"] = (sum(layer_self.values()) / result["fit_s"], "ratio")
    return m


def _llm_metrics(result: dict, run) -> dict:
    """Transport-side counts of the fit; zero on the pool-oracle workloads."""
    counts = result.get("llm_fit")
    built = spans_named(run, "cli.build_oracle", direct=True)[0].value
    client = getattr(built, "client", None)
    if counts is None:
        counts = {"calls": {}, "questions": 0, "prompt_bytes": 0}
    calls = counts["calls"]
    questions = counts["questions"]
    return {
        "llm.calls": (sum(calls.values()), "count"),
        "llm.calls_extract": (calls.get("extract", 0), "count"),
        "llm.calls_propose": (calls.get("propose", 0), "count"),
        "llm.calls_annotate": (calls.get("annotate", 0), "count"),
        "llm.retries": (client.retry_count if client else 0, "count"),
        "llm.prompt_kib": (counts["prompt_bytes"] / 1024, "KiB"),
        "llm.questions": (questions, "count"),
        "llm.useful_question_ratio": (
            result["manifest"]["oracle"]["annotation_pairs"] / questions if questions else 0.0,
            "ratio"),
        "llm.imputed": (getattr(built, "imputed_values", 0), "count"),
    }


def per_layer_metrics(bench, rounds: list[dict], traced: list[tuple]) -> dict:
    untraced_fit_s = statistics.median(r["fit_s"] for r in rounds)
    per_round = [_round_metrics(bench, result, tracer, untraced_fit_s)
                 for result, tracer in traced]
    return {name: (statistics.median(m[name][0] for m in per_round), unit)
            for name, (_, unit) in per_round[0].items()}
