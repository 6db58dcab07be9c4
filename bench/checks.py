"""Output checks and statistics computed apart from the program.

Nothing here imports ccbm: the held-out AUC, the Bayes-optimal AUC, recall,
support frequencies and effective sample size are recomputed from the files a
run writes and from the generating coefficients.
"""

from __future__ import annotations

import json
from pathlib import Path


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def iter_ndjson(path: Path):
    """Records of an NDJSON file one at a time, so a check holds little memory
    (peak_rss_mb is the peak of the whole benchmark process)."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def read_ndjson(path: Path) -> list[dict]:
    return list(iter_ndjson(path))


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with midranks for ties."""
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = (i + j) / 2 + 1
        i = j + 1
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = len(labels) - n_pos
    require(n_pos > 0 and n_neg > 0, "held-out labels contain a single class")
    rank_sum = sum(r for r, y in zip(ranks, labels) if y == 1)
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def note_features(text: str) -> set[str]:
    """'The record notes: a, b.' -> {'a', 'b'} (the synthetic note format)."""
    body = text.split(":", 1)[-1].strip().rstrip(".")
    return {item.strip() for item in body.split(",") if item.strip()}


def bayes_auc(records: list[dict], coefficients: dict[str, float], intercept: float) -> float:
    """AUC of the generating logit, read off the held-out texts."""
    logits = [intercept + sum(c for kw, c in coefficients.items()
                              if kw in note_features(r["text"]))
              for r in records]
    return auc(logits, [r["label"] for r in records])


def posterior_samples(samples_path: Path) -> list[dict]:
    samples = [s for s in iter_ndjson(samples_path) if not s["burn_in"]]
    require(bool(samples), f"{samples_path} holds no posterior samples")
    return samples


def support(sample: dict) -> frozenset[str]:
    return frozenset(c["question"] for c in sample["concepts"])


def question_recall(samples: list[dict], truth: list[str]) -> float:
    """Mean over true questions of the share of samples that contain it."""
    return sum(sum(q in support(s) for s in samples) / len(samples)
               for q in truth) / len(truth)


def tv_to_enumeration(samples: list[dict], exact: list[dict]) -> float:
    freq: dict[frozenset, float] = {}
    for s in samples:
        key = support(s)
        freq[key] = freq.get(key, 0.0) + 1.0 / len(samples)
    target = {frozenset(e["support"]): e["probability"] for e in exact}
    return 0.5 * sum(abs(freq.get(k, 0.0) - target.get(k, 0.0))
                     for k in set(freq) | set(target))


def effective_sample_size(x: list[float]) -> float:
    """Geyer initial-positive-sequence ESS; n for a constant series."""
    n = len(x)
    mean = sum(x) / n
    dev = [v - mean for v in x]
    var = sum(d * d for d in dev) / n
    if var == 0.0:
        return float(n)

    def rho(lag):
        return sum(dev[i] * dev[i + lag] for i in range(n - lag)) / (n * var)

    tau = -1.0
    for lag in range(0, n - 1, 2):
        pair = rho(lag) + rho(lag + 1)
        if pair <= 0:
            break
        tau += 2 * pair
    return n / max(tau, 1.0 / n)


def top_support_ess(samples: list[dict]) -> float:
    supports = [support(s) for s in samples]
    counts: dict[frozenset, int] = {}
    for key in supports:
        counts[key] = counts.get(key, 0) + 1
    top = max(counts, key=lambda k: (counts[k], sorted(k)))
    return effective_sample_size([1.0 if key == top else 0.0 for key in supports])


def cache_log_in_unit_interval(path: Path):
    for record in iter_ndjson(path):
        value = record["value"]
        require(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
                f"cache value {value!r} outside [0, 1] in {path}")
