import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from ccbm.cli import KeyphraseConfig, LLMOracleConfig, PoolOracleConfig, RunConfig
from ccbm.config import ConfigError, load
from ccbm.sampler import SamplerConfig

README = Path(__file__).resolve().parents[1] / "README.md"

# config.snapshot texts as json.dumps(cfg.to_dict(), indent=2) writes them
POOL_SNAPSHOT = """{
  "dataset": "<dataset>",
  "output_dir": "runs/pool",
  "oracle": {
    "type": "pool",
    "weight_mode": "uniform",
    "pool": "<pool>"
  },
  "sampler": {
    "k": 2,
    "t_epochs": 300,
    "m_candidates": 10,
    "omega": 0.5,
    "gamma": 1,
    "seed": 7,
    "warm_start_epochs": 1,
    "keep_last": 0,
    "mode": "single_try"
  },
  "keyphrase": {
    "min_df": 3
  },
  "truth": [
    "Is feature 0 present?",
    "Is feature 1 present?"
  ]
}"""

LLM_SNAPSHOT = """{
  "dataset": "<dataset>",
  "output_dir": "runs/llm",
  "oracle": {
    "type": "llm",
    "endpoint": "http://127.0.0.1:9/v1/chat/completions",
    "model": "fake",
    "backoff_seconds": [
      0.5,
      2
    ],
    "max_in_flight": 2,
    "bag_cache": "runs/bags.ndjson"
  },
  "sampler": {
    "k": 6,
    "t_epochs": 3,
    "m_candidates": 8,
    "omega": 0.5,
    "gamma": 1.0,
    "seed": 7,
    "warm_start_epochs": 1,
    "keep_last": 20,
    "mode": "multi_try"
  },
  "keyphrase": {},
  "truth": null
}"""


@pytest.mark.parametrize("text", [POOL_SNAPSHOT, LLM_SNAPSHOT], ids=["pool", "llm"])
def test_a_snapshot_loads_and_gives_itself_back(tmp_path, text):
    # RunConfig.load reads a pool oracle's pool, which must exist
    dataset = tmp_path / "dataset.ndjson"
    dataset.write_text('{"id": "a", "text": "x", "label": 1}\n')
    pool = tmp_path / "pool.json"
    pool.write_text('[{"question": "Is feature 0 present?", "keyword": "feat0"}]')
    text = text.replace("<dataset>", str(dataset)).replace("<pool>", str(pool))
    snapshot = tmp_path / "config.snapshot"
    snapshot.write_text(text)
    cfg = RunConfig.load(snapshot)
    assert json.dumps(cfg.to_dict(), indent=2) == text


@pytest.mark.parametrize("value, what", [
    (["a", 1], "truth file must be a list of strings, got ['a', 1]"),
    ("a", "truth file must be a list of strings, got 'a'")])
def test_a_plain_value_is_checked_against_its_type(value, what):
    with pytest.raises(ConfigError, match=f"^{re.escape(what)}$"):
        load(list[str], value, "truth file")


def readme_tables() -> dict:
    """The field and default cells of each table under the README's
    "Config fields" section, by its heading."""
    section = README.read_text().split("\n## Config fields\n")[1].split("\n## ")[0]
    tables = {}
    for block in section.split("\n### ")[1:]:
        title, _, body = block.partition("\n")
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in body.splitlines() if line.startswith("| `")]
        tables[title] = [(row[0].strip("`"), row[-1]) for row in rows]
    return tables


def shown(f) -> str:
    """A field's default as the README shows it: its JSON, where a config
    object holding all its own defaults is {}."""
    if f.default is MISSING and f.default_factory is MISSING:
        return "required"
    value = f.default if f.default is not MISSING else f.default_factory()
    return f"`{json.dumps(value, default=lambda obj: {})}`"


def test_readme_lists_every_field_and_default():
    objects = {"Top level": RunConfig, "`sampler`": SamplerConfig,
               "`oracle` of type `pool`": PoolOracleConfig,
               "`oracle` of type `llm`": LLMOracleConfig, "`keyphrase`": KeyphraseConfig}
    assert readme_tables() == {title: [(f.name, shown(f)) for f in fields(cls) if f.init]
                               for title, cls in objects.items()}
