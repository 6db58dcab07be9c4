"""Fault injection for the append-only annotation log: torn tails, corrupt
lines, block boundaries, and agreement with a per-record json.dumps writer."""

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccbm.oracle
from ccbm import cli
from ccbm.oracle import LOG_BLOCK_BYTES, AnnotationCache


def clamp(value):
    """The per-record writer's clamp: a value outside [0, 1] moves to the bound."""
    return min(1.0, max(0.0, value)) if value < 0.0 or value > 1.0 else value


def reference_lines(pairs, values, source, timestamp=None):
    """The log lines as the per-record writer wrote them: values clamped to
    [0, 1] and one json.dumps per record, each with its own timestamp."""
    return [json.dumps({"observation_id": oid, "concept_id": cid,
                        "value": clamp(value), "source": source,
                        "timestamp": time.time() if timestamp is None else timestamp}) + "\n"
            for (oid, cid), value in zip(pairs, values)]


def grid(n_obs, n_concepts):
    pairs = [(f"obs-{i}", f"c{j}") for i in range(n_obs) for j in range(n_concepts)]
    return pairs, [((7 * k) % 11) / 10 for k in range(len(pairs))]


ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
records = st.lists(st.tuples(ids, ids, st.floats(allow_nan=False)), min_size=1, max_size=8)


class TestWriter:
    @settings(max_examples=60, deadline=None)
    @given(records, st.sampled_from(["pool", "llm", "human-override"]))
    def test_put_many_lines_equal_the_per_record_writer(self, recs, source):
        pairs = [(oid, cid) for oid, cid, _ in recs]
        values = [value for _, _, value in recs]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "annotations.ndjson"
            AnnotationCache(path).put_many(pairs, values, source)
            lines = path.read_text().splitlines(keepends=True)
        stamps = {json.loads(line)["timestamp"] for line in lines}
        assert len(stamps) == 1  # one timestamp per put_many call
        # with that timestamp, the per-record writer writes the same bytes, so
        # every field, key order included, agrees
        assert lines == reference_lines(pairs, values, source, stamps.pop())

    @settings(max_examples=60, deadline=None)
    @given(records)
    def test_per_record_log_loads_to_the_same_store(self, recs):
        pairs = [(oid, cid) for oid, cid, _ in recs]
        values = [value for _, _, value in recs]
        with tempfile.TemporaryDirectory() as tmp:
            reference, written = Path(tmp) / "reference.ndjson", Path(tmp) / "written.ndjson"
            reference.write_text("".join(reference_lines(pairs, values, "llm")))
            writer = AnnotationCache(written)
            writer.put_many(pairs, values, "llm")
            loaded = AnnotationCache(reference)
            assert loaded._store == AnnotationCache(written)._store == writer._store
        expected = {}
        for pair, value in zip(pairs, values):
            expected[pair] = clamp(value)
        assert loaded._store == expected

    def test_a_nan_is_clamped_so_the_log_reads_back(self, tmp_path):
        path = tmp_path / "annotations.ndjson"
        cache = AnnotationCache(path)
        cache.put_many([("o1", "c1")], [float("nan")], "llm")
        assert cache.clamp_events == 1
        assert AnnotationCache(path).get_many([("o1", "c1")]) == [0.0]

    def test_one_string_per_id(self, tmp_path):
        path = tmp_path / "annotations.ndjson"
        pairs, values = grid(4, 3)
        path.write_text("".join(reference_lines(pairs, values, "pool")))
        keys = list(AnnotationCache(path)._store)
        assert len({id(oid) for oid, _ in keys}) == 4
        assert len({id(cid) for _, cid in keys}) == 3


class TestTornTail:
    @settings(max_examples=15, deadline=None)
    @given(records)
    def test_cut_anywhere_in_the_last_two_records(self, recs):
        pairs = [(oid, cid) for oid, cid, _ in recs] + [("tail-1", "c"), ("tail-2", "c")]
        values = [value for _, _, value in recs] + [0.25, 0.75]
        lines = [line.encode() for line in reference_lines(pairs, values, "llm")]
        raw = b"".join(lines)
        start = len(raw) - len(lines[-1]) - len(lines[-2])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "annotations.ndjson"
            for cut in range(start, len(raw)):
                path.write_bytes(raw[:cut])
                prefix = raw[:raw.rfind(b"\n", 0, cut) + 1]
                complete = prefix.count(b"\n")
                cache = AnnotationCache(path)
                expected = {}
                for pair, value in zip(pairs[:complete], values[:complete]):
                    expected[pair] = clamp(value)
                assert cache._store == expected, cut
                assert path.read_bytes() == prefix, cut
                # the next append starts on a fresh line
                cache.put_many([("after", "c")], [1.0], "llm")
                assert AnnotationCache(path)._store == {**expected, ("after", "c"): 1.0}


class TestBlocks:
    def big_log(self, path, n_obs=600, n_concepts=10):
        """A log whose line lengths, and so where its block boundaries fall, do
        not depend on the clock: one fixed timestamp for every record."""
        pairs, values = grid(n_obs, n_concepts)
        path.write_text("".join(reference_lines(pairs, values, "pool", 1700000000.5)))
        return pairs, values

    def test_log_spans_blocks_and_a_line_straddles_the_boundary(self, tmp_path):
        path = tmp_path / "annotations.ndjson"
        pairs, values = self.big_log(path)
        raw = path.read_bytes()
        assert len(raw) > 2 * LOG_BLOCK_BYTES
        line_start = raw.rfind(b"\n", 0, LOG_BLOCK_BYTES) + 1
        assert line_start < LOG_BLOCK_BYTES < raw.index(b"\n", LOG_BLOCK_BYTES)
        assert AnnotationCache(path)._store == dict(zip(pairs, values))

    def test_every_block_size_reads_alike(self, tmp_path, monkeypatch):
        path = tmp_path / "annotations.ndjson"
        pairs, values = self.big_log(path, n_obs=3, n_concepts=2)
        with open(path, "a") as fh:
            fh.write("\n")  # a blank line is skipped
        raw = path.read_bytes()
        for size in range(1, len(raw) + 2):
            monkeypatch.setattr(ccbm.oracle, "LOG_BLOCK_BYTES", size)
            assert AnnotationCache(path)._store == dict(zip(pairs, values)), size
        assert path.read_bytes() == raw

    def corrupt_in_second_block(self, path):
        self.big_log(path)
        lines = path.read_text().splitlines(keepends=True)
        lineno = len(lines) // 2 + 3  # 1-based, in the second block
        assert LOG_BLOCK_BYTES < sum(map(len, lines[:lineno - 1])) < 2 * LOG_BLOCK_BYTES
        lines[lineno - 1] = lines[lineno - 1][:40] + "\n"
        path.write_text("".join(lines))
        return lineno

    def test_corrupt_line_in_second_block_names_its_line(self, tmp_path):
        path = tmp_path / "annotations.ndjson"
        lineno = self.corrupt_in_second_block(path)
        with pytest.raises(ValueError, match=rf"annotations\.ndjson:{lineno}: "):
            AnnotationCache(path)

    @pytest.mark.parametrize("line", ['{"observation_id": "o", "concept_id": "c"}',
                                      '["o", "c", 1.0]',
                                      '{"observation_id": "o", "concept_id": "c", "value": 1}, '
                                      '{"observation_id": "p", "concept_id": "c", "value": 1}'])
    def test_a_record_of_the_wrong_shape_names_its_line(self, tmp_path, line):
        path = tmp_path / "annotations.ndjson"
        pairs, values = grid(2, 2)
        lines = reference_lines(pairs, values, "pool")
        path.write_text("".join(lines[:3] + [line + "\n"] + lines[3:]))
        with pytest.raises(ValueError, match=r"annotations\.ndjson:4: "):
            AnnotationCache(path)

    def test_cli_exits_2_on_a_corrupt_line_in_the_second_block(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["simulate", "--out", str(data), "--n", "40", "--seed", "11",
                         "--pool-size", "8"]) == 0
        run_dir = tmp_path / "run"
        (run_dir / "cache").mkdir(parents=True)
        lineno = self.corrupt_in_second_block(run_dir / "cache" / "annotations.ndjson")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": str(data / "dataset.ndjson"), "output_dir": str(run_dir),
            "oracle": {"type": "pool", "pool": str(data / "pool.json")},
            "sampler": {"k": 2, "t_epochs": 1, "m_candidates": 2}}))
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"annotations.ndjson:{lineno}: corrupt annotation record" in err
        assert "Traceback" not in err
