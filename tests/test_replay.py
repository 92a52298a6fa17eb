"""Streaming replay battery: chunked parity, crash/resume identity, bounded memory.

The invariants pinned here are the replay subsystem's whole contract:

* chunked streaming replay (any chunk size) is bit-identical to one
  monolithic ``SSD.replay`` call over the same trace, for every FTL;
* a replay killed at a checkpoint boundary — or crashed between checkpoints
  and rolled back — resumes from its last checkpoint and finishes
  bit-identical (stats summary, telemetry window series, device state hash)
  to an uninterrupted run;
* a corrupt newest checkpoint falls back to the previous one with a warning;
* a 1M+ request trace streams through with O(chunk) memory.
"""

from __future__ import annotations

import errno
import hashlib
import json
import random
import shutil
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import flip_archive_payload_byte
from tests.golden_workload import golden_geometry

from repro.core.base import FTLConfig
from repro.nand.errors import ConfigurationError
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.replay import (
    ReplayError,
    ReplayPlan,
    ReplayResult,
    ReplaySession,
    iter_trace_requests,
    state_fingerprint,
    trace_sha256,
)
from repro.snapshot import load_snapshot
from repro.snapshot.fingerprint import source_fingerprint
from repro.snapshot.serialization import _flatten
from repro.ssd.device import SSD
from repro.workloads.traces import (
    RecordStream,
    TraceRecord,
    synthesize_systor,
    trace_to_requests,
)

ALL_FTLS = ("dftl", "tpftl", "leaftl", "learnedftl", "ideal")

#: Shared replay knobs: small chunks and a tight checkpoint cadence so a
#: 500-record trace exercises several checkpoints per run.
STREAMS = 4
TIME_SCALE = 1e-4
WINDOW_US = 500.0
CHUNK = 50
CHECKPOINT_EVERY = 150


def _write_systor(path: Path, records: list[TraceRecord]) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("timestamp,response,iotype,lun,offset,size\n")
        for r in records:
            handle.write(
                f"{r.timestamp_s!r},0.0,{'R' if r.is_read else 'W'},"
                f"{r.stream_id},{r.offset_bytes},{r.size_bytes}\n"
            )
    return path


def make_plan(trace_path: Path, ftl: str = "dftl", **overrides) -> ReplayPlan:
    kwargs = dict(
        trace_path=str(trace_path),
        trace_format="systor",
        ftl_name=ftl,
        geometry=golden_geometry(),
        streams=STREAMS,
        chunk_requests=CHUNK,
        checkpoint_every_requests=CHECKPOINT_EVERY,
        time_scale=TIME_SCALE,
        metrics_window_us=WINDOW_US,
    )
    kwargs.update(overrides)
    return ReplayPlan(**kwargs)


def assert_identical(a: ReplayResult, b: ReplayResult) -> None:
    """The bit-identity triple plus progress counters."""
    assert a.summary == b.summary
    assert a.telemetry == b.telemetry
    assert a.state_sha == b.state_sha
    assert (a.requests, a.records, a.skipped_lines) == (b.requests, b.records, b.skipped_lines)


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory) -> Path:
    records = synthesize_systor(num_ios=500, seed=13)
    return _write_systor(tmp_path_factory.mktemp("trace") / "systor.csv", records)


@pytest.fixture(scope="module")
def baseline(trace_file, tmp_path_factory):
    """Uninterrupted reference run per FTL, computed once per module."""
    cache: dict[str, ReplayResult] = {}

    def get(ftl: str) -> ReplayResult:
        if ftl not in cache:
            run_dir = tmp_path_factory.mktemp(f"baseline-{ftl}") / "run"
            cache[ftl] = ReplaySession(make_plan(trace_file, ftl), run_dir).run()
        return cache[ftl]

    return get


# ------------------------------------------------------------- chunk streaming
class TestIterTraceRequests:
    def test_chunks_concatenate_to_monolithic_conversion(self):
        geometry = golden_geometry()
        records = synthesize_systor(num_ios=200, seed=2)
        monolithic = list(trace_to_requests(records, geometry, time_scale=TIME_SCALE))
        for chunk_requests in (1, 7, 1000):
            chunks = list(
                iter_trace_requests(
                    iter(records),
                    geometry,
                    chunk_requests=chunk_requests,
                    time_scale=TIME_SCALE,
                )
            )
            assert [r for chunk in chunks for r in chunk] == monolithic
            assert all(len(chunk) >= chunk_requests for chunk in chunks[:-1])

    def test_chunks_end_on_record_boundaries(self):
        # Each record starts on the last logical page and wraps to LPN 0, so it
        # splits into exactly 2 requests; every chunk length must be even —
        # a record's split requests never straddle two chunks.
        geometry = golden_geometry()
        page = geometry.page_size
        last = (geometry.num_logical_pages - 1) * page
        records = [
            TraceRecord(timestamp_s=i * 1e-3, offset_bytes=last, size_bytes=3 * page, is_read=True)
            for i in range(20)
        ]
        chunks = list(iter_trace_requests(iter(records), geometry, chunk_requests=3))
        assert len(chunks) > 1
        assert all(len(chunk) % 2 == 0 for chunk in chunks)
        assert sum(len(chunk) for chunk in chunks) == 40

    def test_chunk_boundary_matches_stream_cursor(self, trace_file):
        # The cursor read between chunks must account for exactly the records
        # delivered so far — the invariant replay checkpoints depend on.
        geometry = golden_geometry()
        with RecordStream(trace_file, "systor") as stream:
            seen_requests = 0
            for chunk in iter_trace_requests(stream, geometry, chunk_requests=17):
                seen_requests += len(chunk)
                cursor = stream.cursor
                with RecordStream(trace_file, "systor", limit=cursor.record_index) as head:
                    expected = len(list(trace_to_requests(head, geometry)))
                assert seen_requests == expected

    def test_rejects_non_positive_chunk(self):
        with pytest.raises(ConfigurationError):
            list(iter_trace_requests(iter(()), golden_geometry(), chunk_requests=0))


# ----------------------------------------------------- device-level extensions
class TestReplayStreamFreeParams:
    def test_external_stream_free_is_mutated_in_place(self):
        geometry = golden_geometry()
        records = synthesize_systor(num_ios=50, seed=1)
        requests = list(trace_to_requests(records, geometry, time_scale=TIME_SCALE))
        ssd = SSD.create("ideal", geometry)
        stream_free = [ssd.now_us] * STREAMS
        before = list(stream_free)
        ssd.replay(requests, stream_free=stream_free, origin_us=ssd.now_us)
        assert stream_free != before
        assert len(stream_free) == STREAMS  # length (= streams) unchanged

    def test_empty_stream_free_rejected(self):
        ssd = SSD.create("ideal", golden_geometry())
        with pytest.raises(ConfigurationError):
            ssd.replay([], stream_free=[])

    def test_default_behaviour_unchanged_without_new_params(self):
        # No stream_free/origin_us: same results as before the extension
        # (the golden fingerprints of test_kernel_equivalence also pin this).
        geometry = golden_geometry()
        records = synthesize_systor(num_ios=80, seed=5)
        requests = list(trace_to_requests(records, geometry, time_scale=TIME_SCALE))
        a = SSD.create("dftl", geometry)
        a.replay(requests, streams=STREAMS)
        b = SSD.create("dftl", geometry)
        b.replay(requests, streams=STREAMS)
        assert state_fingerprint(a.state_dict()) == state_fingerprint(b.state_dict())


# ------------------------------------------------------------ state fingerprint
def _fingerprint_via_tobytes(state) -> str:
    """``state_fingerprint`` as first written: every column copied out with
    ``tobytes()``.  Kept as the reference the copy-free form is pinned to."""
    arrays: dict[str, np.ndarray] = {}
    skeleton = _flatten(state, arrays)
    digest = hashlib.sha256(json.dumps(skeleton, sort_keys=True).encode("utf-8"))
    for key in sorted(arrays):
        column = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(column.dtype).encode("utf-8"))
        digest.update(str(column.shape).encode("utf-8"))
        digest.update(column.tobytes())
    return digest.hexdigest()


class TestStateFingerprint:
    def test_digest_is_unchanged_for_every_column_layout(self):
        grid = np.arange(30, dtype=np.int32).reshape(5, 6)
        frozen = np.frombuffer(b"\x01\x02\x03\x04", dtype=np.uint8)  # read-only buffer
        state = {
            "contiguous": np.arange(17, dtype=np.int64),
            "strided": np.arange(40, dtype=np.float64)[::3],
            "reversed": np.arange(9, dtype=np.int16)[::-1],
            "empty": np.zeros(0, dtype=np.int64),
            "empty_2d": np.zeros((0, 4), dtype=np.float32),
            "grid": grid,
            "transposed": grid.T,
            "fortran": np.asfortranarray(grid),
            "scalar": np.asarray(7, dtype=np.int64),
            "flags": np.asarray([True, False, True]),
            "frozen": frozen,
            "nested": [{"x": grid[1:4, ::2]}, 3, "text", None, 2.5],
        }
        assert state_fingerprint(state) == _fingerprint_via_tobytes(state)
        # Pinned literally too, so the two forms cannot drift together.
        assert state_fingerprint({"a": np.arange(4, dtype=np.int64), "b": [1, 2.5]}) == (
            "e4d91798c37bf3e15c7718d1e3c8ccb58a2be6326dc891d78ebb6ace4fdbe1a4"
        )

    def test_digest_of_a_real_device_is_unchanged(self):
        ssd = SSD.create("learnedftl", golden_geometry())
        ssd.fill_sequential(io_pages=16)
        state = ssd.state_dict()
        assert state_fingerprint(state) == _fingerprint_via_tobytes(state)


# ------------------------------------------------------- chunked-vs-monolithic
class TestChunkedMonolithicParity:
    """Chunk sizes {1, 7, 1000} == the list path, for all 5 FTLs (tentpole)."""

    _monolithic_cache: dict[str, tuple] = {}

    @classmethod
    def _monolithic(cls, ftl: str) -> tuple:
        if ftl not in cls._monolithic_cache:
            geometry = golden_geometry()
            records = synthesize_systor(num_ios=250, seed=7)
            ssd = SSD.create(ftl, geometry)
            ssd.enable_observability(window_us=WINDOW_US)
            requests = list(trace_to_requests(records, geometry, time_scale=TIME_SCALE))
            ssd.replay(requests, streams=STREAMS)
            cls._monolithic_cache[ftl] = (
                dict(ssd.stats.summary()),
                ssd.recorder.series(ssd.stats),
                state_fingerprint(ssd.state_dict()),
            )
        return cls._monolithic_cache[ftl]

    @pytest.mark.parametrize("ftl", ALL_FTLS)
    @pytest.mark.parametrize("chunk_requests", [1, 7, 1000])
    def test_chunked_equals_monolithic(self, ftl, chunk_requests):
        summary, telemetry, sha = self._monolithic(ftl)
        geometry = golden_geometry()
        records = synthesize_systor(num_ios=250, seed=7)
        ssd = SSD.create(ftl, geometry)
        ssd.enable_observability(window_us=WINDOW_US)
        origin = ssd.now_us
        stream_free = [origin] * STREAMS
        for chunk in iter_trace_requests(
            iter(records), geometry, chunk_requests=chunk_requests, time_scale=TIME_SCALE
        ):
            ssd.replay(chunk, stream_free=stream_free, origin_us=origin)
        assert dict(ssd.stats.summary()) == summary
        assert ssd.recorder.series(ssd.stats) == telemetry
        assert state_fingerprint(ssd.state_dict()) == sha


# ------------------------------------------------------------ session lifecycle
class TestReplaySessionLifecycle:
    def test_manifest_pins_trace_hash_and_config(self, trace_file, tmp_path):
        plan = make_plan(trace_file)
        ReplaySession(plan, tmp_path / "run").run()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["trace"]["sha256"] == trace_sha256(trace_file)
        assert manifest["trace"]["path"] == str(trace_file)
        assert manifest["device"]["ftl"] == "dftl"
        assert manifest["device"]["geometry"]["page_size"] == golden_geometry().page_size
        assert manifest["replay"]["chunk_requests"] == CHUNK
        assert manifest["replay"]["streams"] == STREAMS
        assert manifest["source_fingerprint"]
        assert ReplayPlan.from_manifest(manifest).manifest() == manifest

    def test_uninterrupted_run_result(self, trace_file, baseline):
        result = baseline("dftl")
        assert result.finished
        assert result.records == 500
        assert result.requests >= 500
        assert result.skipped_lines == 0
        assert result.checkpoints_written >= 2  # cadence checkpoints + final
        assert result.resumed_from is None
        assert result.telemetry["num_windows"] >= 1
        assert result.summary["host_read_pages"] + result.summary["host_write_pages"] > 0

    def test_fresh_run_into_existing_dir_raises(self, trace_file, tmp_path):
        session = ReplaySession(make_plan(trace_file), tmp_path / "run")
        session.run(stop_after_checkpoints=1)
        with pytest.raises(ReplayError, match="already holds a replay run"):
            ReplaySession(make_plan(trace_file), tmp_path / "run").run()

    @pytest.mark.parametrize(
        ("argument", "value"),
        [
            ("stop_after_checkpoints", 0),
            ("stop_after_checkpoints", -2),
            ("stop_after_requests", 0),
            ("stop_after_requests", -1),
        ],
    )
    def test_stop_counts_below_one_are_refused_before_the_run_dir(
        self, trace_file, tmp_path, argument, value
    ):
        run_dir = tmp_path / "run"
        with pytest.raises(ReplayError, match=f"{argument} must be >= 1 when given, got {value}"):
            ReplaySession(make_plan(trace_file), run_dir).run(**{argument: value})
        assert not run_dir.exists()

    def test_resume_of_completed_run_is_noop(self, trace_file, baseline, tmp_path):
        run_dir = tmp_path / "run"
        first = ReplaySession(make_plan(trace_file), run_dir).run()
        again = ReplaySession(make_plan(trace_file), run_dir).run(resume=True)
        assert again.finished
        assert again.checkpoints_written == 0
        assert_identical(first, again)

    @pytest.mark.parametrize("field", ["time_scale", "checkpoint_every_sim_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -2.0])
    def test_plan_rejects_non_finite_or_non_positive_scale(self, trace_file, field, value):
        with pytest.raises(ReplayError, match=f"{field} must be finite and positive.*{value}"):
            make_plan(trace_file, **{field: value})

    @pytest.mark.parametrize("value", ["nan", "-2.0"])
    def test_cli_rejects_bad_time_scale(self, trace_file, tmp_path, capsys, value):
        from repro.experiments.__main__ import main as cli_main

        run_dir = tmp_path / "run"
        args = ["replay", str(trace_file), "--run-dir", str(run_dir), f"--time-scale={value}"]
        assert cli_main(args) == 2
        assert f"time_scale must be finite and positive, got {value}" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_checkpoint_pruning_keeps_newest(self, trace_file, tmp_path):
        session = ReplaySession(
            make_plan(trace_file, keep_checkpoints=2, checkpoint_every_requests=60),
            tmp_path / "run",
        )
        result = session.run()
        assert result.checkpoints_written > 2
        remaining = session.checkpoint_paths()
        assert len(remaining) == 2
        # The newest survivor is the final (completed) checkpoint.
        names = sorted(path.name for path in remaining)
        assert names[-1].endswith(f"{result.checkpoints_written + (result.resumed_from or 0):06d}")


# ------------------------------------------------------------- bad manifests
class TestManifestRefusal:
    """``from_manifest`` refuses a damaged manifest with a :class:`ReplayError`
    naming the field, never a ``KeyError``/``AttributeError``/``TypeError``."""

    @pytest.fixture
    def manifest(self, trace_file):
        return make_plan(trace_file).manifest()

    @pytest.mark.parametrize("value", [[1], "manifest", None, 3])
    def test_non_object_manifest(self, value):
        with pytest.raises(ReplayError, match="run manifest must be a JSON object"):
            ReplayPlan.from_manifest(value)

    @pytest.mark.parametrize("section", ["trace", "device", "replay", "warmup", "obs"])
    def test_missing_section(self, manifest, section):
        del manifest[section]
        with pytest.raises(ReplayError, match=f"missing the '{section}' section"):
            ReplayPlan.from_manifest(manifest)

    def test_partial_manifest_names_its_first_gap(self):
        with pytest.raises(ReplayError, match="missing trace\\.format$"):
            ReplayPlan.from_manifest({"replay_manifest_version": 1, "trace": {"path": "x"}})

    @pytest.mark.parametrize(
        ("section", "key"),
        [("trace", "path"), ("trace", "limit"), ("device", "ftl"), ("device", "geometry"),
         ("replay", "streams"), ("warmup", "seed"), ("obs", "metrics_window_us")],
    )
    def test_missing_key(self, manifest, section, key):
        del manifest[section][key]
        with pytest.raises(ReplayError, match=f"missing {section}\\.{key}$"):
            ReplayPlan.from_manifest(manifest)

    def test_missing_required_geometry_field(self, manifest):
        del manifest["device"]["geometry"]["channels"]
        with pytest.raises(ReplayError, match="missing device\\.geometry\\.channels"):
            ReplayPlan.from_manifest(manifest)

    @pytest.mark.parametrize("part", ["geometry", "config", "timing"])
    def test_unknown_dataclass_field(self, manifest, part):
        manifest["device"][part]["warp_factor"] = 9
        with pytest.raises(
            ReplayError, match=f"device\\.{part}\\.warp_factor is not a \\w+ field"
        ):
            ReplayPlan.from_manifest(manifest)

    @pytest.mark.parametrize(
        ("path", "value", "wanted"),
        [
            (("device",), [], "an object"),
            (("device", "config"), "fast", "an object"),
            (("trace", "path"), 7, "str"),
            (("trace", "limit"), "10", "int or null"),
            (("replay", "streams"), 2.5, "int"),
            (("replay", "preserve_timing"), "yes", "bool"),
            (("replay", "time_scale"), None, "float"),
            (("warmup", "io_pages"), True, "int"),
            (("device", "geometry", "channels"), "2", "int"),
            (("device", "config", "train_on_gc"), 1, "bool"),
            (("device", "timing", "read_us"), "40", "float"),
        ],
    )
    def test_wrongly_typed_value(self, manifest, path, value, wanted):
        holder = manifest
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        name = "\\.".join(path)
        with pytest.raises(ReplayError, match=f"field {name} must be {wanted}"):
            ReplayPlan.from_manifest(manifest)

    def test_invalid_geometry_value_is_named(self, manifest):
        manifest["device"]["geometry"]["channels"] = 0
        with pytest.raises(ReplayError, match="field device\\.geometry: channels must be"):
            ReplayPlan.from_manifest(manifest)

    @pytest.mark.parametrize(
        ("path", "value", "field"),
        [
            (("device", "ftl"), "nosuch", "ftl_name"),
            (("trace", "format"), "csv", "trace_format"),
            (("warmup", "warmup"), "bogus", "warmup"),
            (("trace", "limit"), -5, "limit"),
            (("trace", "max_errors"), -1, "max_errors"),
            (("warmup", "io_pages"), 0, "io_pages"),
            (("warmup", "threads"), -2, "warmup_threads"),
            (("obs", "metrics_window_us"), 0.0, "metrics_window_us"),
            (("obs", "metrics_window_us"), float("inf"), "metrics_window_us"),
            (("obs", "metrics_window_us"), float("nan"), "metrics_window_us"),
            (("warmup", "overwrite_factor"), float("nan"), "overwrite_factor"),
            (("warmup", "overwrite_factor"), -1.0, "overwrite_factor"),
        ],
    )
    def test_value_the_run_cannot_use_is_named(self, manifest, path, value, field):
        # Refused while the plan is built, before a run directory is touched
        # (a bad warm-up mode used to surface as a ValueError from the warm-up).
        manifest[path[0]][path[1]] = value
        with pytest.raises(ReplayError, match=f"^{field} must be"):
            ReplayPlan.from_manifest(manifest)

    @pytest.mark.parametrize(
        ("override", "field"),
        [
            ({"ftl": "nosuch"}, "ftl_name"),
            ({"limit": -5}, "limit"),
            ({"max_errors": -1}, "max_errors"),
            ({"warmup": "bogus"}, "warmup"),
            ({"metrics_window_us": -1.0}, "metrics_window_us"),
            ({"warmup": "steady", "overwrite_factor": float("nan")}, "overwrite_factor"),
            ({"warmup": "steady", "overwrite_factor": -1.0}, "overwrite_factor"),
        ],
    )
    def test_plan_refuses_before_the_run_directory_exists(
        self, trace_file, tmp_path, override, field
    ):
        with pytest.raises(ReplayError, match=f"^{field} must be"):
            make_plan(trace_file, **override)
        assert not (tmp_path / "run").exists()

    def test_json_round_trip_still_loads(self, manifest):
        stored = json.loads(json.dumps(manifest))
        assert ReplayPlan.from_manifest(stored).manifest() == manifest


class TestManifestLayout:
    """``manifest()`` builds its plan sections from the table ``from_manifest``
    reads them with; the expected manifests were captured from the
    hand-written layout that table replaced (the code fingerprint aside)."""

    SAMPLE = Path(__file__).parent / "data" / "systor17_sample.csv"
    SAMPLE_SHA = "7383e12129a7eed225ca8ec549aea9dd17eedb7d0c81589ec2827d307bcc2b49"
    GEOMETRY = {
        "channels": 2, "chips_per_channel": 2, "planes_per_chip": 1, "blocks_per_plane": 16,
        "pages_per_block": 32, "page_size": 1024, "op_ratio": 0.25,
    }
    CONFIG = {
        "cmt_ratio": 0.03, "learnedftl_cmt_ratio": 0.015, "min_cmt_entries": 64,
        "prefetch_max_entries": 64, "leaftl_gamma": 4.0, "leaftl_buffer_pages": 2048,
        "max_pieces": 8, "group_stripe_limit": 2, "borrow_threshold_fraction": 0.5,
        "sequential_init_min_pages": 2, "charge_compute": True, "train_on_gc": True,
        "gc_free_block_fraction": 0.03, "gc_target_free_blocks": 0,
    }
    TIMING = {
        "read_us": 40.0, "program_us": 200.0, "erase_us": 2000.0, "channel_transfer_us": 0.0,
        "sort_us_per_entry": 20.0, "train_us_per_entry": 30.0, "predict_us": 0.65,
        "bitmap_check_us": 0.0,
    }

    def _manifest(self, **plan) -> dict:
        manifest = ReplayPlan(
            trace_path=str(self.SAMPLE), trace_format="systor", geometry=SSDGeometry.small(), **plan
        ).manifest()
        assert isinstance(manifest.pop("source_fingerprint"), str)
        return manifest

    def test_overridden_config_default_timing(self):
        manifest = self._manifest(
            ftl_name="learnedftl", config=FTLConfig(cmt_ratio=0.05), streams=2,
            chunk_requests=500, checkpoint_every_requests=1000, warmup="fill", io_pages=64,
            metrics_window_us=5000.0, limit=300,
        )
        assert manifest == {
            "replay_manifest_version": 1,
            "snapshot_format": 2,
            "trace": {"path": str(self.SAMPLE), "sha256": self.SAMPLE_SHA, "format": "systor",
                      "limit": 300, "max_errors": 0},
            "device": {"ftl": "learnedftl", "geometry": self.GEOMETRY,
                       "config": {**self.CONFIG, "cmt_ratio": 0.05}, "timing": self.TIMING},
            "replay": {"streams": 2, "chunk_requests": 500, "checkpoint_every_requests": 1000,
                       "checkpoint_every_sim_s": None, "preserve_timing": True, "time_scale": 1.0,
                       "keep_checkpoints": 2},
            "warmup": {"warmup": "fill", "io_pages": 64, "overwrite_factor": 1.0, "threads": 1,
                       "seed": 7},
            "obs": {"metrics_window_us": 5000.0},
        }

    def test_default_config_given_timing(self):
        manifest = self._manifest(
            ftl_name="dftl", timing=TimingModel(read_us=10.0, program_us=100.0, erase_us=1000.0),
            checkpoint_every_sim_s=0.5,
            preserve_timing=False, time_scale=0.01, max_errors=3, warmup="steady",
            overwrite_factor=0.5, warmup_threads=2, warmup_seed=3, keep_checkpoints=3,
        )
        assert manifest == {
            "replay_manifest_version": 1,
            "snapshot_format": 2,
            "trace": {"path": str(self.SAMPLE), "sha256": self.SAMPLE_SHA, "format": "systor",
                      "limit": None, "max_errors": 3},
            "device": {"ftl": "dftl", "geometry": self.GEOMETRY, "config": self.CONFIG,
                       "timing": {**self.TIMING, "read_us": 10.0, "program_us": 100.0,
                                  "erase_us": 1000.0}},
            "replay": {"streams": 1, "chunk_requests": 10000, "checkpoint_every_requests": None,
                       "checkpoint_every_sim_s": 0.5, "preserve_timing": False,
                       "time_scale": 0.01, "keep_checkpoints": 3},
            "warmup": {"warmup": "steady", "io_pages": 128, "overwrite_factor": 0.5, "threads": 2,
                       "seed": 3},
            "obs": {"metrics_window_us": None},
        }
        assert ReplayPlan.from_manifest(manifest).manifest() == {
            **manifest, "source_fingerprint": source_fingerprint()
        }


# -------------------------------------------------------------- crash / resume
class TestCrashResume:
    @pytest.mark.parametrize("ftl", ALL_FTLS)
    def test_kill_at_checkpoint_resume_bit_identical(self, ftl, trace_file, baseline, tmp_path):
        run_dir = tmp_path / "run"
        paused = ReplaySession(make_plan(trace_file, ftl), run_dir).run(stop_after_checkpoints=1)
        assert not paused.finished
        assert paused.requests < baseline(ftl).requests
        resumed = ReplaySession(make_plan(trace_file, ftl), run_dir).run(resume=True)
        assert resumed.finished
        assert resumed.resumed_from == 1
        assert_identical(resumed, baseline(ftl))

    def test_mid_chunk_crash_rolls_back_to_last_checkpoint(self, trace_file, baseline, tmp_path):
        run_dir = tmp_path / "run"
        # 287 is neither chunk- nor checkpoint-aligned: the crash loses the
        # requests since checkpoint 1 (at >=150), which resume must redo.
        crashed = ReplaySession(make_plan(trace_file), run_dir).run(stop_after_requests=287)
        assert not crashed.finished
        resumed = ReplaySession(make_plan(trace_file), run_dir).run(resume=True)
        assert resumed.finished
        assert resumed.resumed_from >= 1
        # Rollback happened: the resumed run redid work the crashed run had done.
        assert resumed.requests == baseline("dftl").requests
        assert_identical(resumed, baseline("dftl"))

    def test_randomized_kill_boundaries(self, trace_file, baseline, tmp_path):
        rng = random.Random(20240817)
        reference = baseline("dftl")
        for trial in range(4):
            run_dir = tmp_path / f"trial-{trial}"
            plan = make_plan(trace_file)
            if rng.random() < 0.5:
                stop = {"stop_after_checkpoints": rng.randint(1, 3)}
            else:
                stop = {"stop_after_requests": rng.randint(1, reference.requests - 1)}
            interrupted = ReplaySession(plan, run_dir).run(**stop)
            assert not interrupted.finished
            # Possibly crash once more mid-resume before finishing for real.
            if rng.random() < 0.5:
                second = ReplaySession(plan, run_dir).run(
                    resume=True, stop_after_checkpoints=1
                )
                if second.finished:  # trace exhausted before another checkpoint
                    assert_identical(second, reference)
                    continue
            final = ReplaySession(plan, run_dir).run(resume=True)
            assert final.finished
            assert_identical(final, reference)

    def test_corrupt_checkpoint_falls_back_with_warning(self, trace_file, baseline, tmp_path):
        run_dir = tmp_path / "run"
        session = ReplaySession(make_plan(trace_file), run_dir)
        paused = session.run(stop_after_checkpoints=2)
        assert not paused.finished
        newest = session.checkpoint_paths()[-1]
        (newest / "arrays.npz").write_bytes(b"not a zip archive")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            resumed = ReplaySession(make_plan(trace_file), run_dir).run(resume=True)
        assert resumed.finished
        assert resumed.resumed_from == 1  # fell back past the corrupt ckpt 2
        assert_identical(resumed, baseline("dftl"))

    def test_flipped_byte_in_newest_checkpoint_falls_back_with_warning(
        self, trace_file, baseline, tmp_path
    ):
        # One damaged byte inside a still well-formed archive: it surfaces
        # from zlib or the CRC-32 check, not from the zip directory parser.
        run_dir = tmp_path / "run"
        session = ReplaySession(make_plan(trace_file, "learnedftl"), run_dir)
        paused = session.run(stop_after_checkpoints=2)
        assert not paused.finished
        flip_archive_payload_byte(session.checkpoint_paths()[-1] / "arrays.npz")
        with pytest.warns(RuntimeWarning, match="corrupt replay checkpoint ckpt-000002"):
            resumed = ReplaySession(make_plan(trace_file, "learnedftl"), run_dir).run(resume=True)
        assert resumed.finished
        assert resumed.resumed_from == 1
        assert_identical(resumed, baseline("learnedftl"))

    def test_paused_resumes_past_a_refused_checkpoint_make_progress(
        self, trace_file, baseline, tmp_path
    ):
        # The first resume falls back to checkpoint 1 and rewrites ckpt-000002;
        # the refused copy must not shadow the rewrite, or every later resume
        # falls back to checkpoint 1 again and the run never finishes.
        run_dir = tmp_path / "run"
        session = ReplaySession(make_plan(trace_file), run_dir)
        session.run(stop_after_checkpoints=2)
        flip_archive_payload_byte(session.checkpoint_paths()[-1] / "arrays.npz")
        progress = []
        for _ in range(8):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = session.run(resume=True, stop_after_checkpoints=1)
            progress.append((result.resumed_from, result.requests))
            if result.finished:
                break
        assert result.finished, progress
        assert [seq for seq, _ in progress[:3]] == [1, 2, 3]
        assert (run_dir / "checkpoints" / "refused-ckpt-000002").is_dir()
        assert_identical(result, baseline("dftl"))

    def test_a_checkpoint_that_cannot_be_published_is_an_error(
        self, trace_file, tmp_path, monkeypatch
    ):
        import repro.replay.engine as engine

        monkeypatch.setattr(engine, "publish_dir", lambda temp, final: False)
        with pytest.raises(ReplayError, match="cannot publish checkpoint .*ckpt-000001"):
            ReplaySession(make_plan(trace_file), tmp_path / "run").run()

    @pytest.mark.parametrize("ftl", ["dftl", "learnedftl"])
    def test_state_sha_is_the_checkpointed_device(self, ftl, trace_file, tmp_path):
        # A pause fingerprints the capture its checkpoint serialized: that is
        # the live device's state, and what the checkpoint restores to.
        session = ReplaySession(make_plan(trace_file, ftl), tmp_path / "run")
        paused = session.run(stop_after_checkpoints=1)
        assert not paused.finished
        assert paused.state_sha == state_fingerprint(paused.device.state_dict())
        restored = SSD.create(ftl, golden_geometry())
        restored.load_state(load_snapshot(session.checkpoint_paths()[-1])["device"])
        assert paused.state_sha == state_fingerprint(restored.state_dict())
        # An abort between checkpoints has moved past the capture.
        crashed = session.run(resume=True, stop_after_requests=paused.requests + CHUNK)
        assert not crashed.finished and crashed.checkpoints_written == 0
        assert crashed.state_sha == state_fingerprint(crashed.device.state_dict())
        assert crashed.state_sha != paused.state_sha
        finished = session.run(resume=True)
        assert finished.finished
        assert finished.state_sha == state_fingerprint(finished.device.state_dict())

    @pytest.fixture
    def fingerprints(self, monkeypatch) -> list[str]:
        """The name of each thread that fingerprints a state, in call order.

        Each fingerprint is slowed down, so a worker thread still runs while
        the checkpoint is written and would still be alive if ``run()``
        returned without joining it.
        """
        import repro.replay.engine as engine

        names: list[str] = []
        fingerprint = engine.state_fingerprint

        def slow_fingerprint(state):
            names.append(threading.current_thread().name)
            time.sleep(0.05)
            return fingerprint(state)

        monkeypatch.setattr(engine, "state_fingerprint", slow_fingerprint)
        return names

    @pytest.mark.parametrize(
        "stop",
        [{"stop_after_checkpoints": 1}, {}, {"stop_after_requests": CHECKPOINT_EVERY}],
        ids=["pause", "final", "request-stop-at-a-checkpoint"],
    )
    def test_state_sha_is_the_checkpoint_the_call_published(
        self, stop, trace_file, tmp_path, fingerprints
    ):
        # Each of these calls returns right after a checkpoint, so its digest
        # comes from the one worker thread it starts; the checkpoints the run
        # continues past start none.  The digest must be that of the device
        # the published checkpoint restores to, and the worker must be gone
        # when run() returns.
        session = ReplaySession(make_plan(trace_file, "learnedftl"), tmp_path / "run")
        threads = threading.active_count()
        result = session.run(**stop)
        assert threading.active_count() == threads
        assert fingerprints == ["replay-fingerprint_0"]
        assert result.finished == (not stop)
        if "stop_after_requests" in stop:
            assert (result.requests, result.checkpoints_written) == (CHECKPOINT_EVERY, 1)
        elif not stop:
            assert result.checkpoints_written > 1
        newest = session.checkpoint_paths()[-1]
        assert newest.name == f"ckpt-{result.checkpoints_written:06d}"
        restored = SSD.create("learnedftl", golden_geometry())
        restored.load_state(load_snapshot(newest)["device"])
        assert result.state_sha == state_fingerprint(restored.state_dict())

    @pytest.mark.parametrize(
        "stop", [{"stop_after_checkpoints": 2}, {}], ids=["returning", "continuing"]
    )
    def test_a_failed_checkpoint_write_leaves_nothing_behind(
        self, stop, trace_file, baseline, tmp_path, monkeypatch, fingerprints
    ):
        # Checkpoint 2 runs out of disk half-way through its archive: the run
        # it pauses (a worker fingerprints it meanwhile) or continues past
        # (no worker) raises that error, with no temp directory, no
        # checkpoint 2 and no thread left, and resumes from checkpoint 1.
        import repro.replay.engine as engine

        save = engine.save_snapshot
        saved: list[Path] = []
        workers: list[bool] = []

        def save_until_the_disk_fills(path, state):
            saved.append(path)
            if len(saved) == 1:
                return save(path, state)
            names = [thread.name for thread in threading.enumerate()]
            workers.append(any(name.startswith("replay-fingerprint") for name in names))
            path.mkdir(parents=True)
            (path / "arrays.npz").write_bytes(b"PK half an archive")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(engine, "save_snapshot", save_until_the_disk_fills)
        run_dir = tmp_path / "run"
        threads = threading.enumerate()
        with pytest.raises(OSError, match="No space left on device"):
            ReplaySession(make_plan(trace_file), run_dir).run(**stop)
        assert threading.enumerate() == threads
        assert workers == [bool(stop)]
        assert fingerprints == (["replay-fingerprint_0"] if stop else [])
        assert [path.name for path in (run_dir / "checkpoints").iterdir()] == ["ckpt-000001"]
        assert saved[-1] == run_dir / "checkpoints" / ".ckpt-000002.tmp"
        monkeypatch.undo()
        resumed = ReplaySession(make_plan(trace_file), run_dir).run(resume=True)
        assert resumed.finished and resumed.resumed_from == 1
        assert_identical(resumed, baseline("dftl"))

    def test_resume_without_checkpoints_restarts_with_warning(
        self, trace_file, baseline, tmp_path
    ):
        run_dir = tmp_path / "run"
        session = ReplaySession(make_plan(trace_file), run_dir)
        session.run(stop_after_checkpoints=1)
        shutil.rmtree(session.checkpoints_dir)
        with pytest.warns(RuntimeWarning, match="no usable checkpoint"):
            restarted = ReplaySession(make_plan(trace_file), run_dir).run(resume=True)
        assert restarted.finished
        assert restarted.resumed_from is None
        assert_identical(restarted, baseline("dftl"))

    def test_resume_under_different_plan_is_refused(self, trace_file, tmp_path):
        run_dir = tmp_path / "run"
        ReplaySession(make_plan(trace_file), run_dir).run(stop_after_checkpoints=1)
        altered = make_plan(trace_file, streams=STREAMS + 1)
        with pytest.raises(ReplayError, match="manifest mismatch"):
            ReplaySession(altered, run_dir).run(resume=True)

    def test_resume_after_trace_file_change_is_refused(self, trace_file, tmp_path):
        copy = tmp_path / "copy.csv"
        copy.write_bytes(trace_file.read_bytes())
        run_dir = tmp_path / "run"
        ReplaySession(make_plan(copy), run_dir).run(stop_after_checkpoints=1)
        with open(copy, "a", encoding="utf-8") as handle:
            handle.write("99.0,0.0,R,0,0,4096\n")
        with pytest.raises(ReplayError, match="manifest mismatch"):
            ReplaySession(make_plan(copy), run_dir).run(resume=True)

    def test_gzip_trace_replays_identically_to_plain(self, trace_file, baseline, tmp_path):
        import gzip

        compressed = tmp_path / "systor.csv.gz"
        with gzip.open(compressed, "wb") as handle:
            handle.write(trace_file.read_bytes())
        run_dir = tmp_path / "run"
        paused = ReplaySession(make_plan(compressed), run_dir).run(stop_after_checkpoints=1)
        assert not paused.finished
        resumed = ReplaySession(make_plan(compressed), run_dir).run(resume=True)
        assert_identical(resumed, baseline("dftl"))


# ------------------------------------------------------------- bounded memory
#: Subprocess body for the bounded-memory check.  It replays a 1M+ request
#: trace in a fresh interpreter (so earlier tests can't pollute the RSS
#: high-water mark), sampling ``ru_maxrss`` after the first few chunks as the
#: steady-state baseline: if streaming ever materialized the trace, the
#: remaining ~98% of it would grow the peak far past the allowed delta.
_BOUNDED_MEMORY_SCRIPT = """
import json, resource, sys

from repro.nand.geometry import SSDGeometry
from repro.replay import iter_trace_requests
from repro.ssd.device import SSD
from repro.workloads.traces import RecordStream

trace = sys.argv[1]
geometry = SSDGeometry.small()
ssd = SSD.create("ideal", geometry)
origin = ssd.now_us
stream_free = [origin] * 4
replayed = chunks = 0
baseline_kb = None
with RecordStream(trace, "systor") as stream:
    for chunk in iter_trace_requests(stream, geometry, chunk_requests=20_000, time_scale=1e-3):
        ssd.replay(chunk, stream_free=stream_free, origin_us=origin)
        replayed += len(chunk)
        chunks += 1
        if chunks == 3:
            baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"replayed": replayed, "baseline_kb": baseline_kb, "peak_kb": peak_kb}))
"""


class TestBoundedMemory:
    def test_million_request_trace_streams_in_bounded_memory(self, tmp_path):
        """A 1M+ record trace replays with peak memory O(chunk), not O(trace)."""
        import os
        import subprocess
        import sys

        trace = tmp_path / "big.csv"
        with open(trace, "w", encoding="utf-8") as handle:
            for i in range(1_000_000):
                handle.write(f"{i * 1e-5:.5f},0.0,R,{i & 3},{(i * 7919) % (1 << 26)},4096\n")

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", _BOUNDED_MEMORY_SCRIPT, str(trace)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        report = json.loads(completed.stdout)
        assert report["replayed"] >= 1_000_000
        # ru_maxrss is in KB on Linux. The full request list would be hundreds
        # of MB; the streaming path must stay within a small delta of the
        # steady state it reached after the first 60k requests.
        delta_mb = (report["peak_kb"] - report["baseline_kb"]) / 1024
        assert delta_mb < 50, f"RSS grew {delta_mb:.1f} MB past steady state (not O(chunk))"
