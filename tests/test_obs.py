"""Tests for the observability subsystem (:mod:`repro.obs`).

The invariants pinned here are the subsystem's whole contract:

* **conservation** — summing any per-window counter over all windows equals
  the end-of-run total the golden fingerprints pin, for every FTL design;
* **non-interference** — running the golden workload with telemetry *and*
  tracing enabled reproduces the pinned fingerprints bit-for-bit, and a run
  with observability disabled never feeds an observer;
* **one step** — ``submit``, ``run`` (whether a read run is planned or
  stepped) and ``replay`` simulate and observe a single request stream alike;
* **one log** — the block-at-a-time consumers reproduce the per-request
  attribution they replaced (kept here as the oracle) and the pinned digests
  of five observed runs;
* **mode equivalence** — the request step and the read planner's kernel
  produce bit-identical window series (including the float
  busy-time/utilization columns);
* **persistence** — a snapshot/restore between two run calls reproduces the
  exact series of the same two calls without the interruption, and
  ``reset_stats`` realigns the recorder with the new measurement interval.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from golden_workload import golden_geometry, run_golden_workload
from read_runs import plan_every_run
from repro import SSD
from repro.nand.errors import ConfigurationError
from repro.obs.log import BLOCK_REQUESTS, ObservationLog
from repro.obs.trace import NULL_TRACER, NullTraceRecorder, TraceRecorder
from repro.obs.windows import WindowedRecorder
from repro.replay import state_fingerprint
from repro.ssd.request import (
    CommandKind,
    CommandPurpose,
    HostRequest,
    OpType,
    command_code,
)
from test_kernel_equivalence import GOLDEN

WINDOW_US = 100_000.0
SEED = 20240808

#: The recording methods hook sites call on ``ssd.tracer``.
_TRACER_PROTOCOL = ("instant", "complete")
_TR = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)
_DATA = command_code(CommandKind.READ, CommandPurpose.DATA_READ)


def _ops(*commands: tuple[int, int, int]) -> list[int]:
    """An encoded command buffer's ``ops``: ``(code, chip, ppn)`` per command."""
    return [slot for code, chip, ppn in commands for slot in (code, chip, ppn, -1)]


def _mixed_workload(geometry) -> list[list[HostRequest]]:
    """GC-forcing overwrites, a read storm and a mixed phase (scalar shapes)."""
    rng = random.Random(SEED)
    limit = geometry.num_logical_pages
    overwrites = [
        HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit - 4), npages=4)
        for _ in range(120)
    ]
    reads = [
        HostRequest(op=OpType.READ, lpn=rng.randint(0, limit - 1), npages=1)
        for _ in range(300)
    ]
    mix = [
        HostRequest(
            op=OpType.READ if rng.random() < 0.6 else OpType.WRITE,
            lpn=rng.randint(0, limit - 2),
            npages=2,
        )
        for _ in range(150)
    ]
    return [overwrites, reads, mix]


def _single_page_workload(geometry, count: int = 600) -> list[HostRequest]:
    """Single-page random read/write mix: the batched kernel's fast-path diet."""
    rng = random.Random(SEED + 1)
    limit = geometry.num_logical_pages
    return [
        HostRequest(
            op=OpType.READ if rng.random() < 0.7 else OpType.WRITE,
            lpn=rng.randint(0, limit - 1),
            npages=1,
        )
        for _ in range(count)
    ]


def _observed_device(ftl_name: str, *, tracer=None):
    ssd = SSD.create(ftl_name, golden_geometry())
    recorder = ssd.enable_observability(window_us=WINDOW_US, tracer=tracer)
    return ssd, recorder


class TestWindowConservation:
    """Sum-of-windows must equal the end-of-run totals, counter for counter."""

    def test_every_counter_sums_to_run_totals(self, ftl_name):
        ssd, recorder = _observed_device(ftl_name)
        ssd.fill_sequential(io_pages=16)
        for phase in _mixed_workload(ssd.geometry):
            ssd.run(phase, threads=2)
        ssd.verify()

        stats = ssd.stats
        totals = recorder.totals()
        assert totals["reads"] == stats.host_read_requests
        assert totals["writes"] == stats.host_write_requests
        assert totals["read_pages"] == stats.host_read_pages
        assert totals["write_pages"] == stats.host_write_pages
        hit_class = sum(stats.outcome_counts[:3])
        miss_class = sum(stats.outcome_counts[3:])
        assert totals["read_hits"] == hit_class
        assert totals["read_misses"] == miss_class
        assert totals["command_counts"] == list(stats.command_counts)
        assert totals["read_latency_count"] == len(stats.read_latencies_us)
        assert totals["write_latency_count"] == len(stats.write_latencies_us)
        assert math.isclose(
            totals["busy_time_us"], sum(stats.chip_busy_time_us), rel_tol=1e-12
        )

    def test_series_columns_sum_to_summary_totals(self, ftl_name):
        ssd, recorder = _observed_device(ftl_name)
        ssd.fill_sequential(io_pages=16)
        for phase in _mixed_workload(ssd.geometry):
            ssd.run(phase, threads=2)

        stats = ssd.stats
        series = recorder.series(stats)
        assert series["num_windows"] >= 1
        assert sum(series["reads"]) == stats.host_read_requests
        assert sum(series["writes"]) == stats.host_write_requests
        assert sum(series["flash_reads"]) == stats.total_flash_reads
        assert sum(series["flash_programs"]) == stats.total_flash_programs
        assert sum(series["flash_erases"]) == stats.total_flash_erases
        assert sum(series["gc_count"]) == len(stats.gc_events)
        assert sum(series["gc_pages_moved"]) == stats.gc_pages_moved
        # Gap windows are emitted explicitly so the series plots directly.
        assert series["index"] == list(range(series["num_windows"]))
        assert series["start_us"] == [i * WINDOW_US for i in range(series["num_windows"])]


class TestNonInterference:
    """Observability on must not change any simulated result; off must be free."""

    def test_golden_fingerprints_unchanged_with_tracing_on(self, ftl_name):
        fingerprint = run_golden_workload(ftl_name, observe=True)
        golden = GOLDEN[ftl_name]
        assert set(fingerprint) == set(golden)
        mismatches = {
            key: (golden[key], fingerprint[key])
            for key in golden
            if fingerprint[key] != golden[key]
        }
        assert not mismatches, f"observability changed simulated results: {mismatches}"

    def test_disabled_run_never_enters_observed_paths(self, monkeypatch, tiny_geometry):
        def boom(*args, **kwargs):
            raise AssertionError("an observer was fed with observability off")

        for name in ("__init__", "append_reads", "flush"):
            monkeypatch.setattr(ObservationLog, name, boom)
        monkeypatch.setattr(WindowedRecorder, "consume", boom)
        for name in _TRACER_PROTOCOL + ("consume",):
            monkeypatch.setattr(TraceRecorder, name, boom)

        ssd = SSD.create("dftl", tiny_geometry)
        ssd.fill_sequential(io_pages=16)
        requests = _single_page_workload(tiny_geometry, count=160)
        for request in requests[:40]:
            ssd.submit(request)
        ssd.run(requests[40:80], threads=2)
        ssd.run(requests[80:120], threads=2, batch=16)
        ssd.replay(requests[120:], streams=2)
        assert ssd.recorder is None and ssd._log is None
        assert ssd.stats.host_read_requests + ssd.stats.host_write_requests > 160

    def test_null_tracer_is_shared_and_inert(self, tiny_geometry):
        ssd = SSD.create("dftl", tiny_geometry)
        assert ssd.tracer is NULL_TRACER
        assert ssd.ftl.tracer is NULL_TRACER
        assert not NullTraceRecorder.enabled
        # Every recording method of the real recorder exists on the null one
        # (``attach``/``consume`` are the observation log's side, which the
        # device never wires to the null tracer).
        recording = {
            name for name in vars(TraceRecorder)
            if not name.startswith("_") and callable(getattr(TraceRecorder, name))
        } - {"export", "write", "attach", "consume"}
        assert recording == set(_TRACER_PROTOCOL)
        assert all(callable(getattr(NULL_TRACER, name)) for name in _TRACER_PROTOCOL)
        NULL_TRACER.instant("gc", 0.0, {"victim_block": 1})
        NULL_TRACER.complete("gc", 0.0, 10.0)
        assert NULL_TRACER.__slots__ == ("now_us",)  # nothing to accumulate into


def _entry_point_workload(geometry) -> list[HostRequest]:
    """One stream of reads and single- and multi-page writes over a full device.

    Enough overwrites to force GC and enough scattered reads to churn the CMT,
    interleaved so the batched loop sees planner runs, refusals and
    planner-less (multi-page) segments.
    """
    rng = random.Random(SEED + 2)
    limit = geometry.num_logical_pages
    requests = []
    for _ in range(60):
        requests += [
            HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit - 1), npages=1)
            for _ in range(rng.randint(1, 6))
        ]
        requests += [
            HostRequest(op=OpType.READ, lpn=rng.randint(0, limit - 1), npages=1)
            for _ in range(rng.randint(1, 9))
        ]
        requests.append(HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit - 4), npages=4))
        requests.append(HostRequest(op=OpType.READ, lpn=rng.randint(0, limit - 3), npages=3))
    return requests


class TestEntryPointsObserveAlike:
    """``submit``, ``run`` (planning every read run or none) and ``replay``
    share one request step, so a single stream through any of them is
    simulated *and observed* alike."""

    #: Low enough that the designs with many translation reads hit the cap.
    TRACE_CAP = 150

    def _drive(self, ftl_name, entry_point):
        tracer = TraceRecorder(max_events_per_name=self.TRACE_CAP)
        ssd, recorder = _observed_device(ftl_name, tracer=tracer)
        ssd.fill_sequential(io_pages=16)
        requests = _entry_point_workload(ssd.geometry)
        if entry_point == "submit":
            for request in requests:
                ssd.submit(request)
        elif entry_point == "run":
            ssd.run(requests, threads=1)
        elif entry_point == "run_batched":
            with plan_every_run():
                ssd.run(requests, threads=1, batch=7)
        else:
            ssd.replay(requests, streams=1)
        return ssd, recorder.series(ssd.stats), tracer.export()

    def test_one_stream_through_every_entry_point(self, ftl_name):
        entry_points = ("submit", "run", "run_batched", "replay")
        runs = {name: self._drive(ftl_name, name) for name in entry_points}
        reference, reference_series, reference_trace = runs["run"]
        assert reference.stats.gc_count > 0
        for name, (ssd, series, trace) in runs.items():
            assert ssd.stats.summary() == reference.stats.summary(), name
            assert ssd.now_us == reference.now_us, name
            assert series == reference_series, name
            assert state_fingerprint(ssd.state_dict()) == state_fingerprint(
                reference.state_dict()
            ), name
            assert trace == reference_trace, name
            # The tracer and the windowed recorder are fed by the same step.
            instants = sum(e["name"] == "translation_read" for e in trace["traceEvents"])
            dropped = trace["otherData"]["dropped_events"].get("translation_read", 0)
            assert instants + dropped == sum(series["translation_reads"]), name
        if ftl_name in ("dftl", "tpftl"):
            assert sum(reference_series["translation_reads"]) > self.TRACE_CAP


class TestModeEquivalence:
    """The request step and the read kernel must produce bit-identical window series."""

    def test_scalar_and_batched_series_identical(self, ftl_name):
        def run(batch):
            ssd, recorder = _observed_device(ftl_name)
            ssd.fill_sequential(io_pages=16)
            with plan_every_run(batch > 1):
                ssd.run(_single_page_workload(ssd.geometry), threads=2, batch=batch)
            return recorder.series(ssd.stats)

        scalar = run(1)
        batched = run(64)
        assert scalar.keys() == batched.keys()
        for column in scalar:
            # Exact equality on purpose — including every float column.
            assert scalar[column] == batched[column], f"column {column} diverged"


class TestPersistence:
    """state_dict/load_state round trips; reset_stats realigns the recorder."""

    def test_snapshot_resume_reproduces_series(self, ftl_name):
        requests = _single_page_workload(golden_geometry())
        first, second = requests[:300], requests[300:]

        reference, _ = _observed_device(ftl_name)
        reference.fill_sequential(io_pages=16)
        reference.run(first, threads=2)
        reference.run(second, threads=2)
        expected = reference.recorder.series(reference.stats)

        source, _ = _observed_device(ftl_name)
        source.fill_sequential(io_pages=16)
        source.run(first, threads=2)
        state = source.state_dict()

        resumed = SSD.create(ftl_name, golden_geometry())
        resumed.enable_observability(window_us=WINDOW_US)
        resumed.load_state(state)
        resumed.run(second, threads=2)
        assert resumed.recorder.series(resumed.stats) == expected

    def test_load_state_installs_recorder_when_missing(self, ftl_name):
        source, _ = _observed_device(ftl_name)
        source.fill_sequential(io_pages=16)
        state = source.state_dict()

        resumed = SSD.create(ftl_name, golden_geometry())
        assert resumed.recorder is None
        resumed.load_state(state)
        assert resumed.recorder is not None
        assert resumed.recorder.window_us == WINDOW_US
        assert resumed.recorder.totals() == source.recorder.totals()

    def test_load_state_rejects_mismatched_window(self):
        recorder = WindowedRecorder(WINDOW_US)
        state = recorder.state_dict()
        other = WindowedRecorder(WINDOW_US * 2)
        with pytest.raises(ConfigurationError):
            other.load_state(state)

    def test_refused_load_leaves_the_device_untouched(self, small_geometry):
        """A snapshot whose window differs from the attached recorder's is
        refused before the FTL, stats, engine or clock are overwritten."""
        source = SSD.create("tpftl", small_geometry)
        source.enable_observability(window_us=WINDOW_US * 2)
        source.fill_sequential(io_pages=64)
        source.run(_single_page_workload(small_geometry, count=300), threads=2)
        state = source.state_dict()

        target = SSD.create("tpftl", small_geometry)
        target.enable_observability(window_us=WINDOW_US)
        target.fill_sequential(io_pages=16)
        target.run(_single_page_workload(small_geometry, count=100), threads=2)
        before = state_fingerprint(target.state_dict())
        assert before != state_fingerprint(state)
        with pytest.raises(ConfigurationError, match="telemetry window"):
            target.load_state(state)
        assert state_fingerprint(target.state_dict()) == before

    def test_reset_stats_realigns_recorder(self, tiny_geometry):
        ssd = SSD.create("dftl", tiny_geometry)
        recorder = ssd.enable_observability(window_us=WINDOW_US)
        ssd.fill_sequential(io_pages=16)
        ssd.run(_single_page_workload(tiny_geometry, count=200), threads=2)
        assert recorder.series()["num_windows"] > 0

        ssd.reset_stats()
        assert ssd.recorder is recorder
        assert recorder.series()["num_windows"] == 0

        # The post-reset interval restarts at window 0 and its totals must
        # match the fresh stats exactly (no warm-up leakage).
        ssd.run(_single_page_workload(tiny_geometry, count=100), threads=2)
        totals = recorder.totals()
        assert totals["reads"] == ssd.stats.host_read_requests
        assert totals["writes"] == ssd.stats.host_write_requests
        assert totals["command_counts"] == list(ssd.stats.command_counts)
        assert min(recorder._windows) == 0


class TestWindowedRecorderUnit:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ConfigurationError):
            WindowedRecorder(0.0)
        with pytest.raises(ConfigurationError):
            WindowedRecorder(-5.0)

    @pytest.mark.parametrize("width", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_window(self, width):
        from repro.experiments.runner import observability_settings, set_metrics_window_us

        with pytest.raises(ConfigurationError, match="finite and positive"):
            WindowedRecorder(width)
        with pytest.raises(ConfigurationError, match="finite and positive"):
            set_metrics_window_us(width)
        assert observability_settings() == (None, None)

    def test_empty_recorder_series_and_totals(self):
        recorder = WindowedRecorder(WINDOW_US)
        series = recorder.series()
        assert series["num_windows"] == 0
        assert series["reads"] == []
        totals = recorder.totals()
        assert totals["reads"] == 0
        assert totals["busy_time_us"] == 0.0


class TestTraceRecorder:
    def test_rejects_non_positive_cap(self):
        with pytest.raises(ConfigurationError):
            TraceRecorder(max_events_per_name=0)

    def test_event_shapes(self):
        tracer = TraceRecorder()
        tracer.instant("cmt_evict", 12.5, {"tvpn": 3})
        tracer.complete("gc", 100.0, 40.0, {"victim_block": 7, "pages_moved": 9})
        export = tracer.export()
        instant, complete = export["traceEvents"]
        assert instant == {
            "name": "cmt_evict", "ph": "i", "ts": 12.5, "pid": 0, "tid": 0,
            "s": "t", "args": {"tvpn": 3},
        }
        assert complete["ph"] == "X"
        assert complete["ts"] == 100.0
        assert complete["dur"] == 40.0
        assert export["otherData"]["clock"] == "simulated_us"

    def test_per_name_sampling_cap(self):
        tracer = TraceRecorder(max_events_per_name=3)
        for i in range(10):
            tracer.instant("translation_read", float(i))
        tracer.instant("gc", 0.0)
        assert len(tracer) == 4  # 3 admitted + 1 other name
        assert tracer.export()["otherData"]["dropped_events"] == {"translation_read": 7}
        assert tracer.export()["otherData"]["dropped_events"] == {"translation_read": 7}

    def test_write_produces_wellformed_chrome_trace(self, tmp_path):
        tracer = TraceRecorder()
        tracer.instant("snapshot_restore", 1.0, {"finish_time_us": 1.0})
        path = tracer.write(tmp_path / "nested" / "out.trace.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"][0]["name"] == "snapshot_restore"
        assert payload["displayTimeUnit"] == "ms"

    def test_streamed_write_equals_the_reference_encoder(self, tmp_path):
        tracer = TraceRecorder()
        # Real traced runs: per-block GC (DFTL), then LearnedFTL's group GC,
        # evictions, and translation reads from the step and the planner.
        for ftl_name, batch in (("dftl", 1), ("learnedftl", 16)):
            ssd, _ = _observed_device(ftl_name, tracer=tracer)
            ssd.fill_sequential(io_pages=16)
            with plan_every_run(batch > 1):
                for phase in _mixed_workload(ssd.geometry):
                    ssd.run(phase, threads=2, batch=batch)
        tracer.instant("marker", 1.0)
        tracer.instant("marker", 2.5, {"tvpn": 3})
        tracer.instant("marker", 3.0, {})
        tracer.complete("span", 4.0, 0.5)
        tracer.complete("span", 5.0, 1.25, {"blocks": 2})
        tracer.instant("marker", math.inf, {"tvpn": 4})
        tracer.complete("span", 6.0, math.nan)
        tracer.instant(
            "marker", 7.0, {"flag": True, "planner": "GroupedReadPlanner", "nested": {"a": [1, 2.5]}}
        )
        tracer.instant("marker", 8.0, {"mean": np.float64(0.1), "huge": 10**400})
        tracer.instant("évènement 100%", 9.0, {"clé %s": -0.0})
        # A step's translation read at a non-finite time, then a kernel call's.
        log = ObservationLog(tracer=tracer)
        log.rows += (math.inf, 1.0, 1, 8, 0)
        log.ops += _ops((_TR, 1, 2), (_DATA, 0, 3))
        log.append_reads([10.0, 11.5], [1.0, 1.0], [-1, 4], [40])

        events = tracer.export()["traceEvents"]
        names = {event["name"] for event in events}
        assert {"gc", "gc_group", "cmt_evict", "translation_read"} <= names
        shapes = {tuple(e["args"]) for e in events if e["name"] == "translation_read"}
        assert shapes == {("chip", "ppn")}
        path = tracer.write(tmp_path / "events.json")
        assert path.read_bytes() == json.dumps(tracer.export()).encode("utf-8")

    def test_traced_run_emits_gc_and_eviction_events(self, ftl_name):
        tracer = TraceRecorder()
        ssd, _ = _observed_device(ftl_name, tracer=tracer)
        ssd.fill_sequential(io_pages=16)
        for phase in _mixed_workload(ssd.geometry):
            ssd.run(phase, threads=2)
        names = {event["name"] for event in tracer.export()["traceEvents"]}
        # Every design GCs under this workload; the grouped design reports
        # its grouped form, everything else the per-block form.
        assert ("gc" in names) or ("gc_group" in names)
        if ftl_name in ("dftl", "tpftl"):
            assert "translation_read" in names


def _log_step(log: ObservationLog, ts_us: float, ops: list[int]) -> None:
    """Append one request step's row and commands to ``log`` (a read, no outcomes)."""
    log.rows += (ts_us, 1.0, 1, len(ops), 0)
    log.ops += ops


class TestBlockTranslationReads:
    """Translation reads are admitted a block at a time, under the per-name cap."""

    def test_cap_inside_a_block_keeps_the_per_event_prefix(self):
        requests = [
            (1.0, _ops((_TR, 0, 10), (_DATA, 1, 11))),
            (2.0, _ops((_DATA, 2, 12))),
            (3.0, _ops((_TR, 3, 13), (_DATA, 0, 14), (_TR, 1, 15), (_TR, 2, 16))),
            (4.0, _ops((_TR, 0, 17), (_TR, 1, 18))),
        ]
        tracer = TraceRecorder(max_events_per_name=3)
        log = ObservationLog(tracer=tracer)
        for ts_us, ops in requests:
            _log_step(log, ts_us, ops)
        log.append_reads([5.0, 6.0], [1.0, 1.0], [4, 5], [19, 20])
        reference = TraceRecorder(max_events_per_name=3)
        for ts_us, ops in requests:
            for i in range(0, len(ops), 4):
                if ops[i] == _TR:
                    reference.instant(
                        "translation_read", ts_us, {"chip": ops[i + 1], "ppn": ops[i + 2]}
                    )
        for issue, chip, ppn in ((5.0, 4, 19), (6.0, 5, 20)):
            reference.instant("translation_read", issue, {"chip": chip, "ppn": ppn})
        assert len(tracer) == 3
        assert tracer.export()["otherData"]["dropped_events"] == {"translation_read": 5}
        assert tracer.export() == reference.export()
        assert [event["args"]["ppn"] for event in tracer.export()["traceEvents"]] == [10, 13, 15]

    def test_events_keep_their_place_among_pending_reads(self):
        tracer = TraceRecorder()
        log = ObservationLog(tracer=tracer)
        tracer.instant("first", 0.0)
        _log_step(log, 1.0, _ops((_TR, 0, 10)))
        tracer.instant("second", 1.5)
        tracer.complete("third", 1.6, 0.5)
        _log_step(log, 2.0, _ops((_TR, 1, 11), (_TR, 2, 12)))
        log.append_reads([3.0, 4.0], [1.0, 1.0], [-1, 3], [13])
        tracer.instant("fourth", 5.0)
        assert log.pending() == 4
        names = [event["name"] for event in tracer.export()["traceEvents"]]
        assert log.pending() == 0
        assert names == [
            "first", "translation_read", "second", "third",
            "translation_read", "translation_read", "translation_read", "fourth",
        ]

    def test_drops_are_listed_in_simulation_order(self):
        tracer = TraceRecorder(max_events_per_name=1)
        log = ObservationLog(tracer=tracer)
        _log_step(log, 1.0, _ops((_TR, 0, 10)))
        _log_step(log, 2.0, _ops((_TR, 0, 11)))  # the first drop: a translation read
        tracer.instant("cmt_evict", 2.5)
        tracer.instant("cmt_evict", 2.6)  # then a cmt_evict, while both are pending
        dropped = tracer.export()["otherData"]["dropped_events"]
        assert list(dropped) == ["translation_read", "cmt_evict"]

    @pytest.mark.parametrize(("ftl_name", "batch"), [("dftl", 1), ("learnedftl", 64)])
    def test_cap_inside_a_block_on_a_real_run(self, ftl_name, batch):
        def drive(cap):
            tracer = TraceRecorder(max_events_per_name=cap)
            ssd, recorder = _observed_device(ftl_name, tracer=tracer)
            ssd.fill_sequential(io_pages=16)
            rng = random.Random(SEED + 3)
            storm = [
                HostRequest(op=OpType.READ, lpn=rng.randrange(ssd.geometry.num_logical_pages))
                for _ in range(300)
            ]
            # Multi-page reads give the step several translation reads per
            # request; the read storm gives the planner several per call.
            with plan_every_run(batch > 1):
                ssd.run(storm + _entry_point_workload(ssd.geometry), threads=1, batch=batch)
            return tracer, recorder.series(ssd.stats)

        uncapped, series = drive(10**9)
        total = sum(series["translation_reads"])
        assert total >= 4
        cap = total // 2
        tracer, capped_series = drive(cap)
        assert capped_series == series
        kept = _translation_read_events(tracer)
        assert kept == _translation_read_events(uncapped)[:cap]
        dropped = tracer.export()["otherData"]["dropped_events"]
        assert len(kept) + dropped["translation_read"] == total


def _translation_read_events(tracer: TraceRecorder) -> list[dict]:
    return [e for e in tracer.export()["traceEvents"] if e["name"] == "translation_read"]


# ------------------------------------------------------- golden obs digests
#: Window of the golden observation runs: narrow enough that each run spans
#: dozens of windows and the open-loop replay issues out of window order.
_GOLDEN_WINDOW_US = 2_000.0


def _golden_mix(geometry, count: int, seed: int) -> list[HostRequest]:
    """95 % reads (mostly single-page, some 2–6 pages), 5 % 1- or 4-page writes."""
    rng = random.Random(seed)
    limit = geometry.num_logical_pages
    requests = []
    for _ in range(count):
        if rng.random() < 0.05:
            npages = rng.choice((1, 1, 1, 4))
            requests.append(HostRequest(OpType.WRITE, rng.randint(0, limit - npages), npages))
        else:
            npages = 1 if rng.random() < 0.9 else rng.randint(2, 6)
            requests.append(HostRequest(OpType.READ, rng.randint(0, limit - npages), npages))
    return requests


def _golden_device(tracer):
    from repro import SSDGeometry

    ssd = SSD.create("learnedftl", SSDGeometry.small())
    ssd.fill_sequential(io_pages=128)
    ssd.reset_stats()
    recorder = ssd.enable_observability(window_us=_GOLDEN_WINDOW_US, tracer=tracer)
    return ssd, recorder


def _golden_digests(recorder, stats, tracer, tmp_path) -> tuple[str, str]:
    """sha256 of the window series (as sorted JSON) and of the trace file bytes."""
    import hashlib

    series = json.dumps(recorder.series(stats), sort_keys=True).encode("utf-8")
    trace = tracer.write(tmp_path / "golden.trace.json").read_bytes()
    return hashlib.sha256(series).hexdigest(), hashlib.sha256(trace).hexdigest()


def _golden_replay_session(tmp_path) -> tuple[str, str]:
    """A chunked replay killed after its first checkpoint, then resumed."""
    from repro import SSDGeometry
    from repro.replay import ReplayPlan, ReplaySession

    geometry = SSDGeometry.small()
    rng = random.Random(SEED + 7)
    lines = ["timestamp,response,iotype,lun,offset,size"]
    for i, request in enumerate(_golden_mix(geometry, 6_000, SEED + 8)):
        lines.append(
            f"{i * 0.0004!r},0.0,{'R' if request.op is OpType.READ else 'W'},"
            f"{rng.randrange(4)},{request.lpn * geometry.page_size},"
            f"{request.npages * geometry.page_size}"
        )
    trace = tmp_path / "golden.csv"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    plan = ReplayPlan(
        trace_path=str(trace),
        trace_format="systor",
        ftl_name="learnedftl",
        geometry=geometry,
        streams=4,
        chunk_requests=500,
        checkpoint_every_requests=1_500,
        time_scale=0.05,
        warmup="fill",
        metrics_window_us=_GOLDEN_WINDOW_US,
    )
    run_dir = tmp_path / "run"
    paused = ReplaySession(plan, run_dir).run(stop_after_checkpoints=1)
    assert not paused.finished
    tracer = TraceRecorder()
    resumed = ReplaySession(plan, run_dir, tracer=tracer).run(resume=True)
    assert resumed.finished and resumed.resumed_from is not None
    device = resumed.device
    return _golden_digests(device.recorder, device.stats, tracer, tmp_path)


def _golden_run(case: str, tmp_path) -> tuple[str, str]:
    if case == "replay_session":
        return _golden_replay_session(tmp_path)
    tracer = TraceRecorder(max_events_per_name=40 if case == "capped" else 100_000)
    ssd, recorder = _golden_device(tracer)
    requests = _golden_mix(ssd.geometry, 10_000, SEED + 5)
    if case == "replay_streams":
        rng = random.Random(SEED + 6)
        for i, request in enumerate(requests):
            request.issue_time_us = i * 35.0
            request.stream_id = rng.randrange(4)
        ssd.replay(requests, streams=4)
    else:
        with plan_every_run(case == "batched"):
            ssd.run(requests, threads=4, batch=512 if case == "batched" else 1)
    return _golden_digests(recorder, ssd.stats, tracer, tmp_path)


class TestGoldenObservationDigests:
    """The window series and the trace bytes of five observed runs, pinned.

    Captured from the per-request observers the block-at-a-time consumer
    replaced; a change to how observation is recorded must reproduce them.
    Re-pinned when a GC event's flash time became the sum of its commands'
    own latencies: only the series' ``gc_flash_time_us`` column and the
    ``gc_group`` spans' ``dur`` moved.
    """

    GOLDEN = {
        "scalar": (
            "02d50bbcb7ebedf3235050a16b35fbd1bb974541c005d5507d75e428ddfdcbac",
            "46108e20f97dccbbd5a80aeaba726e0ea212b939d33143a630cf4b526a590844",
        ),
        "batched": (
            "02d50bbcb7ebedf3235050a16b35fbd1bb974541c005d5507d75e428ddfdcbac",
            "46108e20f97dccbbd5a80aeaba726e0ea212b939d33143a630cf4b526a590844",
        ),
        "replay_streams": (
            "04075b512e900cea7bb8f81602559c0d04a4edd0fcde7a061cec8967d8d67642",
            "87dc842f90bdac7b79501571b2a5fce5cae0fb043622541936bd8dd7e61c85c4",
        ),
        "replay_session": (
            "3b0ba6531481365f202b0cd0e5bead7a64581afb50de2d7f1d89377f939dd8d5",
            "4bafe9b2eda5cc12f0c455af05e1945694ed3a9d9e2767292b834f0f92e4ef2a",
        ),
        "capped": (
            "02d50bbcb7ebedf3235050a16b35fbd1bb974541c005d5507d75e428ddfdcbac",
            "21d801cbfc757efa0c6bcfd16e6d52b6a0c2224c7aace31c788cd70d28bfd0d2",
        ),
    }

    @pytest.mark.parametrize(
        "case", ["scalar", "batched", "replay_streams", "replay_session", "capped"]
    )
    def test_digests(self, case, tmp_path):
        assert _golden_run(case, tmp_path) == self.GOLDEN[case]


# ------------------------------------------------------- per-request oracle
_HIT_CLASS_MAX = 2  # BUFFER_HIT, CMT_HIT, MODEL_HIT


class _PerRequestObserver:
    """The per-request attribution the observation log replaced, kept as the oracle.

    After each request step it walks the request's command buffer; after each
    batched-kernel call it walks the ``(issues, latencies, trans_chips)``
    columns and the ``trans_ppns`` the planner's ``take()`` returned.  Windows are filled one request at a time (cached current window,
    ``+=`` per command), and translation reads become trace events as they
    happen, interleaved with the hook sites' events and capped per name.
    """

    def __init__(self, window_us: float, durations: list[float], cap: int) -> None:
        self.window_us = window_us
        self.durations = durations
        self.cap = cap
        self.windows: dict = {}
        self.events: list[dict] = []
        self.counts: dict[str, int] = {}
        self.dropped: dict[str, int] = {}

    def _window(self, issue_us: float):
        from repro.obs.windows import _Window

        return self.windows.setdefault(int(issue_us / self.window_us), _Window())

    def event(self, event: dict) -> None:
        name = event["name"]
        if self.counts.get(name, 0) < self.cap:
            self.counts[name] = self.counts.get(name, 0) + 1
            self.events.append(event)
        else:
            self.dropped[name] = self.dropped.get(name, 0) + 1

    def _read(self, ts_us: float, args: dict) -> None:
        self.event({"name": "translation_read", "ph": "i", "ts": ts_us, "pid": 0, "tid": 0,
                    "s": "t", "args": args})

    def step(self, is_read: bool, npages: int, issue: float, latency: float, buffer) -> None:
        window = self._window(issue)
        if is_read:
            window.reads += 1
            window.read_pages += npages
            window.read_latencies.append(latency)
            hits = sum(code <= _HIT_CLASS_MAX for code in buffer.outcome_codes)
            window.read_hits += hits
            window.read_misses += len(buffer.outcome_codes) - hits
        else:
            window.writes += 1
            window.write_pages += npages
            window.write_latencies.append(latency)
        ops = buffer.ops
        for slot in range(0, len(ops), 4):
            code = ops[slot]
            window.command_counts[code] += 1
            window.busy_time_us += self.durations[code]
            if code == _TR:
                self._read(issue, {"chip": ops[slot + 1], "ppn": ops[slot + 2]})

    def fast_read(self, issues: list, latencies: list, trans_chips, trans_ppns: list) -> None:
        ppns = iter(trans_ppns)
        for i, (issue, latency) in enumerate(zip(issues, latencies)):
            window = self._window(issue)
            window.reads += 1
            window.read_pages += 1
            window.read_latencies.append(latency)
            trans_chip = -1 if trans_chips is None else trans_chips[i]
            if trans_chip >= 0:
                window.read_misses += 1
                window.command_counts[_TR] += 1
                window.busy_time_us += self.durations[_TR]
                self._read(issue, {"chip": trans_chip, "ppn": next(ppns)})
            else:
                window.read_hits += 1
            window.command_counts[_DATA] += 1
            window.busy_time_us += self.durations[_DATA]

    def series(self, stats) -> dict:
        recorder = WindowedRecorder(self.window_us)
        recorder._windows = self.windows
        return recorder.series(stats)


class _TeeTracer(TraceRecorder):
    """A tracer that also hands every hook-site event to the oracle."""

    def __init__(self, cap: int, oracle: _PerRequestObserver) -> None:
        super().__init__(max_events_per_name=cap)
        self.oracle = oracle

    def instant(self, name, ts_us, args=None):
        super().instant(name, ts_us, args)
        event = {"name": name, "ph": "i", "ts": ts_us, "pid": 0, "tid": 0, "s": "t"}
        self.oracle.event({**event, "args": args} if args else event)

    def complete(self, name, ts_us, dur_us, args=None):
        super().complete(name, ts_us, dur_us, args)
        event = {"name": name, "ph": "X", "ts": ts_us, "dur": dur_us, "pid": 0, "tid": 0}
        self.oracle.event({**event, "args": args} if args else event)


class _PlannerTap:
    """A read planner whose ``take()`` also hands its ``trans_ppns`` to ``taken``."""

    def __init__(self, planner, taken: list) -> None:
        self.planner = planner
        self.taken = taken

    def take(self):
        result = self.planner.take()
        if result[0]:
            self.taken.append(result[3])
        return result

    def skip(self) -> None:
        self.planner.skip()


def _oracle_device(ftl_name: str, geometry, cap: int):
    """A device observed both through its log and, per request, by the oracle.

    Its flash latencies are not whole microseconds, so a busy-time sum taken
    in another order than the per-request walk's rounds differently.
    """
    from repro.nand.timing import TimingModel

    timing = TimingModel(read_us=40.1, program_us=200.3, erase_us=2000.7)
    ssd = SSD.create(ftl_name, geometry, timing=timing)
    ssd.fill_sequential(io_pages=16)
    ssd.reset_stats()
    oracle = _PerRequestObserver(WINDOW_US / 50, ssd.engine._duration_by_code, cap)
    recorder = ssd.enable_observability(window_us=WINDOW_US / 50, tracer=_TeeTracer(cap, oracle))
    step = ssd._step
    execute_read_batch = ssd.engine.execute_read_batch
    begin_read_run = ssd.ftl.begin_read_run
    #: The ``trans_ppns`` of each ``take()``, until the kernel call it feeds.
    taken: list[list] = []

    def oracle_step(request, issue):
        finish = step(request, issue)
        oracle.step(request.op is OpType.READ, request.npages, issue, finish - issue,
                    ssd.ftl.buffer)
        return finish

    def oracle_read_batch(data_chips, trans_chips, thread_free, **kwargs):
        issues, latencies = execute_read_batch(data_chips, trans_chips, thread_free, **kwargs)
        oracle.fast_read(issues, latencies, trans_chips, taken.pop())
        return issues, latencies

    def oracle_read_run(lpns):
        planner = begin_read_run(lpns)
        return None if planner is None else _PlannerTap(planner, taken)

    ssd._step = oracle_step
    ssd.engine.execute_read_batch = oracle_read_batch
    ssd.ftl.begin_read_run = oracle_read_run
    return ssd, recorder, oracle


class TestPerRequestOracle:
    """The block consumers equal the per-request attribution, bit for bit."""

    @pytest.mark.parametrize("mode", ["run", "batched", "replay"])
    def test_series_and_trace_match_the_oracle(self, ftl_name, mode):
        ssd, recorder, oracle = _oracle_device(ftl_name, golden_geometry(), cap=60)
        requests = _golden_mix(ssd.geometry, 2 * BLOCK_REQUESTS + 1_000, SEED + 4)
        if mode == "replay":
            rng = random.Random(SEED + 9)
            for i, request in enumerate(requests):
                request.issue_time_us = i * 20.0
                request.stream_id = rng.randrange(3)
            ssd.replay(requests, streams=3)
        else:
            with plan_every_run(mode == "batched"):
                ssd.run(requests, threads=3, batch=97 if mode == "batched" else 1)
        trace = ssd.tracer.export()
        assert recorder.series(ssd.stats) == oracle.series(ssd.stats)
        assert trace["traceEvents"] == oracle.events
        assert list(trace["otherData"]["dropped_events"].items()) == list(oracle.dropped.items())
        if ftl_name != "ideal":  # the one design without translation pages
            assert oracle.dropped.get("translation_read", 0) > 0

    @pytest.mark.parametrize(("ftl_name", "mode"), [("learnedftl", "batched"), ("dftl", "replay")])
    def test_tiny_blocks_match_the_oracle(self, monkeypatch, ftl_name, mode):
        """Blocks of 7 requests (or 64 command slots): windows, latency order
        and event placement all straddle block boundaries."""
        import repro.obs.log as log_module
        import repro.ssd.device as device_module

        monkeypatch.setattr(device_module, "BLOCK_ROW_SLOTS", 7 * log_module.ROW_WIDTH)
        monkeypatch.setattr(device_module, "BLOCK_OP_SLOTS", 64)
        monkeypatch.setattr(log_module, "BLOCK_ROW_SLOTS", 7 * log_module.ROW_WIDTH)
        monkeypatch.setattr(log_module, "BLOCK_OP_SLOTS", 64)
        self.test_series_and_trace_match_the_oracle(ftl_name, mode)
