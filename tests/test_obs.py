"""Tests for the observability subsystem (:mod:`repro.obs`).

The invariants pinned here are the subsystem's whole contract:

* **conservation** — summing any per-window counter over all windows equals
  the end-of-run total the golden fingerprints pin, for every FTL design;
* **non-interference** — running the golden workload with telemetry *and*
  tracing enabled reproduces the pinned fingerprints bit-for-bit, and a run
  with observability disabled never feeds an observer;
* **one step** — ``submit``, ``run``, ``run(batch=)`` and ``replay`` simulate
  and observe a single request stream alike;
* **mode equivalence** — the scalar and batched kernels produce bit-identical
  window series (including the float busy-time/utilization columns);
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
from repro import SSD
from repro.nand.errors import ConfigurationError
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
_TRACER_PROTOCOL = ("instant", "complete", "translation_reads", "planned_translation_reads")
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
        assert sum(series["flash_reads"]) == sum(stats.flash_reads.values())
        assert sum(series["flash_programs"]) == sum(stats.flash_programs.values())
        assert sum(series["flash_erases"]) == sum(stats.flash_erases.values())
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

        for name in ("record_scalar", "record_fast_read"):
            monkeypatch.setattr(WindowedRecorder, name, boom)
        for name in _TRACER_PROTOCOL:
            monkeypatch.setattr(TraceRecorder, name, boom)

        ssd = SSD.create("dftl", tiny_geometry)
        ssd.fill_sequential(io_pages=16)
        requests = _single_page_workload(tiny_geometry, count=160)
        for request in requests[:40]:
            ssd.submit(request)
        ssd.run(requests[40:80], threads=2)
        ssd.run(requests[80:120], threads=2, batch=16)
        ssd.replay(requests[120:], streams=2)
        assert ssd.recorder is None
        assert ssd.stats.host_read_requests + ssd.stats.host_write_requests > 160

    def test_null_tracer_is_shared_and_inert(self, tiny_geometry):
        ssd = SSD.create("dftl", tiny_geometry)
        assert ssd.tracer is NULL_TRACER
        assert ssd.ftl.tracer is NULL_TRACER
        assert not NullTraceRecorder.enabled
        # Every recording method of the real recorder exists on the null one.
        recording = {
            name for name in vars(TraceRecorder)
            if not name.startswith("_") and callable(getattr(TraceRecorder, name))
        } - {"export", "write", "dropped_counts"}
        assert recording == set(_TRACER_PROTOCOL)
        assert all(callable(getattr(NULL_TRACER, name)) for name in _TRACER_PROTOCOL)
        NULL_TRACER.instant("gc", 0.0, {"victim_block": 1})
        NULL_TRACER.complete("gc", 0.0, 10.0)
        NULL_TRACER.translation_reads(0.0, _ops((_TR, 3, 77), (_DATA, 1, 9)))
        NULL_TRACER.planned_translation_reads([0.0, 1.0], [2, -1], 1)
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
    """``submit``, ``run``, ``run(batch=)`` and ``replay`` share one request step,
    so a single stream through any of them is simulated *and observed* alike."""

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
            if name != "run_batched" or ftl_name != "learnedftl":
                # The planner's instants carry no ``ppn`` and the batched loop
                # stamps ``now_us`` per fallback only.  Without a planner it
                # serves every request through the step, so the trace is the
                # scalar one.
                assert trace["traceEvents"] == reference_trace["traceEvents"], name
            # The tracer and the windowed recorder are fed by the same step.
            instants = sum(e["name"] == "translation_read" for e in trace["traceEvents"])
            dropped = trace["otherData"]["dropped_events"].get("translation_read", 0)
            assert instants + dropped == sum(series["translation_reads"]), name
        if ftl_name in ("dftl", "tpftl"):
            assert sum(reference_series["translation_reads"]) > self.TRACE_CAP
        plans = [
            event["args"]
            for event in runs["run_batched"][2]["traceEvents"]
            if event["name"] == "batch_plan"
        ]
        assert bool(plans) == (ftl_name == "learnedftl")  # the one design with a planner
        assert all(0 <= plan["fallbacks"] <= plan["requests"] for plan in plans)


class TestModeEquivalence:
    """Scalar and batched kernels must produce bit-identical window series."""

    def test_scalar_and_batched_series_identical(self, ftl_name):
        def run(batch):
            ssd, recorder = _observed_device(ftl_name)
            ssd.fill_sequential(io_pages=16)
            ssd.run(_single_page_workload(ssd.geometry), threads=2, batch=batch)
            return recorder.series(ssd.stats)

        scalar = run(None)
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

    def test_reset_stats_realigns_recorder(self, tiny_geometry):
        ssd = SSD.create("dftl", tiny_geometry)
        recorder = ssd.enable_observability(window_us=WINDOW_US)
        ssd.fill_sequential(io_pages=16)
        ssd.run(_single_page_workload(tiny_geometry, count=200), threads=2)
        assert recorder.window_count() > 0

        ssd.reset_stats()
        assert ssd.recorder is recorder
        assert recorder.window_count() == 0

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

    def test_empty_recorder_series_and_totals(self):
        recorder = WindowedRecorder(WINDOW_US)
        assert recorder.window_count() == 0
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
        assert tracer.dropped_counts() == {"translation_read": 7}
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
        # evictions, planner runs and both translation-read shapes.
        for ftl_name, batch in (("dftl", None), ("learnedftl", 16)):
            ssd, _ = _observed_device(ftl_name, tracer=tracer)
            ssd.fill_sequential(io_pages=16)
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
        tracer.translation_reads(math.inf, _ops((_TR, 1, 2)))
        tracer.planned_translation_reads([10.0, np.float64(11.5)], [-1, 4], 1)

        events = tracer.export()["traceEvents"]
        names = {event["name"] for event in events}
        assert {"gc", "gc_group", "cmt_evict", "batch_plan"} <= names
        shapes = {tuple(e["args"]) for e in events if e["name"] == "translation_read"}
        assert shapes == {("chip", "ppn"), ("chip",)}
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


class _CallLog(TraceRecorder):
    """A recorder that also logs every bulk translation-read admission."""

    __slots__ = ("calls",)

    def __init__(self, max_events_per_name: int) -> None:
        super().__init__(max_events_per_name)
        #: ``(method, arguments, count, admitted)`` per bulk call.
        self.calls: list[tuple[str, tuple, int, int]] = []

    def translation_reads(self, ts_us, ops):
        before = len(self)
        super().translation_reads(ts_us, ops)
        count = ops[0::4].count(_TR)
        if count:
            self.calls.append(("scalar", (ts_us, list(ops)), count, len(self) - before))

    def planned_translation_reads(self, issues, chips, count):
        before = len(self)
        super().planned_translation_reads(issues, chips, count)
        self.calls.append(("planned", (list(issues), list(chips)), count, len(self) - before))


def _per_event_replay(calls, cap: int) -> TraceRecorder:
    """The per-event reference: every read of the logged bulk calls recorded
    through :meth:`TraceRecorder.instant`, one ``_admit`` at a time."""
    reference = TraceRecorder(max_events_per_name=cap)
    for method, arguments, _, _ in calls:
        if method == "scalar":
            ts_us, ops = arguments
            for i in range(0, len(ops), 4):
                if ops[i] == _TR:
                    reference.instant(
                        "translation_read", ts_us, {"chip": ops[i + 1], "ppn": ops[i + 2]}
                    )
        else:
            for issue, chip in zip(*arguments):
                if chip >= 0:
                    reference.instant("translation_read", issue, {"chip": chip})
    return reference


class TestBulkTranslationReads:
    """A request's (or planner step's) translation reads are admitted in one call."""

    def test_request_straddling_the_cap_keeps_the_per_event_prefix(self):
        requests = [
            (1.0, _ops((_TR, 0, 10), (_DATA, 1, 11))),
            (2.0, _ops((_DATA, 2, 12))),
            (3.0, _ops((_TR, 3, 13), (_DATA, 0, 14), (_TR, 1, 15), (_TR, 2, 16))),
            (4.0, _ops((_TR, 0, 17), (_TR, 1, 18))),
        ]
        tracer = _CallLog(max_events_per_name=3)
        for ts_us, ops in requests:
            tracer.translation_reads(ts_us, ops)
        tracer.planned_translation_reads([5.0, 6.0], [4, 5], 2)
        assert [admitted for *_, admitted in tracer.calls] == [1, 2, 0, 0]
        assert len(tracer) == 3
        assert tracer.dropped_counts() == {"translation_read": 5}
        assert tracer.export() == _per_event_replay(tracer.calls, 3).export()
        assert [event["args"]["ppn"] for event in tracer.export()["traceEvents"]] == [10, 13, 15]

    @pytest.mark.parametrize(
        ("ftl_name", "batch", "method"),
        [("dftl", None, "scalar"), ("learnedftl", 64, "planned")],
    )
    def test_cap_inside_a_call_on_a_real_run(self, ftl_name, batch, method):
        def drive(cap):
            tracer = _CallLog(max_events_per_name=cap)
            ssd, recorder = _observed_device(ftl_name, tracer=tracer)
            ssd.fill_sequential(io_pages=16)
            rng = random.Random(SEED + 3)
            storm = [
                HostRequest(op=OpType.READ, lpn=rng.randrange(ssd.geometry.num_logical_pages))
                for _ in range(300)
            ]
            # Multi-page reads give the step several translation reads per
            # request; the read storm gives the planner several per step.
            ssd.run(storm + _entry_point_workload(ssd.geometry), threads=1, batch=batch)
            return tracer, recorder.series(ssd.stats)

        uncapped, _ = drive(10**9)
        # Put the cap one read into the first call of this path that issues
        # several translation reads, so that call is cut short.
        seen = 0
        for kind, _, count, _ in uncapped.calls:
            if kind == method and count >= 2:
                break
            seen += count
        else:
            pytest.fail(f"no {method} call issued two or more translation reads")
        tracer, series = drive(seen + 1)
        assert any(
            kind == method and 0 < admitted < count for kind, _, count, admitted in tracer.calls
        )
        kept = _translation_read_events(tracer)
        reference = _per_event_replay(tracer.calls, seen + 1)
        assert kept == _translation_read_events(reference)
        assert kept == _translation_read_events(uncapped)[: seen + 1]
        dropped = tracer.dropped_counts()["translation_read"]
        assert dropped == reference.dropped_counts()["translation_read"]
        assert len(kept) + dropped == sum(series["translation_reads"])


def _translation_read_events(tracer: TraceRecorder) -> list[dict]:
    return [e for e in tracer.export()["traceEvents"] if e["name"] == "translation_read"]
