"""Interval-windowed telemetry over the simulated clock.

:class:`WindowedRecorder` buckets per-request activity into fixed-width
windows of width ``window_us`` **of simulated time**: window ``w`` covers
``[w * window_us, (w + 1) * window_us)`` and every quantity a request
produces — the request itself, its latency, its flash commands and their
chip busy time, its read-outcome class — is attributed to the window of its
**issue time**.  GC activity is attributed to the window of the GC event's
trigger time (``GCEvent.time_us``) when the series is built, so the window
series of a run is a pure function of the same quantities the golden
fingerprints pin.

The recorder is a consumer of the device's request step, never a twin of it.
It reads the device's :class:`~repro.obs.log.ObservationLog` a block at a
time (:meth:`WindowedRecorder.consume`): the log holds, per request and in
the order the device served them, the issue time, latency, direction, page
count, command slots and outcome codes — from the request step and from the
batched read kernel alike.  Because both execution modes present requests in
the same order with bit-identical issue times, the per-window series —
including the float busy-time accumulators — is **bit-identical between the
scalar and batched kernels**, which ``tests/test_obs.py`` pins.

Windows live in a dictionary of per-window accumulators (open-loop trace
replay issues requests out of window order across streams, so windows can
never be closed eagerly); the latency populations inside are ``array("d")``
columns (a block's samples land with one ``frombytes`` per window, and the
digests read a zero-copy view).  Every reader folds the pending block in
first.  The whole recorder round-trips through ``state_dict()`` /
``load_state()``, so a snapshot-resume run reproduces the exact series of an
uninterrupted one.
"""

from __future__ import annotations

import math
from array import array
from typing import Any

import numpy as np

from repro.nand.errors import ConfigurationError
from repro.nand.fields import PositiveFloat, check_value
from repro.ssd.request import (
    NUM_COMMAND_CODES,
    NUM_PURPOSES,
    CommandKind,
    CommandPurpose,
    ReadOutcome,
    command_code,
)
from repro.ssd.stats import LatencyDigest, SimulationStats

__all__ = ["WindowedRecorder"]

#: Highest outcome code of the single-read ("hit") class: BUFFER_HIT,
#: CMT_HIT and MODEL_HIT resolve the mapping without an extra flash read;
#: DOUBLE_READ / TRIPLE_READ (the higher codes) are the miss class.
_HIT_CLASS_MAX = ReadOutcome.MODEL_HIT.code

_READ_BASE = CommandKind.READ.code * NUM_PURPOSES
_PROGRAM_BASE = CommandKind.PROGRAM.code * NUM_PURPOSES
_ERASE_BASE = CommandKind.ERASE.code * NUM_PURPOSES
_CODE_TRANSLATION_READ = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)

#: Integer per-window columns, in serialization order.
_INT_COLUMNS = ("reads", "writes", "read_pages", "write_pages", "read_hits", "read_misses")


def _grouped(values: np.ndarray, groups: np.ndarray, counts: np.ndarray) -> list[bytes]:
    """``values`` split by group (``counts[g]`` in group ``g``), as raw float64 bytes.

    A stable sort keeps each group's values in their original (request) order.
    """
    if counts.shape[0] == 1:
        return [values.tobytes()]
    ordered = values[np.argsort(groups, kind="stable")]
    return [part.tobytes() for part in np.split(ordered, np.cumsum(counts)[:-1])]


class _Window:
    """Accumulator of one open window (updated in place, a block at a time)."""

    __slots__ = (
        "reads",
        "writes",
        "read_pages",
        "write_pages",
        "read_hits",
        "read_misses",
        "busy_time_us",
        "command_counts",
        "read_latencies",
        "write_latencies",
    )

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.read_pages = 0
        self.write_pages = 0
        self.read_hits = 0
        self.read_misses = 0
        self.busy_time_us = 0.0
        self.command_counts = [0] * NUM_COMMAND_CODES
        self.read_latencies = array("d")
        self.write_latencies = array("d")


class WindowedRecorder:
    """Bucket per-request telemetry into fixed windows of the simulated clock."""

    def __init__(self, window_us: float) -> None:
        check_value("window_us", window_us, PositiveFloat)
        self.window_us = float(window_us)
        self._windows: dict[int, _Window] = {}
        #: The observation log this recorder reads (``None`` until attached).
        self._source = None
        #: Per-code command durations, aliased from the engine's latency table
        #: (rebound by the device whenever it rebuilds its engine).
        self._durations: list[float] = [0.0] * NUM_COMMAND_CODES

    # ------------------------------------------------------------- binding
    def bind_durations(self, durations: list[float]) -> None:
        """Alias the engine's per-code latency table for busy-time attribution."""
        self._sync()
        self._durations = durations

    def reset(self) -> None:
        """Drop every window (a fresh measurement interval after ``reset_stats``).

        ``reset_stats`` also rewinds the simulated clock to zero, so window 0
        restarts aligned with the new measurement interval — warm-up windows
        never leak into it.  Requests still pending in the log belong to the
        interval being dropped: they are folded in first, then dropped too.
        """
        self._sync()
        self._windows.clear()

    # ----------------------------------------------------------- recording
    def attach(self, log) -> None:
        """Read from ``log`` (:class:`~repro.obs.log.ObservationLog`) from now on."""
        self._source = log

    def _sync(self) -> None:
        """Fold the source log's pending requests in before anything reads the windows."""
        if self._source is not None:
            self._source.flush()

    def _window(self, index: int) -> _Window:
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window()
        return window

    def consume(self, block) -> None:
        """Attribute one log block (:class:`~repro.obs.log.Block`) to its windows.

        Requests are grouped by the window of their issue time with a stable
        sort, so each window's latency samples keep request order whatever
        order the windows come in (open-loop replay issues out of window
        order).  Busy time is accumulated with ``np.add.at``, which adds in
        array order: each window's durations are added one command at a time
        in request order, then command order — the order a per-request walk
        of the command buffers adds them in, so the float sums are the same
        bit for bit.
        """
        keys, request_window = np.unique(
            (block.issue / self.window_us).astype(np.int64), return_inverse=True
        )
        count = keys.shape[0]
        windows = [self._window(index) for index in keys.tolist()]
        pages = block.pages
        is_read = pages > 0
        read_window = request_window[is_read]
        write_window = request_window[~is_read]
        reads = np.bincount(read_window, minlength=count)
        writes = np.bincount(write_window, minlength=count)
        read_pages = np.bincount(read_window, weights=pages[is_read], minlength=count)
        write_pages = np.bincount(write_window, weights=-pages[~is_read], minlength=count)
        outcome_window = request_window[block.outcome_request]
        read_outcome = is_read[block.outcome_request]
        hit = block.outcomes <= _HIT_CLASS_MAX
        hits = np.bincount(outcome_window[read_outcome & hit], minlength=count)
        misses = np.bincount(outcome_window[read_outcome & ~hit], minlength=count)
        codes = block.codes
        op_window = request_window[block.op_request]
        command_counts = np.bincount(
            op_window * NUM_COMMAND_CODES + codes, minlength=count * NUM_COMMAND_CODES
        ).reshape(count, NUM_COMMAND_CODES)
        busy = np.array([window.busy_time_us for window in windows], dtype=np.float64)
        np.add.at(busy, op_window, np.asarray(self._durations, dtype=np.float64)[codes])
        for (
            window,
            window_reads,
            window_writes,
            window_read_pages,
            window_write_pages,
            window_hits,
            window_misses,
            window_busy,
            window_counts,
            window_read_latencies,
            window_write_latencies,
        ) in zip(
            windows,
            reads.tolist(),
            writes.tolist(),
            read_pages.astype(np.int64).tolist(),
            write_pages.astype(np.int64).tolist(),
            hits.tolist(),
            misses.tolist(),
            busy.tolist(),
            command_counts.tolist(),
            _grouped(block.latency[is_read], read_window, reads),
            _grouped(block.latency[~is_read], write_window, writes),
        ):
            window.reads += window_reads
            window.writes += window_writes
            window.read_pages += window_read_pages
            window.write_pages += window_write_pages
            window.read_hits += window_hits
            window.read_misses += window_misses
            window.busy_time_us = window_busy
            window.command_counts[:] = map(int.__add__, window.command_counts, window_counts)
            window.read_latencies.frombytes(window_read_latencies)
            window.write_latencies.frombytes(window_write_latencies)

    # -------------------------------------------------------------- series

    def series(self, stats: SimulationStats | None = None) -> dict[str, Any]:
        """Build the per-window time series as plain JSON-serializable columns.

        Windows run contiguously from 0 to the highest touched index (gaps
        are emitted as all-zero windows so the series plots directly).  When
        ``stats`` is given, its GC events are bucketed by trigger time into
        ``gc_count`` / ``gc_pages_moved`` / ``gc_flash_time_us`` columns and
        its chip count feeds the per-window ``utilization`` column.
        """
        self._sync()
        width = self.window_us
        gc_windows: dict[int, list[float]] = {}
        num_chips = 0
        if stats is not None:
            num_chips = stats.num_chips
            for event in stats.gc_events:
                bucket = gc_windows.setdefault(int(event.time_us / width), [0.0, 0.0, 0.0])
                bucket[0] += 1.0
                bucket[1] += float(event.pages_moved)
                bucket[2] += event.flash_time_us
        last = -1
        if self._windows:
            last = max(self._windows)
        if gc_windows:
            last = max(last, max(gc_windows))
        columns: dict[str, Any] = {
            "window_us": width,
            "num_windows": last + 1,
            "index": [],
            "start_us": [],
            "reads": [],
            "writes": [],
            "read_pages": [],
            "write_pages": [],
            "read_hits": [],
            "read_misses": [],
            "flash_reads": [],
            "flash_programs": [],
            "flash_erases": [],
            "translation_reads": [],
            "busy_time_us": [],
            "iops": [],
            "write_amplification": [],
            "utilization": [],
            "gc_count": [],
            "gc_pages_moved": [],
            "gc_flash_time_us": [],
            "read_mean_us": [],
            "read_p50_us": [],
            "read_p99_us": [],
            "read_p999_us": [],
            "read_max_us": [],
            "write_mean_us": [],
            "write_p50_us": [],
            "write_p99_us": [],
            "write_p999_us": [],
            "write_max_us": [],
        }
        empty = _Window()
        window_seconds = width / 1_000_000.0
        for index in range(last + 1):
            window = self._windows.get(index, empty)
            counts = window.command_counts
            flash_reads = sum(counts[_READ_BASE : _READ_BASE + NUM_PURPOSES])
            flash_programs = sum(counts[_PROGRAM_BASE : _PROGRAM_BASE + NUM_PURPOSES])
            flash_erases = sum(counts[_ERASE_BASE : _ERASE_BASE + NUM_PURPOSES])
            gc_count, gc_pages, gc_flash = gc_windows.get(index, (0.0, 0.0, 0.0))
            read_digest = LatencyDigest.from_samples(window.read_latencies)
            write_digest = LatencyDigest.from_samples(window.write_latencies)
            columns["index"].append(index)
            columns["start_us"].append(index * width)
            columns["reads"].append(window.reads)
            columns["writes"].append(window.writes)
            columns["read_pages"].append(window.read_pages)
            columns["write_pages"].append(window.write_pages)
            columns["read_hits"].append(window.read_hits)
            columns["read_misses"].append(window.read_misses)
            columns["flash_reads"].append(flash_reads)
            columns["flash_programs"].append(flash_programs)
            columns["flash_erases"].append(flash_erases)
            columns["translation_reads"].append(counts[_CODE_TRANSLATION_READ])
            columns["busy_time_us"].append(window.busy_time_us)
            columns["iops"].append((window.reads + window.writes) / window_seconds)
            columns["write_amplification"].append(
                flash_programs / window.write_pages if window.write_pages else 0.0
            )
            columns["utilization"].append(
                window.busy_time_us / (width * num_chips) if num_chips else 0.0
            )
            columns["gc_count"].append(int(gc_count))
            columns["gc_pages_moved"].append(int(gc_pages))
            columns["gc_flash_time_us"].append(gc_flash)
            columns["read_mean_us"].append(read_digest.mean_us)
            columns["read_p50_us"].append(read_digest.p50_us)
            columns["read_p99_us"].append(read_digest.p99_us)
            columns["read_p999_us"].append(read_digest.p999_us)
            columns["read_max_us"].append(read_digest.max_us)
            columns["write_mean_us"].append(write_digest.mean_us)
            columns["write_p50_us"].append(write_digest.p50_us)
            columns["write_p99_us"].append(write_digest.p99_us)
            columns["write_p999_us"].append(write_digest.p999_us)
            columns["write_max_us"].append(write_digest.max_us)
        return columns

    # ----------------------------------------------------------- invariants
    def totals(self) -> dict[str, Any]:
        """Sum every counter over all windows (for the sum-of-windows checks).

        Integer counters sum exactly; ``busy_time_us`` is summed with
        :func:`math.fsum` because the per-window partials were accumulated in
        a different association order than the engine's per-chip totals.
        """
        self._sync()
        windows = list(self._windows.values())
        command_counts = [0] * NUM_COMMAND_CODES
        for window in windows:
            for code, count in enumerate(window.command_counts):
                command_counts[code] += count
        return {
            "reads": sum(w.reads for w in windows),
            "writes": sum(w.writes for w in windows),
            "read_pages": sum(w.read_pages for w in windows),
            "write_pages": sum(w.write_pages for w in windows),
            "read_hits": sum(w.read_hits for w in windows),
            "read_misses": sum(w.read_misses for w in windows),
            "command_counts": command_counts,
            "busy_time_us": math.fsum(w.busy_time_us for w in windows),
            "read_latency_count": sum(len(w.read_latencies) for w in windows),
            "write_latency_count": sum(len(w.write_latencies) for w in windows),
        }

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture every open window (columnar arrays + ragged latency packs)."""
        self._sync()
        indices = sorted(self._windows)
        windows = [self._windows[i] for i in indices]
        state: dict[str, Any] = {
            "window_us": self.window_us,
            "index": np.asarray(indices, dtype=np.int64),
            "busy_time_us": np.asarray([w.busy_time_us for w in windows], dtype=np.float64),
            "command_counts": np.asarray(
                [w.command_counts for w in windows], dtype=np.int64
            ).reshape(len(windows), NUM_COMMAND_CODES),
            "read_latency_counts": np.asarray(
                [len(w.read_latencies) for w in windows], dtype=np.int64
            ),
            "write_latency_counts": np.asarray(
                [len(w.write_latencies) for w in windows], dtype=np.int64
            ),
            "read_latencies": np.concatenate(
                [np.frombuffer(w.read_latencies) for w in windows] or [np.empty(0)]
            ),
            "write_latencies": np.concatenate(
                [np.frombuffer(w.write_latencies) for w in windows] or [np.empty(0)]
            ),
        }
        for column in _INT_COLUMNS:
            state[column] = np.asarray([getattr(w, column) for w in windows], dtype=np.int64)
        return state

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture **in place** (bit-identical).

        The restored accumulators continue exactly where the captured run
        stopped, so a snapshot-resume run produces the same series as an
        uninterrupted one.
        """
        width = float(state["window_us"])
        if width != self.window_us:
            raise ConfigurationError(
                f"snapshot telemetry window is {width} us, recorder uses {self.window_us} us"
            )
        self.reset()
        indices = state["index"].tolist()
        int_columns = {column: state[column].tolist() for column in _INT_COLUMNS}
        busy = state["busy_time_us"].tolist()
        command_counts = state["command_counts"]
        read_counts = state["read_latency_counts"].tolist()
        write_counts = state["write_latency_counts"].tolist()
        read_latencies = state["read_latencies"]
        write_latencies = state["write_latencies"]
        read_offset = 0
        write_offset = 0
        for position, index in enumerate(indices):
            window = self._windows[int(index)] = _Window()
            for column, values in int_columns.items():
                setattr(window, column, int(values[position]))
            window.busy_time_us = busy[position]
            window.command_counts[:] = command_counts[position].tolist()
            read_n = read_counts[position]
            write_n = write_counts[position]
            window.read_latencies.fromlist(
                read_latencies[read_offset : read_offset + read_n].tolist()
            )
            window.write_latencies.fromlist(
                write_latencies[write_offset : write_offset + write_n].tolist()
            )
            read_offset += read_n
            write_offset += write_n
