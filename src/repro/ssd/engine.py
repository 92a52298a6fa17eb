"""Discrete-event timing engine.

The engine owns one busy-until timestamp per flash chip (the parallel unit
granularity used by the paper's FEMU configuration) and executes the staged
flash work produced by the FTLs:

* commands inside one stage may overlap on *different* chips;
* commands targeting the same chip serialize on that chip's timeline;
* stage ``i + 1`` starts only after every command of stage ``i`` has finished
  (this is what makes a double read cost two serialized NAND reads);
* per-stage ``compute_us`` models controller CPU time and delays only the
  issuing request, never the chips.

:meth:`TimingEngine.execute_buffer` is the one statement of that arithmetic.
It consumes the flat :class:`~repro.ssd.request.CommandBuffer` encoding
directly: per command it reads one integer code and one chip index, looks the
latency up in a code-indexed table and buckets the statistics with a single
list increment — no command objects, no enum dispatch.

The batched device loop's read-planner takes run through
:meth:`TimingEngine.execute_read_batch`, a specialization of the buffer loop
for the one-command-per-stage shapes read planners emit.  It returns
per-request ``(issues, latencies)`` columns, which is everything the device's
observers consume afterwards — the engine has no observed variants and never
sees a recorder or a tracer.

The host side is a closed-loop ("psync") thread model: each of the N threads
issues its next request as soon as its previous one completes, exactly like
``fio --ioengine=psync --numjobs=N``.  Open-loop (timestamped trace) replay is
also supported: a request is issued at ``max(arrival, thread free)``.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.nand.timing import TimingModel
from repro.ssd.request import (
    CommandBuffer,
    CommandKind,
    CommandPurpose,
    command_code,
    durations_by_code,
)
from repro.ssd.stats import SimulationStats

__all__ = ["ChipTimeline", "TimingEngine"]

_CODE_DATA_READ = command_code(CommandKind.READ, CommandPurpose.DATA_READ)
_CODE_TRANSLATION_READ = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)


class ChipTimeline:
    """Busy-until bookkeeping for every chip in the device."""

    def __init__(self, num_chips: int) -> None:
        if num_chips <= 0:
            raise ValueError("num_chips must be positive")
        self._busy_until = [0.0] * num_chips
        self.busy_time = [0.0] * num_chips

    @property
    def num_chips(self) -> int:
        """Number of chips tracked."""
        return len(self._busy_until)

    def occupy(self, chip: int, earliest_start: float, duration: float) -> tuple[float, float]:
        """Schedule an operation on a chip; returns ``(start, finish)``."""
        start = max(earliest_start, self._busy_until[chip])
        finish = start + duration
        self._busy_until[chip] = finish
        self.busy_time[chip] += duration
        return start, finish

    def horizon(self) -> float:
        """Latest busy-until over all chips."""
        return max(self._busy_until)

    def utilization(self, elapsed_us: float) -> float:
        """Average fraction of time chips were busy over ``elapsed_us``."""
        if elapsed_us <= 0.0:
            return 0.0
        return sum(self.busy_time) / (elapsed_us * self.num_chips)

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict:
        """Capture the per-chip busy-until horizon and accumulated busy time."""
        return {
            "busy_until": np.asarray(self._busy_until, dtype=np.float64),
            "busy_time": np.asarray(self.busy_time, dtype=np.float64),
        }

    def load_state(self, state: dict) -> None:
        """Restore the timelines **in place** (``busy_time`` is aliased by the stats)."""
        busy_until = state["busy_until"].tolist()
        if len(busy_until) != len(self._busy_until):
            raise ValueError(
                f"snapshot has {len(busy_until)} chip timelines, engine has "
                f"{len(self._busy_until)}"
            )
        self._busy_until[:] = busy_until
        self.busy_time[:] = state["busy_time"].tolist()


class TimingEngine:
    """Execute encoded transactions against the chip timelines and record statistics."""

    def __init__(self, num_chips: int, timing: TimingModel, stats: SimulationStats) -> None:
        self.timeline = ChipTimeline(num_chips)
        self.timing = timing
        self.stats = stats
        # Per-code latency table: the latency depends only on the kind bits of
        # the flat command code, so one list index resolves it.
        self._duration_by_code = durations_by_code(timing)
        # The stats object is bound for the engine's lifetime (resetting stats
        # builds a fresh engine), so its flat count arrays can be cached and
        # incremented inline in the buffer loop.
        self._command_counts = stats.command_counts
        self._outcome_counts = stats.outcome_counts
        # Expose chip occupancy through the stats object (utilization metric):
        # busy_time is aliased, not copied, so the view is always current.
        stats.num_chips = num_chips
        stats.chip_busy_time_us = self.timeline.busy_time

    def execute_buffer(self, buffer: CommandBuffer, issue_time_us: float) -> float:
        """Run every stage of an encoded transaction starting no earlier than
        ``issue_time_us``; returns the transaction's finish time.

        Stages execute strictly in order; commands inside a stage overlap
        across chips and serialize per chip.  This loop runs for every flash
        command of the simulation, so all per-command state lives in locals
        and every command costs two list indexings (code and chip), one
        latency lookup and one statistics increment.  It returns a bare float:
        callers only need the completion time, and per-request result objects
        were a measurable share of the simulation loop.
        """
        cursor = issue_time_us
        ops = buffer.ops
        durations = self._duration_by_code
        counts = self._command_counts
        busy_until = self.timeline._busy_until
        busy_time = self.timeline.busy_time
        for record in buffer.stages:
            dispatch = cursor + record[0]
            stage_finish = dispatch
            record_len = len(record)
            k = 1
            while k < record_len:
                start_slot = record[k]
                end_slot = record[k + 1]
                k += 2
                if end_slot - start_slot == 4:
                    # Single-command segment: the overwhelmingly common case
                    # (one translation read, one data read, one program).
                    code = ops[start_slot]
                    duration = durations[code]
                    counts[code] += 1
                    chip = ops[start_slot + 1]
                    start = busy_until[chip]
                    if start < dispatch:
                        start = dispatch
                    finish = start + duration
                    busy_until[chip] = finish
                    busy_time[chip] += duration
                    if finish > stage_finish:
                        stage_finish = finish
                    continue
                for i in range(start_slot, end_slot, 4):
                    code = ops[i]
                    duration = durations[code]
                    counts[code] += 1
                    chip = ops[i + 1]
                    start = busy_until[chip]
                    if start < dispatch:
                        start = dispatch
                    finish = start + duration
                    busy_until[chip] = finish
                    busy_time[chip] += duration
                    if finish > stage_finish:
                        stage_finish = finish
            cursor = stage_finish
        outcome_codes = buffer.outcome_codes
        if outcome_codes:
            outcome_counts = self._outcome_counts
            for code in outcome_codes:
                outcome_counts[code] += 1
        return cursor if cursor > issue_time_us else issue_time_us

    def execute_read_batch(
        self,
        data_chips: list,
        trans_chips: list | None,
        thread_free: list,
        *,
        trans_count: int = 0,
        computes: list | None = None,
    ) -> tuple[list, list]:
        """Execute a planner's batch of single-page reads; returns their
        ``(issues, latencies)`` columns in request order.

        ``thread_free`` is the closed-loop thread heap as **bare floats**
        (psync threads are indistinguishable, so the free-time multiset is the
        whole host state).  Request ``i`` issues at ``thread_free[0]`` (the earliest-free
        thread), pays its controller compute charge (``computes[i]``, when the
        planner supplies a compute column), then one translation read on
        ``trans_chips[i]`` when that is ``>= 0``, then one data read on
        ``data_chips[i]``, and the thread is re-queued at the data read's
        finish.  The issue-time column is returned for the device's observers
        (windowed recorder, tracer), which consume it after the call — the
        kernel itself knows nothing of them.

        The arithmetic is a specialization of :meth:`execute_buffer` for the
        three shapes planners emit — ``[data]``, ``[trans] -> [data]`` and
        ``[compute (+ trans)] -> [data]`` — and is bit-identical to it: each
        stage holds at most one command, so the stage finish IS the command
        finish; a head stage carrying only compute time finishes at its
        dispatch (``issue + compute``); and a zero compute charge adds exactly
        ``0.0``, which is bitwise-neutral for the non-negative timestamps the
        clock produces.  ``busy_time`` is accumulated per command (never as
        ``count * duration``) to keep float association identical.
        """
        n = len(data_chips)
        counts = self._command_counts
        counts[_CODE_DATA_READ] += n
        if trans_count:
            counts[_CODE_TRANSLATION_READ] += trans_count
        data_duration = self._duration_by_code[_CODE_DATA_READ]
        busy_until = self.timeline._busy_until
        busy_time = self.timeline.busy_time
        issues: list = []
        latencies: list = []
        append_issue = issues.append
        append_latency = latencies.append
        heapreplace = heapq.heapreplace
        if trans_chips is None and computes is None:
            for chip in data_chips:
                issue = thread_free[0]
                append_issue(issue)
                busy = busy_until[chip]
                start = busy if busy > issue else issue
                finish = start + data_duration
                busy_until[chip] = finish
                busy_time[chip] += data_duration
                heapreplace(thread_free, finish)
                append_latency(finish - issue)
        else:
            trans_duration = self._duration_by_code[_CODE_TRANSLATION_READ]
            for i in range(n):
                issue = thread_free[0]
                append_issue(issue)
                cursor = issue if computes is None else issue + computes[i]
                trans_chip = -1 if trans_chips is None else trans_chips[i]
                if trans_chip >= 0:
                    busy = busy_until[trans_chip]
                    cursor = (busy if busy > cursor else cursor) + trans_duration
                    busy_until[trans_chip] = cursor
                    busy_time[trans_chip] += trans_duration
                chip = data_chips[i]
                busy = busy_until[chip]
                start = busy if busy > cursor else cursor
                finish = start + data_duration
                busy_until[chip] = finish
                busy_time[chip] += data_duration
                heapreplace(thread_free, finish)
                append_latency(finish - issue)
        return issues, latencies
