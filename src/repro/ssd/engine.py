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

The read planner's takes run through :meth:`TimingEngine.execute_read_batch`,
a specialization of the buffer loop for the shape a read of any length
encodes: an optional head stage (compute charge plus translation reads),
then one stage of data reads.  It returns per-request ``(issues,
latencies)`` columns, which is everything the device's observers consume
afterwards — the engine has no observed variants and never sees a recorder
or a tracer.

The host's issue rule is the device loop's, and the kernel applies either:
the closed-loop ("psync") thread model, where each of the N threads issues
its next request as soon as its previous one completes, exactly like
``fio --ioengine=psync --numjobs=N``; or open-loop (timestamped trace)
replay, where a request is issued at ``max(arrival, stream free)``.
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
        host_free: list,
        *,
        trans_count: int = 0,
        computes: list | None = None,
        npages: list | None = None,
        arrivals: list | None = None,
        slots: list | None = None,
    ) -> tuple[list, list]:
        """Execute a planner's batch of reads; returns their ``(issues,
        latencies)`` columns in request order.

        The host's issue rule is the device loop's:

        * **closed loop** (``arrivals`` is ``None``): ``host_free`` is the
          thread heap as **bare floats** (psync threads are
          indistinguishable, so the free-time multiset is the whole host
          state).  Request ``i`` issues at ``host_free[0]`` (the
          earliest-free thread), which is re-queued at its finish;
        * **open loop**: ``host_free`` is the per-stream free-time list.
          Request ``i`` issues at ``max(arrivals[i], host_free[slots[i]])``
          and sets ``host_free[slots[i]]`` to its finish.

        ``data_chips`` and ``trans_chips`` are page columns: request ``i``
        covers the next ``npages[i]`` pages (one each when ``npages`` is
        ``None``).  It pays its controller compute charge (``computes[i]``,
        when the planner supplies a compute column), then, in one head stage,
        one translation read on ``trans_chips[p]`` for each of its pages
        ``p`` where that is ``>= 0``, then one data stage of its data reads
        on ``data_chips[p]``.  The issue-time column is returned for the
        device's observers (windowed recorder, tracer), which consume it
        after the call — the kernel itself knows nothing of them.

        The arithmetic is a specialization of :meth:`execute_buffer` for the
        ``[compute (+ translation reads)] -> [data reads]`` shape
        ``_encode_read`` emits, and is bit-identical to it: commands run in
        the buffer's order (head stage, then data stage, page order in
        each), a stage finishes at its latest command or at its dispatch, a
        head stage carrying only compute time finishes at ``issue +
        compute``, and a zero compute charge adds exactly ``0.0``, which is
        bitwise-neutral for the non-negative timestamps the clock produces.
        ``busy_time`` is accumulated per command (never as ``count *
        duration``) to keep float association identical.

        Closed-loop batches of single-page reads, the random-read hot case,
        take two loops of their own, which compute the same floats as the
        general loop.  They are kept because they are faster: routing every
        batch through the general loop cost the ledger's
        ``randread_batched`` 11 % of its ``host_ops_per_s`` (median of 10
        alternating pairs at seed 7, 469.2 k -> 415.6 k, 0 of 10 pairs
        won; 2-core x86-64 VM, CPython 3.11), and a 4 096-read batch
        0.24 -> 0.48 us per read without translation reads, 0.37 -> 0.74
        us with them.
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
        trans_duration = self._duration_by_code[_CODE_TRANSLATION_READ]
        if npages is not None or arrivals is not None:
            page = 0
            for i in range(len(npages) if npages is not None else n):
                if arrivals is None:
                    issue = host_free[0]
                else:
                    slot = slots[i]
                    issue = host_free[slot]
                    arrival = arrivals[i]
                    if not issue > arrival:
                        issue = arrival
                append_issue(issue)
                last = page + (1 if npages is None else npages[i])
                cursor = issue if computes is None else issue + computes[i]
                if trans_chips is not None:
                    stage_finish = cursor
                    for p in range(page, last):
                        trans_chip = trans_chips[p]
                        if trans_chip >= 0:
                            busy = busy_until[trans_chip]
                            finish = (busy if busy > cursor else cursor) + trans_duration
                            busy_until[trans_chip] = finish
                            busy_time[trans_chip] += trans_duration
                            if finish > stage_finish:
                                stage_finish = finish
                    cursor = stage_finish
                stage_finish = cursor
                for p in range(page, last):
                    chip = data_chips[p]
                    busy = busy_until[chip]
                    finish = (busy if busy > cursor else cursor) + data_duration
                    busy_until[chip] = finish
                    busy_time[chip] += data_duration
                    if finish > stage_finish:
                        stage_finish = finish
                page = last
                if arrivals is None:
                    heapreplace(host_free, stage_finish)
                else:
                    host_free[slot] = stage_finish
                append_latency(stage_finish - issue)
        elif trans_chips is None and computes is None:
            for chip in data_chips:
                issue = host_free[0]
                append_issue(issue)
                busy = busy_until[chip]
                start = busy if busy > issue else issue
                finish = start + data_duration
                busy_until[chip] = finish
                busy_time[chip] += data_duration
                heapreplace(host_free, finish)
                append_latency(finish - issue)
        else:
            for i in range(n):
                issue = host_free[0]
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
                heapreplace(host_free, finish)
                append_latency(finish - issue)
        return issues, latencies
