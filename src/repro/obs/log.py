"""The device's observation log: what each request step produced, a block at a time.

Observation is a consumer of the device's request loop, not a twin of it.
While a windowed recorder or an event tracer is attached, the device keeps
one :class:`ObservationLog` and, after each request step, makes **one**
append of what the step produced:

* one row of :data:`ROW_WIDTH` slots — issue time, latency, the page count
  signed by direction (reads positive, writes negative), the number of
  command slots and the number of outcome codes;
* the request's command slots (``CommandBuffer.ops``: ``code, chip, ppn,
  block`` per command, in execution order);
* its read-outcome codes (``CommandBuffer.outcome_codes``).

The closed loop's read kernel appends each call's ``(issues, latencies,
trans_chips, trans_ppns)`` columns to the same log, as the rows, commands and
outcomes those reads stand for: an optional translation read on chip
``trans_chips[i]`` (its page is the next entry of ``trans_ppns``), then one
data read; the outcome is a hit-class code exactly when no translation read
was needed.  One log
therefore holds every request in the order the device served it, and a
consumer sees the same translation reads whichever path served them.

All three columns are flat Python lists that grow by C-level ``extend``
calls.  Every :data:`BLOCK_REQUESTS` requests — or sooner, once
:data:`BLOCK_OP_SLOTS` command slots are pending (a garbage-collecting write
carries hundreds of commands) — :meth:`ObservationLog.flush` turns the lists
into one :class:`Block` of NumPy columns and hands it to the consumers: the
:class:`~repro.obs.windows.WindowedRecorder` folds it into its window
accumulators and the :class:`~repro.obs.trace.TraceRecorder` turns its
translation reads into trace rows.  The log starts fresh lists, so memory
stays bounded by one block.

Consumers flush their log before anything reads them (series, totals,
snapshots, exports, ``len``) and before ``reset``/``load_state`` drop their
contents; the device flushes it before ``reset_stats``, ``load_state`` and
``enable_observability`` rewire anything.  The tracer's own events are
ordered against the pending block without a flush (see
:mod:`repro.obs.trace`).

``BLOCK_REQUESTS = 4096`` was chosen on the ``hotspot_observed`` ledger
workload (192 000 requests per round, 95 % reads).  Replaying its logged
requests through both consumers costs 0.78 µs per request in blocks of 256,
0.56 µs in blocks of 1 024 or 4 096 and 0.50 µs in blocks of 16 384 (2-vCPU
Xeon VM): smaller blocks pay the fixed NumPy cost of a flush more often,
larger ones mostly grow the pending lists.
"""

from __future__ import annotations

import numpy as np

from repro.ssd.request import (
    OP_STRIDE,
    CommandKind,
    CommandPurpose,
    ReadOutcome,
    command_code,
)

__all__ = [
    "ObservationLog",
    "Block",
    "BLOCK_REQUESTS",
    "BLOCK_ROW_SLOTS",
    "BLOCK_OP_SLOTS",
    "ROW_WIDTH",
]

#: Requests per block: the log flushes into its consumers every this many.
BLOCK_REQUESTS = 4096

#: Slots per request row: issue, latency, signed pages, command slots, outcomes.
ROW_WIDTH = 5

#: Length of the row list at which the log flushes (:data:`BLOCK_REQUESTS` rows).
BLOCK_ROW_SLOTS = BLOCK_REQUESTS * ROW_WIDTH

#: Pending command slots that force an early flush (bounds a block of
#: garbage-collecting writes, whose command lists run to hundreds of slots).
BLOCK_OP_SLOTS = 1 << 18

_CODE_DATA_READ = command_code(CommandKind.READ, CommandPurpose.DATA_READ)
_CODE_TRANSLATION_READ = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)
_HIT_CODE = ReadOutcome.CMT_HIT.code
_MISS_CODE = ReadOutcome.DOUBLE_READ.code


class Block:
    """One flushed block of the log as NumPy columns (request order throughout).

    ``issue``, ``latency`` and ``pages`` (signed: reads positive) have one
    entry per request; ``codes`` holds every command's code and ``outcomes``
    every outcome code, and ``op_request`` / ``outcome_request`` name the
    request each belongs to (non-decreasing).  ``ops`` is the log's raw
    command-slot list (``code, chip, ppn, block`` per command), for the few
    slots only some commands need.
    """

    __slots__ = (
        "count",
        "issue",
        "latency",
        "pages",
        "ops",
        "codes",
        "op_request",
        "outcomes",
        "outcome_request",
    )

    def __init__(self, rows: list, ops: list, outcomes: list) -> None:
        table = np.fromiter(rows, np.float64, len(rows)).reshape(-1, ROW_WIDTH)
        self.count = table.shape[0]
        self.issue = table[:, 0]
        self.latency = table[:, 1]
        self.pages = table[:, 2].astype(np.int64)
        requests = np.arange(self.count)
        self.ops = ops
        self.codes = np.fromiter(ops[0::OP_STRIDE], np.int64, len(ops) // OP_STRIDE)
        self.op_request = np.repeat(requests, table[:, 3].astype(np.int64) // OP_STRIDE)
        self.outcomes = np.fromiter(outcomes, np.int64, len(outcomes))
        self.outcome_request = np.repeat(requests, table[:, 4].astype(np.int64))


class ObservationLog:
    """The bounded per-request log the device's request step appends to.

    ``recorder`` and ``tracer`` are the consumers (either may be ``None``);
    building the log attaches both to it.  The device appends inline (see
    ``SSD._step``) and calls :meth:`flush` once ``rows`` holds
    :data:`BLOCK_REQUESTS` requests or ``ops`` :data:`BLOCK_OP_SLOTS` slots.
    """

    __slots__ = ("rows", "ops", "outcomes", "recorder", "tracer")

    def __init__(self, recorder=None, tracer=None) -> None:
        self.rows: list = []
        self.ops: list[int] = []
        self.outcomes: list[int] = []
        self.recorder = recorder
        self.tracer = tracer
        if recorder is not None:
            recorder.attach(self)
        if tracer is not None:
            tracer.attach(self)

    def pending(self) -> int:
        """Requests appended since the last flush."""
        return len(self.rows) // ROW_WIDTH

    def append_reads(
        self, issues: list, latencies: list, trans_chips: "list | None", trans_ppns: list
    ) -> None:
        """Append one batched-kernel call of single-page reads (request order).

        Read ``i`` is logged as the commands the kernel charged for it — a
        translation read on ``trans_chips[i]`` when that is ``>= 0`` (slot
        order as the step encodes a double read; ``trans_ppns`` holds those
        reads' pages in order), then the data read — and one hit- or
        miss-class outcome code.  The data read is logged by its code alone
        (its other slots hold ``-1``): no consumer reads them.
        """
        count = len(issues)
        if not count:
            return
        if trans_chips is None:
            trans = np.full(count, -1, dtype=np.int64)
        else:
            trans = np.asarray(trans_chips, dtype=np.int64)
        miss = trans >= 0
        rows = np.empty((count, ROW_WIDTH), dtype=np.float64)
        rows[:, 0] = issues
        rows[:, 1] = latencies
        rows[:, 2] = 1.0
        rows[:, 3] = np.where(miss, 2 * OP_STRIDE, OP_STRIDE)
        rows[:, 4] = 1.0
        commands = np.full((count, 2, OP_STRIDE), -1, dtype=np.int64)
        commands[:, 0, 0] = _CODE_TRANSLATION_READ
        commands[:, 0, 1] = trans
        commands[miss, 0, 2] = trans_ppns
        commands[:, 1, 0] = _CODE_DATA_READ
        keep = np.ones((count, 2), dtype=bool)
        keep[:, 0] = miss
        self.rows += rows.ravel().tolist()
        self.ops += commands[keep].ravel().tolist()
        self.outcomes += np.where(miss, _MISS_CODE, _HIT_CODE).tolist()
        if len(self.rows) >= BLOCK_ROW_SLOTS or len(self.ops) >= BLOCK_OP_SLOTS:
            self.flush()

    def flush(self) -> None:
        """Hand the pending requests to the consumers as one :class:`Block`."""
        if not self.rows:
            return
        block = Block(self.rows, self.ops, self.outcomes)
        self.rows = []
        self.ops = []
        self.outcomes = []
        if self.recorder is not None:
            self.recorder.consume(block)
        if self.tracer is not None:
            self.tracer.consume(block)
