"""Host request representation and the flat flash-command encoding.

The host talks to the simulated SSD in page-granular requests
(:class:`HostRequest`).  The FTL turns each host request into flash work that
is organized in *stages*: commands inside a stage may execute in parallel on
different chips; stages execute strictly one after another (e.g. the
translation-page read of a double read must finish before the data read can
start).

That staged work has one representation, :class:`CommandBuffer`: one buffer
per FTL, reset per request, holding an interleaved list of command code /
chip / ppn / block slots, per-stage segment offsets into it and an outcome
list.  FTL helpers append integer-coded commands into it and
:meth:`repro.ssd.engine.TimingEngine.execute_buffer` consumes it directly —
no per-command object is ever allocated.

Command identity is a single small integer::

    code = kind.code * NUM_PURPOSES + purpose.code

so the timing engine can look up both the latency (a function of the kind
bits) and the statistics bucket with one list index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nand.timing import TimingModel

__all__ = [
    "OpType",
    "HostRequest",
    "RequestBatch",
    "OP_READ_CODE",
    "OP_WRITE_CODE",
    "CommandKind",
    "CommandPurpose",
    "ReadOutcome",
    "CommandBuffer",
    "OP_STRIDE",
    "command_code",
    "NUM_PURPOSES",
    "NUM_COMMAND_CODES",
    "KIND_BY_CODE",
    "PURPOSE_BY_CODE",
    "OUTCOME_BY_CODE",
]


class OpType(enum.Enum):
    """Host-level operation type."""

    READ = "read"
    WRITE = "write"


@dataclass(slots=True)
class HostRequest:
    """A block-level host request, expressed in logical pages.

    A plain slotted record, built positionally on every hot path: a frozen
    dataclass pays one ``object.__setattr__`` per field at construction,
    several times the cost of the slotted ``__init__``.  Nothing hashes a
    request or mutates one after it is built.

    Attributes
    ----------
    op:
        Read or write.
    lpn:
        First logical page number touched by the request.
    npages:
        Number of consecutive logical pages.
    issue_time_us:
        Optional arrival time from a trace; ``None`` for closed-loop
        generators where the engine decides when the request is issued.
    stream_id:
        Identifier of the generating thread/job, used only for reporting.
    """

    op: OpType
    lpn: int
    npages: int = 1
    issue_time_us: float | None = None
    stream_id: int = 0

    def lpns(self) -> range:
        """Return the range of LPNs covered by this request."""
        return range(self.lpn, self.lpn + self.npages)

    @property
    def bytes(self) -> int:
        """Request size in bytes assuming 4 KiB pages (for reporting only)."""
        return self.npages * 4096


#: Integer op codes used by the columnar request representation.
OP_READ_CODE, OP_WRITE_CODE = 0, 1


class RequestBatch:
    """Columnar batch of host requests (NumPy ``op``/``lpn``/``npages`` columns).

    The batched execution kernel classifies and translates whole request
    arrays at once, so workload generators materialize their streams into
    this structure instead of one :class:`HostRequest` object per request.
    ``ops`` holds :data:`OP_READ_CODE`/:data:`OP_WRITE_CODE` per request and
    ``npages`` at least 1; the constructor refuses any other value with a
    ``ValueError`` naming the first offending index.

    The batch iterates (and indexes) as :class:`HostRequest` values, so every
    scalar consumer — ``SSD.run`` without ``batch=``, tests, reports — accepts
    a batch wherever it accepts a request iterable.
    """

    __slots__ = ("ops", "lpns", "npages")

    def __init__(
        self,
        ops: "np.ndarray | Iterable[int]",
        lpns: "np.ndarray | Iterable[int]",
        npages: "np.ndarray | Iterable[int]",
    ) -> None:
        self.ops = np.ascontiguousarray(ops, dtype=np.int8)
        self.lpns = np.ascontiguousarray(lpns, dtype=np.int64)
        self.npages = np.ascontiguousarray(npages, dtype=np.int64)
        if not (self.ops.shape == self.lpns.shape == self.npages.shape) or self.ops.ndim != 1:
            raise ValueError(
                f"column shapes differ: ops {self.ops.shape}, lpns {self.lpns.shape}, "
                f"npages {self.npages.shape}"
            )
        bad = np.flatnonzero((self.ops != OP_READ_CODE) & (self.ops != OP_WRITE_CODE))
        if bad.size:
            index = int(bad[0])
            raise ValueError(
                f"ops[{index}] is {int(self.ops[index])}; expected "
                f"{OP_READ_CODE} (read) or {OP_WRITE_CODE} (write)"
            )
        bad = np.flatnonzero(self.npages < 1)
        if bad.size:
            index = int(bad[0])
            raise ValueError(f"npages[{index}] is {int(self.npages[index])}; expected >= 1")

    # ------------------------------------------------------------- factories
    @classmethod
    def from_requests(cls, requests: Iterable[HostRequest]) -> "RequestBatch":
        """Pack an iterable of :class:`HostRequest` into columns."""
        materialized = list(requests)
        n = len(materialized)
        read_op = OpType.READ
        ops = np.fromiter(
            (OP_READ_CODE if r.op is read_op else OP_WRITE_CODE for r in materialized),
            dtype=np.int8,
            count=n,
        )
        lpns = np.fromiter((r.lpn for r in materialized), dtype=np.int64, count=n)
        npages = np.fromiter((r.npages for r in materialized), dtype=np.int64, count=n)
        return cls(ops, lpns, npages)

    @classmethod
    def reads(cls, lpns: "np.ndarray | Iterable[int]", npages: int = 1) -> "RequestBatch":
        """Single-page-read batch over an LPN column (the randread hot case)."""
        lpns = np.ascontiguousarray(lpns, dtype=np.int64)
        return cls(
            np.zeros(lpns.shape[0], dtype=np.int8),
            lpns,
            np.full(lpns.shape[0], npages, dtype=np.int64),
        )

    @classmethod
    def writes(cls, lpns: "np.ndarray | Iterable[int]", npages: int = 1) -> "RequestBatch":
        """Single-page-write batch over an LPN column (a random-overwrite storm)."""
        lpns = np.ascontiguousarray(lpns, dtype=np.int64)
        return cls(
            np.full(lpns.shape[0], OP_WRITE_CODE, dtype=np.int8),
            lpns,
            np.full(lpns.shape[0], npages, dtype=np.int64),
        )

    # ----------------------------------------------------------- scalar view
    def __len__(self) -> int:
        return self.ops.shape[0]

    def __getitem__(self, index: int) -> HostRequest:
        return HostRequest(
            OpType.READ if self.ops[index] == OP_READ_CODE else OpType.WRITE,
            int(self.lpns[index]),
            int(self.npages[index]),
        )

    def __iter__(self) -> Iterator[HostRequest]:
        read_op, write_op = OpType.READ, OpType.WRITE
        for op, lpn, npages in zip(
            self.ops.tolist(), self.lpns.tolist(), self.npages.tolist()
        ):
            yield HostRequest(read_op if op == OP_READ_CODE else write_op, lpn, npages)

    def __repr__(self) -> str:
        reads = int(np.count_nonzero(self.ops == OP_READ_CODE))
        return f"RequestBatch(n={len(self)}, reads={reads}, writes={len(self) - reads})"


class CommandKind(enum.Enum):
    """Kind of NAND operation; determines its latency."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"

    # Enum equality is identity, so the C-level identity hash is consistent and
    # far cheaper than hashing the value; commands are counted per kind/purpose
    # millions of times per run.
    __hash__ = object.__hash__


class CommandPurpose(enum.Enum):
    """Why the FTL issued a flash command; drives the statistics breakdown."""

    DATA_READ = "data_read"
    DATA_WRITE = "data_write"
    TRANSLATION_READ = "translation_read"
    TRANSLATION_WRITE = "translation_write"
    OOB_PROBE = "oob_probe"
    GC_READ = "gc_read"
    GC_WRITE = "gc_write"
    GC_ERASE = "gc_erase"

    __hash__ = object.__hash__


class ReadOutcome(enum.Enum):
    """Classification of a single host page read (Figure 6b / 14b)."""

    BUFFER_HIT = "buffer_hit"
    CMT_HIT = "cmt_hit"
    MODEL_HIT = "model_hit"
    DOUBLE_READ = "double_read"
    TRIPLE_READ = "triple_read"

    __hash__ = object.__hash__


# --------------------------------------------------------------------- codes
#: Canonical kind order used by the integer encoding (index == ``kind.code``).
_KINDS: tuple[CommandKind, ...] = (CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE)

#: Number of distinct command purposes (the stride of the kind bits).
NUM_PURPOSES = len(CommandPurpose)

#: Total number of distinct (kind, purpose) command codes.
NUM_COMMAND_CODES = len(_KINDS) * NUM_PURPOSES

# Each enum member carries its integer code as a plain attribute so hot paths
# can encode without a dict lookup.
for _index, _kind in enumerate(_KINDS):
    _kind.code = _index
for _index, _purpose in enumerate(CommandPurpose):
    _purpose.code = _index
for _index, _outcome in enumerate(ReadOutcome):
    _outcome.code = _index

#: Decode tables: command code -> kind / purpose enum member.
KIND_BY_CODE: tuple[CommandKind, ...] = tuple(
    kind for kind in _KINDS for _ in range(NUM_PURPOSES)
)
PURPOSE_BY_CODE: tuple[CommandPurpose, ...] = tuple(CommandPurpose) * len(_KINDS)

#: Decode table: outcome code -> :class:`ReadOutcome` member.
OUTCOME_BY_CODE: tuple[ReadOutcome, ...] = tuple(ReadOutcome)


def command_code(kind: CommandKind, purpose: CommandPurpose) -> int:
    """Encode a (kind, purpose) pair into its flat integer command code."""
    return kind.code * NUM_PURPOSES + purpose.code


def durations_by_code(timing: "TimingModel") -> list[float]:
    """Every command code's flash latency under ``timing`` (its kind decides it)."""
    latency = {kind: timing.latency_of(kind.value) for kind in _KINDS}
    return [latency[kind] for kind in KIND_BY_CODE]


#: Number of slots one command occupies in :attr:`CommandBuffer.ops`.
OP_STRIDE = 4


class CommandBuffer:
    """Reusable flat encoding of one transaction.

    Commands live in a single interleaved list :attr:`ops` with a stride of
    :data:`OP_STRIDE` slots per command — ``code, chip, ppn, block`` (``-1``
    stands for "not applicable") — so emitting a command is one C-level
    ``list.extend`` of a tuple.  The timing engine reads only the ``code`` and
    ``chip`` slots; the tracer reads ``ppn``, and ``block`` names an erase's
    target for debugging.

    A stage is a flat record list ``[compute_us, s0, e0, s1, e1, ...]`` whose
    tail holds ``start, end`` slot ranges (segments) into ``ops``.  A stage
    usually owns a single contiguous segment, but interleaved emission (GC
    reads and writes built in one pass, the head translation stage of a read
    assembled while eviction flushes commit) produces several.

    Stage records are *floating* until committed: creating one is just ``[0.0]``
    (:meth:`new_stage`), commands are appended to it in any order relative to
    other stages, and :meth:`commit_stage` fixes its position in the execution
    order (appended, or at the front for the translation stage of a read).
    Within a stage the command order never affects timing — commands on
    distinct chips are independent and same-chip commands serialize to the
    same finish time — so segment interleaving is purely an encoding concern.
    """

    __slots__ = ("ops", "outcome_codes", "stages")

    def __init__(self) -> None:
        #: Interleaved command slots: ``code, chip, ppn, block`` per command.
        self.ops: list[int] = []
        self.outcome_codes: list[int] = []
        #: Committed stage records in execution order.
        self.stages: list[list] = []

    # -------------------------------------------------------------- lifecycle
    def reset(self) -> "CommandBuffer":
        """Empty the buffer, keeping its storage."""
        self.ops.clear()
        self.outcome_codes.clear()
        self.stages.clear()
        return self

    # ----------------------------------------------------------------- stages
    @staticmethod
    def new_stage() -> list:
        """Create a floating stage record.

        The record does not participate in execution until
        :meth:`commit_stage` places it; several floating stages may be filled
        concurrently.  Hot paths build the record literal ``[0.0]`` inline —
        this constructor exists for readability elsewhere.
        """
        return [0.0]

    def append(self, stage: list, code: int, chip: int, ppn: int = -1, block: int = -1) -> None:
        """Append one integer-coded command to ``ops`` and to ``stage``.

        Hot paths inline this body (one ``ops.extend`` plus the segment
        update); the method form serves the colder GC/flush paths.
        """
        ops = self.ops
        index = len(ops)
        ops.extend((code, chip, ppn, block))
        if len(stage) > 1 and stage[-1] == index:
            stage[-1] = index + OP_STRIDE
        else:
            stage.append(index)
            stage.append(index + OP_STRIDE)

    def extend(self, stage: list, code: int, chips: "np.ndarray", ppns: "np.ndarray") -> None:
        """Columnar :meth:`append`: one ``code`` command per ``(chip, ppn)`` pair.

        Same ``ops`` slots and the same stage segments as appending the
        commands one by one in column order.
        """
        count = len(ppns)
        if count == 0:
            return
        slots = np.empty((count, OP_STRIDE), dtype=np.int64)
        slots[:, 0] = code
        slots[:, 1] = chips
        slots[:, 2] = ppns
        slots[:, 3] = -1
        ops = self.ops
        index = len(ops)
        ops.extend(slots.ravel().tolist())
        if len(stage) > 1 and stage[-1] == index:
            stage[-1] = index + count * OP_STRIDE
        else:
            stage.append(index)
            stage.append(index + count * OP_STRIDE)

    def commit_stage(self, stage: list, compute_us: float = 0.0, *, front: bool = False) -> bool:
        """Fix a floating stage's position in the execution order.

        Stages with neither commands nor compute time are dropped (they would
        cost nothing and only lengthen the engine's stage loop).
        ``front=True`` reproduces the ``stages.insert(0, ...)`` of the read
        path, where the translation stage must precede eviction flushes
        emitted while it was still open.
        """
        if len(stage) == 1 and compute_us <= 0.0:
            return False
        stage[0] = compute_us
        if front:
            self.stages.insert(0, stage)
        else:
            self.stages.append(stage)
        return True

    # --------------------------------------------------------------- outcomes
    def add_outcome(self, code: int) -> None:
        """Record the integer-coded classification of one host page read."""
        self.outcome_codes.append(code)

    # -------------------------------------------------------------- reporting
    @property
    def command_count(self) -> int:
        """Total commands encoded for the current request."""
        return len(self.ops) // OP_STRIDE
