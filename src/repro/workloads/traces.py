"""Block-trace ingestion and synthetic stand-ins for the paper's four traces.

The paper replays three UMass WebSearch traces (SPC format) and one Systor '17
enterprise VDI trace (CSV format).  Those files cannot be shipped here, so this
module provides both:

* **one streaming reader** for the two on-disk formats
  (:class:`RecordStream`, with the per-line parsers in :data:`TRACE_FORMATS`),
  so the real traces can be dropped in if available; and
* **synthetic generators** whose request streams match the characteristics the
  paper reports in Table II (I/O count, mean request size, read ratio) plus a
  strong hot-range locality, which is the property the tail-latency and energy
  experiments depend on.

Ingest works a block at a time: :meth:`RecordStream.read_block` parses a block
of lines into record rows — plain ``(timestamp_s, offset_bytes, size_bytes,
is_read, stream_id)`` tuples, byte-addressed — and one NumPy splitter turns a
block of rows into page-granular :class:`~repro.ssd.request.HostRequest`
objects against a concrete device geometry (scaling LBAs into the logical
space, as the paper does when it "scales up" the old WebSearch traces to
modern SSD sizes).  :class:`TraceRecord` objects are built only for callers
that iterate records (:func:`iter_trace_records`, iterating a stream, the
synthetic generators).
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from itertools import islice, repeat, starmap
from math import isfinite
from operator import attrgetter
from pathlib import Path
from typing import Annotated, BinaryIO, Callable, Iterable, Iterator

import numpy as np

from repro.nand.errors import TraceFormatError
from repro.nand.fields import Count, PositiveFloat, PositiveInt, check_value, one_of
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import HostRequest, OpType
from repro.workloads.zipf import HotspotGenerator

__all__ = [
    "TraceRecord",
    "TraceCharacteristics",
    "TraceCursor",
    "RecordStream",
    "TRACE_FORMATS",
    "trace_format_for",
    "open_trace",
    "iter_trace_records",
    "synthesize_websearch",
    "synthesize_systor",
    "trace_to_requests",
    "preset_requests",
    "characterize",
    "TRACE_PRESETS",
]


@dataclass(frozen=True)
class TraceRecord:
    """One block-level trace record (byte-addressed)."""

    timestamp_s: float
    offset_bytes: int
    size_bytes: int
    is_read: bool
    stream_id: int = 0


@dataclass(frozen=True)
class TraceCharacteristics:
    """Aggregate statistics of a trace (the columns of Table II)."""

    name: str
    num_ios: int
    average_io_kb: float
    read_ratio: float

    def as_row(self) -> dict[str, float | str | int]:
        """Row representation used by the Table II harness."""
        return {
            "trace": self.name,
            "num_ios": self.num_ios,
            "avg_io_kb": round(self.average_io_kb, 2),
            "read_ratio": round(self.read_ratio, 4),
        }


# --------------------------------------------------------------------- parsing
#: Longest slice of an offending line quoted in a :class:`TraceFormatError`.
_ERROR_LINE_LIMIT = 120


def _offending(line: str) -> str:
    """The offending line text, truncated, as quoted in parse errors."""
    if len(line) > _ERROR_LINE_LIMIT:
        return repr(line[:_ERROR_LINE_LIMIT]) + "..."
    return repr(line)


#: Op codes that name a read (``True``) or a write (``False``): the first
#: letter of an SPC op code, a whole Systor I/O type (both case-insensitive).
_SPC_OPS = {"r": True, "w": False}
_SYSTOR_OPS = {"R": True, "READ": True, "W": False, "WRITE": False}


def _parse_spc_line(line: str, path: "str | Path", line_no: int) -> tuple | None:
    """Parse one SPC line (``ASU,LBA,size,opcode,timestamp``); ``None`` skips it.

    The LBA unit is a 512-byte sector (the UMass WebSearch convention).
    """
    if not line or line.startswith("#"):
        return None
    parts = line.split(",")
    if len(parts) < 5:
        raise TraceFormatError(
            f"{path}:{line_no}: expected 5 SPC fields, got {len(parts)}: {_offending(line)}"
        )
    try:
        asu = int(parts[0])
        lba = int(parts[1])
        size = int(parts[2])
        timestamp = float(parts[4])
    except ValueError as exc:
        raise TraceFormatError(
            f"{path}:{line_no}: malformed SPC record: {_offending(line)}"
        ) from exc
    if not isfinite(timestamp) or lba < 0 or size < 0:
        raise TraceFormatError(
            f"{path}:{line_no}: SPC record out of range (timestamp must be finite, "
            f"LBA and size non-negative): {_offending(line)}"
        )
    is_read = _SPC_OPS.get(parts[3].strip()[:1].lower())
    if is_read is None:
        raise TraceFormatError(
            f"{path}:{line_no}: SPC op code must start with r (read) or w (write): "
            f"{_offending(line)}"
        )
    return timestamp, lba * 512, size, is_read, asu


def _parse_systor_line(line: str, path: "str | Path", line_no: int) -> tuple | None:
    """Parse one Systor '17 CSV line (``timestamp,response,iotype,lun,offset,size``)."""
    # A header starts with "timestamp" in any case; testing the first letter
    # first keeps the lowering off every data line.
    if not line or line[0] in "Tt" and line.lower().startswith("timestamp"):
        return None
    parts = line.split(",")
    if len(parts) < 6:
        raise TraceFormatError(
            f"{path}:{line_no}: expected 6 Systor fields, got {len(parts)}: {_offending(line)}"
        )
    try:
        timestamp = float(parts[0])
        lun = int(parts[3]) if parts[3].strip() else 0
        offset = int(parts[4])
        size = int(parts[5])
    except ValueError as exc:
        raise TraceFormatError(
            f"{path}:{line_no}: malformed Systor record: {_offending(line)}"
        ) from exc
    if not isfinite(timestamp) or offset < 0 or size < 0:
        raise TraceFormatError(
            f"{path}:{line_no}: Systor record out of range (timestamp must be finite, "
            f"offset and size non-negative): {_offending(line)}"
        )
    is_read = _SYSTOR_OPS.get(parts[2])
    if is_read is None:
        is_read = _SYSTOR_OPS.get(parts[2].strip().upper())
    if is_read is None:
        raise TraceFormatError(
            f"{path}:{line_no}: Systor I/O type must be R, READ, W or WRITE: "
            f"{_offending(line)}"
        )
    return timestamp, offset, size, is_read, lun


#: Per-line parsers by format name.  A parser takes ``(line, path, line_no)``
#: and returns a record row — ``(timestamp_s, offset_bytes, size_bytes,
#: is_read, stream_id)``, the field order of :class:`TraceRecord` — or
#: ``None`` for skippable lines (blanks, comments, headers); malformed lines
#: (including an op code that is neither a read nor a write) raise
#: :class:`TraceFormatError` naming ``path:line_no`` and quoting the offending
#: text (truncated).
TRACE_FORMATS: dict[str, Callable[[str, "str | Path", int], tuple | None]] = {
    "spc": _parse_spc_line,
    "systor": _parse_systor_line,
}


def trace_format_for(path: str | Path) -> str:
    """Guess the trace format from a file name (``.spc`` vs ``.csv``, ``.gz``-aware)."""
    name = Path(path).name.lower()
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    if name.endswith(".spc"):
        return "spc"
    if name.endswith(".csv"):
        return "systor"
    raise TraceFormatError(
        f"cannot infer the trace format of {path!r} (expected a .spc or .csv "
        f"suffix, optionally .gz-compressed); pass the format explicitly"
    )


def open_trace(path: str | Path) -> BinaryIO:
    """Open a trace file for binary streaming, transparently decompressing ``.gz``.

    The returned handle reads *uncompressed* bytes either way, so byte offsets
    (``TraceCursor.byte_offset``) always count uncompressed trace text and a
    cursor taken on a compressed file stays valid.  Seeking forward in a
    ``.gz`` file decompresses through the skipped span — still a single pass,
    never a full re-parse.
    """
    path = Path(path)
    if path.name.lower().endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


@dataclass(frozen=True)
class TraceCursor:
    """Resumable position inside a trace file.

    ``byte_offset`` counts *uncompressed* bytes consumed (the position of the
    next unread line), ``line_no`` the lines consumed, ``record_index`` the
    records yielded and ``skipped_lines`` the malformed lines tolerated so far
    (``max_errors`` mode).  A cursor captured from one :class:`RecordStream`
    and handed to a new one resumes the record sequence exactly.
    """

    byte_offset: int = 0
    line_no: int = 0
    record_index: int = 0
    skipped_lines: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-serializable form (stored inside replay checkpoints)."""
        return {
            "byte_offset": self.byte_offset,
            "line_no": self.line_no,
            "record_index": self.record_index,
            "skipped_lines": self.skipped_lines,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceCursor":
        """Inverse of :meth:`as_dict`."""
        return cls(
            byte_offset=int(payload["byte_offset"]),
            line_no=int(payload["line_no"]),
            record_index=int(payload["record_index"]),
            skipped_lines=int(payload["skipped_lines"]),
        )


def _decoded(lines: list[bytes]) -> list[str]:
    """Each raw line as stripped text, decoded in one call for the whole list.

    Invalid UTF-8 becomes U+FFFD as it would line by line: a newline byte
    never belongs to a multi-byte sequence, so the split lines up.
    """
    texts = b"".join(lines).decode("utf-8", "replace").split("\n")
    if len(texts) > len(lines):
        texts.pop()  # the empty text after the last line's newline
    return list(map(str.strip, texts))


class RecordStream:
    """Streaming trace reader with a resumable cursor.

    :meth:`read_block` consumes lines through the next ``n`` records and
    returns them as field rows; iterating the stream yields one
    :class:`TraceRecord` at a time.  Neither ever materializes the trace, and
    a block that returns all the rows asked for stops on its last row's line,
    so :attr:`cursor` is exact after every call; :meth:`rewind` moves it back
    to just after any earlier row of the block.  ``limit`` counts records
    from the *start of the file* (cursor included), so a resumed stream stops
    where an uninterrupted one would; with ``max_errors > 0`` up to that many
    malformed lines are counted and skipped instead of aborting the stream —
    the first line beyond the budget raises.
    """

    def __init__(
        self,
        path: str | Path,
        format: str,
        *,
        limit: int | None = None,
        max_errors: int = 0,
        cursor: TraceCursor | None = None,
    ) -> None:
        try:
            self._parse_line = TRACE_FORMATS[format]
        except KeyError:
            raise TraceFormatError(
                f"unknown trace format {format!r}; choose one of {sorted(TRACE_FORMATS)}"
            ) from None
        check_value("max_errors", max_errors, Count, TraceFormatError)
        check_value("limit", limit, Count | None, TraceFormatError)
        self.path = Path(path)
        self.format = format
        self.limit = limit
        self.max_errors = max_errors
        cursor = cursor or TraceCursor()
        self._offset = cursor.byte_offset
        self._line_no = cursor.line_no
        self._records = cursor.record_index
        self._skipped = cursor.skipped_lines
        #: Lines given back by :meth:`rewind` or held at a malformed line
        #: beyond the budget; read again before the file.
        self._pending: list[bytes] = []
        #: The latest block's lines, the counters before it and whether it
        #: filled, for :meth:`rewind`.
        self._undo: tuple = ([], 0, 0, 0, 0, True)
        self._handle: BinaryIO | None = open_trace(self.path)
        if cursor.byte_offset:
            self._handle.seek(cursor.byte_offset)

    @property
    def cursor(self) -> TraceCursor:
        """Position *after* the last returned record (checkpoint-safe)."""
        return TraceCursor(
            byte_offset=self._offset,
            line_no=self._line_no,
            record_index=self._records,
            skipped_lines=self._skipped,
        )

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        self._pending.clear()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _lines(self, count: int) -> list[bytes]:
        """Up to ``count`` raw lines, pending ones first; ``[]`` at the end."""
        pending = self._pending
        if pending:
            lines = pending[:count]
            del pending[:count]
            return lines
        if self._handle is None:
            return []
        return list(islice(self._handle, count))

    def read_block(self, max_records: int) -> list[tuple]:
        """Consume lines through the next ``max_records`` records; return their rows.

        A row is ``(timestamp_s, offset_bytes, size_bytes, is_read,
        stream_id)`` — :class:`TraceRecord`'s field order.  Fewer rows come
        back only at the end of the file, at ``limit``, or just before a
        malformed line beyond the ``max_errors`` budget: that line is left
        unread, so the next call raises on it (with the cursor past it),
        exactly where a record-at-a-time reader would have.
        """
        if self.limit is not None:
            max_records = min(max_records, self.limit - self._records)
        rows: list[tuple] = []
        taken: list[bytes] = []
        start = (self._offset, self._line_no, self._records, self._skipped)
        parse, path, append = self._parse_line, self.path, rows.append
        held = False
        while len(rows) < max_records and not held:
            lines = self._lines(max_records - len(rows))
            if not lines:
                break
            line_no = self._line_no
            for line in _decoded(lines):
                line_no += 1
                try:
                    row = parse(line, path, line_no)
                except TraceFormatError:
                    if self._skipped < self.max_errors:
                        self._skipped += 1
                        continue
                    index = line_no - self._line_no - 1
                    if not rows:
                        self._line_no = line_no
                        self._offset += sum(map(len, lines[: index + 1]))
                        self.close()
                        raise
                    self._pending[:0] = lines[index:]
                    del lines[index:]
                    line_no -= 1
                    held = True
                    break
                if row is not None:
                    append(row)
            self._line_no = line_no
            self._offset += sum(map(len, lines))
            taken += lines
        self._records += len(rows)
        # A block that filled ends on its last row's line: nothing to rewind.
        self._undo = (taken, *start, len(rows) == max_records and not held)
        return rows

    def rewind(self, keep: int) -> None:
        """Move the cursor back to just after row ``keep`` of the latest block.

        Every line after that row — later rows and skipped lines alike — is
        read again by the next call; ``keep=0`` undoes the whole block.
        """
        taken, offset, line_no, records, skipped, filled = self._undo
        if filled and keep == self._records - records:
            return
        # Re-parse the block up to row ``keep`` to find its line (a rare path:
        # wrap-around tails filled a chunk early, or the block hit the end).
        kept = found = bad = 0
        for index, line in enumerate(_decoded(taken) if keep else ()):
            try:
                row = self._parse_line(line, self.path, line_no + index + 1)
            except TraceFormatError:
                bad += 1
                continue
            if row is not None:
                found += 1
                if found == keep:
                    kept = index + 1
                    break
        self._pending[:0] = taken[kept:]
        self._offset = offset + sum(map(len, taken[:kept]))
        self._line_no = line_no + kept
        self._records = records + keep
        self._skipped = skipped + bad
        self._undo = ([], self._offset, self._line_no, self._records, self._skipped, True)

    def __enter__(self) -> "RecordStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __iter__(self) -> "RecordStream":
        return self

    def __next__(self) -> TraceRecord:
        rows = self.read_block(1)
        if not rows:
            self.close()
            raise StopIteration
        return TraceRecord(*rows[0])


#: Records one :func:`iter_trace_records` / :func:`trace_to_requests` block holds.
_BLOCK_RECORDS = 4096


def iter_trace_records(
    path: str | Path,
    format: str,
    *,
    limit: int | None = None,
    max_errors: int = 0,
) -> Iterator[TraceRecord]:
    """Stream the records of a trace file (gzip-transparent, bounded memory).

    ``format`` is a :data:`TRACE_FORMATS` key (``"spc"`` or ``"systor"``).
    Yields records one at a time, parsed a block at a time, without ever
    materializing the trace.  With ``max_errors > 0`` up to that many
    malformed lines are skipped (counted) instead of aborting; use
    :class:`RecordStream` directly to read the skip count or to resume from a
    :class:`TraceCursor`.
    """
    stream = RecordStream(path, format, limit=limit, max_errors=max_errors)
    try:
        while rows := stream.read_block(_BLOCK_RECORDS):
            yield from starmap(TraceRecord, rows)
    finally:
        stream.close()


# -------------------------------------------------------------------- synthesis
def _synthesize(
    *,
    name: str,
    num_ios: int,
    read_ratio: float,
    mean_io_kb: float,
    address_space_bytes: int,
    interarrival_us: float,
    hot_fraction: float,
    hot_probability: float,
    seed: int,
) -> list[TraceRecord]:
    """Batch-generate one synthetic trace.

    All per-record draws (inter-arrival gaps, request sizes, read/write flags,
    hot-spot offsets) are sampled as whole NumPy arrays; only the final
    :class:`TraceRecord` construction remains a Python loop.  The stream is
    deterministic per seed.
    """
    if num_ios <= 0:
        return []
    rng = np.random.default_rng(seed)
    hotspot = HotspotGenerator(
        max(1, address_space_bytes // 4096),
        hot_fraction=hot_fraction,
        hot_probability=hot_probability,
        seed=seed,
    )
    timestamps = np.cumsum(rng.exponential(max(interarrival_us, 1e-3), size=num_ios)) / 1e6
    size_kb = np.maximum(4.0, rng.normal(mean_io_kb, mean_io_kb / 3, size=num_ios))
    size_bytes = np.maximum(4096, np.round(size_kb / 4.0).astype(np.int64) * 4096)
    is_read = rng.random(num_ios) < read_ratio
    offsets = np.asarray(hotspot.sample_many(num_ios), dtype=np.int64) * 4096
    return list(
        map(TraceRecord, timestamps.tolist(), offsets.tolist(), size_bytes.tolist(), is_read.tolist())
    )


def synthesize_websearch(
    variant: int = 1, *, num_ios: int = 20_000, seed: int | None = None
) -> list[TraceRecord]:
    """Synthetic WebSearch-like trace (read-only, ~15.5 KB mean I/O, strong locality)."""
    if variant not in (1, 2, 3):
        raise TraceFormatError("WebSearch variant must be 1, 2 or 3")
    presets = {
        1: dict(read_ratio=1.0, mean_io_kb=15.5, hot_probability=0.85),
        2: dict(read_ratio=0.9998, mean_io_kb=15.3, hot_probability=0.8),
        3: dict(read_ratio=0.9996, mean_io_kb=15.7, hot_probability=0.75),
    }
    params = presets[variant]
    return _synthesize(
        name=f"WebSearch{variant}",
        num_ios=num_ios,
        address_space_bytes=16 * 1024 ** 3,
        interarrival_us=300.0,
        hot_fraction=0.2,
        seed=seed if seed is not None else 100 + variant,
        **params,
    )


def synthesize_systor(*, num_ios: int = 20_000, seed: int = 104) -> list[TraceRecord]:
    """Synthetic Systor'17-like trace (61.6 % reads, ~10.25 KB mean I/O)."""
    return _synthesize(
        name="Systor17",
        num_ios=num_ios,
        read_ratio=0.616,
        mean_io_kb=10.25,
        address_space_bytes=32 * 1024 ** 3,
        interarrival_us=400.0,
        hot_fraction=0.3,
        hot_probability=0.7,
        seed=seed,
    )


#: Factories for the four traces used in Figures 21/22 and Table II.
TRACE_PRESETS = {
    "websearch1": lambda num_ios=20_000: synthesize_websearch(1, num_ios=num_ios),
    "websearch2": lambda num_ios=20_000: synthesize_websearch(2, num_ios=num_ios),
    "websearch3": lambda num_ios=20_000: synthesize_websearch(3, num_ios=num_ios),
    "systor17": lambda num_ios=20_000: synthesize_systor(num_ios=num_ios),
}


# ------------------------------------------------------------------ conversion
def trace_to_requests(
    records: Iterable[TraceRecord] | RecordStream,
    geometry: SSDGeometry,
    *,
    preserve_timing: bool = True,
    time_scale: float = 1.0,
) -> Iterator[HostRequest]:
    """Convert byte-addressed trace records into page-granular host requests.

    Offsets are folded into the device's logical space with a modulo, which is
    the standard way papers replay traces captured on differently-sized
    volumes; locality structure is preserved.  An I/O that runs past the end of
    the logical space wraps around to LPN 0 (emitted as additional requests
    with the same timestamp and stream), so the replayed page volume matches
    the byte volume :func:`characterize` reports instead of being silently
    truncated.  Records are split a block at a time, by the same NumPy
    splitter streaming replay uses.
    """
    source = _record_rows(records)
    page, logical_pages = geometry.page_size, geometry.num_logical_pages
    while rows := source.read_block(_BLOCK_RECORDS):
        requests, _ = _split_records(
            rows, page, logical_pages, preserve_timing=preserve_timing, time_scale=time_scale
        )
        yield from requests


#: Declared type of a :data:`TRACE_PRESETS` name (see :mod:`repro.nand.fields`).
TraceName = Annotated[str, one_of(TRACE_PRESETS)]


def preset_requests(
    geometry: SSDGeometry,
    *,
    name: TraceName,
    num_ios: PositiveInt,
    time_scale: PositiveFloat = 0.05,
) -> Iterator[HostRequest]:
    """Page requests of ``num_ios`` I/Os of the synthetic trace ``name``,
    inter-arrival times scaled by ``time_scale``: the declaration of the
    ``trace`` workload kind (see :mod:`repro.workloads.spec`)."""
    return trace_to_requests(TRACE_PRESETS[name](num_ios), geometry, time_scale=time_scale)


#: A :class:`TraceRecord` as a record row (its fields in order).
_row_of = attrgetter("timestamp_s", "offset_bytes", "size_bytes", "is_read", "stream_id")


class _RecordRows:
    """:meth:`RecordStream.read_block` / :meth:`RecordStream.rewind` over any
    iterable of :class:`TraceRecord`."""

    __slots__ = ("_records", "_held", "_last")

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        self._records = iter(records)
        self._held: list[tuple] = []
        self._last: list[tuple] = []

    def read_block(self, max_records: int) -> list[tuple]:
        rows = self._held[:max_records]
        del self._held[:max_records]
        rows += map(_row_of, islice(self._records, max_records - len(rows)))
        self._last = rows
        return rows

    def rewind(self, keep: int) -> None:
        self._held[:0] = self._last[keep:]


def _record_rows(records: Iterable[TraceRecord] | RecordStream) -> RecordStream | _RecordRows:
    """A row source over ``records``: the stream itself, or rows of any record iterable."""
    return records if isinstance(records, RecordStream) else _RecordRows(records)


#: Op of a request by its record's ``is_read`` flag.
_OP_OF_READ = (OpType.WRITE, OpType.READ)


def _int_column(values: tuple) -> np.ndarray:
    """``values`` as int64, or as Python objects when they do not all fit."""
    column = np.array(values)
    return column if column.dtype.kind == "i" else np.array(values, dtype=object)


def _split_records(
    rows: list[tuple],
    page: int,
    logical_pages: int,
    *,
    preserve_timing: bool,
    time_scale: float,
) -> tuple[list[HostRequest], np.ndarray]:
    """Split record rows into page-granular host requests, array-at-a-time.

    A record covers ``max(1, ceil(size / page))`` pages from
    ``(offset // page) % logical_pages``; what runs past the last logical
    page wraps to LPN 0 as further requests with the same op, issue time and
    stream.  Returns the requests in record order and, per record, the
    number of requests through it (a running count), so a chunker can cut
    the block after any record.
    """
    timestamps, offsets, sizes, reads, streams = zip(*rows)
    start = _int_column(offsets) // page % logical_pages
    pages = np.maximum(-(-_int_column(sizes) // page), 1)
    head = np.minimum(pages, logical_pages - start)
    tails = -(-(pages - head) // logical_pages)
    flags = np.array(reads, dtype=bool)
    times = np.array(timestamps, dtype=np.float64) * 1e6 * time_scale if preserve_timing else None
    if not tails.any():
        ends = np.arange(1, len(rows) + 1)
        lpns, npages = start, head
    else:
        counts = (tails + 1).astype(np.int64)
        ends = np.cumsum(counts)
        owner = np.repeat(np.arange(len(rows)), counts)
        step = np.arange(int(ends[-1])) - (ends - counts)[owner]
        lpns = np.where(step == 0, start[owner], 0)
        npages = np.where(
            step == 0,
            head[owner],
            np.minimum(pages[owner] - head[owner] - (step - 1) * logical_pages, logical_pages),
        )
        flags = flags[owner]
        times = None if times is None else times[owner]
        streams = np.array(streams, dtype=object)[owner].tolist()
    requests = list(
        map(
            HostRequest,
            map(_OP_OF_READ.__getitem__, flags.tolist()),
            lpns.tolist(),
            npages.tolist(),
            repeat(None) if times is None else times.tolist(),
            streams,
        )
    )
    return requests, ends


def characterize(name: str, records: list[TraceRecord]) -> TraceCharacteristics:
    """Compute the Table II columns for a trace."""
    if not records:
        return TraceCharacteristics(name=name, num_ios=0, average_io_kb=0.0, read_ratio=0.0)
    total_kb = sum(r.size_bytes for r in records) / 1024.0
    reads = sum(1 for r in records if r.is_read)
    return TraceCharacteristics(
        name=name,
        num_ios=len(records),
        average_io_kb=total_kb / len(records),
        read_ratio=reads / len(records),
    )
