"""Block-trace ingestion and synthetic stand-ins for the paper's four traces.

The paper replays three UMass WebSearch traces (SPC format) and one Systor '17
enterprise VDI trace (CSV format).  Those files cannot be shipped here, so this
module provides both:

* **one streaming reader** for the two on-disk formats
  (:func:`iter_trace_records` over :class:`RecordStream`, with the per-line
  parsers in :data:`TRACE_FORMATS`), so the real traces can be dropped in if
  available; and
* **synthetic generators** whose request streams match the characteristics the
  paper reports in Table II (I/O count, mean request size, read ratio) plus a
  strong hot-range locality, which is the property the tail-latency and energy
  experiments depend on.

Every record is expressed as a :class:`TraceRecord` in byte units and converted
to page-granular :class:`~repro.ssd.request.HostRequest` objects against a
concrete device geometry (scaling LBAs into the logical space, as the paper
does when it "scales up" the old WebSearch traces to modern SSD sizes).
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from repro.nand.errors import TraceFormatError
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


def _parse_spc_line(line: str, path: "str | Path", line_no: int) -> TraceRecord | None:
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
        opcode = parts[3].strip().lower()
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
    return TraceRecord(
        timestamp_s=timestamp,
        offset_bytes=lba * 512,
        size_bytes=size,
        is_read=opcode.startswith("r"),
        stream_id=asu,
    )


def _parse_systor_line(line: str, path: "str | Path", line_no: int) -> TraceRecord | None:
    """Parse one Systor '17 CSV line (``timestamp,response,iotype,lun,offset,size``)."""
    if not line or line.lower().startswith("timestamp"):
        return None
    parts = line.split(",")
    if len(parts) < 6:
        raise TraceFormatError(
            f"{path}:{line_no}: expected 6 Systor fields, got {len(parts)}: {_offending(line)}"
        )
    try:
        timestamp = float(parts[0])
        iotype = parts[2].strip().upper()
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
    return TraceRecord(
        timestamp_s=timestamp,
        offset_bytes=offset,
        size_bytes=size,
        is_read=iotype in ("R", "READ"),
        stream_id=lun,
    )


#: Per-line parsers by format name.  A parser takes ``(line, path, line_no)``
#: and returns a :class:`TraceRecord` or ``None`` for skippable lines (blanks,
#: comments, headers); malformed lines raise :class:`TraceFormatError` naming
#: ``path:line_no`` and quoting the offending text (truncated).
TRACE_FORMATS: dict[str, Callable[[str, "str | Path", int], TraceRecord | None]] = {
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


class RecordStream:
    """Streaming :class:`TraceRecord` iterator with a resumable cursor.

    Reads one line at a time (never materializing the trace), parses it with
    the named format's line parser and tracks an exact :class:`TraceCursor`
    after every yielded record.  ``limit`` counts records from the *start of
    the file* (cursor included), so a resumed stream stops where an
    uninterrupted one would; with ``max_errors > 0`` up to that many malformed
    lines are counted and skipped instead of aborting the stream — the first
    line beyond the budget raises.
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
        if max_errors < 0:
            raise TraceFormatError(f"max_errors must be >= 0, got {max_errors}")
        if limit is not None and limit < 0:
            raise TraceFormatError(f"limit must be >= 0, got {limit}")
        self.path = Path(path)
        self.format = format
        self.limit = limit
        self.max_errors = max_errors
        cursor = cursor or TraceCursor()
        self._offset = cursor.byte_offset
        self._line_no = cursor.line_no
        self._records = cursor.record_index
        self._skipped = cursor.skipped_lines
        self._handle: BinaryIO | None = open_trace(self.path)
        if cursor.byte_offset:
            self._handle.seek(cursor.byte_offset)

    @property
    def cursor(self) -> TraceCursor:
        """Position *after* the last yielded record (checkpoint-safe)."""
        return TraceCursor(
            byte_offset=self._offset,
            line_no=self._line_no,
            record_index=self._records,
            skipped_lines=self._skipped,
        )

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RecordStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __iter__(self) -> "RecordStream":
        return self

    def __next__(self) -> TraceRecord:
        handle = self._handle
        if handle is None:
            raise StopIteration
        limit = self.limit
        parse_line = self._parse_line
        while True:
            if limit is not None and self._records >= limit:
                self.close()
                raise StopIteration
            raw = handle.readline()
            if not raw:
                self.close()
                raise StopIteration
            self._offset += len(raw)
            self._line_no += 1
            line = raw.decode("utf-8", errors="replace").strip()
            try:
                record = parse_line(line, self.path, self._line_no)
            except TraceFormatError:
                if self._skipped < self.max_errors:
                    self._skipped += 1
                    continue
                self.close()
                raise
            if record is None:
                continue
            self._records += 1
            return record


def iter_trace_records(
    path: str | Path,
    format: str,
    *,
    limit: int | None = None,
    max_errors: int = 0,
) -> Iterator[TraceRecord]:
    """Stream the records of a trace file (gzip-transparent, bounded memory).

    ``format`` is a :data:`TRACE_FORMATS` key (``"spc"`` or ``"systor"``).
    Yields records one at a time without ever materializing the trace.  With
    ``max_errors > 0`` up to that many malformed lines are skipped (counted)
    instead of aborting; use :class:`RecordStream` directly to read the skip
    count or to resume from a :class:`TraceCursor`.
    """
    stream = RecordStream(path, format, limit=limit, max_errors=max_errors)
    try:
        yield from stream
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
    return [
        TraceRecord(
            timestamp_s=timestamp,
            offset_bytes=offset,
            size_bytes=size,
            is_read=read,
        )
        for timestamp, offset, size, read in zip(
            timestamps.tolist(), offsets.tolist(), size_bytes.tolist(), is_read.tolist()
        )
    ]


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
    records: Iterable[TraceRecord],
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
    truncated.
    """
    page = geometry.page_size
    logical_pages = geometry.num_logical_pages
    for record in records:
        yield from _record_to_requests(
            record, page, logical_pages, preserve_timing=preserve_timing, time_scale=time_scale
        )


def _record_to_requests(
    record: TraceRecord,
    page: int,
    logical_pages: int,
    *,
    preserve_timing: bool,
    time_scale: float,
) -> Iterator[HostRequest]:
    """Expand one trace record into its page-granular host requests.

    Shared by :func:`trace_to_requests` and the streaming chunker
    (``repro.replay.stream.iter_trace_requests``) so both paths produce the
    same request sequence per record — including the wrap-to-LPN-0 split.
    """
    start_page = (record.offset_bytes // page) % logical_pages
    remaining = max(1, -(-record.size_bytes // page))
    issue_time = (record.timestamp_s * 1e6 * time_scale) if preserve_timing else None
    op = OpType.READ if record.is_read else OpType.WRITE
    while remaining > 0:
        npages = min(remaining, logical_pages - start_page)
        yield HostRequest(
            op=op,
            lpn=start_page,
            npages=npages,
            issue_time_us=issue_time,
            stream_id=record.stream_id,
        )
        remaining -= npages
        start_page = 0


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
