"""Differential tests: block trace ingest against the record-at-a-time reader.

:class:`RecordStream` parses a block of lines per call and
:func:`iter_trace_requests` / :func:`trace_to_requests` split whole blocks of
records into page requests with NumPy.  The reference here is the reader they
replaced, kept verbatim in spirit: one ``readline``, one :class:`TraceRecord`
and one ``_record_to_requests`` generator per record.  Hypothesis writes SPC
and Systor text — plain and gzipped, LF and CRLF, with non-UTF-8 bytes,
blank, comment and header lines, malformed and out-of-range lines and I/Os
that wrap past the last logical page — and every observable must agree:
records, error messages, the cursor after every record, the chunks and the
cursor at every chunk boundary, and a resume from each boundary cursor.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.golden_workload import golden_geometry

from repro.nand.errors import TraceFormatError
from repro.replay import iter_trace_requests
from repro.ssd.request import HostRequest, OpType
from repro.workloads.traces import (
    TRACE_FORMATS,
    RecordStream,
    TraceCursor,
    TraceRecord,
    iter_trace_records,
    open_trace,
    trace_to_requests,
)

GEOMETRY = golden_geometry()
PAGE = GEOMETRY.page_size
LOGICAL_PAGES = GEOMETRY.num_logical_pages

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------- oracle
class LineStream:
    """The record-at-a-time reader: one ``readline`` and one record per step."""

    def __init__(self, path, fmt, *, limit=None, max_errors=0, cursor=None):
        self._parse_line = TRACE_FORMATS[fmt]
        self.path = Path(path)
        self.limit = limit
        self.max_errors = max_errors
        cursor = cursor or TraceCursor()
        self._offset = cursor.byte_offset
        self._line_no = cursor.line_no
        self._records = cursor.record_index
        self._skipped = cursor.skipped_lines
        self._handle = open_trace(self.path)
        if cursor.byte_offset:
            self._handle.seek(cursor.byte_offset)

    @property
    def cursor(self) -> TraceCursor:
        return TraceCursor(self._offset, self._line_no, self._records, self._skipped)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __iter__(self):
        return self

    def __next__(self) -> TraceRecord:
        handle = self._handle
        if handle is None:
            raise StopIteration
        while True:
            if self.limit is not None and self._records >= self.limit:
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
                row = self._parse_line(line, self.path, self._line_no)
            except TraceFormatError:
                if self._skipped < self.max_errors:
                    self._skipped += 1
                    continue
                self.close()
                raise
            if row is None:
                continue
            self._records += 1
            return TraceRecord(*row)


def _record_to_requests(
    record: TraceRecord, page: int, logical_pages: int, *, preserve_timing: bool, time_scale: float
) -> Iterator[HostRequest]:
    """One record's page requests: a head run, then wrap-to-LPN-0 tails."""
    start_page = (record.offset_bytes // page) % logical_pages
    remaining = max(1, -(-record.size_bytes // page))
    issue_time = (record.timestamp_s * 1e6 * time_scale) if preserve_timing else None
    op = OpType.READ if record.is_read else OpType.WRITE
    while remaining > 0:
        npages = min(remaining, logical_pages - start_page)
        yield HostRequest(op, start_page, npages, issue_time, record.stream_id)
        remaining -= npages
        start_page = 0


def oracle_chunks(records, chunk_requests: int, **timing) -> Iterator[list[HostRequest]]:
    """Chunks that close on the first record bringing them to ``chunk_requests``."""
    chunk: list[HostRequest] = []
    for record in records:
        chunk.extend(_record_to_requests(record, PAGE, LOGICAL_PAGES, **timing))
        if len(chunk) >= chunk_requests:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


# ------------------------------------------------------------------ trace text
_SPC_OPS = ["R", "r", "Read", "READ", "W", "w", "Write", " r "]
_SYSTOR_OPS = ["R", "r", "READ", "Read", "W", "w", "WRITE", "write", " R "]


@st.composite
def _record_fields(draw):
    """Timestamp, offset, size, stream: offsets cluster at the end of the space."""
    end = LOGICAL_PAGES * PAGE
    offset = draw(
        st.one_of(
            st.integers(end - 4 * PAGE, end + 4 * PAGE),
            st.integers(0, 8 * end),
        )
    )
    size = draw(
        st.one_of(
            st.integers(0, 4 * PAGE),
            st.sampled_from([PAGE * LOGICAL_PAGES, 2 * PAGE * LOGICAL_PAGES + 3]),
        )
    )
    timestamp = draw(st.floats(0.0, 1e4, allow_nan=False))
    return timestamp, offset, size, draw(st.integers(0, 7))


@st.composite
def _line(draw, fmt: str) -> bytes:
    kind = draw(
        st.sampled_from(
            ["record"] * 6
            + ["record_extra", "blank", "space", "comment", "header"]
            + ["short", "text", "negative", "nan", "op", "binary"]
        )
    )
    timestamp, offset, size, stream = draw(_record_fields())
    if fmt == "spc":
        lba = offset // 512
        op = draw(st.sampled_from(_SPC_OPS))
        bad_op = draw(st.sampled_from(["X", "D", "", "?"]))
        record = f"{stream},{lba},{size},{op},{timestamp!r}"
        malformed = {
            "short": f"{stream},{lba},{size}",
            "text": f"{stream},x{lba},{size},R,{timestamp!r}",
            "negative": f"{stream},-{lba + 1},{size},W,{timestamp!r}",
            "nan": f"{stream},{lba},{size},R,nan",
            "op": f"{stream},{lba},{size},{bad_op},1.0",
        }
        header = "# ASU,LBA,Size,Opcode,Timestamp"
    else:
        op = draw(st.sampled_from(_SYSTOR_OPS))
        bad_op = draw(st.sampled_from(["X", "RW", "", "D"]))
        lun = draw(st.sampled_from([str(stream), "", " "]))
        record = f"{timestamp!r},0.001,{op},{lun},{offset},{size}"
        malformed = {
            "short": f"{timestamp!r},0.001,{op},{lun},{offset}",
            "text": f"{timestamp!r},0.001,{op},{lun},{offset},big",
            "negative": f"{timestamp!r},0.001,{op},{lun},-{offset + 1},{size}",
            "nan": f"inf,0.001,{op},{lun},{offset},{size}",
            "op": f"{timestamp!r},0.001,{bad_op},0,{offset},{size}",
        }
        header = draw(st.sampled_from(["Timestamp,Response,IOType,LUN,Offset,Size",
                                       "timestamp,response,iotype,lun,offset,size"]))
    if kind == "record":
        return record.encode()
    if kind == "record_extra":  # extra fields (here not even UTF-8) are ignored
        return record.encode() + b",\xff\xfe"
    if kind == "blank":
        return b""
    if kind == "space":
        return b" \t "
    if kind == "comment":
        return b"# comment \xc3" if fmt == "spc" else b""
    if kind == "header":
        return header.encode()
    if kind == "binary":  # invalid UTF-8 inside a field: a malformed line
        return record.encode()[:3] + b"\xff\x80" + record.encode()[3:]
    return malformed[kind].encode()


@st.composite
def traces(draw):
    """``(fmt, data, compress)``: trace bytes with mixed line endings."""
    fmt = draw(st.sampled_from(["spc", "systor"]))
    lines = draw(st.lists(_line(fmt), max_size=40))
    endings = [draw(st.sampled_from([b"\n", b"\r\n"])) for _ in lines]
    data = b"".join(line + ending for line, ending in zip(lines, endings))
    if lines and draw(st.booleans()):
        data = data[: -len(endings[-1])]  # no newline after the last line
    return fmt, data, draw(st.booleans())


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory) -> Path:
    """One directory per module: every example overwrites the same file."""
    return tmp_path_factory.mktemp("ingest")


def _write(directory: Path, fmt: str, data: bytes, compress: bool) -> Path:
    path = directory / ("t.spc" if fmt == "spc" else "t.csv")
    if compress:
        path = path.with_name(path.name + ".gz")
        with gzip.open(path, "wb") as handle:
            handle.write(data)
    else:
        path.write_bytes(data)
    return path


# -------------------------------------------------------------------- helpers
def oracle_steps(path, fmt, **options):
    """``(records, cursors after each record, end cursor, error message)``."""
    stream = LineStream(path, fmt, **options)
    records, cursors, error = [], [], None
    try:
        for record in stream:
            records.append(record)
            cursors.append(stream.cursor)
    except TraceFormatError as exc:
        error = str(exc)
    return records, cursors, stream.cursor, error


def chunk_steps(stream, chunk_requests):
    """``(chunks, cursor at each boundary, error message)`` of the chunker."""
    chunks, cursors, error = [], [], None
    try:
        for chunk in iter_trace_requests(stream, GEOMETRY, chunk_requests=chunk_requests):
            chunks.append(chunk)
            cursors.append(stream.cursor)
    except TraceFormatError as exc:
        error = str(exc)
    return chunks, cursors, error


def oracle_chunk_steps(path, fmt, chunk_requests, *, cursor=None, **options):
    stream = LineStream(path, fmt, cursor=cursor, **options)
    chunks, cursors, error = [], [], None
    try:
        for chunk in oracle_chunks(stream, chunk_requests, preserve_timing=True, time_scale=1.0):
            chunks.append(chunk)
            cursors.append(stream.cursor)
    except TraceFormatError as exc:
        error = str(exc)
    return chunks, cursors, error


_options = st.fixed_dictionaries(
    {
        "limit": st.one_of(st.none(), st.integers(0, 30)),
        "max_errors": st.integers(0, 4),
    }
)


# ---------------------------------------------------------------------- tests
class TestRecordParity:
    @SETTINGS
    @given(trace=traces(), options=_options)
    def test_record_iteration_matches_line_reader(self, trace_dir, trace, options):
        path = _write(trace_dir, *trace)
        fmt = trace[0]
        records, cursors, end, error = oracle_steps(path, fmt, **options)

        stream = RecordStream(path, fmt, **options)
        got, got_cursors, got_error = [], [], None
        try:
            for record in stream:
                got.append(record)
                got_cursors.append(stream.cursor)
        except TraceFormatError as exc:
            got_error = str(exc)
        assert (got, got_cursors, got_error) == (records, cursors, error)
        assert stream.cursor == end

        got_error = None
        got = []
        try:
            got.extend(iter_trace_records(path, fmt, **options))
        except TraceFormatError as exc:
            got_error = str(exc)
        assert (got, got_error) == (records, error)

    @SETTINGS
    @given(trace=traces(), options=_options, sizes=st.lists(st.integers(1, 9), min_size=1))
    def test_blocks_end_exactly_on_their_last_record(self, trace_dir, trace, options, sizes):
        path = _write(trace_dir, *trace)
        fmt = trace[0]
        records, cursors, end, error = oracle_steps(path, fmt, **options)

        stream = RecordStream(path, fmt, **options)
        got, got_error, step = [], None, 0
        try:
            while True:
                size = sizes[step % len(sizes)]
                step += 1
                rows = stream.read_block(size)
                if not rows:
                    break
                got.extend(TraceRecord(*row) for row in rows)
                if len(rows) == size:
                    assert stream.cursor == cursors[len(got) - 1]
        except TraceFormatError as exc:
            got_error = str(exc)
        assert (got, got_error) == (records, error)
        assert stream.cursor == end
        stream.close()

    @SETTINGS
    @given(
        trace=traces(),
        options=_options,
        size=st.integers(1, 9),
        given_back=st.integers(0, 9),
    )
    def test_rewound_rows_are_read_again(self, trace_dir, trace, options, size, given_back):
        path = _write(trace_dir, *trace)
        fmt = trace[0]
        records, cursors, _, error = oracle_steps(path, fmt, **options)
        if error is not None:
            return
        stream = RecordStream(path, fmt, **options)
        rows = stream.read_block(size)
        given_back = min(given_back, len(rows))
        kept = len(rows) - given_back
        stream.rewind(kept)
        assert stream.cursor == (cursors[kept - 1] if kept else TraceCursor())
        rest = []
        while block := stream.read_block(size):
            rest.extend(block)
        assert [TraceRecord(*row) for row in rows[:kept] + rest] == records
        stream.close()


class TestChunkParity:
    @SETTINGS
    @given(trace=traces(), options=_options, chunk_requests=st.integers(1, 8))
    def test_chunks_and_boundary_cursors_match_and_resume(
        self, trace_dir, trace, options, chunk_requests
    ):
        path = _write(trace_dir, *trace)
        fmt = trace[0]
        expected = oracle_chunk_steps(path, fmt, chunk_requests, **options)

        with RecordStream(path, fmt, **options) as stream:
            assert chunk_steps(stream, chunk_requests) == expected

        # Resuming from every boundary cursor continues the same sequence.
        chunks, cursors, error = expected
        for index, cursor in enumerate(cursors):
            with RecordStream(path, fmt, cursor=cursor, **options) as stream:
                tail = chunk_steps(stream, chunk_requests)
            assert tail == (chunks[index + 1 :], cursors[index + 1 :], error)
            assert tail == oracle_chunk_steps(path, fmt, chunk_requests, cursor=cursor, **options)

    @SETTINGS
    @given(
        trace=traces(),
        chunk_requests=st.integers(1, 8),
        preserve_timing=st.booleans(),
        time_scale=st.sampled_from([1.0, 0.05, 1e-4, 3]),
    )
    def test_record_iterables_split_like_the_line_reader(
        self, trace_dir, trace, chunk_requests, preserve_timing, time_scale
    ):
        path = _write(trace_dir, *trace)
        records = oracle_steps(path, trace[0], max_errors=1_000)[0]
        timing = dict(preserve_timing=preserve_timing, time_scale=time_scale)
        expected = [
            request
            for record in records
            for request in _record_to_requests(record, PAGE, LOGICAL_PAGES, **timing)
        ]
        assert list(trace_to_requests(records, GEOMETRY, **timing)) == expected
        chunks = list(
            iter_trace_requests(iter(records), GEOMETRY, chunk_requests=chunk_requests, **timing)
        )
        assert chunks == list(oracle_chunks(records, chunk_requests, **timing))


@pytest.mark.parametrize("fmt,line", [
    ("spc", "0,16,4096,X,0.1"),
    ("spc", "0,16,4096,,0.1"),
    ("systor", "0.1,0.1,RW,0,8192,4096"),
    ("systor", "0.1,0.1,D,0,8192,4096"),
])
def test_unknown_op_code_is_a_malformed_line(tmp_path, fmt, line):
    good = "0,16,4096,w,0.1" if fmt == "spc" else "0.1,0.1,write,0,8192,4096"
    path = tmp_path / ("t.spc" if fmt == "spc" else "t.csv")
    path.write_text(f"{good}\n{line}\n{good}\n")
    with pytest.raises(TraceFormatError, match=r"t\.(spc|csv):2: (SPC op code|Systor I/O type)"):
        list(iter_trace_records(path, fmt))
    with RecordStream(path, fmt, max_errors=1) as stream:
        records = list(stream)
        assert stream.cursor.skipped_lines == 1
    assert [record.is_read for record in records] == [False, False]


def test_offsets_beyond_int64_split_like_python_ints(tmp_path):
    """The splitter falls back to Python integers where int64 would overflow."""
    huge_lba = (1 << 70) + 5
    path = tmp_path / "t.spc"
    path.write_text(f"0,{huge_lba},4096,R,0.5\n0,7,{3 * PAGE},w,1.0\n")
    records = list(iter_trace_records(path, "spc"))
    assert records[0].offset_bytes == huge_lba * 512
    timing = dict(preserve_timing=True, time_scale=1.0)
    expected = [
        request
        for record in records
        for request in _record_to_requests(record, PAGE, LOGICAL_PAGES, **timing)
    ]
    assert list(trace_to_requests(records, GEOMETRY, **timing)) == expected
    with RecordStream(path, "spc") as stream:
        assert list(trace_to_requests(stream, GEOMETRY, **timing)) == expected
