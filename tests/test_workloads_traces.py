"""Tests for trace parsing, synthesis and conversion."""

from __future__ import annotations

import gzip
import random
import re
from pathlib import Path

import pytest

#: Committed miniature excerpts in the two real on-disk trace formats.
DATA_DIR = Path(__file__).parent / "data"
SPC_FIXTURE = DATA_DIR / "websearch_sample.spc"
SYSTOR_FIXTURE = DATA_DIR / "systor17_sample.csv"

from repro.nand.errors import TraceFormatError
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import OpType
from repro.workloads.traces import (
    TRACE_PRESETS,
    RecordStream,
    TraceCursor,
    TraceRecord,
    characterize,
    iter_trace_records,
    open_trace,
    synthesize_systor,
    synthesize_websearch,
    trace_format_for,
    trace_to_requests,
)


@pytest.fixture
def geometry() -> SSDGeometry:
    return SSDGeometry.small()


class TestParsers:
    def test_parse_spc(self, tmp_path):
        path = tmp_path / "trace.spc"
        path.write_text("0,12345,8192,R,0.001\n1,99,4096,W,0.002\n")
        records = list(iter_trace_records(path, "spc"))
        assert len(records) == 2
        assert records[0].offset_bytes == 12345 * 512
        assert records[0].size_bytes == 8192
        assert records[0].is_read
        assert not records[1].is_read

    def test_parse_spc_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "trace.spc"
        path.write_text("# header\n\n0,1,512,r,0.0\n")
        assert len(list(iter_trace_records(path, "spc"))) == 1

    def test_parse_spc_limit(self, tmp_path):
        path = tmp_path / "trace.spc"
        path.write_text("\n".join(f"0,{i},512,R,0.{i}" for i in range(10)))
        assert len(list(iter_trace_records(path, "spc", limit=3))) == 3

    def test_parse_spc_malformed(self, tmp_path):
        path = tmp_path / "trace.spc"
        path.write_text("0,oops,512,R,0.0\n")
        with pytest.raises(TraceFormatError):
            list(iter_trace_records(path, "spc"))
        path.write_text("0,1,512\n")
        with pytest.raises(TraceFormatError):
            list(iter_trace_records(path, "spc"))

    def test_parse_systor(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "Timestamp,Response,IOType,LUN,Offset,Size\n"
            "0.1,0.001,R,0,4096,8192\n"
            "0.2,0.001,W,1,0,4096\n"
        )
        records = list(iter_trace_records(path, "systor"))
        assert len(records) == 2
        assert records[0].is_read and not records[1].is_read
        assert records[1].stream_id == 1

    def test_parse_systor_malformed(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0.1,0.001,R,0,xyz,8192\n")
        with pytest.raises(TraceFormatError):
            list(iter_trace_records(path, "systor"))


class TestRealFormatFixtures:
    """The committed SPC / Systor '17 excerpts parse and replay end to end."""

    def test_spc_fixture_parses_fully(self):
        records = list(iter_trace_records(SPC_FIXTURE, "spc"))
        assert len(records) == 8  # comment and blank lines skipped
        # Field mapping: LBA is in 512-byte sectors, opcode is case-insensitive.
        assert records[0].offset_bytes == 303567 * 512
        assert records[0].size_bytes == 8192
        assert records[0].stream_id == 0
        assert records[3].is_read  # lower-case "r" opcode
        assert not records[5].is_read  # the one write
        assert records[2].stream_id == 1  # ASU becomes the stream id
        timestamps = [r.timestamp_s for r in records]
        assert timestamps == sorted(timestamps)
        assert list(iter_trace_records(SPC_FIXTURE, "spc", limit=3)) == records[:3]

    def test_spc_fixture_characteristics(self):
        stats = characterize("websearch_sample", list(iter_trace_records(SPC_FIXTURE, "spc")))
        assert stats.num_ios == 8
        assert stats.read_ratio == pytest.approx(7 / 8)
        # WebSearch-like: multi-KB mean request size.
        assert stats.average_io_kb > 8.0

    def test_systor_fixture_parses_fully(self):
        records = list(iter_trace_records(SYSTOR_FIXTURE, "systor"))
        assert len(records) == 6  # header skipped
        assert records[0].offset_bytes == 706617344
        assert records[0].size_bytes == 16384
        assert records[0].stream_id == 1
        assert records[3].is_read  # "READ" spelled out
        assert records[4].stream_id == 0  # empty LUN field defaults to 0
        assert not records[1].is_read and not records[4].is_read
        assert list(iter_trace_records(SYSTOR_FIXTURE, "systor", limit=2)) == records[:2]

    @pytest.mark.parametrize("format,fixture", [
        ("spc", SPC_FIXTURE),
        ("systor", SYSTOR_FIXTURE),
    ])
    def test_fixtures_convert_and_replay(self, geometry, format, fixture):
        # Round-trip: parse -> page-granular requests -> open-loop replay.
        from repro.ssd.device import SSD

        records = list(iter_trace_records(fixture, format))
        requests = list(trace_to_requests(records, geometry))
        page = geometry.page_size
        assert sum(r.npages for r in requests) == sum(
            max(1, -(-rec.size_bytes // page)) for rec in records
        )
        for request in requests:
            assert 0 <= request.lpn < geometry.num_logical_pages
            assert request.lpn + request.npages <= geometry.num_logical_pages
            assert request.issue_time_us is not None
        ssd = SSD.create("dftl", geometry)
        ssd.fill_sequential()
        ssd.reset_stats()
        result = ssd.replay(requests, streams=4)
        assert result.requests == len(requests)
        assert result.stats.iops() > 0.0


class TestSynthesis:
    def test_websearch_is_read_only(self):
        records = synthesize_websearch(1, num_ios=2_000)
        stats = characterize("ws1", records)
        assert stats.read_ratio == pytest.approx(1.0)
        assert stats.average_io_kb == pytest.approx(15.5, abs=1.5)

    def test_websearch_variants_differ(self):
        a = synthesize_websearch(1, num_ios=500)
        b = synthesize_websearch(2, num_ios=500)
        assert [r.offset_bytes for r in a] != [r.offset_bytes for r in b]

    def test_websearch_rejects_bad_variant(self):
        with pytest.raises(TraceFormatError):
            synthesize_websearch(4)

    def test_systor_mix_matches_table_ii(self):
        stats = characterize("systor", synthesize_systor(num_ios=4_000))
        assert stats.read_ratio == pytest.approx(0.616, abs=0.05)
        assert stats.average_io_kb == pytest.approx(10.25, abs=1.5)

    def test_timestamps_are_monotonic(self):
        records = synthesize_websearch(1, num_ios=500)
        times = [r.timestamp_s for r in records]
        assert times == sorted(times)

    def test_presets_cover_all_four_traces(self):
        assert set(TRACE_PRESETS) == {"websearch1", "websearch2", "websearch3", "systor17"}
        for factory in TRACE_PRESETS.values():
            assert len(factory(100)) == 100

    def test_locality_exists(self):
        """Most accesses land in a small hot region of the address space."""
        records = synthesize_websearch(1, num_ios=3_000)
        offsets = sorted(r.offset_bytes for r in records)
        span = offsets[-1] - offsets[0] or 1
        # Count accesses falling in the busiest quarter of the covered range.
        import collections

        quarter = collections.Counter((r.offset_bytes - offsets[0]) * 4 // (span + 1) for r in records)
        # A uniform stream would put ~25% in each quarter; the hot region pushes
        # the busiest quarter well above that (even if it straddles a boundary).
        assert max(quarter.values()) / len(records) > 0.4


class TestConversion:
    def test_requests_fit_logical_space(self, geometry):
        records = synthesize_systor(num_ios=1_000)
        for request in trace_to_requests(records, geometry):
            assert 0 <= request.lpn < geometry.num_logical_pages
            assert request.lpn + request.npages <= geometry.num_logical_pages
            assert request.npages >= 1

    def test_op_types_and_page_volume_preserved(self, geometry):
        records = synthesize_systor(num_ios=500)
        requests = list(trace_to_requests(records, geometry))
        page = geometry.page_size
        for op, flag in ((OpType.READ, True), (OpType.WRITE, False)):
            pages = sum(r.npages for r in requests if r.op is op)
            expected = sum(
                max(1, -(-rec.size_bytes // page)) for rec in records if rec.is_read is flag
            )
            assert pages == expected

    def test_io_past_end_of_logical_space_wraps_to_zero(self, geometry):
        page = geometry.page_size
        logical = geometry.num_logical_pages
        record = TraceRecord(
            timestamp_s=0.0,
            offset_bytes=(logical - 2) * page,
            size_bytes=5 * page,
            is_read=True,
        )
        requests = list(trace_to_requests([record], geometry))
        assert [(r.lpn, r.npages) for r in requests] == [(logical - 2, 2), (0, 3)]
        assert all(r.op is OpType.READ for r in requests)

    def test_timing_preserved_and_scaled(self, geometry):
        records = synthesize_websearch(1, num_ios=100)
        scaled = list(trace_to_requests(records, geometry, time_scale=0.5))
        unscaled = list(trace_to_requests(records, geometry, time_scale=1.0))
        assert scaled[-1].issue_time_us == pytest.approx(unscaled[-1].issue_time_us * 0.5)

    def test_timing_can_be_dropped(self, geometry):
        records = synthesize_websearch(1, num_ios=10)
        requests = list(trace_to_requests(records, geometry, preserve_timing=False))
        assert all(r.issue_time_us is None for r in requests)

    def test_characterize_empty(self):
        stats = characterize("empty", [])
        assert stats.num_ios == 0
        assert stats.read_ratio == 0.0

    def test_characterize_row_shape(self):
        row = characterize("x", synthesize_systor(num_ios=50)).as_row()
        assert set(row) == {"trace", "num_ios", "avg_io_kb", "read_ratio"}


# ------------------------------------------------------- streaming machinery
def _random_records(rng: random.Random, count: int, *, spc: bool) -> list[TraceRecord]:
    """Random valid records; SPC offsets are sector-aligned (LBA * 512)."""
    records = []
    for _ in range(count):
        offset = rng.randrange(0, 1 << 30) * 512 if spc else rng.randrange(0, 1 << 36)
        records.append(
            TraceRecord(
                timestamp_s=float(round(rng.uniform(0.0, 100.0), 6)),
                offset_bytes=offset,
                size_bytes=rng.randrange(1, 1 << 18),
                is_read=rng.random() < 0.6,
                stream_id=rng.randrange(0, 4),
            )
        )
    return records


def _spc_line(record: TraceRecord) -> str:
    opcode = "R" if record.is_read else "W"
    return (
        f"{record.stream_id},{record.offset_bytes // 512},{record.size_bytes},"
        f"{opcode},{record.timestamp_s!r}"
    )


def _systor_line(record: TraceRecord) -> str:
    iotype = "R" if record.is_read else "W"
    return (
        f"{record.timestamp_s!r},0.001,{iotype},{record.stream_id},"
        f"{record.offset_bytes},{record.size_bytes}"
    )


def _serialize(records: list[TraceRecord], fmt: str, rng: random.Random) -> str:
    """Trace text with random blank/comment/header interleavings."""
    junk = ["", "# comment"] if fmt == "spc" else ["", "Timestamp,Response,IOType,LUN,Offset,Size"]
    line_for = _spc_line if fmt == "spc" else _systor_line
    lines = []
    for record in records:
        while rng.random() < 0.2:
            lines.append(rng.choice(junk))
        lines.append(line_for(record))
    return "\n".join(lines) + "\n"


def _write_trace(path: Path, text: str, *, compress: bool) -> Path:
    if compress:
        path = path.with_name(path.name + ".gz")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


class TestStreamingRoundTrip:
    """Property-based: random records -> text (plain/gzip) -> parse round-trips."""

    @pytest.mark.parametrize("fmt,suffix", [("spc", "t.spc"), ("systor", "t.csv")])
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_iterator_list_and_original_agree(self, tmp_path, fmt, suffix, compress):
        for seed in range(5):
            rng = random.Random(seed)
            records = _random_records(rng, 40, spc=(fmt == "spc"))
            path = _write_trace(
                tmp_path / f"{seed}-{suffix}", _serialize(records, fmt, rng), compress=compress
            )
            with RecordStream(path, fmt) as stream:
                assert list(stream) == records
            assert list(iter_trace_records(path, fmt)) == records
            # limit counts records, not lines, and prefixes agree with the full parse.
            k = rng.randrange(0, len(records) + 1)
            assert list(iter_trace_records(path, fmt, limit=k)) == records[:k]

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_cursor_resumes_record_sequence_exactly(self, tmp_path, compress):
        rng = random.Random(99)
        records = _random_records(rng, 60, spc=False)
        path = _write_trace(tmp_path / "t.csv", _serialize(records, "systor", rng), compress=compress)
        for split in (0, 1, 17, 59, 60):
            first = RecordStream(path, "systor")
            head = [next(first) for _ in range(split)]
            cursor = first.cursor
            first.close()
            assert cursor.record_index == split
            with RecordStream(path, "systor", cursor=cursor) as second:
                tail = list(second)
            assert head + tail == records


class TestStreamingErrors:
    def test_error_message_quotes_offending_line(self, tmp_path):
        path = tmp_path / "trace.spc"
        path.write_text("0,1,512,R,0.0\n0,oops,512,R,0.1\n")
        with pytest.raises(TraceFormatError, match=r"trace\.spc:2.*'0,oops,512,R,0\.1'"):
            list(iter_trace_records(path, "spc"))

    def test_error_message_truncates_long_lines(self, tmp_path):
        path = tmp_path / "trace.csv"
        long_line = "garbage" * 100
        path.write_text(long_line + "\n")
        with pytest.raises(TraceFormatError) as excinfo:
            list(iter_trace_records(path, "systor"))
        message = str(excinfo.value)
        assert message.endswith("...")
        assert long_line not in message  # truncated, not echoed wholesale

    def test_max_errors_counts_and_skips(self, tmp_path):
        rng = random.Random(4)
        records = _random_records(rng, 10, spc=True)
        lines = [_spc_line(record) for record in records]
        for position in (2, 5, 9):
            lines.insert(position, "this,is,not,valid,x")
        path = tmp_path / "t.spc"
        path.write_text("\n".join(lines) + "\n")
        with RecordStream(path, "spc", max_errors=3) as stream:
            assert list(stream) == records
            assert stream.cursor.skipped_lines == 3
        assert list(iter_trace_records(path, "spc", max_errors=3)) == records
        with pytest.raises(TraceFormatError):
            list(iter_trace_records(path, "spc", max_errors=2))
        with pytest.raises(TraceFormatError):
            list(iter_trace_records(path, "spc"))  # strict by default

    @pytest.mark.parametrize(
        "fmt,line",
        [
            ("spc", "0,16,4096,R,nan"),
            ("spc", "0,16,4096,R,-inf"),
            ("spc", "0,-16,4096,W,0.2"),
            ("spc", "0,16,-4096,W,0.2"),
            ("systor", "nan,0.1,R,0,8192,4096"),
            ("systor", "inf,0.1,R,0,8192,4096"),
            ("systor", "0.0003,0.1,W,0,-8192,-4096"),
            ("systor", "0.0003,0.1,W,0,8192,-4096"),
        ],
    )
    def test_out_of_range_input_is_rejected(self, tmp_path, fmt, line):
        """A non-finite timestamp or a negative offset or size is a malformed
        line, and a negative ``limit`` is refused like a negative ``max_errors``."""
        good = "0,16,4096,R,0.1" if fmt == "spc" else "0.1,0.1,R,0,8192,4096"
        path = tmp_path / ("t.spc" if fmt == "spc" else "t.csv")
        path.write_text(f"{good}\n{line}\n{good}\n")
        with pytest.raises(TraceFormatError, match=re.escape(f"{path}:2") + ".*" + re.escape(repr(line))):
            list(iter_trace_records(path, fmt))
        with RecordStream(path, fmt, max_errors=1) as stream:
            assert len(list(stream)) == 2
            assert stream.cursor.skipped_lines == 1
        with pytest.raises(TraceFormatError, match="limit"):
            RecordStream(path, fmt, limit=-1)

    def test_max_errors_must_be_non_negative(self, tmp_path):
        path = tmp_path / "t.spc"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            RecordStream(path, "spc", max_errors=-1)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "t.spc"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="unknown trace format"):
            RecordStream(path, "nope")


class TestFormatDetection:
    def test_suffix_detection_including_gz(self):
        assert trace_format_for("a/websearch.spc") == "spc"
        assert trace_format_for("a/websearch.SPC.gz") == "spc"
        assert trace_format_for("b/systor17.csv") == "systor"
        assert trace_format_for("b/systor17.csv.gz") == "systor"
        with pytest.raises(TraceFormatError):
            trace_format_for("trace.bin")

    def test_open_trace_is_gzip_transparent(self, tmp_path):
        plain = tmp_path / "t.csv"
        plain.write_bytes(b"hello\nworld\n")
        compressed = tmp_path / "t.csv.gz"
        with gzip.open(compressed, "wb") as handle:
            handle.write(b"hello\nworld\n")
        for path in (plain, compressed):
            with open_trace(path) as handle:
                assert handle.read() == b"hello\nworld\n"

    def test_cursor_dict_round_trip(self):
        cursor = TraceCursor(byte_offset=123, line_no=7, record_index=5, skipped_lines=1)
        assert TraceCursor.from_dict(cursor.as_dict()) == cursor
