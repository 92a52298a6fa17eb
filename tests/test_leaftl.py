"""Behavioural tests for LeaFTL (learned segments, model cache, multi-reads)."""

from __future__ import annotations

import pytest

from repro.core.base import FTLConfig
from repro.core.leaftl import LeaFTL
from repro.replay import state_fingerprint
from repro.snapshot import load_snapshot, save_snapshot
from repro.ssd.request import CommandKind, HostRequest, OpType, ReadOutcome
from tests.conftest import command_kinds, make_ssd, random_reads, random_writes
from repro.workloads.fio import FioJob


@pytest.fixture
def ssd(tiny_geometry):
    return make_ssd("leaftl", tiny_geometry)


class TestWriteAndTraining:
    def test_recent_writes_served_from_buffer(self, ssd):
        ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=10))
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=10))
        assert buffer.outcome_codes == [ReadOutcome.BUFFER_HIT.code]
        assert command_kinds(buffer)[CommandKind.READ] == 1  # data only, no translation read

    def test_buffer_flush_creates_segments(self, ssd):
        capacity = ssd.ftl._buffer_capacity
        for lpn in range(capacity + 1):
            ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=lpn))
        assert ssd.ftl.segment_count() > 0

    def test_explicit_flush_clears_buffer(self, ssd):
        for lpn in range(10):
            ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=lpn))
        buffer = ssd.ftl.buffer.reset()
        ssd.ftl.flush_buffer()
        assert len(ssd.ftl._buffer) == 0
        assert ssd.ftl.segment_count() >= 1
        # One stage of translation-page write-backs, charged the training time.
        (stage,) = buffer.stages
        assert stage[0] > 0.0
        assert command_kinds(buffer)[CommandKind.PROGRAM] >= 1

    def test_sequential_writes_make_accurate_segments(self, ssd):
        for start in range(0, 64, 8):
            ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=start, npages=8))
        ssd.ftl.flush_buffer()
        segments = [
            seg for table in ssd.ftl._tables.values() for seg in table.segments()
        ]
        assert segments
        assert any(segment.is_accurate for segment in segments)

    def test_training_charges_compute_time(self, ssd):
        for lpn in range(16):
            ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=lpn))
        ssd.ftl.flush_buffer()
        assert ssd.ftl.stats.train_time_us > 0
        assert ssd.ftl.stats.sort_time_us > 0


class TestReadPath:
    def _fill_and_flush(self, ssd, pages=128):
        ssd.fill_sequential(io_pages=8, fraction=pages / ssd.geometry.num_logical_pages)
        ssd.ftl.flush_buffer()
        ssd.reset_stats()

    def test_accurate_cached_model_single_read(self, ssd):
        self._fill_and_flush(ssd)
        # Touch the LPN once to bring its translation page's segments into the cache.
        ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=5))
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=6))
        assert buffer.outcome_codes[0] in (ReadOutcome.MODEL_HIT.code, ReadOutcome.BUFFER_HIT.code)

    def test_model_cache_miss_costs_translation_read(self, tiny_geometry):
        # A one-byte model cache forces misses on every translation page switch.
        config = FTLConfig(min_cmt_entries=1, cmt_ratio=0.000001)
        ssd = make_ssd("leaftl", tiny_geometry, config=config)
        ssd.fill_sequential(io_pages=8)
        ssd.ftl.flush_buffer()
        ssd.reset_stats()
        far_apart = [HostRequest(op=OpType.READ, lpn=lpn) for lpn in (0, 200, 10, 300, 50)]
        ssd.run(far_apart, threads=1)
        outcomes = ssd.stats.read_outcomes
        assert outcomes[ReadOutcome.DOUBLE_READ] + outcomes[ReadOutcome.TRIPLE_READ] > 0

    def test_random_writes_cause_double_or_triple_reads(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(tiny_geometry, 500, seed=11), threads=1)
        ssd.ftl.flush_buffer()
        ssd.reset_stats()
        ssd.run(random_reads(tiny_geometry, 300, seed=12), threads=1)
        assert ssd.stats.double_read_fraction() + ssd.stats.triple_read_fraction() > 0.2

    def test_triple_reads_happen_with_cold_cache_and_bad_models(self, tiny_geometry):
        config = FTLConfig(min_cmt_entries=1, cmt_ratio=0.000001, leaftl_gamma=16.0)
        ssd = make_ssd("leaftl", tiny_geometry, config=config)
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(tiny_geometry, 400, seed=13), threads=1)
        ssd.ftl.flush_buffer()
        ssd.reset_stats()
        ssd.run(random_reads(tiny_geometry, 300, seed=14), threads=1)
        assert ssd.stats.read_outcomes[ReadOutcome.TRIPLE_READ] > 0

    def test_unmapped_read_served_without_flash(self, ssd):
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=100))
        assert command_kinds(buffer)[CommandKind.READ] == 0


class TestModelCache:
    def test_cache_respects_byte_budget(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.ftl.flush_buffer()
        ssd.run(random_reads(tiny_geometry, 200, seed=3), threads=1)
        assert ssd.ftl.memory_report()["model_cache_bytes"] <= ssd.ftl._cache_capacity_bytes * 2

    def test_buffer_capacity_scales_with_tiny_devices(self, tiny_geometry):
        ftl = LeaFTL(tiny_geometry)
        assert ftl._buffer_capacity <= tiny_geometry.num_logical_pages // 8 + 8


class TestCorrectness:
    def test_integrity_after_mixed_workload(self, warmed_ssd_factory):
        ssd = warmed_ssd_factory("leaftl")
        ssd.verify()

    def test_gc_feedback_keeps_reads_correct(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(tiny_geometry, 900, seed=21), threads=2)
        assert ssd.stats.gc_count > 0
        ssd.verify()
        # Reads after heavy GC still resolve: every outcome maps to the right data page.
        ssd.run(random_reads(tiny_geometry, 200, seed=22), threads=2)
        ssd.verify()

    def test_sequential_read_perf_not_worse_than_dftl(self, tiny_geometry):
        throughput = {}
        for name in ("dftl", "leaftl"):
            ssd = make_ssd(name, tiny_geometry)
            ssd.fill_sequential(io_pages=8)
            if name == "leaftl":
                ssd.ftl.flush_buffer()
            ssd.reset_stats()
            ssd.run(FioJob.seqread(300).requests(tiny_geometry), threads=2)
            throughput[name] = ssd.stats.throughput_mb_s()
        assert throughput["leaftl"] >= throughput["dftl"] * 0.8


class TestPinnedDeepTables:
    """LeaFTL end to end on deep segment tables, pinned to literals captured
    with the linear-scan segment table (the commit before it was replaced).

    The fingerprint covers the packed ``tables`` columns, so it also pins that
    images written by that implementation load unchanged.  Both fingerprints
    were re-pinned when a translation page moved by translation-pool GC
    stopped being counted as two flash reads (``FlashArray.total_reads`` is
    part of the state); the summary did not move.  They were re-pinned again
    when a misprediction probe of an unprogrammed page started being counted
    as a flash read (``total_reads`` 22 207 -> 22 326) and a GC event's flash
    time became the sum of its commands' own latencies (every
    ``gc_flash_time_us`` entry moves; the old sum charged the translation
    stage's reads at the program latency).
    """

    FINGERPRINT = "2e4c95cc0bcbf6fc139ff95f364799394a785c366d4bee1aa99517fcdaba1f78"
    FINGERPRINT_AFTER_MORE_READS = "3d9fe533c1d6fdc4e3194cb9e3c77acfb3a4b18dd9729a51d071b58655dfc21c"
    SUMMARY = {
        "cmt_hit_ratio": 0.6644117647058824,
        "double_read_fraction": 0.41441176470588237,
        "finish_time_us": 3427180.0,
        "flash_erases": 610.0,
        "flash_programs": 21335.0,
        "flash_reads": 22326.0,
        "gc_count": 475.0,
        "gc_pages_moved": 12383.0,
        "host_read_pages": 3400.0,
        "host_write_pages": 4536.0,
        "iops": 502.7456976289544,
        "model_hit_ratio": 0.41,
        "read_p999_us": 988.04000000001,
        "read_p99_us": 920.0,
        "single_read_fraction": 0.47823529411764704,
        "throughput_mb_s": 2.3711809709440415,
        "triple_read_fraction": 0.10735294117647058,
        "utilization": 0.46540012488401544,
        "write_amplification": 4.703483245149912,
        "write_p999_us": 189200.0,
        "write_p99_us": 174916.0,
    }

    def test_fingerprint_live_and_after_snapshot_round_trip(self, small_geometry, tmp_path):
        ssd = make_ssd("leaftl", small_geometry)
        ssd.fill_sequential(io_pages=32)
        ssd.overwrite_random(pages=3000, io_pages=8, seed=11, threads=2)
        assert max(table.num_levels for table in ssd.ftl._tables.values()) >= 4
        # Block GC hands every relocated mapping to ``_after_gc_move``, which
        # puts it back into the training buffer.
        assert ssd.stats.gc_count > 0 and ssd.stats.gc_pages_moved > 0
        reads = random_reads(small_geometry, 1000, seed=5)
        reads += random_reads(small_geometry, 300, seed=6, npages=8)
        ssd.run(reads, threads=4)
        assert state_fingerprint(ssd.state_dict()) == self.FINGERPRINT
        assert ssd.stats.summary() == self.SUMMARY

        save_snapshot(tmp_path / "image", ssd.state_dict())
        fresh = make_ssd("leaftl", small_geometry)
        fresh.load_state(load_snapshot(tmp_path / "image"))
        assert state_fingerprint(fresh.state_dict()) == self.FINGERPRINT

        more = random_reads(small_geometry, 500, seed=7)
        ssd.run(more, threads=4)
        fresh.run(more, threads=4)
        assert fresh.stats.read_outcomes == ssd.stats.read_outcomes
        assert fresh.stats.summary() == ssd.stats.summary()
        assert state_fingerprint(ssd.state_dict()) == self.FINGERPRINT_AFTER_MORE_READS
        assert state_fingerprint(fresh.state_dict()) == self.FINGERPRINT_AFTER_MORE_READS
