"""Behavioural tests for TPFTL (prefetching, locality handling)."""

from __future__ import annotations

import pytest

from repro.ssd.request import CommandKind, HostRequest, OpType, ReadOutcome
from tests.conftest import command_kinds, make_ssd, random_reads, random_writes
from repro.workloads.fio import FioJob


@pytest.fixture
def ssd(tiny_geometry):
    return make_ssd("tpftl", tiny_geometry)


class TestPrefetching:
    def test_sequential_reads_hit_after_first_miss(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        job = FioJob.from_name("seqread", 200)
        ssd.run(job.requests(tiny_geometry), threads=1)
        assert ssd.stats.cmt_hit_ratio() > 0.6

    def test_random_reads_rarely_hit(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(ssd.geometry, 300, seed=4), threads=1)
        ssd.reset_stats()
        ssd.run(random_reads(tiny_geometry, 300), threads=1)
        assert ssd.stats.cmt_hit_ratio() < 0.4

    def test_sequential_hit_ratio_beats_dftl(self, tiny_geometry):
        results = {}
        for name in ("dftl", "tpftl"):
            ssd = make_ssd(name, tiny_geometry)
            ssd.fill_sequential(io_pages=8)
            ssd.reset_stats()
            ssd.run(FioJob.from_name("seqread", 300).requests(tiny_geometry), threads=1)
            results[name] = ssd.stats.cmt_hit_ratio()
        assert results["tpftl"] > results["dftl"]

    def test_prefetch_depth_adapts_to_request_length(self, ssd):
        ssd.fill_sequential(io_pages=8)
        for lpn in range(0, 64, 8):
            ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=lpn, npages=8))
        long_depth = ssd.ftl.loading.depth()
        for lpn in range(0, 64, 8):
            ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=(lpn * 37) % 64, npages=1))
        short_depth = ssd.ftl.loading.depth()
        assert long_depth >= short_depth

    def test_prefetch_does_not_cost_extra_flash_reads(self, ssd):
        ssd.fill_sequential(io_pages=8)
        # Drop the dirty bits left by the fill so the miss below does not also
        # trigger a dirty-eviction read-modify-write.
        ssd.ftl.cmt._dirty.clear()
        ssd.reset_stats()
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=40))
        # One translation read plus one data read at most, despite prefetching.
        assert command_kinds(buffer)[CommandKind.READ] <= 2


class TestCorrectness:
    def test_integrity_after_mixed_workload(self, warmed_ssd_factory):
        ssd = warmed_ssd_factory("tpftl")
        ssd.verify()

    def test_reads_return_newest_copy_outcome(self, ssd):
        ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=3))
        ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=3))
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=3))
        assert buffer.outcome_codes[0] in (ReadOutcome.CMT_HIT.code, ReadOutcome.DOUBLE_READ.code)
        ssd.verify()

    def test_multi_page_read_classifies_each_page(self, ssd):
        ssd.fill_sequential(io_pages=8)
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=16, npages=4))
        assert len(buffer.outcome_codes) == 4

    def test_gc_under_pressure_keeps_integrity(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(ssd.geometry, 450, seed=9, npages=2), threads=1)
        assert ssd.stats.gc_count > 0
        ssd.verify()
