"""Behavioural tests for DFTL."""

from __future__ import annotations

import pytest

from repro.core.base import FTLConfig
from repro.core.dftl import DFTL
from repro.nand.flash import PAGE_INVALID, PAGE_VALID
from repro.ssd.request import (
    OP_STRIDE,
    PURPOSE_BY_CODE,
    CommandKind,
    CommandPurpose,
    HostRequest,
    OpType,
    ReadOutcome,
)
from tests.conftest import command_kinds, make_ssd, random_reads, random_writes


@pytest.fixture
def ssd(tiny_geometry):
    return make_ssd("dftl", tiny_geometry)


class TestWritePath:
    def test_write_programs_one_page_per_lpn(self, ssd):
        buffer = ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=0, npages=4))
        assert command_kinds(buffer)[CommandKind.PROGRAM] >= 4
        assert ssd.ftl.directory.is_mapped(0)
        assert ssd.ftl.directory.is_mapped(3)

    def test_overwrite_invalidates_old_copy(self, ssd):
        ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=5))
        first = ssd.ftl.directory.require(5)
        ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=5))
        second = ssd.ftl.directory.require(5)
        assert first != second
        assert ssd.ftl.flash.page_state_code(first) == PAGE_INVALID
        assert ssd.ftl.flash.page_state_code(second) == PAGE_VALID

    def test_dirty_eviction_writes_translation_page(self, tiny_geometry):
        config = FTLConfig(min_cmt_entries=4, cmt_ratio=0.0001)
        ssd = make_ssd("dftl", tiny_geometry, config=config)
        # More dirty mappings than the 4-entry CMT can hold forces flushes.
        for lpn in range(0, 64, 3):
            ssd.submit(HostRequest(op=OpType.WRITE, lpn=lpn))
        assert ssd.stats.flash_programs[CommandPurpose.TRANSLATION_WRITE] > 0
        assert ssd.ftl.translation_store.translation_writes > 0


class TestReadPath:
    def test_read_miss_is_double_read(self, ssd):
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=200))
        if ReadOutcome.DOUBLE_READ.code in buffer.outcome_codes:
            # Translation-page read plus data read (the CMT insertion may add a
            # read-modify-write for a dirty eviction on top).
            assert command_kinds(buffer)[CommandKind.READ] >= 2
            purposes = {PURPOSE_BY_CODE[code] for code in buffer.ops[::OP_STRIDE]}
            assert CommandPurpose.TRANSLATION_READ in purposes
            assert CommandPurpose.DATA_READ in purposes

    def test_read_hit_after_recent_write(self, ssd):
        ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=9))
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=9))
        assert buffer.outcome_codes == [ReadOutcome.CMT_HIT.code]
        assert command_kinds(buffer)[CommandKind.READ] == 1

    def test_unmapped_read_has_no_flash_access(self, ssd):
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=77))
        assert command_kinds(buffer)[CommandKind.READ] == 0
        assert buffer.outcome_codes == [ReadOutcome.BUFFER_HIT.code]

    def test_random_reads_mostly_double_after_thrash(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.overwrite_random(pages=400, io_pages=1, seed=2)
        ssd.reset_stats()
        ssd.run(random_reads(tiny_geometry, 400), threads=2)
        assert ssd.stats.double_read_fraction() > 0.5

    def test_no_model_hits_ever(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_reads(tiny_geometry, 100), threads=2)
        assert ssd.stats.read_outcomes[ReadOutcome.MODEL_HIT] == 0


class TestGC:
    def test_gc_keeps_mappings_valid(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(tiny_geometry, 800, seed=5), threads=2)
        assert ssd.stats.gc_count > 0
        ssd.verify()

    def test_gc_reads_and_writes_accounted(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(tiny_geometry, 800, seed=5), threads=2)
        assert ssd.stats.flash_reads[CommandPurpose.GC_READ] > 0
        assert ssd.stats.flash_programs[CommandPurpose.GC_WRITE] > 0
        assert ssd.stats.total_flash_erases > 0

    def test_write_amplification_above_one_under_random_writes(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        ssd.run(random_writes(tiny_geometry, 800, seed=5), threads=2)
        assert ssd.stats.write_amplification() > 1.0


class TestMemory:
    def test_cmt_capacity_respects_ratio(self, tiny_geometry):
        config = FTLConfig(cmt_ratio=0.03, min_cmt_entries=1)
        ftl = DFTL(tiny_geometry, config=config)
        assert ftl.cmt.hit_capacity() == max(1, int(tiny_geometry.num_logical_pages * 0.03))

    def test_memory_report_tracks_occupancy(self, ssd):
        ssd.ftl.encode(HostRequest(op=OpType.WRITE, lpn=1))
        report = ssd.ftl.memory_report()
        assert report["cmt_bytes"] >= 8
