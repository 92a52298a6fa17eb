"""Behavioural tests for the ideal full-page-mapping FTL."""

from __future__ import annotations

import pytest

from repro.ssd.request import CommandKind, CommandPurpose, HostRequest, OpType, ReadOutcome
from tests.conftest import command_kinds, make_ssd, random_reads, random_writes


@pytest.fixture
def ssd(tiny_geometry):
    return make_ssd("ideal", tiny_geometry)


class TestReads:
    def test_every_read_is_single(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        ssd.run(random_reads(tiny_geometry, 300), threads=2)
        assert ssd.stats.single_read_fraction() == 1.0
        assert ssd.stats.double_read_fraction() == 0.0

    def test_cmt_hit_ratio_is_one(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        ssd.run(random_reads(tiny_geometry, 100), threads=1)
        assert ssd.stats.cmt_hit_ratio() == 1.0

    def test_no_translation_reads_ever(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_reads(tiny_geometry, 200), threads=1)
        assert ssd.stats.flash_reads[CommandPurpose.TRANSLATION_READ] == 0

    def test_unmapped_read_without_flash(self, ssd):
        buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=3))
        assert command_kinds(buffer)[CommandKind.READ] == 0
        assert buffer.outcome_codes == [ReadOutcome.BUFFER_HIT.code]


class TestWritesAndGC:
    def test_no_translation_writes(self, ssd, tiny_geometry):
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(tiny_geometry, 800, seed=3), threads=2)
        assert ssd.stats.flash_programs[CommandPurpose.TRANSLATION_WRITE] == 0
        assert ssd.stats.gc_count > 0

    def test_lowest_write_amplification_of_demand_designs(self, tiny_geometry):
        waf = {}
        for name in ("ideal", "dftl"):
            ssd = make_ssd(name, tiny_geometry)
            ssd.fill_sequential(io_pages=8)
            ssd.reset_stats()
            ssd.run(random_writes(tiny_geometry, 800, seed=4), threads=2)
            waf[name] = ssd.stats.write_amplification()
        assert waf["ideal"] <= waf["dftl"]

    def test_integrity_after_gc(self, warmed_ssd_factory):
        ssd = warmed_ssd_factory("ideal")
        ssd.verify()

    def test_memory_report_is_full_table(self, ssd, tiny_geometry):
        assert ssd.ftl.memory_report()["mapping_table_bytes"] == tiny_geometry.num_logical_pages * 8
