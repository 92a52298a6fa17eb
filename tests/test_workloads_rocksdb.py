"""Tests for the mini-LSM key-value store and its db_bench driver."""

from __future__ import annotations

import pytest

from repro.nand.errors import ConfigurationError
from repro.ssd.device import SSD
from repro.workloads.rocksdb import DbBench, ExtentAllocator, MiniLSM


@pytest.fixture
def ssd(tiny_geometry) -> SSD:
    return SSD.create("ideal", tiny_geometry)


@pytest.fixture
def lsm(ssd) -> MiniLSM:
    return MiniLSM(ssd, memtable_entries=32, entries_per_page=8, capacity_fraction=0.6)


class TestExtentAllocator:
    def test_allocate_and_free_roundtrip(self):
        alloc = ExtentAllocator(100)
        start = alloc.allocate(10)
        assert start == 0
        assert alloc._free == [(10, 90)]
        alloc.free(start, 10)
        assert alloc._free == [(0, 100)]

    def test_adjacent_extents_coalesce(self):
        alloc = ExtentAllocator(100)
        a = alloc.allocate(10)
        b = alloc.allocate(10)
        alloc.free(a, 10)
        alloc.free(b, 10)
        assert alloc.allocate(20) == 0

    def test_out_of_space(self):
        alloc = ExtentAllocator(8)
        alloc.allocate(8)
        with pytest.raises(ConfigurationError):
            alloc.allocate(1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            ExtentAllocator(0)
        with pytest.raises(ConfigurationError):
            ExtentAllocator(10).allocate(0)


class TestMiniLSM:
    def test_put_buffers_in_memtable(self, lsm):
        lsm.put(1)
        assert 1 in lsm.memtable
        assert lsm.table_count() == 0

    def test_memtable_flush_creates_sstable(self, lsm):
        for key in range(32):
            lsm.put(key)
        assert lsm.table_count() >= 1
        assert lsm.stats.flushes >= 1
        assert not lsm.memtable

    def test_get_finds_flushed_keys(self, lsm):
        for key in range(40):
            lsm.put(key)
        lsm.flush_memtable()
        assert lsm.get(5)
        assert lsm.get(39)
        assert not lsm.get(500)

    def test_get_issues_flash_reads(self, lsm, ssd):
        for key in range(40):
            lsm.put(key)
        lsm.flush_memtable()
        before = ssd.stats.host_read_pages
        lsm.get(7)
        assert ssd.stats.host_read_pages > before

    def test_overwrites_resolve_to_latest_version(self, lsm):
        for key in range(40):
            lsm.put(key)
        for key in range(10):
            lsm.put(key)
        lsm.flush_memtable()
        assert lsm.key_count() == 40

    def test_compaction_bounds_l0(self, lsm):
        for key in range(32 * (lsm.l0_table_limit + 3)):
            lsm.put(key)
        lsm.flush_memtable()
        assert len(lsm.levels[0]) <= lsm.l0_table_limit
        assert lsm.stats.compactions >= 1

    def test_compaction_preserves_all_keys(self, lsm):
        keys = list(range(0, 300, 3))
        for key in keys:
            lsm.put(key)
        lsm.flush_memtable()
        for key in keys:
            assert lsm.get(key), f"key {key} lost after compaction"

    def test_scan_all_reads_every_table(self, lsm):
        for key in range(100):
            lsm.put(key)
        lsm.flush_memtable()
        pages = lsm.scan_all()
        assert pages >= sum(t.npages for tables in lsm.levels for t in tables)

    def test_lsm_workload_keeps_ftl_consistent(self, tiny_geometry):
        ssd = SSD.create("learnedftl", tiny_geometry)
        lsm = MiniLSM(ssd, memtable_entries=32, entries_per_page=8, capacity_fraction=0.6)
        for key in range(400):
            lsm.put(key % 150)
        lsm.flush_memtable()
        for key in range(0, 150, 7):
            assert lsm.get(key)
        ssd.verify()


class TestDbBench:
    def test_rejects_bad_key_count(self, lsm):
        with pytest.raises(ConfigurationError):
            DbBench(lsm, num_keys=0)

    def test_fillseq_inserts_all_keys(self, lsm):
        bench = DbBench(lsm, num_keys=200)
        result = bench.fillseq()
        lsm.flush_memtable()
        assert result.operations == 200
        assert lsm.key_count() == 200
        assert result.ops_per_second > 0

    def test_overwrite_does_not_grow_key_space(self, lsm):
        bench = DbBench(lsm, num_keys=150)
        bench.fillseq()
        bench.overwrite(150)
        lsm.flush_memtable()
        assert lsm.key_count() == 150

    def test_readrandom_touches_flash(self, lsm, ssd):
        bench = DbBench(lsm, num_keys=200)
        bench.fillseq()
        lsm.flush_memtable()
        before = ssd.stats.host_read_pages
        result = bench.readrandom(100)
        assert result.operations == 100
        assert ssd.stats.host_read_pages > before

    def test_readseq_scans_store(self, lsm):
        bench = DbBench(lsm, num_keys=200)
        bench.fillseq()
        lsm.flush_memtable()
        result = bench.readseq()
        assert result.operations == 200
