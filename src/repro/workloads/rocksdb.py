"""A miniature LSM-tree key-value store ("RocksDB" stand-in) plus db_bench.

The paper evaluates RocksDB with ``db_bench`` (Section IV-D): the store is
filled with *fillseq* and *overwrite*, then *readrandom* and *readseq* measure
read performance.  The property that matters to the FTL is structural: an
LSM-tree converts random writes into large sequential writes (memtable flushes
and compactions) but spreads the pages of logically-adjacent keys over many
SSTable files, so random point lookups become random single-page reads over a
large LPN range — precisely the access pattern that defeats a demand-based
mapping cache.

:class:`MiniLSM` implements that structure directly on top of the simulated
SSD: a memtable, levelled SSTables stored as contiguous LPN extents, bloom
filters, flush and compaction.  :class:`DbBench` reproduces the four db_bench
phases used in the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.nand.errors import ConfigurationError
from repro.ssd.device import SSD
from repro.ssd.request import HostRequest, OpType

__all__ = ["ExtentAllocator", "SSTable", "MiniLSM", "DbBench"]


class ExtentAllocator:
    """First-fit allocator of contiguous LPN extents (a toy file system)."""

    def __init__(self, num_pages: int) -> None:
        if num_pages <= 0:
            raise ConfigurationError("extent allocator needs a positive page count")
        self._free: list[tuple[int, int]] = [(0, num_pages)]  # (start, length)

    def allocate(self, npages: int) -> int:
        """Allocate ``npages`` contiguous LPNs and return the first one."""
        if npages <= 0:
            raise ConfigurationError("extent length must be positive")
        for index, (start, length) in enumerate(self._free):
            if length >= npages:
                if length == npages:
                    del self._free[index]
                else:
                    self._free[index] = (start + npages, length - npages)
                return start
        raise ConfigurationError("extent allocator out of space")

    def free(self, start: int, npages: int) -> None:
        """Return an extent; adjacent free extents are coalesced."""
        self._free.append((start, npages))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for extent_start, extent_len in self._free:
            if merged and merged[-1][0] + merged[-1][1] == extent_start:
                merged[-1] = (merged[-1][0], merged[-1][1] + extent_len)
            else:
                merged.append((extent_start, extent_len))
        self._free = merged


@dataclass
class SSTable:
    """One sorted-string-table file stored as a contiguous LPN extent."""

    table_id: int
    level: int
    keys: list[int]
    start_lpn: int
    entries_per_page: int

    @property
    def npages(self) -> int:
        """Number of pages occupied by the table."""
        return max(1, -(-len(self.keys) // self.entries_per_page))

    @property
    def min_key(self) -> int:
        """Smallest key stored."""
        return self.keys[0]

    @property
    def max_key(self) -> int:
        """Largest key stored."""
        return self.keys[-1]

    def covers(self, key: int) -> bool:
        """True when the key falls inside the table's key range."""
        return self.min_key <= key <= self.max_key

    def contains(self, key: int) -> bool:
        """Exact membership (stands in for the bloom filter + index block)."""
        import bisect

        index = bisect.bisect_left(self.keys, key)
        return index < len(self.keys) and self.keys[index] == key

    def page_of(self, key: int) -> int:
        """LPN of the data block holding the key (in-memory index lookup)."""
        import bisect

        index = bisect.bisect_left(self.keys, key)
        return self.start_lpn + min(index, len(self.keys) - 1) // self.entries_per_page


@dataclass
class LSMStats:
    """Operation counters of the mini LSM-tree."""

    puts: int = 0
    gets: int = 0
    flushes: int = 0
    compactions: int = 0
    sstables_written: int = 0
    bloom_false_positives: int = 0


class MiniLSM:
    """Levelled LSM-tree running on a simulated SSD."""

    def __init__(
        self,
        ssd: SSD,
        *,
        memtable_entries: int = 1024,
        entries_per_page: int = 16,
        l0_table_limit: int = 4,
        level_size_ratio: int = 4,
        capacity_fraction: float = 0.9,
        bloom_false_positive_rate: float = 0.01,
        seed: int = 3,
    ) -> None:
        if memtable_entries <= 0 or entries_per_page <= 0:
            raise ConfigurationError("memtable_entries and entries_per_page must be positive")
        self.ssd = ssd
        self.memtable_entries = memtable_entries
        self.entries_per_page = entries_per_page
        self.l0_table_limit = l0_table_limit
        self.level_size_ratio = level_size_ratio
        self.bloom_false_positive_rate = bloom_false_positive_rate
        self._rng = random.Random(seed)
        usable = int(ssd.geometry.num_logical_pages * capacity_fraction)
        self.extents = ExtentAllocator(usable)
        self.memtable: dict[int, int] = {}
        self.levels: list[list[SSTable]] = [[]]
        self.stats = LSMStats()
        self._next_table_id = 0
        self._version = 0

    # ----------------------------------------------------------------- write
    def put(self, key: int) -> None:
        """Insert or update a key."""
        self._version += 1
        self.memtable[key] = self._version
        self.stats.puts += 1
        if len(self.memtable) >= self.memtable_entries:
            self.flush_memtable()

    def flush_memtable(self) -> None:
        """Sort the memtable and write it to a fresh L0 SSTable."""
        if not self.memtable:
            return
        keys = sorted(self.memtable)
        self.memtable.clear()
        table = self._write_sstable(keys, level=0)
        self.levels[0].insert(0, table)
        self.stats.flushes += 1
        if len(self.levels[0]) > self.l0_table_limit:
            self.compact(0)

    def _write_sstable(self, keys: list[int], level: int) -> SSTable:
        npages = max(1, -(-len(keys) // self.entries_per_page))
        start_lpn = self.extents.allocate(npages)
        self.ssd.submit(HostRequest(op=OpType.WRITE, lpn=start_lpn, npages=npages))
        self.stats.sstables_written += 1
        table = SSTable(
            table_id=self._next_table_id,
            level=level,
            keys=keys,
            start_lpn=start_lpn,
            entries_per_page=self.entries_per_page,
        )
        self._next_table_id += 1
        return table

    # ------------------------------------------------------------ compaction
    def compact(self, level: int) -> None:
        """Merge a level into the next one (size-tiered at L0, levelled below)."""
        while len(self.levels) <= level + 1:
            self.levels.append([])
        source = self.levels[level]
        if not source:
            return
        key_min = min(t.min_key for t in source)
        key_max = max(t.max_key for t in source)
        target = self.levels[level + 1]
        overlapping = [t for t in target if not (t.max_key < key_min or t.min_key > key_max)]
        untouched = [t for t in target if t not in overlapping]
        merge_inputs = source + overlapping
        merged_keys = sorted({key for table in merge_inputs for key in table.keys})
        # Compaction reads every input page and writes the merged output.
        for table in merge_inputs:
            self.ssd.submit(
                HostRequest(op=OpType.READ, lpn=table.start_lpn, npages=table.npages)
            )
        new_tables: list[SSTable] = []
        max_keys_per_table = self.memtable_entries * self.level_size_ratio
        for chunk_start in range(0, len(merged_keys), max_keys_per_table):
            chunk = merged_keys[chunk_start : chunk_start + max_keys_per_table]
            new_tables.append(self._write_sstable(chunk, level=level + 1))
        for table in merge_inputs:
            self.extents.free(table.start_lpn, table.npages)
        self.levels[level] = []
        self.levels[level + 1] = sorted(untouched + new_tables, key=lambda t: t.min_key)
        self.stats.compactions += 1
        # Cascade when the next level grew beyond its budget.
        level_budget = self.l0_table_limit * (self.level_size_ratio ** (level + 1))
        if len(self.levels[level + 1]) > level_budget:
            self.compact(level + 1)

    # ------------------------------------------------------------------ read
    def get(self, key: int) -> bool:
        """Point lookup; returns whether the key exists.

        Every SSTable probe that passes the (simulated) bloom filter costs one
        single-page read on the SSD, mirroring RocksDB's data-block read.
        """
        self.stats.gets += 1
        if key in self.memtable:
            return True
        for level, tables in enumerate(self.levels):
            iterable = tables if level == 0 else self._candidates(tables, key)
            for table in iterable:
                if not table.covers(key):
                    continue
                if table.contains(key):
                    self.ssd.submit(HostRequest(op=OpType.READ, lpn=table.page_of(key), npages=1))
                    return True
                if self._rng.random() < self.bloom_false_positive_rate:
                    self.stats.bloom_false_positives += 1
                    self.ssd.submit(HostRequest(op=OpType.READ, lpn=table.page_of(key), npages=1))
        return False

    @staticmethod
    def _candidates(tables: list[SSTable], key: int) -> Iterator[SSTable]:
        for table in tables:
            if table.covers(key):
                yield table
                return

    def scan_all(self) -> int:
        """Full-key-order scan (db_bench ``readseq``); returns pages read."""
        pages = 0
        for tables in self.levels:
            for table in tables:
                self.ssd.submit(
                    HostRequest(op=OpType.READ, lpn=table.start_lpn, npages=table.npages)
                )
                pages += table.npages
        return pages

    # ------------------------------------------------------------- reporting
    def key_count(self) -> int:
        """Distinct keys stored across the memtable and all levels."""
        keys = set(self.memtable)
        for tables in self.levels:
            for table in tables:
                keys.update(table.keys)
        return len(keys)

    def table_count(self) -> int:
        """Number of live SSTables."""
        return sum(len(tables) for tables in self.levels)


@dataclass
class DbBenchResult:
    """Outcome of one db_bench phase."""

    phase: str
    operations: int
    elapsed_us: float
    lsm_stats: LSMStats

    @property
    def ops_per_second(self) -> float:
        """Operations per simulated second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.operations / (self.elapsed_us / 1e6)


class DbBench:
    """The four db_bench phases used in the paper's RocksDB evaluation."""

    def __init__(self, lsm: MiniLSM, *, num_keys: int, seed: int = 5) -> None:
        if num_keys <= 0:
            raise ConfigurationError("num_keys must be positive")
        self.lsm = lsm
        self.num_keys = num_keys
        self._rng = random.Random(seed)

    def _timed(self, phase: str, operations: int, body) -> DbBenchResult:
        start = self.lsm.ssd.now_us
        body()
        elapsed = self.lsm.ssd.now_us - start
        return DbBenchResult(
            phase=phase, operations=operations, elapsed_us=elapsed, lsm_stats=self.lsm.stats
        )

    def fillseq(self) -> DbBenchResult:
        """Insert every key in ascending order."""
        return self._timed(
            "fillseq", self.num_keys, lambda: [self.lsm.put(key) for key in range(self.num_keys)]
        )

    def overwrite(self, operations: int | None = None) -> DbBenchResult:
        """Overwrite random keys (drives compaction)."""
        count = operations or self.num_keys
        return self._timed(
            "overwrite",
            count,
            lambda: [self.lsm.put(self._rng.randrange(self.num_keys)) for _ in range(count)],
        )

    def readrandom(self, operations: int) -> DbBenchResult:
        """Random point lookups."""
        return self._timed(
            "readrandom",
            operations,
            lambda: [self.lsm.get(self._rng.randrange(self.num_keys)) for _ in range(operations)],
        )

    def readseq(self) -> DbBenchResult:
        """Sequential scan of the whole store."""
        return self._timed("readseq", self.lsm.key_count(), self.lsm.scan_all)
