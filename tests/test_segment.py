"""Tests for LeaFTL segments and the log-structured segment table."""

from __future__ import annotations

import gc
import sys
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learned.segment import (
    SEGMENT_BYTES,
    LearnedSegment,
    LogStructuredSegmentTable,
    build_segments,
    pack_tables,
    unpack_tables,
)


def _segment(start: int, length: int, base: int, slope: float = 1.0) -> LearnedSegment:
    return LearnedSegment(start_lpn=start, slope=slope, length=length, intercept=float(base))


class TestLearnedSegment:
    def test_predict_linear(self):
        seg = _segment(100, 10, 5000)
        assert seg.predict(100) == 5000
        assert seg.predict(105) == 5005

    def test_covers_range(self):
        seg = _segment(100, 10, 0)
        assert seg.covers(100) and seg.covers(109)
        assert not seg.covers(110) and not seg.covers(99)

    def test_accuracy_flag(self):
        assert _segment(0, 4, 0).is_accurate
        assert not LearnedSegment(start_lpn=0, slope=1.0, length=4, intercept=0.0, max_error=2.0).is_accurate

    def test_overlaps(self):
        a = _segment(0, 10, 0)
        b = _segment(5, 10, 0)
        c = _segment(10, 5, 0)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_memory_bytes(self):
        assert _segment(0, 4, 0).memory_bytes() == 16


class TestBuildSegments:
    def test_linear_mappings_single_accurate_segment(self):
        lpns = list(range(50))
        vppns = [1000 + x for x in lpns]
        segments = build_segments(lpns, vppns)
        assert len(segments) == 1
        assert segments[0].is_accurate
        assert segments[0].predict(25) == 1025

    def test_scattered_mappings_more_segments(self):
        lpns = [1, 5, 9, 20, 21, 22]
        vppns = [500, 100, 900, 50, 51, 52]
        segments = build_segments(lpns, vppns, gamma=0.5)
        assert len(segments) >= 2
        # Every LPN must be covered by (at least) the segment starting at or before it.
        for lpn in lpns:
            assert any(s.start_lpn <= lpn < s.start_lpn + s.length for s in segments)

    def test_gamma_controls_segment_count(self):
        lpns = list(range(0, 120, 2))
        vppns = [x * 2 + (x % 5) for x in lpns]
        assert len(build_segments(lpns, vppns, gamma=8.0)) <= len(
            build_segments(lpns, vppns, gamma=0.5)
        )


class TestLSMT:
    def test_lookup_empty(self):
        table = LogStructuredSegmentTable()
        assert table.lookup(5) is None

    def test_insert_and_lookup(self):
        table = LogStructuredSegmentTable()
        table.insert(_segment(0, 10, 100))
        found = table.lookup(3)
        assert found is not None
        assert found.predict(3) == 103

    def test_newer_segment_shadows_older(self):
        table = LogStructuredSegmentTable()
        table.insert(_segment(0, 10, 100))
        table.insert(_segment(0, 10, 900))
        assert table.lookup(5).predict(5) == 905
        assert table.num_levels >= 2

    def test_non_overlapping_segments_share_level(self):
        table = LogStructuredSegmentTable()
        table.insert(_segment(0, 10, 100))
        table.insert(_segment(20, 10, 200))
        assert table.num_levels == 1
        assert table.lookup(25).predict(25) == 205

    def test_lookup_outside_any_segment(self):
        table = LogStructuredSegmentTable()
        table.insert(_segment(0, 10, 100))
        assert table.lookup(50) is None

    def test_partial_overlap_keeps_old_tail_reachable(self):
        table = LogStructuredSegmentTable()
        table.insert(_segment(0, 20, 100))     # covers 0-19
        table.insert(_segment(5, 5, 900))      # covers 5-9, demotes the old one
        assert table.lookup(7).predict(7) == 902
        assert table.lookup(15).predict(15) == 115  # still served by the demoted segment

    def test_segment_count_and_memory(self):
        table = LogStructuredSegmentTable()
        table.insert_many([_segment(0, 10, 1), _segment(20, 10, 2)])
        assert table.segment_count() == 2
        assert table.memory_bytes() == 32

    def test_compact_drops_fully_shadowed_segments(self):
        table = LogStructuredSegmentTable()
        table.insert(_segment(0, 10, 100))
        table.insert(_segment(0, 10, 200))  # fully shadows the first
        removed = table.compact()
        assert removed == 1
        assert table.segment_count() == 1
        assert table.lookup(4).predict(4) == 204

    def test_compact_keeps_partially_visible_segments(self):
        table = LogStructuredSegmentTable()
        table.insert(_segment(0, 20, 100))
        table.insert(_segment(0, 10, 200))
        removed = table.compact()
        assert removed == 0
        assert table.lookup(15).predict(15) == 115

    @given(
        updates=st.lists(
            st.tuples(st.integers(0, 50), st.integers(1, 8), st.integers(0, 5000)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_lookup_always_returns_newest_covering_segment(self, updates):
        """Property: the LSMT behaves like a versioned interval map."""
        table = LogStructuredSegmentTable()
        reference: dict[int, int] = {}
        for start, length, base in updates:
            table.insert(_segment(start, length, base))
            for lpn in range(start, start + length):
                reference[lpn] = base + (lpn - start)
        for lpn, expected in reference.items():
            found = table.lookup(lpn)
            assert found is not None
            assert found.predict(lpn) == expected


# ------------------------------------------------- differential vs. linear scan
class _LinearScanTable:
    """The retired linear-scan table, kept verbatim as the test oracle.

    Insert scans the whole level calling ``overlaps`` on every resident and
    demotes depth-first; lookup rebuilds the start list per level; ``compact``
    subtracts every earlier segment's interval from each candidate.
    """

    def __init__(self) -> None:
        self._levels: list[list[LearnedSegment]] = []

    def insert(self, segment: LearnedSegment) -> None:
        self._insert_at(segment, 0)

    def insert_many(self, segments) -> None:
        for segment in segments:
            self.insert(segment)

    def _insert_at(self, segment: LearnedSegment, level: int) -> None:
        while len(self._levels) <= level:
            self._levels.append([])
        bucket = self._levels[level]
        displaced: list[LearnedSegment] = []
        kept: list[LearnedSegment] = []
        for existing in bucket:
            if existing.overlaps(segment):
                displaced.append(existing)
            else:
                kept.append(existing)
        index = bisect_right([s.start_lpn for s in kept], segment.start_lpn)
        kept.insert(index, segment)
        self._levels[level] = kept
        for old in displaced:
            self._insert_at(old, level + 1)

    def compact(self) -> int:
        removed = 0
        covered: list[tuple[int, int]] = []
        new_levels: list[list[LearnedSegment]] = []
        for level in self._levels:
            surviving = []
            for segment in level:
                if _fully_covered(segment, covered):
                    removed += 1
                else:
                    surviving.append(segment)
                    covered.append((segment.start_lpn, segment.end_lpn))
            new_levels.append(surviving)
        self._levels = [lvl for lvl in new_levels if lvl]
        return removed

    def lookup(self, lpn: int) -> LearnedSegment | None:
        for level in self._levels:
            starts = [s.start_lpn for s in level]
            index = bisect_right(starts, lpn) - 1
            if index >= 0 and level[index].covers(lpn):
                return level[index]
        return None

    def segment_count(self) -> int:
        return sum(len(level) for level in self._levels)

    def memory_bytes(self) -> int:
        return self.segment_count() * SEGMENT_BYTES


def _fully_covered(segment: LearnedSegment, covered: list[tuple[int, int]]) -> bool:
    """True when every LPN of ``segment`` falls inside ``covered`` intervals."""
    remaining = [(segment.start_lpn, segment.end_lpn)]
    for lo, hi in covered:
        next_remaining: list[tuple[int, int]] = []
        for a, b in remaining:
            if hi <= a or b <= lo:
                next_remaining.append((a, b))
                continue
            if a < lo:
                next_remaining.append((a, lo))
            if hi < b:
                next_remaining.append((hi, b))
        remaining = next_remaining
        if not remaining:
            return True
    return not remaining


_SPAN = 48


@st.composite
def _span_segments(draw):
    """One segment inside ``[0, _SPAN)``: any start, 1..16 LPNs, three slopes,
    accurate or approximate.  The span is small on purpose so that overlapping,
    nested, adjacent (touching) and single-LPN segments all turn up often."""
    start = draw(st.integers(0, _SPAN - 1))
    length = draw(st.integers(1, min(16, _SPAN - start)))
    return LearnedSegment(
        start_lpn=start,
        slope=draw(st.sampled_from((0.0, 0.5, 1.0))),
        length=length,
        intercept=float(draw(st.integers(0, 4000))),
        max_error=draw(st.sampled_from((0.0, 2.0))),
    )


_STEPS = st.lists(
    st.one_of(st.lists(_span_segments(), min_size=1, max_size=6), st.just("compact")),
    min_size=1,
    max_size=24,
)


def _assert_packed_equal(packed: dict, expected: dict) -> None:
    assert packed.keys() == expected.keys()
    for key, column in packed.items():
        assert column.dtype == expected[key].dtype
        assert column.tolist() == expected[key].tolist()


class TestLinearScanDifferential:
    @given(steps=_STEPS)
    @settings(max_examples=250, deadline=None)
    def test_matches_the_retired_implementation_step_by_step(self, steps):
        table = LogStructuredSegmentTable()
        oracle = _LinearScanTable()
        for step in steps:
            if step == "compact":
                assert table.compact() == oracle.compact()
            elif len(step) == 1:
                table.insert(step[0])
                oracle.insert(step[0])
            else:
                table.insert_many(step)
                oracle.insert_many(step)
            # Dataclass equality, list equality: contents *and* order.
            assert table._levels == oracle._levels
            assert table._starts == [[s.start_lpn for s in level] for level in table._levels]
            assert table.segment_count() == oracle.segment_count()
            assert table.memory_bytes() == oracle.memory_bytes()
            for lpn in range(-1, _SPAN + 1):
                assert table.lookup(lpn) == oracle.lookup(lpn)
            packed = pack_tables({7: table})
            _assert_packed_equal(packed, pack_tables({7: oracle}))
            restored = unpack_tables(packed)[7]
            assert restored._levels == table._levels
            assert restored._starts == table._starts

    def test_touching_runs_shadow_a_segment_spanning_both(self):
        # [0, 8) + [8, 16) leave no LPN of [4, 12) visible: coverage must merge
        # touching intervals, as the interval subtraction always concluded.
        for cls in (LogStructuredSegmentTable, _LinearScanTable):
            table = cls()
            table.insert(_segment(4, 8, 100))
            table.insert_many([_segment(0, 8, 200), _segment(8, 8, 300)])
            assert table.compact() == 1
            assert table.segment_count() == 2

    def test_restored_table_keeps_inserting_and_compacting(self):
        table = LogStructuredSegmentTable()
        oracle = _LinearScanTable()
        first = [_segment(0, 8, 10), _segment(8, 8, 20), _segment(20, 4, 30), _segment(2, 4, 40)]
        table.insert_many(first)
        oracle.insert_many(first)
        restored = unpack_tables(pack_tables({3: table}))[3]
        later = [_segment(6, 6, 50), _segment(0, 2, 60), _segment(19, 2, 70)]
        restored.insert_many(later)
        oracle.insert_many(later)
        assert restored.compact() == oracle.compact()
        assert restored._levels == oracle._levels
        assert all(restored.lookup(lpn) == oracle.lookup(lpn) for lpn in range(-1, 26))


# ------------------------------------------------------- complexity regression
def _python_calls(run) -> int:
    """Python-level function calls made by ``run`` (the ledger's
    ``py.calls_per_op`` counter: exact and repeatable, unlike a timing).

    The cyclic collector is drained first and kept off while ``run`` is
    profiled: a collection that fires inside ``run`` executes the finalizers
    of garbage left by earlier tests, and those calls would be counted too.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    return calls


def _disjoint_table(residents: int) -> LogStructuredSegmentTable:
    """``residents`` 4-LPN segments at a stride of 8: one level, gaps between."""
    table = LogStructuredSegmentTable()
    table.insert_many(_segment(8 * i, 4, 8 * i) for i in range(residents))
    assert table.num_levels == 1 and table.segment_count() == residents
    return table


class TestCallCountsDoNotGrowWithResidents:
    """A per-resident scan cannot silently come back: the number of Python
    calls one operation makes is the same at 256 and at 4 096 residents."""

    @staticmethod
    def _calls_per_operation(residents: int) -> dict[str, int]:
        table = _disjoint_table(residents)
        middle = 8 * (residents // 2)
        calls = {
            # Lands in a gap: displaces nothing.
            "insert_gap": _python_calls(lambda: table.insert(_segment(middle + 4, 4, 1))),
            # Covers one resident exactly: demotes it to a new level.
            "insert_displacing": _python_calls(lambda: table.insert(_segment(middle, 4, 2))),
            # Cuts into one resident and swallows the next: demotes both.
            "insert_straddling": _python_calls(lambda: table.insert(_segment(middle + 10, 12, 3))),
            "lookup": _python_calls(lambda: table.lookup(middle + 1)),
        }
        assert table.num_levels == 2 and table.segment_count() == residents + 3
        calls["compact"] = _python_calls(table.compact)
        assert table.segment_count() == residents + 1  # the two fully covered ones went
        return calls

    def test_insert_lookup_and_compact_cost_the_same_calls_at_16x_the_size(self):
        small = self._calls_per_operation(256)
        large = self._calls_per_operation(4096)
        assert small == large
