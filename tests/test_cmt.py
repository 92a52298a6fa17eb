"""Tests for the cached mapping tables (DFTL entry-level, TPFTL page-grouped)."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cmt import PAGE_NODE_OVERHEAD_ENTRIES, EntryLevelCMT, EvictedPage, PageGroupedCMT
from repro.nand.errors import ConfigurationError

MAPPINGS_PER_PAGE = 64


def _hit(cmt, lpn: int) -> int | None:
    """A CMT hit as each design serves it: ``PageGroupedCMT.lookup``, or
    DFTL's inlined ``_entries.get`` plus ``move_to_end`` on the entry-level
    cache (``core/dftl.py``)."""
    if isinstance(cmt, PageGroupedCMT):
        return cmt.lookup(lpn)
    ppn = cmt._entries.get(lpn)
    if ppn is not None:
        cmt._entries.move_to_end(lpn)
    return ppn


class TestEntryLevelCMT:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            EntryLevelCMT(0, MAPPINGS_PER_PAGE)

    def test_miss_returns_none(self):
        cmt = EntryLevelCMT(4, MAPPINGS_PER_PAGE)
        assert _hit(cmt, 1) is None

    def test_insert_then_hit(self):
        cmt = EntryLevelCMT(4, MAPPINGS_PER_PAGE)
        cmt.insert(1, 100)
        assert _hit(cmt, 1) == 100
        assert 1 in cmt

    def test_update_existing_entry(self):
        cmt = EntryLevelCMT(4, MAPPINGS_PER_PAGE)
        cmt.insert(1, 100)
        evicted = cmt.insert(1, 200, dirty=True)
        assert evicted == []
        assert _hit(cmt, 1) == 200

    def test_lru_eviction_order(self):
        cmt = EntryLevelCMT(2, MAPPINGS_PER_PAGE)
        cmt.insert(1, 10)
        cmt.insert(2, 20)
        _hit(cmt, 1)          # 2 becomes the LRU entry
        cmt.insert(3, 30)
        assert 2 not in cmt
        assert 1 in cmt and 3 in cmt

    def test_clean_eviction_reports_nothing(self):
        cmt = EntryLevelCMT(1, MAPPINGS_PER_PAGE)
        cmt.insert(1, 10, dirty=False)
        evicted = cmt.insert(2, 20)
        assert evicted == []

    def test_dirty_eviction_groups_by_translation_page(self):
        cmt = EntryLevelCMT(1, MAPPINGS_PER_PAGE)
        cmt.insert(MAPPINGS_PER_PAGE + 3, 10, dirty=True)
        evicted = cmt.insert(5, 20)
        assert len(evicted) == 1
        assert evicted[0].tvpn == 1
        assert evicted[0].dirty_lpns == (MAPPINGS_PER_PAGE + 3,)

    def test_capacity_is_respected(self):
        cmt = EntryLevelCMT(8, MAPPINGS_PER_PAGE)
        for lpn in range(50):
            cmt.insert(lpn, lpn)
        assert len(cmt._entries) <= 8


class TestPageGroupedCMT:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            PageGroupedCMT(0, MAPPINGS_PER_PAGE)

    def test_insert_and_lookup(self):
        cmt = PageGroupedCMT(16, MAPPINGS_PER_PAGE)
        cmt.insert(1, 100)
        assert cmt.lookup(1) == 100
        assert 1 in cmt
        assert len(cmt._pages) == 1

    def test_entries_grouped_by_translation_page(self):
        cmt = PageGroupedCMT(32, MAPPINGS_PER_PAGE)
        cmt.insert(1, 10)
        cmt.insert(2, 20)
        cmt.insert(MAPPINGS_PER_PAGE + 1, 30)
        assert len(cmt._pages) == 2

    def test_insert_many_batches(self):
        cmt = PageGroupedCMT(32, MAPPINGS_PER_PAGE)
        cmt.insert_many([(1, 10), (2, 20), (3, 30)])
        assert len(cmt) == 3

    def test_eviction_is_node_granular(self):
        cmt = PageGroupedCMT(8, MAPPINGS_PER_PAGE)
        for lpn in range(4):
            cmt.insert(lpn, lpn, dirty=True)                     # node 0
        for lpn in range(MAPPINGS_PER_PAGE, MAPPINGS_PER_PAGE + 4):
            cmt.insert(lpn, lpn)                                 # node 1 pushes node 0 out
        assert 0 not in cmt
        assert MAPPINGS_PER_PAGE in cmt

    def test_dirty_eviction_reports_whole_page(self):
        cmt = PageGroupedCMT(8, MAPPINGS_PER_PAGE)
        for lpn in range(4):
            cmt.insert(lpn, lpn, dirty=True)
        evictions = []
        for lpn in range(MAPPINGS_PER_PAGE, MAPPINGS_PER_PAGE + 6):
            evictions.extend(cmt.insert(lpn, lpn))
        assert any(page.tvpn == 0 and len(page.dirty_lpns) == 4 for page in evictions)

    def test_memory_accounting_includes_node_overhead(self):
        cmt = PageGroupedCMT(32, MAPPINGS_PER_PAGE)
        cmt.insert(1, 10)
        assert cmt.memory_entries() > 1

    def test_capacity_respected_under_pressure(self):
        cmt = PageGroupedCMT(16, MAPPINGS_PER_PAGE)
        for lpn in range(0, 600, 3):
            cmt.insert(lpn, lpn)
        assert cmt.memory_entries() <= 16 + MAPPINGS_PER_PAGE  # never far above capacity

    def test_recency_protects_hot_node(self):
        cmt = PageGroupedCMT(10, MAPPINGS_PER_PAGE)
        cmt.insert(1, 10)
        for lpn in range(MAPPINGS_PER_PAGE, MAPPINGS_PER_PAGE + 3):
            cmt.insert(lpn, lpn)
        cmt.lookup(1)  # touch node 0 so node 1 is the LRU victim
        for lpn in range(2 * MAPPINGS_PER_PAGE, 2 * MAPPINGS_PER_PAGE + 4):
            cmt.insert(lpn, lpn)
        assert 1 in cmt

    def test_update_marks_dirty_sticky(self):
        cmt = PageGroupedCMT(16, MAPPINGS_PER_PAGE)
        cmt.insert(1, 10, dirty=True)
        cmt.insert(1, 20, dirty=False)
        assert _entries(cmt) == [(1, 20, True)]

    @given(
        lpns=st.lists(st.integers(0, 1023), min_size=1, max_size=300),
        capacity=st.integers(8, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_lookup_never_returns_stale_value(self, lpns, capacity):
        """Property: a hit always returns the most recently inserted PPN for that LPN."""
        cmt = PageGroupedCMT(capacity, MAPPINGS_PER_PAGE)
        latest: dict[int, int] = {}
        for i, lpn in enumerate(lpns):
            cmt.insert(lpn, i)
            latest[lpn] = i
            found = cmt.lookup(lpn)
            assert found == latest[lpn]
        for lpn, expected in latest.items():
            found = cmt.lookup(lpn)
            assert found is None or found == expected


class TestMembershipProbes:
    """``lpn in cmt`` is the read-only probe: it answers membership without
    refreshing recency, unlike a hit."""

    def test_entry_level_membership_matches_inserts(self):
        cmt = EntryLevelCMT(8, MAPPINGS_PER_PAGE)
        for lpn in range(5):
            cmt.insert(lpn, lpn + 100)
        assert [lpn in cmt for lpn in (0, 3, 7, 4)] == [True, True, False, True]

    def test_entry_level_membership_preserves_lru_order(self):
        cmt = EntryLevelCMT(8, MAPPINGS_PER_PAGE)
        for lpn in range(5):
            cmt.insert(lpn, lpn + 100)
        before = list(cmt._entries)
        assert all(lpn in cmt for lpn in (0, 1, 2))
        assert list(cmt._entries) == before  # probes never refresh recency

    def test_page_grouped_membership_matches_inserts(self):
        cmt = PageGroupedCMT(8, MAPPINGS_PER_PAGE)
        cmt.insert(3, 300)
        cmt.insert(MAPPINGS_PER_PAGE + 1, 400)
        probes = (3, MAPPINGS_PER_PAGE + 1, 5, MAPPINGS_PER_PAGE + 3, 2 * MAPPINGS_PER_PAGE)
        assert [lpn in cmt for lpn in probes] == [True, True, False, False, False]

    def test_page_grouped_membership_preserves_recency(self):
        cmt = PageGroupedCMT(16, MAPPINGS_PER_PAGE)
        for lpn in (1, 2, MAPPINGS_PER_PAGE + 1, 2 * MAPPINGS_PER_PAGE):
            cmt.insert(lpn, lpn + 100)
        before = _entries(cmt)
        assert all(lpn in cmt for lpn in (1, 2, MAPPINGS_PER_PAGE + 1))
        assert _entries(cmt) == before  # neither node nor entry order moves

    @pytest.mark.parametrize("cls", [EntryLevelCMT, PageGroupedCMT])
    def test_lookup_refreshes_recency(self, cls):
        cmt = cls(16, MAPPINGS_PER_PAGE)
        for lpn in (1, 2, MAPPINGS_PER_PAGE + 1):
            cmt.insert(lpn, lpn + 100)
        assert _hit(cmt, 1) == 101
        assert _entries(cmt)[-1] == (1, 101, False)

    @pytest.mark.parametrize("cls", [EntryLevelCMT, PageGroupedCMT])
    def test_evicted_lpn_is_no_longer_a_member(self, cls):
        cmt = cls(8, MAPPINGS_PER_PAGE)
        cmt.insert(4, 40)
        cmt.insert(5, 50)
        assert 4 in cmt
        for lpn in range(3 * MAPPINGS_PER_PAGE, 3 * MAPPINGS_PER_PAGE + 8):
            cmt.insert(lpn, lpn)
        assert 4 not in cmt
        assert _hit(cmt, 4) is None
        assert 4 not in {lpn for lpn, _, _ in _entries(cmt)}


class TestDirtyEntryCount:
    @staticmethod
    def _dirty_count(cmt) -> int:
        return sum(dirty for _, _, dirty in _entries(cmt))

    def test_dirty_entry_count_tracks_inserts_and_evictions(self):
        cmt = EntryLevelCMT(2, MAPPINGS_PER_PAGE)
        assert self._dirty_count(cmt) == 0
        cmt.insert(1, 10, dirty=False)
        cmt.insert(2, 20, dirty=True)
        assert self._dirty_count(cmt) == 1
        cmt.insert(2, 21, dirty=True)  # already dirty: no double count
        assert self._dirty_count(cmt) == 1
        cmt.insert(1, 11, dirty=True)  # clean entry dirtied in place
        assert self._dirty_count(cmt) == 2
        cmt.insert(3, 30, dirty=False)  # evicts LRU entry 2 (dirty)
        assert self._dirty_count(cmt) == 1

    def test_dirty_entry_count_survives_state_roundtrip(self):
        cmt = EntryLevelCMT(4, MAPPINGS_PER_PAGE)
        cmt.insert(1, 10, dirty=True)
        cmt.insert(2, 20, dirty=False)
        restored = EntryLevelCMT(4, MAPPINGS_PER_PAGE)
        restored.load_state(cmt.state_dict())
        assert _entries(restored) == _entries(cmt) == [(1, 10, True), (2, 20, False)]


# --------------------------------------------------- the dirty counter is exact
_LPNS = st.integers(0, 4 * MAPPINGS_PER_PAGE - 1)
_CMT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _LPNS, st.booleans()),
        st.tuples(st.just("insert_many"), st.lists(_LPNS, min_size=1, max_size=6), st.booleans()),
        st.tuples(st.just("load_node"), _LPNS, st.integers(1, 6)),
        st.tuples(st.just("lookup"), _LPNS),
        st.tuples(st.just("state_round_trip")),
    ),
    min_size=1,
    max_size=60,
)


def _by_hand_offs(cls):
    """The same cache with its single-mapping and node-level loads handed to
    ``insert_many``: what they report and leave must equal the per-mapping path."""

    class Reference(cls):
        def load_node(self, tvpn, batch):
            """The per-mapping path the node-level load must equal."""
            return self.insert_many(batch.items(), dirty=False)

        if hasattr(cls, "insert_many"):

            def insert(self, lpn, ppn, *, dirty=False):
                """The one-mapping batch the single insert must equal."""
                return self.insert_many([(lpn, ppn)], dirty=dirty)

    return Reference


class _CountingHandOffs(PageGroupedCMT):
    """Counts the node-level loads handed to the per-mapping path."""

    hand_offs = 0
    _loading = False

    def load_node(self, tvpn, batch):
        self._loading = True
        try:
            return super().load_node(tvpn, batch)
        finally:
            self._loading = False

    def insert_many(self, mappings, *, dirty=False):
        if self._loading:
            type(self).hand_offs += 1
        return super().insert_many(mappings, dirty=dirty)


def _apply(cmt, op, serial: int):
    """Run one op; returns ``(cmt, result)`` (a round trip replaces the cache)."""
    if op[0] == "insert":
        return cmt, cmt.insert(op[1], serial, dirty=op[2])
    if op[0] == "insert_many":
        mappings = [(lpn, serial + i) for i, lpn in enumerate(op[1])]
        if hasattr(cmt, "insert_many"):
            return cmt, cmt.insert_many(mappings, dirty=op[2])
        return cmt, [page for lpn, ppn in mappings for page in cmt.insert(lpn, ppn, dirty=op[2])]
    if op[0] == "load_node":
        # A miss load: the LPNs of [lpn, lpn + span) inside lpn's translation
        # page that the cache does not hold, loaded clean in one batch.
        tvpn = op[1] // MAPPINGS_PER_PAGE
        stop = min(op[1] + op[2], (tvpn + 1) * MAPPINGS_PER_PAGE)
        batch = {lpn: serial + lpn for lpn in range(op[1], stop) if lpn not in cmt}
        if not batch:
            return cmt, None
        if isinstance(cmt, EntryLevelCMT):
            return cmt, [page for lpn, ppn in batch.items() for page in cmt.insert(lpn, ppn)]
        return cmt, cmt.load_node(tvpn, batch)
    if op[0] == "lookup":
        return cmt, _hit(cmt, op[1])
    restored = type(cmt)(cmt.capacity_entries, cmt.mappings_per_page)
    restored.load_state(cmt.state_dict())
    return restored, None


def _entries(cmt) -> list[tuple[int, int, bool]]:
    """Every cached ``(lpn, ppn, dirty)`` in recency order.

    PPNs are read off the slots (bare ints) and dirty bits off the dirty
    sets, which must name cached LPNs only: one set per cache, or one
    non-empty set per translation page, holding LPNs of that page's node.
    """
    if isinstance(cmt, EntryLevelCMT):
        nodes = [cmt._entries]
        dirty = cmt._dirty
    else:
        nodes = cmt._pages.values()
        for tvpn, lpns in cmt._dirty.items():
            node = cmt._pages.get(tvpn, {})
            assert lpns and all(lpn in node for lpn in lpns), (tvpn, lpns)
        dirty = set().union(*cmt._dirty.values())
    entries = [(lpn, ppn, lpn in dirty) for node in nodes for lpn, ppn in node.items()]
    assert all(type(ppn) is int for _, ppn, _ in entries)
    assert sum(flag for _, _, flag in entries) == len(dirty)
    return entries


def _check_reports(before, after, op, result) -> None:
    """What an insert or load reports against the entries around it: every
    dirty mapping that left the cache is reported, and nothing else (a
    mapping the op itself wrote dirty may also be reported, even twice:
    evicted within the batch, then written and evicted again).  Each page's
    LPNs are ascending and of that page."""
    if op[0] not in ("insert", "insert_many", "load_node") or result is None:
        return
    reported = []
    for page in result:
        assert list(page.dirty_lpns) == sorted(page.dirty_lpns)
        assert {lpn // MAPPINGS_PER_PAGE for lpn in page.dirty_lpns} == {page.tvpn}
        reported.extend(page.dirty_lpns)
    written = {op[1]} if op[0] == "insert" else set(op[1]) if op[0] == "insert_many" else set()
    dirty_before = {lpn for lpn, _, flag in before if flag}
    if op[0] != "load_node" and op[2]:
        dirty_before |= written
    cached_after = {lpn for lpn, _, _ in after}
    assert dirty_before - cached_after <= set(reported) <= dirty_before


class TestDirtyCounterIsExact:
    """An eviction finds its write-back in the dirty sets without looking at
    a slot (and the batched planner tells a dirty node by membership), so
    the sets must name exactly the dirty cached mappings after any operation
    sequence (``_entries`` recounts them after every op), and every dirty
    mapping that leaves the cache must be reported.  The reference serves
    ``PageGroupedCMT.load_node`` through ``insert_many``, so the node-level
    load is pinned to the per-mapping path, its hand-off for a node that
    reaches the capacity alone included, and a dirty or clean ``insert``
    through ``insert_many`` of one mapping.  Every list an ``insert``
    returns is a new one."""

    @pytest.mark.parametrize("cls", [EntryLevelCMT, PageGroupedCMT])
    def test_counter_matches_recount_and_evictions_match_reference(self, cls):
        tested = _CountingHandOffs if cls is PageGroupedCMT else cls
        _CountingHandOffs.hand_offs = 0

        @given(ops=_CMT_OPS, capacity=st.integers(3, 24))
        @settings(max_examples=150, deadline=None)
        def check(ops, capacity):
            cmt = tested(capacity, MAPPINGS_PER_PAGE)
            reference = _by_hand_offs(cls)(capacity, MAPPINGS_PER_PAGE)
            inserted = []
            entries = []
            for serial, op in enumerate(ops):
                before = entries
                cmt, result = _apply(cmt, op, 10 * serial)
                reference, expected = _apply(reference, op, 10 * serial)
                assert result == expected
                if op[0] == "insert":
                    inserted.append(result)
                    assert len({id(returned) for returned in inserted}) == len(inserted)
                entries = _entries(cmt)
                _check_reports(before, entries, op, result)
                assert entries == _entries(reference)
                if cls is PageGroupedCMT:
                    assert cmt.memory_entries() == reference.memory_entries()

        check()
        if tested is _CountingHandOffs:
            assert _CountingHandOffs.hand_offs > 0


# ------------------------------------- plain-dict nodes against an OrderedDict model
class _OrderedDictModel:
    """The two-level cache, one mapping at a time, in ``OrderedDict`` nodes.

    Node order and the entry order inside a node run least to most recently
    used.  An insert or hit moves its entry and its node to the tail.  Over
    capacity, whole LRU nodes other than the written one are evicted; when
    that one node alone is still too big, its LRU entries other than the
    written one are.  A miss load is the per-mapping insert of its batch.
    ``reached`` counts the cases a run went through.
    """

    reached: dict[str, int] = {}

    def __init__(self, capacity: int, mappings_per_page: int) -> None:
        self.capacity = capacity
        self.per_page = mappings_per_page
        self.pages: OrderedDict[int, OrderedDict[int, int]] = OrderedDict()
        self.dirty: dict[int, set[int]] = {}
        self.size = 0

    def _count(self, case: str) -> None:
        self.reached[case] = self.reached.get(case, 0) + 1

    def lookup(self, lpn: int) -> int | None:
        tvpn = lpn // self.per_page
        node = self.pages.get(tvpn)
        if node is None or lpn not in node:
            return None
        self._count("hit")
        node.move_to_end(lpn)
        self.pages.move_to_end(tvpn)
        return node[lpn]

    def insert(self, lpn: int, ppn: int, dirty: bool) -> list[EvictedPage]:
        tvpn = lpn // self.per_page
        if tvpn not in self.pages:
            self.pages[tvpn] = OrderedDict()
            self.size += PAGE_NODE_OVERHEAD_ENTRIES
        node = self.pages[tvpn]
        if lpn not in node:
            self.size += 1
        node[lpn] = ppn
        node.move_to_end(lpn)
        self.pages.move_to_end(tvpn)
        if dirty:
            self.dirty.setdefault(tvpn, set()).add(lpn)
        return self._evict(tvpn, lpn)

    def insert_many(self, mappings, dirty: bool) -> list[EvictedPage]:
        return [page for lpn, ppn in mappings for page in self.insert(lpn, ppn, dirty)]

    def load_node(self, tvpn: int, batch: dict[int, int]) -> list[EvictedPage]:
        node = self.pages.get(tvpn)
        alone = len(batch) + PAGE_NODE_OVERHEAD_ENTRIES + (0 if node is None else len(node))
        if alone > self.capacity:
            self._count("oversized load")
        else:
            self._count("fresh load" if node is None else "existing load")
        return self.insert_many(batch.items(), False)

    def _evict(self, kept_tvpn: int, kept_lpn: int) -> list[EvictedPage]:
        evicted = []
        while self.size > self.capacity and len(self.pages) > 1:
            victim = next(tvpn for tvpn in self.pages if tvpn != kept_tvpn)
            self.size -= len(self.pages.pop(victim)) + PAGE_NODE_OVERHEAD_ENTRIES
            dirty = self.dirty.pop(victim, None)
            if dirty:
                evicted.append(EvictedPage(victim, tuple(sorted(dirty))))
        if self.size > self.capacity:
            self._count("entry fallback")
            node = self.pages[kept_tvpn]
            dirty = self.dirty.get(kept_tvpn, set())
            flushed = []
            while self.size > self.capacity and len(node) > 1:
                victim = next(lpn for lpn in node if lpn != kept_lpn)
                del node[victim]
                self.size -= 1
                if victim in dirty:
                    dirty.remove(victim)
                    flushed.append(victim)
            if len(node) == 1 and self.size > self.capacity:
                self._count("protected lpn kept")
            if flushed:
                if not dirty:
                    del self.dirty[kept_tvpn]
                evicted.append(EvictedPage(kept_tvpn, tuple(sorted(flushed))))
        return evicted


_MODEL_PER_PAGE = 8
_MODEL_LPNS = st.integers(0, 4 * _MODEL_PER_PAGE - 1)
_MODEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _MODEL_LPNS, st.booleans()),
        st.tuples(
            st.just("insert_many"), st.lists(_MODEL_LPNS, min_size=1, max_size=6), st.booleans()
        ),
        st.tuples(st.just("load_node"), _MODEL_LPNS, st.integers(1, _MODEL_PER_PAGE)),
        st.tuples(st.just("lookup"), _MODEL_LPNS),
        st.tuples(st.just("state_round_trip")),
    ),
    min_size=1,
    max_size=80,
)


class TestPlainDictNodesMatchTheOrderedDictModel:
    """``PageGroupedCMT`` keeps each node as a plain dict whose insertion
    order is the entry recency order, and takes a miss batch as the new
    node.  Every op's result and the whole cache after it (node order, entry
    order and PPNs inside each node, dirty sets, occupancy) must equal the
    ``OrderedDict`` model's."""

    def test_every_op_matches_the_model(self):
        _OrderedDictModel.reached = {}

        @given(ops=_MODEL_OPS, capacity=st.integers(1, 24))
        @settings(max_examples=300, deadline=None)
        def check(ops, capacity):
            cmt = PageGroupedCMT(capacity, _MODEL_PER_PAGE)
            model = _OrderedDictModel(capacity, _MODEL_PER_PAGE)
            for serial, op in enumerate(ops):
                ppn = 100 * serial
                if op[0] == "insert":
                    result = cmt.insert(op[1], ppn, dirty=op[2])
                    expected = model.insert(op[1], ppn, op[2])
                elif op[0] == "insert_many":
                    mappings = [(lpn, ppn + i) for i, lpn in enumerate(op[1])]
                    result = cmt.insert_many(mappings, dirty=op[2])
                    expected = model.insert_many(mappings, op[2])
                elif op[0] == "load_node":
                    tvpn = op[1] // _MODEL_PER_PAGE
                    stop = min(op[1] + op[2], (tvpn + 1) * _MODEL_PER_PAGE)
                    batch = {lpn: ppn + lpn for lpn in range(op[1], stop) if lpn not in cmt}
                    if not batch:
                        continue
                    expected = model.load_node(tvpn, dict(batch))
                    result = cmt.load_node(tvpn, batch)
                elif op[0] == "lookup":
                    result, expected = cmt.lookup(op[1]), model.lookup(op[1])
                else:
                    restored = PageGroupedCMT(capacity, _MODEL_PER_PAGE)
                    pages = restored._pages
                    restored.load_state(cmt.state_dict())
                    assert restored._pages is pages
                    cmt, result, expected = restored, None, None
                assert result == expected, op
                assert list(cmt._pages) == list(model.pages)
                assert [list(node.items()) for node in cmt._pages.values()] == [
                    list(node.items()) for node in model.pages.values()
                ]
                assert all(type(node) is dict for node in cmt._pages.values())
                assert cmt._dirty == model.dirty
                assert cmt.memory_entries() == model.size

        check()
        cases = (
            "hit", "fresh load", "existing load", "oversized load", "entry fallback", "protected lpn kept"
        )
        assert [case for case in cases if not _OrderedDictModel.reached.get(case)] == []


#: The designs whose FTL keeps a :mod:`repro.core.cmt` cache.
CACHED_FTL_NAMES = ("dftl", "tpftl", "learnedftl")


class TestCachedEntriesOnDevices:
    """The CMT of a device that ran GC and a batched read storm."""

    @staticmethod
    def _device(warmed_ssd_factory, ftl_name: str):
        import numpy as np

        from repro.ssd.request import RequestBatch

        ssd = warmed_ssd_factory(ftl_name)
        size = ssd.geometry.num_logical_pages
        rng = np.random.default_rng(7)
        ssd.run(RequestBatch.reads(rng.integers(0, size, size=1000)), threads=4, batch=128)
        return ssd

    @pytest.mark.parametrize("ftl_name", CACHED_FTL_NAMES)
    def test_hits_agree_with_the_directory(self, ftl_name, warmed_ssd_factory):
        import numpy as np

        ssd = self._device(warmed_ssd_factory, ftl_name)
        cached = _entries(ssd.ftl.cmt)
        assert cached
        lpns = np.array([lpn for lpn, _, _ in cached], dtype=np.int64)
        assert [ppn for _, ppn, _ in cached] == ssd.ftl.directory.lookup_many(lpns).tolist()

    @pytest.mark.parametrize("ftl_name", CACHED_FTL_NAMES)
    def test_members_are_exactly_the_cached_lpns(self, ftl_name, warmed_ssd_factory):
        ssd = self._device(warmed_ssd_factory, ftl_name)
        cmt = ssd.ftl.cmt
        members = {lpn for lpn in range(ssd.geometry.num_logical_pages) if lpn in cmt}
        assert members
        assert members == {lpn for lpn, _, _ in _entries(cmt)}
        assert len(members) == len(_entries(cmt))

    @pytest.mark.parametrize("ftl_name", CACHED_FTL_NAMES)
    def test_probing_leaves_the_cache_untouched(self, ftl_name, warmed_ssd_factory):
        ssd = self._device(warmed_ssd_factory, ftl_name)
        cmt = ssd.ftl.cmt
        before = _entries(cmt)
        members = [lpn in cmt for lpn in reversed(range(ssd.geometry.num_logical_pages))]
        assert sum(members) == len(before)
        assert _entries(cmt) == before
