"""Cached mapping tables (CMTs).

Two CMT organizations are provided:

* :class:`EntryLevelCMT` — the classic DFTL cache: an LRU over individual
  LPN->PPN entries.  Each dirty eviction forces a read-modify-write of the
  victim entry's translation page.

* :class:`PageGroupedCMT` — the TPFTL-style two-level cache: entries are
  grouped under their translation page, recency is tracked per translation
  page, and eviction writes back a whole translation page's dirty entries at
  once.  It also supports the prefetching that TPFTL's workload-adaptive
  loading policy performs on a miss.  The node order is an ``OrderedDict``;
  each node is a plain ``dict`` whose insertion order is its entry recency
  order (a hit re-inserts its entry at the end), so the batch a miss loads
  becomes the new node as it is.

:class:`LoadingPolicy` is that loading policy, stated once: TPFTL and
LearnedFTL each own one next to their :class:`PageGroupedCMT`, and
LearnedFTL's batched read planner (:mod:`repro.core.batch`) calls it.

Capacity is expressed in *entries* so experiments can size the cache as a
percentage of the full mapping table, exactly as the paper does (3 % for
DFTL/TPFTL/LeaFTL, 1.5 % for LearnedFTL).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import chain, compress
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from repro.nand.errors import ConfigurationError

__all__ = ["CMTEntry", "EvictedPage", "EntryLevelCMT", "LoadingPolicy", "PageGroupedCMT"]

#: In-memory overhead (expressed in mapping-entry units) charged per cached
#: translation-page node in the two-level CMT.  TPFTL's node header holds the
#: TVPN, a pointer and LRU links; two 8-byte entries is a fair approximation.
PAGE_NODE_OVERHEAD_ENTRIES = 2


@dataclass(slots=True)
class CMTEntry:
    """One cached LPN -> PPN mapping.

    Documents the logical schema of a cache slot.  The caches below store a
    slot as its bare PPN (``lpn -> ppn`` in a dict whose order is the
    recency order: an ``OrderedDict`` in :class:`EntryLevelCMT`, a plain
    ``dict`` per node in :class:`PageGroupedCMT`) and keep the dirty bit out
    of the slot: the dirty LPNs live in a set, one per translation page in
    :class:`PageGroupedCMT` and one per cache in :class:`EntryLevelCMT`.
    Slots are created and discarded millions of times per simulated run, and
    an eviction then finds the LPNs it must write back without looking at a
    slot.
    """

    ppn: int
    dirty: bool = False


class EvictedPage(NamedTuple):
    """Dirty mappings evicted together, grouped by translation page.

    ``dirty_lpns`` is in ascending order.
    """

    tvpn: int
    dirty_lpns: tuple[int, ...]


class EntryLevelCMT:
    """DFTL's entry-granularity LRU mapping cache."""

    def __init__(self, capacity_entries: int, mappings_per_page: int) -> None:
        if capacity_entries <= 0:
            raise ConfigurationError("CMT capacity must be at least one entry")
        self.capacity_entries = capacity_entries
        self.mappings_per_page = mappings_per_page
        # lpn -> ppn, least to most recently used.
        self._entries: OrderedDict[int, int] = OrderedDict()
        # The cached LPNs whose mapping their translation page does not hold yet.
        self._dirty: set[int] = set()

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._entries

    def insert(self, lpn: int, ppn: int, *, dirty: bool = False) -> list[EvictedPage]:
        """Insert or update a mapping; returns dirty evictions needed to make room.

        A clean update never cleans a dirty entry: only the write-back does.
        """
        entries = self._entries
        if lpn in entries:
            entries[lpn] = ppn
            entries.move_to_end(lpn)
            if dirty:
                self._dirty.add(lpn)
            return []
        evicted: list[EvictedPage] = []
        dirty_lpns = self._dirty
        while len(entries) >= self.capacity_entries:
            victim_lpn, _ = entries.popitem(last=False)
            if victim_lpn in dirty_lpns:
                dirty_lpns.remove(victim_lpn)
                evicted.append(
                    EvictedPage(
                        tvpn=victim_lpn // self.mappings_per_page,
                        dirty_lpns=(victim_lpn,),
                    )
                )
        entries[lpn] = ppn
        if dirty:
            dirty_lpns.add(lpn)
        return evicted

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture the cached entries in LRU-to-MRU order."""
        entries = self._entries
        count = len(entries)
        lpns = np.fromiter(entries.keys(), dtype=np.int64, count=count)
        ppns = np.fromiter(entries.values(), dtype=np.int64, count=count)
        dirty = np.fromiter(map(self._dirty.__contains__, entries), dtype=np.uint8, count=count)
        return {"lpns": lpns, "ppns": ppns, "dirty": dirty}

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore the cache **in place**, preserving exact recency order
        (hot paths hold direct references to the entry dict)."""
        lpns = state["lpns"].tolist()
        self._entries.clear()
        self._entries.update(zip(lpns, state["ppns"].tolist()))
        self._dirty.clear()
        self._dirty.update(compress(lpns, state["dirty"].tolist()))


class PageGroupedCMT:
    """TPFTL-style two-level (translation page -> entries) mapping cache."""

    def __init__(self, capacity_entries: int, mappings_per_page: int) -> None:
        if capacity_entries <= 0:
            raise ConfigurationError("CMT capacity must be at least one entry")
        self.capacity_entries = capacity_entries
        self.mappings_per_page = mappings_per_page
        # tvpn -> (lpn -> ppn); nodes and the entries of a node are each
        # ordered least to most recently used.  A node is a plain dict: an
        # entry moves to the recency tail by ``node[lpn] = node.pop(lpn)``,
        # and its LRU entry is ``next(iter(node))``.
        self._pages: OrderedDict[int, dict[int, int]] = OrderedDict()
        # tvpn -> the node's dirty LPNs.  A node without dirty entries has no
        # key, so evicting a node finds its write-back with one pop, and the
        # batched read planner tells a dirty node by membership.
        self._dirty: dict[int, set[int]] = {}
        self._size_entries = 0

    # ------------------------------------------------------------ accounting
    def __len__(self) -> int:
        return sum(map(len, self._pages.values()))

    def memory_entries(self) -> int:
        """Occupancy in entry units, including per-node overhead."""
        return self._size_entries

    def __contains__(self, lpn: int) -> bool:
        node = self._pages.get(lpn // self.mappings_per_page)
        return node is not None and lpn in node

    # --------------------------------------------------------------- lookup
    def lookup(self, lpn: int) -> int | None:
        """Return the cached PPN of an LPN (refreshing recency) or ``None``."""
        tvpn = lpn // self.mappings_per_page
        node = self._pages.get(tvpn)
        if node is None:
            return None
        ppn = node.pop(lpn, None)
        if ppn is None:
            return None
        node[lpn] = ppn
        self._pages.move_to_end(tvpn)
        return ppn

    # -------------------------------------------------------------- updates
    def insert(self, lpn: int, ppn: int, *, dirty: bool = False) -> list[EvictedPage]:
        """Insert or update one mapping; returns dirty evictions made for room.

        The one-mapping case of :meth:`insert_many`, stated directly: it
        leaves the cache, and returns (as a new list), what
        ``insert_many([(lpn, ppn)], dirty=dirty)`` does.  Host writes and GC
        refreshes of cached mappings call it once per page.  A clean update
        never cleans a dirty entry: only the write-back does.
        """
        tvpn = lpn // self.mappings_per_page
        pages = self._pages
        node = pages.get(tvpn)
        if node is None:
            pages[tvpn] = {lpn: ppn}
            self._size_entries += PAGE_NODE_OVERHEAD_ENTRIES + 1
        else:
            # A cached entry leaves its place and is re-inserted at the tail.
            if node.pop(lpn, None) is None:
                self._size_entries += 1
            node[lpn] = ppn
            pages.move_to_end(tvpn)
        if dirty:
            dirty_lpns = self._dirty.get(tvpn)
            if dirty_lpns is None:
                self._dirty[tvpn] = {lpn}
            else:
                dirty_lpns.add(lpn)
        if self._size_entries > self.capacity_entries:
            return self._evict_until_fits(exclude_tvpn=tvpn, exclude_lpn=lpn)
        return []

    def insert_many(self, mappings: Iterable[tuple[int, int]], *, dirty: bool = False) -> list[EvictedPage]:
        """Insert or update a batch of mappings, one at a time.

        Writes and GC moves use it (dirty or not), and so do the miss loads
        :meth:`load_node` hands off.
        """
        evicted: list[EvictedPage] = []
        pages = self._pages
        dirty_sets = self._dirty
        mappings_per_page = self.mappings_per_page
        capacity = self.capacity_entries
        for lpn, ppn in mappings:
            tvpn = lpn // mappings_per_page
            node = pages.get(tvpn)
            if node is None:
                # Fresh node: creating it already puts it at the recency tail,
                # and the entry cannot pre-exist, so both the membership probe
                # and the recency move are skipped.
                pages[tvpn] = {lpn: ppn}
                self._size_entries += PAGE_NODE_OVERHEAD_ENTRIES + 1
            else:
                if node.pop(lpn, None) is None:
                    self._size_entries += 1
                node[lpn] = ppn
                pages.move_to_end(tvpn)
            if dirty:
                dirty_lpns = dirty_sets.get(tvpn)
                if dirty_lpns is None:
                    dirty_sets[tvpn] = {lpn}
                else:
                    dirty_lpns.add(lpn)
            if self._size_entries > capacity:
                evicted.extend(self._evict_until_fits(exclude_tvpn=tvpn, exclude_lpn=lpn))
        return evicted

    def load_node(self, tvpn: int, batch: dict[int, int]) -> list[EvictedPage]:
        """Load clean mappings of translation page ``tvpn`` in one step.

        ``batch`` is a miss load (``lpn -> ppn``, in load order, as
        :meth:`LoadingPolicy.scan` builds it): the missed mapping plus its
        prefetched neighbours, none of them cached.  The cache takes
        ownership of it: an uncached page's new node *is* ``batch``, and a
        cached node is extended with one ``update``.  A load costs one node
        lookup, one recency move, one capacity check after the whole batch
        and whole-node LRU eviction.  It leaves the cache, and returns the
        dirty evictions, exactly as ``insert_many(batch.items(),
        dirty=False)`` does: evicting after each mapping and once after the
        batch remove the same LRU prefix of nodes, and the loaded node is the
        most recently used in both.  Only when the loaded node alone would
        exceed the capacity can the per-mapping entry fallback differ, so
        that case is handed to :meth:`insert_many`.
        """
        pages = self._pages
        node = pages.get(tvpn)
        capacity = self.capacity_entries
        grown = len(batch)
        if node is None:
            grown += PAGE_NODE_OVERHEAD_ENTRIES
            if grown > capacity:
                return self.insert_many(batch.items(), dirty=False)
            pages[tvpn] = batch
        else:
            if len(node) + grown + PAGE_NODE_OVERHEAD_ENTRIES > capacity:
                return self.insert_many(batch.items(), dirty=False)
            pages.move_to_end(tvpn)
            node.update(batch)
        size = self._size_entries + grown
        evicted: list[EvictedPage] = []
        # The loaded node fits alone and is the most recently used, so the
        # LRU node is never it while the cache is over capacity.
        if size > capacity:
            dirty_sets = self._dirty
            while size > capacity:
                victim_tvpn, victim = pages.popitem(last=False)
                size -= len(victim) + PAGE_NODE_OVERHEAD_ENTRIES
                dirty_lpns = dirty_sets.pop(victim_tvpn, None)
                if dirty_lpns is not None:
                    evicted.append(EvictedPage(victim_tvpn, tuple(sorted(dirty_lpns))))
        self._size_entries = size
        return evicted

    def _evict_until_fits(self, *, exclude_tvpn: int, exclude_lpn: int) -> list[EvictedPage]:
        evicted: list[EvictedPage] = []
        pages = self._pages
        dirty_sets = self._dirty
        # First evict whole LRU translation-page nodes (TPFTL's normal policy).
        while self._size_entries > self.capacity_entries and len(pages) > 1:
            victim_tvpn = next(iter(pages))
            if victim_tvpn == exclude_tvpn:
                # Re-queue the protected node and try the next-oldest one.
                pages.move_to_end(victim_tvpn)
                victim_tvpn = next(iter(pages))
                if victim_tvpn == exclude_tvpn:
                    break
            node = pages.pop(victim_tvpn)
            self._size_entries -= len(node) + PAGE_NODE_OVERHEAD_ENTRIES
            dirty_lpns = dirty_sets.pop(victim_tvpn, None)
            if dirty_lpns is not None:
                evicted.append(EvictedPage(victim_tvpn, tuple(sorted(dirty_lpns))))
        # If a single node alone exceeds the capacity, fall back to evicting its
        # least-recently-used entries (never the one just inserted).
        if self._size_entries > self.capacity_entries and len(pages) == 1:
            tvpn, node = next(iter(pages.items()))
            node_dirty = dirty_sets.get(tvpn, set())
            flushed: list[int] = []
            while self._size_entries > self.capacity_entries and len(node) > 1:
                victim_lpn = next(iter(node))
                if victim_lpn == exclude_lpn:
                    node[victim_lpn] = node.pop(victim_lpn)
                    victim_lpn = next(iter(node))
                    if victim_lpn == exclude_lpn:
                        break
                del node[victim_lpn]
                self._size_entries -= 1
                if victim_lpn in node_dirty:
                    node_dirty.remove(victim_lpn)
                    flushed.append(victim_lpn)
            if flushed:
                if not node_dirty:
                    del dirty_sets[tvpn]
                evicted.append(EvictedPage(tvpn=tvpn, dirty_lpns=tuple(sorted(flushed))))
        return evicted

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture nodes (LRU-to-MRU) and their entries (LRU-to-MRU within a node)."""
        pages = self._pages
        total = len(self)
        node_tvpns = np.fromiter(pages.keys(), dtype=np.int64, count=len(pages))
        node_sizes = np.fromiter(map(len, pages.values()), dtype=np.int64, count=len(pages))
        lpns = np.fromiter(chain.from_iterable(pages.values()), dtype=np.int64, count=total)
        ppns = np.fromiter(
            chain.from_iterable(node.values() for node in pages.values()),
            dtype=np.int64,
            count=total,
        )
        dirty_lpns = np.fromiter(chain.from_iterable(self._dirty.values()), dtype=np.int64)
        return {
            "node_tvpns": node_tvpns,
            "node_sizes": node_sizes,
            "lpns": lpns,
            "ppns": ppns,
            "dirty": np.isin(lpns, dirty_lpns).astype(np.uint8),
            "size_entries": self._size_entries,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore the two-level cache **in place** with exact recency orders."""
        pages = self._pages
        pages.clear()
        lpns = state["lpns"].tolist()
        ppns = state["ppns"].tolist()
        index = 0
        for tvpn, size in zip(state["node_tvpns"].tolist(), state["node_sizes"].tolist()):
            pages[tvpn] = dict(zip(lpns[index : index + size], ppns[index : index + size]))
            index += size
        dirty_sets = self._dirty
        dirty_sets.clear()
        for lpn in compress(lpns, state["dirty"].tolist()):
            dirty_sets.setdefault(lpn // self.mappings_per_page, set()).add(lpn)
        self._size_entries = int(state["size_entries"])


class LoadingPolicy:
    """TPFTL's workload-adaptive loading policy over a :class:`PageGroupedCMT`.

    :meth:`observe` tracks the lengths of the last :attr:`window` host
    requests (with their running sum) and the streak of requests that each
    start where the previous one ended.  A CMT miss loads the missed mapping
    plus the following mapped LPNs of its translation page (:meth:`load`), as
    many as :meth:`depth` allows: long or sequential requests reach the full
    depth quickly, random 4 KB reads stay at depth 2.

    LearnedFTL's batched read planner (:class:`repro.core.batch.GroupedReadPlanner`)
    observes a request chunk as columns: :meth:`observe_run` gives every
    request's post-observation depth in one NumPy pass, and
    :meth:`commit_run` leaves what :meth:`observe` calls over a stretch of
    the chunk's reads leave.  A
    miss in either path builds its batch with :meth:`scan` and loads it with
    :meth:`PageGroupedCMT.load_node`.
    """

    #: Number of recent request lengths the depth rule averages over.
    window = 32
    #: Cap of the sequential-streak counter.
    streak_cap = 64

    __slots__ = (
        "lengths",
        "length_sum",
        "streak",
        "last_end",
        "ceiling",
        "_cmt",
        "_pages",
        "_column",
        "_mappings_per_page",
        "_num_logical_pages",
    )

    def __init__(
        self,
        cmt: PageGroupedCMT,
        column: Sequence[int],
        num_logical_pages: int,
        prefetch_max_entries: int,
    ) -> None:
        self.lengths: deque[int] = deque(maxlen=self.window)
        #: Running sum of :attr:`lengths` (exact: integer page counts), so the
        #: per-miss depth is O(1) instead of O(window).
        self.length_sum = 0
        self.streak = 0
        self.last_end: int | None = None
        # Never prefetch more than half the cache: loading one long run must
        # not evict the mappings another thread is about to use.
        self.ceiling = min(prefetch_max_entries, max(1, cmt.capacity_entries // 2))
        self._cmt = cmt
        self._pages = cmt._pages  # never reassigned
        # The directory's LPN -> PPN column (-1: unmapped), read in place.
        self._column = column
        self._mappings_per_page = cmt.mappings_per_page
        self._num_logical_pages = num_logical_pages

    def observe(self, lpn: int, npages: int) -> None:
        """Record one host request's length and whether it continues the last one."""
        lengths = self.lengths
        if len(lengths) == self.window:
            self.length_sum -= lengths[0]
        self.length_sum += npages
        lengths.append(npages)
        if lpn == self.last_end:
            self.streak = min(self.streak + 1, self.streak_cap)
        else:
            self.streak = 0
        self.last_end = lpn + npages

    def depth(self) -> int:
        """How many consecutive LPNs, the missed one included, a miss loads."""
        window = len(self.lengths)
        if not window:
            return 1
        depth = int(round(self.length_sum / window * 2)) + 2 * self.streak
        return depth if depth < self.ceiling else self.ceiling

    def observe_run(
        self, lpns: np.ndarray, npages: np.ndarray
    ) -> tuple[list[int], list[int], list[int]]:
        """Columns of ``observe(lpn, npages)`` over a run of requests.

        Returns ``(depths, length_sums, streaks)``: entry ``i`` is what
        :meth:`depth`, :attr:`length_sum` and :attr:`streak` read after the
        run's first ``i + 1`` requests are observed, one at a time, from the
        current state.  Nothing is changed; :meth:`commit_run` applies a
        stretch of requests the planner served, :meth:`observe` any other.
        """
        n = len(lpns)
        # Window: the last ``window`` lengths of the held ones then the run's.
        held = len(self.lengths)
        lengths = np.concatenate((np.fromiter(self.lengths, np.int64, held), npages))
        totals = np.concatenate(([0], np.cumsum(lengths)))
        ends = np.arange(held + 1, held + n + 1, dtype=np.int64)
        starts = np.maximum(ends - self.window, 0)
        sums = totals[ends] - totals[starts]
        widths = ends - starts
        # Streak: +1 (saturating) per request starting where the last one ended.
        index = np.arange(n, dtype=np.int64)
        continues = np.empty(n, dtype=bool)
        continues[1:] = lpns[1:] == lpns[:-1] + npages[:-1]
        if n:
            continues[0] = self.last_end is not None and lpns[0] == self.last_end
        last_break = np.maximum.accumulate(np.where(continues, -1, index))
        streaks = index - last_break
        streaks[last_break < 0] += self.streak
        np.minimum(streaks, self.streak_cap, out=streaks)
        depths = np.rint(sums / widths * 2).astype(np.int64) + 2 * streaks
        np.minimum(depths, self.ceiling, out=depths)
        return depths.tolist(), sums.tolist(), streaks.tolist()

    def commit_run(self, npages: Sequence[int], length_sum: int, streak: int, last_end: int) -> None:
        """Leave what ``observe(lpn, npages[i])`` over a stretch of requests leaves.

        ``npages`` holds the stretch's page counts, in order; ``length_sum``
        and ``streak`` are the :meth:`observe_run` values of its last
        request, ``last_end`` that request's LPN plus its page count.
        """
        self.lengths.extend(npages)
        self.length_sum = length_sum
        self.streak = streak
        self.last_end = last_end

    def scan(self, lpn: int, ppn: int, tvpn: int, depth: int, node: dict | None) -> dict[int, int]:
        """The batch a miss on ``lpn`` (mapped to ``ppn``) loads, as ``lpn -> ppn``.

        The missed mapping, then the mapped LPNs after ``lpn`` in its
        translation page ``tvpn``, up to ``depth`` LPNs in all, that ``node``
        (the page's cached node, or ``None``) does not already hold.  The
        dict is in that order, so :meth:`PageGroupedCMT.load_node` can keep
        it as the page's new node.
        """
        batch = {lpn: ppn}
        if depth > 1:
            stop = (tvpn + 1) * self._mappings_per_page
            if stop > self._num_logical_pages:
                stop = self._num_logical_pages
            if lpn + depth < stop:
                stop = lpn + depth
            column = self._column
            for neighbour in range(lpn + 1, stop):
                neighbour_ppn = column[neighbour]
                if neighbour_ppn != -1 and (node is None or neighbour not in node):
                    batch[neighbour] = neighbour_ppn
        return batch

    def load(self, lpn: int, ppn: int, tvpn: int) -> list[EvictedPage]:
        """Load a missed mapping plus its neighbour batch; returns dirty evictions."""
        batch = self.scan(lpn, ppn, tvpn, self.depth(), self._pages.get(tvpn))
        return self._cmt.load_node(tvpn, batch)

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """The observed window, last request end and streak (the ``"locality"`` entry)."""
        return {
            "recent_lengths": list(self.lengths),
            "last_lpn_end": self.last_end,
            "sequential_streak": self.streak,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict`'s fields in place."""
        self.lengths.clear()
        self.lengths.extend(state["recent_lengths"])
        self.length_sum = sum(self.lengths)
        self.last_end = state["last_lpn_end"]
        self.streak = int(state["sequential_streak"])
