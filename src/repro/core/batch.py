"""Array-at-a-time read planner: the FTL layer of the device's read kernel.

The device's host loop (``SSD.run`` and ``SSD.replay``, one loop with two
issue rules) splits each request chunk into maximal runs of reads, of any
length, and runs of writes.  For a chunk that holds a read run it asks the
FTL, once, for a *planner* over the whole chunk
(:meth:`repro.core.base.FTLBase.begin_read_run`); LearnedFTL builds one.
The planner front-loads the vectorizable work — NumPy gathers over the
chunk's columns — and a read run is then a cursor range over those columns,
served incrementally:

* :meth:`take` consumes requests from the cursor up to the end of the run
  for as long as the fast-path predicate holds, applying **exactly** the
  cache/statistics mutations the request step would (same LRU moves in the
  same order, same counter increments), and returns the chip columns of
  the pages it served for the timing engine;
* the first request the predicate rejects is left untouched — the device
  executes it through the request step (``encode``/``execute_buffer``),
  calls :meth:`skip`, and resumes :meth:`take`;
* every write goes through the request step, after which the device calls
  :meth:`refresh`.

Writes have no planner: each FTL states its write path once, in ``write``.
The gathers happen once per chunk, not once per run or per fallback, so a
chunk of short read runs between writes pays the fixed NumPy cost once.

The columns are *page* columns: a read of ``n`` pages is ``n`` consecutive
positions (request ``i``'s pages start at ``_starts[i]``; a write has none).

Why the pre-gathered columns hold, and when they are refreshed.  A read
served by :meth:`take` only moves CMT entries, loads clean mappings and
counts; a refused read runs the request step, which may in addition write
back the translation page of a dirty CMT eviction and collect a
translation-pool block to make room for it.  None of these touches the
mapping directory, a model (its pieces or its bitmap bits) or a data page's
state, so these columns, gathered at construction, hold across every read:

* the **directory PPN** of every page, and whether that data page can be
  read (mapped, not ``PAGE_FREE`` and inside the logical space);
* its **data-read chip** (a take's ``data_chips`` is a slice of this column:
  a served page always reads its directory PPN, because a CMT hit whose
  cached PPN differs from it is refused);
* its **model bit** and the **VPPN** a set bit's prediction must equal, as
  one column: the VPPN of its directory PPN where the bit (read from
  LearnedFTL's fleet bit column) is set, ``-1`` where it is clear.
  ``ppn_to_vppn`` is a bijection, so comparing VPPNs is comparing PPNs.

Writes change them, and :meth:`refresh` re-reads only what a run of writes
could have changed:

* a single-page write that runs no group GC moves only its own LPN, to a
  freshly programmed page with its model bit cleared, so the later read
  pages of that LPN are patched in place;
* a multi-page write that runs no group GC moves only its own LPNs and may
  replace (by sequential initialization) the models of the translation
  pages it covers, so the later read pages on those translation pages are
  re-read;
* a group GC (relocations, erases and the only retraining, seen as a new
  entry in the statistics' GC events) can move any LPN or set any bit of
  its entries, so the rest of the chunk is gathered again.

The loading policy's post-observation **depths** hold for the whole chunk
without refresh: LearnedFTL observes every request exactly once, in order,
with its ``(lpn, npages)``, whichever path serves it (the request step's
``read``/``write`` observe it; :meth:`take` commits what it serves), so
:meth:`~repro.core.cmt.LoadingPolicy.observe_run` over the chunk's LPN and
page-count columns gives every request's depth up front.

What a fallback *does* change — cache dicts, the CMT's dirty sets and size,
translation-page locations and states — the planner re-reads live, per
accepted request.

LearnedFTL is the one design with a read planner,
:class:`GroupedReadPlanner`: it serves CMT hits, model hits and double-read
misses whose prefetch loads evict no dirty node.  TPFTL's loading policy
(:class:`~repro.core.cmt.LoadingPolicy`) states its rules once and the
planner calls them: a miss builds its batch with
:meth:`~repro.core.cmt.LoadingPolicy.scan` and loads it with
:meth:`~repro.core.cmt.PageGroupedCMT.load_node`, and each :meth:`take`
commits its accepted requests' observations, with their page counts, once
(:meth:`~repro.core.cmt.LoadingPolicy.commit_run`), so a refused request is
left unobserved for the request step.

``take`` stops — triggering one request step — at the first request the
fast path cannot express.  A single-page read is refused at its page: an
unreadable page (unmapped or outside the logical space: the step's
zero-fill; ``PAGE_FREE``: the step raises), a cached PPN off the directory,
a model inconsistency, a free translation page, or a load that would evict
a dirty node (the LRU nodes ``load_node`` would pop are walked exactly).  A
multi-page read is checked whole before any of its pages is served
(:meth:`GroupedReadPlanner._accepts`, side-effect free): every page must
pass the single-page checks, and since an earlier page's load changes what
a later page finds, the dirty-eviction check is a conservative bound on all
its loads.  Once accepted, its pages are served in order with exactly
``_translate_read``'s mutations.  The step serves a refused request in
full (raising where it raises) and the planner resumes after it.

Every other design serves every request through the request step
(:meth:`~repro.core.base.FTLBase.begin_read_run` returns ``None``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.cmt import PAGE_NODE_OVERHEAD_ENTRIES
from repro.nand.flash import PAGE_FREE
from repro.ssd.request import OP_READ_CODE, OP_WRITE_CODE, ReadOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.learnedftl import LearnedFTL

__all__ = ["GroupedReadPlanner"]

_OUT_CMT_HIT = ReadOutcome.CMT_HIT.code
_OUT_MODEL_HIT = ReadOutcome.MODEL_HIT.code
_OUT_DOUBLE_READ = ReadOutcome.DOUBLE_READ.code


class GroupedReadPlanner:
    """LearnedFTL's read planner over one request chunk: CMT hits, model hits
    and double reads, for reads of any length.

    Over the two-level CMT, a CMT miss consults the group's in-place model
    exactly as the scalar ``_translate_read`` does, including the
    per-request compute charges.

    The constructor gathers, for every page the chunk's reads cover (a *page
    column*: request ``i``'s pages are positions ``_starts[i] ..
    _starts[i + 1] - 1``, and a write covers none), what no read can change
    (see the module docstring): its directory PPN (``-2`` where the data
    page is unmapped, free or outside the logical space, which the fast path
    refuses), that page's chip, and the VPPN a model hit must predict (``-1``
    where the model bit is clear); :meth:`refresh` re-reads what a run of
    writes changed.  It also takes every request's post-observation prefetch
    depth from :meth:`~repro.core.cmt.LoadingPolicy.observe_run`.
    :meth:`take` then only walks the CMT: a clear bit is a double read
    without a model call, a set bit one ``predict_exact`` compared with the
    gathered VPPN.  A single-page miss whose load would evict a dirty node
    is refused before anything is loaded; a multi-page read is checked whole
    first (:meth:`_accepts`).  :meth:`take` then commits the observations of
    the requests it accepted, leaving the refused one for the request step.
    """

    __slots__ = (
        "_ftl",
        "_pages",
        "_page_lpn_column",
        "_starts",
        "_lpns",
        "_tvpns",
        "_ppns",
        "_chips",
        "_vppns",
        "_ops",
        "_npages",
        "_later_reads",
        "_by_tvpn",
        "_pos",
        "_page_state",
        "_chip_stride",
        "_dir_column",
        "_flash",
        "_stats",
        "_gc_events",
        "_mappings_per_page",
        "_policy",
        "_depths",
        "_length_sums",
        "_streaks",
        "_cmt",
        "_capacity",
        "_tp_ppn",
        "_translation_store",
        "_models",
        "_charge",
        "_bitmap_check_us",
        "_predict_us",
    )

    def __init__(
        self, ftl: "LearnedFTL", ops: np.ndarray, lpns: np.ndarray, npages: np.ndarray
    ) -> None:
        self._ftl = ftl
        flash = ftl.flash
        stats = ftl.stats
        mappings_per_page = self._mappings_per_page = ftl._mappings_per_page
        reads = ops == OP_READ_CODE
        read_pages = np.where(reads, npages, 0)
        self._starts = starts = np.zeros(len(lpns) + 1, dtype=np.int64)
        np.cumsum(read_pages, out=starts[1:])
        total = int(starts[-1])
        read_count = np.count_nonzero(reads)
        if total == read_count:
            # Every read is a single page.
            page_lpns = lpns if read_count == len(lpns) else lpns[reads]
        else:
            owner = np.repeat(np.flatnonzero(reads), read_pages[reads])
            page_lpns = lpns[owner] + (np.arange(total, dtype=np.int64) - starts[owner])
        self._page_lpn_column = page_lpns
        self._lpns = lpns.tolist()
        self._tvpns = (lpns // mappings_per_page).tolist()
        self._ops = ops.tolist()
        self._npages = npages.tolist()
        self._chip_stride = flash._chip_stride
        self._ppns: list[int] = []
        self._chips: list[int] = []
        self._vppns: list[int] = []
        self._gather(slice(0, None))
        # The read pages of every LPN a single-page write of the chunk
        # writes: the entries a write's refresh patches.
        written = lpns[(ops == OP_WRITE_CODE) & (npages == 1)]
        self._later_reads: dict[int, list[int]] = {}
        self._by_tvpn: "tuple[np.ndarray, np.ndarray] | None" = None
        if written.size:
            positions = np.flatnonzero(np.isin(page_lpns, written))
            for position, lpn in zip(positions.tolist(), page_lpns[positions].tolist()):
                self._later_reads.setdefault(lpn, []).append(position)
        # LearnedFTL observes every request of the chunk once, in order, with
        # its (lpn, npages), whichever path serves it, so the loading
        # policy's post-observation columns are known up front.
        policy = self._policy = ftl.loading
        self._depths, self._length_sums, self._streaks = policy.observe_run(lpns, npages)
        self._pos = 0
        self._pages = ftl._cmt_pages
        self._page_state = flash._page_state
        self._dir_column = ftl._dir_column
        self._flash = flash
        self._stats = stats
        self._gc_events = len(stats.gc_events)
        cmt = ftl.cmt
        self._cmt = cmt
        self._capacity = cmt.capacity_entries
        self._tp_ppn = ftl.translation_store._tp_ppn
        self._translation_store = ftl.translation_store
        self._models = ftl.models
        self._charge = ftl._charge_compute
        self._bitmap_check_us = ftl._bitmap_check_us
        self._predict_us = ftl._predict_us

    def _gather(self, at: "slice | np.ndarray") -> None:
        """(Re)read the directory, data-page, chip and model-bit columns of
        the read pages at ``at``: a slice to the end of the page column, or
        an array of page positions."""
        ftl = self._ftl
        lpns = self._page_lpn_column[at]
        ppns = ftl.directory.lookup_many(lpns)
        page_state = np.frombuffer(ftl.flash._page_state, dtype=np.uint8)
        readable = ppns >= 0
        readable[readable] = page_state[ppns[readable]] != PAGE_FREE
        # One column for the model bit and the VPPN a set bit must predict:
        # -1 where the bit is clear (or the page unreadable, refused first).
        readable_lpns = lpns[readable]
        bits = readable_lpns + readable_lpns // self._mappings_per_page * ftl._model_bit_pad
        model_bits = np.frombuffer(ftl._model_bits, dtype=np.uint8)
        predictable = readable.copy()
        predictable[readable] = (model_bits[bits >> 3] >> (bits & 7)) & 1 == 1
        vppns = np.full(len(lpns), -1, dtype=np.int64)
        vppns[predictable] = ftl.codec.ppn_to_vppn_many(ppns[predictable])
        columns = (
            np.where(readable, ppns, -2).tolist(),
            (ppns // self._chip_stride).tolist(),
            vppns.tolist(),
        )
        if isinstance(at, slice):
            self._ppns[at], self._chips[at], self._vppns[at] = columns
            return
        for position, ppn, chip, vppn in zip(at.tolist(), *columns):
            self._ppns[position] = ppn
            self._chips[position] = chip
            self._vppns[position] = vppn

    def refresh(self, start: int, end: int) -> None:
        """Move the cursor past requests ``start .. end - 1``, writes the
        device just served through the request step, and re-read what they
        changed (see the module docstring)."""
        self._pos = end
        first = int(self._starts[end])
        gc_events = len(self._stats.gc_events)
        if gc_events != self._gc_events:
            self._gc_events = gc_events
            self._gather(slice(first, None))
            return
        ops = self._ops
        npages = self._npages
        lpns = self._lpns
        later_reads = self._later_reads
        column = self._dir_column
        chip_stride = self._chip_stride
        covered = []
        for i in range(start, end):
            if ops[i] != OP_WRITE_CODE:
                continue
            lpn = lpns[i]
            if npages[i] > 1:
                covered.append(i)
                continue
            # Mapped to the page the write just programmed, its bit cleared.
            ppn = column[lpn]
            for position in later_reads.get(lpn, ()):
                if position >= first:
                    self._ppns[position] = ppn
                    self._chips[position] = ppn // chip_stride
                    self._vppns[position] = -1
        if covered:
            # A multi-page write moves its own LPNs and may retrain (by
            # sequential initialization) the models of the translation
            # pages it covers: re-read the later pages on those.
            mappings_per_page = self._mappings_per_page
            if self._by_tvpn is None:
                # The page positions sorted by translation page, built at
                # the chunk's first multi-page write.
                tvpns = self._page_lpn_column // mappings_per_page
                order = np.argsort(tvpns, kind="stable")
                self._by_tvpn = (tvpns[order], order)
            keys, order = self._by_tvpn
            parts = []
            for i in covered:
                low = lpns[i] // mappings_per_page
                high = (lpns[i] + npages[i] - 1) // mappings_per_page
                start_key, end_key = np.searchsorted(keys, (low, high + 1))
                parts.append(order[start_key:end_key])
            positions = np.concatenate(parts)
            positions = positions[positions >= first]
            if positions.size:
                self._gather(positions)

    def _accepts(self, i: int, first: int, last: int) -> bool:
        """Whether multi-page read ``i`` (pages ``first .. last - 1``) can be
        served whole, checked without changing anything.

        Every page must be readable, its cached entry (if any) the
        directory's, a set model bit confirmed by ``predict_exact`` and a
        clear one's translation page not free.

        Then no load the request makes may evict a dirty node.  On each
        translation page ``t`` it covers, a load brings in the ``depth``
        LPNs from the missed one, and ``t``'s node stays cached from the
        request's first page on ``t`` to its last (only loads of ``t``
        itself happen meanwhile, and a load never evicts the node it
        loads), so ``t`` takes at most ``min(clear-bit pages, ceil(pages /
        depth))`` loads, each growing the CMT by at most ``depth +
        PAGE_NODE_OVERHEAD_ENTRIES``.  If that growth can overflow the CMT
        while a node is dirty, no node may outgrow the CMT alone
        (``load_node`` would hand it to ``insert_many``), and the LRU nodes
        up to the one where the nodes that are not the request's own cover
        the overflow must all be clean: only the request's own nodes move in
        the LRU order while it is served, so every node it evicts lies in
        that prefix.
        """
        ppns = self._ppns
        vppns = self._vppns
        pages_get = self._pages.get
        tp_get = self._tp_ppn.get
        models = self._models
        page_state = self._page_state
        per_page = self._mappings_per_page
        depth = self._depths[i]
        lpn = self._lpns[i]
        low = tvpn = lpn // per_page
        boundary = (tvpn + 1) * per_page
        node = pages_get(tvpn)
        tp_ppn = tp_get(tvpn)
        loads = count = clear = 0
        for position in range(first, last):
            if lpn == boundary:
                # The request's next translation page.
                loads += min(clear, -(-count // depth))
                count = clear = 0
                tvpn += 1
                boundary += per_page
                node = pages_get(tvpn)
                tp_ppn = tp_get(tvpn)
            actual = ppns[position]
            if actual < 0:
                # Unreadable, outside the logical space included: refused
                # before its translation page's model is looked up.
                return False
            if node is not None:
                cached = node.get(lpn)
                if cached is not None and cached != actual:
                    return False
            expected = vppns[position]
            if expected >= 0:
                if models[tvpn].predict_exact(lpn) != expected:
                    return False
            else:
                if tp_ppn is not None and not page_state[tp_ppn]:
                    return False
                clear += 1
            count += 1
            lpn += 1
        loads += min(clear, -(-count // depth))
        cmt = self._cmt
        dirty_sets = cmt._dirty
        if not loads or not dirty_sets:
            return True
        growth = loads * (depth + PAGE_NODE_OVERHEAD_ENTRIES)
        capacity = self._capacity
        overflow = cmt._size_entries + growth - capacity
        if overflow <= 0:
            return True
        high = tvpn
        largest = max(len(pages_get(own, ())) for own in range(low, high + 1))
        if largest + growth > capacity:
            return False
        for victim_tvpn, victim in self._pages.items():
            if victim_tvpn in dirty_sets:
                return False
            if not low <= victim_tvpn <= high:
                overflow -= len(victim) + PAGE_NODE_OVERHEAD_ENTRIES
                if overflow <= 0:
                    return True
        return False

    def take(self, end: int):
        """Process requests from the cursor, up to ``end`` (the end of its read
        run), while the fast-path predicate holds.

        Returns ``(k, data_chips, trans_chips, trans_ppns, computes,
        npages)``: ``k`` requests were completed, covering the pages of
        ``data_chips`` (each page's data-read chip) and ``trans_chips`` (its
        translation-read chip, ``-1`` where no translation read is issued;
        ``None`` when none of the batch issues one).  ``trans_ppns`` holds the
        page of each translation read, in order.  ``computes`` is the
        per-request controller compute column, or ``None`` when prediction
        time is not charged.  ``npages`` is the requests' page counts, or
        ``None`` when every one is a single page.
        """
        i = pos = self._pos
        n = end
        if i >= n:
            return 0, [], None, [], None, None
        trans_chips: list[int] = []
        trans_ppns: list[int] = []
        append_trans = trans_chips.append
        append_trans_ppn = trans_ppns.append
        pages = self._pages
        pages_get = pages.get
        pages_move = pages.move_to_end
        pages_items = pages.items
        npages = self._npages
        lpns = self._lpns
        tvpns = self._tvpns
        ppns = self._ppns
        vppns = self._vppns
        dir_column = self._dir_column
        page_state = self._page_state
        chip_stride = self._chip_stride
        depths = self._depths
        cmt = self._cmt
        dirty_sets = cmt._dirty
        capacity = self._capacity
        load_node = cmt.load_node
        scan = self._policy.scan
        tp_get = self._tp_ppn.get
        models = self._models
        stats = self._stats
        charge = self._charge
        bitmap_check_us = self._bitmap_check_us
        predict_us = self._predict_us
        # A compute column is only meaningful when prediction time is charged
        # (uncharged lookups contribute exactly 0.0, which the engine treats
        # identically to no column at all).
        computes: list[float] | None = [] if charge else None
        append_compute = computes.append if computes is not None else None
        hits = 0
        nf_hits = 0
        model_hits = 0
        multi = False
        p = first_page = int(self._starts[i])
        per_page = self._mappings_per_page
        # Request i's first page is i + shift: a multi-page read adds its
        # extra pages to shift.
        shift = p - i
        for i, count in zip(range(i, n), npages[i:n]):
            if count != 1:
                p = i + shift
                last = p + count
                if not self._accepts(i, p, last):
                    break
                # _translate_read's mutations, page by page: an earlier
                # page's load can turn a later page into a CMT hit.
                multi = True
                depth = depths[i]
                compute = 0.0
                lpn = lpns[i]
                tvpn = lpn // per_page
                boundary = (tvpn + 1) * per_page
                node = pages_get(tvpn)
                while p < last:
                    if lpn == boundary:
                        tvpn += 1
                        boundary += per_page
                        node = pages_get(tvpn)
                    # No page of an accepted read is refused, so a hit
                    # moves its entry to the tail at once.
                    cached = None if node is None else node.pop(lpn, None)
                    if cached is not None:
                        node[lpn] = cached
                        pages_move(tvpn)
                        append_trans(-1)
                        hits += 1
                    elif vppns[p] >= 0:
                        model_hits += 1
                        if charge:
                            stats.predict_time_us += predict_us
                            compute += bitmap_check_us + predict_us
                        append_trans(-1)
                    else:
                        # The CMT keeps the PPN it loads: read it from the
                        # directory, not the page column, whose ints would
                        # pin the column's memory once the planner is gone
                        # (+2 MB peak RSS on the ledger's trace_replay).
                        load_node(tvpn, scan(lpn, dir_column[lpn], tvpn, depth, node))
                        node = pages_get(tvpn)
                        tp_ppn = tp_get(tvpn)
                        if tp_ppn is None:
                            append_trans(-1)
                            nf_hits += 1
                        else:
                            append_trans(tp_ppn // chip_stride)
                            append_trans_ppn(tp_ppn)
                        compute += bitmap_check_us
                    p += 1
                    lpn += 1
                if computes is not None:
                    append_compute(compute)
                shift += count - 1
                continue
            lpn = lpns[i]
            tvpn = tvpns[i]
            node = pages_get(tvpn)
            cached = None if node is None else node.get(lpn)
            if cached is not None:
                if cached != ppns[i + shift]:
                    # A cached PPN off the directory, or an unreadable page:
                    # the scalar step serves (or raises on) it.
                    break
                # Scalar-equivalent PageGroupedCMT.lookup hit: entry then node LRU.
                del node[lpn]
                node[lpn] = cached
                pages_move(tvpn)
                append_trans(-1)
                if computes is not None:
                    append_compute(0.0)
                hits += 1
            else:
                actual = ppns[i + shift]
                if actual < 0:
                    # Unmapped LPN (the scalar path's zero-fill bookkeeping) or
                    # a PAGE_FREE data page (the scalar touch_read would raise).
                    break
                expected = vppns[i + shift]
                if expected >= 0:
                    if models[tvpn].predict_exact(lpn) != expected:
                        # Bitmap/model inconsistency: the scalar path raises.
                        break
                    # Model hit: one data read, no CMT load, no prefetch.
                    model_hits += 1
                    if charge:
                        stats.predict_time_us += predict_us
                        append_compute(bitmap_check_us + predict_us)
                    append_trans(-1)
                else:
                    # Double read (or never-flushed CMT load).
                    tp_ppn = tp_get(tvpn)
                    if tp_ppn is not None and not page_state[tp_ppn]:
                        # PAGE_FREE translation page: scalar touch_read would raise.
                        break
                    # Scalar-equivalent LoadingPolicy.load at this request's
                    # post-observation depth.
                    batch = scan(lpn, actual, tvpn, depths[i], node)
                    if node is None:
                        grown = len(batch) + PAGE_NODE_OVERHEAD_ENTRIES
                        alone = grown
                    else:
                        grown = len(batch)
                        alone = len(node) + grown + PAGE_NODE_OVERHEAD_ENTRIES
                    overflow = cmt._size_entries + grown - capacity
                    if overflow > 0 and dirty_sets:
                        # Refuse a load that would evict a dirty node (its
                        # write-back is a translation flush).  load_node
                        # evicts LRU nodes, the loaded one aside, until the
                        # overflow is covered; a node too big to fit alone
                        # is handed to insert_many's eviction, so refuse it.
                        if alone > capacity:
                            break
                        for victim_tvpn, victim in pages_items():
                            if victim_tvpn != tvpn:
                                if victim_tvpn in dirty_sets:
                                    break
                                overflow -= len(victim) + PAGE_NODE_OVERHEAD_ENTRIES
                                if overflow <= 0:
                                    break
                        if overflow > 0:
                            break
                    load_node(tvpn, batch)
                    if tp_ppn is None:
                        # Never-flushed translation page: served as a CMT hit.
                        append_trans(-1)
                        nf_hits += 1
                    else:
                        append_trans(tp_ppn // chip_stride)
                        append_trans_ppn(tp_ppn)
                    if computes is not None:
                        append_compute(bitmap_check_us)
        else:
            i = n
        p = i + shift
        k = i - pos
        self._pos = i
        misses = len(trans_ppns)
        if k:
            served = p - first_page
            # The accepted requests' observations; a refused one is left
            # unobserved for the request step.
            self._policy.commit_run(
                npages[pos:i], self._length_sums[i - 1], self._streaks[i - 1],
                self._lpns[i - 1] + npages[i - 1],
            )
            stats.host_read_requests += k
            stats.host_read_pages += served
            stats.cmt_lookups += served
            cmt_hits = hits + nf_hits
            stats.cmt_hits += cmt_hits
            outcome_counts = stats.outcome_counts
            outcome_counts[_OUT_CMT_HIT] += cmt_hits
            if misses:
                outcome_counts[_OUT_DOUBLE_READ] += misses
                self._translation_store.translation_reads += misses
            # Every CMT miss consults its group's model.
            stats.model_lookups += served - hits
            stats.predictions += model_hits
            stats.model_hits += model_hits
            outcome_counts[_OUT_MODEL_HIT] += model_hits
            # One data read per page plus one translation read per miss.
            self._flash.total_reads += served + misses
        if misses == 0:
            trans_chips = None
        return (
            k,
            self._chips[first_page:p],
            trans_chips,
            trans_ppns,
            computes,
            npages[pos:i] if multi else None,
        )

    def skip(self) -> None:
        """Advance past a request the device just executed through the request step."""
        self._pos += 1
