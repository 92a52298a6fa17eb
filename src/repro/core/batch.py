"""Array-at-a-time read planner: the FTL layer of the closed loop's read kernel.

The device's closed loop (``SSD.run``) splits each request chunk into
maximal runs of single-page reads and everything else, and asks the FTL for
a *planner* over each read run
(:meth:`repro.core.base.FTLBase.begin_read_run`); LearnedFTL builds one for
runs from a measured break-even length on.  Writes have no planner:
each FTL states its write path once, in ``write``, and the device serves
every write through the request step.  A planner front-loads the
vectorizable work — NumPy gathers over the whole run — and then serves the
run incrementally through :meth:`take`:

* :meth:`take` consumes requests from the current cursor for as long as the
  fast-path predicate holds, applying **exactly** the cache/statistics
  mutations the scalar path would (same LRU moves in the same order, same
  counter increments), and returns the per-request chip columns the timing
  engine needs;
* the first request the predicate rejects is left untouched — the device
  executes it through the request step (``encode``/``execute_buffer``),
  calls :meth:`skip`, and resumes :meth:`take`.

The cursor design matters: the expensive gathers happen once per run, not once
per fallback, so a run that alternates fast and slow requests degrades to the
scalar path's cost instead of quadratic re-planning.

Why the pre-gathered columns hold for the whole run: within a run every
request is a single-page read, and a run never spans a write (writes end a
run; the next read run gathers afresh).  A read served by :meth:`take` only
moves CMT entries, loads clean mappings and counts; a refused read runs the
scalar step, which may in addition write back the translation page of a
dirty CMT eviction and collect a translation-pool block to make room for it.
None of these touches the mapping directory, a model (its pieces or its
bitmap bits) or a data page's state, so these columns are gathered once, at
construction:

* the **directory PPN** of every request, and whether that data page can be
  read (mapped and not ``PAGE_FREE``);
* its **data-read chip** (a take's ``data_chips`` is a slice of this column:
  a served request always reads its directory PPN, because a CMT hit whose
  cached PPN differs from it is refused);
* its **model bit** and the **VPPN** a set bit's prediction must equal, as
  one column: the VPPN of its directory PPN where the bit (read from
  LearnedFTL's fleet bit column) is set, ``-1`` where it is clear.  Model
  bits change only on writes, group GC and sequential initialization, and
  ``ppn_to_vppn`` is a bijection, so comparing VPPNs is comparing PPNs;
* the loading policy's post-observation **depths**, because every request of
  the run is observed exactly once, as one page, whether :meth:`take` or the
  scalar fallback serves it.

What a fallback *does* change — cache dicts, the CMT's dirty sets and size,
translation-page locations and states — the planner re-reads live, per
accepted request.

LearnedFTL is the one design with a read planner,
:class:`GroupedReadPlanner`: it serves CMT hits, model hits and double-read
misses whose prefetch-load evicts no dirty node.  TPFTL's loading policy
(:class:`~repro.core.cmt.LoadingPolicy`) states its rules once and the
planner calls them: :meth:`~repro.core.cmt.LoadingPolicy.observe_run` gives
the depth column up front, a miss builds its batch with
:meth:`~repro.core.cmt.LoadingPolicy.scan` and loads it with
:meth:`~repro.core.cmt.PageGroupedCMT.load_node`, and each :meth:`take`
commits its accepted requests' observations once
(:meth:`~repro.core.cmt.LoadingPolicy.commit_run`), so a refused request is
left unobserved for the scalar fallback.

``take`` returns ``(0, ...)`` — triggering one scalar fallback — whenever the
next request needs anything the fast path cannot express: a load that would
evict a dirty node (translation flush), an unmapped LPN, a model
inconsistency, a page the scalar path would refuse to read, a cached PPN off
the directory.  The fallback runs the full scalar machinery (including
raising, where the scalar path raises) and the planner resumes after it.

Every other design serves every request through the request step
(:meth:`~repro.core.base.FTLBase.begin_read_run` returns ``None``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.cmt import PAGE_NODE_OVERHEAD_ENTRIES
from repro.nand.flash import PAGE_FREE
from repro.ssd.request import ReadOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.learnedftl import LearnedFTL

__all__ = ["GroupedReadPlanner"]

_OUT_CMT_HIT = ReadOutcome.CMT_HIT.code
_OUT_MODEL_HIT = ReadOutcome.MODEL_HIT.code
_OUT_DOUBLE_READ = ReadOutcome.DOUBLE_READ.code


class GroupedReadPlanner:
    """LearnedFTL's read-run planner: CMT hits, model hits and double reads.

    Over the two-level CMT, a CMT miss consults the group's in-place model
    exactly as the scalar ``_translate_read`` does, including the
    per-request compute charges.

    The constructor gathers, for every request of the run, what no read and
    no scalar fallback inside the run can change (see the module docstring):
    its directory PPN (``-2`` where the data page is unmapped or free, which
    the fast path refuses), that page's chip, and the VPPN a model hit must
    predict (``-1`` where the model bit is clear).  It also takes every
    request's post-observation prefetch depth from
    :meth:`~repro.core.cmt.LoadingPolicy.observe_run`.  :meth:`take` then
    only walks the CMT: a clear bit is a double read without a model call, a
    set bit one ``predict_exact`` compared with the gathered VPPN.  A miss
    whose load would evict a dirty node is refused before anything is
    loaded; :meth:`take` then commits the observations of the requests it
    accepted, leaving the refused one for the scalar fallback.
    """

    __slots__ = (
        "_pages",
        "_lpns",
        "_tvpns",
        "_ppns",
        "_chips",
        "_vppns",
        "_n",
        "_pos",
        "_page_state",
        "_chip_stride",
        "_flash",
        "_stats",
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

    def __init__(self, ftl: "LearnedFTL", lpns: np.ndarray) -> None:
        flash = ftl.flash
        chip_stride = flash._chip_stride
        tvpns = lpns // ftl._mappings_per_page
        self._lpns = lpns.tolist()
        self._tvpns = tvpns.tolist()
        # The directory, the data pages' states and the model bits hold for
        # the whole run (module docstring), so every check on them is made here.
        ppns = ftl.directory.lookup_many(lpns)
        page_state = np.frombuffer(flash._page_state, dtype=np.uint8)
        readable = ppns >= 0
        readable[readable] = page_state[ppns[readable]] != PAGE_FREE
        self._ppns = np.where(readable, ppns, -2).tolist()
        self._chips = (ppns // chip_stride).tolist()
        # One column for the model bit and the VPPN a set bit must predict:
        # -1 where the bit is clear (or the page unreadable, refused first).
        bits = lpns + tvpns * ftl._model_bit_pad
        model_bits = np.frombuffer(ftl._model_bits, dtype=np.uint8)
        predictable = readable & ((model_bits[bits >> 3] >> (bits & 7)) & 1 == 1)
        vppns = np.full(len(lpns), -1, dtype=np.int64)
        vppns[predictable] = ftl.codec.ppn_to_vppn_many(ppns[predictable])
        self._vppns = vppns.tolist()
        # Every request of the run is observed once, as one page, whether
        # take() or the scalar fallback serves it, so the loading policy's
        # post-observation columns are known up front.
        policy = self._policy = ftl.loading
        self._depths, self._length_sums, self._streaks = policy.observe_run(lpns)
        self._n = len(self._lpns)
        self._pos = 0
        self._pages = ftl._cmt_pages
        self._page_state = flash._page_state
        self._chip_stride = chip_stride
        self._flash = flash
        self._stats = ftl.stats
        cmt = ftl.cmt
        self._cmt = cmt
        self._capacity = cmt.capacity_entries
        self._tp_ppn = ftl.translation_store._tp_ppn
        self._translation_store = ftl.translation_store
        self._models = ftl.models
        self._charge = ftl._charge_compute
        self._bitmap_check_us = ftl._bitmap_check_us
        self._predict_us = ftl._predict_us

    def take(self):
        """Process requests from the cursor while the fast-path predicate holds.

        Returns ``(k, data_chips, trans_chips, trans_ppns, computes)``: ``k``
        requests were completed, ``data_chips[i]`` is request ``i``'s
        data-read chip and ``trans_chips[i]`` its translation-read chip
        (``-1`` where no translation read is issued; ``None`` when none of the
        batch issues one).  ``trans_ppns`` holds the page of each translation
        read, in request order.  ``computes`` is the per-request controller
        compute column, or ``None`` when prediction time is not charged.
        """
        i = pos = self._pos
        n = self._n
        if i >= n:
            return 0, [], None, [], None
        trans_chips: list[int] = []
        trans_ppns: list[int] = []
        append_trans = trans_chips.append
        append_trans_ppn = trans_ppns.append
        pages = self._pages
        pages_get = pages.get
        pages_move = pages.move_to_end
        pages_items = pages.items
        lpns = self._lpns
        tvpns = self._tvpns
        ppns = self._ppns
        vppns = self._vppns
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
        while i < n:
            lpn = lpns[i]
            tvpn = tvpns[i]
            node = pages_get(tvpn)
            cached = None if node is None else node.get(lpn)
            if cached is not None:
                if cached != ppns[i]:
                    # A cached PPN off the directory, or an unreadable page:
                    # the scalar step serves (or raises on) it.
                    break
                # Scalar-equivalent PageGroupedCMT.lookup hit: entry then node LRU.
                node.move_to_end(lpn)
                pages_move(tvpn)
                append_trans(-1)
                if computes is not None:
                    append_compute(0.0)
                hits += 1
            else:
                actual = ppns[i]
                if actual < 0:
                    # Unmapped LPN (the scalar path's zero-fill bookkeeping) or
                    # a PAGE_FREE data page (the scalar touch_read would raise).
                    break
                expected = vppns[i]
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
            i += 1
        k = i - pos
        self._pos = i
        misses = len(trans_ppns)
        if k:
            # The accepted requests' observations; a refused one is left
            # unobserved for the scalar fallback.
            self._policy.commit_run(k, self._length_sums[i - 1], self._streaks[i - 1], lpns[i - 1] + 1)
            stats.host_read_requests += k
            stats.host_read_pages += k
            stats.cmt_lookups += k
            cmt_hits = hits + nf_hits
            stats.cmt_hits += cmt_hits
            outcome_counts = stats.outcome_counts
            outcome_counts[_OUT_CMT_HIT] += cmt_hits
            if misses:
                outcome_counts[_OUT_DOUBLE_READ] += misses
                self._translation_store.translation_reads += misses
            # Every CMT miss consults its group's model.
            stats.model_lookups += k - hits
            stats.predictions += model_hits
            stats.model_hits += model_hits
            outcome_counts[_OUT_MODEL_HIT] += model_hits
            # One data read per request plus one translation read per miss.
            self._flash.total_reads += k + misses
        if misses == 0:
            trans_chips = None
        return k, self._chips[pos:i], trans_chips, trans_ppns, computes

    def skip(self) -> None:
        """Advance past a request the device just executed through the scalar path."""
        self._pos += 1
