"""Array-at-a-time read planner: the FTL layer of the batched kernel.

The batched device loop (``SSD.run(..., batch=N)``) splits each request chunk
into maximal runs of single-page reads and everything else, and asks the FTL
for a *planner* over each read run
(:meth:`repro.core.base.FTLBase.begin_read_run`).  Writes have no planner:
each FTL states its write path once, in ``write``, and the device serves
every write through the request step.  A planner front-loads the
vectorizable work — one :meth:`MappingDirectory.lookup_many` gather and one
translation-page division over the whole run — and then serves the run
incrementally through :meth:`take`:

* :meth:`take` consumes requests from the current cursor for as long as the
  fast-path predicate holds, applying **exactly** the cache/statistics
  mutations the scalar path would (same LRU moves in the same order, same
  counter increments), and returns the per-request chip columns the timing
  engine needs;
* the first request the predicate rejects is left untouched — the device
  executes it through the ordinary scalar ``encode``/``execute_buffer`` pair,
  calls :meth:`skip`, and resumes :meth:`take`.

The cursor design matters: the expensive gathers happen once per run, not once
per fallback, so a run that alternates fast and slow requests degrades to the
scalar path's cost instead of quadratic re-planning.

Why resuming after a scalar fallback is sound: within a run every request is a
single-page read, and the planner re-consults every piece of live state a
scalar request can mutate — cache dicts, page-state bytes — per accepted
request rather than from a snapshot.  Two columns are pre-gathered: the
mapping directory, which no scalar *read* path mutates, and the loading
policy's post-observation depths, because every request of the run is
observed exactly once, as one page, whether :meth:`take` or the scalar
fallback serves it.  A run never spans a write: writes end a run, and the
next read run gathers afresh.

LearnedFTL is the one design with a read planner,
:class:`GroupedReadPlanner`: it serves CMT hits, model hits and double-read
misses whose prefetch-load cannot evict dirty mappings.  TPFTL's loading
policy (:class:`~repro.core.cmt.LoadingPolicy`) states its rules once and the
planner calls them: :meth:`~repro.core.cmt.LoadingPolicy.observe_run` gives
the depth column up front, a miss builds its batch with
:meth:`~repro.core.cmt.LoadingPolicy.scan` and loads it with
:meth:`~repro.core.cmt.PageGroupedCMT.load_node`, and each :meth:`take`
commits its accepted requests' observations once
(:meth:`~repro.core.cmt.LoadingPolicy.commit_run`), so a refused request is
left unobserved for the scalar fallback.

``take`` returns ``(0, ...)`` — triggering one scalar fallback — whenever the
next request needs anything the fast path cannot express: a dirty CMT
eviction (translation flush), an unmapped LPN, a model inconsistency, a page
the scalar path would refuse to read.  The fallback runs the full scalar
machinery (including raising, where the scalar path raises) and the planner
resumes after it.

Every other design keeps the scalar path for every request
(:meth:`~repro.core.base.FTLBase.begin_read_run` returns ``None``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.cmt import PAGE_NODE_OVERHEAD_ENTRIES
from repro.core.learned.inplace_model import BIT_NOT_SET
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

    The loading policy observes a request *before* translation in the
    scalar path, and the prefetch depth of a miss depends on it — so the
    constructor takes every request's post-observation depth from
    :meth:`~repro.core.cmt.LoadingPolicy.observe_run`, next to the directory
    gather.  A miss whose batch could evict dirty mappings is refused before
    anything is loaded; :meth:`take` then commits the observations of the
    requests it accepted, leaving the refused one for the scalar fallback.
    """

    __slots__ = (
        "_pages",
        "_lpns",
        "_tvpns",
        "_dir_ppns",
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
        "_vppn_to_ppn",
    )

    def __init__(self, ftl: "LearnedFTL", lpns: np.ndarray) -> None:
        directory = ftl.directory
        flash = ftl.flash
        self._pages = ftl._cmt_pages
        self._lpns = lpns.tolist()
        self._tvpns = (lpns // ftl._mappings_per_page).tolist()
        # Safe to pre-gather: no scalar read path mutates the directory.
        self._dir_ppns = directory.lookup_many(lpns).tolist()
        # Every request of the run is observed once, as one page, whether
        # take() or the scalar fallback serves it, so the loading policy's
        # post-observation columns are known up front.
        policy = self._policy = ftl.loading
        self._depths, self._length_sums, self._streaks = policy.observe_run(lpns)
        self._n = len(self._lpns)
        self._pos = 0
        self._page_state = flash._page_state
        self._chip_stride = flash._chip_stride
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
        self._vppn_to_ppn = ftl._vppn_to_ppn

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
        data_chips: list[int] = []
        trans_chips: list[int] = []
        trans_ppns: list[int] = []
        append_data = data_chips.append
        append_trans = trans_chips.append
        append_trans_ppn = trans_ppns.append
        pages = self._pages
        pages_get = pages.get
        pages_move = pages.move_to_end
        lpns = self._lpns
        tvpns = self._tvpns
        dir_ppns = self._dir_ppns
        page_state = self._page_state
        chip_stride = self._chip_stride
        depths = self._depths
        cmt = self._cmt
        capacity = self._capacity
        load_node = cmt.load_node
        scan = self._policy.scan
        tp_get = self._tp_ppn.get
        models = self._models
        stats = self._stats
        charge = self._charge
        bitmap_check_us = self._bitmap_check_us
        predict_us = self._predict_us
        vppn_to_ppn = self._vppn_to_ppn
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
            entry = None if node is None else node.get(lpn)
            if entry is not None:
                ppn = entry[0]
                if not page_state[ppn]:
                    # PAGE_FREE: the scalar path's touch_read would raise.
                    break
                # Scalar-equivalent PageGroupedCMT.lookup hit: entry then node LRU.
                node.move_to_end(lpn)
                pages_move(tvpn)
                append_data(ppn // chip_stride)
                append_trans(-1)
                if computes is not None:
                    append_compute(0.0)
                hits += 1
            else:
                # CMT miss: resolve against the (pre-gathered) directory.
                actual = dir_ppns[i]
                if actual < 0:
                    # Unmapped LPN: the scalar path's zero-fill bookkeeping.
                    break
                if not page_state[actual]:
                    # PAGE_FREE data page: the scalar touch_read would raise.
                    break
                vppn = models[tvpn].predict_exact(lpn)
                if vppn is not BIT_NOT_SET:
                    predicted = vppn_to_ppn(vppn) if vppn is not None else None
                    if predicted != actual:
                        # Bitmap/model inconsistency: the scalar path raises.
                        break
                    # Model hit: one data read, no CMT load, no prefetch.
                    model_hits += 1
                    if charge:
                        stats.predict_time_us += predict_us
                        append_compute(bitmap_check_us + predict_us)
                    append_data(actual // chip_stride)
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
                    delta = (
                        len(batch) if node is not None else len(batch) + PAGE_NODE_OVERHEAD_ENTRIES
                    )
                    if cmt._dirty_count != 0 and cmt._size_entries + delta > capacity:
                        # The load could evict dirty mappings (translation flushes).
                        break
                    load_node(tvpn, batch)
                    append_data(actual // chip_stride)
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
        return k, data_chips, trans_chips, trans_ppns, computes

    def skip(self) -> None:
        """Advance past a request the device just executed through the scalar path."""
        self._pos += 1
