"""Array-at-a-time read planners: the FTL layer of the batched kernel.

The batched device loop (``SSD.run(..., batch=N)``) splits each request chunk
into maximal runs of single-page reads and everything else, and asks the FTL
for a *planner* over each read run
(:meth:`repro.core.base.FTLBase.begin_read_run`).  Writes have no planner:
each FTL states its write path once, in ``write``, and the device serves
every write through the request step.  A planner front-loads the
vectorizable work — one :meth:`MappingDirectory.lookup_many` gather, one
page-state gather, one chip-index division over the whole run — and then
serves the run incrementally through :meth:`take`:

* :meth:`take` consumes requests from the current cursor for as long as the
  design's fast-path predicate holds, applying **exactly** the cache/statistics
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
single-page read, and the planners re-consult every piece of live state a
scalar request can mutate — cache dicts, page-state bytes, observer fields —
per accepted request rather than from a snapshot.  The only pre-gathered
columns are the mapping directory and the data-page states, and no scalar
*read* path mutates either.  A run never spans a write: writes end a run, and
the next read run gathers afresh.

Read-planner fast paths:

* :class:`DemandReadPlanner` (DFTL) — CMT hits; CMT misses whose insert cannot
  evict a dirty entry (clean LRU head), whether the translation page is
  flash-resident (double read) or never flushed (served like a hit);
* :class:`GroupedReadPlanner` (TPFTL / LearnedFTL) — CMT hits, LearnedFTL
  model hits, and double-read misses whose prefetch-load cannot evict dirty
  mappings.  The request-locality observer (``_observe_request``) is
  replicated per accepted request, and on the miss path the prefetch depth is
  derived from the *post-observation* values before the observation is
  committed, so a refused request is left entirely unobserved for the scalar
  fallback;
* :class:`DirectReadPlanner` (ideal FTL) — every mapped read, with no
  per-request Python work at all (pure array prefix).

A planner's ``take`` returns ``(0, ...)`` — triggering one scalar fallback —
whenever the next request needs anything the fast path cannot express: a
dirty CMT eviction (translation flush), an unmapped LPN, a model
inconsistency, a page the scalar path would refuse to read.  The fallback
runs the full scalar machinery (including raising, where the scalar path
raises) and the planner resumes after it.

LeaFTL keeps the scalar path for every request: its per-read compute charges
and frame probes leave no mutation-free common case worth special-casing
(:meth:`~repro.core.base.FTLBase.begin_read_run` returns ``None``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.cmt import PAGE_NODE_OVERHEAD_ENTRIES
from repro.core.learned.inplace_model import BIT_NOT_SET
from repro.nand.flash import PAGE_VALID
from repro.ssd.request import (
    CommandKind,
    CommandPurpose,
    ReadOutcome,
    command_code,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.base import FTLBase

__all__ = [
    "DemandReadPlanner",
    "GroupedReadPlanner",
    "DirectReadPlanner",
]

_CODE_DATA_READ = command_code(CommandKind.READ, CommandPurpose.DATA_READ)
_CODE_TRANSLATION_READ = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)
_OUT_CMT_HIT = ReadOutcome.CMT_HIT.code
_OUT_MODEL_HIT = ReadOutcome.MODEL_HIT.code
_OUT_DOUBLE_READ = ReadOutcome.DOUBLE_READ.code

#: Cap of TPFTL/LearnedFTL's sequential-streak counter (see ``_observe_request``).
_STREAK_CAP = 64


class DemandReadPlanner:
    """DFTL's read-run planner: CMT hits *and* misses array-at-a-time.

    On the paper's random-read workloads DFTL misses the CMT for the vast
    majority of requests, so a hits-only fast path would leave the kernel
    scalar-bound.  A miss is fast-pathable exactly when serving it cannot emit
    translation *writes*: the insert's eviction (if any) must hit a clean LRU
    head.  A flash-resident translation page costs the usual double read; a
    never-flushed one is served like a hit (the scalar path's fresh-device
    bookkeeping).  Everything is checked per request against live state.
    """

    __slots__ = (
        "_lpns",
        "_ppns",
        "_dchips",
        "_tvpns",
        "_ok",
        "_n",
        "_pos",
        "_cmt",
        "_entries",
        "_capacity",
        "_tp_ppn",
        "_translation_store",
        "_chip_stride",
        "_page_state",
        "_flash",
        "_stats",
    )

    data_code = _CODE_DATA_READ
    trans_code = _CODE_TRANSLATION_READ

    def __init__(self, ftl: "FTLBase", lpns: np.ndarray) -> None:
        directory = ftl.directory
        flash = ftl.flash
        ppns = directory.lookup_many(lpns)
        mapped = ppns >= 0
        # Unmapped slots gather page 0's state/chip; the ``ok`` mask discards
        # them before use.
        safe = np.where(mapped, ppns, 0)
        states = np.frombuffer(flash._page_state, dtype=np.uint8)[safe]
        ok = mapped & (states == PAGE_VALID)
        self._lpns = lpns.tolist()
        self._ppns = ppns.tolist()
        self._dchips = (safe // flash._chip_stride).tolist()
        self._tvpns = (lpns // directory.mappings_per_page).tolist()
        self._ok = ok.tolist()
        self._n = len(self._lpns)
        self._pos = 0
        cmt = ftl.cmt
        self._cmt = cmt
        self._entries = cmt._entries
        self._capacity = cmt.capacity_entries
        self._tp_ppn = ftl.translation_store._tp_ppn
        self._translation_store = ftl.translation_store
        self._chip_stride = flash._chip_stride
        self._page_state = flash._page_state
        self._flash = flash
        self._stats = ftl.stats

    def take(self):
        """Process requests from the cursor while the fast-path predicate holds.

        Returns ``(k, data_chips, trans_chips, trans_count, computes)``: ``k``
        requests were completed, ``data_chips[i]`` is request ``i``'s
        data-read chip and ``trans_chips[i]`` its translation-read chip
        (``-1`` where no translation read is issued; ``None`` when none of the
        batch issues one).  ``computes`` is a per-request controller compute
        column or ``None``.
        """
        i = pos = self._pos
        n = self._n
        data_chips: list[int] = []
        trans_chips: list[int] = []
        if i >= n:
            return 0, data_chips, trans_chips, 0, None
        append_data = data_chips.append
        append_trans = trans_chips.append
        entries = self._entries
        entries_get = entries.get
        entries_values = entries.values()
        move_to_end = entries.move_to_end
        cmt_insert = self._cmt.insert
        tp_get = self._tp_ppn.get
        capacity = self._capacity
        # Reads only insert clean entries and fast-path evictions only pop
        # clean victims, so a clean cache stays clean for the rest of the run
        # and the dirty-head peek can be skipped wholesale.
        clean = self._cmt._dirty_count == 0
        lpns = self._lpns
        ppns = self._ppns
        dchips = self._dchips
        tvpns = self._tvpns
        ok = self._ok
        chip_stride = self._chip_stride
        page_state = self._page_state
        hits = 0
        misses = 0
        while i < n:
            lpn = lpns[i]
            entry = entries_get(lpn)
            if entry is not None:
                if not ok[i]:
                    # Cache/directory disagreement: let the scalar path raise.
                    break
                move_to_end(lpn)
                append_trans(-1)
                hits += 1
            else:
                ppn = ppns[i]
                if ppn < 0:
                    # Unmapped LPN: the scalar path's zero-fill bookkeeping.
                    break
                if not ok[i]:
                    # Non-valid data page: the scalar touch_read would raise.
                    break
                tp_ppn = tp_get(tvpns[i])
                if tp_ppn is not None and not page_state[tp_ppn]:
                    # PAGE_FREE translation page: scalar touch_read would raise.
                    break
                if (
                    not clean
                    and len(entries) >= capacity
                    and next(iter(entries_values))[1]
                ):
                    # The insert would evict a dirty entry (translation flush).
                    break
                # The real EntryLevelCMT.insert: at most one LRU-head pop, and
                # the checks above guarantee it is silent.
                cmt_insert(lpn, ppn)
                if tp_ppn is None:
                    # Never-flushed translation page: the mapping can only have
                    # reached flash via the CMT, so the scalar path serves it
                    # as a CMT hit without a translation read.
                    append_trans(-1)
                    hits += 1
                else:
                    append_trans(tp_ppn // chip_stride)
                    misses += 1
            append_data(dchips[i])
            i += 1
        k = i - pos
        self._pos = i
        if k:
            stats = self._stats
            stats.host_read_requests += k
            stats.host_read_pages += k
            stats.cmt_lookups += k
            stats.cmt_hits += hits
            outcome_counts = stats.outcome_counts
            outcome_counts[_OUT_CMT_HIT] += hits
            outcome_counts[_OUT_DOUBLE_READ] += misses
            # One data read per request plus one translation read per miss.
            self._flash.total_reads += k + misses
            self._translation_store.translation_reads += misses
        if misses == 0:
            trans_chips = None
        return k, data_chips, trans_chips, misses, None

    def skip(self) -> None:
        """Advance past a request the device just executed through the scalar path."""
        self._pos += 1


class GroupedReadPlanner:
    """TPFTL/LearnedFTL read-run planner: hits, model hits and double reads.

    Both designs share the two-level CMT layout and the request-locality
    observer fields, so one planner serves both; when the FTL carries in-place
    models (LearnedFTL) the miss path consults them exactly as the scalar
    ``_translate_read`` does, including the per-request compute charges.

    The observer update runs *before* translation in the scalar path, and the
    prefetch depth of a miss depends on it — so on the miss path the planner
    derives the post-observation window/streak values first, sizes the
    prefetch batch, evaluates the eviction predicate, and only then commits
    the observation and calls the real ``insert_many``.  A refused request is
    therefore left entirely unobserved for the scalar fallback.
    """

    __slots__ = (
        "_ftl",
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
        "_window",
        "_cmt",
        "_capacity",
        "_tp_ppn",
        "_translation_store",
        "_insert_many",
        "_directory_lookup",
        "_mappings_per_page",
        "_num_logical_pages",
        "_prefetch_ceiling",
        "_models",
        "_charge",
        "_bitmap_check_us",
        "_predict_us",
        "_vppn_to_ppn",
    )

    data_code = _CODE_DATA_READ
    trans_code = _CODE_TRANSLATION_READ

    def __init__(self, ftl: "FTLBase", lpns: np.ndarray) -> None:
        self._ftl = ftl
        directory = ftl.directory
        flash = ftl.flash
        self._pages = ftl._cmt_pages
        self._lpns = lpns.tolist()
        self._tvpns = (lpns // ftl._mappings_per_page).tolist()
        # Safe to pre-gather: no scalar read path mutates the directory.
        self._dir_ppns = directory.lookup_many(lpns).tolist()
        self._n = len(self._lpns)
        self._pos = 0
        self._page_state = flash._page_state
        self._chip_stride = flash._chip_stride
        self._flash = flash
        self._stats = ftl.stats
        self._window = ftl._recent_request_lengths.maxlen
        cmt = ftl.cmt
        self._cmt = cmt
        self._capacity = cmt.capacity_entries
        self._tp_ppn = ftl.translation_store._tp_ppn
        self._translation_store = ftl.translation_store
        self._insert_many = cmt.insert_many
        self._directory_lookup = directory.lookup
        self._mappings_per_page = ftl._mappings_per_page
        self._num_logical_pages = ftl._num_logical_pages
        self._prefetch_ceiling = ftl._prefetch_ceiling
        models = getattr(ftl, "models", None)
        self._models = models
        if models is not None:
            self._charge = ftl._charge_compute
            self._bitmap_check_us = ftl._bitmap_check_us
            self._predict_us = ftl._predict_us
            self._vppn_to_ppn = ftl._vppn_to_ppn
        else:
            self._charge = False
            self._bitmap_check_us = 0.0
            self._predict_us = 0.0
            self._vppn_to_ppn = None

    def take(self):
        """Consume the fast prefix from the cursor; see :meth:`DemandReadPlanner.take`."""
        i = pos = self._pos
        n = self._n
        if i >= n:
            return 0, [], None, 0, None
        data_chips: list[int] = []
        trans_chips: list[int] = []
        append_data = data_chips.append
        append_trans = trans_chips.append
        ftl = self._ftl
        pages = self._pages
        pages_get = pages.get
        pages_move = pages.move_to_end
        lpns = self._lpns
        tvpns = self._tvpns
        dir_ppns = self._dir_ppns
        page_state = self._page_state
        chip_stride = self._chip_stride
        cmt = self._cmt
        capacity = self._capacity
        tp_get = self._tp_ppn.get
        insert_many = self._insert_many
        directory_lookup = self._directory_lookup
        mappings_per_page = self._mappings_per_page
        num_logical_pages = self._num_logical_pages
        ceiling = self._prefetch_ceiling
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
        lengths = ftl._recent_request_lengths
        lengths_append = lengths.append
        window = self._window
        # The observer fields run in locals and are written back after the
        # loop; a break leaves the refused request entirely unobserved, so the
        # scalar fallback's own _observe_request applies cleanly.
        length_sum = ftl._recent_length_sum
        streak = ftl._sequential_streak
        last_end = ftl._last_lpn_end
        hits = 0
        nf_hits = 0
        misses = 0
        model_hits = 0
        model_lookups = 0
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
                # Scalar-equivalent _observe_request for a single-page request.
                if len(lengths) == window:
                    length_sum -= lengths[0]
                length_sum += 1
                lengths_append(1)
                if last_end == lpn:
                    if streak < _STREAK_CAP:
                        streak += 1
                else:
                    streak = 0
                last_end = lpn + 1
                # Scalar-equivalent PageGroupedCMT.lookup hit: entry then node LRU.
                node.move_to_end(lpn)
                pages_move(tvpn)
                append_data(ppn // chip_stride)
                append_trans(-1)
                if computes is not None:
                    append_compute(0.0)
                hits += 1
                i += 1
                continue
            # CMT miss: resolve against the (pre-gathered) directory.
            actual = dir_ppns[i]
            if actual < 0:
                # Unmapped LPN: the scalar path's zero-fill bookkeeping.
                break
            if not page_state[actual]:
                # PAGE_FREE data page: the scalar touch_read would raise.
                break
            if models is not None:
                vppn = models[tvpn].predict_exact(lpn)
                if vppn is not BIT_NOT_SET:
                    predicted = vppn_to_ppn(vppn) if vppn is not None else None
                    if predicted != actual:
                        # Bitmap/model inconsistency: the scalar path raises.
                        break
                    # Model hit: one data read, no CMT load, no prefetch.
                    if len(lengths) == window:
                        length_sum -= lengths[0]
                    length_sum += 1
                    lengths_append(1)
                    if last_end == lpn:
                        if streak < _STREAK_CAP:
                            streak += 1
                    else:
                        streak = 0
                    last_end = lpn + 1
                    model_lookups += 1
                    model_hits += 1
                    if charge:
                        stats.predict_time_us += predict_us
                        append_compute(bitmap_check_us + predict_us)
                    append_data(actual // chip_stride)
                    append_trans(-1)
                    i += 1
                    continue
            # Double read (or never-flushed CMT load).  The prefetch depth
            # depends on the post-observation window/streak, so derive those
            # without committing them yet.
            tp_ppn = tp_get(tvpn)
            if tp_ppn is not None and not page_state[tp_ppn]:
                # PAGE_FREE translation page: scalar touch_read would raise.
                break
            if len(lengths) == window:
                new_sum = length_sum + 1 - lengths[0]
                new_window = window
            else:
                new_sum = length_sum + 1
                new_window = len(lengths) + 1
            if last_end == lpn:
                new_streak = streak + 1 if streak < _STREAK_CAP else streak
            else:
                new_streak = 0
            # Scalar-equivalent inlined _prefetch_length over the post-
            # observation values (the window is never empty here).
            depth = int(round(new_sum / new_window * 2)) + 2 * new_streak
            if depth > ceiling:
                depth = ceiling
            batch = [(lpn, actual)]
            if depth > 1:
                stop = (tvpn + 1) * mappings_per_page
                if stop > num_logical_pages:
                    stop = num_logical_pages
                if lpn + depth < stop:
                    stop = lpn + depth
                for neighbour in range(lpn + 1, stop):
                    neighbour_ppn = directory_lookup(neighbour)
                    if neighbour_ppn is not None and (node is None or neighbour not in node):
                        batch.append((neighbour, neighbour_ppn))
            delta = len(batch) if node is not None else len(batch) + PAGE_NODE_OVERHEAD_ENTRIES
            if cmt._dirty_count != 0 and cmt._size_entries + delta > capacity:
                # The load could evict dirty mappings (translation flushes).
                break
            # Accepted: commit the observation, load the batch for real.
            length_sum = new_sum
            lengths_append(1)
            streak = new_streak
            last_end = lpn + 1
            insert_many(batch, dirty=False)
            if models is not None:
                model_lookups += 1
            append_data(actual // chip_stride)
            if tp_ppn is None:
                # Never-flushed translation page: served as a CMT hit.
                append_trans(-1)
                nf_hits += 1
            else:
                append_trans(tp_ppn // chip_stride)
                misses += 1
            if computes is not None:
                append_compute(bitmap_check_us)
            i += 1
        ftl._recent_length_sum = length_sum
        ftl._sequential_streak = streak
        ftl._last_lpn_end = last_end
        k = i - pos
        self._pos = i
        if k:
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
            if model_lookups:
                stats.model_lookups += model_lookups
                stats.predictions += model_hits
                stats.model_hits += model_hits
                outcome_counts[_OUT_MODEL_HIT] += model_hits
            # One data read per request plus one translation read per miss.
            self._flash.total_reads += k + misses
        if misses == 0:
            trans_chips = None
        return k, data_chips, trans_chips, misses, computes

    def skip(self) -> None:
        """Advance past a request the device just executed through the scalar path."""
        self._pos += 1


class DirectReadPlanner:
    """Ideal-FTL read-run planner: every mapped read, zero per-request Python.

    The ideal FTL's read path mutates nothing, so the whole plan reduces to
    array predicates at construction; :meth:`take` only slices the
    precomputed chip column up to the next unmapped (or unreadable) request.
    """

    __slots__ = ("_dchips", "_bad", "_bad_pos", "_n", "_pos", "_flash", "_stats")

    data_code = _CODE_DATA_READ
    trans_code = _CODE_TRANSLATION_READ

    def __init__(self, ftl: "FTLBase", lpns: np.ndarray) -> None:
        directory = ftl.directory
        flash = ftl.flash
        ppns = directory.lookup_many(lpns)
        mapped = ppns >= 0
        safe = np.where(mapped, ppns, 0)
        ok = mapped & (np.frombuffer(flash._page_state, dtype=np.uint8)[safe] == PAGE_VALID)
        self._dchips = (safe // flash._chip_stride).tolist()
        #: Indices the fast path must hand to the scalar fallback, ascending.
        self._bad = np.flatnonzero(~ok).tolist()
        self._bad_pos = 0
        self._n = lpns.shape[0]
        self._pos = 0
        self._flash = flash
        self._stats = ftl.stats

    def take(self):
        """Consume the mapped prefix from the cursor; see :meth:`DemandReadPlanner.take`."""
        pos = self._pos
        bad = self._bad
        bad_pos = self._bad_pos
        while bad_pos < len(bad) and bad[bad_pos] < pos:
            bad_pos += 1
        self._bad_pos = bad_pos
        end = bad[bad_pos] if bad_pos < len(bad) else self._n
        k = end - pos
        if k <= 0:
            return 0, [], None, 0, None
        data_chips = self._dchips[pos:end]
        self._pos = end
        stats = self._stats
        stats.host_read_requests += k
        stats.host_read_pages += k
        stats.cmt_lookups += k
        stats.cmt_hits += k
        stats.outcome_counts[_OUT_CMT_HIT] += k
        self._flash.total_reads += k
        return k, data_chips, None, 0, None

    def skip(self) -> None:
        """Advance past a request the device just executed through the scalar path."""
        self._pos += 1

