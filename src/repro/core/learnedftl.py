"""LearnedFTL: learning-based page-level FTL (the paper's contribution).

LearnedFTL keeps TPFTL's demand-based machinery for locality-friendly traffic
and adds, to every GTD entry, an **in-place-update linear model** guarded by a
bitmap filter (Section III-B).  The model predicts the *virtual* PPN of an LPN
(Section III-C) so it can be trained over the contiguous VPPNs produced by the
**group-based allocation** strategy (Section III-D).  Models are initialized on
long sequential writes and (re)trained during group garbage collection
(Section III-E).

Read path (Figure 1c):

1. check the CMT — a hit is a single flash read;
2. on a miss, check the bitmap filter of the LPN's GTD-entry model.  A set bit
   means the model's prediction is exact: predict the VPPN, translate it back
   to a PPN and read the data — still a single flash read (a *model hit*);
3. otherwise fall back to TPFTL's double read (translation-page read + data
   read) and load the mapping (plus prefetched neighbours) into the CMT.

Write path: clear the written LPNs' bitmap bits (consistency), allocate pages
from the LPN's GTD entry group, persist the mapping through the CMT /
translation pages as TPFTL does, and run *sequential initialization* over the
request's contiguous VPPN run.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import GroupAllocator, GroupGCNeeded
from repro.core.base import _MIN_COLUMN_WRITE, FTLBase, FTLConfig
from repro.core.batch import GroupedReadPlanner
from repro.core.cmt import PAGE_NODE_OVERHEAD_ENTRIES, LoadingPolicy, PageGroupedCMT
from repro.core.learned.inplace_model import (
    InPlaceLinearModel,
    TrainingResult,
    model_fleet,
    pack_models,
    unpack_models,
)
from repro.core.mapping import TranslationPageStore
from repro.nand.errors import ConfigurationError
from repro.nand.flash import PAGE_VALID
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.ssd.request import (
    OP_STRIDE,
    CommandKind,
    CommandPurpose,
    HostRequest,
    ReadOutcome,
    command_code,
)
from repro.ssd.stats import SimulationStats

__all__ = ["LearnedFTL"]

_CODE_DATA_WRITE = command_code(CommandKind.PROGRAM, CommandPurpose.DATA_WRITE)
_CODE_GC_READ = command_code(CommandKind.READ, CommandPurpose.GC_READ)
_CODE_GC_WRITE = command_code(CommandKind.PROGRAM, CommandPurpose.GC_WRITE)

_OUT_BUFFER_HIT = ReadOutcome.BUFFER_HIT.code
_OUT_CMT_HIT = ReadOutcome.CMT_HIT.code
_OUT_MODEL_HIT = ReadOutcome.MODEL_HIT.code
_OUT_DOUBLE_READ = ReadOutcome.DOUBLE_READ.code

#: Shortest run of single-page reads served through the read planner
#: (:class:`~repro.core.batch.GroupedReadPlanner`) rather than request by
#: request through the device's request step.  Below it the planner's fixed
#: cost per run (~120 us of NumPy gathers) and per refusal outweighs the
#: per-request Python it replaces.  Measured on a 2-core x86-64 VM (CPython
#: 3.11.7, NumPy 2.4.6), ``SSDGeometry.medium()`` at 25 % OP, 8 threads:
#: isolated runs of L reads that refuse nothing broke even near L = 24; on
#: the 95 %-read hotspot stream, whose writes leave dirty CMT nodes the
#: planner refuses to evict, planning runs of 32 or more ran at 61 k ops/s,
#: 64 or more at 70 k and never planning at 66 k; at 99 % reads 64 or more
#: ran at 73 k against 57 k (see docs/architecture.md, "The closed loop and
#: its read kernel").  Both paths leave bit-identical device state.
_MIN_READ_RUN = 64


class LearnedFTL(FTLBase):
    """The paper's learning-based page-level FTL."""

    name = "learnedftl"
    description = "LearnedFTL: CMT + per-GTD-entry in-place-update linear models."

    def __init__(
        self,
        geometry: SSDGeometry,
        *,
        timing: TimingModel | None = None,
        config: FTLConfig | None = None,
        stats: SimulationStats | None = None,
    ) -> None:
        super().__init__(geometry, timing=timing, config=config, stats=stats)
        self.allocator = GroupAllocator(
            geometry,
            self.flash,
            group_stripe_limit=self.config.group_stripe_limit,
            borrow_threshold_fraction=self.config.borrow_threshold_fraction,
        )
        # Group GC never writes into the reserve stripes' share of the space,
        # so a device whose remaining data stripes cannot hold every logical
        # page would run out of room part-way through its first fill.
        pages_per_stripe = self.allocator.stripe_map.pages_per_stripe
        data_stripes = self.allocator.free_stripe_count()
        reserve = self.allocator.gc_reserve_stripes
        usable = (data_stripes - reserve) * pages_per_stripe
        if usable < geometry.num_logical_pages:
            raise ConfigurationError(
                f"learnedftl cannot hold the logical space: {usable} usable data pages "
                f"(({data_stripes} data stripes - {reserve} GC reserve) x {pages_per_stripe} "
                f"pages per stripe) < {geometry.num_logical_pages} logical pages; "
                f"raise op_ratio or add blocks"
            )
        self.translation_store = TranslationPageStore(
            self.flash, self.directory, self.allocator.allocate_translation
        )
        self.cmt = PageGroupedCMT(
            capacity_entries=self.config.cmt_entries(geometry, learnedftl=True),
            mappings_per_page=geometry.mappings_per_translation_page,
        )
        mappings_per_tp = geometry.mappings_per_translation_page
        #: One model per GTD entry; model ``t``'s bitmap is row ``t`` of the
        #: fleet bit column ``_model_bits``.  The bit of LPN ``l`` in entry
        #: ``t`` is bit ``b & 7`` of byte ``b >> 3`` for ``b = l + t *
        #: _model_bit_pad``; the pad is the row's spare bits, 0 whenever a
        #: translation page holds a multiple of 8 mappings (a page size that
        #: is a multiple of 64 bytes), so ``b`` is ``l`` itself.
        self.models: list[InPlaceLinearModel]
        self._model_bits, self.models = model_fleet(
            geometry.num_translation_pages, mappings_per_tp, max_pieces=self.config.max_pieces
        )
        self._model_bit_pad = -mappings_per_tp % 8
        #: TPFTL's loading policy, for the misses the models cannot answer.
        self.loading = LoadingPolicy(
            self.cmt,
            self.directory._ppn,
            geometry.num_logical_pages,
            self.config.prefetch_max_entries,
        )
        self._mappings_per_page = geometry.mappings_per_translation_page
        # Per-lookup constants and live references, hoisted out of the read
        # hot loop (the CMT's page dict and capacity never get reassigned).
        self._charge_compute = self.config.charge_compute
        self._bitmap_check_us = self.timing.bitmap_check_us if self._charge_compute else 0.0
        self._predict_us = self.timing.predict_us
        self._cmt_pages = self.cmt._pages
        # The directory's mapping column and the store's read entry point are
        # created once; direct references shave attribute hops per page read.
        self._dir_column = self.directory._ppn
        self._ts_read_into = self.translation_store.read_into
        self._vppn_to_ppn = self.codec.vppn_to_ppn
        # Write-side constants and columns (restores write the columns in place).
        self._page_state = self.flash._page_state
        self._chip_stride = self.flash._chip_stride
        #: Proactive GC (Section III-D) starts below a group's worth of free
        #: pages plus one stripe of slack.
        self._proactive_gc_pages = (
            self.allocator.lpns_per_group + self.allocator.stripe_map.pages_per_stripe
        )

    # ------------------------------------------------------------------ read
    def read(self, request: HostRequest, now: float) -> None:
        self.loading.observe(request.lpn, request.npages)
        self._encode_read(request)

    def begin_read_run(self, lpns):
        """Batch CMT hits, model hits and eviction-free double-read misses of
        a run of at least :data:`_MIN_READ_RUN` reads; see
        :class:`repro.core.batch.GroupedReadPlanner`."""
        if len(lpns) < _MIN_READ_RUN:
            return None
        return GroupedReadPlanner(self, lpns)

    def _translate_read(self, lpn: int, head_stage: list) -> tuple[int | None, int, float]:
        stats = self.stats
        stats.cmt_lookups += 1
        # Inlined PageGroupedCMT.lookup (runs once per host page read); the
        # translation-page index it derives is reused by the model and
        # translation-store steps below.
        tvpn = lpn // self._mappings_per_page
        pages = self._cmt_pages
        node = pages.get(tvpn)
        if node is not None:
            cached = node.get(lpn)
            if cached is not None:
                node.move_to_end(lpn)
                pages.move_to_end(tvpn)
                stats.cmt_hits += 1
                return cached, _OUT_CMT_HIT, 0.0
        # Inlined MappingDirectory.lookup (-1 is the unmapped sentinel).
        actual = self._dir_column[lpn] if 0 <= lpn < self._num_logical_pages else -1
        if actual == -1:
            return None, _OUT_BUFFER_HIT, 0.0
        compute_us = self._bitmap_check_us
        stats.model_lookups += 1
        bit = lpn + tvpn * self._model_bit_pad
        if self._model_bits[bit >> 3] & (1 << (bit & 7)):
            vppn = self.models[tvpn].predict_exact(lpn)
            predicted_ppn = self._vppn_to_ppn(vppn) if vppn is not None else None
            if self._charge_compute:
                compute_us += self._predict_us
                stats.predict_time_us += self._predict_us
            stats.predictions += 1
            if predicted_ppn == actual:
                stats.model_hits += 1
                return actual, _OUT_MODEL_HIT, compute_us
            # A set bitmap bit guarantees accuracy by construction; reaching
            # this branch indicates a consistency bug, so fail loudly in tests
            # rather than silently fall back.
            raise ConfigurationError(
                f"bitmap filter claimed accuracy for lpn {lpn} but model predicted "
                f"{predicted_ppn}, actual {actual}"
            )
        # Bitmap bit clear: classic TPFTL-style double read.
        if self._ts_read_into(self.buffer, head_stage, tvpn):
            outcome = _OUT_DOUBLE_READ
        else:
            outcome = _OUT_CMT_HIT
            stats.cmt_hits += 1
        evicted = self.loading.load(lpn, actual, tvpn)
        if evicted:
            self._handle_evictions(evicted)
        return actual, outcome, compute_us

    # ----------------------------------------------------------------- write
    def write(self, request: HostRequest, now: float) -> None:
        """Serve a host write, page by page or in columnar chunks.

        The request is observed, the copies it supersedes are invalidated,
        its pages written, then sequential initialization, hinted group GC
        and translation-pool GC run.  Overwritten physical copies are stale
        the moment the request is accepted; invalidating them first lets the
        group GC triggered by this very write reclaim their space.  A request
        of at least :data:`~repro.core.base._MIN_COLUMN_WRITE` pages is
        written in columnar chunks (:meth:`_write_columns`), a shorter one
        page by page (:meth:`_write_pages`); both leave the same state.
        """
        first, npages = request.lpn, request.npages
        end = first + npages
        self.loading.observe(first, npages)
        # The program stage floats while per-page allocation may commit GC
        # stages and CMT evictions may commit flush stages; it is committed
        # after them, exactly as the object pipeline appended it.
        program_stage = [0.0]
        if npages >= _MIN_COLUMN_WRITE:
            self._invalidate_superseded(np.arange(first, end, dtype=np.int64))
            self._write_columns(first, end, program_stage, now)
        else:
            # Inlined MappingDirectory.lookup / FlashArray.is_valid.
            column = self._dir_column
            page_state = self._page_state
            for lpn in range(first, end):
                old = column[lpn]
                if old != -1 and page_state[old] == PAGE_VALID:
                    self.flash.invalidate(old)
            self._write_pages(first, end, program_stage, now)
        # Inlined CommandBuffer.commit_stage: the stage holds every page's
        # program command and no compute time.
        self.buffer.stages.append(program_stage)
        if npages >= self.config.sequential_init_min_pages:
            self._sequential_initialization(first, npages)
        if self.allocator._hinted:
            for hinted_group in self.allocator.take_gc_hints():
                self._group_gc(hinted_group, now)
        self._maybe_translation_gc()

    def _write_pages(self, first: int, end: int, program_stage: list, now: float) -> None:
        """Allocate, program, map and cache pages ``first .. end - 1``, one at a time.

        The per-page body of every write: a short write runs it over all its
        pages, the columnar body (:meth:`_write_columns`) over each page that
        ends a chunk.
        """
        column = self._dir_column
        directory = self.directory
        program_data = self.flash.program_data
        models = self.models
        model_bits = self._model_bits
        bit_pad = self._model_bit_pad
        mappings_per_page = self._mappings_per_page
        chip_stride = self._chip_stride
        ops = self.buffer.ops
        insert = self.cmt.insert
        for lpn in range(first, end):
            # Allocation may trigger group GC (which retrains models from the
            # *current* directory), so the bitmap bit of the overwritten LPN
            # is cleared only once the new mapping is installed.
            ppn = self._allocate_for_lpn(lpn, now)
            # Inlined MappingDirectory.update (encode range-checked the write).
            if column[lpn] == -1:
                directory._mapped_count += 1
            column[lpn] = ppn
            program_data(ppn, lpn)
            # Inlined InPlaceLinearModel.invalidate: Bitmap.clear of the
            # LPN's bit in the fleet column (layout: see __init__).
            tvpn = lpn // mappings_per_page
            bit = lpn + tvpn * bit_pad
            mask = 1 << (bit & 7)
            if model_bits[bit >> 3] & mask:
                model_bits[bit >> 3] ^= mask
                models[tvpn].bitmap._popcount -= 1
            # Inlined program_command / CommandBuffer.append.
            index = len(ops)
            ops.extend((_CODE_DATA_WRITE, ppn // chip_stride, ppn, -1))
            if len(program_stage) > 1 and program_stage[-1] == index:
                program_stage[-1] = index + OP_STRIDE
            else:
                program_stage.append(index)
                program_stage.append(index + OP_STRIDE)
            evicted = insert(lpn, ppn, dirty=True)
            if evicted:
                self._handle_evictions(evicted)

    def _write_columns(self, lpn: int, end: int, program_stage: list, now: float) -> None:
        """Write pages ``lpn .. end - 1`` in maximal chunks of plain pages.

        A chunk is a run of pages the per-page body would serve without
        anything but an allocation from the group's own stripe or a fresh
        stripe and a CMT insert that evicts nothing.  It ends before the page
        that trips the proactive-GC threshold, needs borrowing or group GC
        (``allocate_run`` stops there), or would make the CMT evict; that
        page goes through :meth:`_write_pages` and the next chunk starts after
        it.  A chunk must end *before* an evicting insert: a dirty eviction's
        translation flush takes the next flash write version, so the data
        programs after it must not be issued ahead of it.

        Below the threshold with no group holding an invalid page (the tail
        of a fill), the per-page body's proactive GC finds no victim and does
        nothing, and nothing a chunk does can create one, so the chunk does
        not stop for the threshold.
        """
        allocator = self.allocator
        lpns_per_group = allocator.lpns_per_group
        threshold = self._proactive_gc_pages
        while lpn < end:
            count = self._insertable_run(lpn, end)
            if count:
                groups = [page // lpns_per_group for page in range(lpn, lpn + count)]
                min_free_pages = threshold
                if (
                    allocator.total_free_pages() < threshold
                    and allocator.gc_candidate() is None
                ):
                    min_free_pages = 0
                ppns = allocator.allocate_run(groups, count, min_free_pages)
                if ppns:
                    self._write_chunk(lpn, ppns, program_stage)
                    lpn += len(ppns)
            if lpn < end:
                self._write_pages(lpn, lpn + 1, program_stage, now)
                lpn += 1

    def _insertable_run(self, lpn: int, end: int) -> int:
        """How many pages from ``lpn`` (below ``end``) insert into the CMT without evicting.

        Mirrors :meth:`PageGroupedCMT.insert_many`'s size accounting: a page
        already cached costs nothing, a new page of a cached node one entry,
        the first page of an uncached node one entry plus the node overhead.
        """
        pages = self._cmt_pages
        room = self.cmt.capacity_entries - self.cmt.memory_entries()
        mappings_per_page = self._mappings_per_page
        start = lpn
        while lpn < end:
            tvpn = lpn // mappings_per_page
            stop = min(end, (tvpn + 1) * mappings_per_page)
            node = pages.get(tvpn)
            if node is None:
                need = stop - lpn + PAGE_NODE_OVERHEAD_ENTRIES
                if need > room:
                    return lpn - start + max(0, room - PAGE_NODE_OVERHEAD_ENTRIES)
                room -= need
            else:
                for page in range(lpn, stop):
                    if page not in node:
                        if room <= 0:
                            return page - start
                        room -= 1
            lpn = stop
        return lpn - start

    def _write_chunk(self, first: int, ppn_list: list[int], program_stage: list) -> None:
        """Program, map and cache pages ``first ..`` at their allocated PPNs, as columns."""
        end = first + len(ppn_list)
        lpns = np.arange(first, end, dtype=np.int64)
        ppns = np.array(ppn_list, dtype=np.int64)
        self.directory.store_many(lpns, ppns)
        self.flash.program_data_many(ppns, lpns)
        mappings_per_page = self._mappings_per_page
        for tvpn in range(first // mappings_per_page, (end - 1) // mappings_per_page + 1):
            base = tvpn * mappings_per_page
            self.models[tvpn].bitmap.clear_many(
                np.arange(max(first, base) - base, min(end, base + mappings_per_page) - base)
            )
        self.buffer.extend(program_stage, _CODE_DATA_WRITE, ppns // self.flash._chip_stride, ppns)
        self.cmt.insert_many(zip(range(first, end), ppn_list), dirty=True)

    def _allocate_for_lpn(self, lpn: int, now: float) -> int:
        """Allocate the page of ``lpn``, garbage-collecting groups when needed.

        Proactive GC (Section III-D): once free space falls below a group's
        worth plus one stripe of slack, collect groups with invalid pages
        while there is still room to relocate their valid pages.  Checked per
        page because a single large host write can consume a stripe by
        itself.  A :class:`GroupGCNeeded` from the allocator is answered by
        collecting the group it names and asking again.  In the common case
        neither loop runs: one check and one ``allocate_page`` call.
        """
        allocator = self.allocator
        # Inlined GroupAllocator.total_free_pages().
        if allocator._free_pages_total < self._proactive_gc_pages:
            guard = 0
            while (
                allocator.total_free_pages() < self._proactive_gc_pages
                and guard < allocator.num_groups
            ):
                victim = allocator.gc_candidate()
                if victim is None:
                    break
                before = allocator.total_free_pages()
                self._group_gc(victim, now)
                if allocator.total_free_pages() <= before:
                    break
                guard += 1
        group = lpn // allocator.lpns_per_group
        for _ in range(allocator.num_groups + 2):
            try:
                return allocator.allocate_page(group)[0]
            except GroupGCNeeded as need:
                self._group_gc(need.victim_group, now)
        raise ConfigurationError("group allocation failed to converge after repeated GC")

    # ----------------------------------------------- sequential initialization
    def _sequential_initialization(self, first: int, npages: int) -> None:
        """Section III-E1: update models in place from a sequential write run.

        The *current* directory mapping is consulted rather than the PPN
        recorded at program time: a group GC triggered midway through a long
        request may already have relocated the earlier pages, and training on
        their old locations would plant stale bits in the bitmap filter.  A
        long request's VPPNs come from one ``lookup_many`` + one
        ``ppn_to_vppn_many``; each GTD entry then sees its slice of the run.
        """
        end = first + npages
        if npages >= _MIN_COLUMN_WRITE:
            ppns = self.directory.lookup_many(np.arange(first, end, dtype=np.int64))
            vppns = self.codec.ppn_to_vppn_many(ppns).tolist()
        else:
            ppn_to_vppn = self.codec.ppn_to_vppn
            column = self._dir_column
            vppns = [ppn_to_vppn(column[lpn]) for lpn in range(first, end)]
        mappings_per_page = self._mappings_per_page
        for tvpn in range(first // mappings_per_page, (end - 1) // mappings_per_page + 1):
            lo = max(first, tvpn * mappings_per_page)
            hi = min(end, (tvpn + 1) * mappings_per_page)
            self.models[tvpn].sequential_update(range(lo, hi), vppns[lo - first : hi - first])

    # ------------------------------------------------------------------- GC
    def _group_gc(self, group: int, now: float) -> None:
        """Group-based garbage collection with model training (Section III-E2)."""
        first = len(self.buffer.ops)
        collected = self._expand_collection_set(group)
        # Sorted member order: the release order of reclaimed stripes feeds the
        # allocator's free list, so it must not depend on set iteration order
        # (which a snapshot restore cannot reproduce bit-exactly).
        old_stripes = {
            member: self.allocator.stripes_of_group(member) for member in sorted(collected)
        }
        # A scattered write-back stays out of the stripes being emptied while
        # it can, or they could never be erased.
        emptying = {stripe for stripes in old_stripes.values() for stripe in stripes}
        total_moved = 0
        total_blocks = 0
        total_translation_writes = 0
        compute_us_total = 0.0
        for member in sorted(collected):
            moved, translation_writes, compute_us = self._move_group(member, emptying)
            total_moved += moved
            total_translation_writes += translation_writes
            compute_us_total += compute_us
            # Free stripes as soon as they become fully invalid so the next
            # member's write-back always has a destination.
            total_blocks += self._release_invalid_stripes(old_stripes)
        for member in collected:
            self.allocator.reset_borrow_state(member)
        self._record_gc(
            "gc_group",
            {"group": group, "blocks_erased": total_blocks, "pages_moved": total_moved},
            time_us=now,
            blocks_erased=total_blocks,
            pages_moved=total_moved,
            translation_pages_written=total_translation_writes,
            flash_time_us=self._flash_time_since(first),
            compute_time_us=compute_us_total,
            group=group,
        )

    def _expand_collection_set(self, group: int) -> set[int]:
        """The victim group plus every group with valid pages in its stripes (fixed point)."""
        collected = {group}
        collected.update(self.allocator.group_state(group).lenders)
        for _ in range(self.allocator.num_groups):
            stripes = [s for g in collected for s in self.allocator.stripes_of_group(g)]
            residents = self.allocator.groups_resident_in_stripes(stripes)
            if residents.issubset(collected):
                break
            collected |= residents
        return collected

    def _move_group(self, group: int, emptying: set[int]) -> tuple[int, int, float]:
        """Relocate a group's valid pages (sorted by LPN) and retrain its models.

        ``emptying`` holds the stripes the whole collection is emptying, which
        the write-back avoids while it can (see ``GroupAllocator.gc_destination``).
        """
        allocator = self.allocator
        flash = self.flash
        directory = self.directory
        buffer = self.buffer
        # Only mappings whose physical copy is still valid *and still holds this
        # LPN* are relocated: a mapping whose copy was invalidated by an
        # in-flight overwrite (and whose page may even have been erased and
        # reused already) will be rewritten by that overwrite right after this
        # GC completes.
        lpn_range = allocator.lpn_range_of_group(group)
        group_lpns = np.arange(lpn_range.start, lpn_range.stop, dtype=np.int64)
        group_ppns = directory.lookup_many(group_lpns)
        mapped = np.flatnonzero(group_ppns != -1)
        relocated = np.zeros(len(lpn_range), dtype=bool)
        relocated[mapped] = flash.live_lpns(group_ppns[mapped]) == group_lpns[mapped]
        lpns = group_lpns[relocated]
        old_ppns = group_ppns[relocated]
        moved = int(lpns.size)
        new_ppns = allocator.gc_destination(group, moved, emptying)
        read_stage = buffer.new_stage()
        write_stage = buffer.new_stage()
        buffer.extend(read_stage, _CODE_GC_READ, flash.touch_read_many(old_ppns), old_ppns)
        # Program before invalidate; the new copies take the next write
        # versions in LPN order.
        flash.program_data_many(new_ppns, lpns)
        flash.invalidate_many(old_ppns)
        directory.store_many(lpns, new_ppns)
        buffer.extend(write_stage, _CODE_GC_WRITE, new_ppns // flash._chip_stride, new_ppns)
        mappings_per_page = self._mappings_per_page
        for tvpn in allocator.tvpns_of_group(group):
            first = tvpn * mappings_per_page - lpn_range.start
            entry_offsets = np.flatnonzero(relocated[first : first + mappings_per_page])
            if entry_offsets.size == 0:
                continue
            # The relocation changed these LPNs' physical location, so any bit
            # set by an earlier training pass is stale until the entry is retrained.
            self.models[tvpn].bitmap.clear_many(entry_offsets)
            # Refresh the cached copies in ascending LPN order, which leaves the
            # LRU order of the node (and of the nodes) as relocating page by page would.
            node = self._cmt_pages.get(tvpn)
            if node:
                for lpn in sorted(node):
                    if relocated[lpn - lpn_range.start]:
                        self._handle_evictions(
                            self.cmt.insert(lpn, self._dir_column[lpn], dirty=False)
                        )
        # Per-GTD-entry sorting + training + bitmap evaluation, plus the
        # translation-page writes for the refreshed mappings.
        compute_us = 0.0
        translation_stage = buffer.new_stage()
        translation_writes = 0
        for tvpn in allocator.tvpns_of_group(group):
            entry_lpns = directory.mapped_lpns_of_tvpn(tvpn)
            if entry_lpns.size == 0:
                continue
            if self.config.train_on_gc:
                self._train_entry(tvpn, entry_lpns)
                if self.config.charge_compute:
                    compute_us += self.timing.sort_us_per_entry + self.timing.train_us_per_entry
                self.stats.sort_time_us += self.timing.sort_us_per_entry
                self.stats.train_time_us += self.timing.train_us_per_entry
            self._write_back_translation(translation_stage, tvpn, _CODE_GC_WRITE)
            translation_writes += 1
        buffer.commit_stage(read_stage)
        buffer.commit_stage(write_stage, compute_us)
        buffer.commit_stage(translation_stage)
        return moved, translation_writes, compute_us

    def _train_entry(self, tvpn: int, entry_lpns: np.ndarray) -> TrainingResult:
        """(Re)train one GTD entry's model over its mapped LPNs' current VPPNs."""
        vppns = self.codec.ppn_to_vppn_many(self.directory.lookup_many(entry_lpns))
        self.stats.models_trained += 1
        return self.models[tvpn].train(entry_lpns, vppns)

    def _release_invalid_stripes(self, old_stripes: dict[int, list[int]]) -> int:
        """Erase and free every pre-GC stripe that no longer holds valid
        pages; returns the number of blocks erased."""
        flash = self.flash
        blocks_of = self.allocator.stripe_map.blocks_of
        erase_stage = self.buffer.new_stage()
        blocks_erased = 0
        for member, stripes in old_stripes.items():
            remaining: list[int] = []
            for stripe in stripes:
                written = [block for block in blocks_of(stripe) if flash.block_programmed(block)]
                if not written or any(flash.block_valid_count(block) for block in written):
                    remaining.append(stripe)
                    continue
                for block in written:
                    self.erase_block(erase_stage, block)
                blocks_erased += len(written)
                self.allocator.release_stripe(stripe)
            old_stripes[member] = remaining
        self.buffer.commit_stage(erase_stage)
        return blocks_erased

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["cmt"] = self.cmt.state_dict()
        state["models"] = pack_models(self.models, self._model_bits)
        state["locality"] = self.loading.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.cmt.load_state(state["cmt"])
        unpack_models(self.models, self._model_bits, state["models"])
        self.loading.load_state(state["locality"])
