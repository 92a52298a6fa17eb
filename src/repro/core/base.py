"""Common FTL machinery shared by every mapping scheme in the repository.

:class:`FTLConfig` carries every tunable referenced in the paper's evaluation
(CMT size ratio, LeaFTL's error bound and buffer size, LearnedFTL's piece
budget and group parameters, GC thresholds, and the switches that turn the
controller-computation charges on/off for Figure 18).

:class:`FTLBase` owns the objects every design needs — flash array, address
codec, authoritative mapping directory, statistics, and the reusable
:class:`~repro.ssd.request.CommandBuffer` every request is encoded into — and
defines the ``encode`` / ``read`` / ``write`` entry points the device calls.
The designs never build command objects: the helpers here append
integer-coded commands straight into the buffer, and the timing engine
consumes the buffer directly.

:class:`StripingFTLBase` adds the pieces shared by all *dynamic allocation*
designs (DFTL, TPFTL, LeaFTL and the ideal page-mapping FTL): the striping
allocator, flash-resident translation pages, greedy garbage collection and the
write path.  LearnedFTL uses the group allocator and therefore derives directly
from :class:`FTLBase`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.allocation import StripingAllocator
from repro.core.cmt import EvictedPage
from repro.core.mapping import MappingDirectory, TranslationPageStore
from repro.nand.errors import ConfigurationError, GeometryError
from repro.nand.fields import Checked, Count, Fraction, NonNegativeFloat, PositiveInt
from repro.nand.flash import PAGE_FREE, PAGE_VALID, FlashArray
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.obs.trace import NULL_TRACER
from repro.ssd.request import (
    OP_STRIDE,
    CommandBuffer,
    CommandKind,
    CommandPurpose,
    HostRequest,
    OpType,
    command_code,
    durations_by_code,
)
from repro.ssd.stats import GCEvent, SimulationStats

__all__ = ["FTLConfig", "FTLBase", "StripingFTLBase"]

# Hot-path command codes, precomputed at import time (one per flash command
# otherwise).
_CODE_DATA_READ = command_code(CommandKind.READ, CommandPurpose.DATA_READ)
_CODE_GC_READ = command_code(CommandKind.READ, CommandPurpose.GC_READ)
_CODE_OOB_PROBE = command_code(CommandKind.READ, CommandPurpose.OOB_PROBE)
_CODE_DATA_WRITE = command_code(CommandKind.PROGRAM, CommandPurpose.DATA_WRITE)
_CODE_GC_WRITE = command_code(CommandKind.PROGRAM, CommandPurpose.GC_WRITE)
_CODE_TRANSLATION_WRITE = command_code(CommandKind.PROGRAM, CommandPurpose.TRANSLATION_WRITE)
_CODE_GC_ERASE = command_code(CommandKind.ERASE, CommandPurpose.GC_ERASE)

# Hoisted enum member: ``encode`` branches on it once per simulated request.
_READ_OP = OpType.READ

#: Shortest host write served as columns (one allocator call, one program,
#: directory, invalidation and command scatter for the whole request) rather
#: than page by page.  Below it NumPy's fixed cost per request (~45 us)
#: outweighs the per-page Python it replaces.  Measured break-even on a
#: 2-core x86-64 VM, sequential writes to a fresh ``SSDGeometry.medium()``:
#: between 16 and 24 pages for LearnedFTL, between 32 and 48 for DFTL, TPFTL,
#: LeaFTL and the ideal FTL (see docs/architecture.md, "Columnar multi-page
#: writes").  One value serves every design, so it sits at the slowest
#: break-even.  Both bodies leave bit-identical device state.
_MIN_COLUMN_WRITE = 48


@dataclass(frozen=True)
class FTLConfig(Checked):
    """Tunable parameters for every FTL design.

    Only the fields relevant to a given design are consulted by it; keeping a
    single configuration object makes experiment sweeps trivial.  Every field
    is checked when the config is built, whichever design will read it (see
    :mod:`repro.nand.fields`); a bad one raises :class:`ConfigurationError`
    naming it.
    """

    # Mapping-cache sizing -------------------------------------------------
    cmt_ratio: Fraction = 0.03
    """CMT capacity as a fraction of the full page-mapping table (DFTL/TPFTL/LeaFTL)."""

    learnedftl_cmt_ratio: Fraction = 0.015
    """LearnedFTL's CMT ratio: half of the others so the learned models' memory
    keeps the total DRAM budget identical (Section IV-A)."""

    min_cmt_entries: PositiveInt = 64
    """Lower bound on CMT capacity so tiny test geometries stay functional."""

    # TPFTL ------------------------------------------------------------------
    prefetch_max_entries: PositiveInt = 64
    """Upper bound on TPFTL's workload-adaptive prefetch length."""

    # LeaFTL ------------------------------------------------------------------
    leaftl_gamma: NonNegativeFloat = 4.0
    """LeaFTL's PLR error bound (larger = fewer, more approximate segments)."""

    leaftl_buffer_pages: PositiveInt = 2048
    """Mappings buffered before LeaFTL sorts, trains and flushes segments."""

    # LearnedFTL ---------------------------------------------------------------
    max_pieces: PositiveInt = 8
    """Pieces per in-place-update linear model (paper default: 8)."""

    group_stripe_limit: PositiveInt = 2
    """Stripes a GTD entry group may hold before GC is requested."""

    borrow_threshold_fraction: Fraction = 0.5
    """Fraction of a stripe a hot group may borrow before GC of both groups."""

    sequential_init_min_pages: PositiveInt = 2
    """Minimum write-request length eligible for sequential initialization."""

    charge_compute: bool = True
    """Charge sorting/training/prediction time on the simulated timeline."""

    train_on_gc: bool = True
    """Train models during GC (switching this off isolates sequential init)."""

    # Garbage collection --------------------------------------------------------
    gc_free_block_fraction: Fraction = 0.03
    """Greedy GC starts when free data blocks drop below this fraction."""

    gc_target_free_blocks: Count = 0
    """Free blocks greedy GC tries to restore (0 = threshold + one per chip)."""

    def cmt_entries(self, geometry: SSDGeometry, *, learnedftl: bool = False) -> int:
        """Translate a CMT ratio into an entry budget for a geometry."""
        ratio = self.learnedftl_cmt_ratio if learnedftl else self.cmt_ratio
        return max(self.min_cmt_entries, int(geometry.num_logical_pages * ratio))


class FTLBase(ABC):
    """Interface and shared state of every FTL design."""

    name: str = "base"
    description: str = ""

    def __init__(
        self,
        geometry: SSDGeometry,
        *,
        timing: TimingModel | None = None,
        config: FTLConfig | None = None,
        stats: SimulationStats | None = None,
    ) -> None:
        self.geometry = geometry
        self.timing = timing or TimingModel.femu_default()
        #: Each command code's flash latency (:meth:`_flash_time_since`).
        self._durations = durations_by_code(self.timing)
        self.config = config or FTLConfig()
        self.stats = stats or SimulationStats()
        self.flash = FlashArray(geometry)
        self.codec = self.flash.codec
        self.directory = MappingDirectory(geometry)
        self._num_logical_pages = geometry.num_logical_pages
        #: Reusable flat transaction encoding; reset at the start of every
        #: request, consumed directly by ``TimingEngine.execute_buffer``.
        self.buffer = CommandBuffer()
        #: Structured event tracer (:mod:`repro.obs.trace`); the shared no-op
        #: by default, replaced by ``SSD.enable_observability``.  Hook sites
        #: gate on ``tracer.enabled`` so the disabled cost is one attribute
        #: load on the cold GC/eviction paths only.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------ interface
    def encode(self, request: HostRequest, now: float = 0.0) -> CommandBuffer:
        """Handle one host request, encoding its flash work into the buffer.

        This is the hot-path entry point the device drives: the returned
        buffer is ``self.buffer`` (reset and refilled), valid until the next
        ``encode`` call on this FTL.

        A request of fewer than one page, and a write reaching outside the
        logical space, raise :class:`~repro.nand.errors.GeometryError` (the
        latter naming its first such LPN) before anything is counted,
        observed or mutated; reads of unmapped or out-of-range LPNs are
        served as zero-fill.
        """
        npages = request.npages
        if npages < 1:
            raise GeometryError(
                f"request at lpn {request.lpn} covers {npages} pages; at least 1 is required"
            )
        stats = self.stats
        buffer = self.buffer
        # Inlined buffer.reset and host-request counting (both run once per
        # simulated request).
        buffer.ops.clear()
        buffer.outcome_codes.clear()
        buffer.stages.clear()
        if request.op is _READ_OP:
            stats.host_read_requests += 1
            stats.host_read_pages += npages
            self.read(request, now)
        else:
            first = request.lpn
            if first < 0 or first + npages > self._num_logical_pages:
                self.geometry.check_lpn(first if first < 0 else max(first, self._num_logical_pages))
            stats.host_write_requests += 1
            stats.host_write_pages += npages
            self.write(request, now)
        return buffer

    @abstractmethod
    def read(self, request: HostRequest, now: float) -> None:
        """Translate and serve a host read (encoding into ``self.buffer``)."""

    @abstractmethod
    def write(self, request: HostRequest, now: float) -> None:
        """Allocate, program and persist mappings for a host write
        (encoding into ``self.buffer``); :meth:`encode` has already checked
        that the request lies inside the logical space."""

    def _invalidate_superseded(self, lpns: np.ndarray) -> None:
        """Invalidate the valid flash copies a multi-page write supersedes.

        One directory gather, one page-state gather and one
        :meth:`FlashArray.invalidate_many` scatter: the columnar form of the
        per-page ``lookup`` / ``is_valid`` / ``invalidate`` loop (a request's
        LPNs are distinct, so are their old copies, and invalidation commutes).
        """
        old = self.directory.lookup_many(lpns)
        old = old[old >= 0]
        old = old[np.frombuffer(self.flash._page_state, dtype=np.uint8)[old] == PAGE_VALID]
        self.flash.invalidate_many(old)

    # -------------------------------------------------------------- helpers
    def data_read_command(self, stage: list, ppn: int, code: int = _CODE_DATA_READ) -> None:
        """Append (and account in the flash array) a data-page read."""
        self.flash.touch_read(ppn)
        self.buffer.append(stage, code, self.codec.chip_index(ppn), ppn)

    def probe_read_command(self, stage: list, ppn: int) -> None:
        """Append (and account in the flash array) a read of a possibly-unprogrammed
        page (LeaFTL misprediction probe): a probe of a free page is a flash
        read too, it just finds nothing."""
        flash = self.flash
        if flash.page_state_code(ppn) != PAGE_FREE:
            flash.touch_read(ppn)
        else:
            flash.total_reads += 1
        self.buffer.append(stage, _CODE_OOB_PROBE, self.codec.chip_index(ppn), ppn)

    def program_command(self, stage: list, ppn: int, code: int = _CODE_DATA_WRITE) -> None:
        """Append a program command for an already-programmed PPN."""
        self.buffer.append(stage, code, self.codec.chip_index(ppn), ppn)

    def erase_block(self, stage: list, block: int) -> None:
        """Erase a flat block index and append its GC erase command.

        The caller returns the block to whichever free list owns it.
        """
        self.flash.erase(block)
        base = self.codec.block_base_ppn(block)
        self.buffer.append(stage, _CODE_GC_ERASE, self.codec.chip_index(base), -1, block)

    def _flash_time_since(self, first: int) -> float:
        """Flash time of the commands encoded from slot ``first`` of the buffer
        on: each command's own latency, summed in encoding order.  A
        collection notes ``len(buffer.ops)`` when it starts; everything it
        encodes, a translation-pool GC inside its write-back included, is its
        own."""
        ops = self.buffer.ops
        codes = map(ops.__getitem__, range(first, len(ops), OP_STRIDE))
        return sum(map(self._durations.__getitem__, codes))

    def _record_gc(self, span: str, args: dict, **event) -> None:
        """Record one collection: the :class:`GCEvent` of the ``event`` fields
        and, when tracing, a ``span`` complete event over its flash time
        carrying ``args``."""
        record = GCEvent(**event)
        self.stats.gc_events.append(record)
        tracer = self.tracer
        if tracer.enabled:
            tracer.complete(span, record.time_us, record.flash_time_us, args)

    # ------------------------------------------------------- shared read body
    def _encode_read(self, request: HostRequest) -> None:
        """Encode a translate-then-read request via the ``_translate_read`` hook.

        Shared by every design whose read path is "resolve each LPN (possibly
        emitting translation commands), then read the data pages" — the
        striping FTLs and LearnedFTL.  This is the hottest loop of the
        simulator, hence the inlined buffer appends and the single-page fast
        path.
        """
        buffer = self.buffer
        # The translation stage must execute first but is assembled while
        # eviction flushes may commit their own stages, so it floats until the
        # end of the loop and is then committed at the front.
        head_stage = [0.0]
        data_stage = [0.0]
        ops = buffer.ops
        if request.npages == 1:
            # Single-page request (the random-read hot case): no loop, no
            # cached bound methods — one translate, at most one data read.
            ppn, outcome_code, compute_us = self._translate_read(request.lpn, head_stage)
            buffer.outcome_codes.append(outcome_code)
            if ppn is not None:
                # The data stage receives exactly this one command, so it is
                # always a fresh single segment.
                index = len(ops)
                ops.extend((_CODE_DATA_READ, self.flash.touch_read_chip(ppn), ppn, -1))
                data_stage.append(index)
                data_stage.append(index + 4)
        else:
            compute_us = 0.0
            translate = self._translate_read
            add_outcome = buffer.outcome_codes.append
            touch_read_chip = self.flash.touch_read_chip
            ops_extend = ops.extend
            for lpn in request.lpns():
                ppn, outcome_code, lookup_compute = translate(lpn, head_stage)
                add_outcome(outcome_code)
                compute_us += lookup_compute
                if ppn is not None:
                    # Inlined buffer.append; translation reads and flush
                    # commands can land between data reads, so the full
                    # segment check stays.
                    index = len(ops)
                    ops_extend((_CODE_DATA_READ, touch_read_chip(ppn), ppn, -1))
                    if len(data_stage) > 1 and data_stage[-1] == index:
                        data_stage[-1] = index + 4
                    else:
                        data_stage.append(index)
                        data_stage.append(index + 4)
        stages = buffer.stages
        if len(head_stage) > 1 or compute_us > 0.0:
            head_stage[0] = compute_us
            stages.insert(0, head_stage)
        if len(data_stage) > 1:
            stages.append(data_stage)

    def _translate_read(self, lpn: int, head_stage: list) -> tuple[int | None, int, float]:
        """Hook for :meth:`_encode_read`: resolve one LPN for a read.

        Appends any translation commands to ``head_stage`` and returns
        ``(ppn, outcome_code, compute_us)``; ``ppn`` is ``None`` for unmapped
        LPNs (served as zero-fill without flash I/O).
        """
        raise NotImplementedError

    def begin_read_run(self, ops, lpns, npages):
        """Hook for the device's host loop (``SSD.run`` and ``SSD.replay``).

        Called once per request chunk that holds a read, with the chunk's
        op-code (int8), LPN and page-count (int64) columns.  Returns a
        planner (see :mod:`repro.core.batch`) that serves every maximal run
        of reads (of any length) in the chunk array-at-a-time from columns
        it gathers here, once, with per-request fallback to the request
        step; the device reports each run of writes it serves through the
        step (``planner.refresh``), so the planner re-reads only what those
        requests changed.  ``None`` serves the whole chunk through the
        request step (:meth:`encode`).  The default plans nothing;
        LearnedFTL, the one design with a planner, overrides it.
        """
        return None

    # ------------------------------------- translation write-back and pool GC
    # Every design keeps its translation pages in flash through
    # ``self.translation_store``, allocated from the ``translation_pool`` of
    # ``self.allocator`` (both wired by the subclass constructor).
    def _handle_evictions(self, evicted: list[EvictedPage]) -> None:
        """Write back the translation page of every dirty CMT eviction, in order."""
        for page in evicted:
            self._flush_translation_page(page.tvpn)

    def _flush_translation_page(self, tvpn: int) -> None:
        """Write back one evicted dirty translation page as its own stage,
        after any pool GC it needs (in a stage of its own)."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("cmt_evict", tracer.now_us, {"tvpn": tvpn})
        self._maybe_translation_gc()
        buffer = self.buffer
        stage = buffer.new_stage()
        self.translation_store.flush_into(buffer, stage, tvpn)
        buffer.commit_stage(stage)

    def _write_back_translation(
        self, stage: list, tvpn: int, code: int = _CODE_TRANSLATION_WRITE
    ) -> None:
        """Write back one translation page into ``stage`` (program ``code``),
        collecting a pool block into the same stage first when the pool runs
        low.  Every batch of write-backs (data GC, group GC, LeaFTL's buffer
        flush) goes through here."""
        if self.allocator.translation_pool.needs_gc():
            self._collect_translation_block_into(stage)
        self.translation_store.flush_into(self.buffer, stage, tvpn, code)

    def _maybe_translation_gc(self) -> None:
        """Collect a translation-pool block (as its own stage) when space runs low.

        The once-per-request check; the only other consumer of ``needs_gc``
        is :meth:`_write_back_translation`.
        """
        if not self.allocator.translation_pool.needs_gc():
            return
        buffer = self.buffer
        stage = buffer.new_stage()
        self._collect_translation_block_into(stage)
        buffer.commit_stage(stage)

    def _collect_translation_block_into(self, stage: list) -> None:
        """Relocate a translation-pool victim's live pages, appending into ``stage``."""
        pool = self.allocator.translation_pool
        victim = pool.victim_block()
        if victim is None:
            return
        buffer = self.buffer
        relocated = 0
        for ppn in self.flash.valid_ppns_in_block(victim):
            self.data_read_command(stage, ppn, _CODE_GC_READ)
            self.translation_store.relocate_into(buffer, stage, ppn)
            relocated += 1
        self.erase_block(stage, victim)
        pool.release(victim)
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                "translation_gc",
                tracer.now_us,
                {"victim_block": victim, "pages_moved": relocated},
            )

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict:
        """Capture the design-independent state; subclasses extend the dict.

        The command buffer is deliberately absent: it only carries state
        *during* one request, and snapshots are taken between requests.
        """
        return {
            "flash": self.flash.state_dict(),
            "directory": self.directory.state_dict(),
            "allocator": self.allocator.state_dict(),
            "translation_store": self.translation_store.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore the state captured by :meth:`state_dict` **in place**.

        Every layer restores into its existing objects (columns are
        slice-assigned, dicts cleared and refilled) so the direct references
        the hot paths cache — entry dicts, mapping columns, bound methods —
        stay valid.
        """
        self.flash.load_state(state["flash"])
        self.directory.load_state(state["directory"])
        self.allocator.load_state(state["allocator"])
        self.translation_store.load_state(state["translation_store"])
        self.buffer.reset()

    # ------------------------------------------------------------ invariants
    def verify_integrity(self) -> None:
        """Assert that every mapped LPN resolves to its newest valid flash copy.

        Used heavily by the test-suite; raises ``AssertionError`` on violation.
        One columnar pass finds the offenders; the first one (in LPN order) is
        then diagnosed page by page, so the message names what is wrong with it.
        """
        flash = self.flash
        num_lpns = self.geometry.num_logical_pages
        ppns = self.directory.lookup_many(np.arange(num_lpns, dtype=np.int64))
        lpns = np.flatnonzero(ppns != -1)
        ppns = ppns[lpns]
        sound = (flash.live_lpns(ppns) == lpns) & (flash.newest_copies(num_lpns)[lpns] == ppns)
        if sound.all():
            return
        first = int(np.argmin(sound))
        lpn, ppn = int(lpns[first]), int(ppns[first])
        assert flash.page_state_code(ppn) == PAGE_VALID, f"lpn {lpn} maps to non-valid ppn {ppn}"
        held = flash.page_lpn_raw(ppn)
        assert held == lpn, f"lpn {lpn} maps to ppn {ppn} holding lpn {None if held < 0 else held}"
        raise AssertionError(
            f"lpn {lpn} maps to ppn {ppn} but newest copy is {flash.latest_version_of(lpn)}"
        )


class StripingFTLBase(FTLBase):
    """Shared implementation for FTLs using dynamic (striping) allocation."""

    #: Whether the design keeps its mapping table in flash translation pages.
    #: The ideal FTL holds everything in DRAM and sets this to False, which
    #: removes translation-page writes from the GC path.
    persists_translation_pages: bool = True

    def __init__(
        self,
        geometry: SSDGeometry,
        *,
        timing: TimingModel | None = None,
        config: FTLConfig | None = None,
        stats: SimulationStats | None = None,
    ) -> None:
        super().__init__(geometry, timing=timing, config=config, stats=stats)
        self.allocator = StripingAllocator(geometry, self.flash)
        self.translation_store = TranslationPageStore(
            self.flash, self.directory, self.allocator.allocate_translation
        )
        data_blocks = self.allocator.data_block_count
        threshold = max(
            self.geometry.num_chips + 1, int(data_blocks * self.config.gc_free_block_fraction)
        )
        self._gc_threshold_blocks = threshold
        self._gc_target_blocks = (
            self.config.gc_target_free_blocks
            if self.config.gc_target_free_blocks > 0
            else threshold + self.geometry.num_chips
        )

    # ---------------------------------------------------------------- write
    def write(self, request: HostRequest, now: float) -> None:
        """Invalidate, collect, allocate, program and map a host write.

        An overwrite makes the previous physical copy stale the moment the
        request is accepted; invalidating every superseded copy before
        allocation lets the GC triggered by this very write reclaim that
        space.  GC is checked once per request, so the allocation that
        follows never stops for it.  A request of at least
        :data:`_MIN_COLUMN_WRITE` pages is written as columns (see
        :meth:`_write_columns`), a shorter one page by page; both leave the
        same state.  :meth:`_after_write` then sees the whole request.
        """
        if request.npages >= _MIN_COLUMN_WRITE:
            self._write_columns(request.lpn, request.npages, now)
            return
        buffer = self.buffer
        flash = self.flash
        directory = self.directory
        lookup = directory.lookup
        is_valid = flash.is_valid
        invalidate = flash.invalidate
        for lpn in request.lpns():
            old = lookup(lpn)
            if old is not None and is_valid(old):
                invalidate(old)
        self._maybe_gc(now)
        program_stage = [0.0]
        written: list[tuple[int, int]] = []
        allocate_one = self.allocator.allocate_data_one
        update = directory.update
        program_data = flash.program_data
        chip_index = self.codec.chip_index
        ops = buffer.ops
        ops_extend = ops.extend
        append_written = written.append
        for lpn in request.lpns():
            ppn = allocate_one()
            update(lpn, ppn)
            program_data(ppn, lpn)
            # Inlined buffer.append: the program stage is the only open stage,
            # so its last segment always extends contiguously.
            index = len(ops)
            ops_extend((_CODE_DATA_WRITE, chip_index(ppn), ppn, -1))
            if len(program_stage) > 1:
                program_stage[2] = index + 4
            else:
                program_stage.append(index)
                program_stage.append(index + 4)
            append_written((lpn, ppn))
        if len(program_stage) > 1:
            buffer.stages.append(program_stage)
        self._after_write(written, now)

    def _write_columns(self, first: int, npages: int, now: float) -> None:
        """:meth:`write`'s body for a long request, array-at-a-time.

        One :meth:`_invalidate_superseded` pass, the once-per-request GC
        check, one ``allocate_run`` for every page (no free-block stop: the GC
        check is already done), then one directory, one program and one
        command scatter in page order — the per-page body's effects, with
        write versions taken in the same order.  When no chip has space left
        the pages allocated so far are written and :class:`OutOfSpaceError`
        is raised exactly where the per-page body raises it.
        """
        lpns = np.arange(first, first + npages, dtype=np.int64)
        self._invalidate_superseded(lpns)
        self._maybe_gc(now)
        allocator = self.allocator
        ppn_list = allocator.allocate_run(npages)
        written = len(ppn_list)
        ppns = np.array(ppn_list, dtype=np.int64)
        self.directory.store_many(lpns[:written], ppns)
        self.flash.program_data_many(ppns, lpns[:written])
        program_stage = [0.0]
        self.buffer.extend(program_stage, _CODE_DATA_WRITE, ppns // self.flash._chip_stride, ppns)
        if written < npages:
            # No chip has a free page: this raises OutOfSpaceError.
            allocator.allocate_data_one()
        self.buffer.stages.append(program_stage)
        self._after_write(list(zip(range(first, first + npages), ppn_list)), now)

    def _after_write(self, written: list[tuple[int, int]], now: float) -> None:
        """Hook: persist mapping updates (CMT insertions, buffers, models).

        ``written`` holds the request's ``(lpn, ppn)`` pairs in page order,
        after every page has been allocated, programmed and mapped."""

    # ----------------------------------------------------------------- read
    def read(self, request: HostRequest, now: float) -> None:
        self._encode_read(request)

    # ------------------------------------------------------------------- GC
    def _maybe_gc(self, now: float) -> None:
        """Run greedy GC until the free-block target is met (if below threshold),
        then the per-request translation-pool check."""
        allocator = self.allocator
        if allocator.free_data_blocks() < self._gc_threshold_blocks:
            guard = 0
            while allocator.free_data_blocks() < self._gc_target_blocks:
                victim = allocator.victim_block()
                if victim is None or self.flash.block_invalid_count(victim) == 0:
                    # Nothing reclaimable right now; erasing an all-valid block
                    # would consume as much space as it frees.
                    break
                self._collect_block(victim, now)
                guard += 1
                if guard > self.geometry.num_blocks:
                    raise ConfigurationError("greedy GC failed to make progress")
        self._maybe_translation_gc()

    def _collect_block(self, victim: int, now: float) -> None:
        """Migrate a victim block's valid pages, erase it and record the event."""
        buffer = self.buffer
        first = len(buffer.ops)
        read_stage = buffer.new_stage()
        write_stage = buffer.new_stage()
        moved: list[tuple[int, int]] = []
        touched_tvpns: set[int] = set()
        flash = self.flash
        allocate_one = self.allocator.allocate_data_one
        for ppn in flash.valid_ppns_in_block(victim):
            lpn = flash.page_lpn_raw(ppn)
            self.data_read_command(read_stage, ppn, _CODE_GC_READ)
            new_ppn = allocate_one()
            flash.program_data(new_ppn, lpn)
            flash.invalidate(ppn)
            self.directory.update(lpn, new_ppn)
            self.program_command(write_stage, new_ppn, _CODE_GC_WRITE)
            moved.append((lpn, new_ppn))
            touched_tvpns.add(self.directory.tvpn_of(lpn))
        erase_stage = buffer.new_stage()
        self.erase_block(erase_stage, victim)
        self.allocator.release_block(victim)
        translation_stage = buffer.new_stage()
        if self.persists_translation_pages:
            for tvpn in sorted(touched_tvpns):
                self._write_back_translation(translation_stage, tvpn, _CODE_GC_WRITE)
        self._after_gc_move(moved)
        buffer.commit_stage(read_stage)
        buffer.commit_stage(write_stage)
        buffer.commit_stage(erase_stage)
        buffer.commit_stage(translation_stage)
        translation_pages = len(touched_tvpns) if self.persists_translation_pages else 0
        self._record_gc(
            "gc",
            {"victim_block": victim, "pages_moved": len(moved), "translation_pages": translation_pages},
            time_us=now,
            blocks_erased=1,
            pages_moved=len(moved),
            translation_pages_written=translation_pages,
            flash_time_us=self._flash_time_since(first),
            compute_time_us=0.0,
        )

    def _after_gc_move(self, moved: list[tuple[int, int]]) -> None:
        """Hook: let caches/models observe GC relocations."""
