"""Physical page allocation strategies.

Three cooperating pieces live here:

* :class:`StripeMap` — describes *stripes*: the set of blocks sharing one block
  offset across every channel, chip and plane.  Pages inside a stripe are
  numbered in the device's write-striping order (channel fastest), which is by
  construction the **virtual PPN order** of Section III-C: filling a stripe
  front to back yields consecutive VPPNs while spreading programs over all
  parallel units.

* :class:`StripingAllocator` — the *dynamic allocation* used by DFTL, TPFTL,
  LeaFTL and the ideal FTL: every write goes to the next chip in round-robin
  order (FEMU's default greedy allocation), each chip appending into its active
  block.

* :class:`GroupAllocator` — LearnedFTL's *group-based allocation*
  (Section III-D): the GTD is split into entry groups, each group is granted
  whole stripes, and writes belonging to a group fill that group's active
  stripe in VPPN order.  Hot groups that exhaust their stripes may borrow free
  pages from cold groups (opportunistic cross-group allocation); crossing the
  borrow threshold, running out of stripes, or hitting the per-group stripe
  limit requests a group GC via :class:`GroupGCNeeded`.

Both allocators reserve a small pool of blocks for translation pages, managed
by :class:`TranslationPool`.  Data GC and translation-pool GC pick their
victim block by one rule, :func:`fewest_valid_block`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from repro.nand.address import AddressCodec, FlashAddress
from repro.nand.errors import AllocationError, ConfigurationError, OutOfSpaceError
from repro.nand.flash import FlashArray
from repro.nand.geometry import SSDGeometry

__all__ = [
    "fewest_valid_block",
    "StripeMap",
    "TranslationPool",
    "StripingAllocator",
    "GroupAllocator",
    "GroupGCNeeded",
]


class GroupGCNeeded(AllocationError):
    """Raised when the group allocator needs the FTL to garbage-collect first."""

    def __init__(self, victim_group: int, message: str = "") -> None:
        super().__init__(message or f"group {victim_group} requires garbage collection")
        self.victim_group = victim_group


def fewest_valid_block(flash: FlashArray, candidates: Iterable[int]) -> int | None:
    """The greedy victim rule: the written candidate with the fewest valid pages.

    A tie goes to the first such candidate in ``candidates``' order; ``None``
    when no candidate has been written since its last erase.  Data GC and
    translation-pool GC both choose their victim with it.
    """
    programmed = flash._block_next
    valid = flash._block_valid
    best: int | None = None
    best_valid = 0
    for block in candidates:
        if programmed[block] and (best is None or valid[block] < best_valid):
            best, best_valid = block, valid[block]
    return best


class StripeMap:
    """Stripe geometry: one block offset across every channel/chip/plane."""

    def __init__(self, geometry: SSDGeometry) -> None:
        self.geometry = geometry
        self.codec = AddressCodec(geometry)
        self.num_stripes = geometry.blocks_per_plane
        self.blocks_per_stripe = geometry.num_chips * geometry.planes_per_chip
        self.pages_per_stripe = self.blocks_per_stripe * geometry.pages_per_block
        self._blocks_of_cache: list[list[int] | None] = [None] * self.num_stripes
        #: PPN of each page of stripe 0 in VPPN order.  Block is the most
        #: significant VPPN field, so page ``i`` of stripe ``s`` is
        #: ``page_ppns[i] + s * block_ppn_stride`` (see :meth:`ppn_at`).
        self.page_ppns = array(
            "q", self.codec.vppn_to_ppn_many(np.arange(self.pages_per_stripe)).tobytes()
        )
        self.block_ppn_stride = geometry.pages_per_block

    def blocks_of(self, stripe: int) -> list[int]:
        """Flat block indices composing a stripe.

        The composition is static, so it is computed once per stripe and the
        cached list is returned afterwards; callers must not mutate it.
        """
        cached = self._blocks_of_cache[stripe] if 0 <= stripe < self.num_stripes else None
        if cached is not None:
            return cached
        self._check(stripe)
        g = self.geometry
        blocks = []
        for channel in range(g.channels):
            for chip in range(g.chips_per_channel):
                for plane in range(g.planes_per_chip):
                    address = FlashAddress(channel=channel, chip=chip, plane=plane, block=stripe, page=0)
                    blocks.append(self.codec.block_of(address))
        self._blocks_of_cache[stripe] = blocks
        return blocks

    def ppn_at(self, stripe: int, index: int) -> int:
        """PPN of the ``index``-th page of a stripe in VPPN (allocation) order.

        Block is the most significant VPPN field and a stripe is one block
        offset across every parallel unit, so stripe ``s`` *is* the VPPN range
        ``[s * pages_per_stripe, (s + 1) * pages_per_stripe)``.
        """
        self._check(stripe)
        if not 0 <= index < self.pages_per_stripe:
            raise AllocationError(
                f"stripe index {index} out of range [0, {self.pages_per_stripe})"
            )
        return self.page_ppns[index] + stripe * self.block_ppn_stride

    def ppn_run(self, stripe: int, start: int, count: int) -> np.ndarray:
        """Columnar :meth:`ppn_at`: the PPNs of pages ``start .. start + count - 1``."""
        self._check(stripe)
        if not 0 <= start <= start + count <= self.pages_per_stripe:
            raise AllocationError(
                f"stripe run [{start}, {start + count}) out of range [0, {self.pages_per_stripe})"
            )
        first = stripe * self.pages_per_stripe + start
        return self.codec.vppn_to_ppn_many(np.arange(first, first + count, dtype=np.int64))

    def _check(self, stripe: int) -> None:
        if not 0 <= stripe < self.num_stripes:
            raise AllocationError(f"stripe {stripe} out of range [0, {self.num_stripes})")


class TranslationPool:
    """Free-page management for the blocks reserved for translation pages."""

    def __init__(self, flash: FlashArray, blocks: list[int]) -> None:
        if not blocks:
            raise ConfigurationError("translation pool needs at least one block")
        self.flash = flash
        self.blocks = list(blocks)
        self._free_blocks: list[int] = list(blocks)
        self._active: int | None = None
        self._active_base_ppn = 0
        self._cursor = 0
        self._pages_per_block = flash.geometry.pages_per_block
        #: The active block's unwritten tail plus every free block's pages.
        self._free_pages = len(blocks) * self._pages_per_block
        # GC must start while enough free pages remain to relocate every valid
        # page of the victim block, so the trigger slack scales with the erase
        # block size (large-block geometries exhaust the pool otherwise).
        self._gc_slack_pages = max(8, flash.geometry.pages_per_block // 2)

    def allocate(self) -> int:
        """Return the next free translation-page PPN.

        Raises :class:`OutOfSpaceError` when the pool is exhausted; callers are
        expected to have run translation GC before that can happen (see
        :meth:`needs_gc`).
        """
        if self._active is None or self._cursor >= self.flash.geometry.pages_per_block:
            if not self._free_blocks:
                raise OutOfSpaceError("translation pool exhausted; run translation GC")
            self._active = self._free_blocks.pop(0)
            self._active_base_ppn = self.flash.codec.block_base_ppn(self._active)
            self._cursor = 0
        ppn = self._active_base_ppn + self._cursor
        self._cursor += 1
        self._free_pages -= 1
        return ppn

    def needs_gc(self) -> bool:
        """True when a translation GC should run before more flushes."""
        return self._free_pages <= self._gc_slack_pages

    def victim_block(self) -> int | None:
        """Written pool block with the fewest valid pages (ties: pool order), or ``None``.

        The block currently being appended to is excluded unless it is already
        full (a full "active" block is just a written block awaiting reuse).
        """
        if self._active is not None and self._cursor < self._pages_per_block:
            candidates = (block for block in self.blocks if block != self._active)
        else:
            candidates = self.blocks
        return fewest_valid_block(self.flash, candidates)

    def release(self, block: int) -> None:
        """Return an erased block to the pool's free list."""
        if block not in self.blocks:
            raise AllocationError(f"block {block} does not belong to the translation pool")
        self._free_blocks.append(block)
        self._free_pages += self._pages_per_block

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture the pool's free list (in order), active block and cursor."""
        return {
            "free_blocks": list(self._free_blocks),
            "active": self._active,
            "cursor": self._cursor,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore the pool.  Free-list order matters: allocation pops from the front."""
        self._free_blocks = list(state["free_blocks"])
        self._active = state["active"]
        self._cursor = int(state["cursor"])
        self._active_base_ppn = (
            self.flash.codec.block_base_ppn(self._active) if self._active is not None else 0
        )
        active_free = 0 if self._active is None else self._pages_per_block - self._cursor
        self._free_pages = active_free + len(self._free_blocks) * self._pages_per_block


def _reserve_translation_blocks(geometry: SSDGeometry, stripe_map: StripeMap) -> tuple[list[int], set[int]]:
    """Pick whole tail stripes to hold translation pages; returns (blocks, stripe ids)."""
    needed_pages = max(1, geometry.num_translation_pages) * 4
    needed_blocks = -(-needed_pages // geometry.pages_per_block)
    needed_stripes = max(1, -(-needed_blocks // stripe_map.blocks_per_stripe))
    if needed_stripes >= stripe_map.num_stripes:
        raise ConfigurationError(
            "geometry too small: translation pages would consume every stripe"
        )
    stripes = set(range(stripe_map.num_stripes - needed_stripes, stripe_map.num_stripes))
    blocks: list[int] = []
    for stripe in sorted(stripes):
        blocks.extend(stripe_map.blocks_of(stripe))
    return blocks, stripes


class StripingAllocator:
    """Dynamic allocation: round-robin striping across chips (FEMU default)."""

    def __init__(self, geometry: SSDGeometry, flash: FlashArray) -> None:
        self.geometry = geometry
        self.flash = flash
        self.codec = flash.codec
        self.stripe_map = StripeMap(geometry)
        translation_blocks, self._translation_stripes = _reserve_translation_blocks(
            geometry, self.stripe_map
        )
        self.translation_pool = TranslationPool(flash, translation_blocks)
        translation_set = set(translation_blocks)
        #: Every block outside the translation pool, in block-id order.
        self._data_blocks = [
            block for block in range(geometry.num_blocks) if block not in translation_set
        ]
        self._free_blocks_per_chip: dict[int, list[int]] = {
            chip: [] for chip in range(geometry.num_chips)
        }
        for block in self._data_blocks:
            self._free_blocks_per_chip[self.codec.chip_of_block(block)].append(block)
        self._active_block: dict[int, int | None] = {chip: None for chip in range(geometry.num_chips)}
        self._block_cursor: dict[int, int] = {}
        # Striping visits chips in channel-fastest order (channel 0 of every
        # way before channel 1, ...), matching the fastest allocation order of
        # Hu et al. [13] and the VPPN field order of Section III-C: when the
        # per-chip active blocks are aligned, back-to-back allocations receive
        # consecutive virtual PPNs.
        self._chip_order = [
            channel * geometry.chips_per_channel + chip
            for chip in range(geometry.chips_per_channel)
            for channel in range(geometry.channels)
        ]
        self._rr_pointer = 0
        self.data_block_count = len(self._data_blocks)

    # ------------------------------------------------------------ data pages

    def allocate_data_one(self) -> int:
        """Allocate a single data-page PPN (hot path: no list wrapper)."""
        return self._allocate_one()

    def _allocate_one(self) -> int:
        num_chips = self.geometry.num_chips
        for attempt in range(num_chips):
            slot = (self._rr_pointer + attempt) % num_chips
            chip = self._chip_order[slot]
            ppn = self._allocate_on_chip(chip)
            if ppn is not None:
                self._rr_pointer = (slot + 1) % num_chips
                return ppn
        raise OutOfSpaceError("no free data pages on any chip; garbage collection required")

    def _allocate_on_chip(self, chip: int) -> int | None:
        active = self._active_block[chip]
        pages_per_block = self.geometry.pages_per_block
        if active is not None and self._block_cursor.get(active, 0) >= pages_per_block:
            active = None
        if active is None:
            free_list = self._free_blocks_per_chip[chip]
            if not free_list:
                self._active_block[chip] = None
                return None
            active = free_list.pop(0)
            self._active_block[chip] = active
            self._block_cursor[active] = 0
        cursor = self._block_cursor[active]
        ppn = self.codec.block_base_ppn(active) + cursor
        self._block_cursor[active] = cursor + 1
        return ppn

    def allocate_run(self, limit: int) -> list[int]:
        """Allocate up to ``limit`` data pages of a multi-page host write in one call.

        Performs exactly the per-page striping steps ``limit`` sequential
        :meth:`allocate_data_one` calls would — same round-robin pointer
        movement, same free-list pops, same cursor advances.  The write checks
        GC once per request, before allocating, so the run never stops for
        it.  Stops (instead of raising) when no chip has space, so the caller
        raises where the per-page body does.
        """
        ppns: list[int] = []
        if limit <= 0:
            return ppns
        free_lists = self._free_blocks_per_chip
        num_chips = self.geometry.num_chips
        chip_order = self._chip_order
        active_map = self._active_block
        cursor_map = self._block_cursor
        cursor_get = cursor_map.get
        pages_per_block = self.geometry.pages_per_block
        block_base_ppn = self.codec.block_base_ppn
        append = ppns.append
        rr = self._rr_pointer
        while len(ppns) < limit:
            allocated = None
            for attempt in range(num_chips):
                slot = rr + attempt
                if slot >= num_chips:
                    slot -= num_chips
                chip = chip_order[slot]
                # Inlined _allocate_on_chip.
                active = active_map[chip]
                if active is not None and cursor_get(active, 0) >= pages_per_block:
                    active = None
                if active is None:
                    free_list = free_lists[chip]
                    if not free_list:
                        active_map[chip] = None
                        continue
                    active = free_list.pop(0)
                    active_map[chip] = active
                    cursor_map[active] = 0
                cursor = cursor_map[active]
                cursor_map[active] = cursor + 1
                allocated = block_base_ppn(active) + cursor
                rr = slot + 1
                if rr == num_chips:
                    rr = 0
                break
            if allocated is None:
                # allocate_data_one would raise OutOfSpaceError here; the
                # caller calls it so that it does.
                break
            append(allocated)
        self._rr_pointer = rr
        return ppns

    # ------------------------------------------------------ pool bookkeeping
    def allocate_translation(self) -> int:
        """Allocate one translation-page PPN."""
        return self.translation_pool.allocate()

    def free_data_blocks(self) -> int:
        """Number of completely free data blocks remaining."""
        return sum(len(blocks) for blocks in self._free_blocks_per_chip.values())

    def release_block(self, block: int) -> None:
        """Return an erased data block to its chip's free list."""
        chip = self.codec.chip_of_block(block)
        self._block_cursor.pop(block, None)
        if self._active_block.get(chip) == block:
            self._active_block[chip] = None
        self._free_blocks_per_chip[chip].append(block)

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture free lists (in pop order), active blocks, cursors and the RR pointer."""
        return {
            "free_blocks_per_chip": [
                list(self._free_blocks_per_chip[chip]) for chip in range(self.geometry.num_chips)
            ],
            "active_block": [
                self._active_block[chip] for chip in range(self.geometry.num_chips)
            ],
            "block_cursor": [[block, cursor] for block, cursor in self._block_cursor.items()],
            "rr_pointer": self._rr_pointer,
            "translation_pool": self.translation_pool.state_dict(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore allocation state; free-list order is allocation order."""
        for chip in range(self.geometry.num_chips):
            self._free_blocks_per_chip[chip] = list(state["free_blocks_per_chip"][chip])
            self._active_block[chip] = state["active_block"][chip]
        self._block_cursor = {block: cursor for block, cursor in state["block_cursor"]}
        self._rr_pointer = int(state["rr_pointer"])
        self.translation_pool.load_state(state["translation_pool"])

    def victim_block(self) -> int | None:
        """Greedy GC victim: the written data block with the fewest valid pages, or ``None``.

        A tie goes to the lowest block id.  A chip's active block is excluded
        while it can still receive writes; once fully programmed it is a
        legitimate victim.
        """
        pages_per_block = self.geometry.pages_per_block
        cursor = self._block_cursor
        active = {
            block
            for block in self._active_block.values()
            if block is not None and cursor.get(block, 0) < pages_per_block
        }
        return fewest_valid_block(
            self.flash, (block for block in self._data_blocks if block not in active)
        )


@dataclass
class GroupState:
    """Allocation state of one GTD entry group."""

    stripes: list[int] = field(default_factory=list)
    borrowed_pages: int = 0
    lenders: set[int] = field(default_factory=set)
    writes: int = 0
    gc_hint: bool = False
    #: Unwritten pages left in ``stripes`` — the per-group share of the
    #: allocator's ``_free_pages_total``, maintained at the same places and
    #: derived again on restore (it is not part of ``state_dict``).
    free_pages: int = 0


class GroupAllocator:
    """LearnedFTL's group-based allocation with opportunistic cross-group borrowing."""

    def __init__(
        self,
        geometry: SSDGeometry,
        flash: FlashArray,
        *,
        group_stripe_limit: int = 2,
        borrow_threshold_fraction: float = 0.5,
        gc_reserve_stripes: int = 1,
    ) -> None:
        if gc_reserve_stripes < 0:
            raise ConfigurationError("gc_reserve_stripes must be >= 0")
        self.geometry = geometry
        self.flash = flash
        self.codec = flash.codec
        self.stripe_map = StripeMap(geometry)
        translation_blocks, translation_stripes = _reserve_translation_blocks(geometry, self.stripe_map)
        self.translation_pool = TranslationPool(flash, translation_blocks)
        self.group_stripe_limit = group_stripe_limit
        self.borrow_threshold_pages = max(
            1, int(self.stripe_map.pages_per_stripe * borrow_threshold_fraction)
        )
        mappings_per_tp = geometry.mappings_per_translation_page
        self.entries_per_group = max(1, self.stripe_map.pages_per_stripe // mappings_per_tp)
        self.lpns_per_group = self.entries_per_group * mappings_per_tp
        self.num_groups = -(-geometry.num_logical_pages // self.lpns_per_group)
        # On the paper's geometry one group fits exactly in one stripe.  Small or
        # unusual geometries may need several stripes per group span; the stripe
        # budget below scales accordingly.
        self.stripes_per_span = max(
            1, -(-self.lpns_per_group // self.stripe_map.pages_per_stripe)
        )
        #: Stripes a group may own before it has to borrow.
        self._stripe_budget = group_stripe_limit * self.stripes_per_span
        self._free_stripes: list[int] = [
            stripe for stripe in range(self.stripe_map.num_stripes) if stripe not in translation_stripes
        ]
        # Keep a few stripes that only GC write-back may consume, so a group GC
        # always has somewhere to relocate valid pages even under full pressure.
        self.gc_reserve_stripes = min(
            max(gc_reserve_stripes, self.stripes_per_span),
            max(0, len(self._free_stripes) - 1),
        )
        self._groups: list[GroupState] = [GroupState() for _ in range(self.num_groups)]
        #: Groups whose ``gc_hint`` is set, so :meth:`take_gc_hints` need not
        #: scan every group on every write (derived again on restore).
        self._hinted: set[int] = set()
        self._stripe_owner: dict[int, int] = {}
        self._stripe_cursor: dict[int, int] = {}
        # Incrementally maintained value of the total_free_pages() formula
        # (free stripes at full capacity plus the unwritten tail of every owned
        # stripe), so the per-write space check is O(1).
        self._free_pages_total = len(self._free_stripes) * self.stripe_map.pages_per_stripe
        # Memoized gc_candidate() result: the victim choice only changes when a
        # data page is invalidated/erased or the stripe layout changes, so the
        # scan is keyed on those epochs.
        self._layout_epoch = 0
        self._gc_candidate_cache: tuple[tuple[int, int], int | None] | None = None

    # ------------------------------------------------------------- geometry

    def tvpns_of_group(self, group: int) -> range:
        """The GTD entries (translation pages) belonging to a group."""
        start = group * self.entries_per_group
        end = min(start + self.entries_per_group, self.geometry.num_translation_pages)
        return range(start, end)

    def lpn_range_of_group(self, group: int) -> range:
        """The LPN range covered by a group."""
        start = group * self.lpns_per_group
        return range(start, min(start + self.lpns_per_group, self.geometry.num_logical_pages))

    def group_state(self, group: int) -> GroupState:
        """The mutable allocation state of a group (for tests and GC)."""
        return self._groups[group]

    def stripes_of_group(self, group: int) -> list[int]:
        """The stripes currently assigned to a group."""
        return list(self._groups[group].stripes)

    def free_stripe_count(self) -> int:
        """Stripes not assigned to any group."""
        return len(self._free_stripes)

    def total_free_pages(self) -> int:
        """Free (never-programmed-since-erase) data pages across the whole device."""
        return self._free_pages_total

    # ------------------------------------------------------------ allocation
    def allocate_page(self, group: int) -> tuple[int, int]:
        """Allocate one data page for a group.

        Returns ``(ppn, owner_group_of_the_stripe)``; the owner differs from
        ``group`` when the page was borrowed from a cold group's stripe.
        Raises :class:`GroupGCNeeded` when the FTL must garbage-collect first.

        The page comes from the group's newest stripe with space, else from a
        fresh stripe, else from the oldest stripe with space of the lender
        :meth:`_pick_lender` names.  Every branch ends in the same stripe
        take, written out once here: single-page host writes call this once
        per page, and on a steady-state device most of them borrow.
        """
        state = self._groups[group]
        state.writes += 1
        stripe_map = self.stripe_map
        pages_per_stripe = stripe_map.pages_per_stripe
        cursors = self._stripe_cursor
        owner, owner_state = group, state
        for stripe in reversed(state.stripes):
            cursor = cursors.get(stripe, 0)
            if cursor < pages_per_stripe:
                break
        else:
            # Need a new stripe for this group (leaving the GC reserve untouched).
            if (
                len(state.stripes) < self._stripe_budget
                and len(self._free_stripes) > self.gc_reserve_stripes
            ):
                stripe = self._claim_stripe(group)
                cursor = 0
            else:
                # Either the group hit its stripe limit or no free stripes
                # remain: opportunistic cross-group allocation into the first
                # stripe with space of a cold group.
                stripe = -1
                lender = self._pick_lender(exclude=group)
                if lender is not None:
                    owner, owner_state = lender, self._groups[lender]
                    for candidate in owner_state.stripes:
                        cursor = cursors.get(candidate, 0)
                        if cursor < pages_per_stripe:
                            stripe = candidate
                            break
                if stripe < 0:
                    # No lender available: ask the FTL to collect the most
                    # garbage-laden group.
                    victim = self.gc_candidate()
                    if victim is None:
                        raise OutOfSpaceError("no free stripes, no lender and nothing to collect")
                    raise GroupGCNeeded(victim)
                state.borrowed_pages += 1
                state.lenders.add(lender)
                if state.borrowed_pages >= self.borrow_threshold_pages:
                    # Encroachment threshold reached: hint the FTL to collect this
                    # group (and, transitively, its lenders) after the current write.
                    state.gc_hint = True
                    self._hinted.add(group)
        # Every branch takes the page at ``stripe``'s cursor; ``owner`` owns it.
        cursors[stripe] = cursor + 1
        self._free_pages_total -= 1
        owner_state.free_pages -= 1
        return stripe_map.page_ppns[cursor] + stripe * stripe_map.block_ppn_stride, owner

    def _claim_stripe(self, group: int) -> int:
        """Hand the first free stripe to ``group`` and return it.

        The free-pages total is unchanged: the stripe's pages move from the
        free list to the group's unwritten tail.
        """
        stripe = self._free_stripes.pop(0)
        state = self._groups[group]
        state.stripes.append(stripe)
        state.free_pages += self.stripe_map.pages_per_stripe
        self._stripe_owner[stripe] = group
        self._stripe_cursor[stripe] = 0
        self._layout_epoch += 1
        return stripe

    def _pick_lender(self, exclude: int) -> int | None:
        """The other group with the most free pages (ties: the fewest writes, then the lowest id)."""
        best: int | None = None
        best_state: GroupState | None = None
        for group, state in enumerate(self._groups):
            if group == exclude or state.free_pages <= 0:
                continue
            if (
                best_state is None
                or state.free_pages > best_state.free_pages
                or (state.free_pages == best_state.free_pages and state.writes < best_state.writes)
            ):
                best, best_state = group, state
        return best

    def allocate_run(self, groups: list[int], limit: int, min_free_pages: int) -> list[int]:
        """Allocate up to ``limit`` data pages of a write in one call.

        Used by multi-page host writes.  ``groups[j]`` is the owning group of
        page ``j``.  Only the two GC-free branches of :meth:`allocate_page`
        are served — filling the
        group's own stripes and claiming a fresh stripe — with effects
        identical to ``limit`` scalar calls (``writes`` counter, cursor
        advances, free-list pops, ``_layout_epoch`` bumps,
        ``_free_pages_total`` accounting).  Consecutive pages of one group
        that land in one stripe are taken as one slice of it, and the PPNs of
        every slice come from a single VPPN-to-PPN conversion at the end (a
        stripe *is* a VPPN range, see :meth:`StripeMap.ppn_at`).

        The run stops *without any mutation for the stopping page* before any
        page the scalar write path would precede with proactive GC
        (``total_free_pages() < min_free_pages``), and at the first page that
        would need cross-group borrowing or raise :class:`GroupGCNeeded`; the
        caller's per-page path serves that page through the full machinery.
        """
        if limit <= 0:
            return []
        groups_state = self._groups
        stripe_cursor = self._stripe_cursor
        cursor_get = stripe_cursor.get
        pages_per_stripe = self.stripe_map.pages_per_stripe
        free_stripes = self._free_stripes
        stripe_budget = self._stripe_budget
        gc_reserve = self.gc_reserve_stripes
        # Every page debits the free-pages total by exactly one (a fresh-stripe
        # claim moves a full stripe from the free list into the owned set and
        # leaves the total unchanged), so the proactive-GC stop is a page budget.
        budget = min(limit, self._free_pages_total - min_free_pages + 1)
        first_vppns: list[int] = []
        counts: list[int] = []
        j = 0
        while j < budget:
            group = groups[j]
            end = j + 1
            while end < budget and groups[end] == group:
                end += 1
            state = groups_state[group]
            while j < end:
                stripe = -1
                for candidate in reversed(state.stripes):
                    cursor = cursor_get(candidate, 0)
                    if cursor < pages_per_stripe:
                        stripe = candidate
                        break
                if stripe < 0:
                    if len(state.stripes) >= stripe_budget or len(free_stripes) <= gc_reserve:
                        # Borrowing or group GC: the per-page path's business.
                        budget = j
                        break
                    stripe = self._claim_stripe(group)
                    cursor = 0
                take = min(end - j, pages_per_stripe - cursor)
                stripe_cursor[stripe] = cursor + take
                self._free_pages_total -= take
                state.free_pages -= take
                state.writes += take
                first_vppns.append(stripe * pages_per_stripe + cursor)
                counts.append(take)
                j += take
        if not counts:
            return []
        if len(counts) == 1:
            vppns = np.arange(first_vppns[0], first_vppns[0] + counts[0], dtype=np.int64)
        else:
            # Concatenated runs: page i of run r is first_vppns[r] + i.
            run_counts = np.array(counts, dtype=np.int64)
            run_starts = np.cumsum(run_counts) - run_counts
            vppns = np.arange(j, dtype=np.int64) + np.repeat(
                np.array(first_vppns, dtype=np.int64) - run_starts, run_counts
            )
        return self.codec.vppn_to_ppn_many(vppns).tolist()

    def take_gc_hints(self) -> list[int]:
        """Groups whose borrow budget overflowed since the last call (and reset them)."""
        if not self._hinted:
            return []
        hinted = sorted(self._hinted)
        self._hinted.clear()
        for group in hinted:
            state = self._groups[group]
            state.gc_hint = False
            state.borrowed_pages = 0
        return hinted

    # ---------------------------------------------------------------- GC API
    def gc_candidate(self) -> int | None:
        """The group with the most invalid data pages, or ``None`` when none holds one.

        This is the paper's victim rule.  The scan result is memoized on the
        flash data-invalidation epoch and the stripe-layout epoch: until either
        changes, the per-block invalid counts (and therefore the victim choice)
        cannot have changed.
        """
        epoch = (self.flash.data_invalidation_epoch, self._layout_epoch)
        cached = self._gc_candidate_cache
        if cached is not None and cached[0] == epoch:
            return cached[1]
        best_group: int | None = None
        best_invalid = 0
        block_invalid_count = self.flash.block_invalid_count
        blocks_of = self.stripe_map.blocks_of
        for group, state in enumerate(self._groups):
            invalid = 0
            for stripe in state.stripes:
                for block in blocks_of(stripe):
                    invalid += block_invalid_count(block)
            if invalid > best_invalid:
                best_invalid = invalid
                best_group = group
        self._gc_candidate_cache = (epoch, best_group)
        return best_group

    def groups_resident_in_stripes(self, stripes: list[int]) -> set[int]:
        """Groups owning valid data pages inside the given stripes."""
        residents: set[int] = set()
        pages_per_stripe = self.stripe_map.pages_per_stripe
        for stripe in stripes:
            lpns = self.flash.live_lpns(self.stripe_map.ppn_run(stripe, 0, pages_per_stripe))
            residents.update(np.unique(lpns[lpns >= 0] // self.lpns_per_group).tolist())
        return residents

    def gc_destination(self, group: int, pages: int, avoid_stripes: set[int]) -> np.ndarray:
        """The PPNs a group's GC write-back of ``pages`` pages fills, in order.

        Normally whole free stripes, handed to the group and filled front to
        back (VPPN order), so the relocated pages stay one trainable run.
        When the free stripes cannot hold them all (heavy cross-group
        borrowing), the write-back is scattered page by page into whatever
        space is left: the group's own stripes, then any owned stripe, both
        outside ``avoid_stripes`` (the stripes the collection is emptying,
        which could never be erased otherwise), then the avoided ones, then a
        free stripe.  The scattered pages lose their contiguity (training
        marks them inaccurate) but the collection still progresses.  Raises
        :class:`OutOfSpaceError` when no free page is left anywhere.
        """
        pages_per_stripe = self.stripe_map.pages_per_stripe
        if len(self._free_stripes) * pages_per_stripe < pages:
            return np.array(
                [self._scatter_page(group, avoid_stripes) for _ in range(pages)], dtype=np.int64
            )
        state = self._groups[group]
        runs = [np.empty(0, dtype=np.int64)]
        while pages > 0:
            stripe = self._claim_stripe(group)
            used = min(pages, pages_per_stripe)
            self._stripe_cursor[stripe] = used
            self._free_pages_total -= used
            state.free_pages -= used
            runs.append(self.stripe_map.ppn_run(stripe, 0, used))
            pages -= used
        return np.concatenate(runs)

    def _scatter_page(self, group: int, avoid: set[int]) -> int:
        """One page of a scattered GC write-back (see :meth:`gc_destination`)."""
        cursors = self._stripe_cursor
        owners = self._stripe_owner
        order = chain(
            (stripe for stripe in self._groups[group].stripes if stripe not in avoid),
            (stripe for stripe in owners if stripe not in avoid),
            (stripe for stripe in owners if stripe in avoid),
        )
        pages_per_stripe = self.stripe_map.pages_per_stripe
        stripe = next((s for s in order if cursors.get(s, 0) < pages_per_stripe), None)
        if stripe is None:
            if not self._free_stripes:
                raise OutOfSpaceError("no free page anywhere for GC write-back")
            stripe = self._claim_stripe(group)
        cursor = cursors.get(stripe, 0)
        cursors[stripe] = cursor + 1
        self._free_pages_total -= 1
        self._groups[owners[stripe]].free_pages -= 1
        return self.stripe_map.ppn_at(stripe, cursor)

    def release_stripe(self, stripe: int) -> None:
        """Return a fully-erased stripe to the free list."""
        owner = self._stripe_owner.pop(stripe, None)
        cursor = self._stripe_cursor.pop(stripe, 0)
        if owner is not None:
            # The stripe leaves the owned set (losing its unwritten tail from
            # the total) and rejoins the free list at full capacity.
            self._free_pages_total += cursor
            if stripe in self._groups[owner].stripes:
                self._groups[owner].stripes.remove(stripe)
                self._groups[owner].free_pages -= self.stripe_map.pages_per_stripe - cursor
        else:
            self._free_pages_total += self.stripe_map.pages_per_stripe
        self._free_stripes.append(stripe)
        self._layout_epoch += 1

    def reset_borrow_state(self, group: int) -> None:
        """Forget a group's borrow bookkeeping after it has been collected."""
        state = self._groups[group]
        state.borrowed_pages = 0
        state.lenders.clear()
        state.gc_hint = False
        self._hinted.discard(group)

    def allocate_translation(self) -> int:
        """Allocate one translation-page PPN from the reserved pool."""
        return self.translation_pool.allocate()

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture stripe ownership, per-group state and free lists.

        List orders are allocation orders and are preserved exactly;
        ``lenders`` sets are stored sorted (the simulation never depends on
        their iteration order — group GC sorts the collection set before
        using it).
        """
        return {
            "free_stripes": list(self._free_stripes),
            "groups": [
                {
                    "stripes": list(state.stripes),
                    "borrowed_pages": state.borrowed_pages,
                    "lenders": sorted(state.lenders),
                    "writes": state.writes,
                    "gc_hint": state.gc_hint,
                }
                for state in self._groups
            ],
            "stripe_owner": [[stripe, owner] for stripe, owner in self._stripe_owner.items()],
            "stripe_cursor": [[stripe, cursor] for stripe, cursor in self._stripe_cursor.items()],
            "free_pages_total": self._free_pages_total,
            "layout_epoch": self._layout_epoch,
            "translation_pool": self.translation_pool.state_dict(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore the allocator; the memoized GC-victim cache is simply dropped
        (it is recomputed deterministically from the restored epochs)."""
        if len(state["groups"]) != self.num_groups:
            raise AllocationError(
                f"snapshot has {len(state['groups'])} groups, allocator has {self.num_groups}"
            )
        self._free_stripes = list(state["free_stripes"])
        for group_state, saved in zip(self._groups, state["groups"]):
            group_state.stripes = list(saved["stripes"])
            group_state.borrowed_pages = int(saved["borrowed_pages"])
            group_state.lenders = set(saved["lenders"])
            group_state.writes = int(saved["writes"])
            group_state.gc_hint = bool(saved["gc_hint"])
        self._hinted = {group for group, group_state in enumerate(self._groups) if group_state.gc_hint}
        self._stripe_owner = {stripe: owner for stripe, owner in state["stripe_owner"]}
        self._stripe_cursor = {stripe: cursor for stripe, cursor in state["stripe_cursor"]}
        pages_per_stripe = self.stripe_map.pages_per_stripe
        for group_state in self._groups:
            group_state.free_pages = sum(
                pages_per_stripe - self._stripe_cursor.get(stripe, 0)
                for stripe in group_state.stripes
            )
        self._free_pages_total = int(state["free_pages_total"])
        self._layout_epoch = int(state["layout_epoch"])
        self._gc_candidate_cache = None
        self.translation_pool.load_state(state["translation_pool"])
