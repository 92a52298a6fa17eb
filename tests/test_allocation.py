"""Tests for the allocation strategies (striping and group-based)."""

from __future__ import annotations

import random

import pytest

from repro.core.allocation import (
    GroupAllocator,
    GroupGCNeeded,
    StripeMap,
    StripingAllocator,
    TranslationPool,
)
from repro.nand.errors import AllocationError, OutOfSpaceError
from repro.nand.flash import FlashArray
from repro.nand.geometry import SSDGeometry


@pytest.fixture
def geometry() -> SSDGeometry:
    # 4 chips x 8 blocks x 16 pages, 512 B pages: one stripe (64 pages) holds one
    # 64-mapping translation page worth of LPNs, like the paper's full geometry.
    return SSDGeometry(
        channels=2,
        chips_per_channel=2,
        planes_per_chip=1,
        blocks_per_plane=8,
        pages_per_block=16,
        page_size=512,
        op_ratio=0.25,
    )


@pytest.fixture
def flash(geometry) -> FlashArray:
    return FlashArray(geometry)


class TestStripeMap:
    def test_counts(self, geometry):
        stripes = StripeMap(geometry)
        assert stripes.num_stripes == geometry.blocks_per_plane
        assert stripes.blocks_per_stripe == geometry.num_chips
        assert stripes.pages_per_stripe == geometry.num_chips * geometry.pages_per_block

    def test_blocks_of_partition_device(self, geometry):
        stripes = StripeMap(geometry)
        seen = []
        for stripe in range(stripes.num_stripes):
            seen.extend(stripes.blocks_of(stripe))
        assert sorted(seen) == list(range(geometry.num_blocks))

    def test_ppn_at_produces_contiguous_vppns(self, geometry):
        stripes = StripeMap(geometry)
        codec = stripes.codec
        vppns = [codec.ppn_to_vppn(stripes.ppn_at(2, i)) for i in range(stripes.pages_per_stripe)]
        assert vppns == list(range(vppns[0], vppns[0] + stripes.pages_per_stripe))

    def test_ppn_at_is_programmable_in_order(self, geometry, flash):
        """Filling a stripe front-to-back never violates the sequential-program rule."""
        stripes = StripeMap(geometry)
        for index in range(stripes.pages_per_stripe):
            flash.program(stripes.ppn_at(0, index), lpn=index)

    def test_ppn_at_bounds(self, geometry):
        stripes = StripeMap(geometry)
        with pytest.raises(AllocationError):
            stripes.ppn_at(0, stripes.pages_per_stripe)
        with pytest.raises(AllocationError):
            stripes.ppn_at(stripes.num_stripes, 0)

    @pytest.mark.parametrize(
        "shape",
        [
            dict(channels=2, chips_per_channel=2, planes_per_chip=1, blocks_per_plane=8, pages_per_block=16),
            dict(channels=2, chips_per_channel=3, planes_per_chip=2, blocks_per_plane=4, pages_per_block=8),
            dict(channels=4, chips_per_channel=2, planes_per_chip=1, blocks_per_plane=6, pages_per_block=32),
            dict(channels=1, chips_per_channel=1, planes_per_chip=2, blocks_per_plane=3, pages_per_block=4),
        ],
    )
    def test_stripe_order_is_vppn_order(self, shape):
        """Page ``i`` of stripe ``s`` is VPPN ``s * pages_per_stripe + i``, field by field."""
        geometry = SSDGeometry(**shape)
        stripes = StripeMap(geometry)
        codec = stripes.codec
        pages_per_channel = geometry.num_physical_pages // geometry.channels
        for stripe in range(stripes.num_stripes):
            run = stripes.ppn_run(stripe, 0, stripes.pages_per_stripe).tolist()
            assert run == [stripes.ppn_at(stripe, i) for i in range(stripes.pages_per_stripe)]
            for index, ppn in enumerate(run):
                # The PPN fields, most significant first: channel, chip,
                # plane, block, page.
                assert ppn // geometry.pages_per_block % geometry.blocks_per_plane == stripe
                assert ppn // pages_per_channel == index % geometry.channels
                assert codec.ppn_to_vppn(ppn) == stripe * stripes.pages_per_stripe + index

    def test_ppn_run_is_a_slice_of_the_stripe(self, geometry):
        stripes = StripeMap(geometry)
        assert stripes.ppn_run(3, 5, 9).tolist() == [stripes.ppn_at(3, i) for i in range(5, 14)]
        assert stripes.ppn_run(3, 7, 0).tolist() == []

    def test_ppn_run_bounds(self, geometry):
        stripes = StripeMap(geometry)
        with pytest.raises(AllocationError):
            stripes.ppn_run(0, 1, stripes.pages_per_stripe)
        with pytest.raises(AllocationError):
            stripes.ppn_run(0, -1, 2)
        with pytest.raises(AllocationError):
            stripes.ppn_run(stripes.num_stripes, 0, 1)


class TestTranslationPool:
    def test_allocates_sequentially_within_block(self, geometry, flash):
        pool = TranslationPool(flash, blocks=[0, 1])
        first = pool.allocate()
        second = pool.allocate()
        assert second == first + 1

    def test_exhaustion_raises(self, geometry, flash):
        pool = TranslationPool(flash, blocks=[0])
        for _ in range(geometry.pages_per_block):
            ppn = pool.allocate()
            flash.program(ppn, lpn=None, is_translation=True, oob={"tvpn": 0})
        with pytest.raises(OutOfSpaceError):
            pool.allocate()

    def test_needs_gc_threshold(self, geometry, flash):
        # The pool's own slack, max(8, pages_per_block // 2): 8 pages here.
        pool = TranslationPool(flash, blocks=[0])
        assert not pool.needs_gc()
        for _ in range(geometry.pages_per_block - 9):
            flash.program(pool.allocate(), lpn=None, is_translation=True, oob={"tvpn": 0})
        assert pool._free_pages == 9 and not pool.needs_gc()
        flash.program(pool.allocate(), lpn=None, is_translation=True, oob={"tvpn": 0})
        assert pool._free_pages == 8 and pool.needs_gc()

    def test_free_page_count_follows_every_change(self, geometry, flash):
        """The kept count equals the active block's tail plus the free blocks
        after every allocate, release and load_state."""
        pages_per_block = geometry.pages_per_block

        def recount(pool: TranslationPool) -> int:
            tail = 0 if pool._active is None else pages_per_block - pool._cursor
            return tail + len(pool._free_blocks) * pages_per_block

        pool = TranslationPool(flash, blocks=[0, 1, 2])
        assert pool._free_pages == recount(pool) == 3 * pages_per_block
        for _ in range(2 * pages_per_block + 3):
            ppn = pool.allocate()
            flash.program(ppn, lpn=None, is_translation=True, oob={"tvpn": 0})
            flash.invalidate(ppn)
            assert pool._free_pages == recount(pool)
        victim = pool.victim_block()
        flash.erase(victim)
        pool.release(victim)
        assert pool._free_pages == recount(pool) == 2 * pages_per_block - 3
        restored = TranslationPool(flash, blocks=[0, 1, 2])
        restored.load_state(pool.state_dict())
        assert restored._free_pages == pool._free_pages
        assert restored.allocate() == pool.allocate()
        assert restored._free_pages == pool._free_pages == recount(pool)

    def test_victim_and_release_cycle(self, geometry, flash):
        pool = TranslationPool(flash, blocks=[0, 1])
        for _ in range(geometry.pages_per_block):
            ppn = pool.allocate()
            flash.program(ppn, lpn=None, is_translation=True, oob={"tvpn": 0})
            flash.invalidate(ppn)
        victim = pool.victim_block()
        assert victim == 0
        flash.erase(victim)
        pool.release(victim)
        assert pool._free_pages >= geometry.pages_per_block

    def test_release_rejects_foreign_block(self, geometry, flash):
        pool = TranslationPool(flash, blocks=[0])
        with pytest.raises(AllocationError):
            pool.release(5)

    def test_requires_blocks(self, flash):
        with pytest.raises(Exception):
            TranslationPool(flash, blocks=[])


class TestStripingAllocator:
    def test_allocations_stripe_across_chips(self, geometry, flash):
        allocator = StripingAllocator(geometry, flash)
        ppns = [allocator.allocate_data_one() for _ in range(geometry.num_chips)]
        chips = [flash.codec.chip_index(ppn) for ppn in ppns]
        assert len(set(chips)) == geometry.num_chips

    def test_allocated_pages_are_programmable(self, geometry, flash):
        allocator = StripingAllocator(geometry, flash)
        for lpn in range(40):
            ppn = allocator.allocate_data_one()
            flash.program(ppn, lpn=lpn)

    def test_never_allocates_translation_blocks(self, geometry, flash):
        allocator = StripingAllocator(geometry, flash)
        reserved = set(allocator.translation_pool.blocks)
        ppns = [allocator.allocate_data_one() for _ in range(100)]
        assert all(ppn // geometry.pages_per_block not in reserved for ppn in ppns)

    def test_free_data_blocks_decreases(self, geometry, flash):
        allocator = StripingAllocator(geometry, flash)
        before = allocator.free_data_blocks()
        for _ in range(geometry.pages_per_block * 2):
            allocator.allocate_data_one()
        assert allocator.free_data_blocks() < before

    def test_out_of_space(self, geometry, flash):
        allocator = StripingAllocator(geometry, flash)
        capacity = allocator.data_block_count * geometry.pages_per_block
        for _ in range(capacity):
            allocator.allocate_data_one()
        with pytest.raises(OutOfSpaceError):
            allocator.allocate_data_one()

    def test_victim_block_prefers_fewest_valid(self, geometry, flash):
        allocator = StripingAllocator(geometry, flash)
        count = geometry.pages_per_block * geometry.num_chips
        ppns = [allocator.allocate_data_one() for _ in range(count)]
        for lpn, ppn in enumerate(ppns):
            flash.program(ppn, lpn=lpn)
        # Invalidate everything in the block holding the first ppn.
        victim_block = ppns[0] // geometry.pages_per_block
        first = flash.codec.block_base_ppn(victim_block)
        for ppn in range(first, first + geometry.pages_per_block):
            flash.invalidate(ppn)
        assert allocator.victim_block() == victim_block

    def test_release_block_returns_to_pool(self, geometry, flash):
        allocator = StripingAllocator(geometry, flash)
        ppns = [allocator.allocate_data_one() for _ in range(geometry.pages_per_block)]
        block = ppns[0] // geometry.pages_per_block
        for lpn, ppn in enumerate(ppns):
            flash.program(ppn, lpn=lpn)
            flash.invalidate(ppn)
        before = allocator.free_data_blocks()
        flash.erase(block)
        allocator.release_block(block)
        assert allocator.free_data_blocks() == before + 1

    def test_allocate_translation_uses_pool(self, geometry, flash):
        allocator = StripingAllocator(geometry, flash)
        ppn = allocator.allocate_translation()
        assert ppn // geometry.pages_per_block in set(allocator.translation_pool.blocks)


class TestGroupAllocator:
    def test_group_geometry(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash)
        assert allocator.entries_per_group >= 1
        assert allocator.lpns_per_group == allocator.entries_per_group * geometry.mappings_per_translation_page
        assert allocator.num_groups * allocator.lpns_per_group >= geometry.num_logical_pages

    def test_allocation_fills_stripe_in_vppn_order(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash)
        codec = flash.codec
        ppns = [allocator.allocate_page(0)[0] for _ in range(10)]
        vppns = [codec.ppn_to_vppn(ppn) for ppn in ppns]
        assert vppns == list(range(vppns[0], vppns[0] + 10))

    def test_allocated_pages_programmable(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash)
        for lpn in range(allocator.stripe_map.pages_per_stripe):
            ppn, _ = allocator.allocate_page(0)
            flash.program(ppn, lpn=lpn)

    def test_groups_use_distinct_stripes(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash)
        allocator.allocate_page(0)
        allocator.allocate_page(1)
        assert set(allocator.stripes_of_group(0)).isdisjoint(allocator.stripes_of_group(1))

    def test_owner_tracking(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash)
        allocator.allocate_page(2)
        stripe = allocator.stripes_of_group(2)[0]
        assert allocator._stripe_owner.get(stripe) == 2

    def test_stripe_limit_triggers_borrowing_or_gc(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash, group_stripe_limit=1)
        pages_per_stripe = allocator.stripe_map.pages_per_stripe
        # Give group 1 an active stripe with free pages so group 0 can borrow from it.
        allocator.allocate_page(1)
        for lpn in range(pages_per_stripe):
            ppn, owner = allocator.allocate_page(0)
            flash.program(ppn, lpn=lpn)
        ppn, owner = allocator.allocate_page(0)
        assert owner == 1  # borrowed from the cold group
        assert allocator.group_state(0).borrowed_pages >= 1

    def test_stripe_choice_when_several_have_space(self, geometry, flash):
        # A group's own pages come from its newest stripe with space, a
        # borrowed page from the lender's oldest one.
        allocator = GroupAllocator(geometry, flash)
        stripe_map = allocator.stripe_map
        budget = allocator.group_stripe_limit * allocator.stripes_per_span
        allocator.gc_destination(0, budget * stripe_map.pages_per_stripe, set())
        allocator.gc_destination(1, 3, set())
        newer = allocator._claim_stripe(1)
        older = allocator.stripes_of_group(1)[0]
        assert allocator.allocate_page(0) == (stripe_map.ppn_at(older, 3), 1)
        assert allocator.allocate_page(1) == (stripe_map.ppn_at(newer, 0), 1)

    def test_gc_needed_when_nothing_to_borrow(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash, group_stripe_limit=1)
        pages_per_stripe = allocator.stripe_map.pages_per_stripe
        lpn = 0
        with pytest.raises((GroupGCNeeded, OutOfSpaceError)):
            for _ in range(pages_per_stripe * (allocator.num_groups + 2)):
                ppn, _ = allocator.allocate_page(0)
                flash.program(ppn, lpn=lpn)
                flash.invalidate(ppn)
                lpn += 1

    def test_gc_candidate_prefers_most_invalid(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash)
        assert allocator.gc_candidate() is None  # no group holds an invalid page
        for group in (0, 1):
            for i in range(8):
                ppn, _ = allocator.allocate_page(group)
                flash.program(ppn, lpn=group * allocator.lpns_per_group + i)
                if group == 1:
                    flash.invalidate(ppn)
        assert allocator.gc_candidate() == 1

    def test_release_and_reassign_cycle(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash)
        ppn, _ = allocator.allocate_page(0)
        flash.program(ppn, lpn=0)
        flash.invalidate(ppn)
        old_stripe = allocator.stripes_of_group(0)[0]
        for block in allocator.stripe_map.blocks_of(old_stripe):
            if flash.block_programmed(block):
                flash.erase(block)
        free_before = allocator.free_stripe_count()
        allocator.release_stripe(old_stripe)
        assert allocator.free_stripe_count() == free_before + 1
        assert allocator.stripes_of_group(0) == []
        destination = allocator.gc_destination(0, 5, set())
        fresh = allocator.stripes_of_group(0)
        assert len(fresh) == 1
        assert destination.tolist() == [allocator.stripe_map.ppn_at(fresh[0], i) for i in range(5)]

    def test_take_gc_hints_resets(self, geometry, flash):
        allocator = _allocator_with_hints(geometry, flash, (3, 1))
        assert allocator.take_gc_hints() == [1, 3]
        for group in range(allocator.num_groups):
            assert allocator.group_state(group).borrowed_pages == 0
            assert not allocator.group_state(group).gc_hint
        assert allocator.take_gc_hints() == []

    def test_take_gc_hints_empty_without_borrowing(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash)
        for group in range(allocator.num_groups):
            allocator.allocate_page(group)
        assert allocator.take_gc_hints() == []

    def test_collected_group_leaves_the_hints(self, geometry, flash):
        allocator = _allocator_with_hints(geometry, flash, (3, 1))
        allocator.reset_borrow_state(3)
        assert allocator.take_gc_hints() == [1]

    def test_gc_hints_survive_a_restore(self, geometry, flash):
        allocator = _allocator_with_hints(geometry, flash, (3, 1))
        restored = GroupAllocator(geometry, FlashArray(geometry), group_stripe_limit=1)
        restored.load_state(allocator.state_dict())
        assert restored.take_gc_hints() == allocator.take_gc_hints() == [1, 3]
        assert restored.state_dict() == allocator.state_dict()

    def test_groups_resident_in_stripes(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash)
        ppn, _ = allocator.allocate_page(0)
        flash.program(ppn, lpn=3)
        stripes = allocator.stripes_of_group(0)
        assert allocator.groups_resident_in_stripes(stripes) == {0}


def _allocator_with_hints(geometry, flash, groups) -> GroupAllocator:
    """An allocator on which each of ``groups`` (in that order) has borrowed
    up to its encroachment threshold, setting its GC hint."""
    allocator = GroupAllocator(geometry, flash, group_stripe_limit=1)
    # Every group gets a stripe, so the hinted ones have lenders.
    for group in range(allocator.num_groups):
        allocator.allocate_page(group)
    for group in groups:
        while not allocator.group_state(group).gc_hint:
            allocator.allocate_page(group)
        assert allocator.group_state(group).borrowed_pages == allocator.borrow_threshold_pages
    return allocator


def _free_pages_by_recount(allocator: GroupAllocator) -> list[int]:
    """The generator sum ``_pick_lender`` used to run per call (the reference)."""
    pages_per_stripe = allocator.stripe_map.pages_per_stripe
    return [
        sum(pages_per_stripe - allocator._stripe_cursor.get(stripe, 0) for stripe in state.stripes)
        for state in allocator._groups
    ]


def _pick_lender_by_recount(allocator: GroupAllocator, exclude: int) -> int | None:
    best: tuple[int, int] | None = None
    for group, free_pages in enumerate(_free_pages_by_recount(allocator)):
        if group == exclude or free_pages <= 0:
            continue
        writes = allocator.group_state(group).writes
        if (
            best is None
            or free_pages > best[0]
            or (free_pages == best[0] and writes < allocator.group_state(best[1]).writes)
        ):
            best = (free_pages, group)
    return None if best is None else best[1]


class TestGroupFreePageCounter:
    """``GroupState.free_pages`` against a recount, through every path that moves it."""

    def _check(self, allocator):
        assert [state.free_pages for state in allocator._groups] == _free_pages_by_recount(allocator)
        assert sum(_free_pages_by_recount(allocator)) + (
            allocator.free_stripe_count() * allocator.stripe_map.pages_per_stripe
        ) == allocator.total_free_pages()
        for group in range(allocator.num_groups):
            assert allocator._pick_lender(exclude=group) == _pick_lender_by_recount(allocator, group)

    def test_counter_follows_allocation_borrowing_gc_and_restore(self, geometry, flash):
        allocator = GroupAllocator(geometry, flash, group_stripe_limit=1)
        rng = random.Random(11)
        lpn = 0
        for step in range(400):
            group = rng.choice((0, 0, 0, 1, 2, 3))
            try:
                ppn, _owner = allocator.allocate_page(group)
            except (GroupGCNeeded, OutOfSpaceError):
                break
            flash.program(ppn, lpn=lpn)
            lpn += 1
            if step % 25 == 0:
                self._check(allocator)
        assert any(allocator.group_state(g).lenders for g in range(allocator.num_groups))
        self._check(allocator)
        # The batched kernel's allocation run inlines the same bookkeeping.
        allocator.allocate_run([4, 4, 5, 4], limit=4, min_free_pages=0)
        self._check(allocator)
        # GC write-back: fresh stripes in, an emptied stripe out.
        owned = set(allocator.stripes_of_group(3))
        destination = allocator.gc_destination(3, 7, set())
        (fresh,) = set(allocator.stripes_of_group(3)) - owned
        assert destination.tolist() == [allocator.stripe_map.ppn_at(fresh, i) for i in range(7)]
        self._check(allocator)
        # A write-back larger than every free stripe together is scattered.
        free_pages = allocator.free_stripe_count() * allocator.stripe_map.pages_per_stripe
        assert allocator.total_free_pages() > free_pages
        allocator.gc_destination(0, free_pages + 1, set(allocator.stripes_of_group(0)))
        self._check(allocator)
        allocator.release_stripe(allocator.stripes_of_group(5)[0])
        self._check(allocator)
        # free_pages is not a snapshot key: a restore derives it again.
        state = allocator.state_dict()
        assert "free_pages" not in state["groups"][0]
        restored = GroupAllocator(geometry, FlashArray(geometry), group_stripe_limit=1)
        restored.load_state(state)
        self._check(restored)
        assert [s.free_pages for s in restored._groups] == [s.free_pages for s in allocator._groups]


class TestResidentGroups:
    def test_matches_a_page_by_page_scan(self, geometry, flash):
        """The masked gather per stripe against the per-page scan it replaced."""
        allocator = GroupAllocator(geometry, flash, group_stripe_limit=1)
        rng = random.Random(3)
        written = []
        for lpn in rng.sample(range(geometry.num_logical_pages), 150):
            try:
                ppn, _owner = allocator.allocate_page(lpn // allocator.lpns_per_group)
            except (GroupGCNeeded, OutOfSpaceError):
                break
            flash.program(ppn, lpn=lpn)
            written.append(ppn)
        for ppn in rng.sample(written, len(written) // 3):
            flash.invalidate(ppn)
        owned = [s for g in range(allocator.num_groups) for s in allocator.stripes_of_group(g)]
        assert len(owned) > 2
        for stripes in ([], owned[:1], owned[1:3], owned):
            expected = set()
            for stripe in stripes:
                for block in allocator.stripe_map.blocks_of(stripe):
                    for ppn in flash.valid_ppns_in_block(block):
                        if flash.page_tvpn(ppn) is None:
                            expected.add(flash.page_lpn_raw(ppn) // allocator.lpns_per_group)
            assert allocator.groups_resident_in_stripes(stripes) == expected


class TestGroupAllocateRunParity:
    """``allocate_run`` takes each group's consecutive pages as one stripe slice;
    it must hand out the PPNs, and leave the state, of one ``allocate_page``
    call per page, stopping where the per-page path would borrow, need GC or
    fall below ``min_free_pages``."""

    @staticmethod
    def _page_by_page(allocator, groups, limit, min_free_pages):
        pages_per_stripe = allocator.stripe_map.pages_per_stripe
        stripe_budget = allocator.group_stripe_limit * allocator.stripes_per_span
        ppns = []
        for group in groups[:limit]:
            if allocator.total_free_pages() < min_free_pages:
                return ppns, "min_free_pages"
            stripes = allocator.stripes_of_group(group)
            if not any(allocator._stripe_cursor.get(s, 0) < pages_per_stripe for s in stripes):
                if len(stripes) >= stripe_budget:
                    return ppns, "stripe_budget"
                if allocator.free_stripe_count() <= allocator.gc_reserve_stripes:
                    return ppns, "gc_reserve"
            ppn, owner = allocator.allocate_page(group)
            assert owner == group
            ppns.append(ppn)
        return ppns, "complete"

    @pytest.mark.parametrize("group_stripe_limit", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_ppns_and_state_as_allocate_page(self, geometry, group_stripe_limit, seed):
        run_side = GroupAllocator(geometry, FlashArray(geometry), group_stripe_limit=group_stripe_limit)
        page_side = GroupAllocator(geometry, FlashArray(geometry), group_stripe_limit=group_stripe_limit)
        rng = random.Random(seed)
        stops = set()
        fresh_claims = 0
        for _ in range(60):
            groups = []
            for _ in range(rng.randint(1, 4)):
                groups += [rng.randrange(run_side.num_groups)] * rng.randint(1, 40)
            limit = rng.randint(1, len(groups))
            min_free_pages = 0
            if rng.random() < 0.3:
                min_free_pages = run_side.total_free_pages() - rng.randrange(limit)
            epoch = run_side._layout_epoch
            ppns = run_side.allocate_run(groups, limit, min_free_pages)
            expected, stop = self._page_by_page(page_side, groups, limit, min_free_pages)
            assert ppns == expected
            assert run_side.state_dict() == page_side.state_dict()
            assert [s.free_pages for s in run_side._groups] == [s.free_pages for s in page_side._groups]
            stops.add(stop)
            fresh_claims += run_side._layout_epoch - epoch
        assert fresh_claims > 0
        assert {"complete", "min_free_pages"} <= stops
        # One stripe per group meets its budget first; two run the free list down to the reserve.
        assert ("stripe_budget" if group_stripe_limit == 1 else "gc_reserve") in stops
