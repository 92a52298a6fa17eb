"""Tests for the mapping directory and translation-page store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mapping import MappingDirectory, TranslationPageStore
from repro.nand.errors import MappingError
from repro.nand.flash import PAGE_INVALID, FlashArray
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import (
    KIND_BY_CODE,
    OP_STRIDE,
    CommandBuffer,
    CommandKind,
    CommandPurpose,
    RequestBatch,
    command_code,
)
from tests.conftest import ALL_FTL_NAMES, command_kinds


@pytest.fixture
def geometry() -> SSDGeometry:
    return SSDGeometry(
        channels=1,
        chips_per_channel=2,
        planes_per_chip=1,
        blocks_per_plane=4,
        pages_per_block=8,
        page_size=512,
    )


@pytest.fixture
def directory(geometry) -> MappingDirectory:
    return MappingDirectory(geometry)


class TestMappingDirectory:
    def test_lookup_unmapped(self, directory):
        assert directory.lookup(3) is None
        assert not directory.is_mapped(3)

    def test_update_and_lookup(self, directory):
        assert directory.update(3, 77) is None
        assert directory.lookup(3) == 77
        assert directory.is_mapped(3)
        assert len(directory) == 1

    def test_update_returns_previous(self, directory):
        directory.update(3, 77)
        assert directory.update(3, 99) == 77
        assert directory.lookup(3) == 99

    def test_require_raises_for_unmapped(self, directory):
        with pytest.raises(MappingError):
            directory.require(5)

    def test_remove(self, directory):
        directory.update(1, 10)
        assert directory.remove(1) == 10
        assert directory.lookup(1) is None
        assert directory.remove(1) is None

    def test_tvpn_of_uses_page_size(self, directory, geometry):
        per_page = geometry.mappings_per_translation_page
        assert directory.tvpn_of(0) == 0
        assert directory.tvpn_of(per_page) == 1
        assert directory.tvpn_of(per_page - 1) == 0

    def test_lpn_range_of_tvpn(self, directory, geometry):
        per_page = geometry.mappings_per_translation_page
        rng = directory.lpn_range_of_tvpn(1)
        assert rng.start == per_page
        assert rng.stop <= geometry.num_logical_pages

    def test_mapped_lpns_of_tvpn_sorted(self, directory):
        directory.update(5, 50)
        directory.update(2, 20)
        directory.update(3, 30)
        assert directory.mapped_lpns_of_tvpn(0).tolist() == [2, 3, 5]


class TestTranslationPageStore:
    @pytest.fixture
    def store(self, geometry, directory):
        flash = FlashArray(geometry)
        counter = iter(range(geometry.num_physical_pages))

        def allocate() -> int:
            return next(counter)

        return TranslationPageStore(flash, directory, allocate)

    @pytest.fixture
    def buffer(self) -> CommandBuffer:
        return CommandBuffer()

    def test_read_command_before_first_flush_is_none(self, store, buffer):
        assert not store.read_into(buffer, buffer.new_stage(), 0)
        assert buffer.ops == []

    def test_flush_programs_translation_page(self, store, buffer):
        store.flush_into(buffer, buffer.new_stage(), 0)
        assert command_kinds(buffer) == {CommandKind.PROGRAM: 1}  # no previous copy
        ppn = store.location_of(0)
        assert store.flash.page_is_translation(ppn)
        assert store.flash.page_tvpn(ppn) == 0

    def test_second_flush_is_read_modify_write(self, store, buffer):
        store.flush_into(buffer, buffer.new_stage(), 0)
        first_ppn = store.location_of(0)
        buffer.reset()
        store.flush_into(buffer, buffer.new_stage(), 0)
        kinds = [KIND_BY_CODE[code] for code in buffer.ops[::OP_STRIDE]]
        assert kinds == [CommandKind.READ, CommandKind.PROGRAM]
        assert store.flash.page_state_code(first_ppn) == PAGE_INVALID
        assert store.location_of(0) != first_ppn

    def test_read_command_after_flush(self, store, buffer):
        store.flush_into(buffer, buffer.new_stage(), 0)
        buffer.reset()
        assert store.read_into(buffer, buffer.new_stage(), 0)
        code, _chip, ppn, _block = buffer.ops
        assert code == command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)
        assert ppn == store.location_of(0)

    def test_dirty_tracking(self, store, buffer):
        assert not store.is_dirty(2)
        store.mark_dirty(2)
        assert store.is_dirty(2)
        assert store.dirty_tvpns() == [2]
        store.flush_into(buffer, buffer.new_stage(), 2)
        assert not store.is_dirty(2)

    def test_counters(self, store, buffer):
        store.flush_into(buffer, buffer.new_stage(), 0)
        store.flush_into(buffer, buffer.new_stage(), 0)
        store.read_into(buffer, buffer.new_stage(), 0)
        assert store.translation_writes == 2
        assert store.translation_reads == 2  # one RMW read + one lookup read

    def test_relocate_moves_live_translation_page(self, store, buffer):
        store.flush_into(buffer, buffer.new_stage(), 3)
        old_ppn = store.location_of(3)
        buffer.reset()
        new_ppn = store.relocate_into(buffer, buffer.new_stage(), old_ppn)
        code, _chip, ppn, _block = buffer.ops
        assert code == command_code(CommandKind.PROGRAM, CommandPurpose.GC_WRITE)
        assert ppn == new_ppn
        assert store.location_of(3) == new_ppn
        assert store.flash.page_state_code(old_ppn) == PAGE_INVALID
        assert store.flash.page_tvpn(new_ppn) == 3

    def test_relocate_rejects_data_pages(self, store, buffer, geometry):
        data_ppn = geometry.pages_per_block * 2  # first page of an untouched block
        store.flash.program(data_ppn, lpn=7)
        with pytest.raises(MappingError):
            store.relocate_into(buffer, buffer.new_stage(), data_ppn)


class TestLookupMany:
    def test_matches_scalar_lookup(self, geometry):
        import numpy as np

        directory = MappingDirectory(geometry)
        for lpn in range(0, 20, 2):
            directory.update(lpn, lpn * 3)
        lpns = np.array([0, 1, 2, 17, 18], dtype=np.int64)
        expected = [directory.lookup(int(lpn)) for lpn in lpns]
        got = directory.lookup_many(lpns)
        assert got.tolist() == [-1 if e is None else e for e in expected]

    def test_out_of_range_lpns_are_unmapped(self, geometry):
        import numpy as np

        directory = MappingDirectory(geometry)
        directory.update(0, 42)
        size = len(directory._ppn)
        got = directory.lookup_many(np.array([-1, 0, size, size + 7], dtype=np.int64))
        assert got.tolist() == [-1, 42, -1, -1]

    def test_view_stays_coherent_after_updates_and_load_state(self, geometry):
        import numpy as np

        directory = MappingDirectory(geometry)
        directory.update(5, 50)
        snapshot = directory.state_dict()
        directory.update(5, 99)
        assert directory.lookup_many(np.array([5], dtype=np.int64)).tolist() == [99]
        directory.load_state(snapshot)
        # load_state restores in place, so the shared NumPy view sees it too.
        assert directory.lookup_many(np.array([5], dtype=np.int64)).tolist() == [50]

    def test_result_is_writable_copy(self, geometry):
        import numpy as np

        directory = MappingDirectory(geometry)
        directory.update(1, 10)
        got = directory.lookup_many(np.array([1], dtype=np.int64))
        got[0] = -5  # must not corrupt the directory
        assert directory.lookup(1) == 10

    def test_empty_input_gives_empty_column(self, directory):
        got = directory.lookup_many(np.array([], dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == []


class TestLookupManyOnDevices:
    """The gather every read planner issues, on preconditioned devices whose
    mappings GC has already moved."""

    @pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
    def test_matches_scalar_lookup_after_gc(self, ftl_name, warmed_ssd_factory):
        ssd = warmed_ssd_factory(ftl_name)
        directory = ssd.ftl.directory
        size = ssd.geometry.num_logical_pages
        lpns = np.arange(-3, size + 3, dtype=np.int64)
        expected = [directory.lookup(int(lpn)) for lpn in lpns]
        assert directory.lookup_many(lpns).tolist() == [-1 if e is None else e for e in expected]

    @pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
    def test_points_at_the_newest_flash_copy(self, ftl_name, warmed_ssd_factory):
        ssd = warmed_ssd_factory(ftl_name)
        size = ssd.geometry.num_logical_pages
        ppns = ssd.ftl.directory.lookup_many(np.arange(size, dtype=np.int64))
        assert (ppns >= 0).all()  # the fill mapped every logical page
        assert ppns.tolist() == ssd.ftl.flash.newest_copies(size).tolist()

    @pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
    def test_read_storms_move_no_data(self, ftl_name, warmed_ssd_factory):
        ssd = warmed_ssd_factory(ftl_name)
        size = ssd.geometry.num_logical_pages
        lpns = np.arange(size, dtype=np.int64)
        before = ssd.ftl.directory.lookup_many(lpns)
        rng = np.random.default_rng(42)
        ssd.run(RequestBatch.reads(rng.integers(0, size, size=1500)), threads=4)
        ssd.run(RequestBatch.reads(rng.integers(0, size, size=1500)), threads=4, batch=256)
        assert ssd.ftl.directory.lookup_many(lpns).tolist() == before.tolist()


class TestStoreMany:
    def test_matches_sequential_updates(self, geometry):
        import numpy as np

        scalar = MappingDirectory(geometry)
        batched = MappingDirectory(geometry)
        for lpn in range(0, 12, 3):
            scalar.update(lpn, lpn + 100)
            batched.update(lpn, lpn + 100)
        lpns = np.array([0, 1, 3, 7], dtype=np.int64)
        ppns = np.array([40, 41, 42, 43], dtype=np.int64)
        expected_old = [scalar.update(int(l), int(p)) for l, p in zip(lpns, ppns)]
        old = batched.store_many(lpns, ppns)
        assert old.tolist() == [-1 if e is None else e for e in expected_old]
        assert len(batched) == len(scalar)
        for lpn in range(12):
            assert batched.lookup(lpn) == scalar.lookup(lpn)

    def test_duplicate_lpns_last_write_wins(self, geometry):
        import numpy as np

        directory = MappingDirectory(geometry)
        directory.update(5, 10)
        # The gather of old PPNs happens before any scatter, so both
        # duplicates report the pre-call value — exactly the caveat the write
        # planners dodge by falling back to per-request updates on duplicates.
        old = directory.store_many(
            np.array([5, 5], dtype=np.int64), np.array([20, 30], dtype=np.int64)
        )
        assert old.tolist() == [10, 10]
        assert directory.lookup(5) == 30

    def test_mapped_count_tracks_first_mappings(self, geometry):
        import numpy as np

        directory = MappingDirectory(geometry)
        directory.update(2, 7)
        directory.store_many(
            np.array([1, 2, 3], dtype=np.int64), np.array([11, 12, 13], dtype=np.int64)
        )
        assert len(directory) == 3
