"""Tests for the mapping directory and translation-page store."""

from __future__ import annotations

import pytest

from repro.core.mapping import MappingDirectory, TranslationPageStore
from repro.nand.errors import MappingError
from repro.nand.flash import FlashArray, PageState
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import CommandKind, CommandPurpose


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

    def test_read_command_before_first_flush_is_none(self, store):
        assert store.read_command(0) is None

    def test_flush_programs_translation_page(self, store):
        commands = store.flush(0)
        assert len(commands) == 1  # no previous copy: program only
        assert commands[0].kind is CommandKind.PROGRAM
        ppn = store.location_of(0)
        info = store.flash.page(ppn)
        assert info.is_translation
        assert info.oob == {"tvpn": 0}

    def test_second_flush_is_read_modify_write(self, store):
        store.flush(0)
        first_ppn = store.location_of(0)
        commands = store.flush(0)
        kinds = [cmd.kind for cmd in commands]
        assert kinds == [CommandKind.READ, CommandKind.PROGRAM]
        assert store.flash.page(first_ppn).state is PageState.INVALID
        assert store.location_of(0) != first_ppn

    def test_read_command_after_flush(self, store):
        store.flush(0)
        command = store.read_command(0)
        assert command is not None
        assert command.kind is CommandKind.READ
        assert command.purpose is CommandPurpose.TRANSLATION_READ

    def test_dirty_tracking(self, store):
        assert not store.is_dirty(2)
        store.mark_dirty(2)
        assert store.is_dirty(2)
        assert store.dirty_tvpns() == [2]
        store.flush(2)
        assert not store.is_dirty(2)

    def test_counters(self, store):
        store.flush(0)
        store.flush(0)
        store.read_command(0)
        assert store.translation_writes == 2
        assert store.translation_reads == 2  # one RMW read + one lookup read

    def test_relocate_moves_live_translation_page(self, store):
        store.flush(3)
        old_ppn = store.location_of(3)
        new_ppn, command = store.relocate(old_ppn)
        assert command.kind is CommandKind.PROGRAM
        assert store.location_of(3) == new_ppn
        assert store.flash.page(old_ppn).state is PageState.INVALID
        assert store.flash.page(new_ppn).oob == {"tvpn": 3}

    def test_relocate_rejects_data_pages(self, store, geometry):
        data_ppn = geometry.pages_per_block * 2  # first page of an untouched block
        store.flash.program(data_ppn, lpn=7)
        with pytest.raises(MappingError):
            store.relocate(data_ppn)


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
