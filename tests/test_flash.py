"""Tests for the flash array state machine (:mod:`repro.nand.flash`)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nand.errors import FlashStateError, GeometryError
from repro.nand.flash import PAGE_FREE, PAGE_INVALID, PAGE_VALID, FlashArray
from repro.nand.geometry import SSDGeometry


@pytest.fixture
def geometry() -> SSDGeometry:
    return SSDGeometry(
        channels=1, chips_per_channel=2, planes_per_chip=1, blocks_per_plane=4, pages_per_block=8
    )


@pytest.fixture
def flash(geometry) -> FlashArray:
    return FlashArray(geometry)


class TestProgram:
    def test_program_marks_valid(self, flash):
        assert flash.program(0, lpn=10) is None
        assert flash.page_state_code(0) == PAGE_VALID
        assert flash.page_lpn_raw(0) == 10

    def test_versions_increase_monotonically(self, flash):
        flash.program(0, lpn=1)
        flash.program(1, lpn=2)
        (_, v1), (_, v2) = flash.latest_version_of(1), flash.latest_version_of(2)
        assert v2 > v1

    def test_program_twice_fails(self, flash):
        flash.program(0, lpn=1)
        with pytest.raises(FlashStateError):
            flash.program(0, lpn=2)

    def test_out_of_order_program_rejected(self, flash):
        flash.program(0, lpn=1)
        with pytest.raises(FlashStateError):
            flash.program(2, lpn=2)  # skipping page offset 1 in the block

    def test_out_of_order_allowed_when_disabled(self, geometry):
        flash = FlashArray(geometry, enforce_sequential_program=False)
        flash.program(0, lpn=1)
        flash.program(2, lpn=2)
        assert flash.page_state_code(2) == PAGE_VALID

    def test_program_updates_block_counters(self, flash, geometry):
        flash.program(0, lpn=1)
        flash.program(1, lpn=2)
        assert flash.block_programmed(0) == 2
        assert flash.block_valid_count(0) == 2

    def test_translation_flag_recorded(self, flash):
        flash.program(0, lpn=None, is_translation=True, oob={"tvpn": 5})
        assert flash.page_tvpn(0) is not None
        assert flash.page_tvpn(0) == 5
        assert flash.state_dict()["block_translation"][0] == 1

    def test_total_programs_counter(self, flash):
        flash.program(0, lpn=1)
        flash.program(1, lpn=2)
        assert flash.total_programs == 2


class TestReadInvalidate:
    def test_read_returns_oob(self, flash):
        flash.program(0, lpn=42, oob="extra")
        flash.touch_read(0)
        assert flash.page_lpn_raw(0) == 42
        assert json.loads(flash.state_dict()["page_oob"]) == [[0, "extra"]]
        assert flash.total_reads == 1

    def test_read_free_page_fails(self, flash):
        with pytest.raises(FlashStateError):
            flash.touch_read(5)

    def test_invalidate_then_read_is_allowed(self, flash):
        flash.program(0, lpn=1)
        flash.invalidate(0)
        flash.touch_read(0)
        assert flash.page_state_code(0) == PAGE_INVALID

    def test_invalidate_updates_counters(self, flash):
        flash.program(0, lpn=1)
        flash.invalidate(0)
        assert flash.block_valid_count(0) == 0
        assert flash.block_invalid_count(0) == 1

    def test_invalidate_free_page_fails(self, flash):
        with pytest.raises(FlashStateError):
            flash.invalidate(0)

    def test_double_invalidate_fails(self, flash):
        flash.program(0, lpn=1)
        flash.invalidate(0)
        with pytest.raises(FlashStateError):
            flash.invalidate(0)


class TestErase:
    def test_erase_requires_no_valid_pages(self, flash):
        flash.program(0, lpn=1)
        with pytest.raises(FlashStateError):
            flash.erase(0)

    def test_erase_after_invalidate(self, flash, geometry):
        flash.program(0, lpn=1)
        flash.invalidate(0)
        reclaimed = flash.erase(0)
        assert reclaimed == 1
        assert flash.page_state_code(0) == PAGE_FREE
        assert flash.state_dict()["block_erase"][0] == 1
        assert flash.block_programmed(0) == 0

    def test_erase_allows_reprogram_from_page_zero(self, flash):
        flash.program(0, lpn=1)
        flash.invalidate(0)
        flash.erase(0)
        flash.program(0, lpn=2)
        assert flash.page_lpn_raw(0) == 2

    def test_erase_with_allow_valid(self, flash):
        flash.program(0, lpn=1)
        flash.erase(0, allow_valid=True)
        assert flash.page_state_code(0) == PAGE_FREE

    def test_erase_counter(self, flash):
        flash.program(0, lpn=1)
        flash.invalidate(0)
        flash.erase(0)
        assert flash.total_erases == 1


class TestQueries:
    def test_valid_ppns_in_block(self, flash):
        flash.program(0, lpn=1)
        flash.program(1, lpn=2)
        flash.invalidate(0)
        assert flash.valid_ppns_in_block(0) == [1]

    def test_latest_version_of_prefers_newest(self, flash, geometry):
        flash.program(0, lpn=7)
        flash.invalidate(0)
        flash.program(1, lpn=7)
        ppn, _version = flash.latest_version_of(7)
        assert ppn == 1

    def test_latest_version_ignores_translation_pages(self, flash):
        flash.program(0, lpn=3)
        flash.program(1, lpn=3, is_translation=True)
        ppn, _ = flash.latest_version_of(3)
        assert ppn == 0

    def test_latest_version_missing(self, flash):
        assert flash.latest_version_of(99) is None

    def test_page_state_counts(self, flash, geometry):
        flash.program(0, lpn=1)
        flash.program(1, lpn=2)
        flash.invalidate(1)
        codes = [flash.page_state_code(ppn) for ppn in range(geometry.num_physical_pages)]
        assert codes.count(PAGE_VALID) == 1
        assert codes.count(PAGE_INVALID) == 1
        assert codes.count(PAGE_FREE) == geometry.num_physical_pages - 2


class TestColumnarQueries:
    """The array-at-a-time accessors against the per-page ones, which stay."""

    def _mixed(self, flash):
        flash.program(0, lpn=5)
        flash.program(1, lpn=6)
        flash.program(2, lpn=5)
        flash.invalidate(0)
        flash.program(8, lpn=None, is_translation=True)
        flash.program_translation(9, tvpn=0)
        flash.program(10, lpn=6)
        flash.invalidate(1)

    def test_touch_read_many_counts_reads_and_returns_chips(self, flash, geometry):
        self._mixed(flash)
        ppns = np.array([0, 2, 10, 2], dtype=np.int64)
        chips = flash.touch_read_many(ppns)
        assert flash.total_reads == 4
        assert chips.tolist() == [flash.codec.chip_index(ppn) for ppn in ppns.tolist()]
        scalar = FlashArray(geometry)
        self._mixed(scalar)
        assert [scalar.touch_read_chip(ppn) for ppn in ppns.tolist()] == chips.tolist()
        assert scalar.total_reads == flash.total_reads

    def test_touch_read_many_rejects_a_free_page(self, flash):
        self._mixed(flash)
        with pytest.raises(FlashStateError, match="ppn=3"):
            flash.touch_read_many(np.array([0, 3, 2], dtype=np.int64))
        assert flash.total_reads == 0
        with pytest.raises(GeometryError):
            flash.touch_read_many(np.array([0, -1], dtype=np.int64))

    def test_live_lpns(self, flash, geometry):
        self._mixed(flash)
        ppns = np.arange(geometry.num_physical_pages, dtype=np.int64)
        expected = [
            flash.page_lpn_raw(ppn)
            if flash.is_valid(ppn) and flash.page_tvpn(ppn) is None
            else -1
            for ppn in ppns.tolist()
        ]
        assert flash.live_lpns(ppns).tolist() == expected
        assert sorted(set(expected)) == [-1, 5, 6]
        with pytest.raises(GeometryError):
            flash.live_lpns(np.array([geometry.num_physical_pages], dtype=np.int64))

    def test_newest_copies_match_latest_version_of(self, flash):
        self._mixed(flash)
        # An older copy that is still valid: the newer one must win.
        flash.program(3, lpn=5)
        newest = flash.newest_copies(8)
        for lpn in range(8):
            scalar = flash.latest_version_of(lpn)
            assert newest[lpn] == (-1 if scalar is None else scalar[0])
        assert newest[5] == 3 and newest[6] == 10
        # LPNs at or beyond the bound are ignored, not an error.
        assert flash.newest_copies(6).tolist() == [-1, -1, -1, -1, -1, 3]


#: Every per-page and per-block column a flash state carries.
STATE_COLUMNS = (
    "page_state",
    "page_lpn",
    "page_version",
    "page_translation",
    "page_tvpn",
    "block_next",
    "block_valid",
    "block_invalid",
    "block_erase",
    "block_translation",
)


class TestStateRestore:
    """``load_state`` restores every column in place or refuses the state
    before changing anything."""

    def test_round_trip_keeps_every_column_object(self, flash):
        TestColumnarQueries()._mixed(flash)
        state = flash.state_dict()
        restored = FlashArray(flash.geometry)
        columns = [getattr(restored, "_" + name) for name in STATE_COLUMNS]
        restored.load_state(state)
        for name, column in zip(STATE_COLUMNS, columns):
            assert getattr(restored, "_" + name) is column
        for name, column in restored.state_dict().items():
            np.testing.assert_array_equal(column, state[name])

    @pytest.mark.parametrize("name", STATE_COLUMNS)
    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_column_of_the_wrong_length_is_refused_before_any_restore(self, flash, name, change):
        TestColumnarQueries()._mixed(flash)
        state = flash.state_dict()
        column = state[name]
        state[name] = column[:-1] if change < 0 else np.append(column, column[:1])
        target = FlashArray(flash.geometry)
        before = target.state_dict()
        with pytest.raises(FlashStateError, match=repr(name)):
            target.load_state(state)
        after = target.state_dict()
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value)

    def test_a_halved_device_column_is_refused(self):
        from repro.ssd.device import SSD

        ssd = SSD.create("learnedftl", SSDGeometry.small())
        ssd.fill_sequential(io_pages=16)
        state = ssd.state_dict()
        page_lpn = state["ftl"]["flash"]["page_lpn"]
        state["ftl"]["flash"]["page_lpn"] = page_lpn[: len(page_lpn) // 2]
        target = SSD.create("learnedftl", SSDGeometry.small())
        with pytest.raises(FlashStateError, match="'page_lpn'"):
            target.load_state(state)
        assert len(target.ftl.flash._page_lpn) == SSDGeometry.small().num_physical_pages


class TestLifecycleProperty:
    @given(ops=st.lists(st.integers(0, 2), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_block_counters_never_go_negative(self, geometry, ops):
        """Random program/invalidate/erase sequences keep counters consistent."""
        flash = FlashArray(geometry)
        block = 0
        cursor = 0
        valid: list[int] = []
        for op in ops:
            if op == 0 and cursor < geometry.pages_per_block:
                ppn = cursor
                flash.program(ppn, lpn=ppn)
                valid.append(ppn)
                cursor += 1
            elif op == 1 and valid:
                flash.invalidate(valid.pop())
            elif op == 2 and not valid and cursor > 0:
                flash.erase(block)
                cursor = 0
            assert flash.block_valid_count(block) == len(valid)
            assert 0 <= flash.block_invalid_count(block) <= geometry.pages_per_block
            assert flash.block_programmed(block) == cursor
