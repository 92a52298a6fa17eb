"""Tests for the bitmap filter (:mod:`repro.core.learned.bitmap`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learned.bitmap import Bitmap


def _bitmap(size: int, bits) -> Bitmap:
    """A ``size``-bit bitmap with exactly ``bits`` set."""
    flags = np.zeros(size, dtype=bool)
    flags[sorted(bits)] = True
    bitmap = Bitmap(size)
    bitmap.assign(flags)
    return bitmap


def _set_bits(bitmap: Bitmap) -> set[int]:
    """The set bits, read from the bitmap's bytes."""
    flags = np.unpackbits(np.frombuffer(bitmap._bits, dtype=np.uint8), bitorder="little")
    return set(np.flatnonzero(flags[: bitmap._size]).tolist())


class TestBasics:
    def test_new_bitmap_is_all_clear(self):
        bitmap = Bitmap(64)
        assert bitmap.count() == 0
        assert not bitmap.test(0)
        assert not bitmap.test(63)

    def test_assign_and_test(self):
        bitmap = _bitmap(16, {5})
        assert bitmap.test(5)
        assert not bitmap.test(4)

    def test_clear(self):
        bitmap = _bitmap(16, {7})
        bitmap.clear(7)
        assert not bitmap.test(7)
        assert bitmap.count() == 0

    def test_clear_is_idempotent(self):
        bitmap = Bitmap(8)
        bitmap.clear(3)
        bitmap.clear(3)
        assert bitmap.count() == 0

    def test_clear_all(self):
        bitmap = _bitmap(32, range(0, 32, 2))
        bitmap.clear_all()
        assert bitmap.count() == 0
        assert not any(bitmap.test(index) for index in range(32))


class TestBounds:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Bitmap(0)

    @pytest.mark.parametrize("index", [-1, 16, 100])
    def test_out_of_range_indices(self, index):
        bitmap = Bitmap(16)
        with pytest.raises(IndexError):
            bitmap.test(index)
        with pytest.raises(IndexError):
            bitmap.clear(index)


class TestMemory:
    def test_memory_bytes_rounds_up(self):
        assert Bitmap(8).memory_bytes() == 1
        assert Bitmap(9).memory_bytes() == 2
        assert Bitmap(512).memory_bytes() == 64  # the paper's 512-bit filter

    def test_paper_model_budget(self):
        """512-bit bitmap (64 B) + 8 pieces x 6 B = 112 B <= 128 B budget."""
        assert Bitmap(512).memory_bytes() + 8 * 6 <= 128


class TestProperty:
    @given(
        initial=st.sets(st.integers(0, 127)),
        cleared=st.lists(st.integers(0, 127), max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_matches_reference_set(self, initial, cleared):
        bitmap = _bitmap(128, initial)
        reference = set(initial)
        for index in cleared:
            bitmap.clear(index)
            reference.discard(index)
            assert bitmap.count() == len(reference)
        assert _set_bits(bitmap) == reference


class TestBulkOperations:
    """``assign`` / ``clear_many`` against the set bits and per-bit ``clear``, popcount included."""

    @given(
        first=st.sets(st.integers(0, 69)),
        cleared=st.lists(st.integers(0, 69), max_size=40),
        second=st.sets(st.integers(0, 69)),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_matches_per_bit(self, first, cleared, second):
        bulk, scalar = Bitmap(70), Bitmap(70)
        for bits in (first, second):
            flags = np.zeros(70, dtype=bool)
            flags[sorted(bits)] = True
            bulk.assign(flags)
            scalar.assign(flags)
            assert _set_bits(bulk) == bits and bulk.count() == len(bits)
            bulk.clear_many(np.array(cleared, dtype=np.int64))
            for index in cleared:
                scalar.clear(index)
            assert bulk._bits == scalar._bits
            assert bulk.count() == scalar.count() == len(bits - set(cleared))
            assert _set_bits(bulk) == bits - set(cleared)

    def test_assign_rejects_a_column_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            Bitmap(16).assign(np.zeros(15, dtype=bool))

    @pytest.mark.parametrize("index", [-1, 16])
    def test_clear_many_rejects_out_of_range_indices(self, index):
        bitmap = _bitmap(16, {3})
        with pytest.raises(IndexError):
            bitmap.clear_many(np.array([3, index], dtype=np.int64))
        assert bitmap.test(3) and bitmap.count() == 1
