"""Tests for the bitmap filter (:mod:`repro.core.learned.bitmap`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learned.bitmap import Bitmap


class TestBasics:
    def test_new_bitmap_is_all_clear(self):
        bitmap = Bitmap(64)
        assert bitmap.count() == 0
        assert not bitmap.test(0)
        assert not bitmap.test(63)

    def test_set_and_test(self):
        bitmap = Bitmap(16)
        bitmap.set(5)
        assert bitmap.test(5)
        assert not bitmap.test(4)

    def test_clear(self):
        bitmap = Bitmap(16)
        bitmap.set(7)
        bitmap.clear(7)
        assert not bitmap.test(7)
        assert bitmap.count() == 0

    def test_set_is_idempotent(self):
        bitmap = Bitmap(8)
        bitmap.set(3)
        bitmap.set(3)
        assert bitmap.count() == 1

    def test_clear_is_idempotent(self):
        bitmap = Bitmap(8)
        bitmap.clear(3)
        bitmap.clear(3)
        assert bitmap.count() == 0

    def test_clear_all(self):
        bitmap = Bitmap(32)
        for index in range(0, 32, 2):
            bitmap.set(index)
        bitmap.clear_all()
        assert bitmap.count() == 0
        assert not any(bitmap.test(index) for index in range(32))

    def test_iter_set_in_order(self):
        bitmap = Bitmap(20)
        for index in (9, 2, 15):
            bitmap.set(index)
        assert list(bitmap.iter_set()) == [2, 9, 15]

    def test_len(self):
        assert len(Bitmap(12)) == 12


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
            bitmap.set(index)
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
        operations=st.lists(
            st.tuples(st.sampled_from(["set", "clear"]), st.integers(0, 127)),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_count_matches_reference_set(self, operations):
        bitmap = Bitmap(128)
        reference: set[int] = set()
        for op, index in operations:
            if op == "set":
                bitmap.set(index)
                reference.add(index)
            else:
                bitmap.clear(index)
                reference.discard(index)
        assert bitmap.count() == len(reference)
        assert set(bitmap.iter_set()) == reference


class TestBulkOperations:
    """``assign`` / ``clear_many`` against the per-bit operations, popcount included."""

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
            scalar.clear_all()
            for index in bits:
                scalar.set(index)
            assert bulk._bits == scalar._bits and bulk.count() == scalar.count() == len(bits)
            bulk.clear_many(np.array(cleared, dtype=np.int64))
            for index in cleared:
                scalar.clear(index)
            assert bulk._bits == scalar._bits
            assert bulk.count() == scalar.count() == len(bits - set(cleared))
            assert set(bulk.iter_set()) == bits - set(cleared)

    def test_assign_rejects_a_column_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            Bitmap(16).assign(np.zeros(15, dtype=bool))

    @pytest.mark.parametrize("index", [-1, 16])
    def test_clear_many_rejects_out_of_range_indices(self, index):
        bitmap = Bitmap(16)
        bitmap.set(3)
        with pytest.raises(IndexError):
            bitmap.clear_many(np.array([3, index], dtype=np.int64))
        assert bitmap.test(3) and bitmap.count() == 1
