"""Tests for LearnedFTL's in-place-update linear model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learned.inplace_model import (
    BIT_NOT_SET,
    InPlaceLinearModel,
    model_fleet,
    pack_models,
    unpack_models,
)


@pytest.fixture
def model() -> InPlaceLinearModel:
    return InPlaceLinearModel(start_lpn=1024, span=512, max_pieces=8)



def _set_bits(bitmap) -> list[int]:
    """The set bits of a model bitmap, read from its bytes, ascending."""
    flags = np.unpackbits(np.frombuffer(bitmap._bits, dtype=np.uint8), bitorder="little")
    return np.flatnonzero(flags[: bitmap._size]).tolist()

class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            InPlaceLinearModel(start_lpn=0, span=0)
        with pytest.raises(ValueError):
            InPlaceLinearModel(start_lpn=0, span=8, max_pieces=0)

    def test_covers_its_range_only(self, model):
        assert model.covers(1024)
        assert model.covers(1024 + 511)
        assert not model.covers(1023)
        assert not model.covers(1024 + 512)

    def test_offset_of(self, model):
        assert model.offset_of(1030) == 6
        with pytest.raises(ValueError):
            model.offset_of(0)

    def test_memory_budget_matches_paper(self):
        model = InPlaceLinearModel(start_lpn=0, span=512, max_pieces=8)
        assert model.memory_bytes() <= 128


class TestTraining:
    def test_untrained_model_predicts_nothing(self, model):
        assert model.predict(1024) is None
        assert not model.can_predict(1024)

    def test_linear_training_sets_all_bits(self, model):
        lpns = list(range(1024, 1024 + 100))
        vppns = [7000 + i for i in range(100)]
        result = model.train(lpns, vppns)
        assert result.accuracy == 1.0
        assert model.trained_length() == 100
        assert model.predict(1050) == 7026

    def test_empty_training(self, model):
        result = model.train([], [])
        assert result.trained_points == 0
        assert model.trained_length() == 0

    def test_mismatched_lengths_rejected(self, model):
        with pytest.raises(ValueError):
            model.train([1024], [1, 2])

    def test_bitmap_only_set_for_exact_predictions(self, model):
        # Two dense runs plus noisy points: with one piece the noise cannot be exact.
        lpns = list(range(1024, 1024 + 16))
        vppns = [2000 + i for i in range(8)] + [9000, 1, 8888, 17, 5555, 42, 7777, 3]
        model.max_pieces = 1
        model.pieces = []
        result = model.train(lpns, vppns)
        for lpn, vppn in zip(lpns, vppns):
            if model.can_predict(lpn):
                assert model.predict(lpn) == vppn
        assert result.accurate_points == model.trained_length()

    def test_training_respects_piece_budget(self):
        model = InPlaceLinearModel(start_lpn=0, span=512, max_pieces=4)
        lpns = list(range(0, 200, 2))
        vppns = [((i * 37) % 91) * 13 for i in range(100)]
        model.train(lpns, vppns)
        assert len(model.pieces) <= 4

    def test_verifier_overrides_training_targets(self, model):
        lpns = list(range(1024, 1044))
        vppns = [100 + i for i in range(20)]
        # The verifier says the device actually stored different VPPNs, so no bit may be set.
        result = model.train(lpns, vppns, verifier=lambda lpn: 999_999)
        assert result.accurate_points == 0
        assert model.trained_length() == 0

    def test_retraining_replaces_previous_model(self, model):
        lpns = list(range(1024, 1074))
        model.train(lpns, [100 + i for i in range(50)])
        model.train(lpns, [900 + i for i in range(50)])
        assert model.predict(1030) == 906


class TestInvalidation:
    def test_write_clears_single_bit(self, model):
        lpns = list(range(1024, 1034))
        model.train(lpns, [50 + i for i in range(10)])
        model.invalidate(1028)
        assert not model.can_predict(1028)
        assert model.can_predict(1029)
        assert model.trained_length() == 9

    def test_invalidate_outside_range_is_noop(self, model):
        model.train([1024], [1])
        model.invalidate(5)
        assert model.trained_length() == 1


class TestSequentialUpdate:
    def test_replaces_shorter_model(self, model):
        model.train(list(range(1024, 1029)), [10, 11, 12, 13, 14])
        lpns = list(range(1100, 1120))
        vppns = [500 + i for i in range(20)]
        assert model.sequential_update(lpns, vppns)
        assert model.trained_length() == 20
        assert model.predict(1110) == 510
        # The old region is no longer predictable after the in-place replacement.
        assert not model.can_predict(1024)

    def test_does_not_replace_longer_model(self, model):
        lpns = list(range(1024, 1074))
        model.train(lpns, [10 + i for i in range(50)])
        assert not model.sequential_update([1200, 1201], [7, 8])
        assert model.trained_length() == 50

    def test_rejects_non_contiguous_runs(self, model):
        assert not model.sequential_update([1024, 1026], [5, 6])
        assert not model.sequential_update([1024, 1025], [5, 9])

    def test_rejects_single_page_runs(self, model):
        assert not model.sequential_update([1024], [5])


class TestBitmapGuarantee:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_set_bits_always_predict_training_value(self, data):
        """The core LearnedFTL invariant: a set bit implies an exact prediction."""
        span = 64
        model = InPlaceLinearModel(start_lpn=0, span=span, max_pieces=4)
        count = data.draw(st.integers(1, span))
        lpns = sorted(data.draw(st.sets(st.integers(0, span - 1), min_size=count, max_size=count)))
        vppns = [data.draw(st.integers(0, 5000)) for _ in lpns]
        # Keep targets sorted so they are a plausible VPPN sequence.
        vppns.sort()
        model.train(lpns, vppns)
        truth = dict(zip(lpns, vppns))
        for lpn in lpns:
            if model.can_predict(lpn):
                assert model.predict(lpn) == truth[lpn]


class TestPredictExactParity:
    """predict_exact (the fused read-hot-path entry) must agree with the
    unfused can_predict + predict pair for every LPN — it inlines the bitmap
    layout and piece arithmetic, so this parity is its only guard."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_fused_matches_unfused(self, data):
        span = 64
        model = InPlaceLinearModel(start_lpn=128, span=span, max_pieces=4)
        count = data.draw(st.integers(1, span))
        lpns = sorted(
            data.draw(
                st.sets(st.integers(128, 128 + span - 1), min_size=count, max_size=count)
            )
        )
        vppns = sorted(data.draw(st.integers(0, 5000)) for _ in lpns)
        model.train(lpns, vppns)
        # Some overwrites clear bits, exercising the BIT_NOT_SET branch.
        for lpn in lpns[::3]:
            model.invalidate(lpn)
        for lpn in range(128 - 2, 128 + span + 2):
            fused = model.predict_exact(lpn)
            if not model.can_predict(lpn):
                assert fused is BIT_NOT_SET
            else:
                assert fused == model.predict(lpn)


class TestColumnarTrainParity:
    """``train`` evaluates a whole entry array-at-a-time; the per-LPN pair
    ``_piece_for`` + ``ModelPiece.predict`` (``round``, half to even) stays the
    reference for which bits it may set."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bitmap_matches_per_lpn_evaluation(self, data):
        span, start = 128, 256
        max_pieces = data.draw(st.sampled_from([1, 2, 4, 8]))
        model = InPlaceLinearModel(start_lpn=start, span=span, max_pieces=max_pieces)
        # Gapped LPNs; VPPNs in runs broken by jumps, often more runs than pieces
        # (the over-budget tail is then one least-squares piece with a real slope).
        lpns = sorted(data.draw(st.sets(st.integers(start, start + span - 1), min_size=1)))
        steps = data.draw(
            st.lists(
                st.sampled_from([1, 1, 1, 1, 2, 3, 40]), min_size=len(lpns), max_size=len(lpns)
            )
        )
        vppns = np.cumsum(steps).tolist()
        result = model.train(np.array(lpns, dtype=np.int64), np.array(vppns, dtype=np.int64))
        assert len(model.pieces) <= max_pieces

        expected = set()
        for lpn, vppn in zip(lpns, vppns):
            piece = model._piece_for(lpn - start)
            if piece is not None and piece.predict(lpn - start) == vppn:
                expected.add(lpn)
        assert {start + offset for offset in _set_bits(model.bitmap)} == expected
        assert model.trained_length() == result.accurate_points == len(expected)
        assert result.trained_points == len(lpns)
        assert result.pieces_used == len(model.pieces)
        truth = dict(zip(lpns, vppns))
        for lpn in range(start - 1, start + span + 1):
            assert model.can_predict(lpn) == (lpn in expected)
            assert model.predict(lpn) == (truth[lpn] if lpn in expected else None)

        # Lists and columns are the same input.
        twin = InPlaceLinearModel(start_lpn=start, span=span, max_pieces=max_pieces)
        assert twin.train(lpns, vppns) == result
        assert twin.pieces == model.pieces and twin.bitmap._bits == model.bitmap._bits

    def test_over_budget_tail_marks_only_exact_points(self):
        model = InPlaceLinearModel(start_lpn=0, span=64, max_pieces=2)
        lpns = list(range(40))
        vppns = [100 + i for i in range(10)] + [(i * 37) % 91 * 13 for i in range(30)]
        result = model.train(lpns, vppns)
        assert len(model.pieces) == 2
        assert all(model.can_predict(lpn) for lpn in range(10))
        assert 10 <= result.accurate_points < 40

    def test_verifier_may_not_know_an_lpn(self, model):
        lpns = list(range(1024, 1034))
        vppns = [100 + i for i in range(10)]
        result = model.train(
            lpns, vppns, verifier=lambda lpn: None if lpn % 2 else 100 + lpn - 1024
        )
        assert result.accurate_points == 5
        assert [model.can_predict(lpn) for lpn in lpns] == [True, False] * 5

    def test_uncovered_lpn_rejected(self, model):
        with pytest.raises(ValueError, match="2000"):
            model.train([1024, 2000], [1, 2])

    def test_sequential_update_sets_exactly_the_run(self, model):
        model.train([1500], [9])
        assert model.sequential_update(list(range(1030, 1158)), list(range(7000, 7128)))
        assert _set_bits(model.bitmap) == list(range(6, 134))
        assert model.trained_length() == 128
        assert model.predict(1157) == 7127
        with pytest.raises(ValueError):
            model.sequential_update(list(range(1400, 1600)), list(range(200)))
        assert model.trained_length() == 128


class TestFleetPacking:
    """``pack_models`` / ``unpack_models``: the snapshot form of a model fleet."""

    @staticmethod
    def _fleet(span: int, count: int = 7) -> tuple[bytearray, list[InPlaceLinearModel]]:
        return model_fleet(count, span, max_pieces=4)

    # 13 and 100 are not multiples of 8: the last byte of every bitmap is partial.
    @pytest.mark.parametrize("span", [13, 64, 100, 512])
    def test_restored_popcounts_match_per_bit_counting(self, span):
        rng = np.random.default_rng(span)
        source_column, source = self._fleet(span)
        for index, model in enumerate(source):
            # Assigned, then cleared bit by bit, leaving gaps; model 0 stays
            # empty and model 1 full, so both extremes are in the fleet.
            density = (0.0, 1.0)[index] if index < 2 else rng.uniform(0.1, 0.9)
            model.bitmap.assign(rng.random(span) < density)
            if index >= 2:
                for offset in np.flatnonzero(rng.random(span) < 0.2).tolist():
                    model.bitmap.clear(offset)
        trained = source[2]
        trained.train([trained.start_lpn + i for i in range(6)], [40 + 2 * i for i in range(6)])
        column, restored = self._fleet(span)
        restored[0].bitmap.assign(np.arange(span) == 0)  # stale state the restore must overwrite
        unpack_models(restored, column, pack_models(source, source_column))
        for before, after in zip(source, restored):
            set_bits = _set_bits(before.bitmap)
            assert after.bitmap.count() == before.bitmap.count() == len(set_bits)
            assert _set_bits(after.bitmap) == set_bits
            assert after.pieces == before.pieces
        assert (restored[0].bitmap.count(), restored[1].bitmap.count()) == (0, span)
        # The packed bitmaps are the models' rows, joined; the restore wrote
        # the column in place, so every bitmap is still a view of it.
        assert pack_models(source, source_column)["bitmaps"].tobytes() == b"".join(
            bytes(model.bitmap._bits) for model in source
        )
        assert bytes(column) == bytes(source_column)
        for model in restored:
            assert model.bitmap._bits.obj is column

    def test_mismatched_buffers_are_rejected(self):
        column, models = self._fleet(64)
        state = pack_models(models, column)
        fewer_column, fewer_models = self._fleet(64, count=6)
        with pytest.raises(ValueError, match="models"):
            unpack_models(fewer_models, fewer_column, state)
        for bitmaps in (state["bitmaps"][:-1], np.append(state["bitmaps"], np.uint8(0))):
            with pytest.raises(ValueError, match="bitmap buffer"):
                unpack_models(models, column, {**state, "bitmaps": bitmaps})

    def test_fleet_rows_are_views_of_one_column(self):
        column, models = model_fleet(3, 16)
        models[1].bitmap.assign(np.arange(16) == 5)
        assert column == bytearray([0, 0, 0b100000, 0, 0, 0])
        column[5] = 0b11
        assert models[2].bitmap.test(8) and models[2].bitmap.test(9)
        standalone = InPlaceLinearModel(start_lpn=0, span=16)
        assert isinstance(standalone.bitmap._bits, bytearray)
