"""Tests for greedy piece-wise linear regression (:mod:`repro.core.learned.plr`)."""

from __future__ import annotations

import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learned import plr
from repro.core.learned.plr import LinearPiece, fit_fixed_pieces, fit_greedy_plr


class TestLinearPiece:
    def test_predict_rounds_to_nearest_int(self):
        piece = LinearPiece(x_start=10, slope=1.5, intercept=100.0, length=5, max_error=0.0)
        assert piece.predict(12) == 103

    def test_covers(self):
        piece = LinearPiece(x_start=10, slope=1.0, intercept=0.0, length=5, max_error=0.0)
        assert piece.covers(10)
        assert piece.covers(14)
        assert not piece.covers(15)
        assert not piece.covers(9)


class TestGreedyPLR:
    def test_empty_input(self):
        assert fit_greedy_plr([], []) == []

    def test_single_point(self):
        pieces = fit_greedy_plr([5], [100])
        assert len(pieces) == 1
        assert pieces[0].predict(5) == 100

    def test_perfectly_linear_data_one_piece(self):
        xs = list(range(100))
        ys = [x + 42 for x in xs]
        pieces = fit_greedy_plr(xs, ys)
        assert len(pieces) == 1
        for x, y in zip(xs, ys):
            assert pieces[0].predict(x) == y

    def test_two_linear_runs_two_pieces(self):
        xs = list(range(0, 10)) + list(range(20, 30))
        ys = [x + 100 for x in range(0, 10)] + [x + 500 for x in range(20, 30)]
        pieces = fit_greedy_plr(xs, ys)
        assert len(pieces) == 2

    def test_slope_other_than_one(self):
        xs = list(range(50))
        ys = [3 * x + 7 for x in xs]
        pieces = fit_greedy_plr(xs, ys, gamma=0.5)
        assert len(pieces) == 1
        for x, y in zip(xs, ys):
            assert abs(pieces[0].predict(x) - y) <= 1

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_greedy_plr([1, 2], [1])

    def test_rejects_unsorted_keys(self):
        with pytest.raises(ValueError):
            fit_greedy_plr([2, 1], [1, 2])

    def test_larger_gamma_fewer_pieces(self):
        xs = list(range(60))
        ys = [x + (3 if x % 7 == 0 else 0) for x in xs]
        tight = fit_greedy_plr(xs, ys, gamma=0.5)
        loose = fit_greedy_plr(xs, ys, gamma=5.0)
        assert len(loose) <= len(tight)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_error_bound_respected_on_linear_runs(self, data):
        """Piece-wise linear ground truth is recovered within the error bound."""
        num_runs = data.draw(st.integers(1, 4))
        xs: list[int] = []
        ys: list[int] = []
        x = 0
        for _ in range(num_runs):
            run_len = data.draw(st.integers(1, 20))
            base = data.draw(st.integers(0, 10_000))
            x += data.draw(st.integers(1, 5))
            for i in range(run_len):
                xs.append(x)
                ys.append(base + i)
                x += 1
        pieces = fit_greedy_plr(xs, ys, gamma=0.5)
        for x_val, y_val in zip(xs, ys):
            piece = next(p for p in pieces if p.covers(x_val) or p.x_start <= x_val)
            # Find the piece actually covering x (last piece whose start <= x).
            owner = None
            for candidate in pieces:
                if candidate.x_start <= x_val:
                    owner = candidate
            assert owner is not None
            assert abs(owner.predict(x_val) - y_val) <= 1

    @given(
        xs_ys=st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 10_000)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pieces_cover_all_keys(self, xs_ys):
        unique = sorted({x for x, _ in xs_ys})
        mapping = dict(xs_ys)
        xs = unique
        ys = [mapping[x] for x in xs]
        pieces = fit_greedy_plr(xs, ys, gamma=2.0)
        assert pieces[0].x_start == xs[0]
        # Every key is >= the start of some piece (the lookup rule used by the models).
        for x in xs:
            assert any(p.x_start <= x for p in pieces)


class TestFixedPieces:
    def test_within_budget_identical_to_greedy(self):
        xs = list(range(0, 10)) + list(range(20, 30))
        ys = [x + 1 for x in range(0, 10)] + [x + 90 for x in range(20, 30)]
        assert len(fit_fixed_pieces(xs, ys, max_pieces=8)) == len(fit_greedy_plr(xs, ys))

    def test_over_budget_is_clamped(self):
        xs, ys = [], []
        value = 0
        for i in range(40):
            xs.append(i)
            value += 1 + (i % 3) * 50  # highly non-linear
            ys.append(value)
        pieces = fit_fixed_pieces(xs, ys, max_pieces=4)
        assert len(pieces) <= 4

    def test_clamped_tail_still_covers_last_key(self):
        xs = list(range(0, 100, 3))
        ys = [((x * 13) % 97) * 11 for x in xs]
        pieces = fit_fixed_pieces(xs, ys, max_pieces=3)
        assert any(p.x_start <= xs[-1] for p in pieces)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            fit_fixed_pieces([1], [1], max_pieces=0)

    def test_single_piece_budget_uses_least_squares(self):
        xs = list(range(20))
        ys = [2 * x + 5 for x in xs]
        pieces = fit_fixed_pieces(xs, ys, max_pieces=1)
        assert len(pieces) == 1
        assert pieces[0].predict(10) == pytest.approx(25, abs=1)


# ---------------------------------------------------------------- the oracle
# The scalar swing filter the columnar fitter replaced, verbatim: every piece
# the fitter returns must equal the oracle's, field by field and type by type.
def _oracle_close_piece(xs, ys, start, end, slope):
    """Build a piece over points ``start..end-1`` using the given slope."""
    x0 = xs[start]
    y0 = ys[start]
    intercept = float(y0)
    max_error = 0.0
    for i in range(start, end):
        predicted = round(slope * (xs[i] - x0) + intercept)
        max_error = max(max_error, abs(predicted - ys[i]))
    return LinearPiece(
        x_start=int(x0),
        slope=slope,
        intercept=intercept,
        length=int(xs[end - 1]) - int(x0) + 1,
        max_error=max_error,
    )


def _oracle_fit_greedy_plr(xs, ys, *, gamma=0.5):
    n = len(xs)
    if n != len(ys):
        raise ValueError("xs and ys must have the same length")
    if n == 0:
        return []
    for i in range(1, n):
        if xs[i] <= xs[i - 1]:
            raise ValueError("xs must be strictly increasing")

    pieces = []
    start = 0
    lo = float("-inf")
    hi = float("inf")
    for i in range(1, n + 1):
        if i == n:
            slope = _oracle_pick_slope(lo, hi)
            pieces.append(_oracle_close_piece(xs, ys, start, n, slope))
            break
        dx = xs[i] - xs[start]
        dy_lo = (ys[i] - gamma) - ys[start]
        dy_hi = (ys[i] + gamma) - ys[start]
        new_lo = max(lo, dy_lo / dx)
        new_hi = min(hi, dy_hi / dx)
        if new_lo > new_hi:
            slope = _oracle_pick_slope(lo, hi)
            pieces.append(_oracle_close_piece(xs, ys, start, i, slope))
            start = i
            lo = float("-inf")
            hi = float("inf")
        else:
            lo, hi = new_lo, new_hi
    return pieces


def _oracle_pick_slope(lo, hi):
    if lo == float("-inf") and hi == float("inf"):
        return 1.0
    if lo == float("-inf"):
        return hi
    if hi == float("inf"):
        return lo
    if lo <= 1.0 <= hi:
        return 1.0
    return (lo + hi) / 2.0


def _oracle_fit_fixed_pieces(xs, ys, *, max_pieces, gamma=0.5):
    """The budgeted fit as it was: the whole greedy fit, then truncation."""
    if max_pieces <= 0:
        raise ValueError("max_pieces must be positive")
    pieces = _oracle_fit_greedy_plr(xs, ys, gamma=gamma)
    if len(pieces) <= max_pieces:
        return pieces
    kept = pieces[: max_pieces - 1]
    boundary_x = kept[-1].x_start + kept[-1].length if kept else xs[0]
    split = 0
    for split, x in enumerate(xs):
        if x >= boundary_x:
            break
    else:
        split = len(xs)
    tail_xs = xs[split:]
    tail_ys = ys[split:]
    if not tail_xs:
        return kept
    kept.append(plr._least_squares_piece(tail_xs, tail_ys))
    return kept


def _fields(pieces):
    """Every field of every piece, with its type (``max_error`` is ``0.0`` or an int)."""
    return [
        tuple((value, type(value)) for value in dataclasses.astuple(piece)) for piece in pieces
    ]


# ------------------------------------------------------------ input shapes
def _learnedftl_shaped(seed):
    """One GTD entry after group GC: the mapped offsets of 512 (sparse gaps)
    written to consecutive VPPNs in LPN order, so each gap shifts the slope-1
    run by one, and a few LPNs whose copy landed elsewhere."""
    rng = random.Random(seed)
    gap_rate = 0.003 if seed % 2 == 0 else 0.02
    xs = [x for x in range(512) if rng.random() > gap_rate]
    base = rng.randrange(1 << 20)
    ys = [base + rank for rank in range(len(xs))]
    for j in rng.sample(range(len(xs)), 2):
        ys[j] = rng.randrange(1 << 20)
    return xs, ys


def _leaftl_shaped(seed):
    """A LeaFTL buffer flush: about 60 LPNs in runs of 1-4 with unrelated VPPNs."""
    rng = random.Random(seed)
    xs, ys = [], []
    x = rng.randrange(100)
    while len(xs) < 60:
        base = rng.randrange(1 << 16)
        for j in range(rng.randint(1, 4)):
            xs.append(x)
            ys.append(base + j)
            x += 1
        x += rng.randint(1, 6)
    return xs, ys


def _random_ys(seed):
    rng = random.Random(seed)
    xs = sorted(rng.sample(range(5_000), 700))
    return xs, [rng.randrange(10_000) for _ in xs]


def _break_at(first_run):
    """A slope-1 run of ``first_run`` points, then a jump, then a long run."""
    xs = list(range(first_run + 600))
    ys = [x + 1000 if x < first_run else x + 9000 for x in xs]
    return xs, ys


_HEAD, _WINDOW = plr._SCALAR_HEAD, plr._MIN_WINDOW
SHAPES = {
    **{f"learnedftl-{seed}": _learnedftl_shaped(seed) for seed in range(4)},
    **{f"leaftl-{seed}": _leaftl_shaped(seed) for seed in range(4)},
    **{f"random-{seed}": _random_ys(seed) for seed in range(2)},
    # Breaks on either side of the scalar/columnar handover and of the end
    # of the first columnar window.
    **{
        f"break-at-{n}": _break_at(n)
        for n in (_HEAD - 1, _HEAD, _HEAD + 1, _HEAD + _WINDOW - 1, _HEAD + _WINDOW, _HEAD + _WINDOW + 1)
    },
}


class TestColumnarFitMatchesScalarOracle:
    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_pieces_bit_identical(self, shape, gamma):
        xs, ys = SHAPES[shape]
        assert _fields(fit_greedy_plr(xs, ys, gamma=gamma)) == _fields(
            _oracle_fit_greedy_plr(xs, ys, gamma=gamma)
        )

    def test_shapes_reach_both_steps(self):
        """The LearnedFTL shape grows pieces past the head; LeaFTL's never do."""
        longest = {
            name: max(piece.length for piece in fit_greedy_plr(*SHAPES[name]))
            for name in ("learnedftl-0", "leaftl-0")
        }
        assert longest["learnedftl-0"] > 4 * _HEAD
        assert longest["leaftl-0"] < _HEAD

    @pytest.mark.parametrize("max_pieces", [1, 2, 3, 8])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_early_stop_matches_full_fit_truncated(self, shape, max_pieces):
        xs, ys = SHAPES[shape]
        assert _fields(fit_fixed_pieces(xs, ys, max_pieces=max_pieces)) == _fields(
            _oracle_fit_fixed_pieces(xs, ys, max_pieces=max_pieces)
        )

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([1, 2], [1]),
            ([2, 1], [1, 2]),
            ([3, 3], [1, 2]),
            # Unsorted far past where the budgeted fit stops growing pieces.
            (list(range(40)) + [5], [0] * 41),
        ],
    )
    @pytest.mark.parametrize(
        "fit, oracle, kwargs",
        [
            (fit_greedy_plr, _oracle_fit_greedy_plr, {}),
            (fit_fixed_pieces, _oracle_fit_fixed_pieces, {"max_pieces": 1}),
        ],
    )
    def test_value_errors_unchanged(self, xs, ys, fit, oracle, kwargs):
        with pytest.raises(ValueError) as expected:
            oracle(xs, ys, **kwargs)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            fit(xs, ys, **kwargs)

    def test_budget_error_unchanged(self):
        for fit in (fit_fixed_pieces, _oracle_fit_fixed_pieces):
            with pytest.raises(ValueError, match="^max_pieces must be positive$"):
                fit([1], [1], max_pieces=0)

    def test_columnar_work_is_linear_in_the_input(self, monkeypatch):
        """10 000 points in pieces of 20-60: a window spans ``_MIN_WINDOW``
        points or the piece so far, whichever is more, never the rest of the
        input, so the points scanned stay a bounded multiple per piece."""
        rng = random.Random(5)
        xs, ys = [], []
        while len(xs) < 10_000:
            base = rng.randrange(1 << 30)
            for j in range(rng.randint(20, 60)):
                xs.append(len(xs))
                ys.append(base + j)
        counting = _CountingNumPy()
        monkeypatch.setattr(plr, "np", counting)
        pieces = fit_greedy_plr(xs, ys)
        assert _fields(pieces) == _fields(_oracle_fit_greedy_plr(xs, ys))
        columnar = sum(1 for piece in pieces if piece.length > _HEAD)
        assert columnar > 150
        assert counting.scanned <= 2 * len(xs) + _WINDOW * columnar
        # A window over the rest of the input would scan about n * pieces / 2.
        assert counting.scanned < len(xs) * columnar / 8


class _CountingNumPy:
    """NumPy as the fitter sees it, counting the points its windows scan."""

    def __init__(self):
        self.scanned = 0
        counter = self

        class _Maximum:
            def __call__(self, *args, **kwargs):
                return np.maximum(*args, **kwargs)

            def accumulate(self, values):
                counter.scanned += len(values)
                return np.maximum.accumulate(values)

        self.maximum = _Maximum()

    def __getattr__(self, name):
        return getattr(np, name)
