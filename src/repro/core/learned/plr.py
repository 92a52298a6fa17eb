"""Greedy piece-wise linear regression (PLR).

Both learned-index FTLs in this repository fit *piece-wise linear* models over
sorted ``(key, position)`` pairs — here ``(LPN, VPPN)`` pairs:

* LeaFTL fits segments with an error bound ``gamma`` and stores the bound so a
  misprediction can be corrected by probing the error interval (Section II-C);
* LearnedFTL fits at most ``max_pieces`` segments per GTD entry and relies on a
  bitmap filter to mark exactly which LPNs the pieces predict correctly
  (Section III-B).

The fitting algorithm is the classic one-pass greedy "swing filter" used by
learned-index papers: a segment is grown while there still exists a line,
anchored at the segment's first point, whose predictions stay within ``gamma``
of every point added so far.  Predictions are rounded to the nearest integer
(PPNs are integers), so ``gamma = 0.5`` yields segments that are exact after
rounding whenever the data really is piece-wise linear.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

__all__ = ["LinearPiece", "fit_greedy_plr", "fit_fixed_pieces"]


@dataclass(frozen=True)
class LinearPiece:
    """One linear segment ``y = slope * (x - x_start) + intercept``.

    ``x_start`` is the key of the first point covered by the piece and
    ``length`` the number of points it was fitted over.  ``max_error`` is the
    largest absolute rounding error observed over those points.
    """

    x_start: int
    slope: float
    intercept: float
    length: int
    max_error: float

    def predict(self, x: int) -> int:
        """Predict the integer position of key ``x``."""
        return int(round(self.slope * (x - self.x_start) + self.intercept))

    def covers(self, x: int) -> bool:
        """True if ``x`` falls inside the key range the piece was fitted over."""
        return self.x_start <= x < self.x_start + self.length


#: Points a piece grows through the scalar swing-filter step before the rest
#: of the input is tested in NumPy windows.  LeaFTL's pieces are mostly 1-4
#: points long and never leave this head; LearnedFTL's slope-1 runs do.
_SCALAR_HEAD = 16
#: Smallest columnar window; a window also spans at least the piece so far,
#: so a piece of length L costs O(L) NumPy work however it is cut.
_MIN_WINDOW = 512


def _close_piece(
    xs: Sequence[int],
    ys: Sequence[int],
    start: int,
    end: int,
    slope: float,
    columns: tuple[np.ndarray, np.ndarray] | None = None,
) -> LinearPiece:
    """Build a piece over points ``start..end-1`` using the given slope.

    With ``columns`` (``xs``/``ys`` as int64 arrays) the error is taken in one
    NumPy pass; ``np.rint`` rounds half to even like ``round``, and the error
    keeps the scalar loop's type (``0.0`` when exact, else an ``int``).
    """
    x0 = xs[start]
    y0 = ys[start]
    intercept = float(y0)
    if columns is None:
        max_error = 0.0
        for i in range(start, end):
            predicted = round(slope * (xs[i] - x0) + intercept)
            max_error = max(max_error, abs(predicted - ys[i]))
    else:
        cx, cy = columns
        predicted = np.rint(slope * (cx[start:end] - x0) + intercept)
        worst = int(np.abs(predicted - cy[start:end]).max())
        max_error = worst if worst else 0.0
    return LinearPiece(
        x_start=int(x0),
        slope=slope,
        intercept=intercept,
        length=int(xs[end - 1]) - int(x0) + 1,
        max_error=max_error,
    )


def fit_greedy_plr(
    xs: Sequence[int], ys: Sequence[int], *, gamma: float = 0.5
) -> list[LinearPiece]:
    """Fit greedy PLR segments over sorted keys ``xs`` with positions ``ys``.

    Every returned piece satisfies ``|round(predict(x)) - y| <= gamma + 0.5``
    for the points it covers (exactly ``<= gamma`` before rounding, anchored at
    the first point of the piece).

    Parameters
    ----------
    xs, ys:
        Parallel sequences; ``xs`` must be strictly increasing.
    gamma:
        Error bound.  ``0.5`` produces round-to-exact pieces for genuinely
        linear runs.
    """
    return list(_greedy_pieces(xs, ys, gamma))


def _greedy_pieces(xs: Sequence[int], ys: Sequence[int], gamma: float) -> Iterator[LinearPiece]:
    """The greedy swing filter, yielding each piece as soon as it closes.

    A piece is grown point by point for its first :data:`_SCALAR_HEAD`
    points.  A piece that survives the head is grown over NumPy windows: the
    running feasible slope interval is ``np.maximum.accumulate`` /
    ``np.minimum.accumulate`` of the per-point bounds seeded with the head's
    ``lo``/``hi``, and the piece breaks at the first point where ``lo > hi``.
    Both steps evaluate the same float expressions, so the pieces are
    bit-identical whichever step grew them.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError("xs and ys must have the same length")
    if n == 0:
        return
    if not all(map(operator.lt, xs, islice(xs, 1, None))):
        raise ValueError("xs must be strictly increasing")
    # xs and ys as int64 arrays, built when the first piece outgrows the head.
    columns: tuple[np.ndarray, np.ndarray] | None = None
    start = 0
    while start < n:
        x0 = xs[start]
        y0 = ys[start]
        lo = float("-inf")
        hi = float("inf")
        i = start + 1
        head_end = min(n, start + _SCALAR_HEAD)
        while i < head_end:
            dx = xs[i] - x0
            new_lo = max(lo, ((ys[i] - gamma) - y0) / dx)
            new_hi = min(hi, ((ys[i] + gamma) - y0) / dx)
            if new_lo > new_hi:
                break
            lo, hi = new_lo, new_hi
            i += 1
        else:
            # The piece outlived the head: extend it a window at a time.
            if i < n and columns is None:
                columns = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
            while i < n:
                cx, cy = columns
                stop = min(n, i + max(_MIN_WINDOW, i - start))
                dx = cx[i:stop] - x0
                lows = np.maximum.accumulate(((cy[i:stop] - gamma) - y0) / dx)
                highs = np.minimum.accumulate(((cy[i:stop] + gamma) - y0) / dx)
                np.maximum(lows, lo, out=lows)
                np.minimum(highs, hi, out=highs)
                crossed = lows > highs
                if crossed.any():
                    k = int(crossed.argmax())
                    if k:
                        lo, hi = float(lows[k - 1]), float(highs[k - 1])
                    i += k
                    break
                lo, hi = float(lows[-1]), float(highs[-1])
                i = stop
        long_piece = columns if i - start > _SCALAR_HEAD else None
        yield _close_piece(xs, ys, start, i, _pick_slope(lo, hi), long_piece)
        start = i


def _pick_slope(lo: float, hi: float) -> float:
    """Choose a representative slope from the feasible interval."""
    if lo == float("-inf") and hi == float("inf"):
        return 1.0  # single-point piece; slope is irrelevant
    if lo == float("-inf"):
        return hi
    if hi == float("inf"):
        return lo
    # Prefer a slope of exactly 1.0 when feasible: LPN->VPPN runs written by
    # the striping allocators are y = x + b, and an exact slope avoids float
    # rounding artifacts over long segments.
    if lo <= 1.0 <= hi:
        return 1.0
    return (lo + hi) / 2.0


def fit_fixed_pieces(
    xs: Sequence[int],
    ys: Sequence[int],
    *,
    max_pieces: int,
    gamma: float = 0.5,
) -> list[LinearPiece]:
    """Fit at most ``max_pieces`` segments (LearnedFTL's per-GTD-entry budget).

    The first ``max_pieces - 1`` segments come from the greedy PLR; if more
    would be needed, all remaining points are folded into one final
    least-squares segment (whose mispredicted LPNs the bitmap filter will mark
    as inaccurate).
    """
    if max_pieces <= 0:
        raise ValueError("max_pieces must be positive")
    # One piece past the budget tells whether the greedy fit overflows it.
    pieces = list(islice(_greedy_pieces(xs, ys, gamma), max_pieces + 1))
    if len(pieces) <= max_pieces:
        return pieces
    # Count how many points the first max_pieces - 1 greedy segments cover.
    kept = pieces[: max_pieces - 1]
    boundary_x = kept[-1].x_start + kept[-1].length if kept else xs[0]
    split = bisect_left(xs, boundary_x)
    tail_xs = xs[split:]
    tail_ys = ys[split:]
    if not tail_xs:
        return kept
    kept.append(_least_squares_piece(tail_xs, tail_ys))
    return kept


def _least_squares_piece(xs: Sequence[int], ys: Sequence[int]) -> LinearPiece:
    """Fit a single least-squares line over the given points."""
    n = len(xs)
    x0 = xs[0]
    if n == 1:
        return LinearPiece(x_start=int(x0), slope=1.0, intercept=float(ys[0]), length=1, max_error=0.0)
    rel = [x - x0 for x in xs]
    mean_x = sum(rel) / n
    mean_y = sum(ys) / n
    var = sum((r - mean_x) ** 2 for r in rel)
    if var == 0:
        slope = 1.0
    else:
        slope = sum((r - mean_x) * (y - mean_y) for r, y in zip(rel, ys)) / var
    intercept = mean_y - slope * mean_x
    max_error = 0.0
    for r, y in zip(rel, ys):
        predicted = round(slope * r + intercept)
        max_error = max(max_error, abs(predicted - y))
    return LinearPiece(
        x_start=int(x0),
        slope=slope,
        intercept=intercept,
        length=int(xs[-1]) - int(x0) + 1,
        max_error=max_error,
    )
