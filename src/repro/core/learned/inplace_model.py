"""LearnedFTL's in-place-update linear model (Section III-B).

One model is attached to every GTD entry.  It consists of:

* a parameter array of at most ``max_pieces`` linear pieces ``<k, b, off>``,
  where ``off`` is the offset of the piece's first LPN from the GTD entry's
  starting LPN, and
* a bitmap filter with one bit per LPN of the entry, marking whether the model
  predicts that LPN exactly.

Predictions are only ever attempted for LPNs whose bit is set, so the model
never produces a misprediction penalty — that is the core difference from
LeaFTL's approximate segments.  Writes clear the bit of the written LPN; GC and
sequential initialization retrain/replace pieces and re-evaluate the bitmap.

The memory budget follows the paper: with 8 pieces of three 2-byte fields plus
a 512-bit bitmap, one model occupies 112–128 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.learned.bitmap import Bitmap
from repro.core.learned.plr import LinearPiece, fit_fixed_pieces

__all__ = [
    "ModelPiece",
    "InPlaceLinearModel",
    "TrainingResult",
    "BIT_NOT_SET",
    "model_fleet",
    "pack_models",
    "unpack_models",
]

#: Sentinel returned by :meth:`InPlaceLinearModel.predict_exact` when the
#: LPN's bitmap bit is clear (or the LPN is outside the entry).  Distinct from
#: ``None``, which means "bit set but no piece covers the offset" — a state
#: the callers treat as a consistency violation.
BIT_NOT_SET = object()


@dataclass(frozen=True)
class ModelPiece:
    """One ``<k, b, off>`` entry of the parameter array."""

    slope: float
    intercept: float
    offset: int

    def predict(self, offset: int) -> int:
        """Predict the VPPN of the LPN at ``offset`` from the entry's start."""
        return int(round(self.slope * (offset - self.offset) + self.intercept))


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of a training pass over one GTD entry."""

    trained_points: int
    accurate_points: int
    pieces_used: int

    @property
    def accuracy(self) -> float:
        """Fraction of trained mappings the model predicts exactly."""
        if self.trained_points == 0:
            return 0.0
        return self.accurate_points / self.trained_points


class InPlaceLinearModel:
    """Piece-wise linear model with a bitmap filter for one GTD entry."""

    def __init__(
        self,
        start_lpn: int,
        span: int,
        *,
        max_pieces: int = 8,
        bits: "bytearray | memoryview | None" = None,
    ) -> None:
        """A model of the ``span`` LPNs from ``start_lpn``; its bitmap filter
        owns its bytes, or uses ``bits`` in place (a row of a fleet column,
        see :func:`model_fleet`)."""
        if span <= 0:
            raise ValueError("span must be positive")
        if max_pieces <= 0:
            raise ValueError("max_pieces must be positive")
        self.start_lpn = start_lpn
        self.span = span
        self.max_pieces = max_pieces
        self.pieces: list[ModelPiece] = []
        self.bitmap = Bitmap(span, bits)

    # ------------------------------------------------------------ inspection
    def covers(self, lpn: int) -> bool:
        """True when the LPN belongs to this model's GTD entry."""
        return self.start_lpn <= lpn < self.start_lpn + self.span

    def offset_of(self, lpn: int) -> int:
        """Offset of an LPN from the entry's starting LPN."""
        if not self.covers(lpn):
            raise ValueError(f"lpn {lpn} not covered by model starting at {self.start_lpn}")
        return lpn - self.start_lpn

    def can_predict(self, lpn: int) -> bool:
        """Bitmap-filter check: is the prediction for this LPN known-exact?"""
        return self.covers(lpn) and self.bitmap.test(self.offset_of(lpn))

    def trained_length(self) -> int:
        """Number of LPNs the model currently predicts exactly (``L_old``)."""
        return self.bitmap.count()

    def memory_bytes(self) -> int:
        """DRAM bytes: 3 x 2 B per piece slot plus the bitmap."""
        return self.max_pieces * 6 + self.bitmap.memory_bytes()

    # ------------------------------------------------------------ prediction
    def predict(self, lpn: int) -> int | None:
        """Predict the VPPN of an LPN, or ``None`` if its bit is not set."""
        if not self.can_predict(lpn):
            return None
        offset = self.offset_of(lpn)
        piece = self._piece_for(offset)
        if piece is None:
            return None
        return piece.predict(offset)

    def _piece_for(self, offset: int) -> ModelPiece | None:
        chosen: ModelPiece | None = None
        for piece in self.pieces:
            if piece.offset <= offset:
                chosen = piece
            else:
                break
        return chosen

    def predict_exact(self, lpn: int):
        """Fused :meth:`can_predict` + :meth:`predict` for the read hot path.

        Returns the predicted VPPN when the LPN's bitmap bit is set,
        :data:`BIT_NOT_SET` when it is clear (or the LPN is outside the
        entry), and ``None`` when the bit is set but no piece covers the
        offset — the same three cases the unfused pair distinguishes, in one
        call and without re-validating the offset at every layer.

        NOTE: this inlines :meth:`Bitmap.test`'s byte/bit layout and
        :class:`ModelPiece.predict`'s arithmetic — a change to either must be
        mirrored here (``tests/test_inplace_model.py`` pins the fused/unfused
        parity over randomized models).
        """
        offset = lpn - self.start_lpn
        if not 0 <= offset < self.span:
            return BIT_NOT_SET
        bitmap = self.bitmap
        if not bitmap._bits[offset >> 3] & (1 << (offset & 7)):
            return BIT_NOT_SET
        chosen: ModelPiece | None = None
        for piece in self.pieces:
            if piece.offset <= offset:
                chosen = piece
            else:
                break
        if chosen is None:
            return None
        return int(round(chosen.slope * (offset - chosen.offset) + chosen.intercept))

    # -------------------------------------------------------------- updates
    def invalidate(self, lpn: int) -> None:
        """Clear the bitmap bit of an overwritten LPN (consistency on writes)."""
        if self.covers(lpn):
            self.bitmap.clear(self.offset_of(lpn))

    def train(
        self,
        lpns: "Sequence[int] | np.ndarray",
        vppns: "Sequence[int] | np.ndarray",
        *,
        verifier: Callable[[int], int | None] | None = None,
    ) -> TrainingResult:
        """Fit the parameter array over sorted ``(LPN, VPPN)`` columns and rebuild the bitmap.

        ``verifier`` maps an LPN to its authoritative VPPN; when provided, bits
        are set only where the fitted model matches the verifier, which is how
        the paper's step 4 ("evaluate the model") works.  When omitted, the
        supplied ``vppns`` are treated as authoritative.

        The fit is :func:`fit_fixed_pieces`; the evaluation is columnar: every
        point finds its piece by ``searchsorted`` over the piece offsets and is
        predicted with :meth:`ModelPiece.predict`'s arithmetic (``np.rint``
        rounds half to even, like ``round``).
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        vppns = np.asarray(vppns, dtype=np.int64)
        if lpns.shape != vppns.shape or lpns.ndim != 1:
            raise ValueError("lpns and vppns must have the same length")
        self.pieces = []
        self.bitmap.clear_all()
        if lpns.size == 0:
            return TrainingResult(0, 0, 0)
        offsets = lpns - self.start_lpn
        outside = (offsets < 0) | (offsets >= self.span)
        if outside.any():
            self.offset_of(int(lpns[np.argmax(outside)]))
        fitted = fit_fixed_pieces(offsets.tolist(), vppns.tolist(), max_pieces=self.max_pieces)
        self.pieces = [_to_model_piece(piece) for piece in fitted]
        piece_offsets = np.array([piece.offset for piece in self.pieces], dtype=np.int64)
        slopes = np.array([piece.slope for piece in self.pieces])
        intercepts = np.array([piece.intercept for piece in self.pieces])
        # _piece_for: the last piece starting at or before the offset.
        chosen = np.searchsorted(piece_offsets, offsets, side="right") - 1
        predicted = np.rint(slopes[chosen] * (offsets - piece_offsets[chosen]) + intercepts[chosen])
        if verifier is None:
            exact = predicted == vppns
        else:
            # An LPN the verifier does not know answers None, which equals no prediction.
            exact = np.array(
                [verifier(lpn) == value for lpn, value in zip(lpns.tolist(), predicted.tolist())],
                dtype=bool,
            )
        exact &= chosen >= 0
        flags = np.zeros(self.span, dtype=bool)
        flags[offsets[exact]] = True
        self.bitmap.assign(flags)
        return TrainingResult(
            trained_points=int(lpns.size),
            accurate_points=int(np.count_nonzero(exact)),
            pieces_used=len(self.pieces),
        )

    def sequential_update(self, lpns: Sequence[int], vppns: Sequence[int]) -> bool:
        """Sequential initialization (Section III-E1).

        The request's mappings form a ``y = x + b`` run.  If the run is longer
        than the model's current trained length (``L_old``, the bitmap
        popcount), the whole model is replaced in place by a single piece
        covering the run and the bitmap is rebuilt for it.  Returns ``True``
        when the model was replaced.
        """
        count = len(lpns)
        if count < 2 or count != len(vppns):
            return False
        # Both columns must step by exactly one (compared as whole lists).
        if list(lpns) != list(range(lpns[0], lpns[0] + count)) or list(vppns) != list(
            range(vppns[0], vppns[0] + count)
        ):
            return False
        if count <= self.trained_length():
            return False
        first_offset = self.offset_of(lpns[0])
        last_offset = self.offset_of(lpns[-1])
        self.pieces = [ModelPiece(slope=1.0, intercept=float(vppns[0]), offset=first_offset)]
        flags = np.zeros(self.span, dtype=bool)
        flags[first_offset : last_offset + 1] = True
        self.bitmap.assign(flags)
        return True


def _to_model_piece(piece: LinearPiece) -> ModelPiece:
    return ModelPiece(slope=piece.slope, intercept=piece.intercept, offset=piece.x_start)


# ------------------------------------------------------------- model fleets
def model_fleet(
    count: int, span: int, *, max_pieces: int = 8
) -> tuple[bytearray, list[InPlaceLinearModel]]:
    """``count`` models of consecutive ``span``-LPN entries over one bit column.

    Returns ``(column, models)``: model ``t`` covers LPNs ``t * span`` up to
    ``(t + 1) * span`` and its bitmap is a ``memoryview`` of row ``t`` of
    ``column`` (``(span + 7) // 8`` bytes a row).  When ``span`` is a multiple
    of 8 the bit of LPN ``l`` is therefore bit ``l & 7`` of byte ``l >> 3``,
    which lets a reader test a whole run of LPNs in one NumPy gather.  Every
    bitmap update writes its row in place, so the column always holds the
    fleet's bits.
    """
    row = (span + 7) // 8
    column = bytearray(count * row)
    view = memoryview(column)
    models = [
        InPlaceLinearModel(
            start_lpn=index * span,
            span=span,
            max_pieces=max_pieces,
            bits=view[index * row : (index + 1) * row],
        )
        for index in range(count)
    ]
    return column, models


# --------------------------------------------------------- snapshot support
def pack_models(models: Sequence[InPlaceLinearModel], column: bytearray) -> dict[str, Any]:
    """Serialize a :func:`model_fleet` into flat NumPy columns.

    The bitmaps are one copy of the fleet's bit column (row ``t`` is model
    ``t``'s bitmap); the ragged piece arrays are flattened with a per-model
    count column.  At the paper's full geometry this packs ~16k models into
    five buffers instead of 16k objects.
    """
    piece_counts = np.fromiter(
        (len(model.pieces) for model in models), dtype=np.int64, count=len(models)
    )
    total = int(piece_counts.sum())
    slopes = np.empty(total, dtype=np.float64)
    intercepts = np.empty(total, dtype=np.float64)
    offsets = np.empty(total, dtype=np.int64)
    index = 0
    for model in models:
        for piece in model.pieces:
            slopes[index] = piece.slope
            intercepts[index] = piece.intercept
            offsets[index] = piece.offset
            index += 1
    return {
        "piece_counts": piece_counts,
        "slopes": slopes,
        "intercepts": intercepts,
        "offsets": offsets,
        "bitmaps": np.frombuffer(bytes(column), dtype=np.uint8),
    }


def unpack_models(
    models: Sequence[InPlaceLinearModel], column: bytearray, state: dict[str, Any]
) -> None:
    """Restore a :func:`model_fleet` **in place** from :func:`pack_models` output.

    The bit column is overwritten in one copy, so every bitmap stays a view
    of it.
    """
    piece_counts = state["piece_counts"].tolist()
    if len(piece_counts) != len(models):
        raise ValueError(
            f"snapshot holds {len(piece_counts)} models, device has {len(models)}"
        )
    slopes = state["slopes"].tolist()
    intercepts = state["intercepts"].tolist()
    offsets = state["offsets"].tolist()
    bits = np.asarray(state["bitmaps"], dtype=np.uint8)
    if bits.size != len(column):
        raise ValueError("snapshot bitmap buffer does not match the model fleet")
    column[:] = bits.tobytes()
    # The fleet's popcounts in one pass: set bits per row.
    popcounts = np.unpackbits(bits).reshape(len(models), -1).sum(axis=1, dtype=np.int64)
    index = 0
    for model, count, popcount in zip(models, piece_counts, popcounts.tolist()):
        model.pieces = [
            ModelPiece(slope=slopes[i], intercept=intercepts[i], offset=offsets[i])
            for i in range(index, index + count)
        ]
        index += count
        model.bitmap._popcount = popcount
