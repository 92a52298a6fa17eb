"""LeaFTL-style learned segments and the log-structured segment table (LSMT).

A learned segment is the four-tuple ``[S, K, L, I]`` from Section II-C of the
paper: it models ``PPN = K * (LPN - S) + I`` for ``LPN in [S, S + L)``.  A
segment is *accurate* when every mapping it was trained on is predicted exactly
after rounding; otherwise it is *approximate* and carries its maximum error so
that the error interval can be stored in the mispredicted page's OOB area.

Segments cannot be updated in place, so LeaFTL keeps them in a per-translation-
page **log-structured mapping table**: new segments are inserted into level 0,
and any older overlapping segment is pushed one level down.  Lookups scan the
levels newest-first.

Every level holds pairwise disjoint segments sorted by ``start_lpn`` (so their
ends are sorted too), with the start LPNs mirrored in a parallel sorted list.
That invariant is what makes the table logarithmic: the residents a segment
overlaps are one contiguous slice found by two bisects, and the only resident
that can cover an LPN is the one a single bisect lands on (costs per operation
are on :class:`LogStructuredSegmentTable`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.learned.plr import LinearPiece, fit_greedy_plr

__all__ = [
    "LearnedSegment",
    "LogStructuredSegmentTable",
    "build_segments",
    "pack_tables",
    "unpack_tables",
]

#: DRAM bytes consumed by one learned segment (S, K, L, I at 4 bytes each),
#: matching LeaFTL's compact encoding.
SEGMENT_BYTES = 16


@dataclass(frozen=True)
class LearnedSegment:
    """One LeaFTL learned segment ``[S, K, L, I]``."""

    start_lpn: int
    slope: float
    length: int
    intercept: float
    max_error: float = 0.0

    @property
    def is_accurate(self) -> bool:
        """True when the segment predicted every training mapping exactly."""
        return self.max_error < 0.5

    @property
    def end_lpn(self) -> int:
        """One past the last LPN covered by this segment."""
        return self.start_lpn + self.length

    def covers(self, lpn: int) -> bool:
        """True if the LPN falls inside the segment's key range."""
        return self.start_lpn <= lpn < self.end_lpn

    def predict(self, lpn: int) -> int:
        """Predict the (virtual) PPN of an LPN inside the segment."""
        return int(round(self.slope * (lpn - self.start_lpn) + self.intercept))

    def overlaps(self, other: "LearnedSegment") -> bool:
        """True when the two segments' LPN ranges intersect."""
        return self.start_lpn < other.end_lpn and other.start_lpn < self.end_lpn

    def memory_bytes(self) -> int:
        """Bytes of DRAM consumed by this segment."""
        return SEGMENT_BYTES

    @classmethod
    def from_piece(cls, piece: LinearPiece) -> "LearnedSegment":
        """Convert a fitted :class:`LinearPiece` into a learned segment."""
        return cls(
            start_lpn=piece.x_start,
            slope=piece.slope,
            length=piece.length,
            intercept=piece.intercept,
            max_error=piece.max_error,
        )


def build_segments(
    lpns: Sequence[int], vppns: Sequence[int], *, gamma: float = 0.5
) -> list[LearnedSegment]:
    """Train learned segments over sorted ``(LPN, VPPN)`` mappings.

    ``gamma`` is LeaFTL's error bound; larger values produce fewer, longer, but
    approximate segments (more mispredictions corrected via OOB error
    intervals).
    """
    pieces = fit_greedy_plr(lpns, vppns, gamma=gamma)
    return [LearnedSegment.from_piece(piece) for piece in pieces]


class LogStructuredSegmentTable:
    """The per-translation-page log-structured segment store of LeaFTL.

    Levels are lists of non-overlapping segments kept sorted by ``start_lpn``;
    ``_starts[i]`` is the sorted list of ``start_lpn`` of ``_levels[i]`` and
    every mutation keeps the two in step.  Inserting a segment into level 0
    demotes the overlapping resident segments to the next level (and so on
    down), mirroring the LSM-tree flavoured design in the paper.  Lookup
    returns the newest segment covering an LPN.

    Costs, for ``S`` stored segments (segments span at least one LPN):

    * :meth:`insert` — ``O(log S + displaced)``: two bisects per level touched
      find the overlapped residents as one slice, one splice replaces them;
    * :meth:`lookup` — ``O(levels * log S)``: one bisect per level;
    * :meth:`compact` — ``O(S log S)``: one bisect and one comparison decide
      whether a segment is shadowed, one splice records a survivor.
    """

    def __init__(self) -> None:
        self._levels: list[list[LearnedSegment]] = []
        self._starts: list[list[int]] = []

    # ------------------------------------------------------------- mutation
    def insert(self, segment: LearnedSegment) -> None:
        """Insert one segment at the top level, demoting overlapping ones."""
        # ``incoming`` is what enters the current level: the new segment at
        # level 0, then the residents the level above just gave up.  Those all
        # came out of one level, so they are sorted, mutually disjoint and
        # cannot displace one another; a whole level's demotions can therefore
        # be placed before the next level is looked at.
        incoming = [segment]
        for level, starts in zip(self._levels, self._starts):
            displaced: list[LearnedSegment] = []
            for entering in incoming:
                start = entering.start_lpn
                # Residents are disjoint, so only the last one starting at or
                # before ``start`` can reach into the new range from the left.
                lo = bisect_right(starts, start)
                if lo:
                    left = level[lo - 1]
                    if left.start_lpn + left.length > start:
                        lo -= 1
                hi = bisect_left(starts, start + entering.length, lo)
                displaced += level[lo:hi]
                level[lo:hi] = [entering]
                starts[lo:hi] = [start]
            if not displaced:
                return
            incoming = displaced
        self._levels.append(incoming)
        self._starts.append([entering.start_lpn for entering in incoming])

    def insert_many(self, segments: Iterable[LearnedSegment]) -> None:
        """Insert several segments (e.g. one flush of the training buffer)."""
        for segment in segments:
            self.insert(segment)

    def compact(self) -> int:
        """Drop segments that are fully shadowed by newer levels.

        Returns the number of segments removed.  A segment is shadowed when
        every LPN it covers is covered by some segment in a shallower level.
        This keeps the table's memory footprint bounded in long runs.

        The LPNs covered so far are carried as one *merged* interval list:
        sorted, disjoint, touching intervals joined (LPNs are integers, so a
        segment spanning ``[a, b)`` and ``[b, c)`` is shadowed).  Merged, a
        range can only be shadowed by the single interval holding its first
        LPN, which one bisect finds; a list of the earlier segments' own
        ranges would have to be subtracted one by one for every candidate.
        """
        # The interval list flattened to its boundaries [s0, e0, s1, e1, ...],
        # strictly increasing.  An even number of boundaries at or below a
        # point puts it in a gap; an odd number puts it inside the interval
        # that ends at the next boundary.
        bounds: list[int] = []
        levels: list[list[LearnedSegment]] = []
        removed = 0
        for level in self._levels:
            surviving: list[LearnedSegment] = []
            for segment in level:
                start = segment.start_lpn
                end = start + segment.length
                inside = bisect_right(bounds, start)
                if inside & 1 and bounds[inside] >= end:
                    removed += 1
                    continue
                surviving.append(segment)
                # Swallow every boundary within [start, end] (touching ones
                # included); the range's own ends stay only where they fall
                # in a gap.
                lo = bisect_left(bounds, start)
                hi = bisect_right(bounds, end)
                bounds[lo:hi] = ([] if lo & 1 else [start]) + ([] if hi & 1 else [end])
            if surviving:
                levels.append(surviving)
        self._levels = levels
        self._starts = [[segment.start_lpn for segment in level] for level in levels]
        return removed

    # --------------------------------------------------------------- lookup
    def lookup(self, lpn: int) -> LearnedSegment | None:
        """Return the newest segment covering the LPN, or ``None``."""
        for level, starts in zip(self._levels, self._starts):
            index = bisect_right(starts, lpn)
            if index:
                segment = level[index - 1]
                if lpn < segment.start_lpn + segment.length:
                    return segment
        return None

    # ------------------------------------------------------------ accounting
    @property
    def num_levels(self) -> int:
        """Number of levels currently in use."""
        return len(self._levels)

    def segments(self) -> list[LearnedSegment]:
        """All segments, newest level first."""
        return [segment for level in self._levels for segment in level]

    def segment_count(self) -> int:
        """Total number of stored segments."""
        return sum(len(level) for level in self._levels)

    def memory_bytes(self) -> int:
        """DRAM bytes consumed when the whole table is held in memory."""
        return self.segment_count() * SEGMENT_BYTES


# --------------------------------------------------------- snapshot support
def pack_tables(tables: Mapping[int, LogStructuredSegmentTable]) -> dict[str, Any]:
    """Serialize per-translation-page segment tables into flat NumPy columns.

    The ragged (table -> level -> segment) structure flattens into a level
    count per table, a segment count per level, and five parallel segment
    field columns — compact enough to snapshot a long LeaFTL run.
    """
    tvpns: list[int] = []
    level_counts: list[int] = []
    segment_counts: list[int] = []
    starts: list[int] = []
    slopes: list[float] = []
    lengths: list[int] = []
    intercepts: list[float] = []
    errors: list[float] = []
    for tvpn, table in tables.items():
        tvpns.append(tvpn)
        level_counts.append(len(table._levels))
        for level in table._levels:
            segment_counts.append(len(level))
            for segment in level:
                starts.append(segment.start_lpn)
                slopes.append(segment.slope)
                lengths.append(segment.length)
                intercepts.append(segment.intercept)
                errors.append(segment.max_error)
    return {
        "tvpns": np.asarray(tvpns, dtype=np.int64),
        "level_counts": np.asarray(level_counts, dtype=np.int64),
        "segment_counts": np.asarray(segment_counts, dtype=np.int64),
        "starts": np.asarray(starts, dtype=np.int64),
        "slopes": np.asarray(slopes, dtype=np.float64),
        "lengths": np.asarray(lengths, dtype=np.int64),
        "intercepts": np.asarray(intercepts, dtype=np.float64),
        "errors": np.asarray(errors, dtype=np.float64),
    }


def unpack_tables(state: dict[str, Any]) -> dict[int, LogStructuredSegmentTable]:
    """Rebuild the ``tvpn -> LogStructuredSegmentTable`` mapping from :func:`pack_tables`."""
    tables: dict[int, LogStructuredSegmentTable] = {}
    level_cursor = 0
    segment_cursor = 0
    segment_counts = state["segment_counts"].tolist()
    starts = state["starts"].tolist()
    slopes = state["slopes"].tolist()
    lengths = state["lengths"].tolist()
    intercepts = state["intercepts"].tolist()
    errors = state["errors"].tolist()
    for tvpn, num_levels in zip(state["tvpns"].tolist(), state["level_counts"].tolist()):
        table = LogStructuredSegmentTable()
        for _ in range(num_levels):
            count = segment_counts[level_cursor]
            level_cursor += 1
            table._levels.append(
                [
                    LearnedSegment(
                        start_lpn=starts[i],
                        slope=slopes[i],
                        length=lengths[i],
                        intercept=intercepts[i],
                        max_error=errors[i],
                    )
                    for i in range(segment_cursor, segment_cursor + count)
                ]
            )
            table._starts.append(starts[segment_cursor : segment_cursor + count])
            segment_cursor += count
        tables[tvpn] = table
    return tables

