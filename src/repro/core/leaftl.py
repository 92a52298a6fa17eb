"""LeaFTL: a purely learned-index FTL (the paper's main learned baseline).

Reference: Sun et al., "LeaFTL: A Learning-based Flash Translation Layer for
Solid-State Drives" (ASPLOS'23), as re-implemented by the LearnedFTL authors
inside FEMU (Section IV-A): the write path follows TPFTL's dynamic allocation,
the virtual-PPN representation is used to obtain trainable mappings, and the
mapping cache is replaced by a *model cache* over learned segments.

Behavioural properties reproduced here (Sections II-C and II-D):

* mappings of recent writes live in a bounded data/model buffer; when it fills,
  the mappings are sorted by LPN, greedy-PLR segments are trained per
  translation page and flushed into a per-translation-page log-structured
  segment table (LSMT);
* the model cache holds the segments of the most recently used translation
  pages within the same DRAM budget as the other FTLs' CMT;
* an *accurate* segment hit resolves a read with a single flash read; an
  *approximate* segment may mispredict, which costs an extra probe read of the
  mispredicted page (its OOB holds the error interval) — a double read; a model
  cache miss adds a translation read on top, making mispredictions **triple
  reads** (Figure 5).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import FTLConfig, StripingFTLBase
from repro.core.learned.segment import (
    LearnedSegment,
    LogStructuredSegmentTable,
    build_segments,
    pack_tables,
    unpack_tables,
)
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.ssd.request import HostRequest, ReadOutcome
from repro.ssd.stats import SimulationStats

__all__ = ["LeaFTL"]

_OUT_BUFFER_HIT = ReadOutcome.BUFFER_HIT.code
_OUT_MODEL_HIT = ReadOutcome.MODEL_HIT.code
_OUT_DOUBLE_READ = ReadOutcome.DOUBLE_READ.code
_OUT_TRIPLE_READ = ReadOutcome.TRIPLE_READ.code


class LeaFTL(StripingFTLBase):
    """Learned-segment FTL with a model cache and log-structured segment tables."""

    name = "leaftl"
    description = "LeaFTL: learned segments + LSMT + model cache (no CMT)."

    def __init__(
        self,
        geometry: SSDGeometry,
        *,
        timing: TimingModel | None = None,
        config: FTLConfig | None = None,
        stats: SimulationStats | None = None,
    ) -> None:
        super().__init__(geometry, timing=timing, config=config, stats=stats)
        self._tables: dict[int, LogStructuredSegmentTable] = {}
        self._buffer: dict[int, int] = {}
        # The paper-default 2048-page buffer would swallow an entire tiny test
        # device, so cap it at a fraction of the logical space.
        self._buffer_capacity = max(
            8, min(self.config.leaftl_buffer_pages, geometry.num_logical_pages // 8)
        )
        self._model_cache: OrderedDict[int, int] = OrderedDict()  # tvpn -> cached bytes
        self._cache_capacity_bytes = self.config.cmt_entries(geometry) * 8
        self._cache_bytes = 0

    # ------------------------------------------------------------------ read
    def read(self, request: HostRequest, now: float) -> None:
        buffer = self.buffer
        translation_stage = buffer.new_stage()
        probe_stage = buffer.new_stage()
        data_stage = buffer.new_stage()
        lookup = self._lookup
        add_outcome = buffer.outcome_codes.append
        for lpn in request.lpns():
            outcome_code, data_ppn = lookup(lpn, translation_stage, probe_stage)
            add_outcome(outcome_code)
            if data_ppn is not None:
                self.data_read_command(data_stage, data_ppn)
        buffer.commit_stage(translation_stage)
        buffer.commit_stage(probe_stage)
        buffer.commit_stage(data_stage)

    def _lookup(self, lpn: int, translation_stage: list, probe_stage: list) -> tuple[int, int | None]:
        """Resolve one LPN, appending translation/probe reads to their stages.

        Returns ``(outcome_code, data_ppn)``.
        """
        self.stats.cmt_lookups += 1
        buffered = self._buffer.get(lpn)
        if buffered is not None:
            self.stats.cmt_hits += 1
            return _OUT_BUFFER_HIT, buffered
        actual = self.directory.lookup(lpn)
        if actual is None:
            return _OUT_BUFFER_HIT, None
        tvpn = self.directory.tvpn_of(lpn)
        cache_hit = tvpn in self._model_cache
        fetched_translation = False
        if cache_hit:
            self.stats.cmt_hits += 1
            self._model_cache.move_to_end(tvpn)
        else:
            fetched_translation = self.translation_store.read_into(
                self.buffer, translation_stage, tvpn
            )
            self._admit_to_cache(tvpn)
        segment = self._segment_for(tvpn, lpn)
        self.stats.model_lookups += 1
        predicted_ppn = self._predict_ppn(segment, lpn)
        correct = predicted_ppn == actual
        if correct:
            self.stats.model_hits += 1
        if not correct and predicted_ppn is not None:
            self.probe_read_command(probe_stage, predicted_ppn)
        if correct and cache_hit:
            outcome = _OUT_MODEL_HIT
        elif correct or (cache_hit and not correct):
            outcome = _OUT_DOUBLE_READ
        else:
            outcome = _OUT_TRIPLE_READ
        if not correct and predicted_ppn is None and fetched_translation:
            # No segment covered the LPN at all: the translation read plus the
            # data read is an ordinary double read.
            outcome = _OUT_DOUBLE_READ
        return outcome, actual

    def _segment_for(self, tvpn: int, lpn: int) -> LearnedSegment | None:
        table = self._tables.get(tvpn)
        if table is None:
            return None
        return table.lookup(lpn)

    def _predict_ppn(self, segment: LearnedSegment | None, lpn: int) -> int | None:
        if segment is None:
            return None
        vppn = segment.predict(lpn)
        vppn = max(0, min(self.geometry.num_physical_pages - 1, vppn))
        return self.codec.vppn_to_ppn(vppn)

    # ----------------------------------------------------------------- write
    def _after_write(self, written, now):
        for lpn, ppn in written:
            self._buffer[lpn] = ppn
        if len(self._buffer) >= self._buffer_capacity:
            self.flush_buffer()

    def _after_gc_move(self, moved):
        # GC relocations change mappings that may be modelled by stale segments;
        # feed them back through the buffer so they are re-learned.
        for lpn, ppn in moved:
            self._buffer[lpn] = ppn

    def flush_buffer(self) -> None:
        """Sort, train and flush the mapping buffer into the segment tables.

        The write path calls it when the buffer fills; calling it directly
        forces a cycle.  The flash work (one stage of translation-page
        write-backs, charged the sort and train time) is appended to
        ``self.buffer``, so it executes with the request being encoded.
        """
        if not self._buffer:
            return
        grouped: dict[int, list[tuple[int, int]]] = {}
        for lpn, ppn in self._buffer.items():
            grouped.setdefault(self.directory.tvpn_of(lpn), []).append((lpn, ppn))
        compute_us = 0.0
        command_buffer = self.buffer
        stage = command_buffer.new_stage()
        for tvpn, pairs in sorted(grouped.items()):
            pairs.sort(key=lambda item: item[0])
            lpns = [lpn for lpn, _ in pairs]
            vppns = [self.codec.ppn_to_vppn(ppn) for _, ppn in pairs]
            segments = build_segments(lpns, vppns, gamma=self.config.leaftl_gamma)
            table = self._tables.setdefault(tvpn, LogStructuredSegmentTable())
            table.insert_many(segments)
            table.compact()
            compute_us += self.timing.sort_us_per_entry + self.timing.train_us_per_entry
            self.stats.sort_time_us += self.timing.sort_us_per_entry
            self.stats.train_time_us += self.timing.train_us_per_entry
            self.stats.models_trained += len(segments)
            self._write_back_translation(stage, tvpn)
            if tvpn in self._model_cache:
                self._refresh_cache_entry(tvpn)
        self._buffer.clear()
        command_buffer.commit_stage(stage, compute_us)

    # ------------------------------------------------------------ model cache
    def _admit_to_cache(self, tvpn: int) -> None:
        size = self._table_bytes(tvpn)
        self._model_cache[tvpn] = size
        self._cache_bytes += size
        while self._cache_bytes > self._cache_capacity_bytes and len(self._model_cache) > 1:
            victim, victim_size = self._model_cache.popitem(last=False)
            self._cache_bytes -= victim_size

    def _refresh_cache_entry(self, tvpn: int) -> None:
        old = self._model_cache.pop(tvpn, 0)
        self._cache_bytes -= old
        self._admit_to_cache(tvpn)

    def _table_bytes(self, tvpn: int) -> int:
        table = self._tables.get(tvpn)
        return table.memory_bytes() if table is not None else 0

    # ------------------------------------------------------------- reporting
    def segment_count(self) -> int:
        """Total learned segments across all translation pages."""
        return sum(table.segment_count() for table in self._tables.values())

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["tables"] = pack_tables(self._tables)
        state["write_buffer"] = [[lpn, ppn] for lpn, ppn in self._buffer.items()]
        state["model_cache"] = [[tvpn, size] for tvpn, size in self._model_cache.items()]
        state["cache_bytes"] = self._cache_bytes
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._tables = unpack_tables(state["tables"])
        self._buffer = {lpn: ppn for lpn, ppn in state["write_buffer"]}
        self._model_cache.clear()
        for tvpn, size in state["model_cache"]:
            self._model_cache[tvpn] = size
        self._cache_bytes = int(state["cache_bytes"])
