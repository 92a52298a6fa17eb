"""DFTL: demand-based page-level FTL with an entry-granularity mapping cache.

Reference: Gupta et al., "DFTL: a Flash Translation Layer Employing
Demand-Based Selective Caching of Page-Level Address Mappings" (ASPLOS'09),
summarized in Section II-A of the LearnedFTL paper.

* Reads that miss the CMT pay one translation-page read before the data read —
  the *double read* the paper is about.
* Writes update the CMT; evicting a dirty entry forces a read-modify-write of
  its translation page.
"""

from __future__ import annotations

from repro.core.base import FTLConfig, StripingFTLBase
from repro.core.cmt import EntryLevelCMT
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.ssd.request import ReadOutcome
from repro.ssd.stats import SimulationStats

__all__ = ["DFTL"]

_OUT_BUFFER_HIT = ReadOutcome.BUFFER_HIT.code
_OUT_CMT_HIT = ReadOutcome.CMT_HIT.code
_OUT_DOUBLE_READ = ReadOutcome.DOUBLE_READ.code


class DFTL(StripingFTLBase):
    """Demand-based FTL with a per-entry LRU cached mapping table."""

    name = "dftl"
    description = "Demand-based page-level FTL (entry-level CMT, no prefetch)."

    def __init__(
        self,
        geometry: SSDGeometry,
        *,
        timing: TimingModel | None = None,
        config: FTLConfig | None = None,
        stats: SimulationStats | None = None,
    ) -> None:
        super().__init__(geometry, timing=timing, config=config, stats=stats)
        self.cmt = EntryLevelCMT(
            capacity_entries=self.config.cmt_entries(geometry),
            mappings_per_page=geometry.mappings_per_translation_page,
        )
        self._mappings_per_page = geometry.mappings_per_translation_page
        # The CMT's entry dict, the directory's mapping column and the store's
        # read entry point are created once and never reassigned, so the read
        # hot path can inline its lookups against direct references.
        self._cmt_get = self.cmt._entries.get
        self._cmt_refresh = self.cmt._entries.move_to_end
        self._dir_column = self.directory._ppn
        self._ts_read_into = self.translation_store.read_into

    # ----------------------------------------------------------------- read
    def _translate_read(self, lpn, head_stage):
        stats = self.stats
        stats.cmt_lookups += 1
        # Inlined EntryLevelCMT.lookup (runs once per host page read).
        cached = self._cmt_get(lpn)
        if cached is not None:
            self._cmt_refresh(lpn)
            stats.cmt_hits += 1
            return cached, _OUT_CMT_HIT, 0.0
        # Inlined MappingDirectory.lookup (-1 is the unmapped sentinel).
        ppn = self._dir_column[lpn] if 0 <= lpn < self._num_logical_pages else -1
        if ppn == -1:
            return None, _OUT_BUFFER_HIT, 0.0
        if self._ts_read_into(self.buffer, head_stage, lpn // self._mappings_per_page):
            outcome = _OUT_DOUBLE_READ
        else:
            # Translation page never flushed: the mapping can only have reached
            # flash via the CMT, so a fresh device serves it without a flash read.
            outcome = _OUT_CMT_HIT
            stats.cmt_hits += 1
        evicted = self.cmt.insert(lpn, ppn, dirty=False)
        if evicted:
            self._handle_evictions(evicted)
        return ppn, outcome, 0.0

    # ---------------------------------------------------------------- write
    def _after_write(self, written, now):
        for lpn, ppn in written:
            evicted = self.cmt.insert(lpn, ppn, dirty=True)
            if evicted:
                self._handle_evictions(evicted)

    def _after_gc_move(self, moved):
        for lpn, ppn in moved:
            if lpn in self.cmt:
                self.cmt.insert(lpn, ppn, dirty=False)

    # ------------------------------------------------------------ reporting
    def memory_report(self) -> dict[str, int]:
        """CMT occupancy in bytes (8 bytes per cached entry)."""
        return {"cmt_bytes": self.cmt.memory_entries() * 8}

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["cmt"] = self.cmt.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.cmt.load_state(state["cmt"])
