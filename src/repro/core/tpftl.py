"""TPFTL: a demand-based FTL exploiting temporal *and* spatial locality.

Reference: Zhou et al., "An Efficient Page-level FTL to Optimize Address
Translation in Flash Memory" (EuroSys'15).  The properties the LearnedFTL paper
relies on are reproduced here:

* a two-level CMT (translation-page nodes holding entry lists) that evicts and
  writes back at translation-page granularity;
* a **workload-adaptive loading (prefetch) policy**: a CMT miss loads not just
  the missing mapping but also the mappings of the following LPNs in the same
  translation page, with the prefetch depth adapted to the recent average
  request length.  Sequential workloads therefore enjoy a high hit ratio, while
  random 4 KB reads defeat the prefetcher — the behaviour behind Figures 2/3.
"""

from __future__ import annotations

from repro.core.base import FTLConfig, StripingFTLBase
from repro.core.cmt import LoadingPolicy, PageGroupedCMT
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.ssd.request import HostRequest, ReadOutcome
from repro.ssd.stats import SimulationStats

__all__ = ["TPFTL"]

_OUT_BUFFER_HIT = ReadOutcome.BUFFER_HIT.code
_OUT_CMT_HIT = ReadOutcome.CMT_HIT.code
_OUT_DOUBLE_READ = ReadOutcome.DOUBLE_READ.code


class TPFTL(StripingFTLBase):
    """Demand-based FTL with a two-level CMT and request-length-adaptive prefetch."""

    name = "tpftl"
    description = "TPFTL: two-level CMT with workload-adaptive prefetching."

    def __init__(
        self,
        geometry: SSDGeometry,
        *,
        timing: TimingModel | None = None,
        config: FTLConfig | None = None,
        stats: SimulationStats | None = None,
    ) -> None:
        super().__init__(geometry, timing=timing, config=config, stats=stats)
        self.cmt = PageGroupedCMT(
            capacity_entries=self.config.cmt_entries(geometry),
            mappings_per_page=geometry.mappings_per_translation_page,
        )
        #: The workload-adaptive loading policy (request observer + prefetch).
        self.loading = LoadingPolicy(
            self.cmt,
            self.directory._ppn,
            geometry.num_logical_pages,
            self.config.prefetch_max_entries,
        )
        self._mappings_per_page = geometry.mappings_per_translation_page

    # ------------------------------------------------------------- requests
    def read(self, request: HostRequest, now: float) -> None:
        self.loading.observe(request.lpn, request.npages)
        super().read(request, now)

    def write(self, request: HostRequest, now: float) -> None:
        self.loading.observe(request.lpn, request.npages)
        super().write(request, now)

    # ----------------------------------------------------------------- read
    def _translate_read(self, lpn, head_stage):
        stats = self.stats
        stats.cmt_lookups += 1
        cached = self.cmt.lookup(lpn)
        if cached is not None:
            stats.cmt_hits += 1
            return cached, _OUT_CMT_HIT, 0.0
        ppn = self.directory.lookup(lpn)
        if ppn is None:
            return None, _OUT_BUFFER_HIT, 0.0
        tvpn = lpn // self._mappings_per_page
        if self.translation_store.read_into(self.buffer, head_stage, tvpn):
            outcome = _OUT_DOUBLE_READ
        else:
            outcome = _OUT_CMT_HIT
            stats.cmt_hits += 1
        evicted = self.loading.load(lpn, ppn, tvpn)
        if evicted:
            self._handle_evictions(evicted)
        return ppn, outcome, 0.0

    # ---------------------------------------------------------------- write
    def _after_write(self, written, now):
        for lpn, ppn in written:
            self._handle_evictions(self.cmt.insert(lpn, ppn, dirty=True))

    def _after_gc_move(self, moved):
        for lpn, ppn in moved:
            if lpn in self.cmt:
                self.cmt.insert(lpn, ppn, dirty=False)

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["cmt"] = self.cmt.state_dict()
        state["locality"] = self.loading.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.cmt.load_state(state["cmt"])
        self.loading.load_state(state["locality"])
