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

from collections import deque

from repro.core.base import FTLConfig, StripingFTLBase
from repro.core.cmt import EvictedPage, PageGroupedCMT
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
        self._recent_request_lengths: deque[int] = deque(maxlen=32)
        #: Running sum of the deque (integer page counts, so the incremental
        #: sum equals the recomputed one exactly); keeps the per-miss
        #: prefetch-depth computation O(1) instead of O(window).
        self._recent_length_sum = 0
        self._last_lpn_end: int | None = None
        self._sequential_streak = 0
        self._mappings_per_page = geometry.mappings_per_translation_page
        # The CMT's page dict and capacity never get reassigned, so the
        # prefetch path can hold direct references.
        self._cmt_pages = self.cmt._pages
        self._prefetch_ceiling = min(
            self.config.prefetch_max_entries, max(1, self.cmt.capacity_entries // 2)
        )

    # ------------------------------------------------------------- requests
    def _observe_request(self, request: HostRequest) -> None:
        """Feed the workload-adaptive loading policy: request length and sequentiality."""
        lengths = self._recent_request_lengths
        if len(lengths) == lengths.maxlen:
            self._recent_length_sum -= lengths[0]
        self._recent_length_sum += request.npages
        lengths.append(request.npages)
        if self._last_lpn_end is not None and request.lpn == self._last_lpn_end:
            self._sequential_streak = min(self._sequential_streak + 1, 64)
        else:
            self._sequential_streak = 0
        self._last_lpn_end = request.lpn + request.npages

    def read(self, request: HostRequest, now: float) -> None:
        self._observe_request(request)
        super().read(request, now)

    def write(self, request: HostRequest, now: float) -> None:
        self._observe_request(request)
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
        evicted = self._load_with_prefetch(lpn, ppn, tvpn)
        if evicted:
            self._handle_evictions(evicted)
        return ppn, outcome, 0.0

    def _prefetch_length(self) -> int:
        """Workload-adaptive prefetch depth.

        The depth follows the recent mean request length (long requests spill
        into their neighbours) and grows with the detected sequential streak so
        a sequential scan quickly reaches the maximum prefetch depth, while
        random 4 KB reads stay at depth 1-2 — the behaviour TPFTL's loading
        policy is designed for.
        """
        window = len(self._recent_request_lengths)
        if window == 0:
            return 1
        mean_len = self._recent_length_sum / window
        depth = int(round(mean_len * 2)) + 2 * self._sequential_streak
        # Never prefetch more than half the cache: loading one long run must not
        # evict the mappings another thread is about to use.
        return max(1, min(self._prefetch_ceiling, depth))

    def _load_with_prefetch(self, lpn: int, ppn: int, tvpn: int) -> list[EvictedPage]:
        """Insert the missed mapping plus prefetched neighbours from the same translation page."""
        # Inlined _prefetch_length: this runs for every CMT miss.
        window = len(self._recent_request_lengths)
        if window:
            depth = int(round(self._recent_length_sum / window * 2)) + 2 * self._sequential_streak
            if depth > self._prefetch_ceiling:
                depth = self._prefetch_ceiling
        else:
            depth = 1
        batch: list[tuple[int, int]] = [(lpn, ppn)]
        if depth > 1:
            stop = (tvpn + 1) * self._mappings_per_page
            if stop > self._num_logical_pages:
                stop = self._num_logical_pages
            if lpn + depth < stop:
                stop = lpn + depth
            # Neighbours stay inside this translation page, so the membership
            # probe can use its cached node directly (the cache is only
            # mutated by insert_many below, after the batch is complete).
            node = self._cmt_pages.get(tvpn)
            directory_lookup = self.directory.lookup
            for neighbour in range(lpn + 1, stop):
                neighbour_ppn = directory_lookup(neighbour)
                if neighbour_ppn is not None and (node is None or neighbour not in node):
                    batch.append((neighbour, neighbour_ppn))
        return self.cmt.insert_many(batch, dirty=False)

    # ---------------------------------------------------------------- write
    def _after_write(self, written, now):
        for lpn, ppn in written:
            self._handle_evictions(self.cmt.insert(lpn, ppn, dirty=True))

    def _after_gc_move(self, moved):
        for lpn, ppn in moved:
            if lpn in self.cmt:
                self.cmt.insert(lpn, ppn, dirty=False)

    # ------------------------------------------------------------- internal
    def _handle_evictions(self, evicted: list[EvictedPage]) -> None:
        for page in evicted:
            self._flush_translation_page(page.tvpn)

    def memory_report(self) -> dict[str, int]:
        """CMT occupancy in bytes (entries plus node overhead at 8 bytes/unit)."""
        return {"cmt_bytes": self.cmt.memory_entries() * 8}

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["cmt"] = self.cmt.state_dict()
        state["locality"] = {
            "recent_lengths": list(self._recent_request_lengths),
            "last_lpn_end": self._last_lpn_end,
            "sequential_streak": self._sequential_streak,
        }
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.cmt.load_state(state["cmt"])
        locality = state["locality"]
        self._recent_request_lengths.clear()
        self._recent_request_lengths.extend(locality["recent_lengths"])
        self._recent_length_sum = sum(self._recent_request_lengths)
        self._last_lpn_end = locality["last_lpn_end"]
        self._sequential_streak = int(locality["sequential_streak"])
