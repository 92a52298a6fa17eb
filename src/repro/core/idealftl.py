"""Ideal full page-mapping FTL (the paper's performance upper bound).

The entire LPN->PPN table is assumed to fit in device DRAM, so address
translation never costs a flash read: every read is a single read and no
translation pages are ever written.  Garbage collection still happens (the
flash is still flash), which is why the ideal FTL's write amplification is not
exactly 1.0 in Figure 14(c).
"""

from __future__ import annotations

from repro.core.base import StripingFTLBase
from repro.ssd.request import ReadOutcome

__all__ = ["IdealFTL"]


_OUT_BUFFER_HIT = ReadOutcome.BUFFER_HIT.code
_OUT_CMT_HIT = ReadOutcome.CMT_HIT.code


class IdealFTL(StripingFTLBase):
    """Full in-memory page-level mapping: no mapping cache, no double reads."""

    name = "ideal"
    description = "Full page-level mapping held entirely in DRAM (upper bound)."
    persists_translation_pages = False

    def _translate_read(self, lpn, head_stage):
        self.stats.cmt_lookups += 1
        ppn = self.directory.lookup(lpn)
        if ppn is None:
            return None, _OUT_BUFFER_HIT, 0.0
        self.stats.cmt_hits += 1
        return ppn, _OUT_CMT_HIT, 0.0
