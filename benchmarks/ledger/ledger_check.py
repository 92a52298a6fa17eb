"""Output checks for the ledger workloads.

``SSD.verify()`` is quadratic (``latest_version_of`` scans every physical
page per LPN) and does not finish on the benchmark's 196k-page devices, so
the device check here is an O(N) NumPy pass over ``SSD.state_dict()``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

__all__ = ["mapping_failures", "window_failures"]

#: ``repro.nand.flash.PAGE_VALID`` (the state code of a programmed, live page).
_PAGE_VALID = 1


def mapping_failures(state: Mapping[str, Any]) -> list[str]:
    """Mapping/flash inconsistencies in a device ``state_dict`` (empty = sound).

    Every mapped ``directory.ppn`` must point at a valid, non-translation page
    whose ``page_lpn`` is that LPN, and the valid data pages must be exactly
    the mapped LPNs (no orphaned live page, no LPN held twice).
    """
    ppn = np.asarray(state["ftl"]["directory"]["ppn"])
    flash = state["ftl"]["flash"]
    page_state = np.asarray(flash["page_state"])
    page_lpn = np.asarray(flash["page_lpn"])
    is_translation = np.asarray(flash["page_translation"]).astype(bool)
    failures: list[str] = []

    mapped = np.flatnonzero(ppn >= 0)
    targets = ppn[mapped]
    if targets.size and int(targets.max()) >= page_state.shape[0]:
        return [f"{int((targets >= page_state.shape[0]).sum())} mapped LPNs point past the flash"]
    not_valid = page_state[targets] != _PAGE_VALID
    if not_valid.any():
        failures.append(
            f"{int(not_valid.sum())} mapped LPNs point at a non-valid page "
            f"(first: lpn {int(mapped[np.argmax(not_valid)])})"
        )
    on_translation = is_translation[targets]
    if on_translation.any():
        failures.append(f"{int(on_translation.sum())} mapped LPNs point at a translation page")
    wrong_lpn = page_lpn[targets] != mapped
    if wrong_lpn.any():
        failures.append(
            f"{int(wrong_lpn.sum())} mapped LPNs point at a page holding another LPN "
            f"(first: lpn {int(mapped[np.argmax(wrong_lpn)])})"
        )
    live = np.flatnonzero((page_state == _PAGE_VALID) & ~is_translation)
    if live.size != mapped.size or not np.array_equal(np.sort(page_lpn[live]), mapped):
        failures.append(
            f"valid data pages ({live.size}) are not exactly the mapped LPNs ({mapped.size})"
        )
    return failures


def window_failures(totals: Mapping[str, Any], stats: Any) -> list[str]:
    """Mismatches between the windowed recorder's totals and the device totals."""
    expected = {
        "reads": stats.host_read_requests,
        "writes": stats.host_write_requests,
        "read_pages": stats.host_read_pages,
        "write_pages": stats.host_write_pages,
        "read_latency_count": len(stats.read_latencies_us),
        "write_latency_count": len(stats.write_latencies_us),
        "command_counts": list(stats.command_counts),
    }
    return [
        f"sum of windows {key}={totals[key]!r} != device total {value!r}"
        for key, value in expected.items()
        if totals[key] != value
    ]
