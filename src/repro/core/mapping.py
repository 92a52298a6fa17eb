"""Page-level mapping directory, translation pages and the GTD.

Every demand-based FTL in the paper keeps the full LPN->PPN page table in
flash, split across *translation pages* of ``page_size / 8`` entries each, and
keeps a small in-memory *Global Translation Directory* (GTD) that records where
each translation page currently lives in flash.

In the simulator the authoritative logical-to-physical map is an in-memory
flat array (:class:`MappingDirectory`) — one signed 64-bit slot per logical
page, with -1 marking "never written", exactly like the DRAM page table of the
ideal FTL; what the real device would pay to keep the flash-resident table up
to date is charged through :class:`TranslationPageStore`, which issues real
flash reads/programs for translation-page fetches and read-modify-write
flushes, and tracks which translation pages are dirty.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable

import numpy as np

from repro.nand.errors import MappingError
from repro.nand.flash import FlashArray
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import (
    CommandBuffer,
    CommandKind,
    CommandPurpose,
    command_code,
)

__all__ = ["MappingDirectory", "TranslationPageStore"]

# Hot-path constants: flush_into() runs for every dirty CMT eviction, so the
# command codes are precomputed at import time.
_CODE_TRANSLATION_READ = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)
_CODE_TRANSLATION_WRITE = command_code(CommandKind.PROGRAM, CommandPurpose.TRANSLATION_WRITE)
_CODE_GC_WRITE = command_code(CommandKind.PROGRAM, CommandPurpose.GC_WRITE)

#: Sentinel stored in the mapping column for "LPN never written".
_UNMAPPED = -1


class MappingDirectory:
    """Authoritative logical-to-physical map plus translation-page geometry.

    The directory answers "where does this LPN live right now" for every FTL;
    the FTLs differ only in how much of it they can consult without paying a
    flash read (CMT entries, learned models, or everything for the ideal FTL).
    """

    def __init__(self, geometry: SSDGeometry) -> None:
        self.geometry = geometry
        self.mappings_per_page = geometry.mappings_per_translation_page
        self._size = geometry.num_logical_pages
        self._ppn = array("q", [_UNMAPPED]) * self._size
        # Shared-memory NumPy view of the column for the batched gather path.
        # ``load_state`` slice-assigns into ``_ppn`` rather than rebinding it,
        # so the view stays coherent for the life of the directory.
        self._ppn_view = np.frombuffer(self._ppn, dtype=np.int64)
        self._mapped_count = 0

    # --------------------------------------------------------------- lookups
    def lookup(self, lpn: int) -> int | None:
        """Return the current PPN of an LPN, or ``None`` if never written."""
        if 0 <= lpn < self._size:
            ppn = self._ppn[lpn]
            if ppn != _UNMAPPED:
                return ppn
        return None

    def lookup_many(self, lpns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lookup`: gather the PPNs of an LPN array.

        Returns an ``int64`` array the same length as ``lpns`` with ``-1`` for
        never-written *and* out-of-range LPNs (the scalar path's ``None``).
        One fancy-indexing gather over the flat column replaces a Python-level
        bounds check, array read and sentinel test per request.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        in_range = (lpns >= 0) & (lpns < self._size)
        # Out-of-range LPNs gather slot 0 (negative indices would wrap) and
        # are overwritten with the unmapped sentinel below.
        ppns = self._ppn_view[np.where(in_range, lpns, 0)]
        ppns[~in_range] = _UNMAPPED
        return ppns

    def __len__(self) -> int:
        return self._mapped_count

    # --------------------------------------------------------------- updates
    def update(self, lpn: int, ppn: int) -> int | None:
        """Point an LPN at a new PPN, returning the previous PPN (or ``None``)."""
        if not 0 <= lpn < self._size:
            raise MappingError(f"lpn {lpn} outside the logical space [0, {self._size})")
        column = self._ppn
        old = column[lpn]
        column[lpn] = ppn
        if old == _UNMAPPED:
            self._mapped_count += 1
            return None
        return old

    def store_many(self, lpns: np.ndarray, ppns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`update`: point an LPN column at a PPN column.

        Returns an ``int64`` array of the previous PPNs (``-1`` for
        never-written, the scalar path's ``None``) and maintains
        ``_mapped_count`` exactly like per-request updates would.  Duplicate
        LPNs inside one call behave like sequential scalar updates: the scatter
        applies in order, so the last write wins, and the gather of "old" PPNs
        happens before any of them — callers that need per-duplicate old
        values must therefore resolve duplicates themselves before calling.
        Bounds are the caller's responsibility (``encode`` range-checks a
        write before its columns reach here).
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        ppns = np.asarray(ppns, dtype=np.int64)
        column = self._ppn_view
        old = column[lpns].copy()
        column[lpns] = ppns
        self._mapped_count += int(np.count_nonzero(old == _UNMAPPED))
        return old

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture the mapping column as one int64 buffer."""
        return {
            "ppn": np.frombuffer(self._ppn, dtype=np.int64).copy(),
            "mapped_count": self._mapped_count,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore the mapping column **in place** (FTLs cache references to it).

        The column is copied once, through its NumPy view.
        """
        column = np.asarray(state["ppn"], dtype=np.int64)
        if len(column) != self._size:
            raise MappingError(
                f"snapshot maps {len(column)} logical pages, directory has {self._size}"
            )
        self._ppn_view[:] = column
        self._mapped_count = int(state["mapped_count"])

    # ------------------------------------------------------- translation geo
    def tvpn_of(self, lpn: int) -> int:
        """Translation-page (GTD entry) index covering an LPN."""
        return lpn // self.mappings_per_page

    def lpn_range_of_tvpn(self, tvpn: int) -> range:
        """The LPN range covered by one translation page."""
        start = tvpn * self.mappings_per_page
        return range(start, min(start + self.mappings_per_page, self._size))

    def mapped_lpns_of_tvpn(self, tvpn: int) -> np.ndarray:
        """Mapped LPNs inside one translation page, as an increasing ``int64`` column."""
        lpns = self.lpn_range_of_tvpn(tvpn)
        return np.flatnonzero(self._ppn_view[lpns.start : lpns.stop] != _UNMAPPED) + lpns.start


class TranslationPageStore:
    """Flash-resident translation pages and the in-memory GTD.

    The store does not decide *when* to fetch or flush — that is CMT policy —
    it only produces the flash commands and keeps the GTD coherent.  The GTD
    itself is two flat columns indexed by translation-page number: the flash
    location of each translation page and its dirty bit.

    Its three operations (:meth:`read_into`, :meth:`flush_into`,
    :meth:`relocate_into`) append integer-coded commands straight into the
    owning FTL's :class:`~repro.ssd.request.CommandBuffer`.

    Parameters
    ----------
    flash:
        The shared flash array (translation pages are real pages in it).
    directory:
        The mapping directory (for translation-page geometry).
    allocate:
        Callback returning one free PPN for a translation-page program.  The
        owning FTL wires this to its allocator's translation pool.
    """

    def __init__(
        self,
        flash: FlashArray,
        directory: MappingDirectory,
        allocate: Callable[[], int],
    ) -> None:
        self.flash = flash
        self.directory = directory
        self._allocate = allocate
        # Sparse columns keyed by tvpn: flash location and dirty flag.  Kept as
        # dict/set (not flat arrays) because tests and tools may address tvpns
        # beyond the geometry's translation-page count, as the old per-tvpn
        # state objects allowed.
        self._tp_ppn: dict[int, int] = {}
        self._tp_dirty: set[int] = set()
        self._chip_index = flash.codec.chip_index
        self._touch_read = flash.touch_read
        self._touch_read_chip = flash.touch_read_chip
        self._program_translation = flash.program_translation
        self._invalidate = flash.invalidate
        self.translation_reads = 0
        self.translation_writes = 0

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture the GTD (translation-page locations, dirty set, counters)."""
        return {
            "tp_ppn": [[tvpn, ppn] for tvpn, ppn in self._tp_ppn.items()],
            "tp_dirty": sorted(self._tp_dirty),
            "translation_reads": self.translation_reads,
            "translation_writes": self.translation_writes,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore the GTD in place (the owning FTL keeps references into it)."""
        self._tp_ppn.clear()
        for tvpn, ppn in state["tp_ppn"]:
            self._tp_ppn[tvpn] = ppn
        self._tp_dirty.clear()
        self._tp_dirty.update(state["tp_dirty"])
        self.translation_reads = int(state["translation_reads"])
        self.translation_writes = int(state["translation_writes"])

    # ------------------------------------------------------------- commands
    def read_into(self, buffer: CommandBuffer, stage: list, tvpn: int) -> bool:
        """Append the flash read that fetches a translation page.

        Returns ``False`` (and appends nothing) when the translation page has
        never been written to flash (a fresh device); the caller then serves
        the lookup without a flash read, which matches a real device whose
        mapping table region is known-empty.
        """
        ppn = self._tp_ppn.get(tvpn)
        if ppn is None:
            return False
        self.translation_reads += 1
        # Inlined buffer.append (this runs for every CMT-miss read).
        ops = buffer.ops
        index = len(ops)
        ops.extend((_CODE_TRANSLATION_READ, self._touch_read_chip(ppn), ppn, -1))
        if len(stage) > 1 and stage[-1] == index:
            stage[-1] = index + 4
        else:
            stage.append(index)
            stage.append(index + 4)
        return True

    def flush_into(
        self, buffer: CommandBuffer, stage: list, tvpn: int, program_code: int = _CODE_TRANSLATION_WRITE
    ) -> None:
        """Write back a translation page (read-modify-write).

        Appends the flash commands: a read of the old copy (when one exists
        and the page is only partially refreshed) followed by a program of the
        new copy.  The old copy is invalidated.
        """
        old_ppn = self._tp_ppn.get(tvpn)
        ops = buffer.ops
        if old_ppn is not None:
            self.translation_reads += 1
            index = len(ops)
            ops.extend((_CODE_TRANSLATION_READ, self._touch_read_chip(old_ppn), old_ppn, -1))
            if len(stage) > 1 and stage[-1] == index:
                stage[-1] = index + 4
            else:
                stage.append(index)
                stage.append(index + 4)
        new_ppn = self._allocate()
        self._program_translation(new_ppn, tvpn)
        if old_ppn is not None:
            self._invalidate(old_ppn)
        self._tp_ppn[tvpn] = new_ppn
        self._tp_dirty.discard(tvpn)
        self.translation_writes += 1
        index = len(ops)
        ops.extend((program_code, self._chip_index(new_ppn), new_ppn, -1))
        if len(stage) > 1 and stage[-1] == index:
            stage[-1] = index + 4
        else:
            stage.append(index)
            stage.append(index + 4)

    def relocate_into(self, buffer: CommandBuffer, stage: list, old_ppn: int) -> int:
        """Move a live translation page during translation-pool GC.

        Appends the program command and returns the new PPN.  The caller's
        GC read of the old copy issues and counts the read.
        """
        tvpn = self.flash.page_tvpn(old_ppn)
        if tvpn is None:
            raise MappingError(f"ppn {old_ppn} is not a translation page")
        new_ppn = self._allocate()
        self.flash.program_translation(new_ppn, tvpn)
        self.flash.invalidate(old_ppn)
        self._tp_ppn[tvpn] = new_ppn
        buffer.append(stage, _CODE_GC_WRITE, self._chip_index(new_ppn), new_ppn)
        return new_ppn
