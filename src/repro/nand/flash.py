"""Flash array state: page lifecycle, out-of-band (OOB) metadata, erase counts.

The array tracks *state*, not data bytes.  Each physical page is in one of
three states (free / valid / invalid) and carries OOB metadata: the logical
page it holds, a monotonically increasing write version (used by tests to prove
an FTL always resolves an LPN to its newest copy) and an optional opaque
payload (LeaFTL stores its error interval there, translation pages record the
translation-page number they hold).

The array enforces NAND programming rules: a page must be erased before it can
be programmed again, pages are programmed in order within a block (sequential
program constraint), and erases operate on whole blocks.

Storage is **columnar** (struct-of-arrays): page state lives in flat
``bytearray``/``array`` columns indexed by PPN, and per-block counters in
columns indexed by flat block id.  At the paper's full 32 GB geometry this
replaces 8M+ heap-allocated per-page objects with a handful of flat buffers,
which is what makes the full-scale geometry simulable.  Pages and blocks are
read through raw accessors (:meth:`FlashArray.page_state_code`,
:meth:`FlashArray.page_lpn_raw`, :meth:`FlashArray.block_valid_count`, ...)
and their columnar forms; no per-page object exists.
"""

from __future__ import annotations

import json
from array import array
from enum import Enum
from typing import Any

import numpy as np

from repro.nand.address import AddressCodec
from repro.nand.errors import FlashStateError
from repro.nand.geometry import SSDGeometry

__all__ = [
    "PageState",
    "FlashArray",
    "PAGE_FREE",
    "PAGE_VALID",
    "PAGE_INVALID",
]


class PageState(Enum):
    """Lifecycle state of a physical flash page."""

    FREE = "free"
    VALID = "valid"
    INVALID = "invalid"


#: Raw state codes stored in the state column; hot paths compare against these
#: integers instead of enum members.
PAGE_FREE, PAGE_VALID, PAGE_INVALID = 0, 1, 2

_STATE_BY_CODE = (PageState.FREE, PageState.VALID, PageState.INVALID)

#: Sentinel stored in the LPN/version columns for "no value".
_NONE = -1


class FlashArray:
    """State of every physical page and erase block in the device.

    The array is purely mechanical: it knows nothing about FTL policy.  It is
    shared by every FTL design so that correctness invariants (one valid copy
    per LPN, no program-before-erase) are enforced uniformly.
    """

    def __init__(self, geometry: SSDGeometry, *, enforce_sequential_program: bool = True) -> None:
        self.geometry = geometry
        self.codec = AddressCodec(geometry)
        self.enforce_sequential_program = enforce_sequential_program
        num_pages = geometry.num_physical_pages
        num_blocks = geometry.num_blocks
        self._num_pages = num_pages
        self._pages_per_block = geometry.pages_per_block
        # Pages per chip (the codec's chip stride), for touch_read_chip.
        self._chip_stride = self.codec._ppn_chip_stride
        # Page columns, indexed by PPN.
        self._page_state = bytearray(num_pages)
        self._page_lpn = array("q", [_NONE]) * num_pages
        self._page_version = array("q", [_NONE]) * num_pages
        self._page_translation = bytearray(num_pages)
        self._page_tvpn = array("q", [_NONE]) * num_pages
        self._page_oob: dict[int, Any] = {}
        # Block columns, indexed by flat block id.
        self._block_next = array("i", [0]) * num_blocks
        self._block_valid = array("i", [0]) * num_blocks
        self._block_invalid = array("i", [0]) * num_blocks
        self._block_erase = array("i", [0]) * num_blocks
        self._block_translation = bytearray(num_blocks)
        # Reusable erase templates (slice-assigned over a block's page range).
        self._erased_lpns = array("q", [_NONE]) * self._pages_per_block
        self._zero_pages = bytes(self._pages_per_block)
        self._version_counter = 0
        self._free_pages = num_pages
        self.total_programs = 0
        self.total_erases = 0
        self.total_reads = 0
        #: Monotonic counter bumped whenever a *data* page's invalid state can
        #: have changed (invalidate or erase).  Allocators use it to memoize
        #: garbage scans: as long as the epoch is unchanged, the per-block
        #: invalid counts they aggregate are unchanged too.
        self.data_invalidation_epoch = 0

    # ------------------------------------------------------------ inspection

    def valid_ppns_in_block(self, block: int) -> list[int]:
        """Return the PPNs of the valid pages in a block."""
        self.geometry.check_block(block)
        base = block * self._pages_per_block
        state = self._page_state
        return [
            ppn for ppn in range(base, base + self._pages_per_block) if state[ppn] == PAGE_VALID
        ]

    # ------------------------------------------------- raw columnar accessors
    def page_state_code(self, ppn: int) -> int:
        """Raw state code of a page (:data:`PAGE_FREE` / ``VALID`` / ``INVALID``)."""
        if not 0 <= ppn < self._num_pages:
            self.geometry.check_ppn(ppn)
        return self._page_state[ppn]

    def page_lpn_raw(self, ppn: int) -> int:
        """LPN column value of a page (-1 when it holds none)."""
        return self._page_lpn[ppn]

    def is_valid(self, ppn: int) -> bool:
        """True when the page is in the VALID state."""
        if not 0 <= ppn < self._num_pages:
            self.geometry.check_ppn(ppn)
        return self._page_state[ppn] == PAGE_VALID

    def live_lpns(self, ppns: "np.ndarray") -> "np.ndarray":
        """LPN held by each page of a PPN column, ``-1`` unless it is live data.

        One gather over the state, LPN and translation columns: the columnar
        form of ``page_state_code(ppn) == PAGE_VALID`` on a data page followed by
        :meth:`page_lpn_raw`.
        """
        ppns = self.codec.checked_ppns(ppns)
        live = (np.frombuffer(self._page_state, dtype=np.uint8)[ppns] == PAGE_VALID) & (
            np.frombuffer(self._page_translation, dtype=np.uint8)[ppns] == 0
        )
        return np.where(live, np.frombuffer(self._page_lpn, dtype=np.int64)[ppns], _NONE)

    def block_valid_count(self, block: int) -> int:
        """Valid-page count of a block (raw column read)."""
        return self._block_valid[block]

    def block_invalid_count(self, block: int) -> int:
        """Invalid-page count of a block (raw column read)."""
        return self._block_invalid[block]

    def block_programmed(self, block: int) -> int:
        """Pages programmed in a block since its last erase (raw column read)."""
        return self._block_next[block]

    # ------------------------------------------------------------ operations
    def touch_read(self, ppn: int) -> None:
        """Account a read of a programmed page.

        Reading a free page is a simulation bug in every FTL modelled here, so
        it raises :class:`FlashStateError`.
        """
        if not 0 <= ppn < self._num_pages:
            self.geometry.check_ppn(ppn)
        if self._page_state[ppn] == PAGE_FREE:
            raise FlashStateError(f"read of unprogrammed page ppn={ppn}")
        self.total_reads += 1

    def touch_read_chip(self, ppn: int) -> int:
        """:meth:`touch_read` fused with the chip-index resolution.

        The read paths need both the accounting and the owning chip of every
        page they read; answering both from one call (and one bounds check)
        halves the per-command call overhead of the simulation's hottest loop.
        """
        if not 0 <= ppn < self._num_pages:
            self.geometry.check_ppn(ppn)
        if self._page_state[ppn] == PAGE_FREE:
            raise FlashStateError(f"read of unprogrammed page ppn={ppn}")
        self.total_reads += 1
        return ppn // self._chip_stride

    def touch_read_many(self, ppns: "np.ndarray") -> "np.ndarray":
        """Columnar :meth:`touch_read_chip`: account a read of every page of a
        PPN column and return the owning chip of each."""
        ppns = self.codec.checked_ppns(ppns)
        free = np.frombuffer(self._page_state, dtype=np.uint8)[ppns] == PAGE_FREE
        if free.any():
            raise FlashStateError(f"read of unprogrammed page ppn={int(ppns[np.argmax(free)])}")
        self.total_reads += int(ppns.size)
        return ppns // self._chip_stride

    def program(
        self,
        ppn: int,
        lpn: int | None,
        *,
        is_translation: bool = False,
        oob: Any = None,
    ) -> None:
        """Program a free page with the given OOB metadata.

        The write version is assigned from a device-global monotonic counter
        so tests can identify the most recent copy of an LPN regardless of
        which FTL produced it.
        """
        self.program_data(ppn, _NONE if lpn is None else lpn)
        if is_translation:
            self._page_translation[ppn] = 1
            self._block_translation[ppn // self._pages_per_block] = 1
        if oob is not None:
            self._page_oob[ppn] = oob

    def program_translation(self, ppn: int, tvpn: int) -> None:
        """Program a free page as a translation page holding GTD entry ``tvpn``.

        Hot-path equivalent of ``program(ppn, None, is_translation=True,
        oob={"tvpn": tvpn})``: the tvpn goes into a flat column instead of a
        per-page dict payload.
        """
        self.program_data(ppn, _NONE)
        self._page_translation[ppn] = 1
        self._page_tvpn[ppn] = tvpn
        self._block_translation[ppn // self._pages_per_block] = 1

    def page_tvpn(self, ppn: int) -> int | None:
        """Translation-page number held by ``ppn`` (``None`` for data pages)."""
        tvpn = self._page_tvpn[ppn]
        if tvpn != _NONE:
            return tvpn
        oob = self._page_oob.get(ppn)
        if isinstance(oob, dict):
            return oob.get("tvpn")
        return None

    def program_data(self, ppn: int, lpn: int) -> None:
        """Program a free page holding ``lpn`` (hot path: no OOB payload).

        The data-page write of every FTL, and the body :meth:`program` and
        :meth:`program_translation` share (``lpn`` is ``-1`` for them when
        the page holds no logical page).
        """
        if not 0 <= ppn < self._num_pages:
            self.geometry.check_ppn(ppn)
        state = self._page_state
        if state[ppn] != PAGE_FREE:
            raise FlashStateError(
                f"program of non-free page ppn={ppn} (state={_STATE_BY_CODE[state[ppn]]})"
            )
        pages_per_block = self._pages_per_block
        block = ppn // pages_per_block
        page_offset = ppn - block * pages_per_block
        block_next = self._block_next
        next_page = block_next[block]
        if page_offset != next_page and self.enforce_sequential_program:
            raise FlashStateError(
                f"out-of-order program in block {block}: page offset {page_offset}, "
                f"expected {next_page}"
            )
        self._version_counter += 1
        state[ppn] = PAGE_VALID
        self._page_lpn[ppn] = lpn
        self._page_version[ppn] = self._version_counter
        if page_offset >= next_page:
            block_next[block] = page_offset + 1
        self._block_valid[block] += 1
        self.total_programs += 1
        self._free_pages -= 1

    def program_data_many(self, ppns: "np.ndarray", lpns: "np.ndarray") -> None:
        """Columnar :meth:`program_data`: program a whole PPN array at once.

        Per-page effects are identical to sequential calls in array order —
        in particular write versions are assigned from the global counter in
        that order, so "newest copy" queries cannot tell the paths apart.
        The free/sequential-program invariants are enforced set-wise: within
        each block the programmed offsets must be exactly the next
        ``count`` pages after ``block_next`` with no duplicates, which is
        equivalent to the scalar per-page check for any in-order allocator
        run.  One sort of the PPN column yields every touched block with its
        page count and lowest and highest offset, so the cost follows the
        column, not the device.
        """
        ppns = np.asarray(ppns, dtype=np.int64)
        n = int(ppns.size)
        if n == 0:
            return
        lpns = np.asarray(lpns, dtype=np.int64)
        state = np.frombuffer(self._page_state, dtype=np.uint8)
        not_free = state[ppns] != PAGE_FREE
        if not_free.any():
            bad = int(ppns[int(np.argmax(not_free))])
            raise FlashStateError(
                f"program of non-free page ppn={bad} (state={_STATE_BY_CODE[self._page_state[bad]]})"
            )
        pages_per_block = self._pages_per_block
        ordered = np.sort(ppns)
        ordered_blocks = ordered // pages_per_block
        # Sorted, so each touched block is one run: its first index, size,
        # and lowest and highest programmed offset.
        starts_run = np.empty(n, dtype=bool)
        starts_run[0] = True
        np.not_equal(ordered_blocks[1:], ordered_blocks[:-1], out=starts_run[1:])
        firsts = np.flatnonzero(starts_run)
        ends = np.empty_like(firsts)
        ends[:-1] = firsts[1:]
        ends[-1] = n
        counts = ends - firsts
        touched = ordered_blocks[firsts]
        bases = touched * pages_per_block
        lowest = ordered[firsts] - bases
        highest = ordered[firsts + counts - 1] - bases
        block_next = np.frombuffer(self._block_next, dtype=np.int32)
        old_next = block_next[touched]
        if self.enforce_sequential_program and (
            (ordered[1:] == ordered[:-1]).any()
            or (lowest != old_next).any()
            or (highest != old_next + counts - 1).any()
        ):
            raise FlashStateError("out-of-order program in columnar write")
        counter = self._version_counter
        state[ppns] = PAGE_VALID
        np.frombuffer(self._page_lpn, dtype=np.int64)[ppns] = lpns
        np.frombuffer(self._page_version, dtype=np.int64)[ppns] = np.arange(
            counter + 1, counter + n + 1, dtype=np.int64
        )
        self._version_counter = counter + n
        # Scalar per-page updates leave block_next at max(old_next, offset+1),
        # which this reproduces even with enforcement switched off.
        block_next[touched] = np.maximum(old_next, highest + 1)
        block_valid = np.frombuffer(self._block_valid, dtype=np.int32)
        block_valid[touched] += counts.astype(np.int32)
        self.total_programs += n
        self._free_pages -= n

    def invalidate(self, ppn: int) -> None:
        """Mark a valid page invalid (its data has been superseded)."""
        if not 0 <= ppn < self._num_pages:
            self.geometry.check_ppn(ppn)
        state = self._page_state
        if state[ppn] != PAGE_VALID:
            raise FlashStateError(
                f"invalidate of non-valid page ppn={ppn} (state={_STATE_BY_CODE[state[ppn]]})"
            )
        state[ppn] = PAGE_INVALID
        block = ppn // self._pages_per_block
        self._block_valid[block] -= 1
        self._block_invalid[block] += 1
        if not self._page_translation[ppn]:
            self.data_invalidation_epoch += 1

    def invalidate_many(self, ppns: "np.ndarray | list[int]") -> None:
        """Columnar :meth:`invalidate`: mark a whole PPN array invalid at once.

        Multi-page writes and group GC collect the superseded data copies of
        a request or group and scatter their state transitions in one call —
        same per-page effects as sequential :meth:`invalidate` calls
        (invalidation is order-independent: every touched column cell is
        distinct per page and the block counters commute).  ``ppns`` must
        not contain duplicates, which the callers guarantee because a page
        can only be superseded once while it is valid.
        """
        ppns = np.asarray(ppns, dtype=np.int64)
        if ppns.size == 0:
            return
        state = np.frombuffer(self._page_state, dtype=np.uint8)
        gathered = state[ppns]
        if np.any(gathered != PAGE_VALID):
            bad = int(ppns[int(np.argmax(gathered != PAGE_VALID))])
            raise FlashStateError(
                f"invalidate of non-valid page ppn={bad} "
                f"(state={_STATE_BY_CODE[self._page_state[bad]]})"
            )
        state[ppns] = PAGE_INVALID
        blocks = ppns // self._pages_per_block
        block_valid = np.frombuffer(self._block_valid, dtype=np.int32)
        block_invalid = np.frombuffer(self._block_invalid, dtype=np.int32)
        np.subtract.at(block_valid, blocks, 1)
        np.add.at(block_invalid, blocks, 1)
        translation = np.frombuffer(self._page_translation, dtype=np.uint8)[ppns]
        self.data_invalidation_epoch += int(np.count_nonzero(translation == 0))

    def erase(self, block: int, *, allow_valid: bool = False) -> int:
        """Erase a block, returning the number of pages reclaimed.

        Erasing a block that still contains valid pages normally indicates an
        FTL bug (the GC should have migrated them first); pass
        ``allow_valid=True`` only from code that intentionally drops data, such
        as a whole-device format.
        """
        self.geometry.check_block(block)
        valid = self._block_valid[block]
        if valid > 0 and not allow_valid:
            raise FlashStateError(f"erase of block {block} with {valid} valid pages")
        pages_per_block = self._pages_per_block
        reclaimed = self._block_next[block]
        base = block * pages_per_block
        end = base + pages_per_block
        self._free_pages += valid + self._block_invalid[block]
        self._page_state[base:end] = self._zero_pages
        self._page_lpn[base:end] = self._erased_lpns
        self._page_version[base:end] = self._erased_lpns
        self._page_translation[base:end] = self._zero_pages
        self._page_tvpn[base:end] = self._erased_lpns
        if self._page_oob:
            oob = self._page_oob
            for ppn in range(base, end):
                oob.pop(ppn, None)
        self._block_next[block] = 0
        self._block_valid[block] = 0
        self._block_invalid[block] = 0
        self._block_erase[block] += 1
        self._block_translation[block] = 0
        self.total_erases += 1
        self.data_invalidation_epoch += 1
        return reclaimed

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture every column and counter as NumPy buffers / scalars.

        The sparse OOB payloads are JSON-encoded (they must be JSON-safe — in
        practice they are small dicts like ``{"tvpn": n}`` or LeaFTL error
        intervals).
        """
        return {
            "page_state": np.frombuffer(bytes(self._page_state), dtype=np.uint8),
            "page_lpn": np.frombuffer(self._page_lpn, dtype=np.int64).copy(),
            "page_version": np.frombuffer(self._page_version, dtype=np.int64).copy(),
            "page_translation": np.frombuffer(bytes(self._page_translation), dtype=np.uint8),
            "page_tvpn": np.frombuffer(self._page_tvpn, dtype=np.int64).copy(),
            "block_next": np.frombuffer(self._block_next, dtype=np.intc).copy(),
            "block_valid": np.frombuffer(self._block_valid, dtype=np.intc).copy(),
            "block_invalid": np.frombuffer(self._block_invalid, dtype=np.intc).copy(),
            "block_erase": np.frombuffer(self._block_erase, dtype=np.intc).copy(),
            "block_translation": np.frombuffer(bytes(self._block_translation), dtype=np.uint8),
            "page_oob": json.dumps(
                [[ppn, payload] for ppn, payload in self._page_oob.items()]
            ),
            "version_counter": self._version_counter,
            "free_pages": self._free_pages,
            "total_programs": self.total_programs,
            "total_erases": self.total_erases,
            "total_reads": self.total_reads,
            "data_invalidation_epoch": self.data_invalidation_epoch,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore the columns captured by :meth:`state_dict` **in place**.

        In-place slice assignment preserves the identity of every column, so
        references FTLs hold into this array stay valid after a restore.
        """
        if len(state["page_state"]) != self._num_pages:
            raise FlashStateError(
                f"snapshot covers {len(state['page_state'])} pages, "
                f"device has {self._num_pages}"
            )
        self._page_state[:] = np.asarray(state["page_state"], dtype=np.uint8).tobytes()
        self._page_lpn[:] = array("q", np.asarray(state["page_lpn"], dtype=np.int64).tobytes())
        self._page_version[:] = array(
            "q", np.asarray(state["page_version"], dtype=np.int64).tobytes()
        )
        self._page_translation[:] = np.asarray(
            state["page_translation"], dtype=np.uint8
        ).tobytes()
        self._page_tvpn[:] = array("q", np.asarray(state["page_tvpn"], dtype=np.int64).tobytes())
        self._block_next[:] = array("i", np.asarray(state["block_next"], dtype=np.intc).tobytes())
        self._block_valid[:] = array(
            "i", np.asarray(state["block_valid"], dtype=np.intc).tobytes()
        )
        self._block_invalid[:] = array(
            "i", np.asarray(state["block_invalid"], dtype=np.intc).tobytes()
        )
        self._block_erase[:] = array(
            "i", np.asarray(state["block_erase"], dtype=np.intc).tobytes()
        )
        self._block_translation[:] = np.asarray(
            state["block_translation"], dtype=np.uint8
        ).tobytes()
        self._page_oob.clear()
        for ppn, payload in json.loads(state["page_oob"]):
            self._page_oob[ppn] = payload
        self._version_counter = int(state["version_counter"])
        self._free_pages = int(state["free_pages"])
        self.total_programs = int(state["total_programs"])
        self.total_erases = int(state["total_erases"])
        self.total_reads = int(state["total_reads"])
        self.data_invalidation_epoch = int(state["data_invalidation_epoch"])

    # -------------------------------------------------------------- analysis
    def latest_version_of(self, lpn: int) -> tuple[int, int] | None:
        """Return ``(ppn, version)`` of the newest valid copy of an LPN.

        Linear scan; intended for test-suite verification only.
        """
        best: tuple[int, int] | None = None
        state = self._page_state
        versions = self._page_version
        translation = self._page_translation
        ppn = -1
        lpns = self._page_lpn
        while True:
            try:
                ppn = lpns.index(lpn, ppn + 1)
            except ValueError:
                return best
            if state[ppn] == PAGE_VALID and not translation[ppn]:
                if best is None or versions[ppn] > best[1]:
                    best = (ppn, versions[ppn])

    def newest_copies(self, num_lpns: int) -> "np.ndarray":
        """Columnar :meth:`latest_version_of` for every LPN below ``num_lpns``.

        Returns the PPN of each LPN's newest valid data copy (``-1`` where it
        has none) from one scatter-max of the version column; write versions
        are unique, so exactly one live page per LPN attains the maximum.
        """
        state = np.frombuffer(self._page_state, dtype=np.uint8)
        translation = np.frombuffer(self._page_translation, dtype=np.uint8)
        lpns = np.frombuffer(self._page_lpn, dtype=np.int64)
        versions = np.frombuffer(self._page_version, dtype=np.int64)
        live = np.flatnonzero(
            (state == PAGE_VALID) & (translation == 0) & (lpns >= 0) & (lpns < num_lpns)
        )
        live_lpns, live_versions = lpns[live], versions[live]
        newest_version = np.full(num_lpns, _NONE, dtype=np.int64)
        np.maximum.at(newest_version, live_lpns, live_versions)
        winners = live_versions == newest_version[live_lpns]
        newest = np.full(num_lpns, _NONE, dtype=np.int64)
        newest[live_lpns[winners]] = live[winners]
        return newest
