"""Physical and virtual page-number codecs.

Two numbering schemes are used throughout the simulator:

* **PPN (physical page number)** — the hierarchical address used by the flash
  array.  Fields are concatenated from the most significant (channel) to the
  least significant (page), mirroring Figure 11 of the paper::

      ppn = ((((channel * CHIPS + chip) * PLANES + plane) * BLOCKS + block)
             * PAGES + page)

* **VPPN (virtual page number)** — Section III-C of the paper.  The same
  address fields are re-ordered so that the *allocation order* (channel first,
  then chip, plane, page and finally block — the fastest write-striping order
  from Hu et al. [13]) becomes the numeric order.  Pages written back-to-back
  by the striping allocator therefore receive *consecutive* VPPNs, which is
  what makes linear LPN->VPPN models learnable even though the raw PPNs are
  scattered across parallel units.

Both codecs are pure bijections over ``range(num_physical_pages)``; the
property-based tests in ``tests/test_address.py`` verify the round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.nand.errors import GeometryError
from repro.nand.geometry import SSDGeometry

__all__ = ["FlashAddress", "AddressCodec"]


@dataclass(frozen=True)
class FlashAddress:
    """A fully decoded physical flash address."""

    channel: int
    chip: int
    plane: int
    block: int
    page: int


class AddressCodec:
    """Translate between PPNs, VPPNs and decoded :class:`FlashAddress` values.

    The codec also exposes the flat *chip index* and flat *block index* used by
    the timing engine and the flash array respectively.
    """

    def __init__(self, geometry: SSDGeometry) -> None:
        self.geometry = geometry
        g = geometry
        # Strides for the PPN encoding (channel most significant).
        self._ppn_page_stride = 1
        self._ppn_block_stride = g.pages_per_block
        self._ppn_plane_stride = self._ppn_block_stride * g.blocks_per_plane
        self._ppn_chip_stride = self._ppn_plane_stride * g.planes_per_chip
        self._ppn_channel_stride = self._ppn_chip_stride * g.chips_per_channel
        # Strides for the VPPN encoding (channel least significant).
        self._vppn_channel_stride = 1
        self._vppn_chip_stride = g.channels
        self._vppn_plane_stride = self._vppn_chip_stride * g.chips_per_channel
        self._vppn_page_stride = self._vppn_plane_stride * g.planes_per_chip
        self._vppn_block_stride = self._vppn_page_stride * g.pages_per_block
        # Cached scalars for the arithmetic-only hot paths below.
        self._num_physical_pages = g.num_physical_pages
        self._num_blocks = g.num_blocks
        self._pages_per_block = g.pages_per_block

    # ------------------------------------------------------------------- PPN
    def encode_ppn(self, address: FlashAddress) -> int:
        """Encode a decoded address into its physical page number."""
        self._check_fields(address)
        return (
            address.channel * self._ppn_channel_stride
            + address.chip * self._ppn_chip_stride
            + address.plane * self._ppn_plane_stride
            + address.block * self._ppn_block_stride
            + address.page
        )

    def decode_ppn(self, ppn: int) -> FlashAddress:
        """Decode a physical page number into its hierarchy fields."""
        self.geometry.check_ppn(ppn)
        g = self.geometry
        page = ppn % g.pages_per_block
        rest = ppn // g.pages_per_block
        block = rest % g.blocks_per_plane
        rest //= g.blocks_per_plane
        plane = rest % g.planes_per_chip
        rest //= g.planes_per_chip
        chip = rest % g.chips_per_channel
        channel = rest // g.chips_per_channel
        return FlashAddress(channel=channel, chip=chip, plane=plane, block=block, page=page)

    def checked_ppns(self, ppns: "np.ndarray") -> "np.ndarray":
        """``ppns`` as an int64 column, validated like :meth:`decode_ppn`.

        The columnar entry points below and in the flash array gather with
        these page numbers; a negative one would silently wrap around, so the
        first page number outside the device raises :class:`GeometryError`.
        """
        ppns = np.asarray(ppns, dtype=np.int64)
        outside = (ppns < 0) | (ppns >= self._num_physical_pages)
        if outside.any():
            self.geometry.check_ppn(int(ppns[np.argmax(outside)]))
        return ppns

    # ------------------------------------------------------------------ VPPN
    def ppn_to_vppn(self, ppn: int) -> int:
        """Translate a physical page number to its virtual page number."""
        if not 0 <= ppn < self._num_physical_pages:
            self.geometry.check_ppn(ppn)
        g = self.geometry
        page = ppn % g.pages_per_block
        rest = ppn // g.pages_per_block
        block = rest % g.blocks_per_plane
        rest //= g.blocks_per_plane
        plane = rest % g.planes_per_chip
        rest //= g.planes_per_chip
        chip = rest % g.chips_per_channel
        channel = rest // g.chips_per_channel
        return (
            channel * self._vppn_channel_stride
            + chip * self._vppn_chip_stride
            + plane * self._vppn_plane_stride
            + page * self._vppn_page_stride
            + block * self._vppn_block_stride
        )

    def vppn_to_ppn(self, vppn: int) -> int:
        """Translate a virtual page number back to its physical page number."""
        if not 0 <= vppn < self._num_physical_pages:
            self.geometry.check_ppn(vppn)  # same range as PPNs
        g = self.geometry
        channel = vppn % g.channels
        rest = vppn // g.channels
        chip = rest % g.chips_per_channel
        rest //= g.chips_per_channel
        plane = rest % g.planes_per_chip
        rest //= g.planes_per_chip
        page = rest % g.pages_per_block
        block = rest // g.pages_per_block
        return (
            channel * self._ppn_channel_stride
            + chip * self._ppn_chip_stride
            + plane * self._ppn_plane_stride
            + block * self._ppn_block_stride
            + page
        )

    def ppn_to_vppn_many(self, ppns: "np.ndarray") -> "np.ndarray":
        """Columnar :meth:`ppn_to_vppn`: translate a whole PPN column at once."""
        ppns = self.checked_ppns(ppns)
        g = self.geometry
        rest, page = np.divmod(ppns, g.pages_per_block)
        rest, block = np.divmod(rest, g.blocks_per_plane)
        rest, plane = np.divmod(rest, g.planes_per_chip)
        channel, chip = np.divmod(rest, g.chips_per_channel)
        return (
            channel * self._vppn_channel_stride
            + chip * self._vppn_chip_stride
            + plane * self._vppn_plane_stride
            + page * self._vppn_page_stride
            + block * self._vppn_block_stride
        )

    def vppn_to_ppn_many(self, vppns: "np.ndarray") -> "np.ndarray":
        """Columnar :meth:`vppn_to_ppn`: translate a whole VPPN column at once."""
        vppns = self.checked_ppns(vppns)  # same range as PPNs
        g = self.geometry
        rest, channel = np.divmod(vppns, g.channels)
        rest, chip = np.divmod(rest, g.chips_per_channel)
        rest, plane = np.divmod(rest, g.planes_per_chip)
        block, page = np.divmod(rest, g.pages_per_block)
        return (
            channel * self._ppn_channel_stride
            + chip * self._ppn_chip_stride
            + plane * self._ppn_plane_stride
            + block * self._ppn_block_stride
            + page
        )

    # -------------------------------------------------------------- flat ids
    def chip_index(self, ppn: int) -> int:
        """Return the flat chip (parallel unit) index owning ``ppn``."""
        if not 0 <= ppn < self._num_physical_pages:
            self.geometry.check_ppn(ppn)
        # Channel and chip are the two most significant PPN fields, so the flat
        # chip index is a single integer division.
        return ppn // self._ppn_chip_stride

    def channel_index(self, ppn: int) -> int:
        """Return the channel index owning ``ppn``."""
        return self.decode_ppn(ppn).channel

    def block_index(self, ppn: int) -> int:
        """Return the flat erase-block index containing ``ppn``."""
        return ppn // self._pages_per_block

    def block_of(self, address: FlashAddress) -> int:
        """Return the flat erase-block index of a decoded address."""
        return self.encode_ppn(address) // self._pages_per_block

    def block_base_ppn(self, block: int) -> int:
        """Return the first PPN of the given flat block index."""
        if not 0 <= block < self._num_blocks:
            self.geometry.check_block(block)
        return block * self._pages_per_block

    def block_ppns(self, block: int) -> range:
        """Return the range of PPNs belonging to the given flat block index."""
        base = self.block_base_ppn(block)
        return range(base, base + self._pages_per_block)

    def chip_of_block(self, block: int) -> int:
        """Return the flat chip index owning the given flat block index."""
        return self.chip_index(self.block_base_ppn(block))

    def blocks_of_chip(self, chip: int) -> Iterable[int]:
        """Yield the flat block indices located on the given flat chip index."""
        g = self.geometry
        if not 0 <= chip < g.num_chips:
            raise GeometryError(f"chip {chip} out of range [0, {g.num_chips})")
        blocks_per_chip = g.blocks_per_chip
        first = chip * blocks_per_chip
        return range(first, first + blocks_per_chip)

    # ------------------------------------------------------------- internals
    def _check_fields(self, address: FlashAddress) -> None:
        g = self.geometry
        limits = (
            ("channel", address.channel, g.channels),
            ("chip", address.chip, g.chips_per_channel),
            ("plane", address.plane, g.planes_per_chip),
            ("block", address.block, g.blocks_per_plane),
            ("page", address.page, g.pages_per_block),
        )
        for name, value, limit in limits:
            if not 0 <= value < limit:
                raise GeometryError(f"{name} {value} out of range [0, {limit})")
