"""SSD geometry description.

The geometry captures the physical hierarchy of a flash SSD exactly the way the
paper (and FEMU) describes it::

    channel -> chip (LUN / way) -> plane -> block -> page

Every physical flash page has a unique *physical page number* (PPN) obtained by
concatenating the hierarchy fields from most significant (channel) to least
significant (page).  The companion module :mod:`repro.nand.address` provides the
PPN <-> field codec and the virtual-PPN representation from Section III-C of the
paper.

The paper's evaluation platform is a 32 GB SSD with 8 channels x 8 ways,
256 blocks per chip, 512 pages per block and 4 KB pages.  That configuration is
available as :meth:`SSDGeometry.paper`; tests and benchmarks use much smaller
geometries built with :meth:`SSDGeometry.small`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Annotated

from repro.nand.errors import GeometryError
from repro.nand.fields import Bound, Checked, PositiveInt, check_value, one_of

__all__ = ["SSDGeometry", "GEOMETRY_PRESETS", "GeometryPreset"]

#: Named base geometries a study spec (or any caller) can start from; values
#: are the corresponding :class:`SSDGeometry` classmethod names.
GEOMETRY_PRESETS: tuple[str, ...] = ("small", "medium", "paper")
#: Declared type of a preset name (see :mod:`repro.nand.fields`).
GeometryPreset = Annotated[str, one_of(GEOMETRY_PRESETS)]


@dataclass(frozen=True)
class SSDGeometry(Checked):
    """Immutable description of the physical layout of a simulated SSD.

    Parameters
    ----------
    channels:
        Number of flash channels.
    chips_per_channel:
        Number of chips (LUNs / "ways") attached to each channel.
    planes_per_chip:
        Number of planes inside each chip.
    blocks_per_plane:
        Number of erase blocks per plane.
    pages_per_block:
        Number of program pages per erase block.
    page_size:
        Page size in bytes (default 4 KiB, as in the paper).
    op_ratio:
        Over-provisioning ratio: the fraction of physical pages *not* exposed
        as logical capacity.  The paper uses 32 GB logical + 2 GB OP, i.e. an
        OP ratio of roughly 1/17; we default to 0.07 which produces the same
        logical/physical split for the paper geometry.

    Every field is checked when built; a bad one raises :class:`GeometryError`.
    """

    field_error = GeometryError

    channels: PositiveInt
    chips_per_channel: PositiveInt
    planes_per_chip: PositiveInt
    blocks_per_plane: PositiveInt
    pages_per_block: PositiveInt
    page_size: PositiveInt = 4096
    op_ratio: Annotated[float, Bound("in [0, 0.9)", lambda value: 0 <= value < 0.9)] = 0.07

    # ------------------------------------------------------------------ sizes
    @cached_property
    def num_chips(self) -> int:
        """Total number of independent flash chips (parallel units)."""
        return self.channels * self.chips_per_channel

    @cached_property
    def num_planes(self) -> int:
        """Total number of planes in the device."""
        return self.num_chips * self.planes_per_chip

    @cached_property
    def blocks_per_chip(self) -> int:
        """Number of erase blocks per chip (across all its planes)."""
        return self.planes_per_chip * self.blocks_per_plane

    @cached_property
    def num_blocks(self) -> int:
        """Total number of erase blocks in the device."""
        return self.num_planes * self.blocks_per_plane

    @cached_property
    def pages_per_chip(self) -> int:
        """Number of physical pages per chip."""
        return self.blocks_per_chip * self.pages_per_block

    @cached_property
    def num_physical_pages(self) -> int:
        """Total number of physical pages in the device."""
        return self.num_blocks * self.pages_per_block

    @cached_property
    def physical_bytes(self) -> int:
        """Raw physical capacity in bytes."""
        return self.num_physical_pages * self.page_size

    @cached_property
    def num_logical_pages(self) -> int:
        """Number of logical pages exposed to the host (physical minus OP)."""
        return int(self.num_physical_pages * (1.0 - self.op_ratio))

    @cached_property
    def logical_bytes(self) -> int:
        """Logical (host-visible) capacity in bytes."""
        return self.num_logical_pages * self.page_size

    # ------------------------------------------------------- mapping metadata
    @cached_property
    def mappings_per_translation_page(self) -> int:
        """How many LPN->PPN entries fit in one translation page.

        The paper assumes 8-byte mapping entries, so a 4 KB translation page
        holds 512 mappings.
        """
        return self.page_size // 8

    @cached_property
    def num_translation_pages(self) -> int:
        """Number of translation pages (== number of GTD entries)."""
        per_page = self.mappings_per_translation_page
        return (self.num_logical_pages + per_page - 1) // per_page

    # ------------------------------------------------------------ constructors
    @classmethod
    def paper(cls) -> "SSDGeometry":
        """The configuration used in the paper's evaluation (Section IV-A).

        32 GB logical capacity plus ~2 GB over-provisioning, 64 chips
        (8 channels x 8 ways), 256 blocks per chip, 512 pages per block and
        4 KB pages.
        """
        return cls(
            channels=8,
            chips_per_channel=8,
            planes_per_chip=1,
            blocks_per_plane=256,
            pages_per_block=512,
            page_size=4096,
            op_ratio=0.0625,
        )

    @classmethod
    def small(
        cls,
        channels: int = 2,
        chips_per_channel: int = 2,
        planes_per_chip: int = 1,
        blocks_per_plane: int = 16,
        pages_per_block: int = 32,
        page_size: int = 1024,
        op_ratio: float = 0.25,
    ) -> "SSDGeometry":
        """A small geometry suitable for unit tests (a few thousand pages).

        Two knobs differ deliberately from the paper configuration so the tiny
        device behaves like a scaled-down version of the real one rather than a
        degenerate corner case:

        * the over-provisioning ratio is generous (25 %) because with only a
          few dozen blocks a realistic 7 % OP would leave garbage collection no
          headroom and every test would measure GC thrash;
        * the page size is 1 KiB so that a translation page holds 128 mappings,
          which keeps the "one GTD entry group fits in one stripe" property of
          the paper's full-scale layout (Section III-D) at this scale.
        """
        return cls(
            channels=channels,
            chips_per_channel=chips_per_channel,
            planes_per_chip=planes_per_chip,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=pages_per_block,
            page_size=page_size,
            op_ratio=op_ratio,
        )

    @classmethod
    def medium(cls) -> "SSDGeometry":
        """A mid-size geometry used by the default experiment scale.

        Roughly 1 GB of physical capacity: large enough for the FTL behaviours
        (CMT thrash, GC pressure, learned-model coverage) to look like the
        paper's, small enough to simulate in seconds.
        """
        return cls(
            channels=8,
            chips_per_channel=4,
            planes_per_chip=1,
            blocks_per_plane=32,
            pages_per_block=256,
            page_size=4096,
            op_ratio=0.0625,
        )

    @classmethod
    def preset(cls, name: str) -> "SSDGeometry":
        """Build one of the named base geometries (``small``/``medium``/``paper``).

        Unknown names raise :class:`GeometryError`; :data:`GEOMETRY_PRESETS`
        enumerates the valid ones.
        """
        check_value("geometry preset", name, GeometryPreset, GeometryError)
        return getattr(cls, name)()

    # ------------------------------------------------------------- validation
    def check_block(self, block: int) -> None:
        """Validate a flat block index, raising :class:`GeometryError` if bad."""
        if not 0 <= block < self.num_blocks:
            raise GeometryError(f"block {block} out of range [0, {self.num_blocks})")

    def check_ppn(self, ppn: int) -> None:
        """Validate a physical page number."""
        if not 0 <= ppn < self.num_physical_pages:
            raise GeometryError(
                f"ppn {ppn} out of range [0, {self.num_physical_pages})"
            )

    def check_lpn(self, lpn: int) -> None:
        """Validate a logical page number."""
        if not 0 <= lpn < self.num_logical_pages:
            raise GeometryError(f"lpn {lpn} out of range [0, {self.num_logical_pages})")

    def describe(self) -> str:
        """Return a human-readable multi-line description of the geometry."""
        gib = 1024 ** 3
        return (
            f"SSDGeometry: {self.channels} channels x {self.chips_per_channel} chips "
            f"x {self.planes_per_chip} planes x {self.blocks_per_plane} blocks "
            f"x {self.pages_per_block} pages x {self.page_size} B\n"
            f"  chips={self.num_chips} blocks={self.num_blocks} "
            f"pages={self.num_physical_pages}\n"
            f"  physical={self.physical_bytes / gib:.2f} GiB "
            f"logical={self.logical_bytes / gib:.2f} GiB "
            f"(OP {self.op_ratio * 100:.1f}%)\n"
            f"  translation pages={self.num_translation_pages} "
            f"({self.mappings_per_translation_page} mappings each)"
        )
