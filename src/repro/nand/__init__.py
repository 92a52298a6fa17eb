"""NAND flash substrate: geometry, addressing, timing and page-state tracking."""

from repro.nand.address import AddressCodec, FlashAddress
from repro.nand.errors import (
    AllocationError,
    ConfigurationError,
    FlashStateError,
    GeometryError,
    MappingError,
    OutOfSpaceError,
    ReproError,
    TraceFormatError,
)
from repro.nand.flash import FlashArray, PageState
from repro.nand.geometry import GEOMETRY_PRESETS, SSDGeometry
from repro.nand.timing import TimingModel

__all__ = [
    "AddressCodec",
    "FlashAddress",
    "SSDGeometry",
    "GEOMETRY_PRESETS",
    "TimingModel",
    "FlashArray",
    "PageState",
    "ReproError",
    "GeometryError",
    "FlashStateError",
    "AllocationError",
    "OutOfSpaceError",
    "MappingError",
    "TraceFormatError",
    "ConfigurationError",
]
