"""SSD device model: requests, timing engine, statistics, energy and the SSD façade.

The device façade (:class:`repro.ssd.device.SSD`) depends on the FTL classes in
:mod:`repro.core`, while the FTLs depend on the request/stat types defined
here.  To keep ``from repro.ssd import SSD`` working without a circular import,
the device symbols are loaded lazily via module ``__getattr__``.
"""

from repro.ssd.energy import EnergyBreakdown, EnergyModel
from repro.ssd.engine import ChipTimeline, TimingEngine
from repro.ssd.request import CommandKind, CommandPurpose, HostRequest, OpType, ReadOutcome
from repro.ssd.stats import GCEvent, LatencyDigest, SimulationStats

__all__ = [
    "SSD",
    "RunResult",
    "FTL_REGISTRY",
    "create_ftl",
    "available_ftls",
    "EnergyModel",
    "EnergyBreakdown",
    "TimingEngine",
    "ChipTimeline",
    "HostRequest",
    "OpType",
    "CommandKind",
    "CommandPurpose",
    "ReadOutcome",
    "GCEvent",
    "LatencyDigest",
    "SimulationStats",
]

_LAZY_DEVICE_EXPORTS = {"SSD", "RunResult", "FTL_REGISTRY", "create_ftl", "available_ftls"}


def __getattr__(name: str):
    """Resolve device-level exports lazily to avoid a core <-> ssd import cycle."""
    if name in _LAZY_DEVICE_EXPORTS:
        from repro.ssd import device

        return getattr(device, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
