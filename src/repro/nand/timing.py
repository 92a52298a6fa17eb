"""NAND and controller timing parameters.

All times are in **microseconds** and all simulated clocks in the package share
that unit.  The defaults match the FEMU configuration used in the paper
(Section IV-A): 40 us NAND read, 200 us NAND program, 2 ms NAND erase.

The computation-cost constants come from Figure 15 of the paper, measured on an
ARM Cortex-A72 (the class of CPU found in real SSD controllers): roughly 50 us
for sorting plus training one GTD entry's model during GC, and 0.65 us for a
single model prediction.  They are charged on the simulated timeline by
LearnedFTL (and can be disabled to reproduce Figure 18a).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nand.fields import Checked, NonNegativeFloat

__all__ = ["TimingModel", "US_PER_S", "MS_PER_S"]

US_PER_S = 1_000_000.0
MS_PER_S = 1_000.0


@dataclass(frozen=True)
class TimingModel(Checked):
    """Latency constants for flash operations and controller computation.

    Attributes
    ----------
    read_us / program_us / erase_us:
        NAND array operation latencies.
    channel_transfer_us:
        Time to move one page over the channel bus.  FEMU's default model folds
        this into the NAND latency, so it defaults to 0; it exists so that
        bus-contention studies can be run without touching the engine.
    sort_us_per_entry / train_us_per_entry:
        Controller CPU cost charged per GTD entry when LearnedFTL sorts valid
        mappings and fits its piece-wise linear model during GC (Figure 15
        reports ~50 us for the pair at maximum complexity; we split it).
    predict_us:
        Controller CPU cost of a single learned-model prediction (0.65 us).
    bitmap_check_us:
        Cost of a bitmap-filter check; negligible, kept for completeness.

    Every time must be finite and >= 0 (checked when built).
    """

    read_us: NonNegativeFloat = 40.0
    program_us: NonNegativeFloat = 200.0
    erase_us: NonNegativeFloat = 2000.0
    channel_transfer_us: NonNegativeFloat = 0.0
    sort_us_per_entry: NonNegativeFloat = 20.0
    train_us_per_entry: NonNegativeFloat = 30.0
    predict_us: NonNegativeFloat = 0.65
    bitmap_check_us: NonNegativeFloat = 0.0

    @classmethod
    def femu_default(cls) -> "TimingModel":
        """The FEMU default latencies used throughout the paper."""
        return cls()

    def latency_of(self, kind: str) -> float:
        """Return the latency of a flash command kind (``read``/``program``/``erase``)."""
        if kind == "read":
            return self.read_us + self.channel_transfer_us
        if kind == "program":
            return self.program_us + self.channel_transfer_us
        if kind == "erase":
            return self.erase_us
        raise ValueError(f"unknown flash command kind: {kind!r}")
