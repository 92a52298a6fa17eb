"""Calibrated slice timing for the ledger benchmark.

Host time on a shared sandbox swings by tens of percent between back-to-back
runs of identical code, so every timed region is cut into *slices* and each
slice is bracketed by a short calibration probe (a fixed pure-Python kernel).
A slice's calibrated time is::

    wall * mean(probe rate before, probe rate after) / CAL_REF

i.e. the seconds the slice would have taken on a machine that runs the probe
at exactly :data:`CAL_REF` iterations per second.  The host time of a region
is the **sum** of its calibrated slice times (slices are heterogeneous — GC
bursts, shard tasks — so a median would drop real work).
"""

from __future__ import annotations

import statistics
import time
from array import array
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["CAL_REF", "PROBE_ITERATIONS", "Slice", "SliceClock", "probe_rate", "spread"]

#: Reference probe rate (iterations/s) calibrated times are normalised to.
#: Fixed in the benchmark so reports from different days compare directly.
CAL_REF = 2.0e6

#: Iterations of one probe: ~30 ms at :data:`CAL_REF`.
PROBE_ITERATIONS = 60_000

#: A probe taken less than this long ago is reused as the next slice's
#: "before" probe (back-to-back slices share one probe).
_PROBE_REUSE_S = 0.010


@lru_cache(maxsize=None)
def _probe_tables() -> "tuple[array, dict[int, int]]":
    """A 4 MiB integer column and a 65 536-entry dict for :func:`probe_rate`."""
    return array("q", range(1 << 19)), {i: i for i in range(1 << 16)}


def probe_rate(iterations: int = PROBE_ITERATIONS) -> float:
    """Iterations/s of the calibration kernel right now.

    Each iteration does what the simulator's hot loops do per request: integer
    arithmetic, a read-modify-write at a pseudo-random index of a column too
    large for the private caches, a small allocation and a dict lookup.  The
    ``perf_smoke.calibration_score`` kernel (arithmetic on a 64-entry list)
    stays in the first-level cache and so does not slow down when a
    neighbour contends for the shared cache, while the simulator does; on ten
    runs each of two workloads this kernel left 0.6-0.7x the run-to-run
    spread that kernel left (README, "Timing method").
    """
    column, table = _probe_tables()
    j = 12345
    acc = 0
    t0 = time.perf_counter()
    for _ in range(iterations):
        j = (j * 1103515245 + 12345) & 524287
        acc = (acc + column[j]) & 0xFFFFFFFF
        column[j] = acc
        pair = (j, acc)
        acc = (acc + table[pair[0] & 65535]) & 0xFFFFFFFF
    return iterations / (time.perf_counter() - t0)


def spread(values: "list[float]") -> float:
    """Inter-quartile distance as a share of the median (0.0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


@dataclass
class Slice:
    """One timed slice: raw and calibrated seconds plus its operation counts."""

    phase: str
    wall_s: float
    cal_s: float
    attempted: int
    completed: int


class SliceClock:
    """Times slices between :meth:`start` and :meth:`stop`, probing around each.

    ``phase`` names what is being timed (``"setup"`` or ``"timed"``) and is
    ``None`` between slices; the tracer's wrappers and sampler read it so they
    record only inside measured regions.  ``len(clock.slices)`` is the running
    slice's id.
    """

    def __init__(self, probe_iterations: int = PROBE_ITERATIONS) -> None:
        self.probe_iterations = probe_iterations
        self.slices: list[Slice] = []
        self.probe_rates: list[float] = []
        self.phase: str | None = None
        #: ``[phase is not None]``: the same fact as a one-element list, which
        #: the tracer's wrappers read on every call (an index, not an attribute).
        self.running = [False]
        #: When set, :meth:`stop` raises :class:`SliceLimit` once this many
        #: slices have finished (used to run "one extra slice").
        self.limit: int | None = None
        self._rate_before = 0.0
        self._last_probe_end = float("-inf")
        self._t0 = 0.0

    def _probe(self) -> float:
        rate = probe_rate(self.probe_iterations)
        self.probe_rates.append(rate)
        self._last_probe_end = time.perf_counter()
        return rate

    def start(self, phase: str = "timed") -> None:
        """Begin a slice of ``phase`` (probing first unless one just finished)."""
        if time.perf_counter() - self._last_probe_end > _PROBE_REUSE_S:
            self._probe()
        self._rate_before = self.probe_rates[-1]
        self.phase = phase
        self.running[0] = True
        self._t0 = time.perf_counter()

    def stop(self, attempted: int = 0, completed: int = 0) -> Slice:
        """End the running slice, probe, and record its calibrated time."""
        wall = time.perf_counter() - self._t0
        phase, self.phase = self.phase, None
        self.running[0] = False
        rate_after = self._probe()
        entry = Slice(
            phase=phase,
            wall_s=wall,
            cal_s=wall * (self._rate_before + rate_after) / 2.0 / CAL_REF,
            attempted=attempted,
            completed=completed,
        )
        self.slices.append(entry)
        if self.limit is not None and len(self.slices) >= self.limit:
            raise SliceLimit
        return entry

    def of_phase(self, phase: str) -> "list[Slice]":
        """The finished slices of one phase, in order."""
        return [entry for entry in self.slices if entry.phase == phase]


class SliceLimit(Exception):
    """Raised by :meth:`SliceClock.stop` when the clock's slice limit is reached."""
