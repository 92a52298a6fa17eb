"""Statistics collected while driving an FTL.

A single :class:`SimulationStats` instance is shared by the device, the timing
engine and the FTL.  Everything the paper's figures report is derived from it:

* read classification (single / double / triple reads, CMT hits, model hits)
  for Figures 6(b), 14(b) and 19(b);
* flash-command breakdown and write amplification for Figure 14(c);
* GC invocation timestamps for Figure 16 and GC time breakdown for Figure 17;
* per-request latencies for the throughput and tail-latency figures
  (Figures 14(a), 18, 19(a), 20 and 21);
* controller-computation time for Figures 15, 17 and 18(a);
* flash-operation energy for Figure 22.

Flash commands and read outcomes are bucketed from their **integer codes**
(see :mod:`repro.ssd.request`) into flat count arrays that the hot paths —
the timing engine's loops and the batched read planner — increment inline.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.ssd.request import (
    NUM_COMMAND_CODES,
    NUM_PURPOSES,
    CommandKind,
    ReadOutcome,
)

__all__ = ["GCEvent", "LatencyDigest", "SimulationStats"]

#: Number of distinct read-outcome codes.
_NUM_OUTCOMES = len(ReadOutcome)


@dataclass(frozen=True)
class GCEvent:
    """Record of one garbage-collection invocation."""

    time_us: float
    blocks_erased: int
    pages_moved: int
    translation_pages_written: int
    flash_time_us: float
    compute_time_us: float
    group: int | None = None


@dataclass
class LatencyDigest:
    """Summary statistics over a latency population (microseconds)."""

    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    p999_us: float
    max_us: float

    @classmethod
    def from_samples(cls, samples: "np.ndarray | array | list[float]") -> "LatencyDigest":
        """Build a digest from raw samples; empty input yields an all-zero digest.

        The samples are copied, so an ``array('d')`` column stays appendable.
        """
        arr = np.array(samples, dtype=np.float64)
        if arr.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        p50, p95, p99, p999 = np.percentile(arr, (50, 95, 99, 99.9)).tolist()
        return cls(
            count=int(arr.size),
            mean_us=float(arr.mean()),
            p50_us=p50,
            p95_us=p95,
            p99_us=p99,
            p999_us=p999,
            max_us=float(arr.max()),
        )


@dataclass
class SimulationStats:
    """Mutable counters accumulated over one simulation run."""

    #: Page size in bytes, set by the owning device; used for throughput figures.
    page_size: int = 4096

    # Host level -----------------------------------------------------------
    host_read_requests: int = 0
    host_write_requests: int = 0
    host_read_pages: int = 0
    host_write_pages: int = 0

    # Flash command / outcome buckets ---------------------------------------
    #: Commands counted by flat integer code (kind * NUM_PURPOSES + purpose);
    #: incremented directly by the timing engine's buffer hot loop.
    command_counts: list[int] = field(default_factory=lambda: [0] * NUM_COMMAND_CODES)
    #: Host page reads counted by :class:`ReadOutcome` code.
    outcome_counts: list[int] = field(default_factory=lambda: [0] * _NUM_OUTCOMES)

    # Read-path classification ----------------------------------------------
    cmt_lookups: int = 0
    cmt_hits: int = 0
    model_lookups: int = 0
    model_hits: int = 0

    # GC ---------------------------------------------------------------------
    gc_events: list[GCEvent] = field(default_factory=list)

    # Controller computation --------------------------------------------------
    sort_time_us: float = 0.0
    train_time_us: float = 0.0
    predict_time_us: float = 0.0
    predictions: int = 0
    models_trained: int = 0

    # Latency / time ----------------------------------------------------------
    #: Per-request latencies by direction, in the order the device served them.
    #: Readers copy (``np.array(column)``): a live buffer view would make the
    #: next append raise ``BufferError``.
    read_latencies_us: array = field(default_factory=lambda: array("d"))
    write_latencies_us: array = field(default_factory=lambda: array("d"))
    finish_time_us: float = 0.0

    # Chip occupancy (wired by the timing engine) ------------------------------
    #: Number of chips in the device driving these stats (0 = no engine bound).
    num_chips: int = 0
    #: Per-chip busy time; aliased to the engine timeline's accumulator so the
    #: values are always current without per-command bookkeeping here.
    chip_busy_time_us: list[float] = field(default_factory=list)

    # ------------------------------------------------------------ recording
    def record_latency(self, is_read: bool, latency_us: float) -> None:
        """Record the completion latency of one host request.

        The single bulk-capable accounting path of the latency populations:
        the closed-loop runner, the open-loop replayer and ``submit`` all call
        this (or :meth:`record_latencies` for the read kernel), so the request
        step and the read kernel cannot drift in how latencies land.
        """
        if is_read:
            self.read_latencies_us.append(latency_us)
        else:
            self.write_latencies_us.append(latency_us)

    def record_latencies(self, is_read: bool, latencies_us: "Iterable[float]") -> None:
        """Record a batch of same-direction request latencies at once."""
        if is_read:
            self.read_latencies_us.extend(latencies_us)
        else:
            self.write_latencies_us.extend(latencies_us)

    # ------------------------------------------------------ snapshot support
    def state_dict(self) -> dict[str, Any]:
        """Capture every counter and latency population.

        ``num_chips`` / ``chip_busy_time_us`` are deliberately excluded: they
        are owned (and aliased) by the timing engine, which the device
        snapshots separately.
        """
        events = self.gc_events
        return {
            "page_size": self.page_size,
            "host_read_requests": self.host_read_requests,
            "host_write_requests": self.host_write_requests,
            "host_read_pages": self.host_read_pages,
            "host_write_pages": self.host_write_pages,
            "command_counts": np.asarray(self.command_counts, dtype=np.int64),
            "outcome_counts": np.asarray(self.outcome_counts, dtype=np.int64),
            "cmt_lookups": self.cmt_lookups,
            "cmt_hits": self.cmt_hits,
            "model_lookups": self.model_lookups,
            "model_hits": self.model_hits,
            "gc_time_us": np.asarray([e.time_us for e in events], dtype=np.float64),
            "gc_blocks_erased": np.asarray([e.blocks_erased for e in events], dtype=np.int64),
            "gc_pages_moved": np.asarray([e.pages_moved for e in events], dtype=np.int64),
            "gc_translation_pages": np.asarray(
                [e.translation_pages_written for e in events], dtype=np.int64
            ),
            "gc_flash_time_us": np.asarray([e.flash_time_us for e in events], dtype=np.float64),
            "gc_compute_time_us": np.asarray(
                [e.compute_time_us for e in events], dtype=np.float64
            ),
            "gc_group": np.asarray(
                [-1 if e.group is None else e.group for e in events], dtype=np.int64
            ),
            "sort_time_us": self.sort_time_us,
            "train_time_us": self.train_time_us,
            "predict_time_us": self.predict_time_us,
            "predictions": self.predictions,
            "models_trained": self.models_trained,
            "read_latencies_us": np.array(self.read_latencies_us, dtype=np.float64),
            "write_latencies_us": np.array(self.write_latencies_us, dtype=np.float64),
            "finish_time_us": self.finish_time_us,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore counters **in place** (the engine aliases the count arrays)."""
        self.page_size = int(state["page_size"])
        self.host_read_requests = int(state["host_read_requests"])
        self.host_write_requests = int(state["host_write_requests"])
        self.host_read_pages = int(state["host_read_pages"])
        self.host_write_pages = int(state["host_write_pages"])
        self.command_counts[:] = state["command_counts"].tolist()
        self.outcome_counts[:] = state["outcome_counts"].tolist()
        self.cmt_lookups = int(state["cmt_lookups"])
        self.cmt_hits = int(state["cmt_hits"])
        self.model_lookups = int(state["model_lookups"])
        self.model_hits = int(state["model_hits"])
        self.gc_events[:] = [
            GCEvent(
                time_us=time_us,
                blocks_erased=blocks,
                pages_moved=pages,
                translation_pages_written=translation,
                flash_time_us=flash_time,
                compute_time_us=compute_time,
                group=None if group < 0 else group,
            )
            for time_us, blocks, pages, translation, flash_time, compute_time, group in zip(
                state["gc_time_us"].tolist(),
                state["gc_blocks_erased"].tolist(),
                state["gc_pages_moved"].tolist(),
                state["gc_translation_pages"].tolist(),
                state["gc_flash_time_us"].tolist(),
                state["gc_compute_time_us"].tolist(),
                state["gc_group"].tolist(),
            )
        ]
        self.sort_time_us = float(state["sort_time_us"])
        self.train_time_us = float(state["train_time_us"])
        self.predict_time_us = float(state["predict_time_us"])
        self.predictions = int(state["predictions"])
        self.models_trained = int(state["models_trained"])
        for name in ("read_latencies_us", "write_latencies_us"):
            getattr(self, name)[:] = array("d", np.asarray(state[name], np.float64).tobytes())
        self.finish_time_us = float(state["finish_time_us"])

    # ------------------------------------------------------------- derived
    @property
    def total_flash_reads(self) -> int:
        """Total NAND read commands issued."""
        base = CommandKind.READ.code * NUM_PURPOSES
        return sum(self.command_counts[base : base + NUM_PURPOSES])

    @property
    def total_flash_programs(self) -> int:
        """Total NAND program commands issued."""
        base = CommandKind.PROGRAM.code * NUM_PURPOSES
        return sum(self.command_counts[base : base + NUM_PURPOSES])

    @property
    def total_flash_erases(self) -> int:
        """Total NAND erase commands issued."""
        base = CommandKind.ERASE.code * NUM_PURPOSES
        return sum(self.command_counts[base : base + NUM_PURPOSES])

    @property
    def gc_count(self) -> int:
        """Number of GC invocations."""
        return len(self.gc_events)

    @property
    def gc_pages_moved(self) -> int:
        """Total valid pages migrated by GC."""
        return sum(e.pages_moved for e in self.gc_events)

    def write_amplification(self) -> float:
        """(host + GC + translation) programs divided by host page writes."""
        if self.host_write_pages == 0:
            return 0.0
        return self.total_flash_programs / self.host_write_pages

    def cmt_hit_ratio(self) -> float:
        """Fraction of mapping lookups served from the cached mapping table."""
        if self.cmt_lookups == 0:
            return 0.0
        return self.cmt_hits / self.cmt_lookups

    def model_hit_ratio(self) -> float:
        """Fraction of host page reads resolved by an accurate model prediction."""
        reads = sum(self.outcome_counts)
        if reads == 0:
            return 0.0
        return self.outcome_counts[ReadOutcome.MODEL_HIT.code] / reads

    def outcome_fractions(self) -> dict[str, float]:
        """Per-outcome fraction of host page reads (single/double/triple breakdown)."""
        counts = self.outcome_counts
        total = sum(counts)
        if total == 0:
            return {outcome.value: 0.0 for outcome in ReadOutcome}
        return {outcome.value: counts[outcome.code] / total for outcome in ReadOutcome}

    def single_read_fraction(self) -> float:
        """Fraction of host page reads needing exactly one flash read (or none)."""
        fractions = self.outcome_fractions()
        return (
            fractions[ReadOutcome.BUFFER_HIT.value]
            + fractions[ReadOutcome.CMT_HIT.value]
            + fractions[ReadOutcome.MODEL_HIT.value]
        )

    def double_read_fraction(self) -> float:
        """Fraction of host page reads classified as double reads."""
        return self.outcome_fractions()[ReadOutcome.DOUBLE_READ.value]

    def triple_read_fraction(self) -> float:
        """Fraction of host page reads classified as triple reads."""
        return self.outcome_fractions()[ReadOutcome.TRIPLE_READ.value]

    def read_latency_digest(self) -> LatencyDigest:
        """Latency digest over host read requests."""
        return LatencyDigest.from_samples(self.read_latencies_us)

    def write_latency_digest(self) -> LatencyDigest:
        """Latency digest over host write requests."""
        return LatencyDigest.from_samples(self.write_latencies_us)

    def throughput_mb_s(self, page_size: int | None = None) -> float:
        """Host throughput in MB/s over the simulated run time."""
        if self.finish_time_us <= 0.0:
            return 0.0
        size = self.page_size if page_size is None else page_size
        total_bytes = (self.host_read_pages + self.host_write_pages) * size
        seconds = self.finish_time_us / 1_000_000.0
        return total_bytes / seconds / 1_000_000.0

    def iops(self) -> float:
        """Host requests completed per simulated second."""
        if self.finish_time_us <= 0.0:
            return 0.0
        requests = self.host_read_requests + self.host_write_requests
        return requests / (self.finish_time_us / 1_000_000.0)

    def utilization(self) -> float:
        """Average fraction of the run the flash chips spent busy.

        Derived from the engine timeline's per-chip busy time; 0.0 when no
        engine is bound to these stats (bare unit-test instances).
        """
        if self.finish_time_us <= 0.0 or self.num_chips <= 0:
            return 0.0
        return sum(self.chip_busy_time_us) / (self.finish_time_us * self.num_chips)

    def compute_time_us(self) -> float:
        """Total controller computation time charged (sort + train + predict)."""
        return self.sort_time_us + self.train_time_us + self.predict_time_us

    def summary(self) -> dict[str, float]:
        """Return a flat dictionary of headline metrics, used by reports and tests."""
        read_digest = self.read_latency_digest()
        write_digest = self.write_latency_digest()
        return {
            "host_read_pages": float(self.host_read_pages),
            "host_write_pages": float(self.host_write_pages),
            "flash_reads": float(self.total_flash_reads),
            "flash_programs": float(self.total_flash_programs),
            "flash_erases": float(self.total_flash_erases),
            "write_amplification": self.write_amplification(),
            "cmt_hit_ratio": self.cmt_hit_ratio(),
            "model_hit_ratio": self.model_hit_ratio(),
            "single_read_fraction": self.single_read_fraction(),
            "double_read_fraction": self.double_read_fraction(),
            "triple_read_fraction": self.triple_read_fraction(),
            "gc_count": float(self.gc_count),
            "gc_pages_moved": float(self.gc_pages_moved),
            "throughput_mb_s": self.throughput_mb_s(),
            "iops": self.iops(),
            "read_p99_us": read_digest.p99_us,
            "read_p999_us": read_digest.p999_us,
            "write_p99_us": write_digest.p99_us,
            "write_p999_us": write_digest.p999_us,
            "utilization": self.utilization(),
            "finish_time_us": self.finish_time_us,
        }
