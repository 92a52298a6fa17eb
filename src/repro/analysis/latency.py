"""Latency and throughput post-processing helpers.

The heavy lifting (percentile digests) lives on
:class:`~repro.ssd.stats.SimulationStats`; the helpers here operate across runs:
normalizing a metric to a baseline FTL and building the percentile rows that
the tail-latency figures print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ssd.stats import SimulationStats

__all__ = ["TailLatencyRow", "tail_latency_row", "normalize"]


@dataclass(frozen=True)
class TailLatencyRow:
    """P99/P99.9 latencies of one FTL under one trace (Figure 21)."""

    ftl: str
    workload: str
    p99_ms: float
    p999_ms: float
    mean_ms: float

    def as_dict(self) -> dict[str, float | str]:
        """Row dictionary used by the report tables."""
        return {
            "ftl": self.ftl,
            "workload": self.workload,
            "p99_ms": round(self.p99_ms, 3),
            "p999_ms": round(self.p999_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
        }


def tail_latency_row(ftl: str, workload: str, stats: SimulationStats) -> TailLatencyRow:
    """Extract the Figure 21 row from a finished run (read latencies only)."""
    digest = stats.read_latency_digest()
    return TailLatencyRow(
        ftl=ftl,
        workload=workload,
        p99_ms=digest.p99_us / 1000.0,
        p999_ms=digest.p999_us / 1000.0,
        mean_ms=digest.mean_us / 1000.0,
    )


def normalize(values: dict[str, float], baseline: str) -> dict[str, float]:
    """Normalize a per-FTL metric to a baseline FTL (baseline becomes 1.0).

    A zero baseline cannot hide behind all-zero rows: the baseline still maps
    to 1.0 and every other entry becomes ``inf`` (or ``nan`` for 0/0), keeping
    the degenerate measurement visible in the figure tables.
    """
    if baseline not in values:
        raise KeyError(f"baseline {baseline!r} missing from {sorted(values)}")
    base = values[baseline]
    if base == 0:
        return {
            key: 1.0 if key == baseline else math.copysign(math.inf, value) if value else math.nan
            for key, value in values.items()
        }
    return {key: value / base for key, value in values.items()}

