"""Figure 16: GC frequency over time under FIO writes.

The paper plots how often each FTL triggers garbage collection while random and
sequential writes run, showing that LearnedFTL's group-based allocation does not
increase the total number of GC invocations.  The harness buckets GC events
into time windows and also reports the totals.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.runner import ALL_FTLS, ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.fio import FioJob

__all__ = ["run"]


def run(
    scale: Scale | str = Scale.DEFAULT,
    *,
    ftls: tuple[str, ...] = ALL_FTLS,
    buckets: int = 8,
) -> ExperimentResult:
    """Reproduce Figure 16 (GC frequency over time, random then sequential writes)."""
    spec = ScaleSpec.for_scale(scale)
    result = ExperimentResult(
        name="fig16",
        description="GC invocations over time under FIO random and sequential writes",
    )
    series_rows: list[dict[str, object]] = []
    for ftl_name in ftls:
        row: dict[str, object] = {"ftl": ftl_name}
        for pattern in ("randwrite", "seqwrite"):
            ssd = prepare_ssd(ftl_name, spec, warmup="steady")
            job = FioJob.from_name(pattern, spec.write_requests)
            ssd.run(job.requests(spec.geometry), threads=spec.threads)
            events = ssd.stats.gc_events
            row[f"{pattern}_gc_total"] = len(events)
            row[f"{pattern}_blocks_erased"] = sum(e.blocks_erased for e in events)
            if events and ssd.stats.finish_time_us > 0:
                times = np.asarray([e.time_us for e in events])
                histogram, edges = np.histogram(
                    times, bins=buckets, range=(0.0, ssd.stats.finish_time_us)
                )
                for bucket_index, count in enumerate(histogram):
                    series_rows.append(
                        {
                            "ftl": ftl_name,
                            "pattern": pattern,
                            "bucket_start_ms": round(edges[bucket_index] / 1000.0, 1),
                            "gc_events": int(count),
                        }
                    )
        result.rows.append(row)
    result.extra_tables["fig16 time series (bucketed GC events)"] = series_rows
    result.notes.append(
        "Expected shape: LearnedFTL's total erased blocks under both write patterns is "
        "comparable to (not larger than) the other FTLs'."
    )
    return result


def warm_ups(spec: ScaleSpec, *, ftls: tuple[str, ...] = ALL_FTLS, **_: object) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name=ftl_name, spec=spec) for ftl_name in ftls]
