"""Figure 17: share of GC time spent in sorting and model training.

The paper runs FIO random writes for increasing durations and reports, for
LearnedFTL, how much of the total GC execution time is attributable to the
added sorting and training work — at most a few percent even when nearly all
pages are valid during GC.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.fio import FioJob

__all__ = ["run"]


def run(scale: Scale | str = Scale.DEFAULT, *, steps: int = 4) -> ExperimentResult:
    """Reproduce Figure 17 (sorting/training share of GC time vs run length)."""
    scale = Scale.parse(scale)
    spec = ScaleSpec.for_scale(scale)
    result = ExperimentResult(
        name="fig17",
        description="LearnedFTL: sorting+training time as a share of GC execution time",
    )
    for step in range(1, steps + 1):
        requests = max(200, spec.write_requests * step // steps)
        ssd = prepare_ssd("learnedftl", spec, warmup="steady")
        job = FioJob.randwrite(requests)
        ssd.run(job.requests(spec.geometry), threads=spec.threads)
        events = ssd.stats.gc_events
        gc_flash_us = sum(e.flash_time_us for e in events)
        gc_compute_us = sum(e.compute_time_us for e in events)
        total = gc_flash_us + gc_compute_us
        result.rows.append(
            {
                "write_requests": requests,
                "gc_events": len(events),
                "gc_flash_ms": round(gc_flash_us / 1000.0, 2),
                "sort_train_ms": round(gc_compute_us / 1000.0, 2),
                "sort_train_pct_of_gc": round(100.0 * gc_compute_us / total, 3) if total else 0.0,
            }
        )
    result.notes.append(
        "Expected shape: the sorting+training share of GC time stays in the low single-digit "
        "percent range (the paper reports up to 3.2%)."
    )
    return result


def warm_ups(spec: ScaleSpec, **_: object) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name="learnedftl", spec=spec)]
