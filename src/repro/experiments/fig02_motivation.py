"""Figure 2: sequential vs random read performance of a demand-based FTL.

The motivation experiment of Section II-B: TPFTL is driven with fio sequential
and random reads at increasing thread counts.  The paper observes (a) random
read throughput consistently falling well short of sequential reads and (b) a
CMT hit ratio near zero under random reads regardless of thread count.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.fio import FioJob

__all__ = ["run"]


def _thread_counts(scale: Scale) -> Sequence[int]:
    if scale is Scale.TINY:
        return (1, 4, 8)
    return (1, 16, 32, 64)


def run(scale: Scale | str = Scale.DEFAULT, *, ftl_name: str = "tpftl") -> ExperimentResult:
    """Reproduce Figure 2 (throughput and CMT hit ratio vs thread count)."""
    scale = Scale.parse(scale)
    spec = ScaleSpec.for_scale(scale)
    result = ExperimentResult(
        name="fig02",
        description="TPFTL sequential vs random read throughput and CMT hit ratio",
    )
    for threads in _thread_counts(scale):
        row: dict[str, object] = {"threads": threads}
        for pattern in ("seqread", "randread"):
            ssd = prepare_ssd(ftl_name, spec, warmup="steady")
            job = FioJob.from_name(pattern, spec.read_requests)
            ssd.run(job.requests(spec.geometry), threads=threads)
            stats = ssd.stats
            row[f"{pattern}_mb_s"] = round(stats.throughput_mb_s(), 1)
            row[f"{pattern}_cmt_hit"] = round(stats.cmt_hit_ratio(), 3)
        result.rows.append(row)
    result.notes.append(
        "Expected shape: random-read throughput stays well below sequential-read "
        "throughput at every thread count, and the random-read CMT hit ratio is near zero."
    )
    return result


def warm_ups(spec: ScaleSpec, *, ftl_name: str = "tpftl") -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name=ftl_name, spec=spec)]
