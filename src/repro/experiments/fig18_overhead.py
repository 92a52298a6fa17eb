"""Figure 18: LearnedFTL with and without its additional computation.

Two panels:

* (a) FIO random-write throughput with the sorting/training charges enabled vs
  disabled — the difference should be well under 1 %;
* (b) FIO read throughput of LearnedFTL vs an "ideal LearnedFTL" whose bitmap
  hits resolve through an in-memory table instead of a model prediction — the
  gap quantifies the prediction cost and should also be ~1 %.
"""

from __future__ import annotations

from repro.core.base import FTLConfig
from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.fio import FioJob

__all__ = ["run"]


def run(scale: Scale | str = Scale.DEFAULT) -> ExperimentResult:
    """Reproduce Figure 18 (write-path and read-path computation overhead)."""
    spec = ScaleSpec.for_scale(scale)
    result = ExperimentResult(
        name="fig18",
        description="LearnedFTL with vs without controller computation charges",
    )
    # Panel (a): random writes with and without sorting/training cost.
    write_rows: dict[str, float] = {}
    for label, charge in (("with_train_sort", True), ("without_train_sort", False)):
        config = FTLConfig(charge_compute=charge)
        ssd = prepare_ssd("learnedftl", spec, config=config, warmup="steady")
        job = FioJob.randwrite(spec.write_requests)
        ssd.run(job.requests(spec.geometry), threads=spec.threads)
        write_rows[label] = ssd.stats.throughput_mb_s()
    slowdown = (
        (write_rows["without_train_sort"] - write_rows["with_train_sort"])
        / write_rows["without_train_sort"]
        if write_rows["without_train_sort"]
        else 0.0
    )
    result.rows.append(
        {
            "panel": "a: randwrite",
            "with_compute_mb_s": round(write_rows["with_train_sort"], 1),
            "without_compute_mb_s": round(write_rows["without_train_sort"], 1),
            "overhead_pct": round(100.0 * slowdown, 3),
        }
    )
    # Panel (b): reads with and without the per-prediction charge.
    for pattern in ("randread", "seqread"):
        read_rows: dict[str, float] = {}
        for label, charge in (("learnedftl", True), ("ideal_learnedftl", False)):
            config = FTLConfig(charge_compute=charge)
            ssd = prepare_ssd("learnedftl", spec, config=config, warmup="steady")
            job = FioJob.from_name(pattern, spec.read_requests)
            ssd.run(job.requests(spec.geometry), threads=spec.threads)
            read_rows[label] = ssd.stats.throughput_mb_s()
        gap = (
            (read_rows["ideal_learnedftl"] - read_rows["learnedftl"])
            / read_rows["ideal_learnedftl"]
            if read_rows["ideal_learnedftl"]
            else 0.0
        )
        result.rows.append(
            {
                "panel": f"b: {pattern}",
                "with_compute_mb_s": round(read_rows["learnedftl"], 1),
                "without_compute_mb_s": round(read_rows["ideal_learnedftl"], 1),
                "overhead_pct": round(100.0 * gap, 3),
            }
        )
    result.notes.append(
        "Expected shape: every overhead_pct value is close to zero (the paper reports <0.7% "
        "for writes and <1% for reads)."
    )
    return result


def warm_ups(spec: ScaleSpec) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [
        dict(ftl_name="learnedftl", spec=spec, config=FTLConfig(charge_compute=charge))
        for charge in (True, False)
    ]
