"""Figure 6: LeaFTL vs TPFTL under fio random reads.

Section II-D's analysis: LeaFTL's approximate segments plus its model-cache
misses turn random reads into double and triple reads, so its random-read
throughput falls below TPFTL's.  The harness reports (a) normalized throughput
and (b) the single/double/triple read breakdown of LeaFTL.
"""

from __future__ import annotations

from repro.analysis.latency import normalize
from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.fio import FioJob

__all__ = ["run"]

FTLS = ("leaftl", "tpftl")


def run(scale: Scale | str = Scale.DEFAULT) -> ExperimentResult:
    """Reproduce Figure 6 (random-read throughput and multi-read statistics)."""
    spec = ScaleSpec.for_scale(scale)
    result = ExperimentResult(
        name="fig06",
        description="LeaFTL vs TPFTL random reads: throughput and read-count breakdown",
    )
    throughput: dict[str, float] = {}
    for ftl_name in FTLS:
        ssd = prepare_ssd(ftl_name, spec, warmup="steady")
        job = FioJob.randread(spec.read_requests)
        ssd.run(job.requests(spec.geometry), threads=spec.threads)
        stats = ssd.stats
        throughput[ftl_name] = stats.throughput_mb_s()
        result.rows.append(
            {
                "ftl": ftl_name,
                "throughput_mb_s": round(stats.throughput_mb_s(), 1),
                "single_fraction": round(stats.single_read_fraction(), 3),
                "double_fraction": round(stats.double_read_fraction(), 3),
                "triple_fraction": round(stats.triple_read_fraction(), 3),
            }
        )
    normalized = normalize(throughput, baseline="tpftl")
    for row in result.rows:
        row["normalized_throughput"] = round(normalized[row["ftl"]], 3)
    result.notes.append(
        "Expected shape: LeaFTL's normalized throughput < 1.0 (the paper reports 0.71) and a "
        "large fraction of its reads are double or triple reads."
    )
    return result


def warm_ups(spec: ScaleSpec) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name=ftl_name, spec=spec) for ftl_name in FTLS]
