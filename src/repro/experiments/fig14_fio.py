"""Figure 14: FIO performance of all five FTL designs (the headline figure).

Three panels:

* (a) throughput under random/sequential reads and writes;
* (b) CMT and model hit ratios under the read patterns;
* (c) write amplification under the write patterns.

Expected shape (paper, Section IV-B): LearnedFTL beats DFTL/TPFTL/LeaFTL on
random reads (1.4-1.6x) and approaches the ideal FTL; on sequential reads all
demand-based designs are close with LearnedFTL/ideal slightly ahead; on random
writes LearnedFTL's group-based allocation gives it the lowest write
amplification among the flash-resident-mapping designs.
"""

from __future__ import annotations

from repro.experiments.runner import ALL_FTLS, ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.fio import FioJob

__all__ = ["run"]

PATTERNS = ("randread", "seqread", "randwrite", "seqwrite")

#: The orchestrator runs one task per FTL.
SHARD_AXES = {"ftls": ALL_FTLS}


def run(
    scale: Scale | str = Scale.DEFAULT,
    *,
    ftls: tuple[str, ...] = ALL_FTLS,
    patterns: tuple[str, ...] = PATTERNS,
) -> ExperimentResult:
    """Reproduce Figure 14 (throughput, hit ratios and write amplification)."""
    spec = ScaleSpec.for_scale(scale)
    result = ExperimentResult(
        name="fig14",
        description="FIO throughput / hit ratio / write amplification for all FTLs",
    )
    hit_rows: list[dict[str, object]] = []
    wa_rows: list[dict[str, object]] = []
    device_stats: dict[str, dict[str, dict[str, float]]] = {}
    for ftl_name in ftls:
        row: dict[str, object] = {"ftl": ftl_name}
        for pattern in patterns:
            ssd = prepare_ssd(ftl_name, spec, warmup="steady")
            is_read = pattern.endswith("read")
            requests = spec.read_requests if is_read else spec.write_requests
            job = FioJob.from_name(pattern, requests)
            ssd.run(job.requests(spec.geometry), threads=spec.threads)
            stats = ssd.stats
            row[f"{pattern}_mb_s"] = round(stats.throughput_mb_s(), 1)
            device_stats.setdefault(ftl_name, {})[pattern] = {
                "iops": stats.iops(),
                "read_p999_us": stats.read_latency_digest().p999_us,
                "utilization": stats.utilization(),
            }
            if is_read:
                hit_rows.append(
                    {
                        "ftl": ftl_name,
                        "pattern": pattern,
                        "cmt_hit": round(stats.cmt_hit_ratio(), 3),
                        "model_hit": round(stats.model_hit_ratio(), 3),
                        "single_read_fraction": round(stats.single_read_fraction(), 3),
                        "double_read_fraction": round(stats.double_read_fraction(), 3),
                        "triple_read_fraction": round(stats.triple_read_fraction(), 3),
                    }
                )
            else:
                wa_rows.append(
                    {
                        "ftl": ftl_name,
                        "pattern": pattern,
                        "write_amplification": round(stats.write_amplification(), 3),
                        "gc_count": stats.gc_count,
                    }
                )
        result.rows.append(row)
    result.extra_tables["fig14b: CMT and model hit ratios"] = hit_rows
    result.extra_tables["fig14c: write amplification"] = wa_rows
    # Machine-readable per-(ftl, pattern) device metrics for the JSON artifact
    # (schema v2); per-FTL shards deep-merge back into one mapping.
    result.raw["device_stats"] = device_stats
    result.notes.append(
        "Expected shape: learnedftl > dftl/tpftl/leaftl on randread and close to ideal; "
        "learnedftl's randwrite write amplification is the lowest of the flash-resident-"
        "mapping designs."
    )
    return result


def warm_ups(spec: ScaleSpec, *, ftls: tuple[str, ...] = ALL_FTLS, **_: object) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name=ftl_name, spec=spec) for ftl_name in ftls]
