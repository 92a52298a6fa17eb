"""Figure 7: TPFTL vs LeaFTL under Filebench workloads with high locality.

Even with locality, LeaFTL's mispredictions force double reads, so its
throughput is at best equal to TPFTL's (Figure 7a); the webserver breakdown
(Figure 7b) shows a high model-cache hit ratio but a much lower fraction of
reads actually resolved with a single flash read.
"""

from __future__ import annotations

from repro.analysis.latency import normalize
from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.filebench import FilebenchWorkload

__all__ = ["run"]

WORKLOADS = ("fileserver", "webserver", "varmail")
FTLS = ("leaftl", "tpftl")


def run(scale: Scale | str = Scale.DEFAULT) -> ExperimentResult:
    """Reproduce Figure 7 (Filebench throughput and webserver hit ratios)."""
    scale = Scale.parse(scale)
    spec = ScaleSpec.for_scale(scale)
    operations = max(1_000, spec.read_requests // 4)
    result = ExperimentResult(
        name="fig07",
        description="TPFTL vs LeaFTL under Filebench (normalized throughput; webserver hit ratios)",
    )
    hit_rows: list[dict[str, object]] = []
    for workload_name in WORKLOADS:
        throughput: dict[str, float] = {}
        per_ftl: dict[str, dict[str, float]] = {}
        for ftl_name in FTLS:
            ssd = prepare_ssd(ftl_name, spec, warmup="fill")
            workload = FilebenchWorkload.preset(workload_name, spec.geometry)
            ssd.run(workload.preconditioning(), threads=8)
            ssd.reset_stats()
            threads = min(workload.threads, spec.threads)
            ssd.run(workload.requests(operations), threads=threads)
            stats = ssd.stats
            throughput[ftl_name] = stats.throughput_mb_s()
            per_ftl[ftl_name] = {
                "cache_hit": stats.cmt_hit_ratio(),
                "single_read": stats.single_read_fraction(),
            }
        normalized = normalize(throughput, baseline="tpftl")
        result.rows.append(
            {
                "workload": workload_name,
                "leaftl_mb_s": round(throughput["leaftl"], 1),
                "tpftl_mb_s": round(throughput["tpftl"], 1),
                "leaftl_normalized": round(normalized["leaftl"], 3),
            }
        )
        if workload_name == "webserver":
            for ftl_name, values in per_ftl.items():
                hit_rows.append(
                    {
                        "ftl": ftl_name,
                        "cache_or_model_hit": round(values["cache_hit"], 3),
                        "single_read_fraction": round(values["single_read"], 3),
                    }
                )
    result.extra_tables["fig07b: webserver hit ratios"] = hit_rows
    result.notes.append(
        "Expected shape: LeaFTL's normalized throughput <= 1.0 on every personality; its "
        "cache hit ratio can be high while its single-read fraction stays lower than TPFTL's."
    )
    return result


def warm_ups(spec: ScaleSpec) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name=ftl_name, spec=spec, warmup="fill") for ftl_name in FTLS]
