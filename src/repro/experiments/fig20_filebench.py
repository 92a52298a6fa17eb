"""Figure 20: normalized Filebench throughput of every FTL design.

Expected shape (Section IV-D): LearnedFTL outperforms the other flash-resident-
mapping FTLs by 1.1-2.3x because the CMT still captures locality while the
learned models absorb the misses; LeaFTL trails TPFTL because its mispredictions
still cause double reads.
"""

from __future__ import annotations

from repro.analysis.latency import normalize
from repro.experiments.runner import ALL_FTLS, ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.filebench import FilebenchWorkload

__all__ = ["run"]

WORKLOADS = ("fileserver", "webserver", "varmail")

#: The orchestrator runs one task per (workload, FTL) cell.
SHARD_AXES = {"workloads": WORKLOADS, "ftls": ALL_FTLS}


def run(
    scale: Scale | str = Scale.DEFAULT,
    *,
    ftls: tuple[str, ...] = ALL_FTLS,
    workloads: tuple[str, ...] = WORKLOADS,
) -> ExperimentResult:
    """Reproduce Figure 20 (normalized Filebench throughput, all FTLs)."""
    scale = Scale.parse(scale)
    spec = ScaleSpec.for_scale(scale)
    operations = max(1_000, spec.read_requests // 4)
    result = ExperimentResult(
        name="fig20",
        description="Filebench throughput of every FTL, normalized to DFTL",
    )
    for workload_name in workloads:
        throughput: dict[str, float] = {}
        for ftl_name in ftls:
            ssd = prepare_ssd(ftl_name, spec, warmup="fill")
            workload = FilebenchWorkload.preset(workload_name, spec.geometry)
            ssd.run(workload.preconditioning(), threads=8)
            ssd.reset_stats()
            threads = min(workload.threads, spec.threads)
            ssd.run(workload.requests(operations), threads=threads)
            throughput[ftl_name] = ssd.stats.throughput_mb_s()
        result.raw.setdefault("throughput_mb_s", {})[workload_name] = throughput
    result.notes.append(
        "Expected shape: learnedftl_normalized >= tpftl_normalized >= leaftl_normalized on "
        "every personality, with ideal as the upper bound."
    )
    return finish(result)


def finish(result: ExperimentResult) -> ExperimentResult:
    """One row per workload from the raw throughputs, normalized to DFTL when it ran."""
    result.rows = []
    for workload_name, throughput in result.raw["throughput_mb_s"].items():
        normalized = normalize(throughput, baseline="dftl") if "dftl" in throughput else {}
        row: dict[str, object] = {"workload": workload_name}
        for ftl_name, mb_s in throughput.items():
            if normalized:
                row[f"{ftl_name}_normalized"] = round(normalized[ftl_name], 3)
            row[f"{ftl_name}_mb_s"] = round(mb_s, 1)
        result.rows.append(row)
    return result


def warm_ups(spec: ScaleSpec, *, ftls: tuple[str, ...] = ALL_FTLS, **_: object) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name=ftl_name, spec=spec, warmup="fill") for ftl_name in ftls]
