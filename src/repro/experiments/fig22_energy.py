"""Figure 22: energy cost under the four real-world traces.

Energy is computed from the per-operation counts of each run (read / program /
erase plus controller computation) and normalized to TPFTL.  Expected shape:
LearnedFTL consumes ~10-20 % less energy than TPFTL/LeaFTL on the read-dominated
WebSearch traces (fewer flash reads) and is comparable on the write-heavier
Systor trace, where program/erase energy dominates.
"""

from __future__ import annotations

from repro.analysis.latency import normalize
from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.ssd.energy import EnergyModel
from repro.workloads.traces import TRACE_PRESETS, trace_to_requests

__all__ = ["run", "ENERGY_FTLS"]

ENERGY_FTLS: tuple[str, ...] = ("tpftl", "leaftl", "learnedftl", "ideal")
TRACES: tuple[str, ...] = tuple(TRACE_PRESETS)

#: The orchestrator runs one task per (trace, FTL) cell.
SHARD_AXES = {"traces": TRACES, "ftls": ENERGY_FTLS}


def run(
    scale: Scale | str = Scale.DEFAULT,
    *,
    ftls: tuple[str, ...] = ENERGY_FTLS,
    traces: tuple[str, ...] = TRACES,
) -> ExperimentResult:
    """Reproduce Figure 22 (normalized energy under four traces)."""
    scale = Scale.parse(scale)
    spec = ScaleSpec.for_scale(scale)
    num_ios = 3_000 if scale is Scale.TINY else 40_000
    model = EnergyModel()
    result = ExperimentResult(
        name="fig22",
        description="Energy cost under the four traces, normalized to TPFTL",
    )
    for trace_name in traces:
        records = TRACE_PRESETS[trace_name](num_ios)
        energy: dict[str, float] = {}
        for ftl_name in ftls:
            ssd = prepare_ssd(ftl_name, spec, warmup="steady")
            requests = trace_to_requests(records, spec.geometry, preserve_timing=False)
            ssd.run(requests, threads=spec.threads)
            breakdown = model.evaluate(ssd.stats)
            energy[ftl_name] = breakdown.total_uj
            result.rows.append(
                {
                    "workload": trace_name,
                    "ftl": ftl_name,
                    "energy_mj": round(breakdown.total_uj / 1000.0, 2),
                    "read_mj": round(breakdown.read_uj / 1000.0, 2),
                    "program_mj": round(breakdown.program_uj / 1000.0, 2),
                    "erase_mj": round(breakdown.erase_uj / 1000.0, 2),
                }
            )
        result.raw.setdefault("energy_uj", {})[trace_name] = energy
    result.notes.append(
        "Expected shape: learnedftl's normalized energy <= 1.0 on the read-dominated "
        "WebSearch traces and roughly 1.0 on Systor."
    )
    return finish(result)


def finish(result: ExperimentResult) -> ExperimentResult:
    """Insert each row's energy normalized to TPFTL, when TPFTL ran on its trace."""
    energy = result.raw["energy_uj"]
    rows = []
    for row in result.rows:
        per_ftl = energy[row["workload"]]
        rebuilt = {key: row[key] for key in ("workload", "ftl", "energy_mj")}
        if "tpftl" in per_ftl:
            normalized = normalize(per_ftl, baseline="tpftl")
            rebuilt["normalized_energy"] = round(normalized[row["ftl"]], 3)
        rebuilt.update({key: row[key] for key in ("read_mj", "program_mj", "erase_mj")})
        rows.append(rebuilt)
    result.rows = rows
    return result


def warm_ups(spec: ScaleSpec, *, ftls: tuple[str, ...] = ENERGY_FTLS, **_: object) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name=ftl_name, spec=spec) for ftl_name in ftls]
