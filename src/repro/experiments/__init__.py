"""Experiment harnesses: one module per figure/table of the paper's evaluation.

Each module exposes ``run(scale=..., **kwargs) -> ExperimentResult``.  The
:data:`EXPERIMENTS` registry maps experiment names to those entry points and is
what the command-line interface (``python -m repro.experiments``) and the
pytest benchmarks use.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    fig02_motivation,
    fig03_cmt_space,
    fig06_leaftl_randread,
    fig07_locality,
    fig14_fio,
    fig15_compute,
    fig16_gc_frequency,
    fig17_gc_breakdown,
    fig18_overhead,
    fig19_rocksdb,
    fig20_filebench,
    fig21_tail_latency,
    fig22_energy,
    noop,
    table02_traces,
)
from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd

__all__ = [
    "EXPERIMENTS",
    "INTERNAL_EXPERIMENTS",
    "run_experiment",
    "ExperimentResult",
    "Scale",
    "ScaleSpec",
    "prepare_ssd",
]

#: name -> (run callable, one-line description)
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    "fig02": (fig02_motivation.run, "TPFTL seq vs rand read throughput and CMT hit ratio"),
    "fig03": (fig03_cmt_space.run, "TPFTL CMT hit ratio vs CMT space ratio"),
    "fig06": (fig06_leaftl_randread.run, "LeaFTL vs TPFTL random reads + read breakdown"),
    "fig07": (fig07_locality.run, "LeaFTL vs TPFTL under Filebench locality workloads"),
    "fig14": (fig14_fio.run, "FIO throughput / hit ratios / write amplification (all FTLs)"),
    "fig15": (fig15_compute.run, "Computing overhead of sorting, training and prediction"),
    "fig16": (fig16_gc_frequency.run, "GC frequency over time under FIO writes"),
    "fig17": (fig17_gc_breakdown.run, "Sorting/training share of GC time"),
    "fig18": (fig18_overhead.run, "LearnedFTL with vs without computation charges"),
    "fig19": (fig19_rocksdb.run, "RocksDB db_bench readrandom/readseq on each FTL"),
    "fig20": (fig20_filebench.run, "Filebench normalized throughput for every FTL"),
    "fig21": (fig21_tail_latency.run, "P99/P99.9 tail latency under four traces"),
    "fig22": (fig22_energy.run, "Energy cost under four traces"),
    "noop": (noop.run, "Zero-work task the executor tests dispatch"),
    "table02": (table02_traces.run, "Workload characteristics of the four traces"),
}

#: Experiments that are execution units of another front end; ``all`` and the
#: pytest experiment sweeps skip them (``studycell`` needs generated kwargs,
#: ``noop`` is the zero-work task the executor tests dispatch).
INTERNAL_EXPERIMENTS: frozenset[str] = frozenset({"studycell", "noop"})


def run_experiment(
    name: str, scale: Scale | str = Scale.DEFAULT, *, label: str | None = None, **kwargs
) -> ExperimentResult:
    """Run one experiment by name.

    When process-wide observability is on (``set_metrics_window_us`` /
    ``set_trace_dir`` in :mod:`repro.experiments.runner`), the telemetry of
    every device the harness prepares is drained into the result's
    ``raw["telemetry"]`` block, which flows into the JSON artifacts.
    ``label`` names the task in trace file names (default: ``name``), so the
    shards of one experiment write distinct files.
    """
    try:
        runner, _ = EXPERIMENTS[name]
    except KeyError as exc:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}") from exc
    from repro.experiments.runner import (
        begin_telemetry_capture,
        collect_telemetry,
        observability_settings,
    )

    if observability_settings() == (None, None):
        return runner(scale=scale, **kwargs)
    begin_telemetry_capture()
    result = runner(scale=scale, **kwargs)
    telemetry = collect_telemetry(label or name)
    if telemetry is not None:
        result.raw["telemetry"] = telemetry
    return result


# The study-cell experiment lives in repro.studies (it is the execution unit
# of declarative scenario sweeps) but registers here so the orchestrator's
# task machinery — worker processes, result cache, dry-run — applies to study
# cells unchanged.  Imported last: the studies planner imports this package
# back for the registry and run_experiment defined above.
from repro.studies import cell as _study_cell  # noqa: E402

EXPERIMENTS["studycell"] = (
    _study_cell.run,
    "One cell of a declarative study (driven by the 'study' verb, not run directly)",
)
