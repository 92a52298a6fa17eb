"""Plan, execute and merge declarative studies on top of the orchestrator.

A study run is three steps:

1. :func:`plan_study` expands the spec into cells and wraps each cell in an
   orchestrator :class:`~repro.experiments.orchestrator.ExperimentTask`
   (experiment ``studycell``, the cell's canonical JSON as its kwarg) so the
   result cache and worker-process execution apply unchanged;
2. :func:`repro.experiments.orchestrator.run_plans` runs the tasks with
   ``--jobs`` fan-out, serving unchanged cells from the cache and restoring
   shared warm images from the snapshot store — the same path the figure
   experiments take;
3. :func:`merge_study` reassembles the single-row cell results — in spec
   cross-product order, so the merged table is identical for any job count —
   and derives the comparison report: per-axis normalized columns against
   each axis's first value, per-axis mean tables and best-cell notes.

:func:`run_study` is the one-call entry point the CLI ``study`` verb uses;
:func:`describe_study_plan` is its ``--dry-run`` (the orchestrator's
:func:`~repro.experiments.orchestrator.describe_plans` under a study header).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.orchestrator import (
    ExperimentOutcome,
    ExperimentPlan,
    ExperimentTask,
    describe_plans,
    run_plans,
)
from repro.experiments.runner import ExperimentResult, Scale
from repro.studies.spec import LOWER_IS_BETTER, StudyCell, StudySpec, load_study_file

__all__ = [
    "plan_study",
    "merge_study",
    "run_study",
    "describe_study_plan",
    "resolve_spec",
]


def resolve_spec(spec: "StudySpec | Mapping[str, Any] | str | Path") -> StudySpec:
    """Accept a spec object, a raw mapping, or a YAML/JSON file path."""
    if isinstance(spec, StudySpec):
        return spec
    if isinstance(spec, Mapping):
        return StudySpec.from_dict(spec)
    return load_study_file(spec)


def plan_study(spec: StudySpec) -> tuple[list[StudyCell], list[ExperimentTask]]:
    """Expand a spec into its cells and their orchestrator tasks (aligned lists)."""
    cells = spec.expand()
    tasks = [
        ExperimentTask.create(
            "studycell",
            label=f"{spec.name}[{cell.label}]",
            cell=cell.payload_json(spec.name),
        )
        for cell in cells
    ]
    return cells, tasks


# -------------------------------------------------------------------- merging
def _normalized(value: float, reference: float) -> float:
    """Ratio against a reference cell (mirrors ``analysis.latency.normalize``:
    a zero reference keeps the reference cell at 1.0 and marks others inf/nan)."""
    if reference == 0.0:
        if value == 0.0:
            return 1.0
        return math.inf if value > 0 else -math.inf
    return value / reference


def merge_study(
    spec: StudySpec,
    cells: Sequence[StudyCell],
    results: Sequence[ExperimentResult],
) -> ExperimentResult:
    """Merge per-cell results into the study table plus its comparison report."""
    if len(cells) != len(results):
        raise ValueError("cells and results must align")
    merged = ExperimentResult(
        name=spec.name,
        description=spec.description
        or f"scenario sweep over {' x '.join(spec.swept_axes()) or 'a single cell'}",
    )
    cell_raw: dict[str, dict[str, Any]] = {}
    for result in results:
        cell_raw.update(result.raw.get("cells", {}))
        merged.rows.extend(dict(row) for row in result.rows)

    axis_values = spec.axis_values()
    swept = spec.swept_axes()
    metric = spec.metric
    by_coords = {
        tuple(sorted(entry["coords"].items())): label for label, entry in cell_raw.items()
    }

    # Per-axis normalized columns: each cell against the cell that differs
    # only in that axis taking its first value.
    for cell, row in zip(cells, merged.rows):
        coords = dict(cell.coords)
        value = cell_raw[cell.label]["metrics"][metric]
        for axis in swept:
            reference_coords = dict(coords)
            reference_coords[axis] = axis_values[axis][0]
            reference_label = by_coords[tuple(sorted(reference_coords.items()))]
            reference = cell_raw[reference_label]["metrics"][metric]
            row[f"vs_{axis}"] = round(_normalized(value, reference), 3)

    # Per-axis mean tables (the "comparison report" summary view).
    for axis in swept:
        rows = []
        for label in axis_values[axis]:
            members = [
                entry["metrics"][metric]
                for entry in cell_raw.values()
                if entry["coords"][axis] == label
            ]
            rows.append(
                {
                    axis: label,
                    f"mean_{metric}": round(sum(members) / len(members), 3),
                    "cells": len(members),
                }
            )
        merged.extra_tables[f"axis {axis}: mean {metric}"] = rows

    if cell_raw:
        best = (min if metric in LOWER_IS_BETTER else max)(
            cell_raw.items(), key=lambda item: item[1]["metrics"][metric]
        )
        direction = "lowest" if metric in LOWER_IS_BETTER else "highest"
        merged.notes.append(
            f"best cell ({direction} {metric}): {best[0]} at {best[1]['metrics'][metric]:g}"
        )
    if swept:
        merged.notes.append(
            "normalized columns: vs_<axis> divides each cell's "
            f"{metric} by the cell with that axis at its first value "
            f"({', '.join(f'{axis}={axis_values[axis][0]}' for axis in swept)})."
        )

    merged.raw = {
        "study": spec.name,
        "metric": metric,
        "axes": axis_values,
        "cells": cell_raw,
    }
    return merged


# ------------------------------------------------------------------ execution
def _study_plan(study: StudySpec) -> ExperimentPlan:
    cells, tasks = plan_study(study)
    return ExperimentPlan(study.name, tasks, lambda results: merge_study(study, cells, results))


def run_study(
    spec: "StudySpec | Mapping[str, Any] | str | Path",
    *,
    scale: "Scale | str" = Scale.DEFAULT,
    jobs: int = 1,
    backend: str = "auto",
    queue_dir: "str | Path | None" = None,
    cache_dir: "str | Path | None" = None,
    snapshot_dir: "str | Path | None" = None,
    metrics_window_us: float | None = None,
    trace_dir: "str | Path | None" = None,
    progress: Callable[[str], None] | None = None,
) -> ExperimentOutcome:
    """Run a study end-to-end; returns one merged :class:`ExperimentOutcome`.

    Cells execute through the orchestrator — the selected execution backend
    with up to ``jobs`` workers (``0`` = auto-detect), the content-keyed
    result cache (``cache_dir``) and the warm-image snapshot store
    (``snapshot_dir``) — and the merged result is identical for any backend
    and any ``jobs`` value.  A failing cell marks the study failed with the
    cell's traceback in ``outcome.error``; surviving cell results stay
    cached, so a rerun only recomputes the failed cells.
    """
    (outcome,) = run_plans(
        [_study_plan(resolve_spec(spec))],
        scale=scale,
        jobs=jobs,
        backend=backend,
        queue_dir=queue_dir,
        cache_dir=cache_dir,
        snapshot_dir=snapshot_dir,
        metrics_window_us=metrics_window_us,
        trace_dir=trace_dir,
        progress=progress,
    )
    return outcome


# -------------------------------------------------------------------- dry run
def describe_study_plan(
    spec: "StudySpec | Mapping[str, Any] | str | Path",
    *,
    scale: "Scale | str" = Scale.DEFAULT,
    cache_dir: "str | Path | None" = None,
    snapshot_dir: "str | Path | None" = None,
    metrics_window_us: float | None = None,
    trace_dir: "str | Path | None" = None,
) -> list[str]:
    """Describe what a study run would do without executing it (``--dry-run``)."""
    study = resolve_spec(spec)
    plan = _study_plan(study)
    header = (
        f"study {study.name}: "
        + " x ".join(f"{axis}={len(values)}" for axis, values in study.axis_values().items())
        + f" -> {len(plan.tasks)} cells"
    )
    return [header] + describe_plans(
        [plan],
        unit="cells",
        scale=scale,
        cache_dir=cache_dir,
        snapshot_dir=snapshot_dir,
        metrics_window_us=metrics_window_us,
        trace_dir=trace_dir,
    )
