"""The ``studycell`` experiment: run one cell of a declarative study.

The study planner turns a spec's scenario grid into orchestrator tasks, one
per cell; each task runs this module's :func:`run` with the cell description
as a canonical JSON string.  Because the cell is an ordinary registered
experiment, everything the orchestrator provides — worker processes, the
content-keyed result cache, the warm-device snapshot store, ``--dry-run``
planning — applies to study cells with no extra machinery: cells that share
an (FTL, geometry, config, warm-up) identity restore one shared warm image,
and a warm rerun of an unchanged study is served entirely from the cache.

The experiment-layer imports happen inside :func:`run` because the
experiments package registers this module into its own ``EXPERIMENTS`` table
at import time; importing :mod:`repro.experiments.runner` lazily keeps that
registration cycle-free in both import directions.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.core.base import FTLConfig
from repro.nand.errors import ConfigurationError
from repro.studies.spec import CELL_METRICS, GeometryChoice
from repro.workloads.spec import build_workload

__all__ = ["run", "cell_metrics"]


def cell_metrics(stats: Any) -> dict[str, float]:
    """Extract the unrounded per-cell metric set from a :class:`SimulationStats`."""
    summary = stats.summary()
    return {metric: float(summary[metric]) for metric in CELL_METRICS}


#: Rounding applied to the rendered row (raw metrics stay unrounded).
_ROUNDING: dict[str, int] = {
    "throughput_mb_s": 1,
    "iops": 1,
    "read_p99_us": 1,
    "read_p999_us": 1,
    "cmt_hit_ratio": 3,
    "model_hit_ratio": 3,
    "write_amplification": 3,
    "utilization": 3,
}


def _decode(cell: str) -> dict[str, Any]:
    try:
        payload = json.loads(cell)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"studycell: 'cell' must be a JSON object, got {cell!r}") from exc
    if not isinstance(payload, Mapping):
        raise ConfigurationError(f"studycell: 'cell' must decode to a mapping, got {payload!r}")
    for key in ("study", "label", "ftl", "workload", "warmup", "coords"):
        if key not in payload:
            raise ConfigurationError(f"studycell: cell payload is missing key {key!r}")
    return dict(payload)


def _device(payload: Mapping[str, Any], scale_spec: Any) -> tuple[Any, FTLConfig]:
    """The cell's sizing (the scale's budgets on its geometry and host
    threads) and FTL config."""
    geometry_entry = payload.get("geometry") or {}
    choice = GeometryChoice(
        label=geometry_entry.get("label", "scale"),
        base=geometry_entry.get("base"),
        overrides=tuple((geometry_entry.get("overrides") or {}).items()),
    )
    spec = scale_spec.with_overrides(
        geometry=choice.resolve(scale_spec.geometry),
        threads=payload.get("threads") or scale_spec.threads,
    )
    return spec, FTLConfig().with_overrides(**(payload.get("config") or {}))


def warm_ups(scale_spec: Any, *, cell: str) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of the one warm-up :func:`run` makes."""
    payload = _decode(cell)
    spec, config = _device(payload, scale_spec)
    return [dict(ftl_name=payload["ftl"], spec=spec, config=config, warmup=payload["warmup"])]


def run(scale: Any = "default", *, cell: str) -> Any:
    """Run one study cell and return its single-row ``ExperimentResult``.

    ``cell`` is the canonical JSON produced by
    :meth:`repro.studies.spec.StudyCell.payload_json`; see that module for
    the schema.  The row carries the cell's axis coordinates followed by its
    rounded metrics; ``raw["cells"][label]`` carries the unrounded metrics
    and coordinates the study merger uses for normalized columns.
    """
    from repro.experiments.runner import ExperimentResult, ScaleSpec, prepare_ssd

    payload = _decode(cell)
    spec, config = _device(payload, ScaleSpec.for_scale(scale))
    plan = build_workload(
        payload["workload"],
        read_requests=spec.read_requests,
        write_requests=spec.write_requests,
    )

    ssd = prepare_ssd(payload["ftl"], spec, config=config, warmup=payload["warmup"])
    if plan.replay:
        ssd.replay(plan.requests(spec.geometry), streams=spec.threads)
    else:
        ssd.run(plan.requests(spec.geometry), threads=spec.threads)

    metrics = cell_metrics(ssd.stats)
    label = payload["label"]
    row: dict[str, Any] = {axis: value for axis, value in payload["coords"]}
    for metric, value in metrics.items():
        digits = _ROUNDING.get(metric)
        row[metric] = round(value, digits) if digits is not None else value
    result = ExperimentResult(
        name="studycell",
        description=f"study {payload['study']}: cell {label} ({plan.description})",
        rows=[row],
        raw={
            "study": payload["study"],
            "cells": {
                label: {
                    "coords": {axis: value for axis, value in payload["coords"]},
                    "metrics": metrics,
                }
            },
        },
    )
    return result
