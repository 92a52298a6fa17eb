"""Parallel experiment orchestration with result caching.

The evaluation of the paper is 14 independent figure/table experiments, and
the heavyweight ones (fig14, fig19-fig22) are themselves products of
independent (FTL, workload) cells.  This module turns that structure into a
task graph executed through a pluggable backend (:mod:`repro.execution`):

* :func:`plan_tasks` splits an experiment into shard tasks (one per FTL or per
  (FTL, trace)/(workload, FTL) cell for the multi-FTL experiments, a single
  task otherwise);
* :func:`run_orchestrated` executes tasks through the selected execution
  backend — inline (``serial``), a local process pool (``process``) or a
  shared queue directory spanning hosts (``file-queue``) — streaming per-task
  progress, caching each task's result on disk keyed by its content
  (experiment, scale, kwargs, package version), retrying a task that dies in
  a worker once on a fresh worker, and tolerating per-experiment failures;
* :func:`merge_results` reassembles shard results into exactly the rows the
  unsplit harness produces, recomputing cross-FTL normalized columns from the
  unrounded metrics the harnesses expose via ``ExperimentResult.raw``.

Because every task is deterministic given (experiment, scale, kwargs), the
merged output is identical for any backend and any ``--jobs`` value, and a
warm cache makes re-running ``all`` nearly free.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro import __version__
from repro.analysis.latency import normalize
from repro.execution import TaskPayload, create_backend, resolve_workers
from repro.execution.atomic import publish_json, publish_text
from repro.experiments import EXPERIMENTS
from repro.experiments.fig20_filebench import WORKLOADS as _FILEBENCH
from repro.experiments.fig21_tail_latency import TAIL_LATENCY_FTLS
from repro.experiments.fig22_energy import ENERGY_FTLS
from repro.experiments.runner import (
    ALL_FTLS,
    BASELINE_FTLS,
    WARMUP_IO_PAGES,
    WARMUP_SEED,
    WARMUP_THREAD_CAP,
    ExperimentResult,
    Scale,
    ScaleSpec,
)
from repro.snapshot.fingerprint import source_fingerprint
from repro.snapshot.store import SnapshotStore
from repro.snapshot.warm import warmup_recipe
from repro.workloads.traces import TRACE_PRESETS

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentTask",
    "ExperimentOutcome",
    "TaskExecution",
    "ResultCache",
    "plan_tasks",
    "describe_plan",
    "merge_results",
    "execute_tasks",
    "run_orchestrated",
]

#: Version of the on-disk JSON artifact / cache entry layout.
#: v2: artifacts carry the harness's machine-readable ``raw`` section (which
#: now includes per-device ``iops`` / ``read_p999_us`` / ``utilization`` for
#: the performance experiments).
#: v3: ``summary()`` gained ``gc_pages_moved`` / ``write_p99_us`` /
#: ``write_p999_us``, and runs with observability enabled carry a
#: ``raw.telemetry`` block (per-window time series + trace file pointers).
SCHEMA_VERSION = 3

_SOURCE_FINGERPRINT: str | None = None


def _source_fingerprint() -> str:
    """Digest of every ``repro`` source file (computed once per process).

    Folding this into the cache key means cached experiment results go stale
    the moment any simulator or harness code changes — not only on version
    bumps.  The digest itself is shared with the snapshot store
    (:mod:`repro.snapshot.fingerprint`); the module-level cache here exists so
    tests can simulate a source edit by overriding it.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        _SOURCE_FINGERPRINT = source_fingerprint()
    return _SOURCE_FINGERPRINT

#: The four traces of Figures 21/22 (canonical TRACE_PRESETS order — the
#: default `traces` argument of those harnesses).
_TRACES = tuple(TRACE_PRESETS)

#: Per-experiment (FTL, workload) grids, taken from the harness modules so a
#: split run always enumerates exactly the cells the unsplit run would.
_CELL_GRIDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "fig20": (_FILEBENCH, ALL_FTLS),
    "fig21": (_TRACES, TAIL_LATENCY_FTLS),
    "fig22": (_TRACES, ENERGY_FTLS),
}


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of work: run ``experiment`` with ``kwargs`` at some scale.

    ``kwargs`` is stored as a sorted tuple of (name, value) pairs so tasks are
    hashable and their cache keys canonical; :meth:`run_kwargs` restores the
    mapping (tuples for sequence values, matching the harness signatures).
    """

    experiment: str
    label: str
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(cls, experiment: str, label: str | None = None, **kwargs: Any) -> "ExperimentTask":
        frozen = tuple(
            (key, tuple(value) if isinstance(value, (list, tuple)) else value)
            for key, value in sorted(kwargs.items())
        )
        return cls(experiment=experiment, label=label or experiment, kwargs=frozen)

    def run_kwargs(self) -> dict[str, Any]:
        """The keyword arguments to pass to :func:`run_experiment`."""
        return dict(self.kwargs)

    def cache_key(self, scale: str, obs: Mapping[str, Any] | None = None) -> str:
        """Content hash identifying this task's result.

        Includes a fingerprint of the installed ``repro`` source tree, so
        editing any simulator/harness code invalidates cached results even
        without a version bump.  ``obs`` is the observability descriptor
        (window width, tracing flag) when telemetry is on: it changes the
        artifact contents (``raw.telemetry``), so it is folded into the key —
        but only when present, keeping every pre-observability key unchanged.
        """
        fields: dict[str, Any] = {
            "experiment": self.experiment,
            "scale": scale,
            "kwargs": self.kwargs,
            "version": __version__,
            "source": _source_fingerprint(),
            "schema": SCHEMA_VERSION,
        }
        if obs is not None:
            fields["obs"] = dict(obs)
        payload = json.dumps(fields, sort_keys=True, default=list)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ExperimentOutcome:
    """Merged outcome of one experiment (all its tasks)."""

    name: str
    result: ExperimentResult | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    tasks: int = 0
    cached_tasks: int = 0
    #: Execution backend(s) that produced the fresh task results (cached
    #: entries keep the backend recorded when they were first computed).
    backend: str | None = None
    #: Sorted identities of every worker that contributed a task result.
    workers: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every task of the experiment succeeded."""
        return self.error is None and self.result is not None


# ------------------------------------------------------------------- planning
def plan_tasks(name: str, *, split: bool = True) -> list[ExperimentTask]:
    """Split one experiment into independent tasks.

    The multi-FTL experiments decompose into one task per FTL (fig14, fig19)
    or per (FTL, workload) cell (fig20, fig21, fig22); everything else runs as
    a single task.  With ``split=False`` every experiment is one task, which
    reproduces the pre-orchestrator execution exactly.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    if not split:
        return [ExperimentTask.create(name)]
    if name in ("fig14", "fig19"):
        return [
            ExperimentTask.create(name, label=f"{name}[{ftl}]", ftls=(ftl,))
            for ftl in ALL_FTLS
        ]
    if name in _CELL_GRIDS:
        workloads, ftls = _CELL_GRIDS[name]
        workload_kwarg = "workloads" if name == "fig20" else "traces"
        return [
            ExperimentTask.create(
                name,
                label=f"{name}[{workload}/{ftl}]",
                ftls=(ftl,),
                **{workload_kwarg: (workload,)},
            )
            for workload in workloads
            for ftl in ftls
        ]
    return [ExperimentTask.create(name)]


# -------------------------------------------------------------------- dry run
#: Experiment -> (warmup mode, default FTLs) for harnesses that warm devices
#: through ``prepare_ssd`` with the **default** config and timing; used by
#: ``--dry-run`` to predict snapshot-store hits.  Experiments that sweep
#: custom configs/timings ("custom") resolve their keys only at run time, and
#: experiments without a device warm-up map to ``None``.
_WARM_PLANS: dict[str, tuple[str, tuple[str, ...]] | str | None] = {
    "fig02": ("steady", ("tpftl",)),
    "fig03": "custom",
    "fig06": ("steady", BASELINE_FTLS),
    "fig07": ("fill", BASELINE_FTLS),
    "fig14": ("steady", ALL_FTLS),
    "fig15": None,
    "fig16": ("steady", ALL_FTLS),
    "fig17": ("steady", ("learnedftl",)),
    "fig18": "custom",
    "fig19": None,
    "fig20": ("fill", ALL_FTLS),
    "fig21": ("steady", TAIL_LATENCY_FTLS),
    "fig22": ("steady", ENERGY_FTLS),
    "noop": None,
    "table02": None,
    # Study cells sweep configs/geometries declared in their spec; the study
    # dry-run (repro.studies.planner.describe_study_plan) predicts their
    # snapshot keys exactly instead of going through this table.
    "studycell": "custom",
}


def _snapshot_status(task: ExperimentTask, scale: str, store: SnapshotStore | None) -> str:
    """Predicted snapshot-store status of one task (for the dry-run listing)."""
    plan = _WARM_PLANS.get(task.experiment)
    if plan is None:
        return "none needed"
    if plan == "custom":
        return "custom warm-up (keys resolved at run time)"
    if store is None:
        return "no store"
    warmup, default_ftls = plan
    ftls = task.run_kwargs().get("ftls", default_ftls)
    spec = ScaleSpec.for_scale(scale)
    recipe = warmup_recipe(
        warmup=warmup,
        io_pages=WARMUP_IO_PAGES,
        overwrite_factor=spec.warmup_overwrite_factor,
        threads=min(WARMUP_THREAD_CAP, spec.threads),
        seed=WARMUP_SEED,
    )
    hits = sum(
        1
        for ftl in ftls
        if store.contains(
            store.key_for(ftl_name=ftl, geometry=spec.geometry, recipe=recipe)
        )
    )
    return f"{hits}/{len(ftls)} warm"


def describe_plan(
    names: Sequence[str],
    *,
    scale: Scale | str = Scale.DEFAULT,
    split: bool = True,
    cache_dir: str | Path | None = None,
    snapshot_dir: str | Path | None = None,
) -> list[str]:
    """Describe what a run would do, without executing anything (``--dry-run``).

    One line per planned shard task with its result-cache status (hit/miss)
    and its predicted snapshot-store status, followed by a totals line.
    """
    scale_value = Scale.parse(scale).value
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    store = SnapshotStore(snapshot_dir) if snapshot_dir is not None else None
    lines: list[str] = []
    total = 0
    cached = 0
    for name in names:
        for task in plan_tasks(name, split=split):
            total += 1
            if cache is None:
                cache_status = "no cache"
            elif cache.load(task, scale_value) is not None:
                cache_status = "hit"
                cached += 1
            else:
                cache_status = "miss"
            lines.append(
                f"{task.label}: cache {cache_status}; "
                f"snapshots: {_snapshot_status(task, scale_value, store)}"
            )
    summary = f"{total} tasks planned at scale={scale_value}"
    if cache is not None:
        summary += f", {cached} cached, {total - cached} to run"
    lines.append(summary)
    return lines


# -------------------------------------------------------------------- merging
def _merged_notes(shards: Sequence[ExperimentResult]) -> list[str]:
    notes: list[str] = []
    for shard in shards:
        for note in shard.notes:
            if note not in notes:
                notes.append(note)
    return notes


def _deep_update(target: dict[str, Any], value: Mapping[str, Any]) -> None:
    """Recursively merge nested raw payloads (e.g. {trace: {ftl: metric}})."""
    for key, item in value.items():
        if isinstance(item, Mapping) and isinstance(target.get(key), dict):
            _deep_update(target[key], item)
        elif isinstance(item, Mapping):
            target[key] = dict(item)
        else:
            target[key] = item


def _concat(shards: Sequence[ExperimentResult], template: ExperimentResult) -> ExperimentResult:
    """Concatenate shard rows/extra tables in shard order."""
    merged = ExperimentResult(name=template.name, description=template.description)
    for shard in shards:
        merged.rows.extend(shard.rows)
        for title, rows in shard.extra_tables.items():
            merged.extra_tables.setdefault(title, []).extend(rows)
        _deep_update(merged.raw, shard.raw)
    merged.notes = _merged_notes(shards)
    return merged


def _merge_fig19(shards: Sequence[ExperimentResult]) -> ExperimentResult:
    merged = _concat(shards, shards[0])
    random_tput = merged.raw.get("readrandom_ops_s", {})
    seq_tput = merged.raw.get("readseq_ops_s", {})
    if "dftl" in random_tput:
        random_norm = normalize(random_tput, baseline="dftl")
        seq_norm = normalize(seq_tput, baseline="dftl")
        for row in merged.rows:
            row["readrandom_normalized"] = round(random_norm[row["ftl"]], 3)
            row["readseq_normalized"] = round(seq_norm[row["ftl"]], 3)
    return merged


def _merge_fig20(shards: Sequence[ExperimentResult]) -> ExperimentResult:
    merged = _concat(shards, shards[0])
    throughput: Mapping[str, Mapping[str, float]] = merged.raw.get("throughput_mb_s", {})
    rows: list[dict[str, Any]] = []
    for workload in _FILEBENCH:
        if workload not in throughput:
            continue
        per_ftl = throughput[workload]
        normalized = normalize(dict(per_ftl), baseline="dftl") if "dftl" in per_ftl else {}
        row: dict[str, Any] = {"workload": workload}
        for ftl in (f for f in ALL_FTLS if f in per_ftl):
            if normalized:
                row[f"{ftl}_normalized"] = round(normalized[ftl], 3)
            row[f"{ftl}_mb_s"] = round(per_ftl[ftl], 1)
        rows.append(row)
    merged.rows = rows
    return merged


def _merge_fig21(shards: Sequence[ExperimentResult]) -> ExperimentResult:
    merged = _concat(shards, shards[0])
    traces, ftls = _CELL_GRIDS[merged.name]
    order = {
        (trace, ftl): i
        for i, (trace, ftl) in enumerate((trace, ftl) for trace in traces for ftl in ftls)
    }
    merged.rows.sort(key=lambda row: order.get((row["workload"], row["ftl"]), len(order)))
    return merged


def _merge_fig22(shards: Sequence[ExperimentResult]) -> ExperimentResult:
    merged = _merge_fig21(shards)
    energy: Mapping[str, Mapping[str, float]] = merged.raw.get("energy_uj", {})
    rows = []
    for row in merged.rows:
        per_ftl = energy.get(row["workload"], {})
        rebuilt = {"workload": row["workload"], "ftl": row["ftl"], "energy_mj": row["energy_mj"]}
        if "tpftl" in per_ftl:
            normalized = normalize(dict(per_ftl), baseline="tpftl")
            rebuilt["normalized_energy"] = round(normalized[row["ftl"]], 3)
        rebuilt.update(
            {key: row[key] for key in ("read_mj", "program_mj", "erase_mj") if key in row}
        )
        rows.append(rebuilt)
    merged.rows = rows
    return merged


_MERGERS: dict[str, Callable[[Sequence[ExperimentResult]], ExperimentResult]] = {
    "fig19": _merge_fig19,
    "fig20": _merge_fig20,
    "fig21": _merge_fig21,
    "fig22": _merge_fig22,
}


def merge_results(
    name: str, tasks: Sequence[ExperimentTask], results: Sequence[ExperimentResult]
) -> ExperimentResult:
    """Reassemble shard results (in ``tasks`` order) into the canonical result."""
    if len(tasks) != len(results):
        raise ValueError("tasks and results must align")
    if len(results) == 1 and tasks[0].label == name:
        return results[0]
    merger = _MERGERS.get(name)
    if merger is not None:
        return merger(results)
    return _concat(results, results[0])


# -------------------------------------------------------------------- caching
def _decode_entry(payload: Mapping[str, Any]) -> tuple[ExperimentResult, float] | None:
    """A validated cache payload's (result, elapsed seconds), or ``None``
    when a field has the wrong shape (the entry then misses)."""
    try:
        return ExperimentResult.from_dict(payload["result"]), float(payload.get("elapsed_s", 0.0))
    except (KeyError, TypeError, ValueError):
        return None


class ResultCache:
    """Content-keyed on-disk cache of task results.

    One JSON file per task, named ``<label>-<key16>.json``; the full key is
    stored inside the file and checked on load, so stale entries (other
    package versions, changed kwargs, hash prefix collisions) never hit.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, task: ExperimentTask, key: str) -> Path:
        safe_label = "".join(c if c.isalnum() else "-" for c in task.label)
        return self.root / f"{safe_label}-{key[:16]}.json"

    def load_entry(
        self,
        task: ExperimentTask,
        scale: str,
        obs: Mapping[str, Any] | None = None,
    ) -> dict[str, Any] | None:
        """Return the full validated cache payload for ``task``, or ``None``.

        Unreadable or partially-written files, entries that are not a JSON
        object or carry no result object, entries from other package
        versions/kwargs and hash-prefix collisions all miss (the full key is
        checked against the stored one).  ``obs`` is the active observability
        descriptor; results recorded under different telemetry settings never
        hit (their keys differ).
        """
        key = task.cache_key(scale, obs)
        path = self._path(task, key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        if not isinstance(payload.get("result"), dict):
            return None
        return payload

    def load(
        self,
        task: ExperimentTask,
        scale: str,
        obs: Mapping[str, Any] | None = None,
    ) -> tuple[ExperimentResult, float] | None:
        """Return the cached (result, original elapsed seconds) or ``None``."""
        payload = self.load_entry(task, scale, obs)
        return None if payload is None else _decode_entry(payload)

    def store(
        self,
        task: ExperimentTask,
        scale: str,
        result: ExperimentResult,
        elapsed_s: float,
        provenance: Mapping[str, Any] | None = None,
        obs: Mapping[str, Any] | None = None,
    ) -> Path:
        """Persist one task result; returns the cache file path.

        The write is atomic (temp sibling + rename), so executors racing to
        publish the same key — e.g. two hosts sharing one ``--cache-dir`` —
        leave one complete entry and never a corrupt partial file.
        ``provenance`` records which backend/worker produced the result;
        ``obs`` is the observability descriptor the result was produced under
        (folded into the key and recorded in the entry).
        """
        key = task.cache_key(scale, obs)
        path = self._path(task, key)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "experiment": task.experiment,
            "label": task.label,
            "scale": scale,
            "kwargs": {name: value for name, value in task.kwargs},
            "version": __version__,
            "elapsed_s": round(elapsed_s, 3),
            "result": result.to_dict(),
        }
        if obs is not None:
            payload["obs"] = dict(obs)
        if provenance is not None:
            payload["provenance"] = dict(provenance)
        return publish_json(path, payload)


# ------------------------------------------------------------------ execution
@dataclass
class TaskExecution:
    """Execution state of one task: its result (or error) and provenance.

    This is the unit :func:`execute_tasks` returns; :func:`run_orchestrated`
    groups executions back into per-experiment outcomes and the study planner
    (:mod:`repro.studies.planner`) merges them into one study table.
    """

    task: ExperimentTask
    result: ExperimentResult | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    cached: bool = False
    #: Name of the execution backend that produced the result (restored from
    #: the cache entry on a hit), or ``None`` before execution.
    backend: str | None = None
    #: Identity of the worker (``<host>-<pid>``) that ran the task.
    worker: str | None = None
    #: How many execution attempts the task took (2 = succeeded/failed on the
    #: retry pass); 0 for never-executed states.
    attempts: int = 0


def _resolve_backend_name(backend: str, workers: int, pending: int, queue_dir: Any) -> str:
    """Resolve ``auto`` to a concrete backend for this batch.

    A queue directory implies ``file-queue``; otherwise single-worker or
    single-task batches run ``serial`` (zero dispatch machinery) and the rest
    use the local ``process`` pool (the classic behavior).
    """
    if backend != "auto":
        return backend
    if queue_dir is not None:
        return "file-queue"
    if workers == 1 or pending <= 1:
        return "serial"
    return "process"


def execute_tasks(
    tasks: Sequence[ExperimentTask],
    *,
    scale: Scale | str = Scale.DEFAULT,
    jobs: int = 1,
    backend: str = "auto",
    queue_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
    snapshot_dir: str | Path | None = None,
    metrics_window_us: float | None = None,
    trace_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[TaskExecution]:
    """Execute tasks through an execution backend; returns states in task order.

    This is the planner hook shared by :func:`run_orchestrated` (which plans
    per-experiment shard tasks) and the study subsystem (which plans one task
    per scenario cell): cached task results are served from ``cache_dir``, the
    remainder run through the selected :mod:`repro.execution` backend with up
    to ``jobs`` workers (``0`` = auto-detect CPU count), every fresh result is
    written back to the cache with its backend/worker provenance, and per-task
    failures are captured as tracebacks instead of propagating.  A task that
    fails is retried once on a **fresh** backend instance (a fresh pool /
    fresh workers) before being reported failed.  ``snapshot_dir`` installs
    the shared warm-image store in whichever process each task lands in.

    ``metrics_window_us`` / ``trace_dir`` enable observability in whichever
    process each task runs in; the resulting descriptor is part of every
    cache key, so results recorded under different telemetry settings are
    never served interchangeably.
    """
    workers = resolve_workers(jobs)
    scale_value = Scale.parse(scale).value
    emit = progress or (lambda line: None)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    snapshot_arg = str(snapshot_dir) if snapshot_dir is not None else None
    trace_arg = str(trace_dir) if trace_dir is not None else None
    obs: dict[str, Any] | None = None
    if metrics_window_us is not None or trace_arg is not None:
        obs = {
            "metrics_window_us": metrics_window_us,
            "trace": trace_arg is not None,
        }

    states = [TaskExecution(task) for task in tasks]
    for state in states:
        if cache is None:
            continue
        entry = cache.load_entry(state.task, scale_value, obs)
        decoded = None if entry is None else _decode_entry(entry)
        if decoded is None:
            continue
        state.result, state.elapsed_s = decoded
        state.cached = True
        provenance = entry.get("provenance") or {}
        state.backend = provenance.get("backend")
        state.worker = provenance.get("worker")
        state.attempts = int(provenance.get("attempts", 0))

    pending = [index for index, state in enumerate(states) if state.result is None]
    total = len(states)
    done = 0
    for state in states:
        if state.cached:
            done += 1
            emit(f"[{done:>3}/{total}] {state.task.label}: cached ({state.elapsed_s:.1f} s saved)")

    if not pending:
        return states

    backend_name = _resolve_backend_name(backend, workers, len(pending), queue_dir)

    def make_backend():
        return create_backend(backend_name, workers=workers, queue_dir=queue_dir, on_note=emit)

    def payloads_for(indices: Sequence[int]) -> list[TaskPayload]:
        return [
            TaskPayload(
                index=index,
                experiment=states[index].task.experiment,
                label=states[index].task.label,
                kwargs=states[index].task.kwargs,
                scale=scale_value,
                snapshot_dir=snapshot_arg,
                metrics_window_us=metrics_window_us,
                trace_dir=trace_arg,
            )
            for index in indices
        ]

    def run_pass(indices: Sequence[int], attempt: int) -> list[int]:
        """Run one execution pass; returns the indices that failed."""
        nonlocal done
        failed: list[int] = []
        exec_backend = make_backend()
        for completion in exec_backend.submit_all(payloads_for(indices)):
            state = states[completion.index]
            state.backend = completion.backend
            state.worker = completion.worker
            state.attempts = attempt
            if completion.error is not None:
                if attempt == 1:
                    failed.append(completion.index)
                    state.error = completion.error
                    emit(
                        f"{state.task.label}: failed on {completion.backend} worker "
                        f"{completion.worker}; retrying on a fresh worker"
                    )
                    continue
                done += 1
                state.error = (
                    f"task failed twice (backend={completion.backend}, "
                    f"last worker={completion.worker})\n{completion.error}"
                )
                emit(
                    f"[{done:>3}/{total}] {state.task.label}: FAILED on "
                    f"{completion.backend} worker {completion.worker}"
                )
                continue
            done += 1
            state.error = None
            state.result = ExperimentResult.from_dict(completion.result)
            state.elapsed_s = completion.elapsed_s
            if cache is not None:
                cache.store(
                    state.task,
                    scale_value,
                    state.result,
                    completion.elapsed_s,
                    provenance={
                        "backend": completion.backend,
                        "worker": completion.worker,
                        "attempts": attempt,
                    },
                    obs=obs,
                )
            emit(f"[{done:>3}/{total}] {state.task.label}: done in {completion.elapsed_s:.1f} s")
        return failed

    emit(f"executing {len(pending)} tasks via {make_backend().describe()}")
    retries = run_pass(pending, attempt=1)
    if retries:
        # A fresh backend instance means fresh workers (a new pool, or new
        # file-queue worker processes), so a crashed worker can't poison the
        # retry pass.
        run_pass(retries, attempt=2)
    return states


def run_orchestrated(
    names: Sequence[str],
    *,
    scale: Scale | str = Scale.DEFAULT,
    jobs: int = 1,
    backend: str = "auto",
    queue_dir: str | Path | None = None,
    split: bool = True,
    cache_dir: str | Path | None = None,
    snapshot_dir: str | Path | None = None,
    metrics_window_us: float | None = None,
    trace_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[ExperimentOutcome]:
    """Run experiments (possibly sharded) through an execution backend.

    Every experiment is planned into tasks, cached task results are reused,
    the remaining tasks execute through the selected backend with up to
    ``jobs`` workers, and shard results are merged back into one
    :class:`ExperimentResult` per experiment — identical for any backend and
    any ``jobs`` value.  A failing task marks its experiment failed (with the
    traceback in :attr:`ExperimentOutcome.error`) without stopping the batch.

    ``snapshot_dir`` points every task at a shared warm-image store (see
    :mod:`repro.snapshot`): tasks restore warmed devices instead of re-paying
    the fill/overwrite phase, with results bit-identical either way.
    ``metrics_window_us`` / ``trace_dir`` turn on windowed telemetry and
    event tracing inside every task (see :mod:`repro.obs`); the per-window
    series ride back in each result's ``raw["telemetry"]`` block.
    """
    planned: dict[str, list[ExperimentTask]] = {
        name: plan_tasks(name, split=split) for name in names
    }
    states = execute_tasks(
        [task for group in planned.values() for task in group],
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
    plan: dict[str, list[TaskExecution]] = {}
    cursor = 0
    for name, group_tasks in planned.items():
        plan[name] = states[cursor : cursor + len(group_tasks)]
        cursor += len(group_tasks)

    outcomes: list[ExperimentOutcome] = []
    for name, group in plan.items():
        backends = sorted({state.backend for state in group if state.backend})
        outcome = ExperimentOutcome(
            name=name,
            tasks=len(group),
            cached_tasks=sum(1 for state in group if state.cached),
            elapsed_s=sum(state.elapsed_s for state in group),
            backend="+".join(backends) if backends else None,
            workers=sorted({state.worker for state in group if state.worker}),
        )
        errors = [state for state in group if state.error is not None]
        if errors:
            outcome.error = "\n".join(
                f"task {state.task.label} failed:\n{state.error}" for state in errors
            )
        else:
            try:
                outcome.result = merge_results(
                    name, [state.task for state in group], [state.result for state in group]
                )
            except Exception:
                outcome.error = f"merging {name} failed:\n{traceback.format_exc()}"
        outcomes.append(outcome)
    return outcomes


# ------------------------------------------------------------------ artifacts
def _json_safe(value: Any) -> Any:
    """Replace non-finite floats (inf/nan from degenerate normalizations) with
    strings so artifacts stay valid RFC 8259 JSON for external consumers."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, Mapping):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def write_json_artifact(
    directory: str | Path, outcome: ExperimentOutcome, scale: Scale | str
) -> Path:
    """Write one experiment's machine-readable artifact; returns the path."""
    if not outcome.ok:
        raise ValueError(f"cannot write artifact for failed experiment {outcome.name}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    result = outcome.result
    payload = {
        "schema_version": SCHEMA_VERSION,
        "experiment": outcome.name,
        "description": result.description,
        "scale": Scale.parse(scale).value,
        "elapsed_s": round(outcome.elapsed_s, 3),
        "tasks": outcome.tasks,
        "cached_tasks": outcome.cached_tasks,
        "execution": {
            "backend": outcome.backend,
            "workers": outcome.workers,
        },
        "rows": result.rows,
        "notes": result.notes,
        "extra_tables": result.extra_tables,
        "raw": result.raw,
    }
    path = directory / f"{outcome.name}.json"
    return publish_text(
        path,
        json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False),
    )
