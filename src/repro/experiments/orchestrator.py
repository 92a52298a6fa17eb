"""Parallel experiment orchestration with result caching.

The evaluation of the paper is 14 independent figure/table experiments, and
the heavyweight cross-FTL comparisons are themselves products of
independent (FTL, workload) cells.  This module turns that structure into a
task graph executed through a pluggable backend (:mod:`repro.execution`):

* :func:`plan_tasks` splits an experiment into shard tasks along the axes its
  harness declares (``SHARD_AXES``: one task per FTL, or per (trace, FTL) or
  (workload, FTL) cell), a single task otherwise;
* :func:`run_orchestrated` executes tasks through the selected execution
  backend — inline (``serial``), a local process pool (``process``) or a
  shared queue directory spanning hosts (``file-queue``) — streaming per-task
  progress, caching each task's result on disk keyed by its content
  (experiment, scale, kwargs, package version), retrying a task that dies in
  a worker once on a fresh worker, and tolerating per-experiment failures;
* :func:`merge_results` concatenates shard results and applies the
  harness's own ``finish`` step, so the merged rows are exactly those of one
  whole run, cross-FTL normalized columns included;
* :func:`describe_plan` is the dry run: each task's cache status and the
  snapshot keys its harness's ``warm_ups`` declaration predicts.

The module knows no experiment by name: every per-figure fact lives in the
figure's harness.  Studies (:mod:`repro.studies`) run through the same
:class:`ExperimentPlan` path (:func:`run_plans`, :func:`describe_plans`).
Because every task is deterministic given (experiment, scale, kwargs), the
merged output is identical for any backend and any ``--jobs`` value, and a
warm cache makes re-running ``all`` nearly free.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro import __version__
from repro.execution import TaskPayload, create_backend, resolve_workers
from repro.execution.atomic import publish_json, publish_text
from repro.experiments import EXPERIMENTS
from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, snapshot_key
from repro.snapshot.fingerprint import source_fingerprint
from repro.snapshot.store import SnapshotStore

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentTask",
    "ExperimentOutcome",
    "ExperimentPlan",
    "TaskExecution",
    "ResultCache",
    "plan_tasks",
    "snapshot_keys",
    "describe_plan",
    "describe_plans",
    "merge_results",
    "execute_tasks",
    "run_plans",
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
def _declared(name: str, hook: str) -> Any:
    """One optional orchestration hook of an experiment's harness module.

    A harness may declare ``SHARD_AXES`` (how :func:`plan_tasks` splits it),
    ``finish`` (the step :func:`merge_results` applies to the concatenated
    shards) and ``warm_ups`` (the device warm-ups ``--dry-run`` predicts); an
    experiment that declares nothing is one task with no warm-up.
    """
    run, _ = EXPERIMENTS[name]
    return getattr(sys.modules[run.__module__], hook, None)


def plan_tasks(name: str) -> list[ExperimentTask]:
    """Split one experiment into independent tasks.

    A harness whose ``SHARD_AXES`` maps keyword arguments to their values
    runs as one task per combination, first axis outermost (e.g. one task
    per FTL, or per (trace, FTL) cell); every other experiment is one task.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    axes: Mapping[str, Sequence[str]] | None = _declared(name, "SHARD_AXES")
    if not axes:
        return [ExperimentTask.create(name)]
    return [
        ExperimentTask.create(
            name,
            label=f"{name}[{'/'.join(values)}]",
            **{axis: (value,) for axis, value in zip(axes, values)},
        )
        for values in itertools.product(*axes.values())
    ]


def snapshot_keys(task: ExperimentTask, scale: str) -> list[str]:
    """The distinct snapshot-store keys ``task`` warms its devices under.

    Predicted without running anything from the ``prepare_ssd`` calls the
    harness's ``warm_ups`` declares, each key built as ``prepare_ssd`` does.
    """
    warm_ups = _declared(task.experiment, "warm_ups")
    if warm_ups is None:
        return []
    calls = warm_ups(ScaleSpec.for_scale(scale), **task.run_kwargs())
    keys = (snapshot_key(**call) for call in calls)
    return list(dict.fromkeys(key for key in keys if key is not None))


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment's (or one study's) tasks and the merge of their results."""

    name: str
    tasks: Sequence[ExperimentTask]
    merge: Callable[[list[ExperimentResult]], ExperimentResult]


def _experiment_plan(name: str) -> ExperimentPlan:
    tasks = plan_tasks(name)
    return ExperimentPlan(name, tasks, lambda results: merge_results(name, tasks, results))


# -------------------------------------------------------------------- dry run
def _observability(
    metrics_window_us: float | None, trace_dir: str | Path | None
) -> dict[str, Any] | None:
    """The telemetry descriptor folded into every cache key (``None``: off)."""
    if metrics_window_us is None and trace_dir is None:
        return None
    return {"metrics_window_us": metrics_window_us, "trace": trace_dir is not None}


def describe_plans(
    plans: Sequence[ExperimentPlan],
    *,
    unit: str = "tasks",
    scale: Scale | str = Scale.DEFAULT,
    cache_dir: str | Path | None = None,
    snapshot_dir: str | Path | None = None,
    metrics_window_us: float | None = None,
    trace_dir: str | Path | None = None,
) -> list[str]:
    """Describe what running ``plans`` would do, without executing or writing anything.

    One line per task with its result-cache status (hit/miss, under the same
    observability descriptor a run would use) and its predicted snapshot
    status, then a totals line counting ``unit``.  A study cell warms one
    device, so with ``unit="cells"`` its snapshot status reads warm/cold.
    """
    scale_value = Scale.parse(scale).value
    obs = _observability(metrics_window_us, trace_dir)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    store = SnapshotStore(snapshot_dir) if snapshot_dir is not None else None
    lines: list[str] = []
    total = cached = 0
    for task in (task for plan in plans for task in plan.tasks):
        total += 1
        if cache is None:
            cache_status = "no cache"
        elif cache.load(task, scale_value, obs) is not None:
            cache_status = "hit"
            cached += 1
        else:
            cache_status = "miss"
        keys = snapshot_keys(task, scale_value)
        if not keys:
            snapshots = "none needed"
        elif store is None:
            snapshots = "no store"
        else:
            hits = sum(store.contains(key) for key in keys)
            if unit == "cells":
                snapshots = "warm" if hits else "cold"
            else:
                snapshots = f"{hits}/{len(keys)} warm"
        lines.append(f"{task.label}: cache {cache_status}; snapshots: {snapshots}")
    summary = f"{total} {unit} planned at scale={scale_value}"
    if cache is not None:
        summary += f", {cached} cached, {total - cached} to run"
    lines.append(summary)
    return lines


def describe_plan(
    names: Sequence[str],
    *,
    scale: Scale | str = Scale.DEFAULT,
    cache_dir: str | Path | None = None,
    snapshot_dir: str | Path | None = None,
    metrics_window_us: float | None = None,
    trace_dir: str | Path | None = None,
) -> list[str]:
    """Describe what running experiments ``names`` would do (``--dry-run``)."""
    return describe_plans(
        [_experiment_plan(name) for name in names],
        scale=scale,
        cache_dir=cache_dir,
        snapshot_dir=snapshot_dir,
        metrics_window_us=metrics_window_us,
        trace_dir=trace_dir,
    )


# -------------------------------------------------------------------- merging
def _deep_update(target: dict[str, Any], value: Mapping[str, Any]) -> None:
    """Recursively merge nested raw payloads (e.g. {trace: {ftl: metric}})."""
    for key, item in value.items():
        if isinstance(item, Mapping) and isinstance(target.get(key), dict):
            _deep_update(target[key], item)
        elif isinstance(item, Mapping):
            target[key] = dict(item)
        else:
            target[key] = item


def merge_results(
    name: str, tasks: Sequence[ExperimentTask], results: Sequence[ExperimentResult]
) -> ExperimentResult:
    """Reassemble shard results (in ``tasks`` order) into the canonical result.

    Rows, extra tables and ``raw.telemetry.devices`` are concatenated in
    task order, notes deduplicated and the rest of the raw payloads
    deep-merged; the harness's ``finish`` step, when it declares one, then
    rebuilds the columns that need every shard (the same step its own
    ``run`` ends with).
    """
    if len(tasks) != len(results):
        raise ValueError("tasks and results must align")
    merged = ExperimentResult(name=results[0].name, description=results[0].description)
    devices: list[Any] = []
    for shard in results:
        merged.rows.extend(shard.rows)
        for title, rows in shard.extra_tables.items():
            merged.extra_tables.setdefault(title, []).extend(rows)
        _deep_update(merged.raw, shard.raw)
        devices.extend(shard.raw.get("telemetry", {}).get("devices", ()))
        for note in shard.notes:
            if note not in merged.notes:
                merged.notes.append(note)
    if "telemetry" in merged.raw:
        merged.raw["telemetry"]["devices"] = devices
    finish = _declared(name, "finish")
    return merged if finish is None else finish(merged)


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
        # Created by the first store, so a dry run's lookups write nothing.
        self.root = Path(root)

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
        self.root.mkdir(parents=True, exist_ok=True)
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
    obs = _observability(metrics_window_us, trace_dir)

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


def _outcome(plan: ExperimentPlan, states: Sequence[TaskExecution]) -> ExperimentOutcome:
    """Fold one plan's executed tasks into its outcome (merged, or failed)."""
    backends = sorted({state.backend for state in states if state.backend})
    outcome = ExperimentOutcome(
        name=plan.name,
        tasks=len(states),
        cached_tasks=sum(1 for state in states if state.cached),
        elapsed_s=sum(state.elapsed_s for state in states),
        backend="+".join(backends) if backends else None,
        workers=sorted({state.worker for state in states if state.worker}),
    )
    errors = [state for state in states if state.error is not None]
    if errors:
        outcome.error = "\n".join(
            f"task {state.task.label} failed:\n{state.error}" for state in errors
        )
        return outcome
    try:
        outcome.result = plan.merge([state.result for state in states])
    except Exception:
        outcome.error = f"merging {plan.name} failed:\n{traceback.format_exc()}"
    return outcome


def run_plans(plans: Sequence[ExperimentPlan], **execution: Any) -> list[ExperimentOutcome]:
    """Execute every plan's tasks in one batch and merge each plan's results.

    ``execution`` holds :func:`execute_tasks`'s keyword arguments.  A failing
    task marks its plan failed (with the traceback in
    :attr:`ExperimentOutcome.error`) without stopping the batch.
    """
    states = execute_tasks([task for plan in plans for task in plan.tasks], **execution)
    outcomes: list[ExperimentOutcome] = []
    cursor = 0
    for plan in plans:
        outcomes.append(_outcome(plan, states[cursor : cursor + len(plan.tasks)]))
        cursor += len(plan.tasks)
    return outcomes


def run_orchestrated(
    names: Sequence[str],
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
    return run_plans(
        [_experiment_plan(name) for name in names],
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
