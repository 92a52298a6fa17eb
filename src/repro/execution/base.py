"""The executor-backend interface and its task/result wire format.

The orchestrator (:mod:`repro.experiments.orchestrator`) plans work into
tasks; *how* those tasks run — in-process, across local threads or
processes, or stolen from a shared directory by workers on several hosts —
is the backend's business.  The contract is deliberately small:

* a :class:`TaskPayload` is one self-contained unit of work: which
  experiment, at which scale, with which kwargs and which snapshot store.
  It is JSON-serializable (:meth:`TaskPayload.to_wire`) so it can cross a
  process boundary or live in a queue file on a network share;
* :meth:`ExecutorBackend.submit_all` takes the payloads and yields one
  :class:`CompletedTask` per payload **as each finishes** (any order), each
  carrying the result-or-traceback plus the identity of the worker that
  produced it;
* backends own their whole lifecycle inside ``submit_all`` (pools are
  created and torn down there), so a fresh backend instance is always a
  fresh set of workers — which is what the orchestrator's retry-once policy
  relies on.

:func:`run_payload` is the single task-running entry point every backend
shares; it imports the experiment layer lazily so this package stays
import-light and cycle-free.
"""

from __future__ import annotations

import os
import socket
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "TaskPayload",
    "CompletedTask",
    "ExecutorBackend",
    "run_payload",
    "resolve_workers",
    "default_worker_id",
]


def resolve_workers(jobs: int) -> int:
    """Resolve a ``--jobs``/``--workers`` value to a concrete worker count.

    ``0`` means auto-detect: use :func:`os.cpu_count` (falling back to 1 when
    the platform cannot report it).  Negative values are rejected.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = auto-detect os.cpu_count())")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def default_worker_id() -> str:
    """This process's worker identity: ``<hostname>-<pid>``.

    Recorded in every result a worker produces, so a failure in a
    distributed run names the host and process that ran the task.
    """
    return f"{socket.gethostname()}-{os.getpid()}"


def _freeze(value: Any) -> Any:
    """Restore the kwargs freezing of ``ExperimentTask.create`` after a JSON
    round trip (sequences become tuples so run kwargs match bit-for-bit)."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class TaskPayload:
    """One self-contained unit of work, serializable across any boundary."""

    #: Position of this task in the submitting run's task list; completions
    #: arrive in any order and are matched back through this index.
    index: int
    experiment: str
    label: str
    #: Frozen kwargs exactly as ``ExperimentTask`` stores them.
    kwargs: tuple[tuple[str, Any], ...]
    scale: str
    #: Shared warm-image store directory (installed in whichever process the
    #: task lands in), or ``None``.
    snapshot_dir: str | None = None
    #: Windowed-telemetry bucket width in simulated microseconds, or ``None``
    #: for telemetry off (see :mod:`repro.obs`).
    metrics_window_us: float | None = None
    #: Directory event traces are written into, or ``None`` for tracing off.
    trace_dir: str | None = None

    def run_kwargs(self) -> dict[str, Any]:
        return {name: value for name, value in self.kwargs}

    def to_wire(self) -> dict[str, Any]:
        """A JSON-serializable description (queue files, logs)."""
        return {
            "index": self.index,
            "experiment": self.experiment,
            "label": self.label,
            "kwargs": [[name, value] for name, value in self.kwargs],
            "scale": self.scale,
            "snapshot_dir": self.snapshot_dir,
            "metrics_window_us": self.metrics_window_us,
            "trace_dir": self.trace_dir,
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "TaskPayload":
        """Rebuild a payload from :meth:`to_wire` output, re-freezing kwargs
        so the reconstructed task runs with bit-identical arguments."""
        window = wire.get("metrics_window_us")
        return cls(
            index=int(wire["index"]),
            experiment=str(wire["experiment"]),
            label=str(wire["label"]),
            kwargs=tuple((str(name), _freeze(value)) for name, value in wire["kwargs"]),
            scale=str(wire["scale"]),
            snapshot_dir=wire.get("snapshot_dir"),
            metrics_window_us=float(window) if window is not None else None,
            trace_dir=wire.get("trace_dir"),
        )


@dataclass
class CompletedTask:
    """One finished task: its result (or traceback) plus provenance."""

    index: int
    result: dict[str, Any] | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    #: Identity of the worker that ran the task (``<host>-<pid>``), or
    #: ``"unknown"`` when the worker died before reporting.
    worker: str = "unknown"
    backend: str = "?"


def run_payload(payload: TaskPayload) -> tuple[dict, float]:
    """Run one task; returns ``(result dict, elapsed seconds)``.

    This is the single execution entry point every backend funnels through:
    it installs the payload's snapshot store in the current process, runs the
    experiment, and returns the result as a plain dict (the form that crosses
    process boundaries and lands in caches/queues).  The experiment layer is
    imported lazily to keep this package import-cycle-free.
    """
    from repro.experiments import run_experiment
    from repro.experiments.runner import set_metrics_window_us, set_snapshot_dir, set_trace_dir

    set_snapshot_dir(payload.snapshot_dir)
    set_metrics_window_us(payload.metrics_window_us)
    set_trace_dir(payload.trace_dir)
    started = time.perf_counter()
    result = run_experiment(
        payload.experiment, scale=payload.scale, label=payload.label, **payload.run_kwargs()
    )
    return result.to_dict(), time.perf_counter() - started


class ExecutorBackend(ABC):
    """Strategy interface: how a batch of task payloads gets executed.

    Implementations must yield exactly one :class:`CompletedTask` per
    submitted payload (in completion order) and surface task failures as
    ``error`` tracebacks on the completion — never as raised exceptions —
    so one bad task cannot take down the batch.
    """

    #: Registry name ("serial", "process", "file-queue").
    name = "?"

    def __init__(self, workers: int = 1, on_note: Callable[[str], None] | None = None) -> None:
        #: Resolved worker-parallelism of this backend (1 for serial).
        self.workers = workers
        #: Optional sink for operational notes (e.g. "waiting for workers");
        #: distinct from per-task progress, which the orchestrator emits.
        self.on_note = on_note

    @abstractmethod
    def submit_all(self, payloads: Sequence[TaskPayload]) -> Iterator[CompletedTask]:
        """Execute every payload; yield completions as they finish."""

    def describe(self) -> str:
        """One-line human description for progress output."""
        return f"{self.name} x{self.workers}"

    def _note(self, message: str) -> None:
        if self.on_note is not None:
            self.on_note(message)
