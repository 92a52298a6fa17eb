"""Pluggable execution backends for the experiment orchestrator.

The orchestrator plans *what* to run; this package decides *where*: inline
in the calling process (``serial``), across local processes
(``process``), or across any number of hosts cooperating
through a shared queue directory (``file-queue``).  All backends implement
the same small :class:`~repro.execution.base.ExecutorBackend` contract and
— because every experiment is deterministic — produce bit-identical
results for the same task list.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.execution.base import (
    CompletedTask,
    ExecutorBackend,
    TaskPayload,
    default_worker_id,
    resolve_workers,
    run_payload,
)
from repro.execution.filequeue import FileQueue, FileQueueBackend, run_worker
from repro.execution.local import ProcessBackend, SerialBackend

__all__ = [
    "BACKEND_NAMES",
    "CompletedTask",
    "ExecutorBackend",
    "FileQueue",
    "FileQueueBackend",
    "ProcessBackend",
    "SerialBackend",
    "TaskPayload",
    "create_backend",
    "default_worker_id",
    "resolve_workers",
    "run_payload",
    "run_worker",
]

#: Every selectable backend name (the CLI additionally accepts ``auto``).
BACKEND_NAMES = ("serial", "process", "file-queue")


def create_backend(
    name: str,
    *,
    workers: int = 1,
    queue_dir: str | Path | None = None,
    on_note: Callable[[str], None] | None = None,
) -> ExecutorBackend:
    """Build the named backend.

    ``workers`` must already be resolved (see
    :func:`~repro.execution.base.resolve_workers` for the ``0`` = auto-detect
    convention).  ``file-queue`` requires ``queue_dir``; the other backends
    ignore it.
    """
    if name == "serial":
        return SerialBackend(on_note=on_note)
    if name == "process":
        return ProcessBackend(workers=workers, on_note=on_note)
    if name == "file-queue":
        if queue_dir is None:
            raise ValueError("the file-queue backend requires a queue directory")
        return FileQueueBackend(queue_dir, workers=workers, on_note=on_note)
    raise ValueError(f"unknown execution backend {name!r} (expected one of {', '.join(BACKEND_NAMES)})")
