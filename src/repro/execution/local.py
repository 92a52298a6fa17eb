"""The two single-host executor backends: serial and process.

* :class:`SerialBackend` runs every task inline in the calling process —
  zero pickling, zero worker machinery — which is what makes ``--jobs 1``
  runs debuggable under ``pdb`` and profilable with ``cProfile``;
* :class:`ProcessBackend` fans tasks over a :class:`ProcessPoolExecutor` —
  the pre-refactor orchestrator behavior, now one backend among peers.

Both funnel through :func:`repro.execution.base.run_payload`, and both
report task failures as data (a traceback string plus the worker
identity that produced it) rather than raised exceptions.  A worker process
that *dies* (rather than raising) surfaces as a broken-pool error on its
task; the orchestrator's retry pass then resubmits on a fresh backend
instance, i.e. a fresh pool.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Iterator, Sequence

from repro.execution.base import (
    CompletedTask,
    ExecutorBackend,
    TaskPayload,
    default_worker_id,
    run_payload,
)

__all__ = ["SerialBackend", "ProcessBackend"]


def _run_completed(payload: TaskPayload, backend: str, worker: str) -> CompletedTask:
    """Run one payload, capturing success or traceback as a completion."""
    try:
        result, elapsed = run_payload(payload)
    except Exception:
        return CompletedTask(
            index=payload.index,
            error=traceback.format_exc(),
            worker=worker,
            backend=backend,
        )
    return CompletedTask(
        index=payload.index,
        result=result,
        elapsed_s=elapsed,
        worker=worker,
        backend=backend,
    )


class SerialBackend(ExecutorBackend):
    """In-process, in-order execution with no pickling or worker machinery."""

    name = "serial"

    def __init__(self, workers: int = 1, on_note=None) -> None:
        super().__init__(workers=1, on_note=on_note)

    def submit_all(self, payloads: Sequence[TaskPayload]) -> Iterator[CompletedTask]:
        worker = default_worker_id()
        for payload in payloads:
            yield _run_completed(payload, self.name, worker)

    def describe(self) -> str:
        return "serial (in-process)"


def _process_entry(payload: TaskPayload, backend_name: str) -> CompletedTask:
    """Worker-process entry point (module-level so it pickles)."""
    return _run_completed(payload, backend_name, default_worker_id())


class ProcessBackend(ExecutorBackend):
    """Local process-pool execution (the classic ``--jobs N`` behavior)."""

    name = "process"

    def submit_all(self, payloads: Sequence[TaskPayload]) -> Iterator[CompletedTask]:
        max_workers = min(self.workers, max(1, len(payloads)))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(_process_entry, payload, self.name): payload
                for payload in payloads
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    payload = futures[future]
                    try:
                        yield future.result()
                    except Exception as exc:
                        # The worker process died (e.g. a hard crash breaks
                        # the whole pool) rather than raising inside the
                        # task; its identity is unrecoverable.
                        yield CompletedTask(
                            index=payload.index,
                            error=(
                                f"worker process died before reporting: {exc!r}\n"
                                f"{traceback.format_exc()}"
                            ),
                            worker="unknown",
                            backend=self.name,
                        )
