"""Multi-host work-stealing execution over a shared directory.

The file-queue backend lets any number of hosts cooperate on one study by
pointing them at the same queue directory (a local path or a network
mount).  There is no broker process: the filesystem itself is the
coordination substrate, using only the atomic primitives in
:mod:`repro.execution.atomic`.

Queue directory layout::

    <queue-dir>/
      tasks/    <task-id>.json              # enqueued, claimable work
      claims/   <task-id>@<worker-id>.json  # claimed work (rename-moved here)
      results/  <task-id>.json              # atomically published outcomes
      workers/  <worker-id>                 # heartbeat files (mtime = alive)
      stop                                  # sentinel: coordinator is done

The protocol:

* the **coordinator** (:class:`FileQueueBackend.submit_all`) publishes one
  task file per payload, optionally spawns local worker processes, then
  polls ``results/`` — reclaiming tasks whose claimant's heartbeat went
  stale — and finally writes the ``stop`` sentinel;
* a **worker** (:func:`run_worker`, CLI verb
  ``python -m repro.experiments worker <queue-dir>``) claims a task by
  atomically renaming its file from ``tasks/`` into ``claims/`` — of N
  racing workers exactly one wins — keeps a heartbeat thread touching its
  ``workers/`` file (so long tasks are not mistaken for dead workers), runs
  the task, and atomically publishes the outcome into ``results/``;
* a claim whose worker stops heartbeating for ``dead_after_s`` is renamed
  back into ``tasks/`` for another worker to steal; because every task is
  deterministic and results are published atomically, a worker that turns
  out to be merely slow publishes an identical result and nothing is lost.

Workers never need the study spec, the cache or the CLI arguments: each
task file is a self-contained :class:`~repro.execution.base.TaskPayload`
(experiment, scale, kwargs, snapshot dir), so ``worker`` processes attach
to a queue directory knowing nothing else.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
import time
import traceback
import uuid
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.execution.atomic import claim_path, publish_json
from repro.execution.base import (
    CompletedTask,
    ExecutorBackend,
    TaskPayload,
    default_worker_id,
    run_payload,
)

__all__ = ["FileQueue", "FileQueueBackend", "run_worker"]

#: How often a busy worker's heartbeat thread touches its liveness file.
HEARTBEAT_PERIOD_S = 2.0

#: Claims whose worker has not heartbeaten for this long are reclaimed.
DEFAULT_DEAD_AFTER_S = 30.0


class FileQueue:
    """The on-disk queue: atomic enqueue/claim/publish over one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.workers_dir = self.root / "workers"
        self._stop = self.root / "stop"

    def ensure(self) -> "FileQueue":
        for directory in (self.tasks_dir, self.claims_dir, self.results_dir, self.workers_dir):
            directory.mkdir(parents=True, exist_ok=True)
        return self

    # --------------------------------------------------------------- enqueue
    def enqueue(self, task_id: str, payload: TaskPayload) -> Path:
        """Publish one claimable task file."""
        return publish_json(self.tasks_dir / f"{task_id}.json", payload.to_wire())

    def pending_ids(self) -> list[str]:
        """Task ids currently claimable (sorted for deterministic stealing)."""
        return sorted(path.stem for path in self.tasks_dir.glob("*.json"))

    # ----------------------------------------------------------------- claim
    def claim(self, worker_id: str) -> tuple[str, TaskPayload] | None:
        """Atomically claim one task, or ``None`` when nothing is claimable.

        The claim is a rename of the task file into ``claims/``; of N
        workers racing for the same task exactly one rename succeeds and
        the rest move on to the next file.  A claimed file that does not
        decode to a payload gets an ``error`` outcome naming the claim file
        and the cause (the coordinator re-enqueues the payload it holds), and
        the search moves on.
        """
        for path in sorted(self.tasks_dir.glob("*.json")):
            destination = self.claims_dir / f"{path.stem}@{worker_id}.json"
            if not claim_path(path, destination):
                continue
            try:
                wire = json.loads(destination.read_text(encoding="utf-8"))
                return path.stem, TaskPayload.from_wire(wire)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                self.publish_result(
                    path.stem,
                    {
                        "worker": worker_id,
                        "backend": FileQueueBackend.name,
                        "error": f"undecodable task file {destination}: {exc!r}",
                    },
                )
        return None

    def claims(self) -> dict[str, list[str]]:
        """Claim history: task id -> worker ids that ever claimed it."""
        record: dict[str, list[str]] = {}
        for path in sorted(self.claims_dir.glob("*.json")):
            task_id, _, worker_id = path.stem.rpartition("@")
            record.setdefault(task_id, []).append(worker_id)
        return record

    # ------------------------------------------------------------- heartbeat
    def heartbeat(self, worker_id: str) -> None:
        """Refresh this worker's liveness file."""
        (self.workers_dir / worker_id).touch()

    def live_workers(self, within_s: float) -> list[str]:
        """Worker ids whose heartbeat is fresher than ``within_s`` seconds."""
        now = time.time()
        return sorted(
            path.name
            for path in self.workers_dir.iterdir()
            if now - path.stat().st_mtime <= within_s
        )

    def reclaim_dead(self, dead_after_s: float) -> list[str]:
        """Return stale claims to ``tasks/``; returns the reclaimed task ids.

        A claim is stale when its task has no published result and the
        claiming worker's last sign of life (heartbeat file, falling back to
        the claim file itself for workers that died mid-claim) is older than
        ``dead_after_s``.
        """
        now = time.time()
        reclaimed: list[str] = []
        for path in sorted(self.claims_dir.glob("*.json")):
            task_id, _, worker_id = path.stem.rpartition("@")
            if (self.results_dir / f"{task_id}.json").exists():
                continue
            last_alive = path.stat().st_mtime
            beat = self.workers_dir / worker_id
            if beat.exists():
                last_alive = max(last_alive, beat.stat().st_mtime)
            if now - last_alive <= dead_after_s:
                continue
            if claim_path(path, self.tasks_dir / f"{task_id}.json"):
                reclaimed.append(task_id)
        return reclaimed

    # --------------------------------------------------------------- results
    def publish_result(self, task_id: str, payload: dict) -> Path:
        """Atomically publish one task outcome (success or error).

        Key order is preserved (no ``sort_keys``) so result rows render
        with the same column order as an in-process run.
        """
        return publish_json(self.results_dir / f"{task_id}.json", payload, sort_keys=False)

    def result(self, task_id: str) -> dict | None:
        """The published outcome for ``task_id``, or ``None``."""
        path = self.results_dir / f"{task_id}.json"
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    # ------------------------------------------------------------------ stop
    def request_stop(self) -> None:
        """Tell attached workers the coordinator is done (they drain and exit)."""
        self._stop.touch()

    def stop_requested(self) -> bool:
        return self._stop.exists()

    def clear_stop(self) -> None:
        self._stop.unlink(missing_ok=True)


# ------------------------------------------------------------------- workers
def run_worker(
    queue_dir: str | Path,
    *,
    poll_s: float = 0.5,
    drain: bool = False,
    max_tasks: int | None = None,
    worker_id: str | None = None,
    log: Callable[[str], None] | None = None,
) -> int:
    """Attach to a queue directory and execute tasks until told to stop.

    The loop claims, runs and publishes tasks one at a time; a daemon
    heartbeat thread keeps the worker's liveness file fresh even through
    long tasks.  The worker exits when the coordinator's ``stop`` sentinel
    is present and nothing is claimable — or, with ``drain=True``, as soon
    as nothing is claimable.  Returns the number of tasks executed.
    """
    queue = FileQueue(queue_dir).ensure()
    identity = worker_id or default_worker_id()
    emit = log or (lambda line: None)
    queue.heartbeat(identity)

    stop_beating = threading.Event()

    def beat() -> None:
        while not stop_beating.wait(HEARTBEAT_PERIOD_S):
            try:
                queue.heartbeat(identity)
            except OSError:  # pragma: no cover - transient share hiccup
                pass

    beater = threading.Thread(target=beat, name=f"heartbeat-{identity}", daemon=True)
    beater.start()
    executed = 0
    try:
        while max_tasks is None or executed < max_tasks:
            claimed = queue.claim(identity)
            if claimed is None:
                if drain or queue.stop_requested():
                    break
                time.sleep(poll_s)
                continue
            task_id, payload = claimed
            emit(f"[worker {identity}] {payload.label}: claimed")
            outcome: dict = {
                "label": payload.label,
                "worker": identity,
                "backend": FileQueueBackend.name,
            }
            try:
                result, elapsed = run_payload(payload)
            except Exception:
                outcome["error"] = traceback.format_exc()
                emit(f"[worker {identity}] {payload.label}: FAILED")
            else:
                outcome["result"] = result
                outcome["elapsed_s"] = elapsed
                emit(f"[worker {identity}] {payload.label}: done in {elapsed:.1f} s")
            queue.publish_result(task_id, outcome)
            executed += 1
    finally:
        stop_beating.set()
        beater.join(timeout=HEARTBEAT_PERIOD_S + 1.0)
    return executed


def _worker_entry(queue_dir: str, poll_s: float) -> None:
    """Local-worker process entry point (module-level so it pickles)."""
    run_worker(
        queue_dir,
        poll_s=poll_s,
        log=lambda line: print(line, file=sys.stderr, flush=True),
    )


# --------------------------------------------------------------- coordinator
class FileQueueBackend(ExecutorBackend):
    """Coordinate a run over a shared queue directory.

    ``workers`` local worker processes are spawned for the duration of the
    run (``0`` = pure coordinator: only externally attached ``worker``
    processes — possibly on other hosts — execute tasks).  The coordinator
    itself only enqueues, polls results, reclaims dead workers' tasks and
    finally writes the ``stop`` sentinel.
    """

    name = "file-queue"

    def __init__(
        self,
        queue_dir: str | Path,
        *,
        workers: int = 1,
        poll_s: float = 0.2,
        dead_after_s: float = DEFAULT_DEAD_AFTER_S,
        on_note: Callable[[str], None] | None = None,
    ) -> None:
        super().__init__(workers=workers, on_note=on_note)
        self.queue_dir = Path(queue_dir)
        self.poll_s = poll_s
        self.dead_after_s = dead_after_s

    def describe(self) -> str:
        return f"file-queue on {self.queue_dir} ({self.workers} local workers)"

    def submit_all(self, payloads: Sequence[TaskPayload]) -> Iterator[CompletedTask]:
        queue = FileQueue(self.queue_dir).ensure()
        queue.clear_stop()
        # A per-run token keeps ids unique across runs (and retry passes)
        # sharing one queue directory.
        token = uuid.uuid4().hex[:8]
        outstanding = {f"{token}-{payload.index:05d}": payload for payload in payloads}
        for task_id, payload in sorted(outstanding.items()):
            queue.enqueue(task_id, payload)

        context = multiprocessing.get_context()
        locals_ = [
            context.Process(
                target=_worker_entry,
                args=(str(self.queue_dir), self.poll_s),
                daemon=True,
            )
            for _ in range(self.workers)
        ]
        for process in locals_:
            process.start()

        last_note = time.monotonic()
        try:
            while outstanding:
                progressed = False
                for task_id in sorted(outstanding):
                    outcome = queue.result(task_id)
                    if outcome is None:
                        continue
                    payload = outstanding.pop(task_id)
                    progressed = True
                    yield CompletedTask(
                        index=payload.index,
                        result=outcome.get("result"),
                        error=outcome.get("error"),
                        elapsed_s=float(outcome.get("elapsed_s", 0.0)),
                        worker=str(outcome.get("worker", "unknown")),
                        backend=self.name,
                    )
                if outstanding and not progressed:
                    queue.reclaim_dead(self.dead_after_s)
                    if time.monotonic() - last_note > 10.0:
                        live = queue.live_workers(within_s=3 * HEARTBEAT_PERIOD_S)
                        self._note(
                            f"file-queue: waiting on {len(outstanding)} tasks in "
                            f"{self.queue_dir} ({len(live)} live workers: "
                            f"{', '.join(live) or 'none — attach some with the worker verb'})"
                        )
                        last_note = time.monotonic()
                    time.sleep(self.poll_s)
        finally:
            queue.request_stop()
            for process in locals_:
                process.join(timeout=4 * self.poll_s + 2.0)
            for process in locals_:
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
