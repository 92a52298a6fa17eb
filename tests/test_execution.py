"""Tests for the pluggable execution layer (``repro.execution``).

Covers the atomic filesystem primitives, the three backends' behavioral
equivalence (bit-identical study results), per-task telemetry isolation
under the process pool, worker-failure retry with
backend/worker provenance, the file-queue protocol (atomic claims,
heartbeats, dead-worker reclaim, exactly-once claiming across concurrent
workers), and concurrent cache/snapshot publishers racing on one key.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.execution import (
    BACKEND_NAMES,
    FileQueue,
    FileQueueBackend,
    TaskPayload,
    create_backend,
    resolve_workers,
    run_worker,
)
from repro.execution.atomic import claim_path, publish_json, publish_text
from repro.experiments import EXPERIMENTS
from repro.experiments.__main__ import main as cli_main
from repro.experiments.orchestrator import (
    ExperimentTask,
    ResultCache,
    execute_tasks,
    run_orchestrated,
    write_json_artifact,
)
from repro.experiments.runner import ExperimentResult

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patched experiment registry reaches workers only with fork start method",
)

#: The study spec used for cross-backend equivalence (two cheap ideal cells).
STUDY_SPEC = {
    "name": "backend-equivalence",
    "warmup": "fill",
    "axes": {
        "ftl": ["ideal"],
        "config": {"cmt_ratio": [0.01, 0.05]},
        "workload": [{"kind": "fio", "pattern": "randread", "num_requests": 200}],
    },
}


def _noop_tasks(count: int) -> list[ExperimentTask]:
    return [
        ExperimentTask.create("noop", label=f"noop[{i:02d}]", index=i) for i in range(count)
    ]


# ---------------------------------------------------------------- primitives
class TestAtomicPrimitives:
    def test_publish_text_replaces_whole_content(self, tmp_path):
        target = tmp_path / "value.txt"
        publish_text(target, "first")
        publish_text(target, "second")
        assert target.read_text(encoding="utf-8") == "second"
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_publish_json_roundtrip(self, tmp_path):
        target = tmp_path / "value.json"
        publish_json(target, {"b": 2, "a": [1, 2]})
        assert json.loads(target.read_text()) == {"a": [1, 2], "b": 2}

    def test_claim_path_exactly_one_winner_under_contention(self, tmp_path):
        src = tmp_path / "task.json"
        src.write_text("{}")
        winners: list[int] = []
        barrier = threading.Barrier(16)

        def contend(slot: int) -> None:
            barrier.wait()
            if claim_path(src, tmp_path / f"claim-{slot}.json"):
                winners.append(slot)

        threads = [threading.Thread(target=contend, args=(slot,)) for slot in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1
        assert not src.exists()

    def test_concurrent_cache_stores_never_expose_partial_files(self, tmp_path):
        # Two executors racing to publish the same key (e.g. two hosts that
        # both computed a cell) must leave one valid entry; readers running
        # during the race see a complete entry or a miss, never a partial.
        cache = ResultCache(tmp_path)
        task = _noop_tasks(1)[0]
        result = ExperimentResult(name="noop", description="d", rows=[{"index": 0}])
        stop = threading.Event()
        bad: list[str] = []

        def writer(worker: str) -> None:
            while not stop.is_set():
                cache.store(task, "tiny", result, 0.1, provenance={"worker": worker})

        def reader() -> None:
            while not stop.is_set():
                loaded = cache.load(task, "tiny")
                if loaded is not None and loaded[0].rows != [{"index": 0}]:
                    bad.append("corrupt read")

        threads = [threading.Thread(target=writer, args=(f"w{i}",)) for i in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not bad
        loaded = cache.load(task, "tiny")
        assert loaded is not None and loaded[0].rows == [{"index": 0}]
        assert not list(tmp_path.glob("*.tmp"))

    def test_concurrent_snapshot_saves_one_valid_image(self, tmp_path):
        from repro.nand.geometry import SSDGeometry
        from repro.snapshot.store import SnapshotStore
        from repro.ssd.device import SSD

        ssd = SSD.create("ideal", SSDGeometry.small())
        ssd.fill_sequential(io_pages=64)
        stores = [SnapshotStore(tmp_path) for _ in range(2)]
        key = SnapshotStore.key_for(
            ftl_name="ideal", geometry=SSDGeometry.small(), recipe={"mode": "fill"}
        )
        barrier = threading.Barrier(2)

        def save(store: SnapshotStore) -> None:
            barrier.wait()
            store.save(key, ssd)

        threads = [threading.Thread(target=save, args=(store,)) for store in stores]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly one copy was promoted; the published image restores cleanly.
        assert stores[0].stores + stores[1].stores >= 1
        assert stores[0].contains(key)
        assert stores[0].load(key) is not None
        assert not list(tmp_path.glob(".tmp-*"))


class TestWorkerResolution:
    def test_explicit_jobs_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="auto-detect"):
            resolve_workers(-1)

    def test_create_backend_names(self, tmp_path):
        assert BACKEND_NAMES == ("serial", "process", "file-queue")
        for name in ("serial", "process"):
            assert create_backend(name, workers=2).name == name
        assert create_backend("file-queue", queue_dir=tmp_path).name == "file-queue"
        with pytest.raises(ValueError, match="queue directory"):
            create_backend("file-queue")
        for name in ("carrier-pigeon", "thread"):
            with pytest.raises(ValueError, match="unknown execution backend"):
                create_backend(name)

    def test_payload_wire_roundtrip_refreezes_sequences(self):
        payload = TaskPayload(
            index=3,
            experiment="fig14",
            label="fig14[dftl]",
            kwargs=(("ftls", ("dftl",)), ("threads", 4)),
            scale="tiny",
            snapshot_dir="/tmp/snaps",
        )
        rebuilt = TaskPayload.from_wire(json.loads(json.dumps(payload.to_wire())))
        assert rebuilt == payload
        assert rebuilt.run_kwargs() == {"ftls": ("dftl",), "threads": 4}


# ----------------------------------------------------------------- equivalence
class TestBackendEquivalence:
    def test_all_backends_produce_bit_identical_study_tables(self, tmp_path):
        # The acceptance pin of the executor refactor: the same study spec
        # merged through serial, process and file-queue yields the
        # exact same table, rows, notes and raw payload.
        from repro.studies import run_study

        snapshot_dir = tmp_path / "snapshots"
        merged: dict[str, dict] = {}
        for backend in BACKEND_NAMES:
            outcome = run_study(
                STUDY_SPEC,
                scale="tiny",
                jobs=2,
                backend=backend,
                queue_dir=tmp_path / "queue" if backend == "file-queue" else None,
                snapshot_dir=snapshot_dir,
            )
            assert outcome.ok, f"{backend}: {outcome.error}"
            assert outcome.backend == backend
            assert outcome.workers, backend
            merged[backend] = outcome.result.to_dict()
        reference = merged["serial"]
        for backend in BACKEND_NAMES:
            assert merged[backend] == reference, f"{backend} diverged from serial"

    def test_auto_backend_selection(self, tmp_path):
        from repro.experiments.orchestrator import _resolve_backend_name

        assert _resolve_backend_name("auto", 1, 10, None) == "serial"
        assert _resolve_backend_name("auto", 4, 1, None) == "serial"
        assert _resolve_backend_name("auto", 4, 10, None) == "process"
        assert _resolve_backend_name("auto", 4, 10, tmp_path) == "file-queue"
        assert _resolve_backend_name("process", 1, 10, None) == "process"

    def test_process_pool_keeps_each_shards_telemetry_to_itself(self):
        # Runner telemetry state is process-global: tasks sharing one
        # interpreter at once would drain each other's devices.  Worker
        # processes run one task at a time, so every fig14 shard reports only
        # the devices of its own FTL.
        from repro.experiments.orchestrator import plan_tasks

        tasks = plan_tasks("fig14")
        states = execute_tasks(
            tasks, scale="tiny", jobs=2, backend="process", metrics_window_us=50_000.0
        )
        assert len(states) == len(tasks) > 1
        for state in states:
            assert state.error is None, state.error
            (ftl,) = dict(state.task.kwargs)["ftls"]
            devices = state.result.raw["telemetry"]["devices"]
            assert devices, state.task.label
            assert {device["ftl"] for device in devices} == {ftl}, state.task.label


# ---------------------------------------------------------- failure handling
def _flaky_experiment_factory(marker):
    def run(scale="tiny", **kwargs):
        if not marker.exists():
            marker.write_text("attempted")
            raise RuntimeError("transient failure on first attempt")
        return ExperimentResult(name="fakeflaky", description="flaky", rows=[{"ok": 1}])

    return run


class TestFailureHandling:
    def test_transient_failure_retried_once_and_succeeds(self, tmp_path, monkeypatch):
        marker = tmp_path / "attempted"
        monkeypatch.setitem(
            EXPERIMENTS, "fakeflaky", (_flaky_experiment_factory(marker), "flaky fake")
        )
        lines: list[str] = []
        states = execute_tasks(
            [ExperimentTask.create("fakeflaky")],
            scale="tiny",
            backend="serial",
            progress=lines.append,
        )
        assert states[0].error is None
        assert states[0].attempts == 2
        assert states[0].result.rows == [{"ok": 1}]
        assert any("retrying on a fresh worker" in line for line in lines)

    def test_permanent_failure_names_backend_and_worker(self, monkeypatch):
        def boom(scale="tiny", **kwargs):
            raise RuntimeError("always broken")

        monkeypatch.setitem(EXPERIMENTS, "fakeboom2", (boom, "always fails"))
        states = execute_tasks(
            [ExperimentTask.create("fakeboom2")], scale="tiny", backend="serial"
        )
        state = states[0]
        assert state.attempts == 2
        assert state.error is not None
        assert "task failed twice" in state.error
        assert "backend=serial" in state.error
        assert "last worker=" in state.error
        assert "always broken" in state.error

    def test_outcome_error_carries_backend_and_worker(self, monkeypatch):
        def boom(scale="tiny", **kwargs):
            raise RuntimeError("always broken")

        monkeypatch.setitem(EXPERIMENTS, "fakeboom3", (boom, "always fails"))
        outcomes = run_orchestrated(["fakeboom3"], scale="tiny", backend="serial")
        assert not outcomes[0].ok
        assert "backend=serial" in outcomes[0].error

    @fork_only
    def test_worker_process_death_retried_on_fresh_pool(self, tmp_path, monkeypatch):
        # A worker that *dies* (os._exit, OOM-kill) breaks the whole pool;
        # the retry pass must run on a fresh pool and succeed.
        marker = tmp_path / "crashed"

        def crash_once(scale="tiny", **kwargs):
            if not marker.exists():
                marker.write_text("crashing")
                os._exit(3)
            return ExperimentResult(name="fakecrash", description="d", rows=[{"ok": 1}])

        monkeypatch.setitem(EXPERIMENTS, "fakecrash", (crash_once, "dies once"))
        states = execute_tasks(
            [ExperimentTask.create("fakecrash")], scale="tiny", jobs=2, backend="process"
        )
        assert states[0].error is None, states[0].error
        assert states[0].attempts == 2


# ------------------------------------------------------------------ provenance
class TestProvenance:
    def test_cache_entry_and_artifact_record_backend_and_worker(self, tmp_path):
        cache_dir = tmp_path / "cache"
        outcomes = run_orchestrated(
            ["noop"], scale="tiny", backend="serial", cache_dir=cache_dir
        )
        assert outcomes[0].ok
        assert outcomes[0].backend == "serial"
        assert len(outcomes[0].workers) == 1

        entries = list(cache_dir.glob("*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        assert payload["provenance"]["backend"] == "serial"
        assert payload["provenance"]["worker"]
        assert payload["provenance"]["attempts"] == 1

        artifact = write_json_artifact(tmp_path / "json", outcomes[0], "tiny")
        data = json.loads(artifact.read_text())
        assert data["execution"]["backend"] == "serial"
        assert data["execution"]["workers"] == outcomes[0].workers

    def test_cache_hit_restores_original_provenance(self, tmp_path):
        cache_dir = tmp_path / "cache"
        tasks = _noop_tasks(1)
        first = execute_tasks(tasks, scale="tiny", backend="serial", cache_dir=cache_dir)
        second = execute_tasks(tasks, scale="tiny", backend="process", cache_dir=cache_dir)
        assert second[0].cached
        assert second[0].backend == "serial"  # who actually computed it
        assert second[0].worker == first[0].worker


# ------------------------------------------------------------------ file queue
def _names(directory) -> list[str]:
    """The queue files in one of its directories, by task id (claims: ``id@worker``)."""
    return sorted(path.stem for path in directory.glob("*.json"))


class TestFileQueue:
    def _payload(self, index: int = 0) -> TaskPayload:
        return TaskPayload(
            index=index,
            experiment="noop",
            label=f"noop[{index:02d}]",
            kwargs=(("index", index),),
            scale="tiny",
        )

    def test_enqueue_claim_publish_roundtrip(self, tmp_path):
        queue = FileQueue(tmp_path).ensure()
        queue.enqueue("t-00000", self._payload())
        assert _names(queue.tasks_dir) == ["t-00000"]
        claimed = queue.claim("worker-a")
        assert claimed is not None
        task_id, payload = claimed
        assert task_id == "t-00000"
        assert payload == self._payload()
        assert _names(queue.tasks_dir) == []
        assert queue.claim("worker-b") is None
        assert _names(queue.claims_dir) == ["t-00000@worker-a"]
        queue.publish_result(task_id, {"label": payload.label, "result": {"rows": []}})
        assert queue.result(task_id)["result"] == {"rows": []}
        assert queue.result("t-99999") is None

    def test_reclaim_dead_returns_stale_claims_to_tasks(self, tmp_path):
        queue = FileQueue(tmp_path).ensure()
        queue.enqueue("t-00000", self._payload())
        queue.heartbeat("worker-a")
        assert queue.claim("worker-a") is not None
        # A live worker's claim is never reclaimed.
        assert queue.reclaim_dead(dead_after_s=30.0) == []
        # Age both the claim file and the heartbeat past the threshold.
        old = time.time() - 120.0
        for path in list(queue.claims_dir.iterdir()) + list(queue.workers_dir.iterdir()):
            os.utime(path, (old, old))
        assert queue.reclaim_dead(dead_after_s=30.0) == ["t-00000"]
        # The dead worker's claim was atomically moved back to tasks/, so the
        # task is claimable again by exactly one new worker.
        assert _names(queue.tasks_dir) == ["t-00000"]
        assert _names(queue.claims_dir) == []
        assert queue.claim("worker-b") is not None
        assert _names(queue.claims_dir) == ["t-00000@worker-b"]

    def test_reclaim_skips_tasks_with_published_results(self, tmp_path):
        queue = FileQueue(tmp_path).ensure()
        queue.enqueue("t-00000", self._payload())
        assert queue.claim("worker-a") is not None
        queue.publish_result("t-00000", {"result": {}})
        old = time.time() - 120.0
        for path in queue.claims_dir.iterdir():
            os.utime(path, (old, old))
        assert queue.reclaim_dead(dead_after_s=30.0) == []

    def test_run_worker_drains_queue_and_publishes(self, tmp_path):
        queue = FileQueue(tmp_path).ensure()
        for index in range(3):
            queue.enqueue(f"t-{index:05d}", self._payload(index))
        executed = run_worker(tmp_path, drain=True, worker_id="drainer")
        assert executed == 3
        for index in range(3):
            outcome = queue.result(f"t-{index:05d}")
            assert outcome["worker"] == "drainer"
            assert outcome["backend"] == "file-queue"
            assert outcome["result"]["rows"] == [{"index": index, "scale": "tiny"}]

    def test_undecodable_task_file_is_an_error_outcome(self, tmp_path):
        # A truncated task file must not kill the worker: it publishes an
        # error outcome naming the claim file and carries on with the queue.
        queue = FileQueue(tmp_path).ensure()
        for index in (0, 2):
            queue.enqueue(f"t{index:04d}", self._payload(index))
        good = json.dumps(self._payload(1).to_wire())
        (queue.tasks_dir / "t0001.json").write_text(good[: len(good) // 2])
        assert run_worker(tmp_path, drain=True, worker_id="w1") == 2
        outcome = queue.result("t0001")
        assert "result" not in outcome
        assert outcome["worker"] == "w1"
        assert "claims/t0001@w1.json" in outcome["error"]
        assert "JSONDecodeError" in outcome["error"]
        for index in (0, 2):
            assert queue.result(f"t{index:04d}")["result"]["rows"][0]["index"] == index

    def test_run_worker_stops_on_sentinel(self, tmp_path):
        queue = FileQueue(tmp_path).ensure()
        queue.request_stop()
        assert run_worker(tmp_path, poll_s=0.05, worker_id="idle") == 0

    def test_worker_cli_verb(self, tmp_path, capsys):
        queue = FileQueue(tmp_path).ensure()
        queue.enqueue("t-00000", self._payload())
        assert cli_main(["worker", str(tmp_path), "--drain", "--id", "cli-worker"]) == 0
        err = capsys.readouterr().err
        assert "claimed" in err and "exiting after 1 tasks" in err
        assert queue.result("t-00000")["worker"] == "cli-worker"

    def test_two_concurrent_workers_claim_every_task_exactly_once(self, tmp_path):
        # The multi-host story in miniature: a pure coordinator (zero local
        # workers) plus two detached worker processes sharing the directory.
        # Rename-based claiming must hand every task to exactly one worker.
        queue_dir = tmp_path / "queue"
        workers = [
            multiprocessing.Process(
                target=run_worker,
                args=(str(queue_dir),),
                kwargs={"poll_s": 0.05, "worker_id": f"external-{i}"},
                daemon=True,
            )
            for i in range(2)
        ]
        for process in workers:
            process.start()
        backend = FileQueueBackend(queue_dir, workers=0, poll_s=0.05)
        payloads = [self._payload(index) for index in range(8)]
        completions = sorted(backend.submit_all(payloads), key=lambda c: c.index)
        for process in workers:
            process.join(timeout=10.0)
            assert not process.is_alive()

        assert [completion.index for completion in completions] == list(range(8))
        assert all(completion.error is None for completion in completions)
        assert {completion.worker for completion in completions} <= {
            "external-0",
            "external-1",
        }
        claims = [name.rpartition("@")[0] for name in _names(FileQueue(queue_dir).claims_dir)]
        assert sorted(set(claims)) == sorted(claims) and len(claims) == 8, claims


# ------------------------------------------------------------------------ CLI
class TestExecutionCLI:
    @pytest.fixture
    def fake_alpha(self, monkeypatch):
        def run(scale="tiny", **kwargs):
            return ExperimentResult(
                name="fakealpha2", description="fake", rows=[{"value": 1.0}]
            )

        monkeypatch.setitem(EXPERIMENTS, "fakealpha2", (run, "fake"))

    def test_jobs_zero_autodetects_and_runs(self, fake_alpha, capsys):
        assert cli_main(["fakealpha2", "--scale", "tiny", "--jobs", "0"]) == 0
        assert "fakealpha2" in capsys.readouterr().out

    def test_workers_flag_is_an_alias_for_jobs(self, fake_alpha, capsys):
        assert cli_main(["fakealpha2", "--scale", "tiny", "--workers", "1"]) == 0
        assert "fakealpha2" in capsys.readouterr().out

    def test_explicit_backend_flag(self, fake_alpha, capsys):
        assert cli_main(["fakealpha2", "--scale", "tiny", "--backend", "serial"]) == 0
        assert "fakealpha2" in capsys.readouterr().out

    def test_thread_backend_is_not_a_choice(self, fake_alpha, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fakealpha2", "--scale", "tiny", "--backend", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_list_advertises_worker_verb(self, capsys):
        assert cli_main(["--list"]) == 0
        assert "worker <queue-dir>" in capsys.readouterr().out
