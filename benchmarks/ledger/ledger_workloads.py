"""The five ledger workloads.

Each workload drives one user-visible path of the simulator through its
public API and is sized so one *round* (the fixed slice sequence whose
simulated results are reported) takes about five seconds on the reference
sandbox.  ``README.md`` records why each geometry and size was chosen.

A workload imports nothing from ``repro`` at module level: :meth:`load`
performs the imports so the harness can time them as part of set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
from itertools import islice
from pathlib import Path
from typing import Any

import numpy as np

from ledger_check import mapping_failures, window_failures
from ledger_clock import SliceClock

__all__ = ["WORKLOADS", "Workload", "SMOKE_DIVISOR"]

#: ``--smoke`` divides every request/record count by this (and swaps the
#: medium geometry for a few-thousand-page one).
SMOKE_DIVISOR = 50


def _device_counters(stats: Any, ops: int) -> dict[str, float]:
    """The exact per-device counters of one measured interval."""
    busy = list(stats.chip_busy_time_us)
    mean_busy = sum(busy) / len(busy) if busy else 0.0
    return {
        "core.cmt.hit_pct": 100.0 * stats.cmt_hit_ratio(),
        "core.learned.model_hit_pct": 100.0 * stats.model_hit_ratio(),
        "core.double_read_pct": 100.0 * stats.double_read_fraction(),
        "core.waf": stats.write_amplification(),
        "core.gc.count": stats.gc_count,
        "core.gc.pages_moved": stats.gc_pages_moved,
        "core.learned.models_trained": stats.models_trained,
        "nand.reads_per_op": stats.total_flash_reads / ops if ops else 0.0,
        "nand.programs_per_op": stats.total_flash_programs / ops if ops else 0.0,
        "nand.erases": stats.total_flash_erases,
        "ssd.engine.chip_util_pct": 100.0 * stats.utilization(),
        "ssd.engine.chip_busy_skew": max(busy) / mean_busy if mean_busy else 0.0,
    }


class Workload:
    """One benchmark workload: set-up, a repeatable round of timed slices, results.

    ``run_round`` brackets every slice with ``clock.start()`` /
    ``clock.stop(attempted, completed)``; work between a ``stop`` and the next
    ``start`` (input generation) is untimed.  ``results`` and ``check`` read
    the state left by the **first** round, so they are independent of how
    many rounds the time budget allowed.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool, work_dir: Path, tracer: Any = None) -> None:
        self.seed = seed % (1 << 63)  # NumPy seed sequences take non-negative integers
        self.smoke = smoke
        self.work_dir = work_dir
        self.tracer = tracer
        self.rounds_run = 0
        self._frozen: dict[str, Any] | None = None

    def scaled(self, count: int) -> int:
        """``count``, or ``count / SMOKE_DIVISOR`` (at least 1) under ``--smoke``."""
        return max(1, count // SMOKE_DIVISOR) if self.smoke else count

    def geometry(self, **overrides: Any) -> Any:
        """The workload's device geometry (a few thousand pages under ``--smoke``)."""
        from repro import SSDGeometry

        if self.smoke:
            return SSDGeometry.small(blocks_per_plane=32, op_ratio=overrides.get("op_ratio", 0.25))
        return dataclasses.replace(SSDGeometry.medium(), **overrides)

    def fresh_dir(self, label: str) -> Path:
        """An empty directory under the work dir (recreated on every call)."""
        path = self.work_dir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # ------------------------------------------------------------ interface
    def load(self) -> None:
        """Import everything the workload needs from ``repro``."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the device, precondition it, generate inputs, run one warm slice."""
        raise NotImplementedError

    def run_round(self, clock: SliceClock) -> None:
        """Run the fixed slice sequence once."""
        raise NotImplementedError

    def measure(self) -> dict[str, Any]:
        """Simulated results and exact counters of everything run so far."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Output-check failures of everything run so far (empty = correct)."""
        raise NotImplementedError

    def sizes(self) -> dict[str, Any]:
        """The sizes that define the workload (recorded in the manifest)."""
        raise NotImplementedError

    def extras(self) -> dict[str, float]:
        """Measured per-layer values only this workload has (traced run only)."""
        return {}

    # ------------------------------------------------------------- harness
    def round(self, clock: SliceClock) -> None:
        """Run one round; freeze results and output check after the first."""
        self.run_round(clock)
        self.rounds_run += 1
        if self._frozen is None:
            self._frozen = {"measure": self.measure(), "failures": self.check()}

    def results(self) -> dict[str, Any]:
        """``measure()`` as of the end of the first round."""
        return self._frozen["measure"]

    def failures(self) -> list[str]:
        """``check()`` as of the end of the first round."""
        return self._frozen["failures"]

    def timed_iter(self, iterator: Any) -> Any:
        """``iterator``, wrapped in a ``workloads.next`` span when tracing."""
        return self.tracer.timed_iter("workloads.next", iterator) if self.tracer else iterator


class _DeviceWorkload(Workload):
    """Shared pieces of the workloads that hold one live device in ``self.ssd``."""

    ssd: Any = None
    latency = "read"

    def measure(self) -> dict[str, Any]:
        from repro.replay import state_fingerprint

        stats = self.ssd.stats
        ops = stats.host_read_requests + stats.host_write_requests
        digest = (
            stats.read_latency_digest() if self.latency == "read" else stats.write_latency_digest()
        )
        return {
            "sim_iops": stats.iops(),
            "sim_p99_us": digest.p99_us,
            "exact": _device_counters(stats, ops),
            "state_sha": state_fingerprint(self.ssd.state_dict()),
        }

    def check(self) -> list[str]:
        return mapping_failures(self.ssd.state_dict())


class _UniformWorkload(_DeviceWorkload):
    """``SLICES`` x ``PER_SLICE`` uniformly drawn single-page requests per round."""

    SLICES = 16
    PER_SLICE = 0
    THREADS = 4
    #: Second word of the NumPy seed sequence, so workloads draw unlike streams.
    STREAM = 0

    def build_device(self) -> Any:
        """A freshly preconditioned device."""
        raise NotImplementedError

    def issue(self, lpns: "np.ndarray") -> int:
        """Run one slice of requests on ``self.ssd``; returns how many completed."""
        raise NotImplementedError

    def _draw(self) -> "np.ndarray":
        return self.rng.integers(
            0, self.ssd.geometry.num_logical_pages, size=(self.SLICES, self.per_slice)
        )

    def setup(self) -> None:
        self.per_slice = self.scaled(self.PER_SLICE)
        self.rng = np.random.default_rng([self.seed, self.STREAM])
        self.ssd = self.build_device()
        self.ssd.reset_stats()
        self._next_lpns = self._draw()  # the first round's inputs are part of set-up
        self.issue(self._draw()[0])

    def run_round(self, clock: SliceClock) -> None:
        lpns, self._next_lpns = self._next_lpns, None
        if lpns is None:
            lpns = self._draw()
        for row in lpns:
            clock.start()
            done = self.issue(row)
            clock.stop(self.per_slice, done)


class RandreadBatched(_UniformWorkload):
    name = "randread_batched"
    why = (
        "uniform 4 KiB reads over a working set far beyond the CMT (74 % double reads) "
        "through the batched kernel: planner, CMT and model lookups, timing engine"
    )
    PER_SLICE = 50_000
    STREAM = 1
    BATCH = 4096

    def load(self) -> None:
        from repro import SSD
        from repro.ssd.request import RequestBatch

        self._SSD, self._RequestBatch = SSD, RequestBatch

    def build_device(self) -> Any:
        ssd = self._SSD.create("learnedftl", self.geometry())
        ssd.fill_sequential(io_pages=128)
        return ssd

    def issue(self, lpns: "np.ndarray") -> int:
        batch = self._RequestBatch.reads(lpns)
        return self.ssd.run(batch, threads=self.THREADS, batch=self.BATCH).requests

    def sizes(self) -> dict[str, Any]:
        return {
            "logical_pages": self.ssd.geometry.num_logical_pages,
            "slices": self.SLICES,
            "reads_per_slice": self.per_slice,
            "threads": self.THREADS,
            "batch": self.BATCH,
        }


class OverwriteGC(_UniformWorkload):
    name = "overwrite_gc"
    why = (
        "uniform 4 KiB overwrites of a steady-state device through the scalar loop: "
        "group allocation, garbage collection and model training; no read planner runs"
    )
    latency = "write"
    PER_SLICE = 2_000
    STREAM = 2
    GEOMETRY = {
        "channels": 4,
        "chips_per_channel": 2,
        "blocks_per_plane": 32,
        "pages_per_block": 128,
        "op_ratio": 0.25,
    }

    def load(self) -> None:
        from repro.snapshot import warm_device
        from repro.ssd.request import RequestBatch

        self._warm_device, self._RequestBatch = warm_device, RequestBatch

    def build_device(self) -> Any:
        return self._warm_device(
            "learnedftl",
            self.geometry(**self.GEOMETRY),
            warmup="steady",
            io_pages=128,
            overwrite_factor=1.0,
            threads=self.THREADS,
        )

    def issue(self, lpns: "np.ndarray") -> int:
        return self.ssd.run(self._RequestBatch.writes(lpns), threads=self.THREADS).requests

    def sizes(self) -> dict[str, Any]:
        return {
            "logical_pages": self.ssd.geometry.num_logical_pages,
            "slices": self.SLICES,
            "writes_per_slice": self.per_slice,
            "threads": self.THREADS,
        }


class TraceReplay(_DeviceWorkload):
    name = "trace_replay"
    why = (
        "open-loop replay of a Systor-format CSV with a checkpoint and a resume per slice: "
        "parser, chunking, scalar replay of multi-page requests, snapshot write and load"
    )
    RECORDS = 48_000
    CHUNK = 6_000
    STREAMS = 4
    READ_SHARE = 0.97
    SIZES_KIB = (4, 8, 16, 32)
    SIZE_SHARES = (0.6, 0.2, 0.1, 0.1)
    HOT_SPACE, HOT_ACCESSES = 0.2, 0.8
    MEAN_ARRIVAL_US = 80.0

    def load(self) -> None:
        from repro.replay import ReplayPlan, ReplaySession
        from repro.snapshot import SnapshotStore, warm_device

        self._ReplayPlan, self._ReplaySession = ReplayPlan, ReplaySession
        self._SnapshotStore, self._warm_device = SnapshotStore, warm_device

    def _write_trace(self, path: Path, geometry: Any) -> None:
        """A seeded Systor-format trace: hot/cold offsets, mixed sizes, 4 LUNs."""
        rng = np.random.default_rng([self.seed, 3])
        n = self.records
        pages = geometry.num_logical_pages - max(self.SIZES_KIB) * 1024 // geometry.page_size
        hot_pages = max(1, int(pages * self.HOT_SPACE))
        stamps = np.cumsum(rng.exponential(self.MEAN_ARRIVAL_US, size=n)) / 1e6
        kinds = np.where(rng.random(n) < self.READ_SHARE, "R", "W")
        luns = rng.integers(0, self.STREAMS, size=n)
        page = np.where(
            rng.random(n) < self.HOT_ACCESSES,
            rng.integers(0, hot_pages, size=n),
            rng.integers(hot_pages, pages, size=n),
        )
        size = rng.choice(np.array(self.SIZES_KIB) * 1024, p=self.SIZE_SHARES, size=n)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("timestamp,response,iotype,lun,offset,size\n")
            handle.writelines(
                f"{stamp:.6f},0,{kind},{lun},{offset},{nbytes}\n"
                for stamp, kind, lun, offset, nbytes in zip(
                    stamps.tolist(),
                    kinds.tolist(),
                    luns.tolist(),
                    (page * geometry.page_size).tolist(),
                    size.tolist(),
                )
            )

    def _session(self, label: str, *, limit: int | None = None) -> Any:
        plan = self._ReplayPlan(
            trace_path=str(self.trace_path),
            trace_format="systor",
            ftl_name="learnedftl",
            geometry=self.geo,
            streams=self.STREAMS,
            chunk_requests=self.chunk,
            checkpoint_every_requests=self.chunk,
            preserve_timing=True,
            limit=limit,
            warmup="fill",
            io_pages=128,
        )
        return self._ReplaySession(plan, self.fresh_dir(label), snapshot_store=self.store)

    def setup(self) -> None:
        self.records = self.scaled(self.RECORDS)
        self.chunk = self.scaled(self.CHUNK)
        self.geo = self.geometry(op_ratio=0.25)
        self.trace_path = self.fresh_dir("trace") / "trace.csv"
        self._write_trace(self.trace_path, self.geo)
        self.store = self._SnapshotStore(self.fresh_dir("snapshots"))
        self._warm_device("learnedftl", self.geo, warmup="fill", io_pages=128, store=self.store)
        self.store.reset_counters()
        self.calls: list[dict[str, Any]] = []
        self.result = self.ssd = None
        warm = self._session("warm-run", limit=self.chunk).run()
        if not warm.finished:
            raise RuntimeError("the warm replay slice did not finish")
        self.store.reset_counters()

    def run_round(self, clock: SliceClock) -> None:
        session = self._session(f"run-{self.rounds_run}")
        done_before, resume, result = 0, False, None
        while result is None or not result.finished:
            expected = min(self.chunk, self.records - done_before)
            clock.start()
            result = session.run(resume=resume, stop_after_checkpoints=1)
            clock.stop(expected, result.requests - done_before)
            if self.rounds_run == 0:
                newest = session.checkpoint_paths()[-1]
                self.calls.append(
                    {
                        "chunks": result.chunks,
                        "checkpoints": result.checkpoints_written,
                        "bytes": sum(f.stat().st_size for f in newest.iterdir()),
                    }
                )
            done_before, resume = result.requests, True
        if self.rounds_run == 0:
            self.result, self.ssd = result, result.device

    def measure(self) -> dict[str, Any]:
        measured = super().measure()
        measured["exact"].update(
            {
                "replay.chunks": self.calls[-1]["chunks"],
                "replay.checkpoints": sum(call["checkpoints"] for call in self.calls),
                "replay.checkpoint_mb": sum(call["bytes"] for call in self.calls) / 1e6,
                "snapshot.hits": self.store.hits,
                "snapshot.misses": self.store.misses,
            }
        )
        return measured

    def check(self) -> list[str]:
        failures = super().check()
        if not self.result.finished:
            failures.append("ReplayResult.finished is false after the last slice")
        if self.result.records != self.records or self.result.skipped_lines:
            failures.append(
                f"replayed {self.result.records} of {self.records} records "
                f"({self.result.skipped_lines} lines skipped)"
            )
        return failures

    def sizes(self) -> dict[str, Any]:
        return {
            "logical_pages": self.geo.num_logical_pages,
            "records": self.records,
            "chunk_requests": self.chunk,
            "streams": self.STREAMS,
        }


class HotspotObserved(_DeviceWorkload):
    name = "hotspot_observed"
    why = (
        "95 % reads on a hot fifth of the space through the object-request scalar loop "
        "with windowed telemetry and event tracing on: the only workload that pays for obs"
    )
    SLICES = 16
    REQUESTS_PER_SLICE = 12_000
    THREADS = 8
    WINDOW_US = 100_000.0

    def load(self) -> None:
        from repro import SSD
        from repro.obs import TraceRecorder
        from repro.workloads.spec import build_workload

        self._SSD, self._TraceRecorder, self._build_workload = SSD, TraceRecorder, build_workload

    def setup(self) -> None:
        self.per_slice = self.scaled(self.REQUESTS_PER_SLICE)
        self.ssd = self._SSD.create("learnedftl", self.geometry(op_ratio=0.25))
        self.ssd.fill_sequential(io_pages=128)
        self.ssd.reset_stats()
        self._observe()
        plan = self._build_workload(
            {
                "kind": "hotspot",
                "read_fraction": 0.95,
                "hot_fraction": 0.2,
                "hot_probability": 0.8,
                # Far more than any time budget consumes; the generator is lazy.
                "num_requests": 1_000_000_000,
                "seed": self.seed,
            },
            read_requests=0,
            write_requests=0,
        )
        self.stream = self.timed_iter(plan.requests(self.ssd.geometry))
        self.export_dir = self.fresh_dir("obs-export")
        self.series = None
        self.ssd.run(islice(self.stream, self.per_slice), threads=self.THREADS)

    def _observe(self) -> None:
        """Attach a fresh windowed recorder and event tracer to the device."""
        self.events = self._TraceRecorder()
        self.recorder = self.ssd.enable_observability(window_us=self.WINDOW_US, tracer=self.events)

    def run_round(self, clock: SliceClock) -> None:
        if self.rounds_run:
            # Every round pays for observation from empty buffers, like the
            # first: the tracer caps each event name at 100k and stops paying.
            self._observe()
        for _ in range(self.SLICES):
            clock.start()
            done = self.ssd.run(islice(self.stream, self.per_slice), threads=self.THREADS).requests
            clock.stop(self.per_slice, done)
        clock.start()
        self.series = self.recorder.series(self.ssd.stats)
        self.events.write(self.export_dir / "events.json")
        clock.stop()

    def measure(self) -> dict[str, Any]:
        measured = super().measure()
        measured["exact"].update(
            {"obs.windows": self.series["num_windows"], "obs.trace_events": len(self.events)}
        )
        return measured

    def check(self) -> list[str]:
        return super().check() + window_failures(self.recorder.totals(), self.ssd.stats)

    def sizes(self) -> dict[str, Any]:
        return {
            "logical_pages": self.ssd.geometry.num_logical_pages,
            "slices": self.SLICES,
            "requests_per_slice": self.per_slice,
            "threads": self.THREADS,
            "window_us": self.WINDOW_US,
        }


class FigsTiny(Workload):
    name = "figs_tiny"
    why = (
        "regenerating three of the paper's figures at tiny scale, cold, on all five FTLs: "
        "orchestrator, result cache, snapshot store, generators, scalar encode, analysis"
    )
    FIGURES = ("fig14", "fig19", "fig21")
    SMOKE_FIGURES = ("fig19",)

    def load(self) -> None:
        from repro.experiments import orchestrator, run_experiment, runner

        self._orchestrator, self._runner, self._run_experiment = orchestrator, runner, run_experiment

    def setup(self) -> None:
        self.figures = self.SMOKE_FIGURES if self.smoke else self.FIGURES
        self.tasks = sum(len(self._orchestrator.plan_tasks(name)) for name in self.figures)
        self.outcomes = None
        # A store left active by an earlier pass would turn the warm slice's
        # fill into a restore.
        self._runner.set_snapshot_dir(None)
        self._run_experiment(self.figures[0], scale="tiny", ftls=("learnedftl",))

    def _orchestrate(self, root: Path, progress: Any = None) -> list:
        # Looked up at call time so a tracing wrapper installed on the module
        # attribute is the one that runs.
        return self._orchestrator.run_orchestrated(
            list(self.figures),
            scale="tiny",
            jobs=1,
            cache_dir=root / "cache",
            snapshot_dir=root / "snapshots",
            progress=progress,
        )

    def run_round(self, clock: SliceClock) -> None:
        root = self.fresh_dir(f"figs-{self.rounds_run}")

        def progress(line: str) -> None:
            # One "[ n/N] label: ..." line per finished shard task.
            if line.startswith("["):
                clock.stop(1, 1 if ": done in " in line else 0)
                clock.start()

        clock.start()
        outcomes = self._orchestrate(root, progress)
        rendered = []
        for outcome in outcomes:
            if outcome.ok:
                self._orchestrator.write_json_artifact(root / "artifacts", outcome, "tiny")
                rendered.append(outcome.result.render())
        clock.stop()
        if self.rounds_run == 0:
            self.outcomes, self.rendered = outcomes, rendered
            store = self._runner.active_snapshot_store()
            self.snapshot_counts = (store.hits, store.misses) if store else (0, 0)

    def extras(self) -> dict[str, float]:
        """Wall time of a second, warm-cache invocation over the first round's cache."""
        t0 = time.perf_counter()
        outcomes = self._orchestrate(self.work_dir / "figs-0")
        elapsed = time.perf_counter() - t0
        if any(outcome.cached_tasks != outcome.tasks for outcome in outcomes):
            raise RuntimeError("the warm rerun recomputed a task")
        return {"experiments.cache.warm_rerun_ms": elapsed * 1e3}

    def measure(self) -> dict[str, Any]:
        results = {outcome.name: outcome.result for outcome in self.outcomes if outcome.ok}
        exact: dict[str, float] = {
            "experiments.tasks": sum(outcome.tasks for outcome in self.outcomes),
            "snapshot.hits": self.snapshot_counts[0],
            "snapshot.misses": self.snapshot_counts[1],
        }
        sim_iops = sim_p99_us = 0.0
        if "fig14" in results:
            device = results["fig14"].raw["device_stats"]
            sim_iops = device["learnedftl"]["randread"]["iops"]
            exact["experiments.fig14.randread_x_tpftl"] = (
                sim_iops / device["tpftl"]["randread"]["iops"]
            )
        if "fig19" in results:
            ops = results["fig19"].raw["readrandom_ops_s"]
            exact["experiments.fig19.readrandom_x_tpftl"] = ops["learnedftl"] / ops["tpftl"]
        if "fig21" in results:
            p99 = {
                row["ftl"]: row["p99_ms"]
                for row in results["fig21"].rows
                if row["workload"] == "websearch1"
            }
            sim_p99_us = p99["learnedftl"] * 1000.0
            exact["experiments.fig21.p99_x_tpftl"] = p99["tpftl"] / p99["learnedftl"]
        payload = json.dumps(
            {name: result.to_dict() for name, result in results.items()}, sort_keys=True
        )
        return {
            "sim_iops": sim_iops,
            "sim_p99_us": sim_p99_us,
            "exact": exact,
            "state_sha": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        }

    def check(self) -> list[str]:
        failures = [
            f"{outcome.name} failed: {outcome.error.splitlines()[-1]}"
            for outcome in self.outcomes
            if not outcome.ok
        ]
        failures += [
            f"{outcome.name} produced no rows"
            for outcome in self.outcomes
            if outcome.ok and not outcome.result.rows
        ]
        if sum(outcome.tasks for outcome in self.outcomes) != self.tasks:
            failures.append("the orchestrator ran a different number of tasks than planned")
        if any(not text.strip() for text in self.rendered):
            failures.append("an experiment rendered to an empty report")
        return failures

    def sizes(self) -> dict[str, Any]:
        return {"figures": list(self.figures), "tasks": self.tasks, "scale": "tiny", "jobs": 1}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (RandreadBatched, OverwriteGC, TraceReplay, HotspotObserved, FigsTiny)
}
