"""Simulation-kernel performance smoke benchmark.

Times the kernel-bound phases every figure regeneration pays, on the medium
(~1 GB) geometry, and writes wall-clock seconds plus simulated
requests-per-second to ``BENCH_kernel.json`` so the kernel's performance
trajectory is tracked across PRs:

* **randread** — a full sequential fill, then the same random-read storm
  through the scalar loop and through the batched kernel
  (``SSD.run(..., batch=N)``), for **all five FTL designs**.  Both phases
  consume a :class:`RequestBatch`, so the ratio compares execution modes, not
  request representations.  Writes take the request step in both modes, so
  no write phase is timed here; the ledger's ``overwrite_gc`` workload
  measures the write path.
* **micro** — ``lookup_many``/``probe_many`` rates of the mapping layer's
  batch probes, and the orchestrator's per-task dispatch overhead.
* **replay** — the streaming checkpointed trace-replay stack end to end: a
  ~200k-record synthetic Systor trace written to a temp file, streamed through
  :class:`repro.replay.ReplaySession` (line parsing, request chunking,
  ``SSD.replay``, one mid-run checkpoint) on a fresh medium dftl device.
  Gated higher-is-better like the per-FTL rates so the replay path cannot
  quietly get slower.
* **obs** — the dftl randread storm with observability left disabled vs with
  windowed telemetry + tracing enabled (see :mod:`repro.obs`).  The gate
  holds the disabled-mode rate within 2 % of the report's own dftl randread
  baseline: attaching the observability seams must cost the unobserved hot
  path nothing.

The randread mode pair also records a ``batched_vs_scalar_speedup`` ratio;
the perf-regression gate holds it at >= 1.0 (batch mode must never lose to
the scalar loop on the same machine).

Run either way::

    python benchmarks/perf_smoke.py [--output BENCH_kernel.json]
    PYTHONPATH=src python -m pytest benchmarks/perf_smoke.py -m bench_perf -q
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro import SSD, SSDGeometry
from repro.ssd.request import RequestBatch

#: Designs timed on the randread phases (all of them).
FTL_NAMES = ("dftl", "tpftl", "leaftl", "learnedftl", "ideal")
RANDREAD_REQUESTS = 50_000
#: Batch size / worker count of the orchestrator dispatch-overhead probe.
DISPATCH_TASKS = 64
DISPATCH_JOBS = 2
#: The batched phases run longer storms: the array-at-a-time kernel amortizes
#: per-chunk costs over enough requests to show its steady state.
RANDREAD_BATCHED_REQUESTS = 200_000
BATCH_SIZE = 4096
RUN_THREADS = 4
SEED = 42
#: Timed read storms per observability mode (best-of, same device): repeats
#: average out the CMT warm-up transient of the first storm for both modes.
OBS_REPEATS = 3
OBS_WINDOW_US = 1_000_000.0
#: Replay phase: trace length, chunk size and checkpoint cadence.  One
#: checkpoint lands mid-run so the measured rate includes the snapshot cost a
#: real checkpointed replay pays.
REPLAY_RECORDS = 200_000
REPLAY_CHUNK_REQUESTS = 20_000
REPLAY_CHECKPOINT_EVERY = 120_000

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: Iterations of the machine-speed calibration kernel (~0.2 s on a laptop).
_CALIBRATION_ITERATIONS = 2_000_000


def calibration_score() -> float:
    """Machine-speed proxy: iterations/s of a fixed pure-Python kernel.

    The kernel mixes integer arithmetic with list indexing — the same
    bytecode mix the simulator's hot loops execute — so the ratio of two
    machines' scores approximates the ratio of their kernel throughput.
    The perf-regression gate uses it to compare reports across machines.
    """
    lst = [0] * 64
    acc = 0
    t0 = time.perf_counter()
    for i in range(_CALIBRATION_ITERATIONS):
        j = i & 63
        lst[j] = acc
        # The mask keeps acc a machine-word int; without it the accumulator
        # grows into a bignum and the loop measures bignum arithmetic instead.
        acc = (acc + lst[(j * 7) & 63] + 1) & 0xFFFFFFFF
    return _CALIBRATION_ITERATIONS / (time.perf_counter() - t0)


def _timed_run(ssd: SSD, requests: RequestBatch, *, batch: int | None) -> tuple[float, int]:
    t0 = time.perf_counter()
    result = ssd.run(requests, threads=RUN_THREADS, batch=batch)
    return time.perf_counter() - t0, result.requests


def bench_ftl(ftl_name: str) -> dict:
    """Time sequential fill + 4-thread randread (scalar and batched) for one FTL."""
    geometry = SSDGeometry.medium()
    ssd = SSD.create(ftl_name, geometry)

    t0 = time.perf_counter()
    fill = ssd.fill_sequential(io_pages=128)
    fill_seconds = time.perf_counter() - t0

    rng = np.random.default_rng(SEED)
    scalar_reqs = RequestBatch.reads(
        rng.integers(0, geometry.num_logical_pages, size=RANDREAD_REQUESTS)
    )
    read_seconds, read_count = _timed_run(ssd, scalar_reqs, batch=None)

    # Batched kernel phase: the same storm shape through run(batch=N), long
    # enough that the CMT warm-up transient (scalar-fallback misses while
    # dirty fill-entries drain — mostly paid by the scalar phase above) is
    # amortized away.
    batched_reqs = RequestBatch.reads(
        rng.integers(0, geometry.num_logical_pages, size=RANDREAD_BATCHED_REQUESTS)
    )
    batched_seconds, batched_count = _timed_run(ssd, batched_reqs, batch=BATCH_SIZE)

    total_requests = fill.requests + read_count
    total_seconds = fill_seconds + read_seconds
    scalar_rps = read_count / max(read_seconds, 1e-9)
    batched_rps = batched_count / max(batched_seconds, 1e-9)
    return {
        "ftl": ftl_name,
        "fill_seconds": round(fill_seconds, 3),
        "fill_requests": fill.requests,
        "fill_pages": ssd.stats.host_write_pages,
        "randread_seconds": round(read_seconds, 3),
        "randread_requests": read_count,
        "randread_batched_seconds": round(batched_seconds, 3),
        "randread_batched_requests": batched_count,
        "total_seconds": round(total_seconds, 3),
        "requests_per_second": round(total_requests / total_seconds, 1),
        "randread_requests_per_second": round(scalar_rps, 1),
        "randread_batched_requests_per_second": round(batched_rps, 1),
        "batched_vs_scalar_speedup": round(batched_rps / scalar_rps, 3),
    }


def bench_obs() -> dict:
    """Time the dftl scalar randread storm with observability off vs on.

    Both modes run best-of-``OBS_REPEATS`` storms on their own freshly filled
    medium device.  Both modes run the same request step; the enabled mode
    additionally pays windowed telemetry plus event tracing, and its ratio is
    reported for tracking, not gated.
    """
    from repro.obs.trace import TraceRecorder

    geometry = SSDGeometry.medium()
    rates: dict[str, float] = {}
    for mode in ("disabled", "enabled"):
        ssd = SSD.create("dftl", geometry)
        if mode == "enabled":
            ssd.enable_observability(window_us=OBS_WINDOW_US, tracer=TraceRecorder())
        ssd.fill_sequential(io_pages=128)
        rng = np.random.default_rng(SEED)
        best = 0.0
        for _ in range(OBS_REPEATS):
            requests = RequestBatch.reads(
                rng.integers(0, geometry.num_logical_pages, size=RANDREAD_REQUESTS)
            )
            seconds, count = _timed_run(ssd, requests, batch=None)
            best = max(best, count / max(seconds, 1e-9))
        rates[mode] = best
    return {
        "obs_disabled_requests_per_second": round(rates["disabled"], 1),
        "obs_enabled_requests_per_second": round(rates["enabled"], 1),
        "obs_enabled_vs_disabled_ratio": round(rates["enabled"] / rates["disabled"], 3),
    }


def bench_replay() -> dict:
    """Time the streaming checkpointed replay stack end to end.

    Synthesizes a ~200k-record Systor trace, writes it to a temp CSV, then
    streams it through :class:`~repro.replay.ReplaySession` on a fresh medium
    dftl device — so the measured rate covers line parsing, request chunking,
    the scalar ``SSD.replay`` loop and one mid-run checkpoint write, i.e.
    exactly what the ``replay`` CLI verb pays per request.
    """
    import tempfile

    from repro.replay import ReplayPlan, ReplaySession
    from repro.workloads import synthesize_systor

    geometry = SSDGeometry.medium()
    records = synthesize_systor(num_ios=REPLAY_RECORDS, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "bench.csv"
        with trace.open("w", encoding="utf-8") as handle:
            handle.write("timestamp,response,iotype,lun,offset,size\n")
            for record in records:
                handle.write(
                    f"{record.timestamp_s!r},0.0,{'R' if record.is_read else 'W'},"
                    f"{record.stream_id},{record.offset_bytes},{record.size_bytes}\n"
                )
        plan = ReplayPlan(
            trace_path=str(trace),
            trace_format="systor",
            ftl_name="dftl",
            geometry=geometry,
            chunk_requests=REPLAY_CHUNK_REQUESTS,
            checkpoint_every_requests=REPLAY_CHECKPOINT_EVERY,
            preserve_timing=False,
        )
        session = ReplaySession(plan, Path(tmp) / "run")
        t0 = time.perf_counter()
        result = session.run()
        seconds = time.perf_counter() - t0
    assert result.finished and result.requests >= REPLAY_RECORDS
    return {
        "replay_records": result.records,
        "replay_requests": result.requests,
        "replay_chunks": result.chunks,
        "replay_checkpoints": result.checkpoints_written,
        "replay_seconds": round(seconds, 3),
        "replay_requests_per_second": round(result.requests / max(seconds, 1e-9), 1),
    }


def micro_benchmark() -> dict:
    """Rates of the mapping layer's batch probes (the planner building blocks).

    ``lookup_many`` is the directory gather every read planner issues once per
    run; ``probe_many`` is the public batch probe over the DFTL CMT dict.
    Both are measured in LPNs/s over a warm small-geometry device.
    """
    geometry = SSDGeometry.small()
    ssd = SSD.create("dftl", geometry)
    ssd.fill_sequential(io_pages=128)
    rng = np.random.default_rng(SEED)
    lookup_lpns = rng.integers(0, geometry.num_logical_pages, size=2_000_000)
    t0 = time.perf_counter()
    ppns = ssd.ftl.directory.lookup_many(lookup_lpns)
    lookup_seconds = time.perf_counter() - t0
    assert int(ppns[0]) >= 0
    # Warm the CMT so probe_many exercises the hit path, not just dict misses.
    job_lpns = rng.integers(0, geometry.num_logical_pages, size=20_000)
    ssd.run(RequestBatch.reads(job_lpns), threads=1, batch=1024)
    probe_lpns = rng.integers(0, geometry.num_logical_pages, size=200_000)
    t0 = time.perf_counter()
    ssd.ftl.cmt.probe_many(probe_lpns)
    probe_seconds = time.perf_counter() - t0
    return {
        "lookup_many_lpns_per_second": round(len(lookup_lpns) / max(lookup_seconds, 1e-9), 1),
        "probe_many_lpns_per_second": round(len(probe_lpns) / max(probe_seconds, 1e-9), 1),
    }


def dispatch_benchmark() -> float:
    """Per-task dispatch overhead (µs) of the orchestrator's process backend.

    Pushes ``DISPATCH_TASKS`` no-op experiments through ``execute_tasks`` on
    the ``process`` backend and divides the wall-clock by the task count.
    The experiment itself does no work, so this measures the machinery —
    payload pickling, pool scheduling, result collection — that every real
    task also pays.  Gated lower-is-better by ``check_perf_regression.py`` so
    executor-layer changes cannot quietly tax every orchestrated run.
    """
    from repro.experiments.orchestrator import ExperimentTask, execute_tasks

    tasks = [
        ExperimentTask.create("noop", label=f"noop[{i:03d}]", index=i)
        for i in range(DISPATCH_TASKS)
    ]
    t0 = time.perf_counter()
    states = execute_tasks(tasks, scale="tiny", jobs=DISPATCH_JOBS, backend="process")
    wall = time.perf_counter() - t0
    failed = [state.task.label for state in states if state.error is not None]
    assert not failed, f"dispatch benchmark tasks failed: {failed}"
    return wall / DISPATCH_TASKS * 1e6


def run_benchmark(output: Path = DEFAULT_OUTPUT) -> dict:
    """Run the smoke benchmark for every FTL and write the JSON report."""
    results = {}
    for name in FTL_NAMES:
        results[name] = bench_ftl(name)
        print(
            f"[perf_smoke] {name}: fill {results[name]['fill_seconds']}s, "
            f"randread {results[name]['randread_requests_per_second']} req/s scalar, "
            f"{results[name]['randread_batched_requests_per_second']} req/s batched "
            f"({results[name]['batched_vs_scalar_speedup']}x)"
        )
    micro = micro_benchmark()
    micro["orchestrator_dispatch_overhead_us"] = round(dispatch_benchmark(), 1)
    print(
        f"[perf_smoke] micro: lookup_many {micro['lookup_many_lpns_per_second']:.3g} lpns/s, "
        f"probe_many {micro['probe_many_lpns_per_second']:.3g} lpns/s, "
        f"dispatch {micro['orchestrator_dispatch_overhead_us']:.3g} us/task"
    )
    replay = bench_replay()
    print(
        f"[perf_smoke] replay: {replay['replay_requests']} requests in "
        f"{replay['replay_seconds']}s "
        f"({replay['replay_requests_per_second']:.3g} req/s, "
        f"{replay['replay_checkpoints']} checkpoints)"
    )
    obs = bench_obs()
    print(
        f"[perf_smoke] obs: disabled {obs['obs_disabled_requests_per_second']} req/s, "
        f"enabled {obs['obs_enabled_requests_per_second']} req/s "
        f"({obs['obs_enabled_vs_disabled_ratio']}x of disabled)"
    )
    report = {
        "benchmark": "kernel_perf_smoke",
        "geometry": "medium",
        "randread_requests": RANDREAD_REQUESTS,
        "randread_batched_requests": RANDREAD_BATCHED_REQUESTS,
        "batch_size": BATCH_SIZE,
        "run_threads": RUN_THREADS,
        "python": platform.python_version(),
        "calibration_iters_per_second": round(calibration_score(), 1),
        "micro": micro,
        "obs": obs,
        "replay": replay,
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[perf_smoke] wrote {output}")
    return report


@pytest.mark.bench_perf
def test_perf_smoke(tmp_path):
    """Pytest entry point (opt-in via ``-m bench_perf``): the smoke must complete
    and simulate at a sane minimum rate on the medium geometry."""
    report = run_benchmark(output=tmp_path / "BENCH_kernel.json")
    for name, result in report["results"].items():
        assert result["requests_per_second"] > 0, name
        assert result["fill_pages"] > 0, name
        assert result["randread_batched_requests_per_second"] > 0, name
        assert result["batched_vs_scalar_speedup"] > 0, name
    assert report["micro"]["lookup_many_lpns_per_second"] > 0
    assert report["micro"]["orchestrator_dispatch_overhead_us"] > 0
    assert report["obs"]["obs_disabled_requests_per_second"] > 0
    assert report["obs"]["obs_enabled_requests_per_second"] > 0
    assert report["replay"]["replay_requests_per_second"] > 0
    assert report["replay"]["replay_checkpoints"] >= 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="where to write the JSON report"
    )
    args = parser.parse_args(argv)
    run_benchmark(output=args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
