"""Command-line interface for the experiment harness.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments fig14 --scale tiny
    python -m repro.experiments all --scale default --csv-dir results/
    python -m repro.experiments all --scale tiny --jobs 4 --cache-dir .cache/
    python -m repro.experiments all --scale tiny --snapshot-dir .snapshots/
    python -m repro.experiments all --scale tiny --cache-dir .cache/ --dry-run
    python -m repro.experiments fig21 fig22 --json-dir results/json/
    python -m repro.experiments fig06 --scale tiny --profile
    python -m repro.experiments fig14 --scale tiny --metrics-window-us 50000 --trace-out traces/
    python -m repro.experiments study my_sweep.yaml --scale tiny --jobs 4
    python -m repro.experiments study my_sweep.yaml --backend process --workers 0
    python -m repro.experiments worker shared/queue &          # on any host
    python -m repro.experiments all --backend file-queue --queue-dir shared/queue
    python -m repro.experiments replay trace.csv.gz --run-dir runs/r1 \\
        --chunk-requests 10000 --checkpoint-every 100000
    python -m repro.experiments replay --resume --run-dir runs/r1

``all`` (or several experiment names) runs through the orchestrator: the
multi-FTL figures are split into per-(FTL, workload) tasks, ``--backend``
selects how tasks execute (``serial``, ``process``, or the
multi-host ``file-queue``; the default ``auto`` picks serial or process),
``--jobs N`` / ``--workers N`` sets the worker count (``0`` auto-detects the
CPU count), ``--cache-dir`` reuses any task whose (experiment, scale, kwargs,
package version) content key is unchanged, and per-experiment failures are
collected into a summary instead of aborting the batch.

``study <spec.yaml|spec.json>`` runs a declarative scenario sweep (see
``docs/studies.md``): the spec's axes are expanded into cells, executed
through the same orchestrator (``--jobs``/``--backend``/``--cache-dir``/
``--snapshot-dir`` apply unchanged) and merged into one comparison table per
study.

``worker <queue-dir>`` attaches this process to a file-queue directory and
executes tasks until the coordinating run writes its stop sentinel — start
any number of these, on any hosts sharing the directory, before or during a
``--backend file-queue`` run.

``replay <trace>`` streams a SPC/Systor trace file (optionally ``.gz``)
through one FTL with bounded memory, checkpointing periodically so a killed
replay resumes bit-identical via ``--resume`` (see ``docs/replay.md``).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS, INTERNAL_EXPERIMENTS
from repro.experiments.orchestrator import describe_plan, run_orchestrated, write_json_artifact
from repro.experiments.runner import Scale
from repro.nand.errors import ConfigurationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures and tables of the LearnedFTL paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        metavar="experiment",
        help="experiment names (e.g. fig14 fig21), 'all' to run every experiment, "
        "or 'study <spec.yaml>...' to run declarative scenario sweeps",
    )
    parser.add_argument(
        "--scale",
        choices=[scale.value for scale in Scale],
        default=Scale.DEFAULT.value,
        help="experiment size: tiny (seconds), default (minutes) or full (paper geometry)",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N experiment tasks in parallel workers (default: 1; "
        "0 = auto-detect the CPU count)",
    )
    parser.add_argument(
        "--workers",
        dest="jobs",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="alias for --jobs",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "serial", "process", "file-queue"],
        default="auto",
        help="execution backend (default: auto = serial for one worker, process "
        "otherwise, file-queue when --queue-dir is given)",
    )
    parser.add_argument(
        "--queue-dir",
        type=Path,
        default=None,
        help="shared directory for the file-queue backend; point several hosts' "
        "'worker' processes at the same directory to cooperate on one run",
    )
    parser.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also write each experiment's rows to <dir>/<name>.csv",
    )
    parser.add_argument(
        "--json-dir",
        type=Path,
        default=None,
        help="write each experiment's full result (rows, notes, timing, schema version) "
        "to <dir>/<name>.json",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache per-task results here, keyed on experiment+scale+kwargs+version; "
        "re-running recomputes only what changed",
    )
    parser.add_argument(
        "--snapshot-dir",
        type=Path,
        default=None,
        help="store/restore warmed-device snapshots here; warm-up (fill + overwrite) "
        "is paid once per (FTL, geometry, config, recipe) and restored afterwards",
    )
    parser.add_argument(
        "--metrics-window-us",
        type=float,
        default=None,
        metavar="US",
        help="record per-window telemetry (simulated-time buckets of this width in "
        "microseconds); the series lands in --json-dir artifacts and is "
        "summarized after each experiment",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write Chrome trace-event JSON files (Perfetto-loadable) for every "
        "simulated device into this directory",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the planned shard tasks with their cache (and snapshot) hit/miss "
        "status without executing anything",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative entries "
        "(serial, in-process, bypasses the cache)",
    )
    return parser


def _plan_options(args) -> dict:
    """The options a dry run and a real run of experiments or studies share."""
    return {
        "scale": args.scale,
        "cache_dir": args.cache_dir,
        "snapshot_dir": args.snapshot_dir,
        "metrics_window_us": args.metrics_window_us,
        "trace_dir": args.trace_out,
    }


def _run_and_report(args, run, noun: str) -> int:
    """Call ``run(**options)`` (under cProfile with ``--profile``), report
    every outcome it returns and return the exit status."""

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    options = _plan_options(args)
    options.update(jobs=args.jobs, backend=args.backend, queue_dir=args.queue_dir)
    started = time.time()
    if args.profile:
        profiler = cProfile.Profile()
        outcomes = profiler.runcall(run, progress=progress, **options)
        pstats.Stats(profiler, stream=sys.stdout).sort_stats("cumulative").print_stats(20)
    else:
        outcomes = run(progress=progress, **options)
    wall_s = time.time() - started

    failed = _report_outcomes(outcomes, args)
    if len(outcomes) > 1:
        status = "all ok" if not failed else f"{len(failed)} failed"
        print(
            f"[{len(outcomes) - len(failed)}/{len(outcomes)} {noun} succeeded in "
            f"{wall_s:.1f} s wall-clock with --jobs {args.jobs} ({status})]"
        )
    if failed:
        print(f"failed {noun}: {', '.join(outcome.name for outcome in failed)}", file=sys.stderr)
        return 1
    return 0


def _report_outcomes(outcomes, args) -> list:
    """Render results, write artifacts and return the failed outcomes."""
    failed = []
    for outcome in outcomes:
        if not outcome.ok:
            failed.append(outcome)
            print(f"[{outcome.name} FAILED at scale={args.scale}]", file=sys.stderr)
            print(outcome.error, file=sys.stderr)
            continue
        print(outcome.result.render())
        # elapsed_s sums per-task compute; it equals wall-clock only for a
        # serial, cache-less run, so label it honestly otherwise.
        if outcome.cached_tasks == outcome.tasks:
            print(
                f"[{outcome.name} completed from cache at scale={args.scale} "
                f"({outcome.elapsed_s:.1f} s of compute saved)]"
            )
        elif args.jobs == 1 and outcome.cached_tasks == 0:
            print(f"[{outcome.name} completed in {outcome.elapsed_s:.1f} s at scale={args.scale}]")
        else:
            print(
                f"[{outcome.name} completed in {outcome.elapsed_s:.1f} s of task compute at "
                f"scale={args.scale}, {outcome.cached_tasks}/{outcome.tasks} tasks cached]"
            )
        telemetry = outcome.result.raw.get("telemetry") if outcome.result is not None else None
        if telemetry:
            from repro.analysis.windows import format_window_table

            for device in telemetry.get("devices", []):
                print(f"[windowed telemetry: {outcome.name} / {device['ftl']}]")
                print(format_window_table(device["windows"]))
                if device.get("trace_file"):
                    print(f"[trace written to {device['trace_file']}]")
            print()
        if args.csv_dir is not None:
            args.csv_dir.mkdir(parents=True, exist_ok=True)
            (args.csv_dir / f"{outcome.name}.csv").write_text(outcome.result.csv())
        if args.json_dir is not None:
            write_json_artifact(args.json_dir, outcome, args.scale)
    return failed


def _run_studies(args) -> int:
    """The ``study`` verb: run (or dry-run) declarative scenario sweeps."""
    from repro.studies import describe_study_plan, run_study

    specs = args.experiments[1:]
    if not specs:
        print("study requires at least one spec file (YAML or JSON)", file=sys.stderr)
        return 2

    if args.dry_run:
        try:
            for spec in specs:
                for line in describe_study_plan(spec, **_plan_options(args)):
                    print(line)
        except ConfigurationError as exc:
            print(f"invalid study spec: {exc}", file=sys.stderr)
            return 2
        return 0

    # Validate every spec before running any: a typo in the last spec must
    # not surface only after the earlier studies' cells have been paid for.
    from repro.studies.planner import resolve_spec

    resolved = []
    for spec in specs:
        try:
            resolved.append(resolve_spec(spec))
        except ConfigurationError as exc:
            print(f"invalid study spec {spec}: {exc}", file=sys.stderr)
            return 2

    return _run_and_report(
        args, lambda **options: [run_study(study, **options) for study in resolved], "studies"
    )


def _run_worker_verb(argv: list[str]) -> int:
    """The ``worker`` verb: attach to a file-queue directory and run tasks."""
    from repro.execution import run_worker

    parser = argparse.ArgumentParser(
        prog="repro-experiments worker",
        description="Execute tasks from a shared file-queue directory until the "
        "coordinating run signals stop.  Start any number of workers, on any "
        "hosts sharing the directory.",
    )
    parser.add_argument("queue_dir", type=Path, help="the run's shared queue directory")
    parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="how often to look for claimable tasks (default: 0.5)",
    )
    parser.add_argument(
        "--drain",
        action="store_true",
        help="exit as soon as no task is claimable instead of waiting for stop",
    )
    parser.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        metavar="N",
        help="exit after executing N tasks",
    )
    parser.add_argument(
        "--id",
        default=None,
        metavar="WORKER_ID",
        help="worker identity recorded in results (default: <hostname>-<pid>)",
    )
    args = parser.parse_args(argv)
    executed = run_worker(
        args.queue_dir,
        poll_s=args.poll,
        drain=args.drain,
        max_tasks=args.max_tasks,
        worker_id=args.id,
        log=lambda line: print(line, file=sys.stderr, flush=True),
    )
    print(f"[worker exiting after {executed} tasks]", file=sys.stderr)
    return 0


def _run_replay_verb(argv: list[str]) -> int:
    """The ``replay`` verb: checkpointed streaming replay of a trace file."""
    import json

    from repro.experiments.runner import ScaleSpec
    from repro.execution.atomic import publish_json
    from repro.nand.errors import TraceFormatError
    from repro.replay import ReplayError, ReplayPlan, ReplaySession
    from repro.snapshot.store import SnapshotStore
    from repro.snapshot.warm import WARMUP_MODES
    from repro.workloads.traces import trace_format_for

    parser = argparse.ArgumentParser(
        prog="repro-experiments replay",
        description="Stream a SPC/Systor trace file (optionally .gz) through one "
        "FTL with bounded memory, writing periodic checkpoints so a killed "
        "replay resumes bit-identical from --run-dir (see docs/replay.md).",
    )
    parser.add_argument(
        "trace",
        nargs="?",
        type=Path,
        default=None,
        help="trace file to replay (.spc/.csv, optionally .gz); omitted with --resume",
    )
    parser.add_argument(
        "--run-dir",
        type=Path,
        required=True,
        help="run directory holding manifest.json and checkpoints/",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue the run pinned by --run-dir's manifest from its latest checkpoint",
    )
    parser.add_argument(
        "--format",
        choices=["spc", "systor"],
        default=None,
        help="trace format (default: inferred from the file suffix)",
    )
    parser.add_argument("--ftl", default="dftl", help="FTL design to replay onto (default: dftl)")
    parser.add_argument(
        "--scale",
        choices=[scale.value for scale in Scale],
        default=Scale.TINY.value,
        help="device geometry: tiny (small), default (medium) or full (paper)",
    )
    parser.add_argument(
        "--streams",
        type=int,
        default=1,
        metavar="N",
        help="independent open-loop submission streams (stream_id maps modulo N)",
    )
    parser.add_argument(
        "--chunk-requests",
        type=int,
        default=10_000,
        metavar="N",
        help="requests replayed per bounded chunk (memory stays O(chunk); default: 10000)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write a checkpoint every N replayed requests",
    )
    parser.add_argument(
        "--checkpoint-every-sim-s",
        type=float,
        default=None,
        metavar="S",
        help="write a checkpoint every S simulated seconds",
    )
    parser.add_argument(
        "--keep-checkpoints",
        type=int,
        default=2,
        metavar="N",
        help="retain the newest N checkpoints (default: 2, so a corrupt newest "
        "checkpoint still leaves a fallback)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, metavar="N", help="replay only the first N records"
    )
    parser.add_argument(
        "--max-errors",
        type=int,
        default=0,
        metavar="N",
        help="tolerate up to N malformed trace lines (counted and skipped; default: 0)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        metavar="F",
        help="multiply trace inter-arrival times by F (default: 1.0)",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="ignore trace timestamps and replay closed-loop per stream",
    )
    parser.add_argument(
        "--warmup",
        choices=list(WARMUP_MODES),
        default="none",
        help="precondition the device before replaying (default: none)",
    )
    parser.add_argument(
        "--snapshot-dir",
        type=Path,
        default=None,
        help="warm-device snapshot store (warm-up restored instead of recomputed)",
    )
    parser.add_argument(
        "--metrics-window-us",
        type=float,
        default=None,
        metavar="US",
        help="record per-window telemetry in simulated-time buckets of this width",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write a Chrome trace-event JSON file for the replayed device here "
        "(best-effort: covers events since the last resume)",
    )
    parser.add_argument(
        "--stop-after-checkpoints",
        type=int,
        default=None,
        metavar="N",
        help="pause cleanly right after the Nth checkpoint written by this invocation",
    )
    parser.add_argument(
        "--stop-after-requests",
        type=int,
        default=None,
        metavar="N",
        help="abort (no checkpoint) once the total replayed request count reaches N — "
        "models a crash between checkpoints",
    )
    parser.add_argument(
        "--stats-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the run result (summary, counters, state sha256, telemetry) as JSON",
    )
    args = parser.parse_args(argv)

    try:
        if args.resume:
            manifest_path = args.run_dir / "manifest.json"
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                print(f"cannot read {manifest_path}: {exc}", file=sys.stderr)
                return 2
            plan = ReplayPlan.from_manifest(manifest)
        else:
            if args.trace is None:
                print("a trace file is required unless --resume is given", file=sys.stderr)
                return 2
            if not args.trace.is_file():
                print(f"trace file not found: {args.trace}", file=sys.stderr)
                return 2
            plan = ReplayPlan(
                trace_path=str(args.trace),
                trace_format=args.format or trace_format_for(args.trace),
                ftl_name=args.ftl,
                geometry=ScaleSpec.for_scale(args.scale).geometry,
                streams=args.streams,
                chunk_requests=args.chunk_requests,
                checkpoint_every_requests=args.checkpoint_every,
                checkpoint_every_sim_s=args.checkpoint_every_sim_s,
                preserve_timing=not args.no_timing,
                time_scale=args.time_scale,
                limit=args.limit,
                max_errors=args.max_errors,
                warmup=args.warmup,
                metrics_window_us=args.metrics_window_us,
                keep_checkpoints=args.keep_checkpoints,
            )
        tracer = None
        if args.trace_out is not None:
            from repro.obs.trace import TraceRecorder

            tracer = TraceRecorder()
        store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir is not None else None
        session = ReplaySession(
            plan,
            args.run_dir,
            snapshot_store=store,
            log=lambda line: print(line, file=sys.stderr, flush=True),
            tracer=tracer,
        )
        result = session.run(
            resume=args.resume,
            stop_after_checkpoints=args.stop_after_checkpoints,
            stop_after_requests=args.stop_after_requests,
        )
    except (ReplayError, TraceFormatError, ConfigurationError) as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2

    status = "finished" if result.finished else "paused"
    print(
        f"[replay {status}: {result.requests} requests from {result.records} records "
        f"on {plan.ftl_name}, sim time {result.sim_time_us / 1e6:.3f}s, "
        f"{result.checkpoints_written} checkpoint(s) written"
        + (f", resumed from checkpoint {result.resumed_from}" if result.resumed_from else "")
        + "]"
    )
    for key in ("throughput_mb_s", "read_p99_us", "write_p99_us", "write_amplification"):
        if key in result.summary:
            print(f"  {key} = {result.summary[key]:.4g}")
    if result.telemetry:
        from repro.analysis.windows import format_window_table

        print(f"[windowed telemetry: replay / {plan.ftl_name}]")
        print(format_window_table(result.telemetry))
    if tracer is not None:
        args.trace_out.mkdir(parents=True, exist_ok=True)
        trace_file = args.trace_out / f"replay-{plan.ftl_name}.trace.json"
        tracer.write(trace_file)
        print(f"[trace written to {trace_file}]")
    if args.stats_out is not None:
        args.stats_out.parent.mkdir(parents=True, exist_ok=True)
        publish_json(args.stats_out, result.as_dict(), indent=2)
        print(f"[stats written to {args.stats_out}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (also exposed as the ``repro-experiments`` console script)."""
    if argv is None:
        argv = sys.argv[1:]
    # The worker and replay verbs have their own option sets; dispatch before
    # the main parser can trip over them.
    if argv and argv[0] == "worker":
        return _run_worker_verb(list(argv[1:]))
    if argv and argv[0] == "replay":
        return _run_replay_verb(list(argv[1:]))
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list or not args.experiments:
        study_verb = "study <spec>..."
        worker_verb = "worker <queue-dir>"
        replay_verb = "replay <trace>"
        width = max(
            max(len(name) for name in EXPERIMENTS),
            len(study_verb),
            len(worker_verb),
            len(replay_verb),
        )
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {description}")
        print(
            f"{study_verb.ljust(width)}  Declarative scenario sweep from YAML/JSON specs "
            "(see docs/studies.md)"
        )
        print(
            f"{worker_verb.ljust(width)}  Attach to a file-queue directory and execute "
            "tasks (multi-host runs)"
        )
        print(
            f"{replay_verb.ljust(width)}  Checkpointed streaming replay of a SPC/Systor "
            "trace file (see docs/replay.md)"
        )
        return 0
    if args.jobs < 0:
        print("--jobs must be >= 0 (0 = auto-detect the CPU count)", file=sys.stderr)
        return 2
    if args.backend == "file-queue" and args.queue_dir is None:
        print("--backend file-queue requires --queue-dir", file=sys.stderr)
        return 2
    if args.profile:
        # cProfile sees this process only: every task runs inline, uncached.
        args.jobs, args.backend, args.queue_dir, args.cache_dir = 1, "serial", None, None
    if args.experiments[0] == "study":
        return _run_studies(args)
    names: list[str] = []
    for name in args.experiments:
        resolved_names = (
            [key for key in EXPERIMENTS if key not in INTERNAL_EXPERIMENTS]
            if name == "all"
            else [name]
        )
        for resolved in resolved_names:
            if resolved not in names:
                names.append(resolved)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.dry_run:
        for line in describe_plan(names, **_plan_options(args)):
            print(line)
        return 0
    return _run_and_report(
        args, lambda **options: run_orchestrated(names, **options), "experiments"
    )


if __name__ == "__main__":
    raise SystemExit(main())
