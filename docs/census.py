#!/usr/bin/env python
"""Reachability census: which ``src/repro`` functions does no shipped command call?

Every function and method defined under ``src/repro`` is listed from the AST.
A ``sys.setprofile`` hook (in this thread and every thread started after it)
then records each code object that is entered while this script runs, in one
process:

* every command ``.github/workflows/ci.yml`` runs, except the test suite
  itself: the ledger smoke (each workload, untraced), the tiny orchestrated
  run cold and cached, the telemetry and tracing smoke, the replay
  kill/resume/damage smoke, the study smoke and its damaged specs, the dry
  runs, the snapshot-resume check, the file-queue job (serial reference, then
  a coordinator with a ``worker`` verb attached in a thread), the trace-replay
  example on both fixtures and ``docs/gen_api.py --check``;
* every ``examples/*.py`` script at its defaults (``--jobs 1`` for the sweep).

Backends run serially (``--jobs 1``) so the hook sees every task; one extra
``--jobs 2`` run records the coordinator side of the process backend.

A function nobody entered is *unreached*.  It must be listed in :data:`KEPT`
with the reason it stays (a path CI reaches only in a child process, a scale
or flag CI does not run, an error branch, a benchmark seam, ...), or the
census fails.  A ``KEPT`` entry that is now reached, or names no function,
fails it too, so the list cannot go stale.

Usage::

    PYTHONPATH=src python docs/census.py                   # run, print, check
    PYTHONPATH=src python docs/census.py --work-dir DIR    # keep outputs in DIR

Commands run with ``DIR`` (default: a temporary directory) as the working
directory; their output goes to ``DIR/logs/<step>.log``.  A full run takes
about 3.5 min on a 2-core x86-64 machine.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gzip
import json
import multiprocessing
import os
import runpy
import shutil
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"

#: "module:qualname" -> why it stays although no command above enters it.
KEPT: dict[str, str] = {
    # Interfaces: abstract or default hooks that every caller reaches through
    # an override.
    "repro.core.base:FTLBase.read": "abstract: every design overrides it",
    "repro.core.base:FTLBase.write": "abstract: every design overrides it",
    "repro.core.base:FTLBase._translate_read": (
        "abstract hook of _encode_read; every design overrides it"
    ),
    "repro.execution.base:ExecutorBackend.submit_all": "abstract: every backend overrides it",
    "repro.obs.trace:NullTraceRecorder.instant": (
        "no-op tracer interface; hook sites test `enabled` first"
    ),
    "repro.obs.trace:NullTraceRecorder.complete": (
        "no-op tracer interface; hook sites test `enabled` first"
    ),
    "repro.workloads.traces:RecordStream.__iter__": (
        "iterator protocol of RecordStream (see __next__)"
    ),
    "repro.workloads.traces:RecordStream.__next__": (
        "per-record iteration of a trace file; ledger seam workloads.next"
    ),
    # Paths CI reaches only in a child process.
    "repro.execution.filequeue:_worker_entry": (
        "runs in the file-queue coordinator's local worker process"
    ),
    "repro.execution.local:_process_entry": "runs in the process backend's pool workers",
    # Real paths these inputs do not happen to take.
    "repro.core.allocation:GroupAllocator._scatter_page": (
        "group-GC write-back when no stripe of the group has room "
        "(tests/test_learnedftl.py::TestEmergencyWriteBack forces it)"
    ),
    "repro.core.allocation:StripeMap.ppn_at": "called by GroupAllocator._scatter_page",
    "repro.obs.trace:_event": (
        "trace events whose args are not plain JSON values; TraceRecorder.export"
    ),
    "repro.obs.trace:_read_events": "translation reads with non-plain values; TraceRecorder.export",
    "repro.workloads.traces:_RecordRows.rewind": (
        "replay chunking over a record list when wrap tails fill a chunk early"
    ),
    "repro.execution.base:ExecutorBackend._note": (
        "file-queue coordinator waiting 10 s without progress"
    ),
    "repro.execution.filequeue:FileQueue.live_workers": (
        "file-queue coordinator waiting 10 s without progress"
    ),
    "repro.nand.geometry:SSDGeometry.check_lpn": (
        "error path: a host request outside the logical space"
    ),
    "repro.nand.geometry:SSDGeometry.check_ppn": "error path: a page number outside the device",
    "repro.workloads.synthetic:mixed_stream": "the `mixed` study workload kind",
    "repro.workloads.traces:preset_requests": "the `trace` study workload kind",
    # Scales and presets CI does not run.
    "repro.nand.geometry:SSDGeometry.medium": (
        "--scale default, --medium in the examples, study geometry base"
    ),
    "repro.nand.geometry:SSDGeometry.paper": "--scale full, study geometry base",
    "repro.nand.geometry:SSDGeometry.preset": "study specs naming a geometry base",
    # Kept on purpose (ROADMAP "Parked").
    "repro.nand.flash:FlashArray.program": "the OOB write path, program(oob=)",
    "repro.nand.flash:FlashArray.latest_version_of": (
        "SSD.verify's error message for a stale mapping"
    ),
    "repro.experiments.noop:run": "the noop experiment worker processes import from the registry",
    # Documented surface.
    "repro.nand.fields:Checked.sweepable_fields": (
        "how docs/studies.md and docs/architecture.md tell users which fields a study can sweep"
    ),
    "repro.obs.trace:TraceRecorder.export": (
        "documented reader (docs/observability.md); write() streams exactly its JSON"
    ),
    "repro.core.leaftl:LeaFTL.segment_count": (
        "benchmarks/test_ablations.py compares it across gammas"
    ),
    "repro.core.mapping:MappingDirectory.__len__": (
        "the only reader of the directory's mapped_count, which every snapshot carries"
    ),
}


# ------------------------------------------------------------------ the list
def list_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> ("module:qualname", line count) for every def.

    The first line is the first decorator's, which is what a code object's
    ``co_firstlineno`` holds.
    """
    found: dict[tuple[str, int], tuple[str, int]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        parts = path.relative_to(SOURCE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    lines = child.end_lineno - first + 1
                    found[(str(path), first)] = (f"{module}:{prefix}{child.name}", lines)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


# ------------------------------------------------------------------ the hook
class Hook:
    """Records every code object entered while installed."""

    def __init__(self) -> None:
        self.codes: set = set()
        add = self.codes.add

        def profile(frame, event, arg) -> None:
            if event == "call":
                add(frame.f_code)

        self.profile = profile

    def install(self) -> None:
        sys.setprofile(self.profile)
        threading.setprofile(self.profile)

    def remove(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]

    def entered(self) -> set[tuple[str, int]]:
        return {(code.co_filename, code.co_firstlineno) for code in self.codes}


# -------------------------------------------------------------- the commands
class CommandFailed(RuntimeError):
    pass


def cli(*argv: str, expect: int = 0) -> None:
    """``python -m repro.experiments ARGV`` in this process."""
    from repro.experiments.__main__ import main

    try:
        code = main([str(arg) for arg in argv])
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    if code != expect:
        command = " ".join(map(str, argv))
        raise CommandFailed(f"repro.experiments {command}: exit {code}, want {expect}")


def script(path: Path, *argv: str) -> None:
    """``python PATH ARGV`` in this process."""
    saved = sys.argv
    sys.argv = [str(path), *map(str, argv)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise CommandFailed(f"{path.name} {' '.join(map(str, argv))}: exit {stop.code}")
    finally:
        sys.argv = saved


def ledger_smoke() -> None:
    for workload in (
        "randread_batched", "overwrite_gc", "trace_replay", "hotspot_observed", "figs_tiny"
    ):
        script(ROOT / "benchmarks/ledger/run.py", "--workload", workload, "--smoke",
               "--out", "ci-ledger")


def tiny_all() -> None:
    cli("all", "--scale", "tiny", "--jobs", 1, "--json-dir", "ci-results/",
        "--cache-dir", "ci-cache/", "--snapshot-dir", "ci-snapshots/")


def telemetry_smoke() -> None:
    for name in ("fig06", "fig14", "fig21"):
        traces = "ci-traces/" if name == "fig06" else f"ci-traces-{name}/"
        cli(name, "--scale", "tiny", "--metrics-window-us", 50000, "--trace-out", traces,
            "--json-dir", "ci-obs/")
    cli("fig19", "--scale", "tiny", "--metrics-window-us", 0, expect=2)
    cli("replay", ROOT / "tests/data/systor17_sample.csv", "--format", "systor",
        "--run-dir", "ci-badwin-run", "--metrics-window-us", "inf", expect=2)


REPLAY_FLAGS = ("--scale", "tiny", "--chunk-requests", 50, "--checkpoint-every", 150,
                "--time-scale", 1e-4, "--metrics-window-us", 2000)


def replay_smoke() -> None:
    from repro.workloads.traces import synthesize_systor
    from tests.conftest import flip_archive_payload_byte

    lines = ["timestamp,response,iotype,lun,offset,size\n"]
    for r in synthesize_systor(num_ios=600, seed=13):
        lines.append(f"{r.timestamp_s!r},0.0,{'R' if r.is_read else 'W'},"
                     f"{r.stream_id},{r.offset_bytes},{r.size_bytes}\n")
    Path("ci-replay-trace.csv").write_text("".join(lines), encoding="utf-8")
    trace = "ci-replay-trace.csv"
    cli("replay", trace, "--run-dir", "ci-replay/full", *REPLAY_FLAGS,
        "--stats-out", "ci-replay/full.json")
    cli("replay", trace, "--run-dir", "ci-replay/killed", *REPLAY_FLAGS,
        "--stop-after-checkpoints", 1)
    cli("replay", "--resume", "--run-dir", "ci-replay/killed",
        "--stats-out", "ci-replay/resumed.json")
    for name in ("flipped", "stepped"):
        cli("replay", trace, "--run-dir", f"ci-replay/{name}", *REPLAY_FLAGS,
            "--stop-after-checkpoints", 2)
        flip_archive_payload_byte(Path(f"ci-replay/{name}/checkpoints/ckpt-000002/arrays.npz"))
    cli("replay", "--resume", "--run-dir", "ci-replay/flipped",
        "--stats-out", "ci-replay/flipped.json")
    for _ in range(8):
        cli("replay", "--resume", "--run-dir", "ci-replay/stepped", "--stop-after-checkpoints", 1,
            "--stats-out", "ci-replay/stepped.json")
        if json.loads(Path("ci-replay/stepped.json").read_text())["finished"]:
            break
    for position, bad in ((40, "0.1,0.0,X,0,4096,4096\n"), (250, "not,a,valid,record,at,all\n"),
                          (480, "0.2,0.0,R,0,-4096,4096\n")):
        lines.insert(position, bad)
    with gzip.open("ci-replay-bad.csv.gz", "wt", encoding="utf-8") as handle:
        handle.writelines(lines)
    cli("replay", "ci-replay-bad.csv.gz", "--run-dir", "ci-replay/gz-full", *REPLAY_FLAGS,
        "--max-errors", 3, "--stats-out", "ci-replay/gz-full.json")
    cli("replay", "ci-replay-bad.csv.gz", "--run-dir", "ci-replay/gz-killed", *REPLAY_FLAGS,
        "--max-errors", 3, "--stop-after-checkpoints", 1)
    cli("replay", "--resume", "--run-dir", "ci-replay/gz-killed",
        "--stats-out", "ci-replay/gz-resumed.json")
    for damage in ("truncated", "no-device", "warmup"):
        shutil.copytree("ci-replay/full", f"ci-replay/bad-{damage}")
    shutil.rmtree("ci-replay/bad-warmup/checkpoints")
    truncated = Path("ci-replay/bad-truncated/manifest.json")
    truncated.write_text(truncated.read_text()[: len(truncated.read_text()) // 2])
    no_device = Path("ci-replay/bad-no-device/manifest.json")
    manifest = json.loads(no_device.read_text())
    del manifest["device"]
    no_device.write_text(json.dumps(manifest))
    bad_warmup = Path("ci-replay/bad-warmup/manifest.json")
    manifest = json.loads(bad_warmup.read_text())
    manifest["warmup"]["warmup"] = "bogus"
    bad_warmup.write_text(json.dumps(manifest))
    for damage in ("truncated", "no-device", "warmup"):
        cli("replay", "--resume", "--run-dir", f"ci-replay/bad-{damage}", expect=2)
    cli("replay", trace, "--run-dir", "ci-replay/refused", *REPLAY_FLAGS, "--limit", -5, expect=2)
    cli("replay", trace, "--run-dir", "ci-replay/refused", *REPLAY_FLAGS, "--limit", 100)
    for stop in (("--stop-after-checkpoints", 0), ("--stop-after-requests", -1)):
        cli("replay", trace, "--run-dir", "ci-replay/bad-stop", *REPLAY_FLAGS, *stop, expect=2)


def study_smoke() -> None:
    spec = ROOT / "examples/sweep_cmt_budget.yaml"
    for phase in ("cold", "warm"):
        cli("study", spec, "--scale", "tiny", "--jobs", 1, "--cache-dir", "ci-cache/",
            "--snapshot-dir", "ci-snapshots/", "--json-dir", f"ci-study/{phase}/")
    damaged = {
        "geometry": "  geometry: {overrides: [{op_ratio: \"0.1\"}]}",
        "config": "  config: {cmt_ratio: [.nan]}",
        "hotspot": "  workload: [{kind: hotspot, read_fraction: 1.5}]",
        "fio": "  workload: [{kind: fio, pattern: randread, span_fraction: 0.0}]",
    }
    for case, axis in damaged.items():
        path = Path(f"ci-study/bad-{case}.yaml")
        path.write_text(f"name: bad-{case}\naxes:\n  ftl: [dftl]\n{axis}\n", encoding="utf-8")
        cli("study", path, "--scale", "tiny", "--dry-run", expect=2)


def cached_rerun_and_dry_runs() -> None:
    cli("all", "--scale", "tiny", "--jobs", 1, "--json-dir", "ci-results-cached/",
        "--cache-dir", "ci-cache/", "--snapshot-dir", "ci-snapshots/")
    stores = ("--cache-dir", "ci-cache/", "--snapshot-dir", "ci-snapshots/")
    cli("all", "--scale", "tiny", "--dry-run", *stores)
    cli("all", "--scale", "tiny", "--dry-run", *stores, "--metrics-window-us", 50000)
    cli("study", ROOT / "examples/sweep_cmt_budget.yaml", "--scale", "tiny", "--dry-run", *stores)


def snapshot_resume() -> None:
    cli("fig14", "--scale", "tiny", "--json-dir", "ci-snapcheck/cold/")
    for phase in ("populate", "resume"):
        cli("fig14", "--scale", "tiny", "--snapshot-dir", "ci-snapcheck/store/",
            "--json-dir", f"ci-snapcheck/{phase}/")


FQ_STUDY = """\
name: file-queue-smoke
description: tiny sweep exercising the multi-host file-queue backend
warmup: fill
metric: throughput_mb_s
axes:
  ftl: [dftl, ideal]
  config:
    cmt_ratio: [0.01, 0.05]
  workload:
    - {kind: fio, pattern: randread, num_requests: 200}
"""


def file_queue() -> None:
    Path("fq-study.yaml").write_text(FQ_STUDY, encoding="utf-8")
    cli("study", "fq-study.yaml", "--scale", "tiny", "--backend", "serial",
        "--snapshot-dir", "fq-snapshots/", "--json-dir", "fq-serial/")
    Path("fq-queue").mkdir(exist_ok=True)
    failures: list[BaseException] = []

    def attached_worker() -> None:
        try:
            cli("worker", "fq-queue", "--poll", 0.2)
        except BaseException as error:  # reported by the coordinator's thread
            failures.append(error)

    worker = threading.Thread(target=attached_worker)
    worker.start()
    # The coordinator starts its local worker process while the attached
    # worker's threads run; a forked child could inherit a lock one of them
    # holds, so it is spawned.
    multiprocessing.set_start_method("spawn", force=True)
    try:
        cli("study", "fq-study.yaml", "--scale", "tiny", "--backend", "file-queue",
            "--queue-dir", "fq-queue", "--jobs", 1, "--snapshot-dir", "fq-snapshots/",
            "--json-dir", "fq-distributed/")
    finally:
        multiprocessing.set_start_method(None, force=True)
        worker.join()
    if failures:
        raise failures[0]


def trace_replay_example() -> None:
    example = ROOT / "examples/trace_replay.py"
    for fixture, fmt in (("websearch_sample.spc", "spc"), ("systor17_sample.csv", "systor")):
        script(example, "--trace", ROOT / "tests/data" / fixture, "--format", fmt, "--ios", 200)


def api_docs() -> None:
    script(ROOT / "docs/gen_api.py", "--check")


def examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        script(path, *(["--jobs", 1] if path.name == "sweep_cmt_budget.py" else []))


def process_backend() -> None:
    cli("fig19", "--scale", "tiny", "--jobs", 2)


#: (name, step) in run order.
STEPS: list[tuple[str, Callable[[], None]]] = [
    ("ledger-smoke", ledger_smoke),
    ("tiny-all", tiny_all),
    ("telemetry", telemetry_smoke),
    ("replay", replay_smoke),
    ("study", study_smoke),
    ("cached-and-dry-runs", cached_rerun_and_dry_runs),
    ("snapshot-resume", snapshot_resume),
    ("file-queue", file_queue),
    ("trace-replay-example", trace_replay_example),
    ("api-docs", api_docs),
    ("examples", examples),
    ("process-backend", process_backend),
]


# ------------------------------------------------------------------ the check
def check(unreached: dict[str, int], defined: set[str]) -> list[str]:
    problems = [
        f"unreached and not in KEPT: {name}" for name in sorted(unreached) if name not in KEPT
    ]
    for name in sorted(KEPT):
        if name not in defined:
            problems.append(f"KEPT names no function: {name}")
        elif name not in unreached:
            problems.append(f"KEPT but reached: {name}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--work-dir", type=Path, default=None,
                        help="where commands run and write (default: a temporary directory)")
    args = parser.parse_args(argv)
    work = (args.work_dir or Path(tempfile.mkdtemp(prefix="census-"))).resolve()
    (work / "logs").mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    functions = list_functions()
    hook = Hook()
    started, home = time.monotonic(), Path.cwd()
    os.chdir(work)
    try:
        for name, step in STEPS:
            began = time.monotonic()
            log = work / "logs" / f"{name}.log"
            with open(log, "w", encoding="utf-8") as handle, \
                    contextlib.redirect_stdout(handle), contextlib.redirect_stderr(handle):
                hook.install()
                try:
                    step()
                finally:
                    intact = sys.getprofile() is hook.profile
                    hook.remove()
            if not intact:
                raise CommandFailed(f"step {name} replaced the profile hook")
            print(f"{name:22s} {time.monotonic() - began:7.1f} s   (log: {log})", flush=True)
    finally:
        os.chdir(home)
    entered = hook.entered()

    unreached: dict[str, int] = {}
    for key, (name, lines) in functions.items():
        if key not in entered:
            unreached[name] = lines
    by_module: dict[str, list[str]] = defaultdict(list)
    for name in sorted(unreached):
        by_module[name.partition(":")[0]].append(name.partition(":")[2])
    print(f"\n{len(unreached)} of {len(functions)} functions "
          f"({sum(unreached.values())} lines) unreached:")
    for module, names in sorted(by_module.items()):
        print(f"  {module}")
        for qualname in names:
            name = f"{module}:{qualname}"
            print(f"    {qualname:52s} {unreached[name]:4d}  {KEPT.get(name, '-- NOT KEPT')}")
    problems = check(unreached, {name for name, _ in functions.values()})
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"census: {time.monotonic() - started:.0f} s, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
