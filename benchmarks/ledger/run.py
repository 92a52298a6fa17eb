"""``ledger``: the repository's benchmark.  See ``README.md`` beside this file.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py                       # all five workloads, end to end
    python3 benchmarks/ledger/run.py --traced              # ... plus the per-layer traced runs
    python3 benchmarks/ledger/run.py --workload figs_tiny --seed 7 --seconds 10 --trace 0
    python3 benchmarks/ledger/run.py --smoke               # every size / 50, a few seconds
    python3 benchmarks/ledger/run.py --plant obs.record=1.5 --out DIR
    python3 benchmarks/ledger/run.py compare A.json B.json

With exactly one ``--workload`` the run happens in this process and the last
line of standard output is the result object of the benchmark contract;
otherwise each workload runs in its own child process, one at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SOURCE))

from ledger_clock import (  # noqa: E402
    PROBE_ITERATIONS,
    SliceClock,
    SliceLimit,
    probe_rate,
    spread,
)
from ledger_report import (  # noqa: E402
    SIM_METRICS,
    append_history,
    compare,
    contract_line,
    format_metrics,
    metric_table,
)
from ledger_trace import SEAMS, Tracer, count_calls  # noqa: E402
from ledger_workloads import WORKLOADS, Workload  # noqa: E402

#: Set-ups per end-to-end run; ``setup_s`` is imports + the median of these.
SETUP_REPEATS = 3
DEFAULT_SECONDS = 10
DEFAULT_SEED = 20241
HISTORY = HERE / "history.jsonl"


def _percentile(values: "list[float]", q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


# ------------------------------------------------------------ one workload
class Run:
    """One pass over a workload: timed imports, set-ups and rounds on one clock."""

    def __init__(self, args: argparse.Namespace, work_dir: Path, tracer_for: Any = None) -> None:
        self.clock = SliceClock(PROBE_ITERATIONS // (10 if args.smoke else 1))
        self.tracer: "Tracer | None" = tracer_for(self.clock) if tracer_for else None
        if self.tracer:
            self.tracer.install()
        self.workload: Workload = WORKLOADS[args.workload[0]](
            args.seed, args.smoke, work_dir, self.tracer
        )
        self.peak_rss_mb: "float | None" = None

    def set_up(self, repeats: int) -> None:
        clock, workload = self.clock, self.workload
        clock.start("setup")
        workload.load()
        clock.stop()
        for _ in range(repeats):
            gc.collect()
            clock.start("setup")
            workload.setup()
            clock.stop()

    def rounds(self, seconds: float) -> None:
        """Whole rounds: the first always, another while it still fits in ``seconds``.

        Every round is the same work, so the rate does not depend on how many
        the budget allowed.  Peak memory is read after the first round because
        latency populations keep growing with every further round.
        """
        begin = time.perf_counter()
        while True:
            gc.collect()
            self.workload.round(self.clock)
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # At the mean round time so far, would one more overrun the budget?
            if (time.perf_counter() - begin) * (1 + 1 / self.workload.rounds_run) > seconds:
                return

    def close(self) -> None:
        if self.tracer:
            self.tracer.uninstall()

    # ----------------------------------------------------------- derived
    def setup_seconds(self) -> tuple[float, float]:
        """``(calibrated, raw)``: the import slice plus the median set-up repeat."""
        imports, *repeats = self.clock.of_phase("setup")
        return (
            imports.cal_s + statistics.median(s.cal_s for s in repeats),
            imports.wall_s + statistics.median(s.wall_s for s in repeats),
        )

    def timing(self) -> dict[str, Any]:
        timed = self.clock.of_phase("timed")
        slice_ms = [entry.cal_s * 1e3 for entry in timed]
        return {
            "rounds": self.workload.rounds_run,
            "slices": len(timed),
            "raw_s": sum(entry.wall_s for entry in timed),
            "cal_s": sum(entry.cal_s for entry in timed),
            "completed": sum(entry.completed for entry in timed),
            "slice_ms_p50": statistics.median(slice_ms),
            "slice_ms_p90": _percentile(slice_ms, 0.9),
            "probe_iters_per_s": statistics.median(self.clock.probe_rates),
            "probe_spread_pct": 100.0 * spread(self.clock.probe_rates),
            "slice_raw_cal_s": [[entry.wall_s, entry.cal_s] for entry in timed],
        }

    def outcome(self) -> dict[str, Any]:
        """Ops attempted/failed and the output check of this pass."""
        timed = self.clock.of_phase("timed")
        attempted = sum(entry.attempted for entry in timed)
        failures = list(self.workload.failures())
        failed = attempted if failures else sum(e.attempted - e.completed for e in timed)
        if failed and not failures:
            failures.append(f"{failed} operations did not complete")
        return {"attempted": attempted, "failed": failed, "failures": failures}


def _base_result(args: argparse.Namespace, run: Run) -> dict[str, Any]:
    measured = run.workload.results()
    outcome = run.outcome()
    return {
        "workload": run.workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "plant": args.plant,
        "correct": not outcome["failures"],
        **outcome,
        "exact": measured["exact"],
        "state_sha": measured["state_sha"],
        "sizes": run.workload.sizes(),
        "timing": run.timing(),
    }


def run_end_to_end(args: argparse.Namespace, work_dir: Path) -> dict[str, Any]:
    """The untraced run: every end-to-end metric of one workload."""
    tracer_for = None
    if args.plant:
        seam, _, factor = args.plant.partition("=")
        if seam not in SEAMS:
            raise SystemExit(f"--plant: unknown seam {seam!r}; choose from {sorted(SEAMS)}")

        def tracer_for(clock: SliceClock) -> Tracer:
            return Tracer(clock, SOURCE / "repro", seams=(seam,), plant={seam: float(factor)})

    run = Run(args, work_dir, tracer_for)
    try:
        run.set_up(1 if args.smoke else SETUP_REPEATS)
        run.rounds(args.seconds)
    finally:
        run.close()
    result = _base_result(args, run)
    measured, timing = run.workload.results(), result["timing"]
    setup_cal, setup_raw = run.setup_seconds()
    result["end_to_end"] = {
        "setup_s": setup_cal,
        "host_ops_per_s": timing["completed"] / timing["cal_s"],
        "peak_rss_mb": run.peak_rss_mb,
        **{name: measured[name] for name in SIM_METRICS},
    }
    result["raw"] = {"setup_s": setup_raw, "host_ops_per_s": timing["completed"] / timing["raw_s"]}
    return result


def run_traced(args: argparse.Namespace, work_dir: Path, out_dir: Path) -> dict[str, Any]:
    """The traced run: every per-layer metric, and proof that tracing changes nothing.

    An untraced reference pass runs first in the same process (same seed, one
    round); the traced pass must reproduce its state fingerprint, simulated
    results and exact counters, and ``trace.overhead_pct`` compares the two
    calibrated host rates.
    """
    reference = Run(args, work_dir / "reference")
    reference.set_up(1)
    reference.workload.round(reference.clock)
    extras = reference.workload.extras()

    one_slice = SliceClock(reference.clock.probe_iterations)
    one_slice.limit = 1

    def extra_slice() -> None:
        try:
            reference.workload.round(one_slice)
        except SliceLimit:
            pass

    python_calls = count_calls(one_slice, extra_slice)
    calls_per_op = python_calls / max(1, one_slice.slices[0].completed)

    traced = Run(args, work_dir / "traced", lambda clock: Tracer(clock, SOURCE / "repro"))
    tracer = traced.tracer
    try:
        traced.set_up(1)
        setup_spans = tracer.cut("setup")
        traced.workload.round(traced.clock)
        spans = tracer.cut("timed")
    finally:
        traced.close()
    tracer.write_chrome_trace(out_dir / f"{args.workload[0]}.trace.json")

    result = _base_result(args, traced)
    reference_outcome = reference.outcome()
    result["failures"] += reference_outcome["failures"]
    want, got = reference.workload.results(), traced.workload.results()
    diverged = [name for name in (*SIM_METRICS, "state_sha") if want[name] != got[name]]
    diverged += [key for key in want["exact"] if want["exact"][key] != got["exact"].get(key)]
    if diverged:
        result["failures"].append(f"the traced run diverged from the untraced run: {diverged}")
    if result["failures"]:
        result["correct"], result["failed"] = False, result["attempted"]

    timing, reference_timing = result["timing"], reference.timing()
    traced_rate = timing["completed"] / timing["cal_s"]
    reference_rate = reference_timing["completed"] / reference_timing["cal_s"]
    values: dict[str, float] = dict.fromkeys(
        (name for name, entry in metric_table().items() if entry["kind"] == "per_layer"), 0.0
    )
    values.update({f"prof.{layer}.pct": pct for layer, pct in tracer.profile_pct().items()})
    for seam, span in spans.items():
        values.update({f"{seam}.{key}": value for key, value in span.items()})
    values.update(got["exact"])
    values.update(extras)
    values.update({name: got[name] for name in SIM_METRICS})
    values.update(
        {
            "core.plan.batched_pct": 100.0 * tracer.taken / max(1, timing["completed"]),
            "core.plan.reqs_per_take": tracer.taken / tracer.takes if tracer.takes else 0.0,
            "py.calls_per_op": calls_per_op,
            "machine.cal_iters_per_s": timing["probe_iters_per_s"],
            "machine.cal_spread_pct": timing["probe_spread_pct"],
            "trace.overhead_pct": 100.0 * (reference_rate / traced_rate - 1.0),
            "host.raw_s": timing["raw_s"],
            "host.slice_ms_p50": timing["slice_ms_p50"],
            "host.slice_ms_p90": timing["slice_ms_p90"],
        }
    )
    result["per_layer"] = values
    result["absent"] = tracer.absent
    result["setup_spans"] = setup_spans
    result["reference_host_ops_per_s"] = reference_rate
    return result


def run_one(args: argparse.Namespace) -> int:
    """Worker mode: one workload in this process; prints the contract line last."""
    if not (SOURCE / "repro").is_dir():
        print(f"ledger: {SOURCE / 'repro'} is missing; nothing to benchmark", file=sys.stderr)
        return 2
    if args.trace and args.plant:
        raise SystemExit("--plant applies to the end-to-end run (--trace 0)")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = ROOT / ".ledger_work" / f"{args.workload[0]}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = run_traced(args, work_dir, out_dir)
        else:
            result = run_end_to_end(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    table = metric_table()
    suffix = ".traced.json" if args.trace else ".json"
    (out_dir / f"{args.workload[0]}{suffix}").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8"
    )
    print("\n".join(format_metrics(result, table)))
    print(contract_line(result, "per_layer" if args.trace else "end_to_end", table))
    return 0


# ---------------------------------------------------------------- the suite
def _manifest(args: argparse.Namespace) -> dict[str, Any]:
    import numpy

    from repro.snapshot import source_fingerprint

    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "probe_iters_per_s": statistics.median(probe_rate() for _ in range(5)),
        "source_fingerprint": source_fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "plant": args.plant,
    }


def _child(args: argparse.Namespace, workload: str, trace: int, out_dir: Path) -> dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        *("--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)),
        *("--trace", str(trace), "--out", str(out_dir)),
        *(["--smoke"] if args.smoke else []),
        *(["--plant", args.plant] if args.plant and not trace else []),
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        raise SystemExit(f"ledger: workload {workload} exited with {done.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    suffix = ".traced.json" if trace else ".json"
    return json.loads((out_dir / f"{workload}{suffix}").read_text(encoding="utf-8"))


def run_suite(args: argparse.Namespace) -> int:
    """Each workload in its own child process, one at a time; one JSON report."""
    if args.record and (args.smoke or args.plant or args.workload):
        raise SystemExit("--record is for full, unplanted runs of the whole suite")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict[str, Any] = {"manifest": _manifest(args), "workloads": {}}
    for workload in args.workload or list(WORKLOADS):
        result = _child(args, workload, 0, out_dir)
        if args.trace:
            result["traced"] = _child(args, workload, 1, out_dir)
        report["workloads"][workload] = result
    report["manifest"]["sizes"] = {name: r["sizes"] for name, r in report["workloads"].items()}
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    print(f"report: {path}" + ("   (smoke: not comparable, not recorded)" if args.smoke else ""))
    if args.record:
        append_history(HISTORY, report)
        print(f"recorded in {HISTORY}")
    incorrect = [
        name
        for name, result in report["workloads"].items()
        if not result["correct"] or not result.get("traced", result)["correct"]
    ]
    if incorrect:
        print(f"OUTPUT CHECK FAILED: {', '.join(incorrect)}")
    return 1 if incorrect else 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json|DIR B.json|DIR")
        lines, worse = compare(argv[1], argv[2])
        print("\n".join(lines))
        return 1 if worse else 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS), default=[])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--plant", metavar="SEAM=FACTOR")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--out", default=str(ROOT / ".ledger_out"))
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0  # one round
    return run_one(args) if len(args.workload) == 1 else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
