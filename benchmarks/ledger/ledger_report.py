"""Metric table, report printing, ``compare`` and the history file of the ledger.

``BENCHMARK.json`` at the repository root is the single list of metric names,
units, directions and bounds; nothing here repeats it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Iterable

from ledger_clock import spread

__all__ = [
    "ROOT",
    "SIM_METRICS",
    "append_history",
    "compare",
    "contract_line",
    "format_metrics",
    "load_reports",
    "metric_table",
]

ROOT = Path(__file__).resolve().parents[2]

#: Simulated results: deterministic per seed, so they are listed with the
#: per-layer metrics in ``BENCHMARK.json`` (the driver wants end-to-end values
#: that differ from run to run) but printed and compared with the end-to-end
#: ones, with a bound of exactly zero.
SIM_METRICS = ("sim_iops", "sim_p99_us")


def metric_table() -> dict[str, dict[str, Any]]:
    """``{metric name: {unit, better, bound, kind}}`` from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table: dict[str, dict[str, Any]] = {}
    for kind in ("end_to_end", "per_layer"):
        for entry in spec[kind]:
            table[entry["name"]] = {
                "unit": entry["unit"],
                "better": entry["better"],
                "bound": entry.get("bound"),
                "kind": kind,
            }
    return table


def contract_line(result: dict[str, Any], kind: str, table: dict[str, dict[str, Any]]) -> str:
    """The one-line JSON object the benchmark contract asks for on stdout."""
    values = result[kind]
    metrics = {
        name: {"value": values[name], "unit": entry["unit"]}
        for name, entry in table.items()
        if entry["kind"] == kind
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def format_metrics(result: dict[str, Any], table: dict[str, dict[str, Any]]) -> list[str]:
    """Human-readable lines for one workload result: every metric with its unit."""
    name = result["workload"]
    lines = [
        f"== {name} (seed {result['seed']}"
        + (", traced" if result["trace"] else "")
        + (", smoke" if result["smoke"] else "")
        + (f", plant {result['plant']}" if result["plant"] else "")
        + f") ops attempted {result['attempted']} failed {result['failed']} "
        f"correct {str(result['correct']).lower()}"
    ]
    for failure in result["failures"]:
        lines.append(f"   FAILED CHECK: {failure}")
    raw = result.get("raw", {})
    for metric, value in result.get("end_to_end", {}).items():
        note = f"   (raw {raw[metric]:.6g})" if metric in raw else ""
        lines.append(f"   {metric:<40} {value:>16.6g} {table[metric]['unit']}{note}")
    for metric, value in result.get("per_layer", {}).items():
        lines.append(f"   {metric:<40} {value:>16.6g} {table[metric]['unit']}")
    if result.get("absent"):
        lines.append(f"   absent seams: {', '.join(result['absent'])}")
    timing = result["timing"]
    lines.append(
        f"   [{timing['rounds']} round(s), {timing['slices']} slices, "
        f"timed region raw {timing['raw_s']:.3f} s -> calibrated {timing['cal_s']:.3f} s, "
        f"probe {timing['probe_iters_per_s']:.4g} it/s]"
    )
    return lines


# ------------------------------------------------------------------- compare
def load_reports(path: "str | Path") -> list[dict[str, Any]]:
    """The suite reports at ``path``: one file, or every report in a directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    reports = []
    for file in files:
        payload = json.loads(file.read_text(encoding="utf-8"))
        if isinstance(payload, dict) and "workloads" in payload and "manifest" in payload:
            reports.append(payload)
    if not reports:
        raise SystemExit(f"compare: no ledger report found at {path}")
    return reports


def _values(reports: Iterable[dict[str, Any]], workload: str, metric: str) -> list[float]:
    return [
        report["workloads"][workload]["end_to_end"][metric]
        for report in reports
        if metric in report["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def _verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """``(relative difference of medians, verdict)`` of change ``b`` against ``a``."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    difference = (median_b - median_a) / median_a if median_a else 0.0
    worse_by = -difference if better == "higher" else difference
    worse = worse_by > bound
    if bound and max(spread(a), spread(b)) > bound:
        # Too noisy for the medians alone: only a clean separation of every
        # run of one side from every run of the other settles it.
        above, below = min(b) > max(a), max(b) < min(a)
        if above if better == "higher" else below:
            return difference, "ok"
        if worse and (below if better == "higher" else above):
            return difference, "worse"
        return difference, "unresolved"
    return difference, "worse" if worse else "ok"


def compare(path_a: "str | Path", path_b: "str | Path") -> tuple[list[str], int]:
    """Compare two report sets; returns ``(lines, number of worse verdicts)``.

    Each side is one report or a directory of reports of the same code; the
    medians are compared against the bounds of ``BENCHMARK.json``.  A metric
    whose run-to-run spread (inter-quartile distance over the median) exceeds
    its bound is ``unresolved`` unless every run of B beats every run of A
    (``ok``) or loses to every run of A with the median beyond the bound
    (``worse``).
    Simulated results and exact counters are compared for equality when both
    sides ran the same seed.
    """
    table = metric_table()
    side_a, side_b = load_reports(path_a), load_reports(path_b)
    lines = [
        f"A: {path_a} ({len(side_a)} run(s))   B: {path_b} ({len(side_b)} run(s))",
        f"{'workload':<18}{'metric':<16}{'A':>14}{'B':>14}{'diff':>9}{'bound':>8}"
        f"{'spread A/B':>14}  verdict",
    ]
    worse = 0
    same_seed = {r["manifest"]["seed"] for r in side_a} == {r["manifest"]["seed"] for r in side_b}
    workloads = [w for w in side_a[0]["workloads"] if w in side_b[0]["workloads"]]
    for workload in workloads:
        for metric, entry in table.items():
            if entry["kind"] != "end_to_end" and metric not in SIM_METRICS:
                continue
            a, b = _values(side_a, workload, metric), _values(side_b, workload, metric)
            if not a or not b:
                continue
            exact = metric in SIM_METRICS
            if exact and not same_seed:
                continue
            difference, verdict = _verdict(a, b, entry["better"], 0.0 if exact else entry["bound"])
            worse += verdict == "worse"
            bound = "exact" if exact else f"{entry['bound'] * 100:.0f}%"
            spreads = f"{spread(a) * 100:.1f}%/{spread(b) * 100:.1f}%"
            lines.append(
                f"{workload:<18}{metric:<16}{statistics.median(a):>14.6g}"
                f"{statistics.median(b):>14.6g}{difference * 100:>8.1f}%{bound:>8}"
                f"{spreads:>14}  {verdict}"
            )
        if same_seed:
            first_a, first_b = side_a[0]["workloads"][workload], side_b[0]["workloads"][workload]
            changed = sorted(
                key
                for key in set(first_a["exact"]) | set(first_b["exact"])
                if first_a["exact"].get(key) != first_b["exact"].get(key)
            )
            if first_a["state_sha"] != first_b["state_sha"]:
                changed.append("state fingerprint")
            lines.append(
                f"{workload:<18}exact counters and state fingerprint: "
                + (f"changed ({', '.join(changed)})" if changed else "equal")
            )
    if not same_seed:
        lines.append("seeds differ: simulated results and exact counters not compared")
    return lines, worse


# ------------------------------------------------------------------- history
def append_history(path: Path, report: dict[str, Any]) -> None:
    """Append one line (manifest + end-to-end values) for a full run."""
    entry = {
        "manifest": report["manifest"],
        "end_to_end": {
            name: result["end_to_end"] for name, result in report["workloads"].items()
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
