"""Self-tests of the ledger benchmark (collected by the tier-1 command).

One ``--smoke --traced`` run of the whole suite (every size / 50, about ten
seconds) feeds the report-shaped assertions; the rest are unit tests of the
pieces that decide verdicts: ``compare``, the integrity check, absent seams.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ledger_trace
import run as ledger_run
from ledger_check import mapping_failures
from ledger_clock import SliceClock, spread
from ledger_report import SIM_METRICS, compare, metric_table
from ledger_workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_meets_the_contract_grammar():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"][-1] == "benchmarks/ledger/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
        names.append(entry["name"])
    assert len(names) == len(set(names)), "a name is used twice"
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_per_layer_list_covers_every_layer_and_seam():
    per_layer = {entry["name"] for entry in SPEC["per_layer"]}
    assert {f"prof.{layer}.pct" for layer in ledger_trace.LAYERS} <= per_layer
    for seam in ledger_trace.SEAMS:
        assert {f"{seam}.calls", f"{seam}.ms", f"{seam}.self_ms"} <= per_layer
    assert set(SIM_METRICS) <= per_layer


# ------------------------------------------------------- the smoke suite run
@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger-smoke")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--traced", "--out", str(out)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout
    return out, json.loads((out / "report.json").read_text(encoding="utf-8")), done.stdout


def test_smoke_emits_exactly_the_declared_metrics(smoke):
    _, report, stdout = smoke
    table = metric_table()
    end_to_end = {n for n, e in table.items() if e["kind"] == "end_to_end"}
    per_layer = {n for n, e in table.items() if e["kind"] == "per_layer"}
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, result in report["workloads"].items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert set(result["end_to_end"]) == end_to_end | set(SIM_METRICS)
        assert all(result["end_to_end"][metric] > 0 for metric in end_to_end), name
        traced = result["traced"]
        assert traced["correct"], traced["failures"]
        assert set(traced["per_layer"]) == per_layer
        assert traced["absent"] == []
    # every metric is printed by name with its unit
    for metric, entry in table.items():
        assert re.search(rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(entry['unit'])}", stdout, re.M)
    manifest = report["manifest"]
    assert {"python", "numpy", "nproc", "probe_iters_per_s", "source_fingerprint", "seed", "sizes"} <= set(manifest)


def test_profile_shares_sum_to_100(smoke):
    _, report, _ = smoke
    for name, result in report["workloads"].items():
        shares = [v for k, v in result["traced"]["per_layer"].items() if k.startswith("prof.")]
        assert sum(shares) == pytest.approx(100.0), name


def test_traced_run_reproduces_the_untraced_simulation(smoke):
    _, report, _ = smoke
    for name, result in report["workloads"].items():
        traced = result["traced"]
        assert traced["state_sha"] == result["state_sha"], name
        assert traced["exact"] == result["exact"], name
        for metric in SIM_METRICS:
            assert traced["per_layer"][metric] == result["end_to_end"][metric], (name, metric)


def test_spans_land_where_the_workloads_put_them(smoke):
    out, report, _ = smoke
    layers = {name: result["traced"]["per_layer"] for name, result in report["workloads"].items()}
    assert layers["randread_batched"]["core.plan.batched_pct"] > 50
    assert layers["overwrite_gc"]["core.gc.count"] > 0
    assert layers["trace_replay"]["snapshot.io.calls"] > 0
    assert layers["trace_replay"]["replay.checkpoints"] == layers["trace_replay"]["replay.session.calls"]
    assert layers["hotspot_observed"]["obs.record.calls"] > 0
    assert layers["figs_tiny"]["experiments.task.calls"] == layers["figs_tiny"]["experiments.tasks"]
    for name in ("randread_batched", "overwrite_gc", "trace_replay", "figs_tiny"):
        assert layers[name]["obs.record.calls"] == 0, name
    trace = json.loads((out / "hotspot_observed.trace.json").read_text(encoding="utf-8"))
    assert {"name", "ph", "ts", "dur", "args"} <= set(trace["traceEvents"][0])


def test_contract_line_of_a_single_workload_run(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "overwrite_gc", "--seed", "3"]
        + ["--seconds", "1", "--trace", "0", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0
    last = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {entry["name"] for entry in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        assert last["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "figs_tiny", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


# ------------------------------------------------------------------ tracing
def test_absent_seams_are_reported_not_raised(monkeypatch):
    monkeypatch.setitem(
        ledger_trace.SEAMS,
        "gone.seam",
        ("repro.no_such_module:f", "repro.ssd.device:NoSuchClass.run", "repro.ssd.device:SSD.no_such"),
    )
    tracer = ledger_trace.Tracer(SliceClock(), ROOT / "src" / "repro", seams=("gone.seam", "core.encode"))
    tracer.install()
    try:
        assert tracer.absent == ["gone.seam"]
    finally:
        tracer.uninstall()
    assert tracer.cut("timed")["gone.seam"] == {"calls": 0, "ms": 0.0, "self_ms": 0.0}


def test_wrappers_time_spans_with_self_time_and_restore_on_uninstall():
    from repro import SSD, SSDGeometry
    from repro.core.base import FTLBase
    from repro.ssd.request import RequestBatch

    original = FTLBase.__dict__["encode"]
    clock = SliceClock(probe_iterations=1_000)
    tracer = ledger_trace.Tracer(clock, ROOT / "src" / "repro", seams=("ssd.device.loop", "core.encode"))
    tracer.install()
    try:
        ssd = SSD.create("dftl", SSDGeometry.small())
        ssd.fill_sequential(io_pages=32)  # outside a measured phase: not recorded
        clock.start()
        ssd.run(RequestBatch.reads(range(100)), threads=2)
        clock.stop(100, 100)
    finally:
        tracer.uninstall()
    spans = tracer.cut("timed")
    assert spans["ssd.device.loop"]["calls"] == 1 and spans["core.encode"]["calls"] == 100
    loop = spans["ssd.device.loop"]
    assert loop["self_ms"] == pytest.approx(loop["ms"] - spans["core.encode"]["ms"])
    assert 0 < loop["self_ms"] < loop["ms"]
    assert FTLBase.__dict__["encode"] is original


def test_layer_of_folds_modules_into_the_declared_layers():
    assert ledger_trace.layer_of("core/batch.py") == "core.batch"
    assert ledger_trace.layer_of("core/learned/plr.py") == "core.learned"
    assert ledger_trace.layer_of("core/tpftl.py") == "core.ftl"
    assert ledger_trace.layer_of("ssd/energy.py") == "other"
    assert ledger_trace.layer_of("workloads/zipf.py") == "workloads"
    assert ledger_trace.layer_of("studies/cell.py") == "other"


# ------------------------------------------------------------------ compare
def _report(tmp_path, label, seed=1, **end_to_end):
    values = {"setup_s": 2.0, "host_ops_per_s": 1000.0, "peak_rss_mb": 100.0}
    values.update({"sim_iops": 5000.0, "sim_p99_us": 200.0})
    values.update(end_to_end)
    path = tmp_path / label
    path.parent.mkdir(parents=True, exist_ok=True)
    report = {
        "manifest": {"seed": seed},
        "workloads": {"w": {"end_to_end": values, "exact": {"core.waf": 2.0}, "state_sha": "s"}},
    }
    path.write_text(json.dumps(report), encoding="utf-8")
    return path


def _verdicts(lines):
    return {line.split()[1]: line.split()[-1] for line in lines if line.startswith("w ")}


def test_compare_verdicts_on_synthetic_reports(tmp_path):
    bound = metric_table()["host_ops_per_s"]["bound"]
    base = _report(tmp_path, "a.json")
    lines, worse = compare(base, _report(tmp_path, "same.json"))
    assert worse == 0 and set(_verdicts(lines).values()) <= {"ok", "equal"}

    slower = _report(tmp_path, "slow.json", host_ops_per_s=1000.0 * (1 - bound - 0.02))
    lines, worse = compare(base, slower)
    assert worse == 1 and _verdicts(lines)["host_ops_per_s"] == "worse"
    assert ledger_run.main(["compare", str(base), str(slower)]) == 1

    within = _report(tmp_path, "within.json", host_ops_per_s=1000.0 * (1 - bound + 0.02))
    assert compare(base, within)[1] == 0
    faster = _report(tmp_path, "fast.json", host_ops_per_s=2000.0, peak_rss_mb=50.0)
    assert compare(base, faster)[1] == 0

    # simulated results are exact: any worsening counts, a change is reported
    drifted = _report(tmp_path, "drift.json", sim_iops=4999.0)
    lines, worse = compare(base, drifted)
    assert worse == 1 and _verdicts(lines)["sim_iops"] == "worse"
    other_seed = _report(tmp_path, "seed.json", seed=2, sim_iops=4000.0)
    lines, worse = compare(base, other_seed)
    assert worse == 0 and "sim_iops" not in _verdicts(lines)


def test_compare_reports_a_noisy_metric_as_unresolved(tmp_path):
    for i, rate in enumerate((700.0, 900.0, 1000.0, 1100.0, 1400.0)):
        _report(tmp_path, f"a/{i}.json", host_ops_per_s=rate)
        _report(tmp_path, f"b/{i}.json", host_ops_per_s=rate * 0.8)
        _report(tmp_path, f"c/{i}.json", host_ops_per_s=rate * 3)
        _report(tmp_path, f"d/{i}.json", host_ops_per_s=rate / 3)
    lines, worse = compare(tmp_path / "a", tmp_path / "b")
    assert worse == 0 and _verdicts(lines)["host_ops_per_s"] == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert _verdicts(compare(tmp_path / "a", tmp_path / "c")[0])["host_ops_per_s"] == "ok"
    lines, worse = compare(tmp_path / "a", tmp_path / "d")
    assert worse == 1 and _verdicts(lines)["host_ops_per_s"] == "worse"


def test_spread_is_the_interquartile_distance_over_the_median():
    assert spread([10.0]) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


# --------------------------------------------------------- integrity check
def test_integrity_check_accepts_a_sound_device_and_rejects_corruption():
    import numpy as np

    from repro import SSD, SSDGeometry
    from repro.ssd.request import RequestBatch

    ssd = SSD.create("learnedftl", SSDGeometry.small())
    ssd.fill_sequential(io_pages=32)
    rng = np.random.default_rng(5)
    ssd.run(RequestBatch.writes(rng.integers(0, ssd.geometry.num_logical_pages, size=3000)), threads=2)
    assert ssd.stats.gc_count > 0
    assert mapping_failures(ssd.state_dict()) == []

    def corrupted(edit):
        state = ssd.state_dict()
        edit(state["ftl"]["directory"]["ppn"], state["ftl"]["flash"])
        return mapping_failures(state)

    def swap_two_mappings(ppn, flash):
        ppn[[10, 11]] = ppn[[11, 10]]

    def invalidate_a_mapped_page(ppn, flash):
        flash["page_state"] = flash["page_state"].copy()
        flash["page_state"][ppn[20]] = 2

    def drop_a_mapping(ppn, flash):
        ppn[30] = -1

    assert any("another LPN" in failure for failure in corrupted(swap_two_mappings))
    assert any("non-valid" in failure for failure in corrupted(invalidate_a_mapped_page))
    assert any("not exactly" in failure for failure in corrupted(drop_a_mapping))
