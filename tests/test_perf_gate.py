"""Tests for the CI perf-regression gate (``benchmarks/check_perf_regression.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_MODULE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "check_perf_regression.py"
_spec = importlib.util.spec_from_file_location("check_perf_regression", _MODULE_PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)


def _report(dftl_rps: float, dftl_rand: float) -> dict:
    return {
        "results": {
            "dftl": {
                "requests_per_second": dftl_rps,
                "randread_requests_per_second": dftl_rand,
            }
        }
    }


class TestCompare:
    def test_identical_reports_pass(self):
        report = _report(1000.0, 5000.0)
        assert perf_gate.compare(report, report, max_slowdown=0.25) == []

    def test_speedup_passes(self):
        assert perf_gate.compare(_report(1000.0, 5000.0), _report(3000.0, 9000.0), max_slowdown=0.25) == []

    def test_slowdown_within_tolerance_passes(self):
        assert perf_gate.compare(_report(1000.0, 5000.0), _report(800.0, 4000.0), max_slowdown=0.25) == []

    def test_slowdown_beyond_tolerance_fails(self):
        failures = perf_gate.compare(_report(1000.0, 5000.0), _report(700.0, 5000.0), max_slowdown=0.25)
        assert len(failures) == 1
        assert "requests_per_second" in failures[0]

    def test_each_metric_gated_independently(self):
        failures = perf_gate.compare(_report(1000.0, 5000.0), _report(700.0, 3000.0), max_slowdown=0.25)
        assert len(failures) == 2

    def test_missing_ftl_in_fresh_report_fails(self):
        failures = perf_gate.compare(_report(1000.0, 5000.0), {"results": {}}, max_slowdown=0.25)
        assert failures and "missing" in failures[0]

    def test_zero_baseline_metric_is_skipped(self):
        baseline = _report(0.0, 0.0)
        assert perf_gate.compare(baseline, _report(1.0, 1.0), max_slowdown=0.25) == []


class TestCalibration:
    """Cross-machine gating: the baseline scales with the machine-speed ratio."""

    def _with_cal(self, report: dict, cal: float) -> dict:
        return {**report, "calibration_iters_per_second": cal}

    def test_slower_machine_scales_the_baseline_down(self):
        # Fresh machine at half speed, metrics at half the baseline: a raw
        # comparison fails, a calibrated one passes.
        baseline = self._with_cal(_report(1000.0, 5000.0), 10_000_000.0)
        fresh = self._with_cal(_report(500.0, 2500.0), 5_000_000.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25, calibrate=True) == []

    def test_faster_machine_never_raises_the_bar(self):
        baseline = self._with_cal(_report(1000.0, 5000.0), 5_000_000.0)
        fresh = self._with_cal(_report(1000.0, 5000.0), 10_000_000.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25, calibrate=True) == []

    def test_code_regression_still_fails_when_calibrated(self):
        # Same machine speed, genuinely slower code: calibration must not mask it.
        baseline = self._with_cal(_report(1000.0, 5000.0), 10_000_000.0)
        fresh = self._with_cal(_report(500.0, 2500.0), 10_000_000.0)
        assert len(perf_gate.compare(baseline, fresh, max_slowdown=0.25, calibrate=True)) == 2

    def test_missing_calibration_falls_back_to_absolute(self):
        baseline = _report(1000.0, 5000.0)
        fresh = self._with_cal(_report(1000.0, 5000.0), 5_000_000.0)
        assert perf_gate.machine_scale(baseline, fresh) == 1.0

    def test_committed_baseline_carries_calibration(self):
        baseline = json.loads(perf_gate.DEFAULT_BASELINE.read_text())
        assert baseline.get("calibration_iters_per_second", 0.0) > 0.0


class TestMergeBest:
    def test_single_report_is_unchanged(self):
        report = _report(1000.0, 5000.0)
        merged = perf_gate.merge_best([report])
        assert merged["results"] == report["results"]

    def test_per_metric_best_across_reports(self):
        # Each run is best at a different metric; the merge takes both peaks,
        # so one noisy run cannot fail the gate by itself.
        merged = perf_gate.merge_best([_report(1000.0, 3000.0), _report(700.0, 5000.0)])
        row = merged["results"]["dftl"]
        assert row["requests_per_second"] == 1000.0
        assert row["randread_requests_per_second"] == 5000.0

    def test_calibration_is_the_maximum_observed(self):
        a = {**_report(1.0, 1.0), "calibration_iters_per_second": 4e6}
        b = {**_report(1.0, 1.0), "calibration_iters_per_second": 6e6}
        assert perf_gate.merge_best([a, b])["calibration_iters_per_second"] == 6e6


class TestMain:
    def _write(self, path: Path, report: dict) -> Path:
        path.write_text(json.dumps(report), encoding="utf-8")
        return path

    def test_exit_zero_on_pass(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", _report(1000.0, 5000.0))
        fresh = self._write(tmp_path / "fresh.json", _report(1000.0, 5000.0))
        assert perf_gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0

    def test_exit_one_on_regression(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", _report(1000.0, 5000.0))
        fresh = self._write(tmp_path / "fresh.json", _report(100.0, 500.0))
        assert perf_gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 1

    def test_multiple_fresh_reports_gate_on_their_best(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", _report(1000.0, 5000.0))
        slow = self._write(tmp_path / "slow.json", _report(100.0, 500.0))
        good = self._write(tmp_path / "good.json", _report(1000.0, 5000.0))
        assert (
            perf_gate.main(["--baseline", str(baseline), "--fresh", str(slow), str(good)]) == 0
        )

    def test_default_baseline_is_the_committed_one(self):
        assert perf_gate.DEFAULT_BASELINE.name == "BENCH_kernel.json"
        assert perf_gate.DEFAULT_BASELINE.exists()


class TestMicroMetrics:
    def _report_with_micro(self, lookup: float, probe: float) -> dict:
        report = _report(1000.0, 5000.0)
        report["micro"] = {
            "lookup_many_lpns_per_second": lookup,
            "probe_many_lpns_per_second": probe,
        }
        return report

    def test_micro_regression_fails(self):
        baseline = self._report_with_micro(1_000_000.0, 1_000_000.0)
        fresh = self._report_with_micro(500_000.0, 1_000_000.0)
        failures = perf_gate.compare(baseline, fresh, max_slowdown=0.25)
        assert any("micro.lookup_many_lpns_per_second" in failure for failure in failures)

    def test_micro_within_slowdown_passes(self):
        baseline = self._report_with_micro(1_000_000.0, 1_000_000.0)
        fresh = self._report_with_micro(900_000.0, 1_100_000.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25) == []

    def test_baseline_without_micro_is_skipped(self):
        baseline = _report(1000.0, 5000.0)
        fresh = self._report_with_micro(1.0, 1.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25) == []

    def test_merge_best_takes_per_metric_micro_peaks(self):
        merged = perf_gate.merge_best(
            [self._report_with_micro(2.0, 1.0), self._report_with_micro(1.0, 3.0)]
        )
        assert merged["micro"] == {
            "lookup_many_lpns_per_second": 2.0,
            "probe_many_lpns_per_second": 3.0,
        }


class TestLowerIsBetterMetrics:
    """Cost metrics (dispatch overhead) gate in the inverted direction."""

    def _report_with_cost(self, dispatch_us: float, cal: float | None = None) -> dict:
        report = _report(1000.0, 5000.0)
        report["micro"] = {"orchestrator_dispatch_overhead_us": dispatch_us}
        if cal is not None:
            report["calibration_iters_per_second"] = cal
        return report

    def test_dispatch_overhead_is_tracked(self):
        assert "orchestrator_dispatch_overhead_us" in perf_gate.TRACKED_MICRO_LOWER_IS_BETTER

    def test_cost_growth_beyond_tolerance_fails(self):
        baseline = self._report_with_cost(400.0)
        fresh = self._report_with_cost(600.0)
        failures = perf_gate.compare(baseline, fresh, max_slowdown=0.25)
        assert any("orchestrator_dispatch_overhead_us" in failure for failure in failures)

    def test_cost_within_tolerance_passes(self):
        baseline = self._report_with_cost(400.0)
        fresh = self._report_with_cost(480.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25) == []

    def test_cheaper_dispatch_never_fails(self):
        baseline = self._report_with_cost(400.0)
        fresh = self._report_with_cost(100.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25) == []

    def test_slower_machine_is_allowed_higher_cost(self):
        # Fresh machine at half speed with double the cost: raw comparison
        # fails, a calibrated one passes (the ceiling scales up).
        baseline = self._report_with_cost(400.0, cal=10_000_000.0)
        fresh = self._report_with_cost(800.0, cal=5_000_000.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25, calibrate=True) == []

    def test_merge_best_takes_the_cheapest_cost(self):
        merged = perf_gate.merge_best(
            [self._report_with_cost(500.0), self._report_with_cost(350.0)]
        )
        assert merged["micro"]["orchestrator_dispatch_overhead_us"] == 350.0

    def test_baseline_without_cost_metric_is_skipped(self):
        baseline = _report(1000.0, 5000.0)
        fresh = self._report_with_cost(1_000_000.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25) == []

    def test_committed_baseline_carries_dispatch_overhead(self):
        baseline = json.loads(perf_gate.DEFAULT_BASELINE.read_text())
        assert baseline["micro"]["orchestrator_dispatch_overhead_us"] > 0.0


class TestSpeedupRatioMetrics:
    """Batched/scalar speedup ratios gate against an absolute 1.0 floor."""

    def _report_with_ratio(self, ratio: float, cal: float | None = None) -> dict:
        report = _report(1000.0, 5000.0)
        report["results"]["dftl"]["batched_vs_scalar_speedup"] = ratio
        if cal is not None:
            report["calibration_iters_per_second"] = cal
        return report

    def test_all_ratio_metrics_are_tracked(self):
        assert perf_gate.TRACKED_RATIO_METRICS == ("batched_vs_scalar_speedup",)

    def test_batched_losing_to_scalar_fails(self):
        baseline = self._report_with_ratio(2.0)
        fresh = self._report_with_ratio(0.65)
        failures = perf_gate.compare(baseline, fresh, max_slowdown=0.25)
        assert any("batched_vs_scalar_speedup" in failure for failure in failures)

    def test_ratio_at_or_above_floor_passes(self):
        baseline = self._report_with_ratio(4.0)
        assert perf_gate.compare(baseline, self._report_with_ratio(1.0), max_slowdown=0.25) == []

    def test_ratio_gates_the_fresh_report_even_without_baseline_ratio(self):
        # The floor is absolute: a baseline predating the metric still gates.
        baseline = _report(1000.0, 5000.0)
        fresh = self._report_with_ratio(0.9)
        failures = perf_gate.compare(baseline, fresh, max_slowdown=0.25)
        assert any("batched_vs_scalar_speedup" in failure for failure in failures)

    def test_ratio_is_never_machine_scaled(self):
        # A slow fresh machine gets no allowance: both sides of the ratio ran
        # on the same machine, so < 1.0 is a code regression regardless.
        baseline = self._report_with_ratio(2.0, cal=10_000_000.0)
        fresh = self._report_with_ratio(0.9, cal=1_000_000.0)
        failures = perf_gate.compare(baseline, fresh, max_slowdown=0.25, calibrate=True)
        assert any("batched_vs_scalar_speedup" in failure for failure in failures)

    def test_merge_best_takes_the_best_ratio(self):
        merged = perf_gate.merge_best(
            [self._report_with_ratio(0.9), self._report_with_ratio(1.4)]
        )
        assert merged["results"]["dftl"]["batched_vs_scalar_speedup"] == 1.4

    def test_committed_baseline_carries_speedups_for_every_ftl(self):
        baseline = json.loads(perf_gate.DEFAULT_BASELINE.read_text())
        for ftl, row in baseline["results"].items():
            assert row["batched_vs_scalar_speedup"] >= 1.0, ftl


class TestReplayGate:
    """The streaming replay rate gates against the baseline like the per-FTL
    rates: higher is better, machine-scaled."""

    def _report_with_replay(self, rps: float, cal: float | None = None) -> dict:
        report = _report(1000.0, 5000.0)
        report["replay"] = {
            "replay_requests_per_second": rps,
            "replay_seconds": 4.0,
            "replay_requests": 200_000.0,
        }
        if cal is not None:
            report["calibration_iters_per_second"] = cal
        return report

    def test_replay_rate_is_tracked(self):
        assert "replay_requests_per_second" in perf_gate.TRACKED_REPLAY_METRICS

    def test_replay_regression_fails(self):
        baseline = self._report_with_replay(50_000.0)
        fresh = self._report_with_replay(30_000.0)
        failures = perf_gate.compare(baseline, fresh, max_slowdown=0.25)
        assert any("replay.replay_requests_per_second" in failure for failure in failures)

    def test_replay_within_slowdown_passes(self):
        baseline = self._report_with_replay(50_000.0)
        fresh = self._report_with_replay(45_000.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25) == []

    def test_baseline_without_replay_section_is_skipped(self):
        baseline = _report(1000.0, 5000.0)
        fresh = self._report_with_replay(1.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25) == []

    def test_replay_rate_is_machine_scaled(self):
        # Fresh machine at half speed replaying at half the rate: raw fails,
        # calibrated passes.
        baseline = self._report_with_replay(50_000.0, cal=10_000_000.0)
        fresh = self._report_with_replay(25_000.0, cal=5_000_000.0)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25)
        assert perf_gate.compare(baseline, fresh, max_slowdown=0.25, calibrate=True) == []

    def test_merge_best_takes_the_best_replay_rate(self):
        merged = perf_gate.merge_best(
            [self._report_with_replay(40_000.0), self._report_with_replay(55_000.0)]
        )
        assert merged["replay"]["replay_requests_per_second"] == 55_000.0

    def test_committed_baseline_carries_replay_section(self):
        baseline = json.loads(perf_gate.DEFAULT_BASELINE.read_text())
        assert baseline["replay"]["replay_requests_per_second"] > 0.0


class TestObsGate:
    """The ``obs`` section is tracked best-of across reports but gates nothing:
    observed and unobserved runs share one request step."""

    def _report_with_obs(self, disabled_rate: float) -> dict:
        report = _report(1000.0, 5000.0)
        report["obs"] = {
            "obs_disabled_requests_per_second": disabled_rate,
            "obs_enabled_requests_per_second": 4000.0,
            "obs_enabled_vs_disabled_ratio": 4000.0 / disabled_rate,
        }
        return report

    def test_obs_rates_are_tracked_not_gated(self):
        baseline = self._report_with_obs(5000.0)
        assert perf_gate.compare(baseline, self._report_with_obs(500.0), max_slowdown=0.25) == []

    def test_report_without_obs_section_is_skipped(self):
        baseline = self._report_with_obs(5000.0)
        assert perf_gate.compare(baseline, _report(1000.0, 5000.0), max_slowdown=0.25) == []

    def test_merge_best_takes_the_best_obs_metrics(self):
        merged = perf_gate.merge_best(
            [self._report_with_obs(4750.0), self._report_with_obs(5100.0)]
        )
        assert merged["obs"]["obs_disabled_requests_per_second"] == 5100.0
        assert merged["obs"]["obs_enabled_vs_disabled_ratio"] == 4000.0 / 4750.0

    def test_committed_baseline_carries_obs_section(self):
        baseline = json.loads(perf_gate.DEFAULT_BASELINE.read_text())
        assert set(baseline["obs"]) == set(perf_gate.TRACKED_OBS_METRICS)
        assert baseline["obs"]["obs_enabled_requests_per_second"] > 0.0
