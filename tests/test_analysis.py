"""Tests for the analysis helpers (latency, reporting, compute measurement)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.compute import measure_compute_costs
from repro.analysis.latency import normalize, speedup, tail_latency_row
from repro.analysis.report import bar_chart, format_kv, format_table, rows_to_csv
from repro.ssd.stats import SimulationStats


class TestNormalizeAndSpeedup:
    def test_normalize_baseline_is_one(self):
        values = {"a": 10.0, "b": 20.0}
        normalized = normalize(values, "a")
        assert normalized["a"] == 1.0
        assert normalized["b"] == 2.0

    def test_normalize_missing_baseline(self):
        with pytest.raises(KeyError):
            normalize({"a": 1.0}, "z")

    def test_normalize_zero_baseline_stays_visible(self):
        # A broken (all-zero) baseline must not flatten every FTL to 0.0: the
        # baseline stays 1.0 and the others become inf/nan so the degenerate
        # measurement is obvious in the rendered tables.
        result = normalize({"a": 0.0, "b": 5.0, "c": 0.0}, "a")
        assert result["a"] == 1.0
        assert result["b"] == math.inf
        assert math.isnan(result["c"])

    def test_speedup_lower_is_better(self):
        result = speedup({"base": 100.0, "fast": 20.0}, "base", lower_is_better=True)
        assert result["fast"] == pytest.approx(5.0)
        assert result["base"] == pytest.approx(1.0)

    def test_speedup_higher_is_better(self):
        result = speedup({"base": 100.0, "fast": 200.0}, "base", lower_is_better=False)
        assert result["fast"] == pytest.approx(2.0)


class TestTailLatencyRow:
    def test_extracts_read_percentiles(self):
        stats = SimulationStats()
        for value in range(1, 1001):
            stats.record_latency(True, float(value))
        row = tail_latency_row("learnedftl", "websearch1", stats)
        assert row.ftl == "learnedftl"
        assert row.p99_ms == pytest.approx(0.99, abs=0.02)
        assert row.p999_ms >= row.p99_ms
        assert set(row.as_dict()) == {"ftl", "workload", "p99_ms", "p999_ms", "mean_ms"}


class TestReportRendering:
    ROWS = [
        {"ftl": "tpftl", "mb_s": 101.5, "hit": 0.03},
        {"ftl": "learnedftl", "mb_s": 250.0, "hit": 0.9},
    ]

    def test_format_table_contains_all_cells(self):
        text = format_table(self.ROWS, title="demo")
        assert "demo" in text
        assert "learnedftl" in text and "tpftl" in text
        assert "250" in text

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], title="x")

    def test_rows_to_csv_round_trip(self):
        text = rows_to_csv(self.ROWS)
        lines = text.strip().splitlines()
        assert lines[0] == "ftl,mb_s,hit"
        assert len(lines) == 3
        assert rows_to_csv([]) == ""

    def test_format_kv(self):
        text = format_kv({"alpha": 1, "beta": 2.5}, title="pairs")
        assert "alpha" in text and "2.5" in text

    def test_bar_chart_scales_to_peak(self):
        text = bar_chart({"a": 1.0, "b": 2.0}, width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10  # the peak gets the full width
        assert 0 < lines[0].count("#") <= 5

    def test_bar_chart_empty(self):
        assert "(no data)" in bar_chart({})


class TestComputeMeasurement:
    def test_measures_all_three_operations(self):
        costs = measure_compute_costs(repeats=5)
        assert costs.sort_us > 0
        assert costs.train_us > 0
        assert costs.predict_us > 0

    def test_reports_calibrated_constants(self):
        costs = measure_compute_costs(repeats=2)
        assert costs.calibrated_predict_us == pytest.approx(0.65)
        assert costs.calibrated_sort_us + costs.calibrated_train_us == pytest.approx(50.0)

    def test_rows_shape_matches_figure_15(self):
        rows = measure_compute_costs(repeats=2).rows()
        assert [row["operation"] for row in rows] == ["sorting", "training", "prediction"]
        assert all("measured_us" in row and "simulated_us" in row for row in rows)
