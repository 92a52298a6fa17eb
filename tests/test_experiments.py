"""Tests for the experiment harness (registry, runner, CLI and fast experiments)."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, INTERNAL_EXPERIMENTS, run_experiment
from repro.experiments.__main__ import main as cli_main
from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.experiments.table02_traces import PAPER_TABLE_II


class TestRegistry:
    def test_every_paper_figure_and_table_has_a_harness(self):
        expected = {
            "fig02", "fig03", "fig06", "fig07", "fig14", "fig15", "fig16", "fig17",
            "fig18", "fig19", "fig20", "fig21", "fig22", "table02",
        }
        assert expected == set(EXPERIMENTS) - INTERNAL_EXPERIMENTS
        # The study-cell execution unit is registered but internal (the
        # 'study' CLI verb generates its kwargs).
        assert INTERNAL_EXPERIMENTS == {"studycell", "noop"}
        assert INTERNAL_EXPERIMENTS <= set(EXPERIMENTS)

    def test_every_entry_has_description(self):
        for name, (runner, description) in EXPERIMENTS.items():
            assert callable(runner)
            assert description

    def test_run_experiment_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestScale:
    def test_parse_accepts_strings_and_enums(self):
        assert Scale.parse("tiny") is Scale.TINY
        assert Scale.parse(Scale.FULL) is Scale.FULL
        with pytest.raises(ValueError):
            Scale.parse("huge")

    def test_specs_grow_with_scale(self):
        tiny = ScaleSpec.for_scale(Scale.TINY)
        default = ScaleSpec.for_scale(Scale.DEFAULT)
        full = ScaleSpec.for_scale(Scale.FULL)
        assert (
            tiny.geometry.num_physical_pages
            < default.geometry.num_physical_pages
            < full.geometry.num_physical_pages
        )
        assert tiny.read_requests < default.read_requests < full.read_requests

    def test_full_scale_uses_paper_geometry(self):
        assert ScaleSpec.for_scale(Scale.FULL).geometry.num_chips == 64


class TestPrepareSSD:
    def test_warmup_none_leaves_device_empty(self):
        spec = ScaleSpec.for_scale(Scale.TINY)
        ssd = prepare_ssd("dftl", spec, warmup="none")
        assert len(ssd.ftl.directory) == 0

    def test_warmup_fill_maps_whole_device(self):
        spec = ScaleSpec.for_scale(Scale.TINY)
        ssd = prepare_ssd("dftl", spec, warmup="fill")
        assert len(ssd.ftl.directory) == spec.geometry.num_logical_pages
        assert ssd.stats.host_write_pages == 0  # stats were reset

    def test_warmup_rejects_unknown_mode(self):
        spec = ScaleSpec.for_scale(Scale.TINY)
        with pytest.raises(ValueError):
            prepare_ssd("dftl", spec, warmup="hot")


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            name="demo",
            description="demo experiment",
            rows=[{"ftl": "a", "value": 1.0}, {"ftl": "b", "value": 2.0}],
            notes=["shape note"],
            extra_tables={"extra": [{"x": 1}]},
        )

    def test_table_and_render(self):
        result = self._result()
        assert "demo" in result.table()
        rendered = result.render()
        assert "extra" in rendered
        assert "shape note" in rendered

    def test_csv(self):
        assert self._result().csv().splitlines()[0] == "ftl,value"


class TestFastExperiments:
    """Run the cheap experiments end-to-end at tiny scale."""

    def test_fig15_compute(self):
        result = run_experiment("fig15", scale="tiny", repeats=3)
        operations = [row["operation"] for row in result.rows]
        assert operations == ["sorting", "training", "prediction"]

    def test_table02_matches_paper_targets(self):
        result = run_experiment("table02", scale="tiny", num_ios=2_000)
        assert len(result.rows) == 4
        for row in result.rows:
            target = PAPER_TABLE_II[row["trace"]]
            assert row["avg_io_kb"] == pytest.approx(target["avg_io_kb"], rel=0.15)
            assert row["read_ratio"] == pytest.approx(target["read_ratio"], abs=0.05)

    def test_fig06_shape(self):
        result = run_experiment("fig06", scale="tiny")
        by_ftl = {row["ftl"]: row for row in result.rows}
        assert by_ftl["leaftl"]["normalized_throughput"] <= 1.1
        assert by_ftl["tpftl"]["double_fraction"] > 0.5


class TestCLI:
    def test_list_option(self, capsys):
        assert cli_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig14" in output and "table02" in output

    def test_unknown_experiment_returns_error(self, capsys):
        assert cli_main(["figXX"]) == 2

    def test_runs_named_experiment_and_writes_csv(self, tmp_path, capsys):
        assert cli_main(["fig15", "--scale", "tiny", "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig15.csv").exists()
        assert "sorting" in capsys.readouterr().out
