"""Tests for the experiment CLI and the parallel orchestrator.

The heavyweight orchestration behaviours (parallel ``all``, failure handling,
cache hit/miss) are exercised against tiny fake experiments registered into
:data:`repro.experiments.EXPERIMENTS`; worker processes inherit the patched
registry through fork.  Shard-merge fidelity is additionally checked against a
real experiment at tiny scale.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from pathlib import Path

import pytest

#: The fake-registry parallel tests rely on worker processes inheriting the
#: monkeypatched EXPERIMENTS dict, which only fork provides.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patched experiment registry reaches workers only with fork start method",
)

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import orchestrator
from repro.experiments.__main__ import main as cli_main
from repro.experiments.orchestrator import (
    SCHEMA_VERSION,
    ExperimentTask,
    ResultCache,
    merge_results,
    plan_tasks,
    run_orchestrated,
)
from repro.experiments.runner import ExperimentResult

#: Call log for the counting fake (meaningful only for in-process jobs=1 runs).
_FAKE_CALLS: list[str] = []


def _fake_alpha(scale="tiny", **kwargs):
    _FAKE_CALLS.append("alpha")
    return ExperimentResult(
        name="fakealpha",
        description="fake experiment alpha",
        rows=[{"ftl": "dftl", "value": 1.0}, {"ftl": "ideal", "value": 2.0}],
        notes=["alpha note"],
    )


def _fake_beta(scale="tiny", *, offset: int = 0, **kwargs):
    return ExperimentResult(
        name="fakebeta",
        description="fake experiment beta",
        rows=[{"ftl": "dftl", "value": 10.0 + offset}],
    )


def _fake_boom(scale="tiny", **kwargs):
    raise RuntimeError("intentional fake failure")


def _fake_gamma(scale="tiny", **kwargs):
    return ExperimentResult(
        name="fakegamma",
        description="fake experiment with raw metrics",
        rows=[{"ftl": "dftl", "value": 1.5}],
        raw={"metric": {"dftl": 1.5}},
    )


@pytest.fixture
def fake_registry(monkeypatch):
    """Register the fake experiments (removed again on teardown)."""
    monkeypatch.setitem(EXPERIMENTS, "fakealpha", (_fake_alpha, "fake experiment alpha"))
    monkeypatch.setitem(EXPERIMENTS, "fakebeta", (_fake_beta, "fake experiment beta"))
    monkeypatch.setitem(EXPERIMENTS, "fakeboom", (_fake_boom, "always fails"))
    monkeypatch.setitem(EXPERIMENTS, "fakegamma", (_fake_gamma, "fake with raw"))
    _FAKE_CALLS.clear()
    yield


class TestCLIBasics:
    def test_list_option(self, capsys):
        assert cli_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig14" in output and "table02" in output

    def test_list_pins_registered_set_and_study_verb(self, capsys):
        # The listing is the CLI's contract: every registered experiment
        # appears, and the study verb is advertised with its docs pointer.
        # This pin keeps help/docs from drifting from the registry.
        assert cli_main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = {line.split()[0] for line in lines if line.strip()}
        assert set(EXPERIMENTS) <= listed
        assert "studycell" in listed
        study_lines = [line for line in lines if line.startswith("study <spec>...")]
        assert len(study_lines) == 1
        assert "docs/studies.md" in study_lines[0]
        replay_lines = [line for line in lines if line.startswith("replay <trace>")]
        assert len(replay_lines) == 1
        assert "docs/replay.md" in replay_lines[0]

    def test_all_excludes_internal_experiments(self, capsys):
        # 'all' must not try to run the study-cell execution unit (it needs
        # planner-generated kwargs); the dry-run plan is the cheap witness.
        assert cli_main(["all", "--scale", "tiny", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "studycell" not in out
        assert "fig14[dftl]" in out

    def test_no_arguments_lists_experiments(self, capsys):
        assert cli_main([]) == 0
        assert "fig21" in capsys.readouterr().out

    def test_unknown_experiment_returns_error(self, capsys):
        assert cli_main(["figXX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_rejects_negative_jobs(self, capsys):
        # --jobs 0 means auto-detect (see test_execution.py); only negatives
        # are rejected.
        assert cli_main(["fig15", "--jobs", "-1"]) == 2
        assert "auto-detect" in capsys.readouterr().err

    def test_file_queue_backend_requires_queue_dir(self, capsys):
        assert cli_main(["fig15", "--backend", "file-queue"]) == 2
        assert "--queue-dir" in capsys.readouterr().err

    def test_runs_named_experiment_and_writes_csv(self, tmp_path, capsys):
        assert cli_main(["fig15", "--scale", "tiny", "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig15.csv").exists()
        assert "sorting" in capsys.readouterr().out

    def test_json_artifact_contents(self, tmp_path, capsys):
        json_dir = tmp_path / "json"
        assert cli_main(["fig15", "--scale", "tiny", "--json-dir", str(json_dir)]) == 0
        payload = json.loads((json_dir / "fig15.json").read_text())
        assert payload["schema_version"] == SCHEMA_VERSION == 3
        assert payload["experiment"] == "fig15"
        assert payload["scale"] == "tiny"
        assert payload["elapsed_s"] >= 0.0
        assert [row["operation"] for row in payload["rows"]] == [
            "sorting", "training", "prediction",
        ]
        assert payload["notes"]
        # Schema v2 carries the machine-readable raw section in the artifact.
        assert "raw" in payload

    def test_artifact_preserves_raw_metrics(self, tmp_path, capsys, fake_registry):
        json_dir = tmp_path / "json"
        assert cli_main(["fakegamma", "--scale", "tiny", "--json-dir", str(json_dir)]) == 0
        payload = json.loads((json_dir / "fakegamma.json").read_text())
        assert payload["raw"] == {"metric": {"dftl": 1.5}}

    def test_fig14_raw_exposes_device_stats(self):
        # The headline performance experiment reports iops / read_p999_us /
        # chip utilization per (ftl, pattern) in its raw section, which the
        # v2 artifacts serialize verbatim (one cheap cell keeps this fast).
        result = run_experiment("fig14", scale="tiny", ftls=("ideal",), patterns=("randread",))
        metrics = result.raw["device_stats"]["ideal"]["randread"]
        assert set(metrics) == {"iops", "read_p999_us", "utilization"}
        assert metrics["iops"] > 0.0
        assert metrics["read_p999_us"] > 0.0
        assert 0.0 < metrics["utilization"] <= 1.0

    def test_csv_artifact_matches_result_rows(self, tmp_path, capsys, fake_registry):
        assert cli_main(["fakealpha", "--scale", "tiny", "--csv-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "fakealpha.csv").read_text().strip().splitlines()
        assert lines[0] == "ftl,value"
        assert len(lines) == 3


class TestOrchestratorPlanning:
    def test_single_task_experiments(self):
        for name in ("fig02", "fig15", "table02"):
            tasks = plan_tasks(name)
            assert [task.label for task in tasks] == [name]

    def test_multi_ftl_experiments_shard_per_ftl(self):
        assert len(plan_tasks("fig14")) == 5
        assert len(plan_tasks("fig19")) == 5
        assert {task.experiment for task in plan_tasks("fig14")} == {"fig14"}

    def test_trace_experiments_shard_per_cell(self):
        assert len(plan_tasks("fig21")) == 16
        assert len(plan_tasks("fig22")) == 16
        assert len(plan_tasks("fig20")) == 15

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            plan_tasks("fig99")

    def test_task_cache_key_depends_on_inputs(self):
        task = ExperimentTask.create("fig21", ftls=("tpftl",))
        other = ExperimentTask.create("fig21", ftls=("leaftl",))
        assert task.cache_key("tiny") != other.cache_key("tiny")
        assert task.cache_key("tiny") != task.cache_key("default")
        assert task.cache_key("tiny") == ExperimentTask.create("fig21", ftls=["tpftl"]).cache_key("tiny")

    def test_cache_key_folds_observability_descriptor(self):
        task = ExperimentTask.create("fig21", ftls=("tpftl",))
        plain = task.cache_key("tiny")
        # No descriptor leaves the pre-observability key unchanged.
        assert plain == task.cache_key("tiny", None)
        windowed = task.cache_key("tiny", {"metrics_window_us": 50_000.0, "trace": False})
        traced = task.cache_key("tiny", {"metrics_window_us": 50_000.0, "trace": True})
        assert plain != windowed != traced
        assert windowed == task.cache_key(
            "tiny", {"metrics_window_us": 50_000.0, "trace": False}
        )


class TestShardMergeFidelity:
    """Planned shards must merge into exactly the rows of one whole run,
    including the cross-FTL normalized columns the harness's finish step
    rebuilds from raw metrics, and in the whole run's row order."""

    def _assert_split_matches_unsplit(self, name: str, shard_axes: dict, **extra):
        # The planner's own shards, restricted to a cheap subset of each axis.
        tasks = [
            ExperimentTask.create(name, label=task.label, **task.run_kwargs(), **extra)
            for task in plan_tasks(name)
            if all(task.run_kwargs()[axis][0] in values for axis, values in shard_axes.items())
        ]
        assert len(tasks) == math.prod(len(values) for values in shard_axes.values())
        shards = [run_experiment(name, scale="tiny", **task.run_kwargs()) for task in tasks]
        merged = merge_results(name, tasks, shards)
        direct = run_experiment(name, scale="tiny", **shard_axes, **extra)
        assert merged.rows == direct.rows
        assert merged.extra_tables == direct.extra_tables
        assert merged.notes == direct.notes

    def test_fig22_shards_merge_to_unsplit_rows(self):
        self._assert_split_matches_unsplit(
            "fig22", {"traces": ("websearch1",), "ftls": ("tpftl", "learnedftl")}
        )

    def test_fig19_shards_merge_to_unsplit_rows(self):
        self._assert_split_matches_unsplit("fig19", {"ftls": ("dftl", "learnedftl")})

    def test_fig20_shards_merge_to_unsplit_rows(self):
        self._assert_split_matches_unsplit(
            "fig20", {"workloads": ("varmail",), "ftls": ("dftl", "leaftl")}
        )

    def test_fig21_shards_merge_to_unsplit_rows(self):
        # Two traces: the merged rows keep the whole run's trace-major order
        # with no re-sort, because the shards are planned trace-major.
        self._assert_split_matches_unsplit(
            "fig21",
            {"traces": ("websearch1", "systor17"), "ftls": ("tpftl", "learnedftl")},
        )

    def test_fig14_shards_merge_to_unsplit_rows(self):
        self._assert_split_matches_unsplit(
            "fig14", {"ftls": ("dftl", "ideal")}, patterns=("randread", "randwrite")
        )


class TestCache:
    def test_cache_hit_skips_execution(self, tmp_path, fake_registry):
        cache_dir = tmp_path / "cache"
        first = run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        assert first[0].ok and first[0].cached_tasks == 0
        assert _FAKE_CALLS == ["alpha"]
        second = run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        assert second[0].ok and second[0].cached_tasks == 1
        assert _FAKE_CALLS == ["alpha"]  # not executed again
        assert second[0].result.rows == first[0].result.rows
        assert second[0].result.notes == first[0].result.notes

    def test_scale_change_misses_cache(self, tmp_path, fake_registry):
        cache_dir = tmp_path / "cache"
        run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        run_orchestrated(["fakealpha"], scale="default", jobs=1, cache_dir=cache_dir)
        assert _FAKE_CALLS == ["alpha", "alpha"]

    def test_version_change_misses_cache(self, tmp_path, fake_registry, monkeypatch):
        cache_dir = tmp_path / "cache"
        run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        monkeypatch.setattr(orchestrator, "__version__", "0.0.0-test")
        run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        assert _FAKE_CALLS == ["alpha", "alpha"]

    def test_source_change_misses_cache(self, tmp_path, fake_registry, monkeypatch):
        # Editing any repro source file shifts the source fingerprint baked
        # into the cache key, so stale results are never served.
        cache_dir = tmp_path / "cache"
        run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        monkeypatch.setattr(orchestrator, "_SOURCE_FINGERPRINT", "simulated-source-edit")
        run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        assert _FAKE_CALLS == ["alpha", "alpha"]

    def test_corrupt_cache_entry_is_ignored(self, tmp_path, fake_registry):
        cache_dir = tmp_path / "cache"
        run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        for path in cache_dir.glob("*.json"):
            path.write_text("{not json")
        outcomes = run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        assert outcomes[0].ok and outcomes[0].cached_tasks == 0
        assert _FAKE_CALLS == ["alpha", "alpha"]

    @pytest.mark.parametrize(
        "entry",
        [
            [],
            "x",
            None,
            {"result": "oops"},
            {"result": {"name": "fakealpha", "description": "d", "rows": 5}},
            {"elapsed_s": "abc"},
        ],
        ids=["list", "string", "null", "result-string", "rows-int", "elapsed-string"],
    )
    def test_ill_typed_cache_entry_misses(self, tmp_path, fake_registry, entry):
        cache_dir = tmp_path / "cache"
        run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        (path,) = cache_dir.glob("*.json")
        if isinstance(entry, dict):
            # Keep the stored key so only the ill-typed field differs.
            entry = {**json.loads(path.read_text()), **entry}
        path.write_text(json.dumps(entry))
        assert ResultCache(cache_dir).load(ExperimentTask.create("fakealpha"), "tiny") is None
        outcomes = run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        assert outcomes[0].ok and outcomes[0].cached_tasks == 0
        assert _FAKE_CALLS == ["alpha", "alpha"]

    def test_cache_roundtrip_preserves_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = ExperimentTask.create("fakealpha")
        result = ExperimentResult(
            name="fakealpha",
            description="demo",
            rows=[{"a": 1}],
            notes=["n"],
            extra_tables={"t": [{"b": 2}]},
            raw={"metric": {"dftl": 1.5}},
        )
        cache.store(task, "tiny", result, 1.25)
        loaded, elapsed = cache.load(task, "tiny")
        assert loaded.to_dict() == result.to_dict()
        assert elapsed == 1.25

    def test_cli_cached_rerun_reports_cache(self, tmp_path, capsys, fake_registry):
        cache_dir = tmp_path / "cache"
        assert cli_main(["fakealpha", "--scale", "tiny", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert cli_main(["fakealpha", "--scale", "tiny", "--cache-dir", str(cache_dir)]) == 0
        captured = capsys.readouterr()
        assert "from cache" in captured.out
        assert "fakealpha" in captured.out


class TestObservabilityFlags:
    def test_metrics_and_trace_end_to_end(self, tmp_path, capsys):
        json_dir, trace_dir = tmp_path / "json", tmp_path / "traces"
        code = cli_main(
            ["fig06", "--scale", "tiny", "--metrics-window-us", "50000",
             "--trace-out", str(trace_dir), "--json-dir", str(json_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "windowed telemetry: fig06 / leaftl" in out
        assert "trace written to" in out

        payload = json.loads((json_dir / "fig06.json").read_text())
        telemetry = payload["raw"]["telemetry"]
        assert telemetry["metrics_window_us"] == 50000.0
        assert telemetry["trace"] is True
        assert {device["ftl"] for device in telemetry["devices"]} == {"leaftl", "tpftl"}
        for device in telemetry["devices"]:
            windows = device["windows"]
            assert windows["num_windows"] >= 1
            assert sum(windows["reads"]) > 0
            trace = json.loads(Path(device["trace_file"]).read_text())
            assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]

    def test_fig19_device_is_observed(self):
        """fig19 builds its own devices (no ``prepare_ssd``) and must still
        carry the process-wide metrics window into its telemetry block."""
        from repro.experiments.runner import set_metrics_window_us

        set_metrics_window_us(50_000.0)
        result = run_experiment("fig19", scale="tiny", ftls=("learnedftl",))
        devices = result.raw["telemetry"]["devices"]
        assert [device["ftl"] for device in devices] == ["learnedftl"]
        assert devices[0]["windows"]["num_windows"] >= 1
        assert sum(devices[0]["windows"]["reads"]) > 0

    def test_observed_results_cached_separately(self, tmp_path, fake_registry):
        cache_dir = tmp_path / "cache"
        run_orchestrated(["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir)
        assert _FAKE_CALLS == ["alpha"]
        # A telemetry-enabled run must not be served the plain entry...
        run_orchestrated(
            ["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir,
            metrics_window_us=50_000.0,
        )
        assert _FAKE_CALLS == ["alpha", "alpha"]
        # ...but does cache under its own descriptor key.
        outcomes = run_orchestrated(
            ["fakealpha"], scale="tiny", jobs=1, cache_dir=cache_dir,
            metrics_window_us=50_000.0,
        )
        assert outcomes[0].cached_tasks == 1
        assert _FAKE_CALLS == ["alpha", "alpha"]


class TestDryRun:
    def test_dry_run_plans_without_executing(self, tmp_path, capsys, fake_registry):
        code = cli_main(
            ["fakealpha", "--scale", "tiny", "--dry-run",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fakealpha: cache miss" in out
        assert "1 tasks planned at scale=tiny, 0 cached, 1 to run" in out
        assert _FAKE_CALLS == []  # nothing ran

    def test_dry_run_reports_cache_hits_and_shards(self, tmp_path, capsys, fake_registry):
        cache_dir = tmp_path / "cache"
        assert cli_main(["fakealpha", "--scale", "tiny", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        code = cli_main(
            ["fakealpha", "fig14", "--scale", "tiny", "--dry-run",
             "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fakealpha: cache hit" in out
        # fig14 shards per FTL, and each shard predicts its snapshot needs.
        assert "fig14[dftl]: cache miss; snapshots: no store" in out
        assert "6 tasks planned at scale=tiny, 1 cached, 5 to run" in out
        assert _FAKE_CALLS == ["alpha"]

    def test_dry_run_predicts_snapshot_hits(self, tmp_path, capsys):
        # Warm one tpftl image via the CLI, then the dry run must see it.
        snap_dir = tmp_path / "snap"
        assert cli_main(
            ["fig02", "--scale", "tiny", "--snapshot-dir", str(snap_dir)]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["fig02", "--scale", "tiny", "--dry-run", "--snapshot-dir", str(snap_dir)]
        ) == 0
        assert "fig02: cache no cache; snapshots: 1/1 warm" in capsys.readouterr().out

    def test_dry_run_counts_the_observability_flags(self, tmp_path, capsys, fake_registry):
        # Telemetry settings are part of every cache key, so a dry run with
        # them must predict what the real run with them does.
        cache = ["--cache-dir", str(tmp_path / "cache")]
        window = ["--metrics-window-us", "50000"]
        assert cli_main(["fakealpha", "--scale", "tiny", *cache]) == 0
        capsys.readouterr()
        assert cli_main(["fakealpha", "--scale", "tiny", "--dry-run", *cache, *window]) == 0
        assert "1 tasks planned at scale=tiny, 0 cached, 1 to run" in capsys.readouterr().out
        assert cli_main(["fakealpha", "--scale", "tiny", *cache, *window]) == 0
        assert _FAKE_CALLS == ["alpha", "alpha"]
        capsys.readouterr()
        assert cli_main(["fakealpha", "--scale", "tiny", "--dry-run", *cache, *window]) == 0
        assert "1 tasks planned at scale=tiny, 1 cached, 0 to run" in capsys.readouterr().out

    def test_dry_run_creates_no_directory(self, tmp_path, capsys):
        cache_dir, snap_dir = tmp_path / "cache", tmp_path / "snap"
        assert cli_main(
            ["fig14", "--scale", "tiny", "--dry-run",
             "--cache-dir", str(cache_dir), "--snapshot-dir", str(snap_dir)]
        ) == 0
        assert "fig14[dftl]: cache miss; snapshots: 0/1 warm" in capsys.readouterr().out
        assert not cache_dir.exists() and not snap_dir.exists()


class TestProfileFlag:
    def test_profile_writes_the_artifact_a_plain_run_writes(self, tmp_path, capsys):
        plain_dir, profiled_dir = tmp_path / "plain", tmp_path / "profiled"
        assert cli_main(["table02", "--scale", "tiny", "--json-dir", str(plain_dir)]) == 0
        capsys.readouterr()
        assert cli_main(
            ["table02", "--scale", "tiny", "--profile", "--json-dir", str(profiled_dir),
             "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out and "table02" in out
        plain = json.loads((plain_dir / "table02.json").read_text())
        profiled = json.loads((profiled_dir / "table02.json").read_text())
        plain.pop("elapsed_s")
        profiled.pop("elapsed_s")
        assert profiled == plain
        # The result cache is bypassed under --profile.
        assert not (tmp_path / "cache").exists()

    def test_no_split_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main(["fig14", "--no-split"])
        assert exited.value.code == 2
        assert "--no-split" in capsys.readouterr().err


class TestSnapshotDirFlag:
    def test_snapshot_rerun_is_identical(self, tmp_path, capsys):
        snap_dir = tmp_path / "snap"
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        assert cli_main(
            ["fig06", "--scale", "tiny", "--snapshot-dir", str(snap_dir),
             "--json-dir", str(cold_dir)]
        ) == 0
        assert any(snap_dir.iterdir()), "no warm image was published"
        assert cli_main(
            ["fig06", "--scale", "tiny", "--snapshot-dir", str(snap_dir),
             "--json-dir", str(warm_dir)]
        ) == 0
        capsys.readouterr()
        cold = json.loads((cold_dir / "fig06.json").read_text())
        warm = json.loads((warm_dir / "fig06.json").read_text())
        assert cold["rows"] == warm["rows"]
        assert cold["extra_tables"] == warm["extra_tables"]


class TestParallelAll:
    @fork_only
    def test_parallel_all_matches_serial(self, tmp_path, capsys, fake_registry, monkeypatch):
        # Shrink the registry so 'all' is cheap, then run it serial and with
        # worker processes: rows and artifacts must be identical.
        registry = {
            "fakealpha": EXPERIMENTS["fakealpha"],
            "fakebeta": EXPERIMENTS["fakebeta"],
            "fig15": EXPERIMENTS["fig15"],
            "table02": EXPERIMENTS["table02"],
        }
        monkeypatch.setattr(orchestrator, "EXPERIMENTS", registry)
        import repro.experiments.__main__ as cli_module
        monkeypatch.setattr(cli_module, "EXPERIMENTS", registry)

        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        assert cli_main(["all", "--scale", "tiny", "--jobs", "1", "--json-dir", str(serial_dir)]) == 0
        assert "4/4 experiments succeeded" in capsys.readouterr().out
        assert cli_main(["all", "--scale", "tiny", "--jobs", "4", "--json-dir", str(parallel_dir)]) == 0
        assert "4/4 experiments succeeded" in capsys.readouterr().out

        for name in registry:
            serial = json.loads((serial_dir / f"{name}.json").read_text())
            parallel = json.loads((parallel_dir / f"{name}.json").read_text())
            if name == "fig15":
                # fig15 measures real host compute time; only the simulated
                # costs are deterministic across runs.
                strip = lambda rows: [
                    {k: v for k, v in row.items() if k != "measured_us"} for row in rows
                ]
                assert strip(serial["rows"]) == strip(parallel["rows"])
            else:
                assert serial["rows"] == parallel["rows"]
            assert serial["notes"] == parallel["notes"]

    def test_failing_experiment_does_not_abort_batch(self, tmp_path, capsys, fake_registry):
        exit_code = cli_main(
            ["fakealpha", "fakeboom", "fakebeta", "--scale", "tiny",
             "--json-dir", str(tmp_path / "json")]
        )
        assert exit_code == 1
        captured = capsys.readouterr()
        # The healthy experiments still ran, rendered and wrote artifacts.
        assert "fake experiment alpha" in captured.out
        assert "fake experiment beta" in captured.out
        assert (tmp_path / "json" / "fakealpha.json").exists()
        assert (tmp_path / "json" / "fakebeta.json").exists()
        assert not (tmp_path / "json" / "fakeboom.json").exists()
        # And the failure is summarised on stderr.
        assert "fakeboom" in captured.err
        assert "intentional fake failure" in captured.err
        assert "2/3 experiments succeeded" in captured.out

    @fork_only
    def test_parallel_failure_handling(self, fake_registry):
        outcomes = run_orchestrated(["fakealpha", "fakeboom"], scale="tiny", jobs=2)
        by_name = {outcome.name: outcome for outcome in outcomes}
        assert by_name["fakealpha"].ok
        assert not by_name["fakeboom"].ok
        assert "intentional fake failure" in by_name["fakeboom"].error

    def test_kwarg_tasks_execute_in_workers(self, fake_registry):
        # Shard-style kwargs survive the process boundary.
        tasks = [
            ExperimentTask.create("fakebeta", label=f"fakebeta[{i}]", offset=i) for i in (1, 2)
        ]
        results = [
            run_experiment(task.experiment, scale="tiny", **task.run_kwargs()) for task in tasks
        ]
        merged = merge_results("fakebeta", tasks, results)
        assert [row["value"] for row in merged.rows] == [11.0, 12.0]


class TestStudyVerb:
    """The ``study`` CLI verb (see tests/test_studies.py for the subsystem)."""

    SPEC = {
        "name": "cli-study",
        "warmup": "fill",
        "axes": {
            "ftl": ["ideal"],
            "config": {"cmt_ratio": [0.01, 0.05]},
            "workload": [{"kind": "fio", "pattern": "randread", "num_requests": 200}],
        },
    }

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def test_study_requires_a_spec(self, capsys):
        assert cli_main(["study"]) == 2
        assert "spec file" in capsys.readouterr().err

    def test_invalid_spec_names_offender_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "axes": {"ftl": ["dtfl"]}}))
        assert cli_main(["study", str(path), "--scale", "tiny"]) == 2
        assert "dtfl" in capsys.readouterr().err

    def test_all_specs_validated_before_any_cell_runs(self, spec_path, tmp_path, capsys):
        # A typo in the *last* spec must fail the batch up front — not after
        # the earlier studies' cells have already been paid for.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "axes": {"config": {"cmt_ration": [0.1]}}}))
        cache_dir = tmp_path / "cache"
        assert cli_main(
            ["study", str(spec_path), str(bad), "--scale", "tiny",
             "--cache-dir", str(cache_dir)]
        ) == 2
        captured = capsys.readouterr()
        assert "cmt_ration" in captured.err
        assert not list(cache_dir.glob("*.json")), "cells ran before validation finished"

    def test_study_dry_run_is_pinned(self, spec_path, tmp_path, capsys):
        code = cli_main(
            ["study", str(spec_path), "--scale", "tiny", "--dry-run",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "study cli-study: ftl=1 x cmt_ratio=2 x geometry=1 x workload=1 "
            "x threads=1 -> 2 cells"
        )
        assert lines[1] == "cli-study[ideal/cmt_ratio=0.01/randread]: cache miss; snapshots: no store"
        assert lines[2] == "cli-study[ideal/cmt_ratio=0.05/randread]: cache miss; snapshots: no store"
        assert lines[3] == "2 cells planned at scale=tiny, 0 cached, 2 to run"

    def test_study_dry_run_counts_the_observability_flags(self, spec_path, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert cli_main(["study", str(spec_path), "--scale", "tiny", *cache]) == 0
        capsys.readouterr()
        dry_run = ["study", str(spec_path), "--scale", "tiny", "--dry-run", *cache]
        assert cli_main(dry_run) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "2 cells planned at scale=tiny, 2 cached, 0 to run"
        )
        assert cli_main([*dry_run, "--metrics-window-us", "50000"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "2 cells planned at scale=tiny, 0 cached, 2 to run"
        )

    def test_study_profile_writes_the_artifact(self, spec_path, tmp_path, capsys):
        # Studies take the same orchestrated path as experiments, --profile too.
        json_dir = tmp_path / "json"
        assert cli_main(
            ["study", str(spec_path), "--scale", "tiny", "--profile", "--json-dir", str(json_dir)]
        ) == 0
        assert "cumulative" in capsys.readouterr().out
        payload = json.loads((json_dir / "cli-study.json").read_text())
        assert payload["tasks"] == 2 and payload["execution"]["backend"] == "serial"

    def test_study_dry_run_creates_no_directory(self, spec_path, tmp_path, capsys):
        cache_dir, snap_dir = tmp_path / "cache", tmp_path / "snap"
        assert cli_main(
            ["study", str(spec_path), "--scale", "tiny", "--dry-run",
             "--cache-dir", str(cache_dir), "--snapshot-dir", str(snap_dir)]
        ) == 0
        assert "snapshots: cold" in capsys.readouterr().out
        assert not cache_dir.exists() and not snap_dir.exists()

    def test_study_end_to_end_writes_artifacts(self, spec_path, tmp_path, capsys):
        json_dir, csv_dir = tmp_path / "json", tmp_path / "csv"
        code = cli_main(
            ["study", str(spec_path), "--scale", "tiny",
             "--json-dir", str(json_dir), "--csv-dir", str(csv_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-study" in out and "vs_cmt_ratio" in out
        payload = json.loads((json_dir / "cli-study.json").read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["experiment"] == "cli-study"
        assert payload["tasks"] == 2
        assert len(payload["rows"]) == 2
        assert payload["raw"]["metric"] == "throughput_mb_s"
        csv_lines = (csv_dir / "cli-study.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("ftl,cmt_ratio,geometry,workload,threads,")
        assert len(csv_lines) == 3


class TestReplayVerb:
    """The ``replay`` CLI verb (see tests/test_replay.py for the subsystem).

    These run in-process through ``cli_main`` on a ~120-record synthetic
    Systor trace at tiny scale, covering the fresh-run artifacts, the
    kill/resume identity contract at the CLI surface, and the error paths.
    """

    @pytest.fixture
    def trace(self, tmp_path):
        from repro.workloads.traces import synthesize_systor

        path = tmp_path / "tiny.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("timestamp,response,iotype,lun,offset,size\n")
            for r in synthesize_systor(num_ios=120, seed=11):
                handle.write(
                    f"{r.timestamp_s!r},0.0,{'R' if r.is_read else 'W'},"
                    f"{r.stream_id},{r.offset_bytes},{r.size_bytes}\n"
                )
        return path

    def _replay(self, *argv):
        return cli_main(["replay", *argv])

    FLAGS = ("--chunk-requests", "25", "--checkpoint-every", "40",
             "--time-scale", "1e-4", "--metrics-window-us", "2000")

    def test_fresh_run_writes_manifest_and_stats(self, trace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        stats = tmp_path / "stats.json"
        code = self._replay(str(trace), "--run-dir", str(run_dir),
                            "--stats-out", str(stats), *self.FLAGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "[replay finished:" in out
        assert "throughput_mb_s" in out
        assert "windowed telemetry" in out
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["trace"]["sha256"]
        assert manifest["device"]["ftl"] == "dftl"
        payload = json.loads(stats.read_text())
        assert payload["finished"] is True
        assert payload["requests"] > 0
        assert payload["state_sha"]
        assert payload["telemetry"]["num_windows"] > 0
        assert (run_dir / "checkpoints").is_dir()

    def test_kill_then_resume_matches_uninterrupted_run(self, trace, tmp_path, capsys):
        full_stats = tmp_path / "full.json"
        assert self._replay(str(trace), "--run-dir", str(tmp_path / "full"),
                            "--stats-out", str(full_stats), *self.FLAGS) == 0
        killed_dir = tmp_path / "killed"
        assert self._replay(str(trace), "--run-dir", str(killed_dir),
                            "--stop-after-checkpoints", "1", *self.FLAGS) == 0
        assert "[replay paused:" in capsys.readouterr().out
        resumed_stats = tmp_path / "resumed.json"
        # --resume rebuilds the whole plan from the stored manifest: no other
        # flags are needed (or allowed to matter).
        assert self._replay("--resume", "--run-dir", str(killed_dir),
                            "--stats-out", str(resumed_stats)) == 0
        full = json.loads(full_stats.read_text())
        resumed = json.loads(resumed_stats.read_text())
        assert resumed["resumed_from"] == 1
        for key in ("summary", "state_sha", "telemetry", "requests", "records"):
            assert resumed[key] == full[key], key

    def test_trace_out_writes_chrome_trace(self, trace, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert self._replay(str(trace), "--run-dir", str(tmp_path / "run"),
                            "--trace-out", str(trace_dir), *self.FLAGS) == 0
        events = json.loads((trace_dir / "replay-dftl.trace.json").read_text())
        assert events["traceEvents"]

    def test_trace_required_without_resume(self, tmp_path, capsys):
        assert self._replay("--run-dir", str(tmp_path / "run")) == 2
        assert "trace file is required" in capsys.readouterr().err

    def test_missing_trace_file_errors(self, tmp_path, capsys):
        assert self._replay(str(tmp_path / "nope.csv"),
                            "--run-dir", str(tmp_path / "run")) == 2
        assert "not found" in capsys.readouterr().err

    def test_resume_without_manifest_errors(self, tmp_path, capsys):
        assert self._replay("--resume", "--run-dir", str(tmp_path / "empty")) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_fresh_run_refuses_existing_run_dir(self, trace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._replay(str(trace), "--run-dir", str(run_dir), *self.FLAGS) == 0
        assert self._replay(str(trace), "--run-dir", str(run_dir), *self.FLAGS) == 2
        assert "already holds a replay run" in capsys.readouterr().err

    def test_unknown_suffix_needs_explicit_format(self, tmp_path, capsys):
        odd = tmp_path / "trace.dat"
        odd.write_text("0.0 0 0 4096 r\n")
        assert self._replay(str(odd), "--run-dir", str(tmp_path / "run")) == 2
        assert "cannot infer" in capsys.readouterr().err
