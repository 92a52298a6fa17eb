"""Tests for the declarative scenario-sweep subsystem (``repro.studies``).

Covers the three contract layers:

* **spec** — parse/validate/round-trip, with every invalid-axis error naming
  the offending key;
* **planner** — deterministic expansion, orchestrator task planning, and the
  golden merge invariant: a study merged from orchestrator-executed cells is
  bit-identical to running the same cells unsplit;
* **caching** — a warm rerun serves every cell from the result cache (zero
  simulator invocations) and every warm-up from the snapshot store.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice

import pytest

from repro.core.base import FTLConfig
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.runner import ScaleSpec, active_snapshot_store, set_snapshot_dir
from repro.nand.errors import ConfigurationError, GeometryError
from repro.nand.geometry import SSDGeometry
from repro.studies import (
    StudySpec,
    describe_study_plan,
    load_study_file,
    merge_study,
    plan_study,
    run_study,
)
from repro.nand.fields import field_rules
from repro.workloads.fio import FioJob
from repro.workloads.spec import WORKLOAD_KINDS, build_workload
from repro.workloads.synthetic import hotspot_stream, mixed_stream, zipf_reads
from repro.workloads.traces import preset_requests


#: A fast 2 (ftl) x 2 (cmt budget) x 2 (workload) grid; ``fill`` warm-up and
#: tiny request counts keep the whole 8-cell study at a few seconds.
TINY_STUDY = {
    "name": "tiny-study",
    "description": "cmt budget x ftl x workload at tiny scale",
    "warmup": "fill",
    "axes": {
        "ftl": ["dftl", "ideal"],
        "config": {"cmt_ratio": [0.01, 0.05]},
        "workload": [
            {"kind": "fio", "pattern": "randread", "num_requests": 300},
            {"kind": "zipf", "theta": 0.99, "num_requests": 300},
        ],
    },
}


@pytest.fixture(autouse=True)
def _no_ambient_snapshot_store():
    """Keep the process-wide snapshot store from leaking across tests."""
    yield
    set_snapshot_dir(None)


NAN, INF = float("nan"), float("inf")

#: kind -> (generator, the keys a valid spec needs, {parameter: (wrongly
#: typed values, values just outside the bound)}).  The outside values include
#: the specs that once ran, or died inside the cell, with such values.
WORKLOAD_TABLE = {
    "fio": (
        FioJob,
        {"pattern": "randread"},
        {
            "pattern": ((7, True, None), ("randx", "RANDREAD")),
            "num_requests": ((True, 10.0, "10"), (0,)),
            "io_pages": ((True, 1.0, "1"), (0,)),
            "seed": ((True, 42.0, "42"), (-1,)),
            "span_fraction": (("1", True, None), (0.0, -1.0, 1.0001)),
        },
    ),
    "zipf": (
        zipf_reads,
        {},
        {
            "num_requests": ((False, 2.5), (0,)),
            "theta": (("0.99", True, None), (-0.01, -3)),
            "io_pages": ((True, "1"), (0,)),
            "seed": ((True, 1.5), (-1,)),
        },
    ),
    "hotspot": (
        hotspot_stream,
        {},
        {
            "num_requests": ((True, "5"), (0,)),
            "read_fraction": (("0.7", False), (1.5, -0.01)),
            "hot_fraction": (("0.2", True), (0, 1.0)),
            "hot_probability": ((None, True), (0.0, 1)),
            "io_pages": ((True, 2.0), (0,)),
            "seed": ((True, "29"), (-1,)),
        },
    ),
    "mixed": (
        mixed_stream,
        {},
        {
            "num_requests": ((True, 3.0), (0,)),
            "read_fraction": (("0.5", True), (1.01, -0.5)),
            "io_pages": ((True, "4"), (0,)),
            "seed": ((True, 17.5), (-1,)),
        },
    ),
    "trace": (
        preset_requests,
        {"name": "websearch1"},
        {
            "name": ((1, None, True), ("websearch4", "")),
            "num_ios": ((True, 50.0), (0,)),
            "time_scale": (("0.05", True, None), (0.0, -2.0)),
        },
    ),
}


def _workload_cases():
    for kind, (generator, _, table) in WORKLOAD_TABLE.items():
        rules = field_rules(generator)
        for name, (wrong, outside) in table.items():
            floats = (NAN, INF, -INF) if rules[name].kind is float else ()
            for value in (*wrong, *floats, *outside):
                yield pytest.param(kind, name, value, id=f"{kind}.{name}={value!r}")


def _stream_digest(requests) -> str:
    h = hashlib.sha256()
    for r in islice(requests, 200):
        h.update(repr((r.op.value, r.lpn, r.npages, r.issue_time_us, r.stream_id)).encode())
    return h.hexdigest()[:16]


#: Specs captured before the workload spec took its keys from the generators
#: (examples/sweep_cmt_budget.yaml, docs/studies.md, TINY_STUDY, the ledger's
#: hotspot_observed at seed 7, and one all-defaults spec per kind):
#: (spec, read budget, write budget, WorkloadPlan fields, first-200 digest).
PINNED_PLANS = [
    ({"kind": "fio", "pattern": "randread"}, 500, 400,
     ("fio", "randread", "fio randread x500", False, 500,
      (("io_pages", 1), ("pattern", "randread"), ("seed", 42), ("span_fraction", 1.0))),
     "d625338bf5e4b79b"),
    ({"kind": "zipf", "theta": 0.99}, 500, 400,
     ("zipf", "zipf0.99", "zipf(theta=0.99) reads x500", False, 500,
      (("io_pages", 1), ("seed", 23), ("theta", 0.99))),
     "e797fa352f3f2382"),
    ({"kind": "fio", "pattern": "randwrite"}, 500, 400,
     ("fio", "randwrite", "fio randwrite x400", False, 400,
      (("io_pages", 1), ("pattern", "randwrite"), ("seed", 42), ("span_fraction", 1.0))),
     "d4e6f7936c998bca"),
    ({"kind": "fio", "pattern": "randread", "num_requests": 300}, 500, 400,
     ("fio", "randread", "fio randread x300", False, 300,
      (("io_pages", 1), ("pattern", "randread"), ("seed", 42), ("span_fraction", 1.0))),
     "d625338bf5e4b79b"),
    ({"kind": "zipf", "theta": 0.99, "num_requests": 300}, 500, 400,
     ("zipf", "zipf0.99", "zipf(theta=0.99) reads x300", False, 300,
      (("io_pages", 1), ("seed", 23), ("theta", 0.99))),
     "e797fa352f3f2382"),
    ({"kind": "hotspot", "read_fraction": 0.95, "hot_fraction": 0.2, "hot_probability": 0.8,
      "num_requests": 1_000_000_000, "seed": 7}, 0, 0,
     ("hotspot", "hotspot0.8", "hotspot mix (80% of I/O on 20% of the space) x1000000000",
      False, 1_000_000_000,
      (("hot_fraction", 0.2), ("hot_probability", 0.8), ("io_pages", 1),
       ("read_fraction", 0.95), ("seed", 7))),
     "911309b3920bbdee"),
    ({"kind": "fio", "pattern": "seqwrite"}, 500, 400,
     ("fio", "seqwrite", "fio seqwrite x400", False, 400,
      (("io_pages", 1), ("pattern", "seqwrite"), ("seed", 42), ("span_fraction", 1.0))),
     "57b6eb46edc38ffe"),
    ({"kind": "zipf"}, 500, 400,
     ("zipf", "zipf0.99", "zipf(theta=0.99) reads x500", False, 500,
      (("io_pages", 1), ("seed", 23), ("theta", 0.99))),
     "e797fa352f3f2382"),
    ({"kind": "hotspot"}, 500, 400,
     ("hotspot", "hotspot0.8", "hotspot mix (80% of I/O on 20% of the space) x500", False, 500,
      (("hot_fraction", 0.2), ("hot_probability", 0.8), ("io_pages", 1),
       ("read_fraction", 0.7), ("seed", 29))),
     "4b196327d24e8efd"),
    ({"kind": "mixed"}, 500, 400,
     ("mixed", "mixed0.5", "uniform mix (50% reads) x500", False, 500,
      (("io_pages", 1), ("read_fraction", 0.5), ("seed", 17))),
     "9fd7e40d3797608b"),
    ({"kind": "trace", "name": "websearch1"}, 500, 400,
     ("trace", "websearch1", "trace replay of websearch1 x500", True, 500,
      (("name", "websearch1"), ("time_scale", 0.05))),
     "0bdb6dafb885f3e1"),
]


class TestSpecValidation:
    def test_round_trip_through_to_dict(self):
        spec = StudySpec.from_dict(TINY_STUDY)
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_yaml_and_json_files_load_identically(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        yaml_path = tmp_path / "study.yaml"
        yaml_path.write_text(yaml.safe_dump(TINY_STUDY))
        json_path = tmp_path / "study.json"
        json_path.write_text(json.dumps(TINY_STUDY))
        assert load_study_file(yaml_path) == load_study_file(json_path)
        assert load_study_file(yaml_path) == StudySpec.from_dict(TINY_STUDY)

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "study.toml"
        path.write_text("x = 1")
        with pytest.raises(ConfigurationError, match=r"\.toml"):
            load_study_file(path)

    @pytest.mark.parametrize(
        "mutate, offender",
        [
            (lambda spec: spec.update({"scales": ["tiny"]}), "scales"),
            (lambda spec: spec["axes"].update({"ftll": ["dftl"]}), "ftll"),
            (lambda spec: spec["axes"].update({"ftl": ["dtfl"]}), "dtfl"),
            (lambda spec: spec["axes"].update({"config": {"cmt_ration": [0.1]}}), "cmt_ration"),
            (lambda spec: spec["axes"].update({"config": {"cmt_ratio": ["big"]}}), "cmt_ratio"),
            (
                lambda spec: spec["axes"].update(
                    {"geometry": {"overrides": [{"chipz": 4}]}}
                ),
                "chipz",
            ),
            (lambda spec: spec["axes"].update({"geometry": {"base": "huge"}}), "huge"),
            (
                # Values (not just keys) are probed at parse time: a zero
                # channel count must fail validation, not a worker task.
                lambda spec: spec["axes"].update({"geometry": {"overrides": [{"channels": 0}]}}),
                "channels",
            ),
            # A string, a bool and a NaN are refused by the dataclass's field
            # rule (they once raised a TypeError, ran as 1 and died in the cell).
            (
                lambda spec: spec["axes"].update({"geometry": {"overrides": [{"op_ratio": "0.1"}]}}),
                "op_ratio must be float, got '0.1'",
            ),
            (
                lambda spec: spec["axes"].update(
                    {"geometry": {"overrides": [{"pages_per_block": True}]}}
                ),
                "pages_per_block must be int, got True",
            ),
            (
                lambda spec: spec["axes"].update({"config": {"cmt_ratio": [0.01, float("nan")]}}),
                "cmt_ratio must be finite and in",
            ),
            (
                lambda spec: spec["axes"].update({"workload": [{"kind": "fio", "patern": "x"}]}),
                "pattern",
            ),
            (
                lambda spec: spec["axes"].update({"workload": [{"kind": "iometer"}]}),
                "iometer",
            ),
            (
                lambda spec: spec["axes"].update({"workload": [{"kind": "trace", "name": "nope"}]}),
                "nope",
            ),
            (lambda spec: spec["axes"].update({"host": {"threads": [0]}}), "threads"),
            (lambda spec: spec.update({"warmup": "lukewarm"}), "lukewarm"),
            (lambda spec: spec.update({"metric": "speed"}), "speed"),
        ],
    )
    def test_invalid_axes_name_the_offending_key(self, mutate, offender):
        payload = json.loads(json.dumps(TINY_STUDY))  # deep copy
        mutate(payload)
        with pytest.raises(ConfigurationError, match=offender):
            StudySpec.from_dict(payload)

    def test_duplicate_workload_labels_rejected(self):
        payload = json.loads(json.dumps(TINY_STUDY))
        payload["axes"]["workload"] = [
            {"kind": "fio", "pattern": "randread"},
            {"kind": "fio", "pattern": "randread", "seed": 1},
        ]
        with pytest.raises(ConfigurationError, match="label"):
            StudySpec.from_dict(payload)

    def test_default_axes(self):
        spec = StudySpec.from_dict({"name": "d", "axes": {"config": {"cmt_ratio": [0.1]}}})
        # Omitted ftl axis sweeps every registered design; omitted workload
        # defaults to the paper's randread microbenchmark.
        assert spec.ftls == ("dftl", "tpftl", "leaftl", "learnedftl", "ideal")
        assert spec.workloads[0][0] == "randread"
        assert spec.warmup == "steady"
        assert spec.metric == "throughput_mb_s"


class TestConfigSurface:
    def test_ftlconfig_overrides_apply(self):
        config = FTLConfig().with_overrides(cmt_ratio=0.5, prefetch_max_entries=16)
        assert config.cmt_ratio == 0.5
        assert config.prefetch_max_entries == 16
        assert FTLConfig().cmt_ratio != 0.5  # original untouched

    def test_ftlconfig_unknown_knob_named(self):
        with pytest.raises(ConfigurationError, match="cmt_rat"):
            FTLConfig().with_overrides(cmt_rat=0.5)

    def test_ftlconfig_type_mismatch_named(self):
        with pytest.raises(ConfigurationError, match="max_pieces"):
            FTLConfig().with_overrides(max_pieces=0.5)
        with pytest.raises(ConfigurationError, match="charge_compute"):
            FTLConfig().with_overrides(charge_compute="yes")

    def test_every_ftlconfig_field_is_sweepable(self):
        from dataclasses import fields

        assert set(FTLConfig.sweepable_fields()) == {f.name for f in fields(FTLConfig)}

    def test_geometry_preset_and_overrides(self):
        base = SSDGeometry.preset("small")
        assert base == SSDGeometry.small()
        bigger = base.with_overrides(chips_per_channel=4)
        assert bigger.chips_per_channel == 4
        assert bigger.num_chips == base.channels * 4
        with pytest.raises(GeometryError, match="huge"):
            SSDGeometry.preset("huge")
        with pytest.raises(GeometryError, match="chipz"):
            base.with_overrides(chipz=4)
        with pytest.raises(GeometryError):
            base.with_overrides(channels=0)  # re-validated by __post_init__


class TestWorkloadSpecs:
    def test_spec_built_stream_matches_direct_generator(self):
        geometry = SSDGeometry.small()
        plan = build_workload(
            {"kind": "zipf", "theta": 0.9, "seed": 5, "num_requests": 100},
            read_requests=1,
            write_requests=1,
        )
        direct = list(zipf_reads(geometry, num_requests=100, theta=0.9, seed=5))
        assert list(plan.requests(geometry)) == direct

    def test_budget_defaults_follow_pattern_direction(self):
        read_plan = build_workload(
            {"kind": "fio", "pattern": "randread"}, read_requests=11, write_requests=22
        )
        write_plan = build_workload(
            {"kind": "fio", "pattern": "seqwrite"}, read_requests=11, write_requests=22
        )
        assert read_plan.num_requests == 11
        assert write_plan.num_requests == 22

    def test_trace_plans_replay(self):
        plan = build_workload(
            {"kind": "trace", "name": "websearch1", "num_ios": 50},
            read_requests=1,
            write_requests=1,
        )
        assert plan.replay
        requests = list(plan.requests(SSDGeometry.small()))
        assert requests  # trace I/Os expand to >= num_ios page requests

    @pytest.mark.parametrize("time_scale", [float("nan"), float("inf"), 0.0, -2.0])
    def test_trace_time_scale_must_be_finite_and_positive(self, time_scale):
        with pytest.raises(ConfigurationError, match="time_scale.*finite and positive"):
            build_workload(
                {"kind": "trace", "name": "websearch1", "time_scale": time_scale},
                read_requests=1,
                write_requests=1,
            )

    def test_unknown_field_named(self):
        with pytest.raises(ConfigurationError, match="theta"):
            build_workload(
                {"kind": "fio", "pattern": "randread", "theta": 1.0},
                read_requests=1,
                write_requests=1,
            )

    def test_table_covers_every_kind_and_parameter(self):
        assert tuple(WORKLOAD_TABLE) == WORKLOAD_KINDS
        for generator, _, table in WORKLOAD_TABLE.values():
            assert list(table) == list(field_rules(generator))

    @pytest.mark.parametrize(("kind", "name", "value"), list(_workload_cases()))
    def test_bad_value_is_refused_naming_kind_and_field(self, kind, name, value):
        _, required, _ = WORKLOAD_TABLE[kind]
        spec = {"kind": kind, **required, name: value}
        with pytest.raises(ConfigurationError, match=rf"kind='{kind}'\): {name} must be "):
            build_workload(spec, read_requests=1, write_requests=1)

    @pytest.mark.parametrize(("spec", "reads", "writes", "plan", "digest"), PINNED_PLANS)
    def test_valid_specs_build_the_pinned_plan_and_stream(self, spec, reads, writes, plan, digest):
        built = build_workload(spec, read_requests=reads, write_requests=writes)
        fields = (built.kind, built.label, built.description, built.replay,
                  built.num_requests, built.params)
        assert fields == plan
        assert _stream_digest(built.requests(SSDGeometry.small())) == digest

    def test_bound_edges_are_admitted(self):
        for spec in (
            {"kind": "fio", "pattern": "randread", "span_fraction": 1, "seed": 0},
            {"kind": "hotspot", "read_fraction": 0, "hot_fraction": 0.999, "seed": 0},
            {"kind": "mixed", "read_fraction": 1.0},
            {"kind": "zipf", "theta": 0},
        ):
            plan = build_workload(spec, read_requests=5, write_requests=5)
            assert len(list(plan.requests(SSDGeometry.small()))) == 5


class TestExpansion:
    def test_cross_product_order_and_coords(self):
        spec = StudySpec.from_dict(TINY_STUDY)
        cells = spec.expand()
        assert len(cells) == 8
        assert [cell.label for cell in cells] == [
            "dftl/cmt_ratio=0.01/randread",
            "dftl/cmt_ratio=0.01/zipf0.99",
            "dftl/cmt_ratio=0.05/randread",
            "dftl/cmt_ratio=0.05/zipf0.99",
            "ideal/cmt_ratio=0.01/randread",
            "ideal/cmt_ratio=0.01/zipf0.99",
            "ideal/cmt_ratio=0.05/randread",
            "ideal/cmt_ratio=0.05/zipf0.99",
        ]
        assert dict(cells[0].coords) == {
            "ftl": "dftl",
            "cmt_ratio": "0.01",
            "geometry": "scale",
            "workload": "randread",
            "threads": "scale",
        }
        assert spec.swept_axes() == ["ftl", "cmt_ratio", "workload"]

    def test_payload_json_is_canonical(self):
        spec = StudySpec.from_dict(TINY_STUDY)
        cell = spec.expand()[0]
        payload = cell.payload_json(spec.name)
        assert payload == json.dumps(json.loads(payload), sort_keys=True, separators=(",", ":"))

    def test_plan_study_builds_studycell_tasks(self):
        spec = StudySpec.from_dict(TINY_STUDY)
        cells, tasks = plan_study(spec)
        assert len(cells) == len(tasks) == 8
        assert all(task.experiment == "studycell" for task in tasks)
        keys = {task.cache_key("tiny") for task in tasks}
        assert len(keys) == 8  # every cell has a distinct cache identity


class TestStudyExecution:
    def test_split_matches_unsplit_bit_identically(self, tmp_path):
        """The golden merge invariant: orchestrated cells == unsplit cells."""
        spec = StudySpec.from_dict(TINY_STUDY)
        outcome = run_study(spec, scale="tiny", jobs=2, snapshot_dir=tmp_path / "snap")
        assert outcome.ok, outcome.error
        assert outcome.tasks == 8 and outcome.cached_tasks == 0

        cells, _ = plan_study(spec)
        unsplit = [
            run_experiment("studycell", scale="tiny", cell=cell.payload_json(spec.name))
            for cell in cells
        ]
        direct = merge_study(spec, cells, unsplit)
        assert outcome.result.rows == direct.rows
        assert outcome.result.extra_tables == direct.extra_tables
        assert outcome.result.notes == direct.notes
        assert outcome.result.raw == direct.raw
        assert outcome.result.csv() == direct.csv()

    def test_normalized_columns_reference_first_axis_value(self, tmp_path):
        spec = StudySpec.from_dict(TINY_STUDY)
        outcome = run_study(spec, scale="tiny", jobs=1, snapshot_dir=tmp_path / "snap")
        assert outcome.ok, outcome.error
        rows = {
            tuple(row[axis] for axis in ("ftl", "cmt_ratio", "workload")): row
            for row in outcome.result.rows
        }
        cells = outcome.result.raw["cells"]
        # Reference cells normalize to exactly 1.0 on their own axis.
        assert rows[("dftl", "0.01", "randread")]["vs_ftl"] == 1.0
        assert rows[("dftl", "0.01", "randread")]["vs_cmt_ratio"] == 1.0
        ideal = cells["ideal/cmt_ratio=0.01/randread"]["metrics"]["throughput_mb_s"]
        dftl = cells["dftl/cmt_ratio=0.01/randread"]["metrics"]["throughput_mb_s"]
        assert rows[("ideal", "0.01", "randread")]["vs_ftl"] == round(ideal / dftl, 3)

    def test_warm_rerun_serves_every_cell_from_cache(self, tmp_path, monkeypatch):
        """Acceptance: warm rerun == 0 simulator invocations."""
        cache_dir = tmp_path / "cache"
        cold = run_study(TINY_STUDY, scale="tiny", jobs=1, cache_dir=cache_dir)
        assert cold.ok, cold.error
        assert cold.cached_tasks == 0

        def _boom(*args, **kwargs):
            raise AssertionError("simulator invoked on a warm rerun")

        monkeypatch.setitem(EXPERIMENTS, "studycell", (_boom, "bomb"))
        warm = run_study(TINY_STUDY, scale="tiny", jobs=1, cache_dir=cache_dir)
        assert warm.ok, warm.error
        assert warm.cached_tasks == warm.tasks == 8
        assert warm.result.rows == cold.result.rows
        assert warm.result.raw == cold.result.raw

    def test_warm_rerun_restores_every_snapshot(self, tmp_path):
        """Cells share warm images; a rerun without the result cache restores
        every warm-up from the store (0 fill phases re-paid)."""
        snap_dir = tmp_path / "snap"
        cold = run_study(TINY_STUDY, scale="tiny", jobs=1, snapshot_dir=snap_dir)
        assert cold.ok, cold.error
        store = active_snapshot_store()
        assert store is not None and store.stores > 0
        # 8 cells but only 4 (ftl, config) warm identities: workloads share.
        assert store.stores == 4

        store.reset_counters()
        warm = run_study(TINY_STUDY, scale="tiny", jobs=1, snapshot_dir=snap_dir)
        assert warm.ok, warm.error
        assert store.misses == 0, "a warm rerun re-paid a fill phase"
        assert store.stores == 0
        assert store.hits == 8
        assert warm.result.rows == cold.result.rows

    def test_failed_cell_marks_study_failed_with_label(self, tmp_path):
        bad = json.loads(json.dumps(TINY_STUDY))
        # A geometry whose override is structurally valid but unsatisfiable at
        # run time: io_pages=128 fill requests cannot exceed the logical space.
        bad["axes"]["geometry"] = {"overrides": [{"blocks_per_plane": 1, "pages_per_block": 4}]}
        outcome = run_study(bad, scale="tiny", jobs=1)
        assert not outcome.ok
        assert "tiny-study[" in outcome.error

    def test_study_with_host_and_geometry_axes(self, tmp_path):
        """A >3-axis study: geometry and threads sweep alongside ftl."""
        spec = {
            "name": "host-sweep",
            "warmup": "fill",
            "axes": {
                "ftl": ["ideal"],
                "geometry": {"overrides": [{}, {"chips_per_channel": 4}]},
                "workload": [{"kind": "fio", "pattern": "randread", "num_requests": 200}],
                "host": {"threads": [2, 8]},
            },
        }
        outcome = run_study(spec, scale="tiny", jobs=1)
        assert outcome.ok, outcome.error
        assert outcome.tasks == 4
        labels = [row["geometry"] for row in outcome.result.rows]
        assert labels == ["scale", "scale", "scale+chips_per_channel=4",
                          "scale+chips_per_channel=4"]
        # More chips -> more parallelism -> at least as much throughput at 8 threads.
        cells = outcome.result.raw["cells"]
        wide = cells["ideal/scale+chips_per_channel=4/randread/t8"]["metrics"]["throughput_mb_s"]
        narrow = cells["ideal/scale/randread/t8"]["metrics"]["throughput_mb_s"]
        assert wide >= narrow


class TestDryRun:
    def test_describe_study_plan_predicts_cache_and_snapshots(self, tmp_path):
        cache_dir, snap_dir = tmp_path / "cache", tmp_path / "snap"
        lines = describe_study_plan(
            TINY_STUDY, scale="tiny", cache_dir=cache_dir, snapshot_dir=snap_dir
        )
        assert lines[0] == (
            "study tiny-study: ftl=2 x cmt_ratio=2 x geometry=1 x workload=2 "
            "x threads=1 -> 8 cells"
        )
        assert lines[1] == (
            "tiny-study[dftl/cmt_ratio=0.01/randread]: cache miss; snapshots: cold"
        )
        assert lines[-1] == "8 cells planned at scale=tiny, 0 cached, 8 to run"

        outcome = run_study(
            TINY_STUDY, scale="tiny", jobs=1, cache_dir=cache_dir, snapshot_dir=snap_dir
        )
        assert outcome.ok, outcome.error
        warm_lines = describe_study_plan(
            TINY_STUDY, scale="tiny", cache_dir=cache_dir, snapshot_dir=snap_dir
        )
        assert warm_lines[1] == (
            "tiny-study[dftl/cmt_ratio=0.01/randread]: cache hit; snapshots: warm"
        )
        assert warm_lines[-1] == "8 cells planned at scale=tiny, 8 cached, 0 to run"

    def test_scale_spec_override_hook(self):
        tiny = ScaleSpec.for_scale("tiny")
        geometry = SSDGeometry.medium()
        derived = tiny.with_overrides(geometry=geometry, threads=3)
        assert derived.geometry == geometry
        assert derived.threads == 3
        assert derived.read_requests == tiny.read_requests
        assert tiny.with_overrides() is tiny
