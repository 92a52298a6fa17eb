"""The one field rule: every field of the four config dataclasses is held to
its declared type and bound when the object is built, and each front end
(study spec, run manifest, CLI) refuses a bad value by naming the field."""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from repro.core.base import FTLConfig
from repro.experiments.__main__ import main as cli_main
from repro.nand.errors import ConfigurationError, GeometryError
from repro.nand.fields import as_int, field_rules
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.replay import ReplayError, ReplayPlan
from repro.ssd.device import SSD

NAN, INF = float("nan"), float("inf")


def _plan(**overrides) -> ReplayPlan:
    kwargs = dict(
        trace_path="trace.csv",
        trace_format="systor",
        ftl_name="dftl",
        geometry=SSDGeometry.small(),
    )
    kwargs.update(overrides)
    return ReplayPlan(**kwargs)


#: class -> (builder, error, {field: (wrongly typed values, value just outside the bound)}).
#: ``None`` as the outside value: the field has no bound beyond its type.
TABLE = {
    SSDGeometry: (
        lambda **kw: SSDGeometry.small().with_overrides(**kw),
        GeometryError,
        {
            "channels": ((True, 2.0, "2"), 0),
            "chips_per_channel": ((False, 1.5), 0),
            "planes_per_chip": ((True, "1"), 0),
            "blocks_per_plane": ((True, 16.0), 0),
            "pages_per_block": ((True, "32"), 0),
            "page_size": ((True, 1024.0), 0),
            "op_ratio": (("0.1", True, None), 0.9),
        },
    ),
    FTLConfig: (
        FTLConfig,
        ConfigurationError,
        {
            "cmt_ratio": (("0.03", True), 1.01),
            "learnedftl_cmt_ratio": (("0.015", False), -0.01),
            "min_cmt_entries": ((True, 64.0), 0),
            "prefetch_max_entries": ((True, "64"), 0),
            "leaftl_gamma": (("4", True), -0.5),
            "leaftl_buffer_pages": ((True, 2048.0), 0),
            "max_pieces": ((True, 0.5), 0),
            "group_stripe_limit": ((True, "2"), 0),
            "borrow_threshold_fraction": (("0.5", True), 1.5),
            "sequential_init_min_pages": ((True, 2.0), 0),
            "charge_compute": ((1, "yes"), None),
            "train_on_gc": ((0, None), None),
            "gc_free_block_fraction": (("0.03", True), -0.01),
            "gc_target_free_blocks": ((True, 1.0), -1),
        },
    ),
    TimingModel: (
        TimingModel,
        ConfigurationError,
        {
            name: (("40", True, None), -0.001)
            for name in (
                "read_us",
                "program_us",
                "erase_us",
                "channel_transfer_us",
                "sort_us_per_entry",
                "train_us_per_entry",
                "predict_us",
                "bitmap_check_us",
            )
        },
    ),
    ReplayPlan: (
        _plan,
        ReplayError,
        {
            "trace_path": ((7, None), None),
            "trace_format": ((7, None), "csv"),
            "ftl_name": ((7, None), "nosuch"),
            "geometry": (({"channels": 2}, None), None),
            "config": (({"cmt_ratio": 0.1}, TimingModel()), None),
            "timing": (({"read_us": 40.0}, FTLConfig()), None),
            "streams": ((True, 2.5), 0),
            "chunk_requests": ((True, "100"), 0),
            "checkpoint_every_requests": ((True, 1.5), 0),
            "checkpoint_every_sim_s": (("1", True), 0.0),
            "preserve_timing": ((1, "yes"), None),
            "time_scale": (("1", True, None), 0.0),
            "limit": ((True, "10"), -1),
            "max_errors": ((True, None), -1),
            "warmup": ((7, None), "bogus"),
            "io_pages": ((True, 128.0), 0),
            "overwrite_factor": (("1", True, None), -0.001),
            "warmup_threads": ((True, 1.5), 0),
            "warmup_seed": ((True, 7.0), -1),
            "metrics_window_us": (("1", True), 0.0),
            "keep_checkpoints": ((True, 2.0), 0),
        },
    ),
}


def _cases():
    for cls, (_, _, table) in TABLE.items():
        rules = field_rules(cls)
        for name, (wrong, outside) in table.items():
            for value in wrong:
                yield pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
            if rules[name].kind is float:
                for value in (NAN, INF, -INF):
                    yield pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
            if outside is not None:
                yield pytest.param(cls, name, outside, id=f"{cls.__name__}.{name}={outside!r}")


class TestEveryField:
    @pytest.mark.parametrize("cls", list(TABLE))
    def test_table_covers_every_field(self, cls):
        assert set(TABLE[cls][2]) == {spec.name for spec in fields(cls)}

    @pytest.mark.parametrize(("cls", "name", "value"), list(_cases()))
    def test_bad_value_is_refused_naming_the_field(self, cls, name, value):
        build, error, _ = TABLE[cls]
        with pytest.raises(error, match=f"^{name} must be "):
            build(**{name: value})

    def test_presets_and_defaults_build(self):
        for name in ("small", "medium", "paper"):
            assert SSDGeometry.preset(name) == getattr(SSDGeometry, name)()
        assert TimingModel.femu_default() == TimingModel()
        assert TimingModel.fast().without_compute().predict_us == 0.0
        assert FTLConfig().with_overrides() == FTLConfig()
        _plan(config=FTLConfig(), timing=TimingModel.fast(), limit=0, metrics_window_us=1)

    def test_bound_edges_are_admitted(self):
        SSDGeometry.small(op_ratio=0)
        FTLConfig(cmt_ratio=0, learnedftl_cmt_ratio=1, borrow_threshold_fraction=1,
                  leaftl_gamma=0, gc_target_free_blocks=0)
        TimingModel(read_us=0, erase_us=0.0)
        _plan(max_errors=0, overwrite_factor=0, warmup_seed=0)

    def test_float_fields_keep_an_int_as_given(self):
        # asdict() feeds snapshot-store keys and manifests: an int stays an int.
        assert type(TimingModel(read_us=40).read_us) is int
        assert type(FTLConfig(cmt_ratio=1).cmt_ratio) is int

    def test_numpy_integers_are_ints_and_stored_as_python_ints(self):
        assert as_int(np.int16(-3)) == -3 and type(as_int(np.int16(-3))) is int
        geometry = SSDGeometry.small(channels=np.int64(4))
        assert geometry.channels == 4 and type(geometry.channels) is int
        assert type(FTLConfig(max_pieces=np.int32(3)).max_pieces) is int
        with pytest.raises(GeometryError, match="^channels must be int, got "):
            SSDGeometry.small(channels=np.bool_(True))

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 1.0, "1", None, 2.5])
    def test_integer_rule_refuses_non_integers(self, value):
        assert as_int(value) is None

    def test_sweepable_fields_are_one_surface(self):
        assert SSDGeometry.sweepable_fields()["op_ratio"] is float
        assert FTLConfig.sweepable_fields()["charge_compute"] is bool
        assert list(TimingModel.sweepable_fields()) == [spec.name for spec in fields(TimingModel)]
        with pytest.raises(ConfigurationError, match="unknown TimingModel field 'read'"):
            TimingModel().with_overrides(read=1.0)


# ---------------------------------------------------------- the old defects
TINY_SPEC = {"name": "damaged", "axes": {"ftl": ["dftl"]}}


def _spec(**axes) -> dict:
    payload = json.loads(json.dumps(TINY_SPEC))
    payload["axes"].update(axes)
    return payload


class TestDefectsOfTheSplitRules:
    """Study-spec cases are in ``tests/test_studies.py``'s offender table."""

    @pytest.mark.parametrize("ftl", ["dftl", "learnedftl"])
    def test_zero_max_pieces_is_refused_for_every_design(self, ftl):
        # Was refused (as a ValueError) only when a LearnedFTL was built.
        with pytest.raises(ConfigurationError, match="^max_pieces must be positive, got 0"):
            SSD.create(ftl, SSDGeometry.small(), config=FTLConfig(max_pieces=0))

    def test_negative_latency_is_refused(self):
        # Was accepted: a learnedftl run on it reported a negative-latency mean.
        with pytest.raises(ConfigurationError, match="^read_us must be finite and >= 0, got -40.0"):
            TimingModel(read_us=-40.0)

    def test_manifest_with_a_negative_latency_is_refused(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("timestamp,response,iotype,lun,offset,size\n0.0,0.0,R,0,0,4096\n")
        manifest = json.loads(json.dumps(_plan(trace_path=str(trace)).manifest()))
        manifest["device"]["timing"]["read_us"] = -40.0
        with pytest.raises(
            ReplayError, match="field device\\.timing: read_us must be finite and >= 0"
        ):
            ReplayPlan.from_manifest(manifest)

    @pytest.mark.parametrize(
        ("axes", "field"),
        [
            ({"geometry": {"overrides": [{"op_ratio": "0.1"}]}}, "op_ratio"),
            ({"config": {"cmt_ratio": [NAN]}}, "cmt_ratio"),
            ({"geometry": {"overrides": [{"pages_per_block": True}]}}, "pages_per_block"),
        ],
    )
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_cli_exits_2_naming_the_field(self, tmp_path, capsys, axes, field, dry_run):
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(_spec(**axes)))
        argv = ["study", str(path), "--scale", "tiny", "--cache-dir", str(tmp_path / "c")]
        assert cli_main(argv + (["--dry-run"] if dry_run else [])) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "c").exists() or not any((tmp_path / "c").iterdir())

    def test_negative_float_in_a_manifest_section_is_named(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("timestamp,response,iotype,lun,offset,size\n0.0,0.0,R,0,0,4096\n")
        manifest = json.loads(json.dumps(_plan(trace_path=str(trace)).manifest()))
        manifest["device"]["config"]["leaftl_gamma"] = math.inf
        with pytest.raises(ReplayError, match="field device\\.config: leaftl_gamma must be finite"):
            ReplayPlan.from_manifest(manifest)
