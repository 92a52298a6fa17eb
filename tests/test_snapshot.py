"""Tests for the device-state snapshot subsystem.

The headline guarantee is pinned by :class:`TestResumeBitIdentical`: for every
FTL design, running a workload straight through and running it with a
checkpoint/restore in the middle produce **bit-identical** statistics — the
same fingerprint the kernel golden-equivalence test pins.  Everything the
snapshot store and the experiment integration do rests on that invariant.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from golden_workload import WORKLOAD_SEED, golden_geometry
from tests.conftest import flip_archive_payload_byte
from repro import SSD, SSDGeometry
from repro.core.base import FTLConfig
from repro.experiments import EXPERIMENTS
from repro.experiments import runner as runner_module
from repro.experiments.orchestrator import (
    ExperimentTask,
    describe_plan,
    plan_tasks,
    run_orchestrated,
    snapshot_keys,
)
from repro.experiments.runner import ScaleSpec, prepare_ssd, set_snapshot_dir
from repro.nand.errors import ConfigurationError
from repro.replay import state_fingerprint
from repro.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotStore,
    load_snapshot,
    save_snapshot,
    warm_device,
)
from repro.ssd.request import HostRequest, OpType
from repro.workloads.fio import warmup_writes

ALL_FTL_NAMES = ("dftl", "tpftl", "leaftl", "learnedftl", "ideal")


# The process-wide snapshot store is cleared between tests by an autouse
# fixture in conftest.py, so orchestrated runs here cannot leak their store.


def _phase_requests(geometry: SSDGeometry):
    """The golden workload's request phases, pre-generated so the same lists
    can drive both the straight-through and the snapshot-resumed device."""
    rng = random.Random(WORKLOAD_SEED)
    limit = geometry.num_logical_pages
    overwrites = [
        HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit - 4), npages=4)
        for _ in range(150)
    ]
    reads = [
        HostRequest(op=OpType.READ, lpn=rng.randint(0, limit - 1), npages=1)
        for _ in range(400)
    ]
    mix = []
    for _ in range(300):
        if rng.random() < 0.3:
            mix.append(HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit - 2), npages=2))
        else:
            mix.append(HostRequest(op=OpType.READ, lpn=rng.randint(0, limit - 8), npages=8))
    return overwrites, reads, mix


def _fingerprint(ssd: SSD) -> dict:
    stats = ssd.stats
    fingerprint = dict(stats.summary())
    fingerprint.update(
        {
            "clock_us": ssd.now_us,
            "flash_total_programs": ssd.ftl.flash.total_programs,
            "flash_total_erases": ssd.ftl.flash.total_erases,
            "flash_total_reads": ssd.ftl.flash.total_reads,
            "gc_pages_moved": stats.gc_pages_moved,
            "read_latency_sum_us": sum(stats.read_latencies_us),
            "write_latency_sum_us": sum(stats.write_latencies_us),
            "chip_busy_us": tuple(stats.chip_busy_time_us),
        }
    )
    return fingerprint


def _assert_state_equal(a, b, path="state"):
    """Deep equality over nested state dicts with NumPy leaves."""
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys differ"
        for key in a:
            _assert_state_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), f"{path}: arrays differ"
    elif isinstance(a, list):
        assert len(a) == len(b), f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


class TestResumeBitIdentical:
    """The golden invariant: snapshot-then-resume == run-straight-through."""

    @pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
    def test_resume_matches_uninterrupted_run(self, ftl_name, tmp_path):
        geometry = golden_geometry()
        overwrites, reads, mix = _phase_requests(geometry)

        straight = SSD.create(ftl_name, geometry)
        straight.fill_sequential(io_pages=16)
        straight.run(overwrites, threads=2)
        path = save_snapshot(tmp_path / "image", straight.state_dict())
        resumed = SSD.restore(path)

        # The restored device is immediately coherent and its captured state
        # round-trips exactly.
        resumed.verify()
        _assert_state_equal(straight.state_dict(), resumed.state_dict())

        for device in (straight, resumed):
            device.run(reads, threads=4)
            device.run(mix, threads=4)
            device.verify()
        assert _fingerprint(straight) == _fingerprint(resumed)

    @pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
    def test_restored_device_state_survives_a_second_checkpoint(self, ftl_name, tmp_path):
        geometry = golden_geometry()
        overwrites, _, _ = _phase_requests(geometry)
        ssd = SSD.create(ftl_name, geometry)
        ssd.fill_sequential(io_pages=16)
        ssd.run(overwrites, threads=2)
        first = save_snapshot(tmp_path / "first", ssd.state_dict())
        second = save_snapshot(tmp_path / "second", SSD.restore(first).state_dict())
        _assert_state_equal(load_snapshot(first), load_snapshot(second))

    @pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
    def test_restore_keeps_the_mapping_and_latency_columns(self, ftl_name, tmp_path):
        # The mapping column is copied into through its view and each latency
        # population is refilled, so the objects FTLs and readers hold stay
        # valid whether the restore grows a population (a fresh target) or
        # shrinks it (a target that has served more requests).
        geometry = golden_geometry()
        overwrites, reads, mix = _phase_requests(geometry)
        source = SSD.create(ftl_name, geometry)
        source.fill_sequential(io_pages=16)
        source.run(overwrites, threads=2)
        source.run(reads[:200], threads=4)
        image = load_snapshot(save_snapshot(tmp_path / "image", source.state_dict()))
        expected = state_fingerprint(source.state_dict())
        busy = SSD.create(ftl_name, geometry)
        busy.fill_sequential(io_pages=16)
        busy.run(overwrites + reads + mix, threads=4)
        targets = (SSD.create(ftl_name, geometry), busy)
        for target in targets:
            directory, stats = target.ftl.directory, target.stats
            columns = (directory._ppn, stats.read_latencies_us, stats.write_latencies_us)
            target.load_state(image)
            assert target.ftl.directory is directory
            restored = (directory._ppn, stats.read_latencies_us, stats.write_latencies_us)
            for kept, column in zip(columns, restored):
                assert column is kept
            assert np.shares_memory(directory._ppn_view, np.frombuffer(directory._ppn, np.int64))
            assert state_fingerprint(target.state_dict()) == expected
        # Nothing is left exporting a population's buffer: the next requests
        # append to it, and every target continues exactly as the source.
        for device in (source, *targets):
            device.run(mix, threads=4)
        for target in targets:
            assert _fingerprint(target) == _fingerprint(source)
            assert state_fingerprint(target.state_dict()) == state_fingerprint(source.state_dict())


class TestSnapshotFormat:
    def test_roundtrip_nested_structures(self, tmp_path):
        state = {
            "scalars": {"a": 1, "b": 2.5, "c": None, "d": True, "e": "text"},
            "nested": [[1, 2], {"x": np.arange(5, dtype=np.int64)}],
            "column": np.asarray([1.5, 2.5], dtype=np.float64),
        }
        save_snapshot(tmp_path / "snap", state)
        loaded = load_snapshot(tmp_path / "snap")
        _assert_state_equal(
            {**state, "nested": [[1, 2], {"x": state["nested"][1]["x"]}]}, loaded
        )

    def test_format_version_mismatch_is_rejected(self, tmp_path):
        save_snapshot(tmp_path / "snap", {"x": 1})
        manifest = json.loads((tmp_path / "snap" / "manifest.json").read_text())
        manifest["format"] = SNAPSHOT_FORMAT_VERSION + 1
        (tmp_path / "snap" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "snap")

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "absent")

    def test_unserializable_state_is_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            save_snapshot(tmp_path / "snap", {"bad": object()})

    def test_load_state_rejects_mismatched_device(self, tmp_path):
        small = SSD.create("dftl", golden_geometry())
        small.fill_sequential(io_pages=16)
        path = save_snapshot(tmp_path / "image", small.state_dict())
        other = SSD.create("tpftl", golden_geometry())
        with pytest.raises(ConfigurationError):
            other.load_state(load_snapshot(path))


def _placeholder_keys(node) -> list[str]:
    """Every ``{"__ndarray__": key}`` placeholder key of a manifest's state."""
    if isinstance(node, dict):
        if set(node) == {"__ndarray__"}:
            return [node["__ndarray__"]]
        return [key for item in node.values() for key in _placeholder_keys(item)]
    if isinstance(node, list):
        return [key for item in node for key in _placeholder_keys(item)]
    return []


@pytest.fixture(scope="module")
def small_image(tmp_path_factory):
    """A filled ``SSDGeometry.small()`` learnedftl image and its loaded fingerprint.

    ``state_fingerprint`` numbers columns in dict order, which a loaded tree
    (sorted keys) and a live ``state_dict()`` do not share: loads are compared
    with loads, devices with devices.
    """
    ssd = SSD.create("learnedftl", SSDGeometry.small())
    ssd.fill_sequential(io_pages=16)
    path = save_snapshot(tmp_path_factory.mktemp("small-image") / "image", ssd.state_dict())
    return path, state_fingerprint(load_snapshot(path))


class TestArchiveWriter:
    """``arrays.npz`` is a plain ``.npz``: NumPy's writer and reader interoperate."""

    def test_savez_compressed_archive_loads_to_the_same_fingerprint(self, small_image, tmp_path):
        # np.savez_compressed wrote every image before the format's own
        # writer did; those images (and checkpoints) must keep loading.
        image, sha = small_image
        old = tmp_path / "old"
        old.mkdir()
        shutil.copy(image / "manifest.json", old / "manifest.json")
        with np.load(image / "arrays.npz") as columns:
            np.savez_compressed(old / "arrays.npz", **columns)
        assert state_fingerprint(load_snapshot(old)) == sha

    def test_archive_opens_with_np_load_and_holds_exactly_the_manifest_keys(self, small_image):
        image, _ = small_image
        manifest = json.loads((image / "manifest.json").read_text())
        keys = _placeholder_keys(manifest["state"])
        assert len(keys) == len(set(keys)) > 0
        with np.load(image / "arrays.npz") as columns:  # allow_pickle=False
            assert sorted(columns.files) == sorted(keys)
            for key in keys:
                assert isinstance(columns[key], np.ndarray)
        with zipfile.ZipFile(image / "arrays.npz") as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}

    def test_non_contiguous_zero_length_and_2d_columns_roundtrip(self, tmp_path):
        grid = np.arange(24, dtype=np.int32).reshape(4, 6)
        state = {
            "strided": np.arange(20, dtype=np.int64)[::3],
            "transposed": grid.T,
            "empty": np.zeros(0, dtype=np.float64),
            "grid": grid,
            "flags": np.asarray([True, False, True]),
        }
        loaded = load_snapshot(save_snapshot(tmp_path / "snap", state))
        _assert_state_equal(state, loaded)

    def test_object_column_is_refused_at_save_time(self, tmp_path):
        # It used to be pickled silently and fail only at load.
        with pytest.raises(SnapshotError, match="object"):
            save_snapshot(tmp_path / "snap", {"bad": np.asarray([{}, None], dtype=object)})
        assert not (tmp_path / "snap" / "arrays.npz").exists()

    def test_placeholder_absent_from_the_archive_is_refused(self, tmp_path):
        # The manifest is left intact (its digest would refuse an edit), and
        # the archive is rewritten without the second column's member.
        path = save_snapshot(tmp_path / "snap", {"x": np.arange(4), "y": np.arange(2)})
        with zipfile.ZipFile(path / "arrays.npz") as archive:
            kept = archive.read("a0.npy")
        with zipfile.ZipFile(path / "arrays.npz", "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("a0.npy", kept)
        with pytest.raises(SnapshotError, match="'a1'") as excinfo:
            load_snapshot(path)
        assert isinstance(excinfo.value.__cause__, KeyError)

    def test_member_longer_than_its_header_says_is_refused(self, tmp_path):
        # What a flip that shrinks the .npy header's shape leaves behind.
        # NumPy reads the shorter array and never reaches the member's end,
        # which is where zipfile checks the CRC-32.
        path = save_snapshot(tmp_path / "snap", {"x": np.arange(8, dtype=np.int64)})
        member = io.BytesIO()
        np.lib.format.write_array(member, np.arange(4, dtype=np.int64))
        payload = member.getvalue() + np.arange(4, 8, dtype=np.int64).tobytes()
        with zipfile.ZipFile(path / "arrays.npz", "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("a0.npy", payload)
        with np.load(path / "arrays.npz") as columns:
            assert columns["a0"].tolist() == [0, 1, 2, 3]
        with pytest.raises(SnapshotError, match="'a0'"):
            load_snapshot(path)

    @pytest.mark.parametrize("manifest", ["[1, 2]", "{}", '{"format": 1}'])
    def test_manifest_of_the_wrong_shape_is_refused(self, tmp_path, manifest):
        path = save_snapshot(tmp_path / "snap", {"x": 1})
        (path / "manifest.json").write_text(manifest)
        with pytest.raises(SnapshotError):
            load_snapshot(path)


#: A format-1 image (columns stored as-is, no manifest digest) written by the
#: format-1 writer: ``SSDGeometry.small()`` learnedftl after
#: ``fill_sequential(io_pages=16)`` and
#: 100 random 4-page overwrites (``random.Random(3)``, the stream of
#: ``tests/conftest.py::random_writes``).
FORMAT_1_IMAGE = Path(__file__).parent / "data" / "snapshot_format1"


class TestFormatOneImage:
    """Images written before the column encoding changed still load, unchanged."""

    def test_loads_and_restores_to_the_fingerprints_pinned_when_it_was_written(self):
        manifest = json.loads((FORMAT_1_IMAGE / "manifest.json").read_text())
        assert set(manifest) == {"format", "state"} and manifest["format"] == 1
        assert state_fingerprint(load_snapshot(FORMAT_1_IMAGE)) == (
            "10c13ff09dd894c518b76a217e524e0f0a13f5c39d9f99e91dd8b167a302a3c6"
        )
        restored = SSD.restore(FORMAT_1_IMAGE)
        restored.verify()
        assert state_fingerprint(restored.state_dict()) == (
            "d43cb4e104ec886e758396c830f44ef6c1bbb5907b020dd99ed5d50a269a3883"
        )

    def test_rewritten_in_the_current_format_it_loads_to_the_same_tree(self, tmp_path):
        state = load_snapshot(FORMAT_1_IMAGE)
        path = save_snapshot(tmp_path / "image", state)
        assert json.loads((path / "manifest.json").read_text())["format"] == (
            SNAPSHOT_FORMAT_VERSION
        )
        assert state_fingerprint(load_snapshot(path)) == state_fingerprint(state)
        assert sum(f.stat().st_size for f in path.iterdir()) < sum(
            f.stat().st_size for f in FORMAT_1_IMAGE.iterdir()
        )

    def test_a_format_1_manifest_with_format_2_fields_is_refused(self, tmp_path):
        image = shutil.copytree(FORMAT_1_IMAGE, tmp_path / "image")
        manifest = json.loads((image / "manifest.json").read_text())
        manifest["columns"] = {}
        (image / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format-1"):
            load_snapshot(image)


#: Integer values at and one past every narrowing boundary, and the extremes.
_BOUNDARY_INTS = sorted(
    {0, 1, -1}
    | {sign * 2**bits + delta for bits in (7, 8, 15, 16, 31, 32) for sign in (1, -1)
       for delta in (-1, 0, 1)}
    | {int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max), int(np.iinfo(np.uint64).max)}
)
_COLUMN_DTYPES = [
    np.dtype(f"{order}{kind}{size}")
    for kind in "iu" for size in (1, 2, 4, 8) for order in "<>"
] + [np.dtype("<f8"), np.dtype(">f8"), np.dtype("<f4"), np.dtype(bool)]


@st.composite
def _columns(draw) -> np.ndarray:
    """A column of any snapshot dtype, shape, memory layout and byte order."""
    dtype = draw(st.sampled_from(_COLUMN_DTYPES))
    shape = draw(st.sampled_from([(), (0,), (7,), (33,), (4, 5), (0, 3)]))
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        in_range = [value for value in _BOUNDARY_INTS if info.min <= value <= info.max]
        elements = st.sampled_from(in_range) | st.integers(int(info.min), int(info.max))
        column = hnp.arrays(dtype, shape, elements=elements)
    elif dtype.kind == "f":
        # Raw bit patterns: NaN payloads, -0.0, +-inf and subnormals included.
        bits = np.dtype(f"{dtype.byteorder}u{dtype.itemsize}")
        column = hnp.arrays(bits, shape).map(lambda raw: raw.view(dtype))
    else:
        column = hnp.arrays(dtype, shape)
    column = draw(column)
    layout = draw(st.sampled_from(["as-is", "strided", "transposed", "fortran"]))
    if layout == "strided" and column.ndim:
        column = np.repeat(column, 2, axis=0)[::2]
    elif layout == "transposed":
        column = column.T
    elif layout == "fortran":
        column = np.asfortranarray(column)
    return column


class TestColumnEncoding:
    """Narrowing and byte planes are lossless and take the narrowest dtype."""

    @settings(max_examples=150, deadline=None)
    @given(columns=st.lists(_columns(), min_size=1, max_size=4))
    def test_any_column_roundtrips_byte_for_byte(self, columns):
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_snapshot(save_snapshot(Path(tmp) / "snap", {"columns": columns}))
        assert len(loaded["columns"]) == len(columns)
        for original, column in zip(columns, loaded["columns"]):
            assert column.dtype == original.dtype and column.dtype.str == original.dtype.str
            assert column.shape == original.shape
            assert column.tobytes() == original.tobytes()

    @pytest.mark.parametrize(
        "values, dtype, stored",
        [
            ([-(2**7), 2**7 - 1], "<i8", "|i1"),
            ([-(2**7) - 1], "<i8", "<i2"),
            ([2**7], ">i4", "<i2"),
            ([2**15], "<i8", "<i4"),
            ([-(2**31)], "<i8", "<i4"),
            ([2**31], "<i8", "<i8"),
            ([int(np.iinfo(np.int64).min)], ">i8", "<i8"),
            ([2**8 - 1], "<u8", "|u1"),
            ([2**8], "<u8", "<u2"),
            ([2**32 - 1], "<u8", "<u4"),
            ([2**32], "<u8", "<u8"),
            ([], "<i8", "|i1"),
            ([1.0], "<f8", "<f8"),
            ([True], "|b1", "|b1"),
        ],
    )
    def test_column_is_stored_in_the_narrowest_dtype_of_its_kind(
        self, tmp_path, values, dtype, stored
    ):
        path = save_snapshot(tmp_path / "snap", {"x": np.asarray(values, dtype=dtype)})
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["columns"]["a0"] == {
            "dtype": np.dtype(dtype).str, "stored": stored, "shape": [len(values)]
        }
        with np.load(path / "arrays.npz") as members:
            member = members["a0"]
        width = np.dtype(stored).itemsize
        if width > 1:
            assert (member.dtype, member.shape) == (np.uint8, (width, len(values)))
        else:
            assert member.dtype == np.dtype(stored)

    @pytest.mark.parametrize(
        "member",
        [np.zeros((4, 3), np.uint8), np.zeros((8, 2), np.uint8), np.zeros(3, np.int32)],
        ids=["too-few-planes", "too-few-values", "not-planes"],
    )
    def test_a_member_that_disagrees_with_the_manifest_is_refused_by_column(
        self, tmp_path, member
    ):
        # The manifest says a1 is int64 stored as eight planes of three values.
        path = save_snapshot(
            tmp_path / "snap", {"x": np.arange(2), "y": np.asarray([0, 1, 2**40])}
        )
        with zipfile.ZipFile(path / "arrays.npz") as archive:
            kept = archive.read("a0.npy")
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, member)
        with zipfile.ZipFile(path / "arrays.npz", "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("a0.npy", kept)
            archive.writestr("a1.npy", buffer.getvalue())
        with pytest.raises(SnapshotError, match="'a1'") as excinfo:
            load_snapshot(path)
        assert "the manifest says" in str(excinfo.value)


class TestFaultSweep:
    """Seeded damage to either file: refused by name, or loaded bit-identical.

    ``arrays.npz`` is covered by zip's per-member CRC-32 and ``manifest.json``
    by the sha256 it carries, so any damage to either is seen.  Archive bytes
    are XORed with arbitrary masks; manifest bytes are inverted (invalid
    UTF-8) or have a single bit flipped (mostly still valid JSON, which only
    the digest can catch).
    """

    FLIPS = 200
    BIT_FLIPS = 3000

    def test_a_header_that_parses_with_a_warning_is_refused_without_one(self, tmp_path):
        # One byte: "fortran_order" -> "fortran\\order".  NumPy's header parser
        # warns about the invalid escape before it rejects the keys; the
        # warning is part of the damage, not something the reader may leak.
        path = save_snapshot(tmp_path / "snap", {"x": np.arange(3)})
        with zipfile.ZipFile(path / "arrays.npz") as archive:
            member = archive.read("a0.npy")
        damaged = member.replace(b"fortran_order", b"fortran\\order", 1)
        assert len(damaged) == len(member) and damaged != member
        with zipfile.ZipFile(path / "arrays.npz", "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("a0.npy", damaged)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SnapshotError, match="cannot read column 'a0'"):
                load_snapshot(path)
        assert caught == []

    @pytest.mark.parametrize("name", ["arrays.npz", "manifest.json"])
    def test_every_damaged_image_is_refused_or_loads_bit_identical(
        self, small_image, tmp_path, name
    ):
        pristine_image, sha = small_image
        image = shutil.copytree(pristine_image, tmp_path / "image")
        target = image / name
        pristine = target.read_bytes()
        size = len(pristine)
        rng = random.Random(20241)
        damaged = []
        for _ in range(self.FLIPS):
            data = bytearray(pristine)
            mask = rng.randrange(1, 256) if name == "arrays.npz" else 0xFF
            data[rng.randrange(size)] ^= mask
            damaged.append(bytes(data))
        damaged += [pristine[:cut] for cut in (0, 1, size // 3, size // 2, size - 1)]
        refused = 0
        for data in damaged:
            target.write_bytes(data)
            try:
                loaded = load_snapshot(image)
            except SnapshotError as exc:
                # Named cause: the path always, the member for a bad column.
                assert str(image) in str(exc)
                refused += 1
            else:
                # Anything but SnapshotError propagates and fails the test.
                assert state_fingerprint(loaded) == sha
        assert refused >= self.FLIPS // 2

    def test_every_single_bit_flip_of_the_manifest_is_refused_or_loads_bit_identical(
        self, small_image, tmp_path
    ):
        # Most of these flips leave valid JSON that only the digest can catch.
        pristine_image, sha = small_image
        image = shutil.copytree(pristine_image, tmp_path / "image")
        target = image / "manifest.json"
        pristine = target.read_bytes()
        rng = random.Random(20242)
        refused = 0
        for _ in range(self.BIT_FLIPS):
            data = bytearray(pristine)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            target.write_bytes(bytes(data))
            try:
                loaded = load_snapshot(image)
            except SnapshotError as exc:
                assert str(image) in str(exc)
                refused += 1
            else:
                assert state_fingerprint(loaded) == sha
        assert refused >= self.BIT_FLIPS * 9 // 10

    def test_store_counts_a_flipped_image_as_a_miss_and_repairs_it(self, tmp_path):
        store = SnapshotStore(tmp_path)
        ssd = SSD.create("learnedftl", SSDGeometry.small())
        ssd.fill_sequential(io_pages=16)
        key = store.key_for(
            ftl_name="learnedftl", geometry=SSDGeometry.small(), recipe={"warmup": "fill"}
        )
        path = store.save(key, ssd)
        flip_archive_payload_byte(path / "arrays.npz")
        assert store.load(key) is None
        assert (store.hits, store.misses) == (0, 1)
        assert not path.exists()
        assert store.save(key, ssd) == path and store.stores == 2
        restored = store.load(key)
        assert store.hits == 1
        assert state_fingerprint(restored.state_dict()) == state_fingerprint(ssd.state_dict())


class TestSnapshotStore:
    def _key(self, store, **overrides):
        params = dict(
            ftl_name="dftl",
            geometry=golden_geometry(),
            recipe={"warmup": "steady", "io_pages": 16, "overwrite_factor": 1.0,
                    "threads": 2, "seed": 7},
        )
        params.update(overrides)
        return store.key_for(**params)

    def test_key_distinguishes_inputs(self, tmp_path):
        store = SnapshotStore(tmp_path)
        base = self._key(store)
        assert base == self._key(store)
        assert base != self._key(store, ftl_name="tpftl")
        assert base != self._key(store, geometry=SSDGeometry.small())
        assert base != self._key(store, config=FTLConfig(cmt_ratio=0.5))
        other_recipe = {"warmup": "fill", "io_pages": 16, "overwrite_factor": 1.0,
                        "threads": 2, "seed": 7}
        assert base != self._key(store, recipe=other_recipe)

    def test_save_load_and_counters(self, tmp_path):
        store = SnapshotStore(tmp_path)
        ssd = SSD.create("dftl", golden_geometry())
        ssd.fill_sequential(io_pages=16)
        key = self._key(store)
        assert store.load(key) is None
        assert store.misses == 1
        store.save(key, ssd)
        assert store.contains(key)
        restored = store.load(key)
        assert restored is not None and store.hits == 1
        assert restored.stats.summary() == ssd.stats.summary()

    @pytest.mark.parametrize("corruption", [
        b"garbage",  # not zip-structured at all -> ValueError
        # A zip local-file-header prefix then truncation -> zipfile.BadZipFile,
        # which subclasses Exception directly and must still count as a miss.
        b"PK\x03\x04truncated",
    ])
    def test_corrupt_image_counts_as_miss_and_is_repaired(self, tmp_path, corruption):
        store = SnapshotStore(tmp_path)
        ssd = SSD.create("dftl", golden_geometry())
        ssd.fill_sequential(io_pages=16)
        key = self._key(store)
        path = store.save(key, ssd)
        (path / "arrays.npz").write_bytes(corruption)
        assert store.load(key) is None
        assert store.misses == 1
        # The bad image was dropped, so the rewarmed device can republish
        # under the same key and the next lookup hits again.
        assert not store.contains(key)
        store.save(key, ssd)
        assert store.load(key) is not None

    def test_save_is_idempotent(self, tmp_path):
        store = SnapshotStore(tmp_path)
        ssd = SSD.create("dftl", golden_geometry())
        ssd.fill_sequential(io_pages=16)
        key = self._key(store)
        first = store.save(key, ssd)
        second = store.save(key, ssd)
        assert first == second
        assert store.load(key) is not None


class TestWarmDevice:
    def test_first_call_materializes_second_restores(self, tmp_path):
        store = SnapshotStore(tmp_path)
        geometry = golden_geometry()
        kwargs = dict(warmup="steady", io_pages=16, overwrite_factor=0.5,
                      threads=2, seed=7, store=store)
        cold = warm_device("dftl", geometry, **kwargs)
        assert (store.hits, store.misses, store.stores) == (0, 1, 1)
        warm = warm_device("dftl", geometry, **kwargs)
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)
        assert warm.stats.summary() == cold.stats.summary()
        assert warm.now_us == cold.now_us
        # A restored device keeps simulating identically.
        reads = [HostRequest(op=OpType.READ, lpn=lpn, npages=1) for lpn in range(64)]
        assert cold.run(list(reads), threads=2).stats.summary() == \
            warm.run(list(reads), threads=2).stats.summary()

    def test_warmup_none_bypasses_the_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        warm_device("dftl", golden_geometry(), warmup="none", store=store)
        assert (store.hits, store.misses, store.stores) == (0, 0, 0)

    def test_unknown_warmup_mode_rejected(self):
        with pytest.raises(ValueError):
            warm_device("dftl", golden_geometry(), warmup="hot")

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -1.0])
    def test_unusable_overwrite_factor_is_refused(self, tmp_path, factor):
        # Refused before the store is consulted or a device is warmed (a NaN
        # used to fail inside the warm-up stream, -1 to skip the overwrites).
        store = SnapshotStore(tmp_path)
        message = f"overwrite_factor must be finite and >= 0, got {factor}"
        with pytest.raises(ConfigurationError, match=message):
            warm_device("dftl", golden_geometry(), overwrite_factor=factor, store=store)
        assert (store.hits, store.misses, store.stores) == (0, 0, 0)
        with pytest.raises(ConfigurationError, match=message):
            warmup_writes(golden_geometry(), overwrite_factor=factor)

    def test_prepare_ssd_uses_store_and_stays_identical(self, tmp_path):
        spec = ScaleSpec.for_scale("tiny")
        plain = prepare_ssd("leaftl", spec, warmup="steady")
        store = SnapshotStore(tmp_path)
        cold = prepare_ssd("leaftl", spec, warmup="steady", snapshot_store=store)
        warm = prepare_ssd("leaftl", spec, warmup="steady", snapshot_store=store)
        assert store.hits == 1 and store.misses == 1
        # All three devices are the same warm image (stats were reset).
        for device in (cold, warm):
            assert device.stats.summary() == plain.stats.summary()
            assert device.ftl.flash.total_programs == plain.ftl.flash.total_programs
            assert device.ftl.directory.state_dict()["mapped_count"] == \
                plain.ftl.directory.state_dict()["mapped_count"]


class TestExperimentIntegration:
    """Acceptance: a warm ``all --scale tiny`` rerun skips every fill phase."""

    def test_all_tiny_rerun_hits_every_snapshot(self, tmp_path, monkeypatch):
        import repro.experiments as experiments_package
        from repro.experiments import INTERNAL_EXPERIMENTS

        names = [name for name in EXPERIMENTS if name not in INTERNAL_EXPERIMENTS]
        snap_dir = tmp_path / "snapshots"

        # Record, per task, every key the cold run asks the store for (the
        # serial in-process backend calls run_experiment once per task).
        asked: dict[tuple, set[str]] = {}
        current: list[set[str]] = []
        run_experiment, load = experiments_package.run_experiment, SnapshotStore.load

        def recording_run(name, scale="default", **kwargs):
            task = ExperimentTask.create(name, **kwargs)
            current[:] = [asked.setdefault((task.experiment, task.kwargs), set())]
            return run_experiment(name, scale=scale, **kwargs)

        def recording_load(store, key):
            current[0].add(key)
            return load(store, key)

        monkeypatch.setattr(experiments_package, "run_experiment", recording_run)
        monkeypatch.setattr(SnapshotStore, "load", recording_load)
        cold = run_orchestrated(
            names, scale="tiny", jobs=1, snapshot_dir=snap_dir,
            cache_dir=tmp_path / "cache-cold",
        )
        monkeypatch.undo()
        assert all(outcome.ok for outcome in cold), [o.error for o in cold if not o.ok]
        store = runner_module.active_snapshot_store()
        assert store is not None and store.stores > 0

        # The dry run predicts exactly the keys each task asked for (no key
        # missing, none extra), and sees every one of them warm now.
        tasks = [task for name in names for task in plan_tasks(name)]
        assert len(asked) == len(tasks)
        for task in tasks:
            predicted = snapshot_keys(task, "tiny")
            assert len(predicted) == len(set(predicted))
            assert set(predicted) == asked[(task.experiment, task.kwargs)], task.label
        lines = describe_plan(names, scale="tiny", snapshot_dir=snap_dir)
        for task, line in zip(tasks, lines):
            keys = len(asked[(task.experiment, task.kwargs)])
            status = f"{keys}/{keys} warm" if keys else "none needed"
            assert line == f"{task.label}: cache no cache; snapshots: {status}"

        # Fresh result cache forces every task to re-execute; the warm images
        # must serve every single warm-up (zero misses == zero fill phases).
        store.reset_counters()
        warm = run_orchestrated(
            names, scale="tiny", jobs=1, snapshot_dir=snap_dir,
            cache_dir=tmp_path / "cache-warm",
        )
        assert all(outcome.ok for outcome in warm), [o.error for o in warm if not o.ok]
        assert store.misses == 0, "a warm rerun re-paid a fill phase"
        assert store.stores == 0
        assert store.hits > 0

        # And the snapshot-restored results are identical to the cold run.
        for cold_outcome, warm_outcome in zip(cold, warm):
            if cold_outcome.name == "fig15":
                continue  # measures real host CPU time
            assert cold_outcome.result.rows == warm_outcome.result.rows, cold_outcome.name

    def test_describe_plan_reports_cache_and_snapshots(self, tmp_path):
        lines = describe_plan(
            ["fig06", "table02"], scale="tiny",
            cache_dir=tmp_path / "cache", snapshot_dir=tmp_path / "snap",
        )
        assert any("fig06: cache miss; snapshots: 0/2 warm" in line for line in lines)
        assert any("table02: cache miss; snapshots: none needed" in line for line in lines)
        assert lines[-1].startswith("2 tasks planned")
