"""Tests for the Filebench-style workload model."""

from __future__ import annotations

import pytest

from repro.nand.errors import ConfigurationError
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import OpType
from repro.workloads.filebench import FILEBENCH_PRESETS, FilebenchConfig, FilebenchWorkload


@pytest.fixture
def geometry() -> SSDGeometry:
    return SSDGeometry.small()


class TestPresets:
    def test_table_one_personalities_present(self):
        assert set(FILEBENCH_PRESETS) == {"fileserver", "webserver", "varmail"}

    def test_table_one_values(self):
        fileserver = FILEBENCH_PRESETS["fileserver"]
        assert fileserver.file_count == 225_000
        assert fileserver.file_size_kb == 128
        assert fileserver.threads == 50
        webserver = FILEBENCH_PRESETS["webserver"]
        assert webserver.file_count == 825_000
        assert webserver.file_size_kb == 16
        assert webserver.threads == 64
        varmail = FILEBENCH_PRESETS["varmail"]
        assert varmail.file_count == 475_000
        assert varmail.threads == 64

    def test_read_mix_ordering(self):
        """webserver is read heavy, fileserver write heavy, varmail in between."""
        assert (
            FILEBENCH_PRESETS["webserver"].read_fraction
            > FILEBENCH_PRESETS["varmail"].read_fraction
            > FILEBENCH_PRESETS["fileserver"].read_fraction
        )

    def test_unknown_preset_rejected(self, geometry):
        with pytest.raises(ConfigurationError):
            FilebenchWorkload.preset("database", geometry)


class TestLayout:
    def test_files_scaled_to_device(self, geometry):
        workload = FilebenchWorkload.preset("webserver", geometry)
        assert 0 < len(workload._files) < FILEBENCH_PRESETS["webserver"].file_count
        assert workload.threads == 64

    def test_files_fit_in_logical_space(self, geometry):
        workload = FilebenchWorkload.preset("fileserver", geometry)
        last = workload._files[-1]
        assert last.start_lpn + last.npages <= geometry.num_logical_pages

    def test_device_too_small_raises(self):
        tiny = SSDGeometry.small(blocks_per_plane=2, pages_per_block=4, page_size=512)
        config = FilebenchConfig(
            name="huge", file_count=10, file_size_kb=1024, read_fraction=0.5,
            append_fraction=0.5, whole_file_fraction=0.5, threads=4,
        )
        with pytest.raises(ConfigurationError):
            FilebenchWorkload(config, tiny)


class TestRequestStreams:
    def test_preconditioning_touches_every_file(self, geometry):
        workload = FilebenchWorkload.preset("varmail", geometry)
        requests = list(workload.preconditioning())
        assert len(requests) == len(workload._files)
        assert all(r.op is OpType.WRITE for r in requests)

    def test_requests_in_bounds(self, geometry):
        workload = FilebenchWorkload.preset("fileserver", geometry)
        for request in workload.requests(500):
            assert request.lpn >= 0
            assert request.lpn + request.npages <= geometry.num_logical_pages

    def test_read_fraction_respected(self, geometry):
        workload = FilebenchWorkload.preset("webserver", geometry)
        requests = list(workload.requests(2_000))
        reads = sum(1 for r in requests if r.op is OpType.READ)
        assert reads / len(requests) == pytest.approx(0.92, abs=0.05)

    def test_fileserver_is_write_heavy(self, geometry):
        workload = FilebenchWorkload.preset("fileserver", geometry)
        requests = list(workload.requests(2_000))
        writes = sum(1 for r in requests if r.op is OpType.WRITE)
        assert writes > len(requests) / 2

    def test_streams_are_deterministic_per_seed(self, geometry):
        a = [(r.op, r.lpn) for r in FilebenchWorkload.preset("varmail", geometry, seed=3).requests(200)]
        b = [(r.op, r.lpn) for r in FilebenchWorkload.preset("varmail", geometry, seed=3).requests(200)]
        assert a == b
