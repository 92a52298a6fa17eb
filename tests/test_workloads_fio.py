"""Tests for the fio-style workload generator."""

from __future__ import annotations

import pytest

from repro.nand.errors import ConfigurationError
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import OpType
from repro.workloads.fio import FioJob, FioPattern, warmup_writes


@pytest.fixture
def geometry() -> SSDGeometry:
    return SSDGeometry.small()


class TestFioPattern:
    def test_read_classification(self):
        assert FioPattern.SEQ_READ.is_read and FioPattern.RAND_READ.is_read
        assert not FioPattern.SEQ_WRITE.is_read and not FioPattern.RAND_WRITE.is_read

    def test_sequential_classification(self):
        assert FioPattern.SEQ_READ.is_sequential and FioPattern.SEQ_WRITE.is_sequential
        assert not FioPattern.RAND_READ.is_sequential


class TestFioJob:
    def test_factories_set_pattern(self):
        assert FioJob.from_name("seqread", 10).pattern is FioPattern.SEQ_READ
        assert FioJob.randread(10).pattern is FioPattern.RAND_READ
        assert FioJob.from_name("seqwrite", 10).pattern is FioPattern.SEQ_WRITE
        assert FioJob.randwrite(10).pattern is FioPattern.RAND_WRITE

    def test_from_name(self):
        assert FioJob.from_name("randread", 5).pattern is FioPattern.RAND_READ
        with pytest.raises(ValueError):
            FioJob.from_name("bogus", 5)

    def test_fields_are_checked_when_built(self):
        # FioJob declares the fio workload kind: a name is held as the member,
        # and a bad field is refused naming it.
        assert FioJob("seqwrite", 5).pattern is FioPattern.SEQ_WRITE
        with pytest.raises(ConfigurationError, match="^pattern must be one of "):
            FioJob("bogus", 5)
        with pytest.raises(ConfigurationError, match=r"^span_fraction must be finite and in \(0, 1\]"):
            FioJob.randread(5, span_fraction=1.5)
        with pytest.raises(ConfigurationError, match="^num_requests must be positive"):
            FioJob.from_name("seqread", 0)

    def test_request_count(self, geometry):
        requests = list(FioJob.randread(123).requests(geometry))
        assert len(requests) == 123

    def test_sequential_requests_are_consecutive(self, geometry):
        requests = list(FioJob.from_name("seqread", 10, io_pages=4).requests(geometry))
        for first, second in zip(requests, requests[1:]):
            assert second.lpn == first.lpn + 4 or second.lpn == 0  # wrap allowed

    def test_sequential_wraps_at_span(self, geometry):
        count = geometry.num_logical_pages // 4 + 10
        requests = list(FioJob.from_name("seqwrite", count, io_pages=4).requests(geometry))
        assert all(req.lpn + req.npages <= geometry.num_logical_pages for req in requests)

    def test_random_requests_in_bounds(self, geometry):
        requests = list(FioJob.randwrite(500, io_pages=2).requests(geometry))
        assert all(0 <= req.lpn <= geometry.num_logical_pages - 2 for req in requests)
        # Not all identical (it is actually random).
        assert len({req.lpn for req in requests}) > 50

    def test_random_is_deterministic_per_seed(self, geometry):
        a = [r.lpn for r in FioJob.randread(50, seed=9).requests(geometry)]
        b = [r.lpn for r in FioJob.randread(50, seed=9).requests(geometry)]
        c = [r.lpn for r in FioJob.randread(50, seed=10).requests(geometry)]
        assert a == b
        assert a != c

    def test_op_type_matches_pattern(self, geometry):
        assert all(r.op is OpType.READ for r in FioJob.randread(10).requests(geometry))
        seqwrite = FioJob.from_name("seqwrite", 10)
        assert all(r.op is OpType.WRITE for r in seqwrite.requests(geometry))

    def test_span_fraction_limits_footprint(self, geometry):
        job = FioJob(FioPattern.RAND_READ, 300, span_fraction=0.1)
        max_lpn = max(r.lpn for r in job.requests(geometry))
        assert max_lpn < geometry.num_logical_pages * 0.11


class TestWarmupWrites:
    def test_emits_requested_volume(self, geometry):
        pages = sum(r.npages for r in warmup_writes(geometry, overwrite_factor=0.5, io_pages=16))
        assert pages >= geometry.num_logical_pages * 0.5

    def test_all_writes_in_bounds(self, geometry):
        for request in warmup_writes(geometry, overwrite_factor=0.2, io_pages=16):
            assert request.op is OpType.WRITE
            assert request.lpn + request.npages <= geometry.num_logical_pages

    def test_mixes_sequential_and_random(self, geometry):
        lpns = [r.lpn for r in warmup_writes(geometry, overwrite_factor=1.0, io_pages=8, random_fraction=0.5)]
        diffs = [b - a for a, b in zip(lpns, lpns[1:])]
        assert any(d == 8 for d in diffs)      # sequential runs exist
        assert any(abs(d) > 64 for d in diffs)  # random jumps exist
