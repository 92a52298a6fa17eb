"""Tests for the synthetic stream helpers and address distributions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.geometry import SSDGeometry
from repro.ssd.request import OpType
from repro.workloads.synthetic import (
    hotspot_stream,
    mixed_stream,
    zipf_reads,
)
from repro.workloads.zipf import HotspotGenerator, ZipfGenerator


@pytest.fixture
def geometry() -> SSDGeometry:
    return SSDGeometry.small()


class TestZipfGenerator:
    def test_samples_in_range(self):
        gen = ZipfGenerator(100, theta=0.99, seed=1)
        assert all(0 <= gen.sample() < 100 for _ in range(500))

    def test_skew_concentrates_mass(self):
        gen = ZipfGenerator(1000, theta=1.2, seed=2)
        samples = [gen.sample() for _ in range(3000)]
        top = sorted({v: samples.count(v) for v in set(samples)}.values(), reverse=True)[:100]
        assert sum(top) > len(samples) * 0.4

    def test_theta_zero_is_roughly_uniform(self):
        gen = ZipfGenerator(50, theta=0.0, seed=3)
        samples = [gen.sample() for _ in range(5000)]
        counts = [samples.count(v) for v in range(50)]
        assert max(counts) < 5 * min(counts) + 20

    def test_deterministic_per_seed(self):
        first, second = ZipfGenerator(64, seed=5), ZipfGenerator(64, seed=5)
        assert [first.sample() for _ in range(50)] == [second.sample() for _ in range(50)]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, theta=-1)


class TestHotspotGenerator:
    def test_samples_in_range(self):
        gen = HotspotGenerator(200, seed=1)
        assert all(0 <= v < 200 for v in gen.sample_many(500))

    def test_hot_region_receives_most_traffic(self):
        gen = HotspotGenerator(1000, hot_fraction=0.1, hot_probability=0.9, seed=2)
        samples = gen.sample_many(4000)
        hot = range(gen._hot_start, gen._hot_start + gen._hot_size)
        in_hot = sum(1 for v in samples if v in hot)
        assert in_hot / len(samples) > 0.7

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HotspotGenerator(0)
        with pytest.raises(ValueError):
            HotspotGenerator(10, hot_fraction=1.5)
        with pytest.raises(ValueError):
            HotspotGenerator(10, hot_probability=0.0)


STREAMS = (mixed_stream, zipf_reads, hotspot_stream)


class TestStreams:
    def test_mixed_stream_ratio(self, geometry):
        requests = list(mixed_stream(geometry, num_requests=2000, read_fraction=0.7))
        reads = sum(1 for r in requests if r.op is OpType.READ)
        assert reads / len(requests) == pytest.approx(0.7, abs=0.05)

    def test_zipf_reads_are_reads(self, geometry):
        assert all(r.op is OpType.READ for r in zipf_reads(geometry, num_requests=100))

    def test_hotspot_stream_bounds(self, geometry):
        for request in hotspot_stream(geometry, num_requests=500):
            assert 0 <= request.lpn < geometry.num_logical_pages

    @pytest.mark.parametrize("stream", STREAMS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("io_pages", [1, 8])
    def test_multi_page_requests_fit_the_logical_space(self, geometry, stream, io_pages):
        requests = list(stream(geometry, num_requests=400, io_pages=io_pages))
        assert all(r.npages == io_pages for r in requests)
        assert all(0 <= r.lpn and r.lpn + r.npages <= geometry.num_logical_pages for r in requests)

    @pytest.mark.parametrize("stream", STREAMS, ids=lambda f: f.__name__)
    def test_stream_is_deterministic_per_seed(self, geometry, stream):
        def draw(seed):
            return [(r.op, r.lpn) for r in stream(geometry, num_requests=200, seed=seed)]

        assert draw(3) == draw(3)
        assert draw(3) != draw(4)

    @given(read_fraction=st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_mixed_stream_any_ratio_in_bounds(self, read_fraction):
        geometry = SSDGeometry.small()
        for request in mixed_stream(geometry, num_requests=50, read_fraction=read_fraction):
            assert 0 <= request.lpn < geometry.num_logical_pages
