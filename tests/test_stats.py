"""Tests for :mod:`repro.ssd.stats`."""

from __future__ import annotations

import pytest

from repro.ssd.request import CommandKind, CommandPurpose, ReadOutcome, command_code
from repro.ssd.stats import GCEvent, LatencyDigest, SimulationStats


class TestCounters:
    def test_record_command_buckets_by_kind(self):
        stats = SimulationStats()
        stats.command_counts[command_code(CommandKind.READ, CommandPurpose.DATA_READ)] += 1
        stats.command_counts[command_code(CommandKind.PROGRAM, CommandPurpose.DATA_WRITE)] += 1
        stats.command_counts[command_code(CommandKind.ERASE, CommandPurpose.GC_ERASE)] += 1
        assert stats.total_flash_reads == 1
        assert stats.total_flash_programs == 1
        assert stats.total_flash_erases == 1

    @pytest.mark.parametrize("purpose", list(CommandPurpose), ids=lambda p: p.value)
    def test_totals_count_every_purpose(self, purpose):
        """A command counts toward its kind's total whatever the FTL issued it for."""
        stats = SimulationStats()
        stats.command_counts[command_code(CommandKind.READ, purpose)] += 2
        stats.command_counts[command_code(CommandKind.PROGRAM, purpose)] += 3
        stats.command_counts[command_code(CommandKind.ERASE, purpose)] += 5
        assert stats.total_flash_reads == 2
        assert stats.total_flash_programs == 3
        assert stats.total_flash_erases == 5


class TestRatios:
    def test_write_amplification(self):
        stats = SimulationStats()
        stats.host_write_pages = 10
        stats.command_counts[command_code(CommandKind.PROGRAM, CommandPurpose.DATA_WRITE)] = 15
        assert stats.write_amplification() == pytest.approx(1.5)

    def test_write_amplification_zero_writes(self):
        assert SimulationStats().write_amplification() == 0.0

    def test_cmt_hit_ratio(self):
        stats = SimulationStats()
        stats.cmt_lookups = 10
        stats.cmt_hits = 4
        assert stats.cmt_hit_ratio() == pytest.approx(0.4)
        assert SimulationStats().cmt_hit_ratio() == 0.0

    def test_outcome_fractions_sum_to_one(self):
        stats = SimulationStats()
        for outcome in (
            ReadOutcome.CMT_HIT,
            ReadOutcome.DOUBLE_READ,
            ReadOutcome.MODEL_HIT,
            ReadOutcome.TRIPLE_READ,
        ):
            stats.outcome_counts[outcome.code] += 1
        fractions = stats.outcome_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert stats.single_read_fraction() == pytest.approx(0.5)
        assert stats.double_read_fraction() == pytest.approx(0.25)
        assert stats.triple_read_fraction() == pytest.approx(0.25)

    def test_model_hit_ratio(self):
        stats = SimulationStats()
        stats.outcome_counts[ReadOutcome.MODEL_HIT.code] += 1
        stats.outcome_counts[ReadOutcome.DOUBLE_READ.code] += 1
        assert stats.model_hit_ratio() == pytest.approx(0.5)

    def test_empty_fractions(self):
        fractions = SimulationStats().outcome_fractions()
        assert all(value == 0.0 for value in fractions.values())


class TestThroughputAndLatency:
    def test_throughput_uses_page_size(self):
        stats = SimulationStats(page_size=4096)
        stats.host_read_pages = 1000
        stats.finish_time_us = 1_000_000  # one second
        assert stats.throughput_mb_s() == pytest.approx(4.096)
        assert stats.throughput_mb_s(page_size=8192) == pytest.approx(8.192)

    def test_throughput_zero_time(self):
        assert SimulationStats().throughput_mb_s() == 0.0

    def test_zero_duration_run_yields_finite_zero_metrics(self):
        # A zero-duration measurement interval (e.g. an empty replay) must
        # report 0.0 everywhere — never raise and never leak inf/nan into
        # experiment artifacts.
        import math

        stats = SimulationStats()
        stats.host_read_requests = 3  # requests recorded but no simulated time
        stats.host_read_pages = 3
        assert stats.throughput_mb_s() == 0.0
        assert stats.iops() == 0.0
        assert stats.utilization() == 0.0
        summary = stats.summary()
        assert all(math.isfinite(value) for value in summary.values()), summary
        assert summary["iops"] == 0.0 and summary["throughput_mb_s"] == 0.0

    def test_empty_replay_produces_zero_metrics(self):
        # End-to-end version of the guard: replaying an empty trace on a
        # fresh device touches every summary metric exactly once.
        import math

        from repro import SSD, SSDGeometry

        ssd = SSD.create("dftl", SSDGeometry.small())
        result = ssd.replay([])
        assert result.requests == 0 and result.elapsed_us == 0.0
        assert result.throughput_mb_s == 0.0
        assert result.stats.iops() == 0.0
        summary = result.stats.summary()
        assert all(math.isfinite(value) for value in summary.values()), summary

    def test_empty_closed_loop_run_produces_zero_metrics(self):
        from repro import SSD, SSDGeometry

        ssd = SSD.create("ideal", SSDGeometry.small())
        result = ssd.run([], threads=4)
        assert result.requests == 0
        assert result.throughput_mb_s == 0.0
        assert result.stats.iops() == 0.0

    def test_iops(self):
        stats = SimulationStats()
        stats.host_read_requests = 500
        stats.finish_time_us = 500_000
        assert stats.iops() == pytest.approx(1000.0)

    def test_latency_digest(self):
        digest = LatencyDigest.from_samples([1.0, 2.0, 3.0, 4.0, 100.0])
        assert digest.count == 5
        assert digest.max_us == 100.0
        assert digest.p50_us == pytest.approx(3.0)
        assert digest.p99_us <= digest.p999_us <= digest.max_us

    def test_latency_digest_empty(self):
        digest = LatencyDigest.from_samples([])
        assert digest.count == 0
        assert digest.p99_us == 0.0

    def test_record_latency_split_by_direction(self):
        stats = SimulationStats()
        stats.record_latency(True, 10.0)
        stats.record_latency(False, 20.0)
        assert stats.read_latency_digest().count == 1
        assert stats.write_latency_digest().count == 1


class TestGCAndCompute:
    def test_gc_event_aggregation(self):
        stats = SimulationStats()
        stats.gc_events.append(GCEvent(1.0, 1, 10, 2, 500.0, 5.0))
        stats.gc_events.append(GCEvent(2.0, 2, 20, 3, 700.0, 7.0))
        assert stats.gc_count == 2
        assert stats.gc_pages_moved == 30

    def test_compute_time_sum(self):
        stats = SimulationStats()
        stats.sort_time_us = 1.0
        stats.train_time_us = 2.0
        stats.predict_time_us = 3.0
        assert stats.compute_time_us() == pytest.approx(6.0)

    def test_summary_contains_headline_metrics(self):
        summary = SimulationStats().summary()
        for key in (
            "write_amplification",
            "cmt_hit_ratio",
            "throughput_mb_s",
            "gc_count",
            "iops",
            "read_p999_us",
            "utilization",
        ):
            assert key in summary


class TestUtilization:
    def test_no_engine_bound_is_zero(self):
        assert SimulationStats().utilization() == 0.0

    def test_utilization_from_chip_busy_time(self):
        stats = SimulationStats()
        stats.num_chips = 2
        stats.chip_busy_time_us = [50.0, 25.0]
        stats.finish_time_us = 100.0
        assert stats.utilization() == pytest.approx(0.375)


class TestLatencyColumns:
    def test_record_latencies_routes_by_direction(self):
        stats = SimulationStats()
        stats.record_latencies(True, [1.0, 2.0])
        stats.record_latencies(False, [3.0])
        stats.record_latency(True, 4.0)
        assert list(stats.read_latencies_us) == [1.0, 2.0, 4.0]
        assert list(stats.write_latencies_us) == [3.0]

    def test_state_roundtrip_preserves_latency_buffers(self):
        stats = SimulationStats()
        stats.record_latencies(True, [5.0, 6.0])
        stats.record_latencies(False, [7.0])
        restored = SimulationStats()
        restored.load_state(stats.state_dict())
        assert list(restored.read_latencies_us) == [5.0, 6.0]
        assert list(restored.write_latencies_us) == [7.0]

    def test_readers_leave_the_columns_appendable(self):
        # Readers copy the columns: a live buffer view would make the next
        # append raise BufferError, and a captured state would move with it.
        import numpy as np

        stats = SimulationStats()
        stats.record_latencies(True, [1.0, 2.0, 3.0])
        stats.record_latency(False, 4.0)
        stats.summary()
        digest = stats.read_latency_digest()
        state = stats.state_dict()
        captured = {key: state[key].copy() for key in ("read_latencies_us", "write_latencies_us")}
        stats.record_latency(True, 5.0)
        stats.record_latency(False, 6.0)
        stats.record_latencies(True, [7.0])
        assert list(stats.read_latencies_us) == [1.0, 2.0, 3.0, 5.0, 7.0]
        assert list(stats.write_latencies_us) == [4.0, 6.0]
        for key, column in captured.items():
            assert np.array_equal(state[key], column)
            assert state[key].dtype == np.float64
        assert digest.count == 3 and digest.max_us == 3.0


@pytest.mark.parametrize("size", [1, 2, 3, 1_001, 192_000])
def test_digest_equals_four_separate_percentiles(size):
    # Oracle: one np.percentile call over the four quantiles returns exactly
    # what four separate calls return.
    import numpy as np

    samples = np.random.default_rng(size).exponential(100.0, size)
    digest = LatencyDigest.from_samples(samples)
    expected = [float(np.percentile(samples, q)) for q in (50, 95, 99, 99.9)]
    assert [digest.p50_us, digest.p95_us, digest.p99_us, digest.p999_us] == expected
    assert digest.count == size
    assert digest.max_us == float(samples.max())
