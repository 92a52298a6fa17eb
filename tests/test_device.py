"""Tests for the SSD device façade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nand.errors import ConfigurationError
from repro.ssd.device import FTL_REGISTRY, SSD, create_ftl
from repro.ssd.request import HostRequest, OpType
from tests.conftest import ALL_FTL_NAMES, random_reads, random_writes


class TestCreation:
    def test_registry_contains_all_designs(self):
        assert set(FTL_REGISTRY) == set(ALL_FTL_NAMES)

    def test_create_by_name(self, tiny_geometry, ftl_name):
        ssd = SSD.create(ftl_name, tiny_geometry)
        assert ssd.ftl.name == ftl_name
        assert ssd.geometry is tiny_geometry

    def test_create_unknown_name(self, tiny_geometry):
        with pytest.raises(ConfigurationError):
            create_ftl("nope", tiny_geometry)

    def test_stats_page_size_follows_geometry(self, tiny_geometry):
        ssd = SSD.create("dftl", tiny_geometry)
        assert ssd.stats.page_size == tiny_geometry.page_size


class TestSubmitAndRun:
    def test_submit_advances_clock(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        finish = ssd.submit(HostRequest(op=OpType.WRITE, lpn=0))
        assert finish > 0
        assert ssd.now_us == finish

    def test_run_returns_request_count(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        result = ssd.run([HostRequest(op=OpType.WRITE, lpn=i) for i in range(20)], threads=2)
        assert result.requests == 20
        assert result.elapsed_us > 0
        assert result.stats.iops() > 0

    def test_run_rejects_bad_thread_count(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        with pytest.raises(ConfigurationError):
            ssd.run([], threads=0)

    def test_more_threads_never_slower_for_reads(self, tiny_geometry):
        elapsed = {}
        for threads in (1, 4):
            ssd = SSD.create("ideal", tiny_geometry)
            ssd.fill_sequential(io_pages=8)
            ssd.reset_stats()
            result = ssd.run(random_reads(tiny_geometry, 200), threads=threads)
            elapsed[threads] = result.elapsed_us
        assert elapsed[4] <= elapsed[1]

    def test_latencies_recorded_per_direction(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.run(
            [HostRequest(op=OpType.WRITE, lpn=0), HostRequest(op=OpType.READ, lpn=0)], threads=1
        )
        assert ssd.stats.write_latency_digest().count == 1
        assert ssd.stats.read_latency_digest().count == 1


_COUNT_ARGUMENTS = ("threads", "batch", "streams", "io_pages")
_NOT_COUNTS = (2.5, "4", True, False, np.bool_(True), None)


class TestCountArguments:
    """Counts given to the device entry points must be integers: a float or a
    string used to escape as a bare ``TypeError``, a bool to run as 1."""

    @staticmethod
    def _calls(ssd):
        writes = [HostRequest(op=OpType.WRITE, lpn=0)]
        return {
            "threads": lambda value: ssd.run(writes, threads=value),
            "batch": lambda value: ssd.run(writes, batch=value),
            "streams": lambda value: ssd.replay(writes, streams=value),
            "io_pages": lambda value: ssd.fill_sequential(io_pages=value),
        }

    @pytest.mark.parametrize(
        ("argument", "value"),
        [(name, value) for name in _COUNT_ARGUMENTS for value in _NOT_COUNTS],
        ids=repr,
    )
    def test_non_integers_are_refused_by_name(self, tiny_geometry, argument, value):
        ssd = SSD.create("ideal", tiny_geometry)
        with pytest.raises(ConfigurationError, match=rf"^{argument} must be an integer, got "):
            self._calls(ssd)[argument](value)
        assert ssd.stats.host_write_requests == 0

    @pytest.mark.parametrize("argument", _COUNT_ARGUMENTS)
    def test_numpy_integers_still_count(self, tiny_geometry, argument):
        plain, numpy = SSD.create("ideal", tiny_geometry), SSD.create("ideal", tiny_geometry)
        self._calls(plain)[argument](4)
        self._calls(numpy)[argument](np.int64(4))
        assert numpy.stats.summary() == plain.stats.summary()


class TestReplay:
    def test_replay_honours_arrival_times(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        requests = [
            HostRequest(op=OpType.READ, lpn=1, issue_time_us=0.0),
            HostRequest(op=OpType.READ, lpn=2, issue_time_us=100_000.0),
        ]
        result = ssd.replay(requests, streams=1)
        assert result.stats.finish_time_us >= 100_000.0

    def test_replay_multiple_streams(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        requests = [
            HostRequest(op=OpType.READ, lpn=i, issue_time_us=0.0, stream_id=i % 3) for i in range(9)
        ]
        result = ssd.replay(requests, streams=3)
        assert result.requests == 9

    def test_same_stream_serializes_even_with_simultaneous_arrivals(self, tiny_geometry):
        # Both requests arrive at t=0 on the same stream: the second is issued
        # only when the first completes (open-loop per-stream ordering).
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        requests = [
            HostRequest(op=OpType.READ, lpn=0, issue_time_us=0.0, stream_id=0),
            HostRequest(op=OpType.READ, lpn=1, issue_time_us=0.0, stream_id=0),
        ]
        result = ssd.replay(requests, streams=1)
        read_us = ssd.timing.read_us
        assert result.elapsed_us == pytest.approx(2 * read_us)
        # The second request waited on the stream, not on a chip: its latency
        # starts at its (deferred) issue, so both latencies equal one read.
        assert ssd.stats.read_latencies_us == pytest.approx([read_us, read_us])

    def test_distinct_streams_overlap(self, tiny_geometry):
        # Same two arrivals on two streams: lpns 0 and 1 live on different
        # chips after a sequential fill, so the reads fully overlap.
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        requests = [
            HostRequest(op=OpType.READ, lpn=0, issue_time_us=0.0, stream_id=0),
            HostRequest(op=OpType.READ, lpn=1, issue_time_us=0.0, stream_id=1),
        ]
        result = ssd.replay(requests, streams=2)
        assert result.elapsed_us == pytest.approx(ssd.timing.read_us)

    def test_stream_id_wraps_modulo_streams(self, tiny_geometry):
        # stream_id beyond the stream count maps onto slot (stream_id % streams),
        # so ids 0 and 2 with streams=2 share a slot and serialize.
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        requests = [
            HostRequest(op=OpType.READ, lpn=0, issue_time_us=0.0, stream_id=0),
            HostRequest(op=OpType.READ, lpn=1, issue_time_us=0.0, stream_id=2),
        ]
        result = ssd.replay(requests, streams=2)
        assert result.elapsed_us == pytest.approx(2 * ssd.timing.read_us)

    def test_arrival_after_stream_free_delays_issue(self, tiny_geometry):
        # A late arrival on an idle stream is issued at its arrival time, not
        # at the stream's free time.
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        requests = [
            HostRequest(op=OpType.READ, lpn=0, issue_time_us=0.0, stream_id=0),
            HostRequest(op=OpType.READ, lpn=1, issue_time_us=500.0, stream_id=0),
        ]
        result = ssd.replay(requests, streams=1)
        assert result.stats.finish_time_us == pytest.approx(500.0 + ssd.timing.read_us)
        # Idle gap between the two requests is not billed to either latency.
        assert ssd.stats.read_latencies_us == pytest.approx(
            [ssd.timing.read_us, ssd.timing.read_us]
        )

    def test_replay_rejects_bad_stream_count(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        with pytest.raises(ConfigurationError):
            ssd.replay([], streams=0)


class TestPreconditioningAndReset:
    def test_fill_sequential_maps_everything(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        assert len(ssd.ftl.directory) == tiny_geometry.num_logical_pages

    def test_fill_fraction(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8, fraction=0.5)
        assert len(ssd.ftl.directory) == pytest.approx(tiny_geometry.num_logical_pages // 2, abs=8)

    def test_reset_stats_preserves_ftl_state(self, tiny_geometry):
        ssd = SSD.create("dftl", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        warm = ssd.reset_stats()
        assert warm.host_write_pages > 0
        assert ssd.stats.host_write_pages == 0
        assert ssd.now_us == 0.0
        assert len(ssd.ftl.directory) == tiny_geometry.num_logical_pages
        assert ssd.stats is ssd.ftl.stats

    def test_reset_stats_starts_a_fresh_measurement_interval(self, tiny_geometry):
        # The measured phase must not inherit warm-up latencies, chip busy
        # time, command counts or the simulated clock.
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        warm = ssd.reset_stats()
        assert warm.finish_time_us > 0.0
        assert warm.utilization() > 0.0  # warm stats keep their own busy time
        assert ssd.stats.finish_time_us == 0.0
        assert ssd.stats.total_flash_reads == 0
        assert list(ssd.stats.read_latencies_us) == []
        assert sum(ssd.stats.chip_busy_time_us) == 0.0
        ssd.run(random_reads(tiny_geometry, 50), threads=2)
        measured = ssd.stats
        assert measured.host_read_requests == 50
        assert measured.finish_time_us > 0.0
        # The fresh engine rebinds chip occupancy to the new stats object.
        assert measured.num_chips == tiny_geometry.num_chips
        assert 0.0 < measured.utilization() <= 1.0
        # Warm-up counters are untouched by the measured phase.
        assert warm.host_read_requests == 0

    def test_reset_stats_decouples_warm_busy_time(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        warm = ssd.reset_stats()
        warm_busy = sum(warm.chip_busy_time_us)
        ssd.run(random_reads(tiny_geometry, 20), threads=1)
        assert sum(warm.chip_busy_time_us) == warm_busy  # alias points at the old timeline

    def test_energy_reflects_activity(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        baseline = ssd.energy_model.evaluate(ssd.stats).total_uj
        ssd.fill_sequential(io_pages=8)
        assert ssd.energy_model.evaluate(ssd.stats).total_uj > baseline

    def test_verify_passes_on_fresh_and_filled_device(self, tiny_geometry, ftl_name):
        ssd = SSD.create(ftl_name, tiny_geometry)
        ssd.verify()
        ssd.fill_sequential(io_pages=8)
        ssd.verify()

    def test_verify_names_what_is_wrong_with_the_first_bad_lpn(self, tiny_geometry):
        """One columnar pass finds the offender; the messages are the per-page ones."""

        def corrupted():
            ssd = SSD.create("ideal", tiny_geometry)
            ssd.fill_sequential(io_pages=8)
            return ssd, ssd.ftl.flash, ssd.ftl.directory

        ssd, flash, directory = corrupted()
        ppn = directory.lookup(9)
        flash.invalidate(ppn)
        with pytest.raises(AssertionError, match=f"lpn 9 maps to non-valid ppn {ppn}"):
            ssd.verify()

        ssd, flash, directory = corrupted()
        other = directory.lookup(30)
        directory.update(12, other)
        directory.update(40, other)  # a later offender: the first one is reported
        with pytest.raises(AssertionError, match=f"lpn 12 maps to ppn {other} holding lpn 30"):
            ssd.verify()

        ssd, flash, directory = corrupted()
        stale = directory.lookup(20)
        newer = ssd.ftl.allocator.allocate_data_one()
        flash.program_data(newer, 20)  # a newer copy the mapping does not point at
        with pytest.raises(
            AssertionError, match=rf"lpn 20 maps to ppn {stale} but newest copy is \({newer}, \d+\)"
        ):
            ssd.verify()


class TestDegeneratePreconditioning:
    """Request sizes that cannot fit the logical space must be rejected with a
    clear error instead of producing negative/degenerate request streams."""

    def test_fill_rejects_nonpositive_io_pages(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        with pytest.raises(ConfigurationError, match="io_pages"):
            ssd.fill_sequential(io_pages=0)
        with pytest.raises(ConfigurationError, match="io_pages"):
            ssd.fill_sequential(io_pages=-8)

    def test_fill_rejects_io_pages_beyond_logical_space(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        with pytest.raises(ConfigurationError, match="exceeds the logical space"):
            ssd.fill_sequential(io_pages=tiny_geometry.num_logical_pages + 1)

    def test_fill_rejects_bad_fraction(self, tiny_geometry):
        ssd = SSD.create("ideal", tiny_geometry)
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError, match="fraction"):
                ssd.fill_sequential(io_pages=8, fraction=fraction)

    def test_overwrite_with_large_io_pages_still_works(self, tiny_geometry):
        # A 32-page request (well past typical 1-8 page conditioning writes,
        # but within the over-provisioning slack GC maintains) is served.
        ssd = SSD.create("ideal", tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        before = ssd.stats.host_write_pages
        ssd.run(random_writes(ssd.geometry, 2, seed=7, npages=32), threads=1)
        assert ssd.stats.host_write_pages - before == 64
        ssd.verify()


class TestHostPageAccounting:
    """Every FTL counts host requests and pages the same way, whatever it does below."""

    @pytest.mark.parametrize("npages", [1, 4])
    def test_writes_count_every_page(self, tiny_geometry, ftl_name, npages):
        ssd = SSD.create(ftl_name, tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        ssd.run(random_writes(ssd.geometry, 40, seed=5, npages=npages), threads=2)
        assert ssd.stats.host_write_requests == 40
        assert ssd.stats.host_write_pages == 40 * npages
        assert ssd.stats.write_amplification() >= 1.0
        ssd.verify()

    def test_reads_classify_every_page(self, tiny_geometry, ftl_name):
        ssd = SSD.create(ftl_name, tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        ssd.reset_stats()
        ssd.run(random_reads(ssd.geometry, 30, seed=6, npages=3), threads=2)
        assert ssd.stats.host_read_requests == 30
        assert ssd.stats.host_read_pages == 90
        assert sum(ssd.stats.outcome_counts) == 90

