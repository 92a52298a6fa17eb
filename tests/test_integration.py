"""Cross-FTL integration and property tests.

These tests drive every FTL design through the same workloads and check the
invariants the paper's comparison rests on:

* every design stays *correct* (each LPN resolves to its newest physical copy)
  no matter how the workload mixes reads, writes and GC pressure;
* the qualitative ordering of the designs matches the paper: LearnedFTL turns
  most random-read CMT misses into single reads, the demand-based baselines pay
  double reads, and the ideal FTL is the single-read upper bound.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nand.flash import PAGE_FREE
from repro.nand.geometry import SSDGeometry
from repro.ssd.device import SSD
from repro.ssd.request import (
    KIND_BY_CODE,
    OP_STRIDE,
    CommandKind,
    HostRequest,
    OpType,
    command_code,
)
from repro.workloads.fio import FioJob
from tests.conftest import ALL_FTL_NAMES, make_ssd, random_reads, random_writes


class TestCorrectnessAcrossDesigns:
    def test_integrity_after_sequential_then_random(self, tiny_geometry, ftl_name):
        ssd = make_ssd(ftl_name, tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(tiny_geometry, 700, seed=31), threads=2)
        ssd.run(random_reads(tiny_geometry, 300, seed=32), threads=2)
        ssd.verify()

    def test_integrity_with_multi_page_requests(self, tiny_geometry, ftl_name):
        ssd = make_ssd(ftl_name, tiny_geometry)
        ssd.fill_sequential(io_pages=16)
        ssd.run(random_writes(tiny_geometry, 400, seed=33, npages=4), threads=4)
        ssd.verify()

    def test_every_mapped_lpn_readable(self, tiny_geometry, ftl_name):
        ssd = make_ssd(ftl_name, tiny_geometry)
        ssd.fill_sequential(io_pages=8)
        ssd.run(random_writes(ssd.geometry, 300, seed=34), threads=1)
        for lpn in range(0, tiny_geometry.num_logical_pages, 13):
            buffer = ssd.ftl.encode(HostRequest(op=OpType.READ, lpn=lpn))
            assert len(buffer.outcome_codes) == 1
        ssd.verify()

    def test_all_host_writes_become_flash_programs(self, tiny_geometry, ftl_name):
        ssd = make_ssd(ftl_name, tiny_geometry)
        ssd.run(random_writes(tiny_geometry, 200, seed=35), threads=1)
        from repro.ssd.request import CommandPurpose

        data_writes = command_code(CommandKind.PROGRAM, CommandPurpose.DATA_WRITE)
        assert ssd.stats.command_counts[data_writes] == ssd.stats.host_write_pages


class TestPaperOrderings:
    @pytest.fixture(scope="class")
    def randread_stats(self):
        """Run the same warmed random-read workload on every design once.

        Built class-scoped (one warm-up per design for the whole class), so the
        geometry is constructed here rather than via the function-scoped
        ``tiny_geometry`` fixture.
        """
        from repro.nand.geometry import SSDGeometry

        geometry = SSDGeometry.small(
            channels=2,
            chips_per_channel=2,
            planes_per_chip=1,
            blocks_per_plane=12,
            pages_per_block=16,
            page_size=512,
            op_ratio=0.25,
        )
        results = {}
        for name in ALL_FTL_NAMES:
            ssd = SSD.create(name, geometry)
            ssd.fill_sequential(io_pages=16)
            ssd.run(random_writes(ssd.geometry, 150, seed=41, npages=4), threads=1)
            ssd.reset_stats()
            ssd.run(FioJob.randread(600, seed=42).requests(geometry), threads=4)
            ssd.verify()
            results[name] = ssd.stats
        return results

    def test_ideal_has_no_double_reads(self, randread_stats):
        assert randread_stats["ideal"].double_read_fraction() == 0.0

    def test_learnedftl_mostly_single_reads(self, randread_stats):
        assert randread_stats["learnedftl"].single_read_fraction() > 0.6

    def test_demand_ftls_mostly_double_reads(self, randread_stats):
        assert randread_stats["dftl"].double_read_fraction() > 0.6
        assert randread_stats["tpftl"].double_read_fraction() > 0.6

    def test_learnedftl_beats_demand_ftls_on_randread(self, randread_stats):
        learned = randread_stats["learnedftl"].throughput_mb_s()
        assert learned > randread_stats["dftl"].throughput_mb_s()
        assert learned > randread_stats["tpftl"].throughput_mb_s()

    def test_learnedftl_close_to_ideal(self, randread_stats):
        ideal = randread_stats["ideal"].throughput_mb_s()
        assert randread_stats["learnedftl"].throughput_mb_s() > 0.7 * ideal

    def test_leaftl_suffers_triple_reads(self, randread_stats):
        leaftl = randread_stats["leaftl"]
        assert leaftl.double_read_fraction() + leaftl.triple_read_fraction() > 0.2

    def test_only_learned_designs_have_model_hits(self, randread_stats):
        assert randread_stats["dftl"].model_hit_ratio() == 0.0
        assert randread_stats["tpftl"].model_hit_ratio() == 0.0
        assert randread_stats["learnedftl"].model_hit_ratio() > 0.3

    def test_tail_latency_ordering(self, randread_stats):
        learned_p99 = randread_stats["learnedftl"].read_latency_digest().p99_us
        tpftl_p99 = randread_stats["tpftl"].read_latency_digest().p99_us
        assert learned_p99 <= tpftl_p99


class TestDataEquivalenceProperty:
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["read", "write"]),
                st.integers(0, 199),
                st.integers(1, 4),
            ),
            min_size=10,
            max_size=80,
        )
    )
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_all_ftls_expose_identical_logical_state(self, operations):
        """Property: after any request sequence, every FTL maps the same LPNs
        and each maps them to its own newest flash copy."""
        from repro.nand.geometry import SSDGeometry

        geometry = SSDGeometry.small(
            channels=2,
            chips_per_channel=2,
            planes_per_chip=1,
            blocks_per_plane=12,
            pages_per_block=16,
            page_size=512,
            op_ratio=0.25,
        )
        mapped_sets = {}
        for name in ("dftl", "leaftl", "learnedftl", "ideal"):
            ssd = SSD.create(name, geometry)
            for op, lpn, npages in operations:
                npages = min(npages, geometry.num_logical_pages - lpn)
                request = HostRequest(
                    op=OpType.READ if op == "read" else OpType.WRITE, lpn=lpn, npages=npages
                )
                ssd.submit(request)
            ssd.verify()
            mapped_sets[name] = set(np.flatnonzero(ssd.ftl.directory._ppn_view >= 0))
        reference = mapped_sets["ideal"]
        for name, mapped in mapped_sets.items():
            assert mapped == reference, f"{name} exposes a different logical state"


class TestConcurrencyScaling:
    def test_parallel_threads_speed_up_random_reads(self, tiny_geometry):
        elapsed = {}
        for threads in (1, 4):
            ssd = make_ssd("learnedftl", tiny_geometry)
            ssd.fill_sequential(io_pages=16)
            ssd.reset_stats()
            result = ssd.run(random_reads(tiny_geometry, 400, seed=51), threads=threads)
            elapsed[threads] = result.elapsed_us
        assert elapsed[4] < elapsed[1]

    def test_replay_and_run_agree_on_flash_work(self, tiny_geometry):
        """Open-loop replay and closed-loop run issue the same flash commands."""
        requests = random_reads(tiny_geometry, 200, seed=52)
        totals = []
        for mode in ("run", "replay"):
            ssd = make_ssd("tpftl", tiny_geometry)
            ssd.fill_sequential(io_pages=8)
            ssd.reset_stats()
            if mode == "run":
                ssd.run(list(requests), threads=2)
            else:
                ssd.replay(list(requests), streams=2)
            totals.append(ssd.stats.total_flash_reads)
        assert totals[0] == totals[1]


class TestFlashTotalsMatchTheEngine:
    """The flash array and the timing engine count the same flash work.

    A fill plus 6 000 single-page overwrites of ``small()`` runs data or
    group GC on every design and translation-pool GC on DFTL, TPFTL and
    LearnedFTL; a page one layer counts twice, or misses, shows as a
    difference between ``FlashArray``'s totals and the engine's per-command
    counts.
    """

    def test_totals_after_fill_and_overwrites(self, ftl_name):
        ssd = make_ssd(ftl_name, SSDGeometry.small())
        ssd.fill_sequential()
        ssd.run(random_writes(ssd.geometry, 6000, seed=7), threads=1)
        flash, stats = ssd.ftl.flash, ssd.stats
        assert stats.gc_events
        assert (flash.total_reads, flash.total_programs, flash.total_erases) == (
            stats.total_flash_reads,
            stats.total_flash_programs,
            stats.total_flash_erases,
        )

    def test_totals_after_leaftl_probes_free_pages(self):
        """A LeaFTL misprediction can point at a page never programmed; the
        probe is a flash read on both layers.  A 90 % fill, random
        overwrites inside it and random reads over the whole space make
        such probes (about a hundred)."""
        ssd = make_ssd("leaftl", SSDGeometry.small())
        ssd.fill_sequential(fraction=0.9)
        ftl = ssd.ftl
        free_probes = []
        probe = ftl.probe_read_command

        def spy(stage, ppn):
            free_probes.append(ftl.flash.page_state_code(ppn) == PAGE_FREE)
            probe(stage, ppn)

        ftl.probe_read_command = spy
        rng = random.Random(3)
        limit = int(ssd.geometry.num_logical_pages * 0.9) - 1
        ssd.run([HostRequest(OpType.WRITE, rng.randrange(limit)) for _ in range(2000)], threads=1)
        ssd.run(random_reads(ssd.geometry, 3000, seed=4), threads=1)
        assert sum(free_probes) > 0
        flash, stats = ftl.flash, ssd.stats
        assert (flash.total_reads, flash.total_programs, flash.total_erases) == (
            stats.total_flash_reads,
            stats.total_flash_programs,
            stats.total_flash_erases,
        )


class TestGCFlashTime:
    """A GC event's flash time is the sum of the latencies of the commands
    that collection encoded, whatever their kind: the translation stage's
    read-modify-write reads, and any translation-pool GC reads, programs
    and erase, included."""

    @pytest.mark.parametrize(
        "ftl_name,collector",
        [("dftl", "_collect_block"), ("tpftl", "_collect_block"), ("learnedftl", "_group_gc")],
    )
    def test_flash_time_is_the_encoded_commands_latencies(self, ftl_name, collector):
        ssd = make_ssd(ftl_name, SSDGeometry.small())
        ssd.fill_sequential()
        ftl = ssd.ftl
        latency = {kind: ftl.timing.latency_of(kind.value) for kind in CommandKind}
        collect = getattr(ftl, collector)
        encoded: list[float] = []
        kinds: set[CommandKind] = set()

        def spy(victim, now):
            start = len(ftl.buffer.ops)
            collect(victim, now)
            codes = [KIND_BY_CODE[code] for code in ftl.buffer.ops[start::OP_STRIDE]]
            kinds.update(codes)
            encoded.append(sum(latency[kind] for kind in codes))

        setattr(ftl, collector, spy)
        events = len(ssd.stats.gc_events)
        ssd.run(random_writes(ssd.geometry, 3000, seed=7), threads=1)
        recorded = [event.flash_time_us for event in ssd.stats.gc_events[events:]]
        assert recorded and kinds == set(CommandKind)
        assert recorded == encoded
