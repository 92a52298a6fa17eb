"""Tests for the discrete-event timing engine."""

from __future__ import annotations

import heapq
import random

import pytest

from repro.nand.timing import TimingModel
from repro.ssd.device import SSD
from repro.ssd.engine import ChipTimeline, TimingEngine
from repro.ssd.request import (
    CommandBuffer,
    CommandKind,
    CommandPurpose,
    FlashCommand,
    HostRequest,
    OpType,
    ReadOutcome,
    Stage,
    Transaction,
    command_code,
)
from repro.ssd.stats import SimulationStats


def _read(chip: int) -> FlashCommand:
    return FlashCommand(kind=CommandKind.READ, chip=chip, ppn=0)


def _txn(*stages: Stage) -> Transaction:
    txn = Transaction(HostRequest(op=OpType.READ, lpn=0))
    txn.stages.extend(stages)
    return txn


@pytest.fixture
def engine() -> TimingEngine:
    return TimingEngine(num_chips=4, timing=TimingModel.femu_default(), stats=SimulationStats())


class TestChipTimeline:
    def test_occupy_serializes_same_chip(self):
        timeline = ChipTimeline(2)
        start1, end1 = timeline.occupy(0, 0.0, 40.0)
        start2, end2 = timeline.occupy(0, 0.0, 40.0)
        assert (start1, end1) == (0.0, 40.0)
        assert (start2, end2) == (40.0, 80.0)

    def test_occupy_parallel_on_different_chips(self):
        timeline = ChipTimeline(2)
        _, end1 = timeline.occupy(0, 0.0, 40.0)
        _, end2 = timeline.occupy(1, 0.0, 40.0)
        assert end1 == end2 == 40.0

    def test_occupy_respects_earliest_start(self):
        timeline = ChipTimeline(1)
        start, _ = timeline.occupy(0, 100.0, 10.0)
        assert start == 100.0

    def test_utilization(self):
        timeline = ChipTimeline(2)
        timeline.occupy(0, 0.0, 50.0)
        assert timeline.utilization(100.0) == pytest.approx(0.25)

    def test_invalid_chip_count(self):
        with pytest.raises(ValueError):
            ChipTimeline(0)


class TestTimingEngine:
    def test_single_read_latency(self, engine):
        result = engine.execute(_txn(Stage(commands=[_read(0)])), issue_time_us=0.0)
        assert result.latency_us == pytest.approx(40.0)

    def test_parallel_commands_overlap(self, engine):
        stage = Stage(commands=[_read(0), _read(1), _read(2)])
        result = engine.execute(_txn(stage), 0.0)
        assert result.latency_us == pytest.approx(40.0)

    def test_same_chip_commands_serialize(self, engine):
        stage = Stage(commands=[_read(0), _read(0)])
        result = engine.execute(_txn(stage), 0.0)
        assert result.latency_us == pytest.approx(80.0)

    def test_stages_serialize(self, engine):
        result = engine.execute(
            _txn(Stage(commands=[_read(0)]), Stage(commands=[_read(1)])), 0.0
        )
        # A double read costs two serialized flash reads even on different chips.
        assert result.latency_us == pytest.approx(80.0)

    def test_compute_us_delays_stage(self, engine):
        result = engine.execute(_txn(Stage(commands=[_read(0)], compute_us=5.0)), 0.0)
        assert result.latency_us == pytest.approx(45.0)
        assert result.compute_time_us == pytest.approx(5.0)

    def test_program_and_erase_latencies(self, engine):
        program = FlashCommand(kind=CommandKind.PROGRAM, chip=0, ppn=0)
        erase = FlashCommand(kind=CommandKind.ERASE, chip=0, block=0)
        result = engine.execute(_txn(Stage(commands=[program]), Stage(commands=[erase])), 0.0)
        assert result.latency_us == pytest.approx(200.0 + 2000.0)

    def test_issue_time_offsets_everything(self, engine):
        result = engine.execute(_txn(Stage(commands=[_read(0)])), issue_time_us=1000.0)
        assert result.start_us == 1000.0
        assert result.finish_us == pytest.approx(1040.0)

    def test_busy_chip_delays_new_transaction(self, engine):
        engine.execute(_txn(Stage(commands=[_read(0)])), 0.0)
        result = engine.execute(_txn(Stage(commands=[_read(0)])), 0.0)
        assert result.finish_us == pytest.approx(80.0)

    def test_outcomes_recorded_in_stats(self, engine):
        txn = _txn(Stage(commands=[_read(0)]))
        txn.outcomes.append(ReadOutcome.DOUBLE_READ)
        engine.execute(txn, 0.0)
        assert engine.stats.read_outcomes[ReadOutcome.DOUBLE_READ] == 1

    def test_commands_recorded_in_stats(self, engine):
        engine.execute(_txn(Stage(commands=[_read(0), _read(1)])), 0.0)
        assert engine.stats.total_flash_reads == 2

    def test_flash_time_accumulates_all_commands(self, engine):
        stage = Stage(commands=[_read(0), _read(1)])
        result = engine.execute(_txn(stage), 0.0)
        assert result.flash_time_us == pytest.approx(80.0)  # 2 x 40us of chip time


class TestExecuteBuffer:
    """The buffer-encoded hot path must behave exactly like the object path."""

    def _buffer(self, *stages: list[tuple[CommandKind, int]], compute: float = 0.0) -> CommandBuffer:
        buffer = CommandBuffer()
        buffer.reset(HostRequest(op=OpType.READ, lpn=0))
        for commands in stages:
            stage = buffer.new_stage()
            for kind, chip in commands:
                buffer.append(stage, command_code(kind, CommandPurpose.DATA_READ), chip, 0)
            buffer.commit_stage(stage, compute)
        return buffer

    def test_single_read_latency(self, engine):
        finish = engine.execute_buffer(self._buffer([(CommandKind.READ, 0)]), 0.0)
        assert finish == pytest.approx(40.0)

    def test_stages_serialize(self, engine):
        buffer = self._buffer([(CommandKind.READ, 0)], [(CommandKind.READ, 1)])
        assert engine.execute_buffer(buffer, 0.0) == pytest.approx(80.0)

    def test_parallel_commands_overlap(self, engine):
        buffer = self._buffer([(CommandKind.READ, 0), (CommandKind.READ, 1), (CommandKind.READ, 2)])
        assert engine.execute_buffer(buffer, 0.0) == pytest.approx(40.0)

    def test_same_chip_commands_serialize(self, engine):
        buffer = self._buffer([(CommandKind.READ, 0), (CommandKind.READ, 0)])
        assert engine.execute_buffer(buffer, 0.0) == pytest.approx(80.0)

    def test_compute_only_stage_advances_cursor(self, engine):
        buffer = self._buffer([(CommandKind.READ, 0)], compute=5.0)
        assert engine.execute_buffer(buffer, 0.0) == pytest.approx(45.0)

    def test_commands_counted_into_flat_buckets(self, engine):
        engine.execute_buffer(self._buffer([(CommandKind.READ, 0), (CommandKind.READ, 1)]), 0.0)
        assert engine.stats.total_flash_reads == 2
        assert engine.stats.flash_reads[CommandPurpose.DATA_READ] == 2

    def test_outcomes_recorded(self, engine):
        buffer = self._buffer([(CommandKind.READ, 0)])
        buffer.add_outcome(ReadOutcome.DOUBLE_READ.code)
        engine.execute_buffer(buffer, 0.0)
        assert engine.stats.read_outcomes[ReadOutcome.DOUBLE_READ] == 1


class TestBufferObjectParity:
    """Satellite contract: object-view execution and buffer execution count
    (and time) identically, because both bucket commands through the same
    flat integer encoding."""

    @pytest.mark.parametrize("ftl_name", ["dftl", "learnedftl"])
    def test_full_workload_parity(self, tiny_geometry, ftl_name):
        ssd = SSD.create(ftl_name, tiny_geometry)
        shadow_stats = SimulationStats()
        shadow_engine = TimingEngine(tiny_geometry.num_chips, ssd.timing, shadow_stats)
        rng = random.Random(99)
        limit = tiny_geometry.num_logical_pages
        requests = [
            HostRequest(op=OpType.WRITE, lpn=lpn, npages=min(8, limit - lpn))
            for lpn in range(0, limit, 8)
        ]
        requests += [
            HostRequest(
                op=OpType.READ if rng.random() < 0.6 else OpType.WRITE,
                lpn=rng.randint(0, limit - 2),
                npages=rng.choice((1, 2)),
            )
            for _ in range(300)
        ]
        clock = 0.0
        for request in requests:
            buffer = ssd.ftl.encode(request, clock)
            txn = buffer.to_transaction()
            finish_buffer = ssd.engine.execute_buffer(buffer, clock)
            result_object = shadow_engine.execute(txn, clock)
            assert result_object.finish_us == finish_buffer
            clock = finish_buffer
        # Same flat buckets, bit-identical counts for every (kind, purpose).
        assert ssd.stats.command_counts == shadow_stats.command_counts
        assert ssd.stats.outcome_counts == shadow_stats.outcome_counts
        assert ssd.stats.flash_reads == shadow_stats.flash_reads
        assert ssd.stats.flash_programs == shadow_stats.flash_programs
        assert ssd.stats.flash_erases == shadow_stats.flash_erases


_DATA = command_code(CommandKind.READ, CommandPurpose.DATA_READ)
_TRANS = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)
_PROGRAM = command_code(CommandKind.PROGRAM, CommandPurpose.DATA_WRITE)


class TestBatchKernelContract:
    """``execute_read_batch`` / ``execute_write_batch`` are specializations of
    ``execute_buffer``: driven with the same request columns they must leave
    the same chip timelines, thread heap and counters behind and return the
    issue and latency columns the request-by-request loop produces."""

    NUM_CHIPS = 4
    N = 40

    def _engine(self, threads: int) -> tuple[TimingEngine, list[float]]:
        engine = TimingEngine(self.NUM_CHIPS, TimingModel.femu_default(), SimulationStats())
        # Chips pre-busied unevenly and threads freeing at different times, so
        # both arms of every ``max(busy, cursor)`` are taken.
        engine.timeline._busy_until[:] = [0.0, 55.0, 130.5, 20.25]
        thread_free = sorted(7.5 * slot for slot in range(threads))
        return engine, thread_free

    def _columns(self, shape: str):
        rng = random.Random(11)
        data_chips = [rng.randrange(self.NUM_CHIPS) for _ in range(self.N)]
        trans_chips = computes = None
        if shape in ("trans", "compute"):
            trans_chips = [
                rng.randrange(self.NUM_CHIPS) if rng.random() < 0.6 else -1 for _ in range(self.N)
            ]
        if shape == "compute":
            computes = [rng.choice((0.0, 0.25, 1.5)) for _ in range(self.N)]
        return data_chips, trans_chips, computes

    def _reference(self, engine, thread_free, stage_lists):
        """Drive ``execute_buffer`` request by request over hand-built buffers."""
        issues, latencies = [], []
        buffer = CommandBuffer()
        for stages in stage_lists:
            buffer.reset(HostRequest(op=OpType.READ, lpn=0))
            for compute, commands in stages:
                stage = buffer.new_stage()
                for code, chip in commands:
                    buffer.append(stage, code, chip, 0)
                buffer.commit_stage(stage, compute)
            issue = thread_free[0]
            finish = engine.execute_buffer(buffer, issue)
            heapq.heapreplace(thread_free, finish)
            issues.append(issue)
            latencies.append(finish - issue)
        return issues, latencies

    @staticmethod
    def _state(engine, thread_free):
        return (
            list(engine.timeline._busy_until),
            list(engine.timeline.busy_time),
            list(thread_free),
            list(engine.stats.command_counts),
        )

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("shape", ["data", "trans", "compute"])
    def test_read_batch_equals_buffer_loop(self, shape, threads):
        data_chips, trans_chips, computes = self._columns(shape)
        stage_lists = []
        for i, chip in enumerate(data_chips):
            head = [(_TRANS, trans_chips[i])] if trans_chips and trans_chips[i] >= 0 else []
            compute = computes[i] if computes else 0.0
            stage_lists.append([(compute, head), (0.0, [(_DATA, chip)])])
        reference, reference_free = self._engine(threads)
        expected = self._reference(reference, reference_free, stage_lists)

        engine, thread_free = self._engine(threads)
        columns = engine.execute_read_batch(
            data_chips,
            trans_chips,
            thread_free,
            data_code=_DATA,
            trans_code=_TRANS,
            trans_count=sum(chip >= 0 for chip in trans_chips or ()),
            computes=computes,
        )
        assert columns == expected
        assert self._state(engine, thread_free) == self._state(reference, reference_free)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_write_batch_equals_buffer_loop(self, threads):
        chips, _, _ = self._columns("data")
        reference, reference_free = self._engine(threads)
        expected = self._reference(
            reference, reference_free, [[(0.0, [(_PROGRAM, chip)])] for chip in chips]
        )

        engine, thread_free = self._engine(threads)
        columns = engine.execute_write_batch(chips, thread_free, code=_PROGRAM)
        assert columns == expected
        assert self._state(engine, thread_free) == self._state(reference, reference_free)
