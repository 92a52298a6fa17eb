"""Tests for the discrete-event timing engine."""

from __future__ import annotations

import heapq
import random

import pytest

from repro.nand.timing import TimingModel
from repro.ssd.engine import ChipTimeline, TimingEngine
from repro.ssd.request import CommandBuffer, CommandKind, CommandPurpose, ReadOutcome, command_code
from repro.ssd.stats import SimulationStats


@pytest.fixture
def engine() -> TimingEngine:
    return TimingEngine(num_chips=4, timing=TimingModel.femu_default(), stats=SimulationStats())


class TestChipTimeline:
    def test_invalid_chip_count(self):
        with pytest.raises(ValueError):
            ChipTimeline(0)


class TestExecuteBuffer:
    """Literal stage/chip timings of the engine's one timing loop."""

    def _buffer(self, *stages: list[tuple[CommandKind, int]], compute: float = 0.0) -> CommandBuffer:
        buffer = CommandBuffer()
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
        # A double read costs two serialized flash reads even on different chips.
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

    def test_program_and_erase_latencies(self, engine):
        buffer = self._buffer([(CommandKind.PROGRAM, 0)], [(CommandKind.ERASE, 0)])
        assert engine.execute_buffer(buffer, 0.0) == pytest.approx(200.0 + 2000.0)

    def test_issue_time_offsets_everything(self, engine):
        finish = engine.execute_buffer(self._buffer([(CommandKind.READ, 0)]), 1000.0)
        assert finish == pytest.approx(1040.0)

    def test_busy_chip_delays_next_request(self, engine):
        engine.execute_buffer(self._buffer([(CommandKind.READ, 0)]), 0.0)
        finish = engine.execute_buffer(self._buffer([(CommandKind.READ, 0)]), 0.0)
        assert finish == pytest.approx(80.0)

    def test_chip_busy_time_accumulates_all_commands(self, engine):
        engine.execute_buffer(self._buffer([(CommandKind.READ, 0), (CommandKind.READ, 1)]), 0.0)
        assert engine.timeline.busy_time == [40.0, 40.0, 0.0, 0.0]  # 2 x 40us of chip time

    def test_commands_counted_into_flat_buckets(self, engine):
        engine.execute_buffer(self._buffer([(CommandKind.READ, 0), (CommandKind.READ, 1)]), 0.0)
        assert engine.stats.total_flash_reads == 2
        assert engine.stats.command_counts[command_code(CommandKind.READ, CommandPurpose.DATA_READ)] == 2

    def test_outcomes_recorded(self, engine):
        buffer = self._buffer([(CommandKind.READ, 0)])
        buffer.outcome_codes.append(ReadOutcome.DOUBLE_READ.code)
        engine.execute_buffer(buffer, 0.0)
        assert engine.stats.outcome_counts[ReadOutcome.DOUBLE_READ.code] == 1


_DATA = command_code(CommandKind.READ, CommandPurpose.DATA_READ)
_TRANS = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)


class TestBatchKernelContract:
    """``execute_read_batch`` is a specialization of ``execute_buffer``:
    driven with the same request columns it must leave the same chip
    timelines, thread heap and counters behind and return the issue and
    latency columns the request-by-request loop produces."""

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
            buffer.reset()
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
            trans_count=sum(chip >= 0 for chip in trans_chips or ()),
            computes=computes,
        )
        assert columns == expected
        assert self._state(engine, thread_free) == self._state(reference, reference_free)

    @pytest.mark.parametrize("rule", ["closed", "open"])
    @pytest.mark.parametrize("shape", ["data", "trans", "compute"])
    def test_page_columns_and_open_loop_equal_buffer_loop(self, shape, rule):
        """Multi-page requests (a head stage of translation reads, then a
        data stage) and the open loop's issue rule, against the buffer loop
        driven request by request."""
        rng = random.Random(13)
        npages = [rng.choice((1, 1, 2, 3, 8)) for _ in range(self.N)]
        pages = sum(npages)
        data_chips = [rng.randrange(self.NUM_CHIPS) for _ in range(pages)]
        trans_chips = computes = None
        if shape in ("trans", "compute"):
            trans_chips = [
                rng.randrange(self.NUM_CHIPS) if rng.random() < 0.4 else -1 for _ in range(pages)
            ]
        if shape == "compute":
            computes = [rng.choice((0.0, 0.25, 1.5)) for _ in range(self.N)]
        arrivals = slots = None
        if rule == "open":
            arrivals = [rng.choice((0.0, 30.0)) + 20.0 * i for i in range(self.N)]
            slots = [rng.randrange(3) for _ in range(self.N)]

        reference, host = self._engine(3)
        buffer = CommandBuffer()
        expected = ([], [])
        page = 0
        for i, count in enumerate(npages):
            buffer.reset()
            head = buffer.new_stage()
            data = buffer.new_stage()
            for p in range(page, page + count):
                if trans_chips is not None and trans_chips[p] >= 0:
                    buffer.append(head, _TRANS, trans_chips[p], 0)
                buffer.append(data, _DATA, data_chips[p], 0)
            page += count
            buffer.commit_stage(head, computes[i] if computes else 0.0)
            buffer.commit_stage(data)
            issue = host[0] if arrivals is None else max(arrivals[i], host[slots[i]])
            finish = reference.execute_buffer(buffer, issue)
            if arrivals is None:
                heapq.heapreplace(host, finish)
            else:
                host[slots[i]] = finish
            expected[0].append(issue)
            expected[1].append(finish - issue)

        engine, host_free = self._engine(3)
        columns = engine.execute_read_batch(
            data_chips,
            trans_chips,
            host_free,
            trans_count=sum(chip >= 0 for chip in trans_chips or ()),
            computes=computes,
            npages=npages,
            arrivals=arrivals,
            slots=slots,
        )
        assert columns == expected
        assert self._state(engine, host_free) == self._state(reference, host)
