"""Tests for host requests, command codes and the flat command buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SSD
from repro.nand.errors import GeometryError
from repro.replay import state_fingerprint
from repro.ssd.request import (
    KIND_BY_CODE,
    NUM_COMMAND_CODES,
    NUM_PURPOSES,
    OP_READ_CODE,
    OP_STRIDE,
    OP_WRITE_CODE,
    OUTCOME_BY_CODE,
    PURPOSE_BY_CODE,
    CommandBuffer,
    CommandKind,
    CommandPurpose,
    HostRequest,
    OpType,
    ReadOutcome,
    RequestBatch,
    command_code,
)


def _command_count(stage: list) -> int:
    """Commands a stage record covers: its segments' slot spans over the stride."""
    return sum(end - start for start, end in zip(stage[1::2], stage[2::2])) // OP_STRIDE


class TestHostRequest:
    def test_lpns_range(self):
        req = HostRequest(op=OpType.READ, lpn=10, npages=4)
        assert list(req.lpns()) == [10, 11, 12, 13]

    def test_default_is_single_page(self):
        req = HostRequest(op=OpType.WRITE, lpn=0)
        assert req.npages == 1

    def test_bytes_reporting(self):
        req = HostRequest(op=OpType.READ, lpn=0, npages=2)
        assert req.bytes == 8192

    def test_issue_time_optional(self):
        assert HostRequest(op=OpType.READ, lpn=0).issue_time_us is None
        assert HostRequest(op=OpType.READ, lpn=0, issue_time_us=5.0).issue_time_us == 5.0


class TestEnums:
    def test_command_purposes_are_distinct(self):
        values = {purpose.value for purpose in CommandPurpose}
        assert len(values) == len(list(CommandPurpose))

    def test_read_outcomes_cover_paper_categories(self):
        names = {outcome.value for outcome in ReadOutcome}
        assert {"cmt_hit", "model_hit", "double_read", "triple_read"} <= names


class TestCommandCodes:
    def test_codes_roundtrip_through_decode_tables(self):
        for kind in CommandKind:
            for purpose in CommandPurpose:
                code = command_code(kind, purpose)
                assert 0 <= code < NUM_COMMAND_CODES
                assert KIND_BY_CODE[code] is kind
                assert PURPOSE_BY_CODE[code] is purpose

    def test_codes_are_distinct(self):
        codes = {
            command_code(kind, purpose)
            for kind in CommandKind
            for purpose in CommandPurpose
        }
        assert len(codes) == len(CommandKind) * NUM_PURPOSES

    def test_outcome_codes_roundtrip(self):
        for outcome in ReadOutcome:
            assert OUTCOME_BY_CODE[outcome.code] is outcome


class TestCommandBuffer:
    def test_empty_stage_is_dropped(self):
        buffer = CommandBuffer()
        stage = buffer.new_stage()
        assert not buffer.commit_stage(stage)
        assert buffer.stages == []

    def test_compute_only_stage_is_kept(self):
        buffer = CommandBuffer()
        stage = buffer.new_stage()
        assert buffer.commit_stage(stage, 3.0)
        assert buffer.stages == [[3.0]]
        assert buffer.command_count == 0

    def test_append_encodes_code_chip_ppn_block_slots(self):
        buffer = CommandBuffer()
        stage = buffer.new_stage()
        read = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)
        erase = command_code(CommandKind.ERASE, CommandPurpose.GC_ERASE)
        buffer.append(stage, read, 1, 42)
        buffer.append(stage, erase, 0, -1, 7)
        buffer.commit_stage(stage)
        buffer.add_outcome(ReadOutcome.DOUBLE_READ.code)
        assert buffer.outcome_codes == [ReadOutcome.DOUBLE_READ.code]
        assert buffer.ops == [read, 1, 42, -1, erase, 0, -1, 7]
        assert buffer.stages == [[0.0, 0, 2 * OP_STRIDE]]

    def test_front_commit_reproduces_insert_at_zero(self):
        buffer = CommandBuffer()
        head = buffer.new_stage()
        flush = buffer.new_stage()
        write_code = command_code(CommandKind.PROGRAM, CommandPurpose.TRANSLATION_WRITE)
        read_code = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)
        buffer.append(flush, write_code, 0, 9)
        buffer.commit_stage(flush)
        buffer.append(head, read_code, 0, 5)
        buffer.commit_stage(head, front=True)
        # Emitted second, executed first.
        assert buffer.ops[::OP_STRIDE] == [write_code, read_code]
        assert buffer.stages == [[0.0, 4, 8], [0.0, 0, 4]]

    def test_interleaved_floating_stages_keep_their_grouping(self):
        # GC emits reads and writes in one pass over the victim block; the
        # stage records must still partition the interleaved command stream.
        buffer = CommandBuffer()
        reads = buffer.new_stage()
        writes = buffer.new_stage()
        read_code = command_code(CommandKind.READ, CommandPurpose.GC_READ)
        write_code = command_code(CommandKind.PROGRAM, CommandPurpose.GC_WRITE)
        for ppn in range(3):
            buffer.append(reads, read_code, 0, ppn)
            buffer.append(writes, write_code, 1, 100 + ppn)
        buffer.commit_stage(reads)
        buffer.commit_stage(writes)
        assert _command_count(reads) == 3
        assert _command_count(writes) == 3
        assert buffer.stages == [[0.0, 0, 4, 8, 12, 16, 20], [0.0, 4, 8, 12, 16, 20, 24]]
        assert [buffer.ops[i] for i in reads[1::2]] == [read_code] * 3
        assert [buffer.ops[i] for i in writes[1::2]] == [write_code] * 3
        assert [buffer.ops[i + 2] for i in writes[1::2]] == [100, 101, 102]

    def test_extend_matches_repeated_append(self):
        """One columnar ``extend`` per stage against appending command by command."""
        read_code = command_code(CommandKind.READ, CommandPurpose.GC_READ)
        write_code = command_code(CommandKind.PROGRAM, CommandPurpose.GC_WRITE)
        chips = np.array([3, 0, 3, 1], dtype=np.int64)
        ppns = np.array([40, 7, 41, 19], dtype=np.int64)
        columnar = CommandBuffer()
        scalar = CommandBuffer()
        stages = []
        for buffer in (columnar, scalar):
            reads, writes = buffer.new_stage(), buffer.new_stage()
            # A command already in the stage: the run must merge into its segment.
            buffer.append(reads, read_code, 2, 5)
            if buffer is columnar:
                buffer.extend(reads, read_code, chips, ppns)
                buffer.extend(writes, write_code, chips + 1, ppns + 100)
                buffer.extend(reads, read_code, chips[:0], ppns[:0])
            else:
                for chip, ppn in zip(chips.tolist(), ppns.tolist()):
                    buffer.append(reads, read_code, chip, ppn)
                for chip, ppn in zip(chips.tolist(), ppns.tolist()):
                    buffer.append(writes, write_code, chip + 1, ppn + 100)
            # Another stage took the slots in between: a new segment starts.
            buffer.append(reads, read_code, 0, 6)
            buffer.commit_stage(reads)
            buffer.commit_stage(writes)
            stages.append((reads, writes))
        assert columnar.ops == scalar.ops
        assert all(type(slot) is int for slot in columnar.ops)
        assert stages[0] == stages[1]
        assert stages[0][0] == [0.0, 0, 20, 36, 40]
        assert columnar.stages == scalar.stages
        assert _command_count(stages[0][0]) == 6
        assert _command_count(stages[0][1]) == 4

    def test_reset_reuses_storage(self):
        buffer = CommandBuffer()
        stage = buffer.new_stage()
        buffer.append(stage, command_code(CommandKind.READ, CommandPurpose.DATA_READ), 0, 1)
        buffer.commit_stage(stage)
        buffer.add_outcome(ReadOutcome.CMT_HIT.code)
        ops = buffer.ops
        assert buffer.reset() is buffer
        assert buffer.ops is ops
        assert buffer.command_count == 0
        assert buffer.outcome_codes == []
        assert buffer.stages == []


class TestRequestBatch:
    def _requests(self):
        from repro.ssd.request import HostRequest

        return [
            HostRequest(op=OpType.READ, lpn=4, npages=1),
            HostRequest(op=OpType.WRITE, lpn=9, npages=2),
            HostRequest(op=OpType.READ, lpn=0, npages=8),
        ]

    def test_from_requests_round_trips(self):
        from repro.ssd.request import RequestBatch

        source = self._requests()
        batch = RequestBatch.from_requests(source)
        assert len(batch) == 3
        assert list(batch) == source
        assert batch[1] == source[1]
        assert batch[-1] == source[-1]

    def test_reads_factory(self):
        from repro.ssd.request import OP_READ_CODE, RequestBatch

        batch = RequestBatch.reads([5, 6, 7])
        assert len(batch) == 3
        assert (batch.ops == OP_READ_CODE).all()
        assert batch.npages.tolist() == [1, 1, 1]
        assert all(r.op is OpType.READ and r.npages == 1 for r in batch)

    def test_mismatched_columns_rejected(self):
        from repro.ssd.request import RequestBatch

        with pytest.raises(ValueError):
            RequestBatch([0, 0], [1, 2, 3], [1, 1, 1])

    def test_scalar_consumers_accept_a_batch(self):
        """A batch is a request iterable: the scalar run loop needs no changes."""
        from repro.ssd.request import RequestBatch

        batch = RequestBatch.from_requests(self._requests())
        assert sum(r.npages for r in batch) == 11


#: (layer, op, npages): a page count below one on both layers and both ops,
#: and an op code that is neither read nor write.
_MALFORMED = [
    pytest.param(layer, op, npages, id=f"{layer}-{op.value}-{npages}")
    for layer in ("batch", "encode")
    for op in (OpType.READ, OpType.WRITE)
    for npages in (0, -3)
] + [pytest.param("batch", 7, 1, id="batch-op7")]


@pytest.mark.parametrize("layer,op,npages", _MALFORMED)
def test_malformed_requests_are_refused(layer, op, npages, tiny_geometry):
    """A malformed request is refused before it reaches any counter.

    ``RequestBatch`` names the first offending index and value; ``encode``
    raises before anything is counted or mutated, so the host page counters
    cannot move backwards and a foreign op code is never served as a write.
    """
    if layer == "batch":
        if isinstance(op, int):
            code, match = op, rf"ops\[1\] is {op}"
        else:
            code = OP_READ_CODE if op is OpType.READ else OP_WRITE_CODE
            match = rf"npages\[1\] is {npages}"
        with pytest.raises(ValueError, match=match):
            RequestBatch([OP_READ_CODE, code], [1, 2], [1, npages])
        return
    ssd = SSD.create("dftl", tiny_geometry)
    ssd.fill_sequential(io_pages=16)
    before = (ssd.stats.summary(), state_fingerprint(ssd.state_dict()))
    with pytest.raises(GeometryError, match="at least 1"):
        ssd.submit(HostRequest(op=op, lpn=5, npages=npages))
    assert (ssd.stats.summary(), state_fingerprint(ssd.state_dict())) == before
