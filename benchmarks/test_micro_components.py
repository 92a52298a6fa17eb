"""Microbenchmarks of LearnedFTL's core data structures.

These complement the end-to-end figure benchmarks: they measure (with proper
pytest-benchmark statistics) the per-operation cost of the pieces the paper
argues are cheap — PLR training, model prediction, bitmap checks, the VPPN
codec and CMT lookups — so performance regressions in the primitives are caught
independently of the simulator around them.  ``test_bench_fill_sequential``
times the one device-level path here, a sequential fill, because every
preconditioned device pays for it.
"""

from __future__ import annotations

import random

import pytest

from repro import SSD
from repro.core.cmt import PageGroupedCMT
from repro.core.learned.bitmap import Bitmap
from repro.core.learned.inplace_model import InPlaceLinearModel
from repro.core.learned.plr import fit_greedy_plr
from repro.core.learned.segment import (
    LearnedSegment,
    LogStructuredSegmentTable,
    build_segments,
)
from repro.nand.address import AddressCodec
from repro.nand.geometry import SSDGeometry
from repro.replay import state_fingerprint


@pytest.fixture(scope="module")
def entry_mappings():
    """One full GTD entry worth of sorted (LPN, VPPN) mappings.

    The VPPNs follow the LPNs linearly (the post-GC layout), so the fitted
    model predicts every mapping exactly — the case the paper's fast path
    exercises on every read.
    """
    rng = random.Random(7)
    lpns = sorted(rng.sample(range(512), 384))
    vppns = [10_000 + lpn for lpn in lpns]
    return lpns, vppns


def test_bench_plr_fit_full_entry(benchmark, entry_mappings):
    lpns, vppns = entry_mappings
    pieces = benchmark(lambda: fit_greedy_plr(lpns, vppns, gamma=0.5))
    assert pieces


def test_bench_model_training(benchmark, entry_mappings):
    lpns, vppns = entry_mappings
    model = InPlaceLinearModel(start_lpn=0, span=512, max_pieces=8)
    result = benchmark(lambda: model.train(lpns, vppns))
    assert result.trained_points == len(lpns)


def test_bench_model_prediction(benchmark, entry_mappings):
    lpns, vppns = entry_mappings
    model = InPlaceLinearModel(start_lpn=0, span=512, max_pieces=8)
    model.train(lpns, vppns)
    target = lpns[len(lpns) // 2]
    value = benchmark(lambda: model.predict(target))
    assert value is not None


def test_bench_bitmap_check(benchmark):
    bitmap = Bitmap(512)
    for index in range(0, 512, 2):
        bitmap.set(index)
    assert benchmark(lambda: bitmap.test(256)) is True


def test_bench_segment_build_and_lookup(benchmark, entry_mappings):
    lpns, vppns = entry_mappings
    table = LogStructuredSegmentTable()
    table.insert_many(build_segments(lpns, vppns, gamma=4.0))
    target = lpns[10]
    segment = benchmark(lambda: table.lookup(target))
    assert segment is not None


def test_bench_segment_flush_and_compact(benchmark):
    """LeaFTL's per-translation-page flush step, 64 times over: eight freshly
    trained (disjoint) segments into one table, then ``compact()``."""
    rng = random.Random(11)
    flushes = []
    for _ in range(64):
        cuts = sorted(rng.sample(range(513), 16))
        flushes.append(
            [
                LearnedSegment(
                    start_lpn=lo, slope=1.0, length=hi - lo, intercept=float(rng.randrange(100_000))
                )
                for lo, hi in zip(cuts[::2], cuts[1::2])
            ]
        )

    def flush_all() -> LogStructuredSegmentTable:
        table = LogStructuredSegmentTable()
        for segments in flushes:
            table.insert_many(segments)
            table.compact()
        return table

    assert benchmark(flush_all).segment_count() == 35


def test_bench_vppn_round_trip(benchmark):
    codec = AddressCodec(SSDGeometry.paper())
    ppn = 5_013_631
    value = benchmark(lambda: codec.vppn_to_ppn(codec.ppn_to_vppn(ppn)))
    assert value == ppn


def test_bench_cmt_lookup(benchmark):
    cmt = PageGroupedCMT(capacity_entries=4096, mappings_per_page=512)
    for lpn in range(4000):
        cmt.insert(lpn, lpn + 100)
    assert benchmark(lambda: cmt.lookup(2000)) == 2100


#: State fingerprint after a 128-page sequential fill of the device below.
FILL_FINGERPRINTS = {
    "learnedftl": "90dc75455b34afe8bd86ab01aa8a72ce755e9c33c7db7e6931c7fdc12c295943",
    "tpftl": "20f8db259d0ed1583c8bdcb21e7e15a6de76207192ea9625c63793e62b711ac4",
}


@pytest.mark.parametrize("ftl_name", sorted(FILL_FINGERPRINTS))
def test_bench_fill_sequential(benchmark, ftl_name):
    """128-page sequential writes over a 24 576-LPN device: the columnar
    multi-page write path (allocation, programs, mapping, CMT) end to end."""
    geometry = SSDGeometry.small(blocks_per_plane=64, pages_per_block=128)
    devices = []

    def fresh_device():
        devices.append(SSD.create(ftl_name, geometry))
        return (devices[-1],), {}

    benchmark.pedantic(lambda ssd: ssd.fill_sequential(io_pages=128), setup=fresh_device, rounds=3)
    assert state_fingerprint(devices[-1].state_dict()) == FILL_FINGERPRINTS[ftl_name]
