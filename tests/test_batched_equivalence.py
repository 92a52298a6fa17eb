"""Planner-vs-step equivalence suite for the closed loop's read kernel.

``SSD.run`` serves a read run through LearnedFTL's read planner or through
the request step, and must be *bit-identical* either way: same statistics
fingerprint, same per-request latency populations, same final clock and chip
timelines — for every FTL design, any chunk length (``batch``) and any thread
count.  Every read run is planned, however short, so refusals land at every
position.  The reference runs inside :func:`read_runs.step_only`, where no
planner is built and every request takes the step.  The workload here is deliberately hostile
to the fast path: it mixes GC-triggering overwrites, a read storm that
churns the CMT (hits, misses, evictions) and multi-page requests, so chunks
straddle every fallback boundary the planner draws.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_workload import golden_geometry
from read_runs import read_planner, step_only
from repro import SSD, SSDGeometry
from repro.core.batch import GroupedReadPlanner
from repro.nand.errors import ConfigurationError
from repro.obs.log import ObservationLog
from repro.replay import state_fingerprint
from repro.ssd.request import (
    OP_READ_CODE,
    OP_WRITE_CODE,
    CommandKind,
    CommandPurpose,
    HostRequest,
    OpType,
    ReadOutcome,
    RequestBatch,
    command_code,
)
from repro.workloads.fio import FioJob

ALL_FTL_NAMES = ("dftl", "tpftl", "leaftl", "learnedftl", "ideal")
BATCH_SIZES = (1, 7, 64, 1000)
SEED = 20240606


def _workload(geometry) -> list[list[HostRequest]]:
    """Five phases covering every planner boundary.

    GC-forcing multi-page overwrites, a CMT-churning read storm, a mixed
    phase with multi-page shapes, a write-heavy single-page phase (random
    LPNs over the whole device, so write runs straddle both data-block GC
    and CMT eviction refusals), and a 50/50 single-page read/write mix
    (maximally alternating run classes).
    """
    rng = random.Random(SEED)
    limit = geometry.num_logical_pages
    overwrites = [
        HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit - 4), npages=4)
        for _ in range(150)
    ]
    reads = [
        HostRequest(op=OpType.READ, lpn=rng.randint(0, limit - 1), npages=1)
        for _ in range(600)
    ]
    mix = []
    for _ in range(300):
        draw = rng.random()
        if draw < 0.25:
            mix.append(HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit - 2), npages=2))
        elif draw < 0.35:
            mix.append(HostRequest(op=OpType.READ, lpn=rng.randint(0, limit - 8), npages=8))
        else:
            mix.append(HostRequest(op=OpType.READ, lpn=rng.randint(0, limit - 1), npages=1))
    write_heavy = [
        HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit - 1), npages=1)
        for _ in range(500)
    ]
    # A couple of in-run duplicate LPNs: store_many's gather-before-scatter
    # cannot serve those, so the planner's per-request update path runs too.
    write_heavy[100] = HostRequest(op=OpType.WRITE, lpn=write_heavy[101].lpn, npages=1)
    mixed_5050 = [
        HostRequest(
            op=OpType.READ if rng.random() < 0.5 else OpType.WRITE,
            lpn=rng.randint(0, limit - 1),
            npages=1,
        )
        for _ in range(500)
    ]
    # Hot-set single-page writes inside the (64-entry) CMT: after one pass the
    # working set is fully cached, so long write runs commit through the array
    # path (the full-device phase above mostly refuses at the capacity check).
    hot_writes = [
        HostRequest(op=OpType.WRITE, lpn=rng.randint(0, 47), npages=1) for _ in range(400)
    ]
    return [overwrites, reads, mix, write_heavy, mixed_5050, hot_writes]


def _fingerprint(ssd: SSD) -> dict:
    stats = ssd.stats
    return {
        "summary": stats.summary(),
        "read_latencies": tuple(stats.read_latencies_us),
        "write_latencies": tuple(stats.write_latencies_us),
        "clock_us": ssd.now_us,
        "finish_time_us": stats.finish_time_us,
        "flash": (
            ssd.ftl.flash.total_reads,
            ssd.ftl.flash.total_programs,
            ssd.ftl.flash.total_erases,
        ),
        "busy_time": tuple(ssd.engine.timeline.busy_time),
        "busy_until": tuple(ssd.engine.timeline._busy_until),
    }


def _run(ftl_name: str, threads: int, batch: int) -> dict:
    geometry = golden_geometry()
    ssd = SSD.create(ftl_name, geometry)
    ssd.fill_sequential(io_pages=16)
    for phase in _workload(geometry):
        ssd.run(phase, threads=threads, batch=batch)
    ssd.verify()
    return _fingerprint(ssd)


#: Step-only references, memoized per (ftl, threads): 10 scalar runs serve
#: all 40 batched comparisons.
_scalar_cache: dict[tuple[str, int], dict] = {}


def _scalar_reference(ftl_name: str, threads: int) -> dict:
    key = (ftl_name, threads)
    if key not in _scalar_cache:
        with step_only():
            _scalar_cache[key] = _run(ftl_name, threads, 1)
    return _scalar_cache[key]


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("threads", (1, 4))
@pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
def test_batched_matches_scalar(ftl_name: str, threads: int, batch: int) -> None:
    reference = _scalar_reference(ftl_name, threads)
    assert _run(ftl_name, threads, batch) == reference


@pytest.mark.parametrize("pattern", ("randread", "randwrite"))
@pytest.mark.parametrize("ftl_name", ("dftl", "learnedftl", "ideal"))
def test_request_batch_source_matches_object_stream(ftl_name: str, pattern: str) -> None:
    """A columnar RequestBatch source is equivalent to the same object stream."""
    results = []
    for columnar in (False, True):
        geometry = golden_geometry()
        ssd = SSD.create(ftl_name, geometry)
        ssd.fill_sequential(io_pages=16)
        job = FioJob.from_name(pattern, num_requests=800)
        source = job.requests(geometry)
        if columnar:
            lpns = [request.lpn for request in source]
            columns = RequestBatch.reads if pattern == "randread" else RequestBatch.writes
            source = columns(lpns)
        ssd.run(source, threads=4, batch=64)
        results.append(_fingerprint(ssd))
    assert results[0] == results[1]


@pytest.mark.parametrize("ftl_name", ("dftl", "tpftl"))
def test_mixed_batch_source_matches_object_stream(ftl_name: str) -> None:
    """The synthetic mixed workload's op column feeds the kernel end to end."""
    from repro.workloads.synthetic import mixed_stream

    results = []
    for columnar in (False, True):
        geometry = golden_geometry()
        ssd = SSD.create(ftl_name, geometry)
        ssd.fill_sequential(io_pages=16)
        source = mixed_stream(geometry, num_requests=800)
        if columnar:
            requests = list(source)
            source = RequestBatch(
                [OP_READ_CODE if r.op is OpType.READ else OP_WRITE_CODE for r in requests],
                [r.lpn for r in requests],
                [r.npages for r in requests],
            )
        ssd.run(source, threads=4, batch=64)
        results.append(_fingerprint(ssd))
    assert results[0] == results[1]


def test_invalid_batch_rejected() -> None:
    ssd = SSD.create("ideal", golden_geometry())
    with pytest.raises(ConfigurationError):
        ssd.run([], batch=0)
    with pytest.raises(ConfigurationError):
        ssd.run([], batch=16, threads=0)


def test_batch_none_is_refused_by_name() -> None:
    """``batch`` is the chunk length, not a path switch: ``None`` is refused."""
    ssd = SSD.create("learnedftl", golden_geometry())
    with pytest.raises(ConfigurationError, match="batch"):
        ssd.run(RequestBatch.reads(np.arange(8, dtype=np.int64)), batch=None)


def test_progress_marks_match_scalar() -> None:
    """Planned runs fire progress at the same 10k-request marks as the step.

    The marks must be emitted inside the chunk loop — a single planner step
    spanning a mark still reports it — so a 25k-request run reports exactly
    [10000, 20000] either way, even with a chunk length that never divides
    10_000.
    """
    geometry = golden_geometry()
    lpns = np.arange(25_000, dtype=np.int64) % geometry.num_logical_pages
    marks = {}
    for mode, batch in (("scalar", 1), ("batched", 4096), ("batched_odd", 777)):
        ssd = SSD.create("learnedftl", geometry)
        ssd.fill_sequential(io_pages=16)
        seen: list[int] = []
        with step_only(mode == "scalar"):
            ssd.run(RequestBatch.reads(lpns), threads=4, batch=batch, progress=seen.append)
        marks[mode] = seen
    assert marks["scalar"] == [10_000, 20_000]
    assert marks["batched"] == marks["scalar"]
    assert marks["batched_odd"] == marks["scalar"]


def test_a_one_read_run_is_planned() -> None:
    """A read run of one request between writes is planned: the chunk's
    planner serves it with one ``take``, and the step serves only the writes."""
    ssd = SSD.create("learnedftl", golden_geometry())
    ssd.fill_sequential(io_pages=16)
    ssd.reset_stats()
    ftl = ssd.ftl
    takes: list[int] = []
    begin = ftl.begin_read_run

    class Tapped:
        def __init__(self, planner):
            self.planner = planner

        def take(self, end):
            taken = self.planner.take(end)
            takes.append(taken[0])
            return taken

        def skip(self):
            self.planner.skip()

        def refresh(self, start, end):
            self.planner.refresh(start, end)

    ftl.begin_read_run = lambda *columns: Tapped(begin(*columns))
    ops = np.array([OP_WRITE_CODE, OP_READ_CODE, OP_WRITE_CODE], dtype=np.int8)
    ssd.run(RequestBatch(ops, [40, 41, 42], [1, 1, 1]), threads=2)
    assert takes == [1]
    assert ssd.stats.host_read_requests == 1
    assert ssd.stats.host_write_requests == 2


def test_out_of_range_reads_are_served_as_zero_fill() -> None:
    """A read chunk holding LPNs outside the logical space (past its end and
    negative) equals the step, which serves them as zero-fill: the planner
    refuses them instead of gathering their model bits or looking up a
    model past the last translation page.  The device is fully filled, so
    the multi-page reads that start past the end or cross it are refused
    for their out-of-range pages alone."""
    results = []
    for planned in (False, True):
        ssd = SSD.create("learnedftl", golden_geometry())
        ssd.fill_sequential(io_pages=16)
        limit = ssd.geometry.num_logical_pages
        assert ssd.ftl.directory.lookup_many(np.arange(limit)).min() >= 0
        lpns = np.arange(100, dtype=np.int64)
        lpns[[20, 50]] = limit + 10_000, -3
        npages = np.ones(100, dtype=np.int64)
        # Multi-page reads: two pages past the end, one crossing the end
        # (the last translation page into the one past it), one crossing
        # from negative LPNs into the first page, one in range.
        for at, (lpn, count) in zip(
            (10, 30, 60, 70), ((limit + 10_000, 2), (limit - 2, 4), (-3, 4), (limit - 8, 8))
        ):
            lpns[at], npages[at] = lpn, count
        ops = np.full(100, OP_READ_CODE, dtype=np.int8)
        with step_only(not planned):
            ssd.run(RequestBatch(ops, lpns, npages), threads=2)
        results.append((state_fingerprint(ssd.state_dict()), ssd.stats.summary()))
    assert results[0] == results[1]


@pytest.mark.parametrize("batch", (1, 7, 64))
def test_a_generator_is_pulled_at_most_one_chunk_ahead(batch: int) -> None:
    """A generator source is buffered one chunk at a time: when request ``i``
    is pulled, every request before its chunk has already been served."""
    geometry = golden_geometry()
    ssd = SSD.create("learnedftl", geometry)
    ssd.fill_sequential(io_pages=16)
    ssd.reset_stats()
    stats = ssd.stats
    served_at_pull: list[int] = []
    rng = random.Random(SEED)

    def source():
        for _ in range(500):
            served_at_pull.append(len(stats.read_latencies_us) + len(stats.write_latencies_us))
            op = OpType.WRITE if rng.random() < 0.1 else OpType.READ
            yield HostRequest(op=op, lpn=rng.randrange(geometry.num_logical_pages))

    assert ssd.run(source(), threads=2, batch=batch).requests == 500
    assert [i - served for i, served in enumerate(served_at_pull)] == [
        i % batch for i in range(500)
    ]


@pytest.mark.parametrize("source", ("batch", "objects", "replay"))
def test_chunks_cover_at_most_the_read_page_bound(monkeypatch, source: str) -> None:
    """A chunk ends early once its reads would cover more than
    ``_CHUNK_READ_PAGES`` pages (a planner holds columns per page), from
    every kind of source; the run still equals the request step."""
    import repro.ssd.device as device_module

    monkeypatch.setattr(device_module, "_CHUNK_READ_PAGES", 64)
    geometry = golden_geometry()
    rng = np.random.default_rng(3)
    ops = np.where(rng.random(600) < 0.1, OP_WRITE_CODE, OP_READ_CODE).astype(np.int8)
    npages = rng.integers(1, 21, size=600)
    lpns = rng.integers(0, geometry.num_logical_pages - npages)
    objects = [
        HostRequest(OpType.WRITE if op == OP_WRITE_CODE else OpType.READ, lpn, count)
        for op, lpn, count in zip(ops.tolist(), lpns.tolist(), npages.tolist())
    ]
    covered: list[int] = []
    results = []
    for planned in (False, True):
        ssd = SSD.create("learnedftl", geometry)
        ssd.fill_sequential(io_pages=16)
        if planned:
            begin = ssd.ftl.begin_read_run

            def spy(chunk_ops, chunk_lpns, chunk_npages):
                covered.append(int(chunk_npages[chunk_ops == OP_READ_CODE].sum()))
                return begin(chunk_ops, chunk_lpns, chunk_npages)

            ssd.ftl.begin_read_run = spy
        with step_only(not planned):
            if source == "batch":
                ssd.run(RequestBatch(ops, lpns, npages), threads=2, batch=500)
            elif source == "objects":
                ssd.run(objects, threads=2, batch=500)
            else:
                ssd.replay(objects, streams=2)
        results.append((state_fingerprint(ssd.state_dict()), ssd.stats.summary()))
    assert results[0] == results[1]
    assert len(covered) > 10 and max(covered) <= 64


def _clean_warm_dftl():
    """A dftl device whose CMT holds only clean, read-inserted entries.

    The sequential read storm evicts (and flushes) every dirty fill-era entry,
    leaving the last 64 read LPNs resident.
    """
    geometry = golden_geometry()
    ssd = SSD.create("dftl", geometry)
    ssd.fill_sequential(io_pages=16)
    ssd.run(RequestBatch.reads(np.arange(256, dtype=np.int64)), threads=1)
    return ssd


def test_dftl_batched_run_serves_hits_and_misses_through_the_step():
    """DFTL has no planner: a batched interleaved hit/miss run goes through
    the scalar step, misses served as double reads (translation read each)
    and inserted into the CMT."""
    ssd = _clean_warm_dftl()
    ftl = ssd.ftl
    run = np.array([250, 10, 251, 20, 30], dtype=np.int64)
    resident = [lpn in ftl.cmt for lpn in run.tolist()]
    assert resident == [True, False, True, False, False]
    assert ftl.begin_read_run(np.zeros(len(run), dtype=np.int8), run, np.ones_like(run)) is None
    hits_before = ftl.stats.cmt_hits
    trans_before = ftl.translation_store.translation_reads
    reads_before = ftl.flash.total_reads

    ssd.run(RequestBatch.reads(run), threads=1, batch=64)

    assert ftl.stats.cmt_hits - hits_before == 2
    assert ftl.translation_store.translation_reads - trans_before == 3
    assert ftl.flash.total_reads - reads_before == 5 + 3
    # The misses were really inserted: a second run over them is all hits.
    assert all(lpn in ftl.cmt for lpn in (10, 20, 30))
    trans_before = ftl.translation_store.translation_reads
    ssd.run(RequestBatch.reads(np.array([10, 20, 30], dtype=np.int64)), threads=1, batch=64)
    assert ftl.translation_store.translation_reads == trans_before


def test_dftl_batched_all_hit_run_reads_data_only():
    """An all-hit batched DFTL run issues one data read per request and no
    translation read."""
    ssd = _clean_warm_dftl()
    ftl = ssd.ftl
    trans_before = ftl.translation_store.translation_reads
    reads_before = ftl.flash.total_reads
    hits_before = ftl.stats.cmt_hits
    ssd.run(RequestBatch.reads(np.array([250, 251, 252], dtype=np.int64)), threads=1, batch=64)
    assert ftl.stats.cmt_hits - hits_before == 3
    assert ftl.translation_store.translation_reads == trans_before
    assert ftl.flash.total_reads - reads_before == 3


def test_grouped_read_planner_batch_fills_translation_misses():
    """LearnedFTL's planner services a cold sequential run whose model bits
    are clear with grouped prefetch: one translation read loads a batch of
    neighbours, which the rest of the run then hits — inside a single take."""
    geometry = golden_geometry()
    ssd = SSD.create("learnedftl", geometry)
    ssd.fill_sequential(io_pages=16, fraction=0.75)
    ftl = ssd.ftl
    # Eight consecutive LPNs inside one translation page (tvpn 5), overwritten
    # after the fill so their model bits are clear; the read storm then
    # flushes their dirty CMT entries and leaves tvpn 5 uncached.
    run = np.arange(320, 328, dtype=np.int64)
    ssd.run(RequestBatch.writes(run), threads=1)
    ssd.run(RequestBatch.reads(np.arange(128, dtype=np.int64)), threads=1)
    assert ftl.cmt._pages.get(5) is None
    assert ftl.translation_store._tp_ppn.get(5) is not None
    assert not any(ftl.models[5].can_predict(lpn) for lpn in run.tolist())
    hits_before = ftl.stats.cmt_hits
    trans_before = ftl.translation_store.translation_reads
    lookups_before = ftl.stats.model_lookups
    model_hits_before = ftl.stats.model_hits

    k, data_chips, trans_chips, trans_ppns, computes, npages = read_planner(ftl, run).take(len(run))

    assert k == 8
    assert len(data_chips) == 8
    # Miss at 320 (fresh jump, depth 2: prefetches 321) and at 322 (streak 2,
    # depth 6: prefetches 323..327) — two translation reads for eight
    # requests, where per-request demand loading would have paid eight.
    # Both read translation page 5, whose page the planner hands back.
    assert trans_ppns == [ftl.translation_store._tp_ppn[5]] * 2
    assert [chip != -1 for chip in trans_chips] == [
        True, False, True, False, False, False, False, False,
    ]
    assert ftl.stats.cmt_hits - hits_before == 6
    assert ftl.translation_store.translation_reads - trans_before == 2
    # Both misses consulted a model; none predicted.
    assert ftl.stats.model_lookups - lookups_before == 2
    assert ftl.stats.model_hits == model_hits_before
    # The run is now cached: a second take is all hits, with no translation
    # column at all (the engine's data-only branch).
    k2, _, trans_chips2, trans_ppns2, _, _ = read_planner(ftl, run).take(len(run))
    assert (k2, trans_ppns2, trans_chips2) == (8, [], None)


def _pinned_workload(kind: str, geometry) -> RequestBatch:
    rng = np.random.default_rng(20240808)
    lpns = rng.integers(0, geometry.num_logical_pages, size=2000)
    if kind == "reads":
        return RequestBatch.reads(lpns)
    if kind == "writes":
        return RequestBatch.writes(lpns)
    ops = (np.arange(2000) // 16 % 2).astype(np.int8)
    return RequestBatch(ops=ops, lpns=lpns, npages=np.ones(2000, dtype=np.int64))


def _pinned_fingerprint(ftl_name: str, kind: str, batch: int) -> tuple:
    geometry = golden_geometry()
    ssd = SSD.create(ftl_name, geometry)
    ssd.fill_sequential(io_pages=16)
    ssd.run(_pinned_workload(kind, geometry), threads=4, batch=batch)
    stats = ssd.stats
    return (
        ssd.now_us,
        sum(stats.read_latencies_us),
        sum(stats.write_latencies_us),
        ssd.ftl.flash.total_reads,
        ssd.ftl.flash.total_programs,
        ssd.ftl.flash.total_erases,
    )


#: Batched-kernel fingerprints of seeded read/write/mixed storms, captured at
#: the PR that introduced the batched write kernel.  The equivalence tests
#: above tie batched to scalar *dynamically*; these constants additionally pin
#: both modes to the repository's history, so a change that alters simulated
#: behaviour in BOTH paths at once still fails loudly.  The flash-read total
#: (4th element) of five entries was re-pinned when a translation page moved
#: by translation-pool GC stopped being counted as two reads, and leaftl's
#: mixed entry's again when a misprediction probe of an unprogrammed page
#: started being counted as a read (16 265 -> 16 297).  Regenerate (only for
#: intentional modelling changes) with:
#:
#:     PYTHONPATH=src:tests python - <<'PY'
#:     import json
#:     from test_batched_equivalence import PINNED, _pinned_fingerprint
#:     print(json.dumps({f"{f}:{k}": _pinned_fingerprint(f, k, 64)
#:                       for f, k in PINNED}, indent=4))
#:     PY
PINNED: dict[tuple[str, str], tuple] = {
    ("dftl", "reads"): (306200.0, 371000.0, 213400.0, 4373, 1191, 35),
    ("dftl", "writes"): (7663040.0, 0, 30010120.0, 31535, 34120, 2091),
    ("dftl", "mixed"): (3869360.0, 2098800.0, 12737520.0, 17287, 16975, 1021),
    ("tpftl", "reads"): (112720.0, 312160.0, 34640.0, 3867, 603, 0),
    ("tpftl", "writes"): (7068720.0, 0, 28170600.0, 29544, 32129, 1967),
    ("tpftl", "mixed"): (3496720.0, 1771320.0, 12111440.0, 16160, 15800, 948),
    ("leaftl", "reads"): (63140.0, 122400.0, 32500.0, 2014, 590, 0),
    ("leaftl", "writes"): (7122690.0, 0, 28393020.0, 29781, 32366, 1982),
    ("leaftl", "mixed"): (3467170.0, 1556200.0, 12214820.0, 16297, 15742, 944),
    ("learnedftl", "reads"): (99419.49999999994, 258957.99999999956, 34640.0, 3377, 603, 0),
    ("learnedftl", "writes"): (12546770.0, 0, 50039220.0, 115294, 117879, 7747),
    ("learnedftl", "mixed"): (
        6260890.050000012,
        2382869.3000000333,
        22556568.950000014,
        58641,
        59194,
        3851,
    ),
    ("ideal", "reads"): (59160.0, 121280.0, 28800.0, 2000, 576, 0),
    ("ideal", "writes"): (4874360.0, 0, 19410640.0, 19601, 22177, 1348),
    ("ideal", "mixed"): (2378120.0, 1005520.0, 8420480.0, 10444, 11004, 651),
}


@pytest.mark.parametrize("ftl_name,kind", sorted(PINNED))
def test_pinned_batched_fingerprints(ftl_name: str, kind: str) -> None:
    golden = tuple(PINNED[(ftl_name, kind)])
    with step_only():
        assert _pinned_fingerprint(ftl_name, kind, 1) == golden
    assert _pinned_fingerprint(ftl_name, kind, 1) == golden
    assert _pinned_fingerprint(ftl_name, kind, 64) == golden
    assert _pinned_fingerprint(ftl_name, kind, 4096) == golden


#: One segment of a random interleaving: its op mix, length, share of
#: multi-page requests, whether its LPNs stay inside a CMT-sized hot range,
#: and the seed of its columns.
_SEGMENT = st.tuples(
    st.sampled_from(("read", "write", "mixed")),
    st.integers(1, 300),
    st.sampled_from((0.0, 0.25)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


def _interleaving(geometry, segments) -> RequestBatch:
    limit = geometry.num_logical_pages
    columns = []
    for kind, count, multi_share, hot, seed in segments:
        rng = np.random.default_rng(seed)
        if kind == "mixed":
            ops = rng.integers(OP_READ_CODE, OP_WRITE_CODE + 1, size=count)
        else:
            ops = np.full(count, OP_READ_CODE if kind == "read" else OP_WRITE_CODE)
        npages = np.where(rng.random(count) < multi_share, rng.integers(2, 9, size=count), 1)
        lpns = rng.integers(0, 48 if hot else limit, size=count)
        columns.append((ops, np.minimum(lpns, limit - npages), npages))
    ops, lpns, npages = (np.concatenate(column) for column in zip(*columns))
    return RequestBatch(ops, lpns, npages)


@pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
@settings(max_examples=16, deadline=None, derandomize=True)
@given(
    segments=st.lists(_SEGMENT, min_size=1, max_size=6),
    batch=st.sampled_from((2, 16, 4096)),
    threads=st.sampled_from((1, 3)),
)
def test_random_interleavings_match_scalar(ftl_name, segments, batch, threads):
    """Batched == scalar after any interleaving of reads and writes.

    Segments of single- and multi-page reads and writes, long enough to reach
    GC and CMT eviction, so read planners (of runs of any length) are built
    right after scalar writes in the same chunk at random boundaries.
    """
    geometry = SSDGeometry.small()
    requests = _interleaving(geometry, segments)
    results = []
    for mode in (1, batch):
        ssd = SSD.create(ftl_name, geometry)
        ssd.fill_sequential()
        with step_only(mode == 1):
            ssd.run(requests, threads=threads, batch=mode)
        results.append((state_fingerprint(ssd.state_dict()), ssd.stats.summary(), ssd.now_us))
        ssd.verify()
    assert results[1] == results[0]


def _refresh_workload(geometry) -> RequestBatch:
    """Read runs of 1-30 requests, mostly on a hot range, each followed by
    one or two requests of another shape: a single-page write to a hot LPN
    (read again later in its chunk, after cold reads may have evicted it
    from the CMT), a multi-page write (sequential initialization), a
    multi-page read, or a single-page write anywhere (group GC and
    retraining once the free space runs low)."""
    rng = np.random.default_rng(11)
    limit = geometry.num_logical_pages
    ops, lpns, npages = [], [], []
    while len(lpns) < 2400:
        run = int(rng.integers(1, 31))
        ops += [OP_READ_CODE] * run
        hot = rng.random(run) < 0.7
        lpns += np.where(hot, rng.integers(0, 160, size=run), rng.integers(0, limit, size=run)).tolist()
        npages += [1] * run
        for _ in range(int(rng.integers(1, 3))):
            shape = int(rng.integers(0, 4))
            pages = 1 if shape in (0, 3) else int(rng.integers(2, 9))
            ops.append(OP_READ_CODE if shape == 2 else OP_WRITE_CODE)
            lpns.append(int(rng.integers(0, 160 if shape == 0 else limit - pages)))
            npages.append(pages)
    return RequestBatch(ops, lpns, npages)


class _StreamDigest:
    """An observation-log consumer hashing the observed request stream.

    One digest per column, each over the concatenation of every block's
    column, so how the stream was cut into blocks does not show.  The
    kernel logs a data read's command by its code alone and a read's
    outcome by its class, so commands are hashed by code, plus a
    translation read's chip and page (what the tracer reads), and outcomes
    by class (what the windowed recorder reads).
    """

    def __init__(self) -> None:
        self.columns = {name: hashlib.sha256() for name in ("rows", "codes", "translation", "outcomes")}

    def attach(self, log) -> None:
        pass

    def consume(self, block) -> None:
        commands = np.asarray(block.ops, dtype=np.int64).reshape(-1, 4)
        translation = commands[commands[:, 0] == _TRANSLATION_READ][:, 1:3]
        per_request = np.bincount(block.op_request, minlength=block.count)
        outcomes = np.bincount(block.outcome_request, minlength=block.count)
        for name, column in (
            ("rows", np.stack([block.issue, block.latency, block.pages, per_request, outcomes])),
            ("codes", block.codes),
            ("translation", translation),
            ("outcomes", block.outcomes > ReadOutcome.MODEL_HIT.code),
        ):
            self.columns[name].update(np.ascontiguousarray(column.T).tobytes())

    def digests(self) -> dict[str, str]:
        return {name: digest.hexdigest() for name, digest in self.columns.items()}


_TRANSLATION_READ = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)


def _refresh_run(batch: int) -> tuple:
    from repro.core.base import FTLConfig

    geometry = golden_geometry()
    ssd = SSD.create("learnedftl", geometry, config=FTLConfig(learnedftl_cmt_ratio=0.05))
    ssd.fill_sequential(io_pages=16, fraction=0.6)
    sink = _StreamDigest()
    ssd._log = ObservationLog(recorder=sink)
    ssd.run(_refresh_workload(geometry), threads=3, batch=batch)
    ssd._log.flush()
    ssd.verify()
    return state_fingerprint(ssd.state_dict()), ssd.stats.summary(), sink.digests()


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_chunk_columns_refresh_after_writes(monkeypatch, batch: int) -> None:
    """Step-only == planned, with one planner per chunk across every kind of
    segment that changes its columns.

    The chunks hold single-page writes to LPNs read again later in the
    chunk (patched in place), writes that run group GC and retraining
    (which re-gather the rest of the chunk), multi-page writes (sequential
    initialization: the later pages of the translation pages they cover are
    re-read), multi-page reads among the read runs, and refused reads whose
    step evicts a dirty node.
    """
    with step_only():
        reference = _refresh_run(1)
    kinds = dict.fromkeys(("gc", "retrained", "reread", "patch", "dirty_refusal"), 0)
    gather, refresh, take, skip = (
        GroupedReadPlanner._gather,
        GroupedReadPlanner.refresh,
        GroupedReadPlanner.take,
        GroupedReadPlanner.skip,
    )
    gathered: list = []
    refused: list[bool] = [False]
    # Models trained when the planner last served a read.
    trained = [0]

    def spy_refresh(planner, start, end):
        gc_events = planner._gc_events
        gathered.clear()
        refresh(planner, start, end)
        if gc_events != planner._gc_events:
            kinds["gc"] += 1
            kinds["retrained"] += planner._stats.models_trained != trained[0]
            return
        # A multi-page write re-reads the later pages of the translation
        # pages it covers (an array of positions, never a slice).
        kinds["reread"] += any(not isinstance(at, slice) for at in gathered)
        kinds["patch"] += any(
            position >= planner._starts[end]
            for i in range(start, end)
            if planner._ops[i] == OP_WRITE_CODE and planner._npages[i] == 1
            for position in planner._later_reads.get(planner._lpns[i], ())
        )

    def spy_take(planner, end):
        result = take(planner, end)
        refused[0] = planner._pos < end
        trained[0] = planner._stats.models_trained
        return result

    def spy_skip(planner):
        refused[0] = False
        skip(planner)

    def spy_flush(ftl_flush):
        def flush(tvpn):
            if refused[0]:
                kinds["dirty_refusal"] += 1
            return ftl_flush(tvpn)

        return flush

    monkeypatch.setattr(
        GroupedReadPlanner, "_gather", lambda p, at: (gathered.append(at), gather(p, at))
    )
    monkeypatch.setattr(GroupedReadPlanner, "refresh", spy_refresh)
    monkeypatch.setattr(GroupedReadPlanner, "take", spy_take)
    monkeypatch.setattr(GroupedReadPlanner, "skip", spy_skip)
    create = SSD.create

    def create_spied(*args, **kwargs):
        ssd = create(*args, **kwargs)
        ssd.ftl._flush_translation_page = spy_flush(ssd.ftl._flush_translation_page)
        return ssd

    monkeypatch.setattr(SSD, "create", create_spied)
    assert _refresh_run(batch) == reference
    if batch > 1:
        assert all(kinds.values()), kinds


def _any_length_workload(geometry) -> list[HostRequest]:
    """Read runs of 1-24 single- and multi-page reads, each followed by one
    or two writes, with arrival times and four streams for the open loop.

    The reads: single pages, mostly on a hot range; multi-page reads that
    cross a translation-page boundary; multi-page reads anywhere, which find
    unmapped pages above the device's 60 % fill; and reads reaching past the
    logical space.  The writes: a single page on the hot range (patched in
    place), a multi-page write on the hot range's translation pages (re-read
    by translation page) or a single page anywhere (dirty CMT nodes, group
    GC and retraining once the free space runs low).
    """
    rng = np.random.default_rng(23)
    limit = geometry.num_logical_pages
    per_page = geometry.mappings_per_translation_page
    shapes = []
    while len(shapes) < 2400:
        for _ in range(int(rng.integers(1, 25))):
            draw = rng.random()
            if draw < 0.5:
                shapes.append((OpType.READ, int(rng.integers(0, 3 * per_page)), 1))
            elif draw < 0.58:
                shapes.append((OpType.READ, int(rng.integers(0, limit)), 1))
            elif draw < 0.8:
                pages = int(rng.integers(2, 9))
                boundary = int(rng.integers(1, limit // per_page)) * per_page
                shapes.append((OpType.READ, boundary - int(rng.integers(1, pages)), pages))
            elif draw < 0.97:
                pages = int(rng.integers(2, 9))
                shapes.append((OpType.READ, int(rng.integers(0, limit - pages)), pages))
            else:
                shapes.append((OpType.READ, limit - int(rng.integers(1, 4)), int(rng.integers(4, 7))))
        for _ in range(int(rng.integers(1, 3))):
            shape = int(rng.integers(0, 3))
            if shape == 1:
                pages = int(rng.integers(2, 9))
                shapes.append((OpType.WRITE, int(rng.integers(0, 3 * per_page - pages)), pages))
            else:
                hot = 3 * per_page if shape == 0 else limit
                shapes.append((OpType.WRITE, int(rng.integers(0, hot)), 1))
    streams = rng.integers(0, 4, size=len(shapes)).tolist()
    return [
        HostRequest(op, lpn, pages, i * 30.0, stream)
        for i, ((op, lpn, pages), stream) in enumerate(zip(shapes, streams))
    ]


#: The host loops ``_any_length_run`` drives: the closed loop, and the open
#: loop with one or four streams, with and without the arrival times.
_LOOPS = ("run", "replay-1", "replay-4", "replay-1-untimed", "replay-4-untimed")


def _any_length_run(loop: str, batch: int) -> tuple:
    from repro.core.base import FTLConfig

    geometry = golden_geometry()
    ssd = SSD.create("learnedftl", geometry, config=FTLConfig(learnedftl_cmt_ratio=0.05))
    ssd.fill_sequential(io_pages=16, fraction=0.6)
    ssd.reset_stats()
    sink = _StreamDigest()
    ssd._log = ObservationLog(recorder=sink)
    requests = _any_length_workload(geometry)
    if loop == "run":
        ssd.run(requests, threads=3, batch=batch)
    else:
        if loop.endswith("untimed"):
            requests = [HostRequest(r.op, r.lpn, r.npages, None, r.stream_id) for r in requests]
        # Chunked as a streaming replay chunks: one call per ``batch``
        # requests, sharing the stream free times and the arrival origin.
        stream_free = [0.0] * int(loop.split("-")[1])
        for start in range(0, len(requests), batch):
            ssd.replay(requests[start : start + batch], stream_free=stream_free, origin_us=0.0)
    ssd._log.flush()
    ssd.verify()
    return state_fingerprint(ssd.state_dict()), ssd.stats.summary(), ssd.now_us, sink.digests()


_any_length_references: dict[str, tuple] = {}


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("loop", _LOOPS)
def test_reads_of_any_length_match_the_step(monkeypatch, loop: str, batch: int) -> None:
    """Step-only == planned for reads of any length, in both host loops.

    The chunks hold multi-page reads served across a translation-page
    boundary and in one take with single-page reads; multi-page reads
    refused for a dirty eviction, for an unmapped page (zero-fill) and for
    reaching past the logical space; and multi-page writes whose translation
    pages are re-read for later reads in the chunk.
    """
    if loop not in _any_length_references:
        with step_only():
            _any_length_references[loop] = _any_length_run(loop, 1)
    kinds = dict.fromkeys(
        ("crossing", "mixed_take", "dirty_refusal", "unmapped", "past_end", "reread"), 0
    )
    gather, take, skip = GroupedReadPlanner._gather, GroupedReadPlanner.take, GroupedReadPlanner.skip
    # The multi-page read the planner last refused, until the step serves it.
    refused: list = [None]

    def spy_take(planner, end):
        pos = planner._pos
        result = take(planner, end)
        k, pages = result[0], result[5]
        per_page = planner._mappings_per_page
        lpns = planner._lpns
        if pages is not None:
            kinds["mixed_take"] += 1 in pages
            kinds["crossing"] += sum(
                lpn // per_page != (lpn + count - 1) // per_page
                for lpn, count in zip(lpns[pos : pos + k], pages)
            )
        i = pos + k
        refused[0] = None
        if i < end and planner._npages[i] > 1:
            refused[0] = i
            first, last = planner._lpns[i], planner._lpns[i] + planner._npages[i]
            if last > planner._ftl.geometry.num_logical_pages:
                kinds["past_end"] += 1
            elif -1 in planner._ftl.directory.lookup_many(np.arange(first, last)):
                kinds["unmapped"] += 1
        return result

    def spy_skip(planner):
        refused[0] = None
        skip(planner)

    def spy_gather(planner, at):
        if not isinstance(at, slice):
            kinds["reread"] += 1
        gather(planner, at)

    def spy_flush(ftl_flush):
        def flush(tvpn):
            if refused[0] is not None:
                kinds["dirty_refusal"] += 1
            return ftl_flush(tvpn)

        return flush

    monkeypatch.setattr(GroupedReadPlanner, "_gather", spy_gather)
    monkeypatch.setattr(GroupedReadPlanner, "take", spy_take)
    monkeypatch.setattr(GroupedReadPlanner, "skip", spy_skip)
    create = SSD.create

    def create_spied(*args, **kwargs):
        ssd = create(*args, **kwargs)
        ssd.ftl._flush_translation_page = spy_flush(ssd.ftl._flush_translation_page)
        return ssd

    monkeypatch.setattr(SSD, "create", create_spied)
    assert _any_length_run(loop, batch) == _any_length_references[loop]
    if batch > 1:
        assert all(kinds.values()), kinds


def test_planner_columns_hold_across_flushes_and_pool_gc() -> None:
    """Batched == scalar on one read run whose scalar fallbacks write back
    dirty translation pages and collect a translation-pool block mid-run.

    A 16-entry CMT over 24 translation pages of 32 mappings and a 12-block
    pool: 200 random writes leave dirty nodes behind, and the read run that
    follows refuses each load that would evict one.  The refused request's
    step flushes the node, and one flush finds the pool low and collects a
    block first.  The planner keeps serving the run from the columns it
    gathered for the chunk before either happened (model hits, CMT hits and double reads
    included).
    """
    from repro.core.base import FTLConfig

    geometry = SSDGeometry.small(blocks_per_plane=32, pages_per_block=8, page_size=256)
    config = FTLConfig(learnedftl_cmt_ratio=0.01, min_cmt_entries=16)
    rng = np.random.default_rng(5)
    writes = rng.integers(0, geometry.num_logical_pages, size=200)
    reads = rng.integers(0, geometry.num_logical_pages, size=2000)
    requests = RequestBatch(
        ops=np.repeat(np.array([OP_WRITE_CODE, OP_READ_CODE], dtype=np.int8), (200, 2000)),
        lpns=np.concatenate([writes, reads]),
        npages=np.ones(2200, dtype=np.int64),
    )
    results = []
    for batch in (1, 4096):
        ssd = SSD.create("learnedftl", geometry, config=config)
        ssd.fill_sequential(io_pages=16)
        ftl = ssd.ftl
        events: list[tuple[str, int]] = []
        if batch > 1:
            begin, flush, collect = (
                ftl.begin_read_run,
                ftl._flush_translation_page,
                ftl._collect_translation_block_into,
            )

            class Recorded:
                def __init__(self, planner):
                    self.planner = planner
                    events.append(("begin", len(planner._lpns)))

                def take(self, end):
                    taken = self.planner.take(end)
                    events.append(("take", taken[0]))
                    return taken

                def skip(self):
                    self.planner.skip()

                def refresh(self, start, end):
                    self.planner.refresh(start, end)

            ftl.begin_read_run = lambda *columns: Recorded(begin(*columns))
            ftl._flush_translation_page = lambda tvpn: (events.append(("flush", 1)), flush(tvpn))
            ftl._collect_translation_block_into = lambda stage: (
                events.append(("pool_gc", 1)),
                collect(stage),
            )
        with step_only(batch == 1):
            ssd.run(requests, threads=4, batch=batch)
        ssd.verify()
        stats = ssd.stats
        results.append((state_fingerprint(ssd.state_dict()), stats.summary(), ssd.now_us))
    assert results[1] == results[0]
    assert stats.model_hits and stats.cmt_hits and ftl.translation_store.translation_reads
    # The chunk's planner is the last one; within its read run, requests
    # were taken after a flush and after a pool GC.
    run = events[max(i for i, (kind, _) in enumerate(events) if kind == "begin") :]
    assert run[0] == ("begin", 2200)
    first_flush = run.index(("flush", 1))
    first_gc = run.index(("pool_gc", 1))
    assert sum(k for kind, k in run[max(first_flush, first_gc) :] if kind == "take") > 0


def test_clear_bits_cost_no_model_call(monkeypatch) -> None:
    """A CMT miss with a clear model bit goes straight to the double read; a
    set bit makes one ``predict_exact`` call and no ``vppn_to_ppn``."""
    from repro.core.learned.inplace_model import InPlaceLinearModel

    geometry = golden_geometry()
    ssd = SSD.create("learnedftl", geometry)
    ssd.fill_sequential(io_pages=16)
    ftl = ssd.ftl
    # Clear the bits of every other LPN in a stretch, then push the stretch
    # out of the CMT with reads elsewhere.
    stretch = np.arange(128, 160, dtype=np.int64)
    ssd.run(RequestBatch.writes(stretch[::2]), threads=1)
    ssd.run(RequestBatch.reads(np.arange(320, 576, dtype=np.int64)), threads=1)
    assert not any(lpn in ftl.cmt for lpn in stretch.tolist())
    set_bits = [
        ftl.models[lpn // ftl._mappings_per_page].can_predict(lpn) for lpn in stretch.tolist()
    ]
    assert any(set_bits) and not all(set_bits)

    predicted: list[int] = []
    predict_exact = InPlaceLinearModel.predict_exact

    def spy_predict(model, lpn):
        predicted.append(lpn)
        return predict_exact(model, lpn)

    def no_vppn_to_ppn(vppn):
        raise AssertionError("the planner translated a VPPN")

    monkeypatch.setattr(InPlaceLinearModel, "predict_exact", spy_predict)
    monkeypatch.setattr(ftl.codec, "vppn_to_ppn", no_vppn_to_ppn)
    monkeypatch.setattr(ftl, "_vppn_to_ppn", no_vppn_to_ppn)
    translation_reads = ftl.translation_store.translation_reads
    planner = read_planner(ftl, stretch)
    served = 0
    while served < len(stretch):
        served += planner.take(len(stretch))[0]
        if served < len(stretch):
            # A refused request would run the scalar step; none is expected.
            raise AssertionError(f"refused lpn {stretch[served]}")
    # Only the set-bit requests the CMT missed reached a model; a double
    # read's prefetch can bring a set-bit neighbour into the CMT first.
    assert predicted and all(set_bits[lpn - 128] for lpn in predicted)
    assert ftl.translation_store.translation_reads > translation_reads


def test_cached_ppn_off_the_directory_is_refused() -> None:
    """The planner serves a CMT hit only when the cached PPN is the
    directory's: the data chip comes from the directory's column."""
    geometry = golden_geometry()
    ssd = SSD.create("learnedftl", geometry)
    ssd.fill_sequential(io_pages=16)
    ftl = ssd.ftl
    ssd.run(RequestBatch.writes(np.array([300, 301], dtype=np.int64)), threads=1)
    node = ftl.cmt._pages[300 // ftl._mappings_per_page]
    node[301] = node[301] + 1
    k = read_planner(ftl, [300, 301]).take(2)[0]
    assert k == 1


def _cmt_with_three_nodes(dirty_tvpn: int | None) -> SSD:
    """A single-page-filled LearnedFTL (every model bit clear) whose full
    64-entry CMT holds, least recently used first, tvpn 1 (LPNs 64-69),
    tvpn 2 (LPN 128) and tvpn 3 (LPNs 192-242); ``dirty_tvpn``'s entries
    are dirty."""
    from repro.core.base import FTLConfig

    ssd = SSD.create("learnedftl", golden_geometry(), config=FTLConfig(train_on_gc=False))
    ssd.fill_sequential(io_pages=1)
    cmt = ssd.ftl.cmt
    nodes = {1: range(64, 70), 2: range(128, 129), 3: range(192, 243)}
    lpns = np.array([lpn for node in nodes.values() for lpn in node], dtype=np.int64)
    cmt.load_state(
        {
            "node_tvpns": np.array(list(nodes), dtype=np.int64),
            "node_sizes": np.array([len(node) for node in nodes.values()], dtype=np.int64),
            "lpns": lpns,
            "ppns": ssd.ftl.directory.lookup_many(lpns),
            "dirty": (lpns // cmt.mappings_per_page == dirty_tvpn).astype(np.uint8),
            "size_entries": cmt.capacity_entries,
        }
    )
    assert cmt.memory_entries() == cmt.capacity_entries == 64
    return ssd


@pytest.mark.parametrize("dirty_tvpn,served", [(2, 0), (3, 1), (None, 1)])
def test_load_refused_only_when_an_evicted_node_is_dirty(dirty_tvpn, served) -> None:
    """A miss whose load overflows the CMT is refused only when a node the
    load would evict is dirty.

    A miss on LPN 70 loads into tvpn 1, which ``load_node`` moves to the
    recency tail first, so the overflow evicts tvpn 2 and nothing else: a
    dirty tvpn 2 refuses the miss, a dirty tvpn 3 does not.  Served either
    way, the run equals the scalar step.
    """
    ssd = _cmt_with_three_nodes(dirty_tvpn)
    assert not ssd.ftl.models[1].can_predict(70)
    assert read_planner(ssd.ftl, [70]).take(1)[0] == served
    results = []
    for planned in (False, True):
        ssd = _cmt_with_three_nodes(dirty_tvpn)
        with step_only(not planned):
            ssd.run(RequestBatch.reads(np.array([70], dtype=np.int64)), threads=1)
        results.append((state_fingerprint(ssd.state_dict()), ssd.stats.summary()))
    assert results[0] == results[1]


@pytest.mark.parametrize("dirty_tvpn,served", [(1, 0), (2, 0), (3, 0), (None, 1)])
def test_multi_page_read_refused_when_its_eviction_prefix_holds_a_dirty_node(dirty_tvpn, served):
    """A multi-page read is served only when every node its loads could
    evict is clean, its own nodes included.

    LPNs 62-65 cover tvpn 0 (uncached) and tvpn 1 (cached, least recently
    used): at depth 2 each takes at most one load, 8 entries in all, which
    overflows the full CMT by 8.  Loading tvpn 0 evicts tvpn 1, the
    request's own node, and the bound walks the LRU nodes up to the ones
    outside the request that cover the overflow (tvpn 2, then tvpn 3): a
    dirty node anywhere in that prefix refuses the read.  Served or
    refused, the run equals the request step.
    """
    ssd = _cmt_with_three_nodes(dirty_tvpn)
    planner = ssd.ftl.begin_read_run(
        np.array([OP_READ_CODE], dtype=np.int8),
        np.array([62], dtype=np.int64),
        np.array([4], dtype=np.int64),
    )
    assert planner._depths == [2]
    assert planner.take(1)[0] == served
    results = []
    for planned in (False, True):
        ssd = _cmt_with_three_nodes(dirty_tvpn)
        with step_only(not planned):
            ssd.run(RequestBatch.reads(np.array([62], dtype=np.int64), npages=4), threads=1)
        results.append((state_fingerprint(ssd.state_dict()), ssd.stats.summary()))
    assert results[0] == results[1]
