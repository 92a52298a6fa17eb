"""TPFTL's loading policy, stated once in :class:`repro.core.cmt.LoadingPolicy`.

TPFTL and LearnedFTL both own one; LearnedFTL's batched read planner calls the
same policy, observing a read run as columns.  The pin here: with its models off (no sequential
initialization, no training at GC) LearnedFTL *is* TPFTL at the CMT level —
the same lookups, hits, outcomes, policy state and CMT occupancy for the same
read stream, whether the request step (``batch=1``) or the read planner serves it.
"""

from __future__ import annotations

import random
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import SSD, SSDGeometry
from repro.core.base import FTLConfig
from repro.core.cmt import LoadingPolicy, PageGroupedCMT
from repro.ssd.request import HostRequest, OpType
from tests.conftest import random_writes

#: Same CMT budget for both designs; models never learn anything.
MODELS_OFF = FTLConfig(
    cmt_ratio=0.03,
    learnedftl_cmt_ratio=0.03,
    sequential_init_min_pages=10**9,
    train_on_gc=False,
)


def _reads(geometry: SSDGeometry, count: int, *, max_pages: int, seed: int) -> list[HostRequest]:
    """Uniform reads of 1..max_pages pages; ``max_pages=0``: single-page scans
    of 100 consecutive LPNs, each of which takes the sequential streak to its cap."""
    rng = random.Random(seed)
    limit = geometry.num_logical_pages
    requests = []
    while len(requests) < count:
        if max_pages:
            npages = rng.randint(1, max_pages)
            lpn = rng.randint(0, limit - npages)
            requests.append(HostRequest(op=OpType.READ, lpn=lpn, npages=npages))
        else:
            start = rng.randint(0, limit - 100)
            scan = range(start, start + 100)
            requests.extend(HostRequest(op=OpType.READ, lpn=lpn, npages=1) for lpn in scan)
    return requests[:count]


def _cmt_view(ssd: SSD) -> dict:
    stats = ssd.stats
    return {
        "cmt_lookups": stats.cmt_lookups,
        "cmt_hits": stats.cmt_hits,
        "outcome_counts": list(stats.outcome_counts),
        "locality": ssd.ftl.state_dict()["locality"],
        "cmt_entries": ssd.ftl.cmt.memory_entries(),
    }


@pytest.mark.parametrize("overwrite", [False, True], ids=["filled", "overwritten"])
@pytest.mark.parametrize(
    ("max_pages", "batch"),
    [(1, 1), (1, 512), (7, 1), (0, 512)],
    ids=["uniform-scalar", "uniform-batched", "1-7-pages", "scans-batched"],
)
def test_learnedftl_without_models_is_tpftl_at_the_cmt(overwrite, max_pages, batch):
    geometry = SSDGeometry.small()
    requests = _reads(geometry, 4000, max_pages=max_pages, seed=17)
    views = {}
    for name in ("tpftl", "learnedftl"):
        ssd = SSD.create(name, geometry, config=MODELS_OFF)
        ssd.fill_sequential(io_pages=128)
        if overwrite:
            ssd.run(random_writes(ssd.geometry, 3000, seed=5), threads=1)
        ssd.reset_stats()
        ssd.run(requests, batch=batch if name == "learnedftl" else 1)
        assert ssd.stats.model_hits == 0
        views[name] = _cmt_view(ssd)
    assert views["learnedftl"] == views["tpftl"]


def _policy(capacity: int = 1024, *, mapped: int = 4096) -> LoadingPolicy:
    cmt = PageGroupedCMT(capacity_entries=capacity, mappings_per_page=64)
    column = array("q", [lpn + 10 if lpn < mapped else -1 for lpn in range(4096)])
    return LoadingPolicy(cmt, column, 4096, 64)


def test_depth_follows_request_length_and_streak():
    policy = _policy()
    assert policy.depth() == 1
    for lpn in range(0, 400, 7):
        policy.observe(lpn * 3, 1)
    assert policy.streak == 0
    assert policy.depth() == 2
    for lpn in range(0, 80, 8):
        policy.observe(lpn, 8)
    # Mean length 8 over the window's last 10 of 32 requests plus a streak of 9.
    assert policy.depth() == min(policy.ceiling, round((22 + 80) / 32 * 2) + 2 * 9)
    for lpn in range(80, 80 + 8 * 100, 8):
        policy.observe(lpn, 8)
    assert policy.streak == policy.streak_cap
    assert policy.depth() == policy.ceiling == 64


def test_load_stays_inside_the_translation_page_and_skips_cached_or_unmapped():
    policy = _policy(mapped=70)
    for lpn in range(0, 32 * 4, 4):
        policy.observe(lpn, 4)
    assert policy.depth() > 8
    policy._cmt.insert(61, 71)
    policy.load(58, 68, 0)
    cached = {lpn for node in policy._cmt._pages.values() for lpn in node}
    # 58 plus 59, 60, 62, 63: 61 was cached, 64 belongs to the next page.
    assert cached == {58, 59, 60, 61, 62, 63}
    policy.load(66, 76, 1)
    # 67..69 are mapped, 70 and beyond are not.
    assert {66, 67, 68, 69} <= {lpn for node in policy._cmt._pages.values() for lpn in node}
    assert 70 not in policy._cmt


def test_state_round_trips_in_place():
    policy = _policy()
    for lpn in (5, 6, 7, 100, 101):
        policy.observe(lpn, 1 if lpn < 100 else 3)
    state = policy.state_dict()
    assert state == {"recent_lengths": [1, 1, 1, 3, 3], "last_lpn_end": 104, "sequential_streak": 0}
    restored = _policy()
    lengths = restored.lengths
    restored.load_state(state)
    assert restored.lengths is lengths
    assert restored.state_dict() == state
    assert restored.length_sum == 9
    assert restored.depth() == policy.depth()


# ------------------------------------------- a read run observed as columns
_WINDOWS = st.lists(st.integers(1, 64), max_size=32)
_STRETCHES = st.lists(
    st.tuples(st.integers(0, 4000), st.integers(1, 100)), min_size=1, max_size=5
)


@given(
    window=_WINDOWS,
    streak=st.integers(0, 64),
    last_end=st.sampled_from(["none", "adjacent", "elsewhere"]),
    stretches=_STRETCHES,
    capacity=st.sampled_from([8, 1024]),
)
@settings(max_examples=200, deadline=None)
def test_observe_run_equals_one_observe_at_a_time(window, streak, last_end, stretches, capacity):
    """``observe_run``'s columns are what ``observe(lpn, 1)`` then ``depth()``
    read request by request, and ``commit_run`` after any prefix, at once or
    a request at a time, leaves the scalar state."""
    lpns = np.array(
        [lpn for start, length in stretches for lpn in range(start, start + length)], dtype=np.int64
    )
    first = int(lpns[0])
    state = {
        "recent_lengths": window,
        "last_lpn_end": {"none": None, "adjacent": first, "elsewhere": first + 7}[last_end],
        "sequential_streak": streak,
    }
    scalar = _policy(capacity)
    scalar.load_state(state)
    columnar = _policy(capacity)
    columnar.load_state(state)
    stepwise = _policy(capacity)
    stepwise.load_state(state)
    at_once = _policy(capacity)
    depths, sums, streaks = columnar.observe_run(lpns, np.ones_like(lpns))
    assert columnar.state_dict() == state
    for i, lpn in enumerate(lpns.tolist()):
        scalar.observe(lpn, 1)
        assert (depths[i], sums[i], streaks[i]) == (
            scalar.depth(), scalar.length_sum, scalar.streak
        )
        stepwise.commit_run([1], sums[i], streaks[i], lpn + 1)
        at_once.load_state(state)
        at_once.commit_run([1] * (i + 1), sums[i], streaks[i], lpn + 1)
        for committed in (stepwise, at_once):
            assert committed.state_dict() == scalar.state_dict()
            assert committed.length_sum == scalar.length_sum


# --------------------------------------- a request chunk observed as columns
#: One request of a chunk: its page count, whether it starts where the last
#: request ended (else at a random LPN), and whether the planner serves it
#: (``commit_run``, with its real page count) or the step does (``observe``).
_CHUNK_REQUESTS = st.lists(
    st.tuples(st.sampled_from([1, 1, 1, 2, 7, 128]), st.booleans(), st.booleans()),
    min_size=1,
    max_size=150,
)


@given(
    window=_WINDOWS,
    streak=st.integers(0, 64),
    requests=_CHUNK_REQUESTS,
    start=st.integers(0, 4000),
    capacity=st.sampled_from([8, 1024]),
)
@example(  # the streak cap and the window's wrap, resumed after a refusal
    window=[3] * 20,
    streak=60,
    requests=[(1, True, i % 40 != 39) for i in range(100)] + [(7, True, False)] * 3,
    start=10,
    capacity=1024,
)
@example(  # committed stretches of mixed page counts wrapping the window
    window=[1] * 32,
    streak=0,
    requests=[(pages, True, i % 9 != 8) for i, pages in enumerate([7, 1, 128, 2, 1] * 12)],
    start=0,
    capacity=8,
)
@settings(max_examples=200, deadline=None)
def test_observe_run_over_a_chunk_equals_observe_in_order(window, streak, requests, start, capacity):
    """``observe_run``'s columns over a chunk of mixed page counts are the
    states ``observe(lpn, npages)`` leaves request by request, and the live
    state stays equal to them while stretches of requests of any length
    are committed with their page counts and the rest (a refused read, a
    write) are observed one at a time.

    Covers a partly full window (``window`` holds 0 to 32 lengths), its wrap
    past 32 entries, the streak cap (runs of continuing requests longer than
    64) and a committed stretch resuming after an observed request.
    """
    rng = random.Random(len(requests) * 7919 + start)
    lpns, npages, served = [], [], []
    end = start
    for pages, continues, planned in requests:
        lpn = end if continues else rng.randrange(5000)
        lpns.append(lpn)
        npages.append(pages)
        served.append(planned)
        end = lpn + pages
    state = {"recent_lengths": window, "last_lpn_end": start, "sequential_streak": streak}
    scalar = _policy(capacity)
    scalar.load_state(state)
    columnar = _policy(capacity)
    columnar.load_state(state)
    depths, sums, streaks = columnar.observe_run(
        np.array(lpns, dtype=np.int64), np.array(npages, dtype=np.int64)
    )
    assert columnar.state_dict() == state
    pending = 0
    for i, (lpn, pages) in enumerate(zip(lpns, npages)):
        scalar.observe(lpn, pages)
        assert (depths[i], sums[i], streaks[i]) == (
            scalar.depth(), scalar.length_sum, scalar.streak
        )
        if served[i]:
            pending += 1
            continue
        if pending:
            columnar.commit_run(
                npages[i - pending : i], sums[i - 1], streaks[i - 1], lpns[i - 1] + npages[i - 1]
            )
            pending = 0
        columnar.observe(lpn, pages)
        assert columnar.state_dict() == scalar.state_dict()
        assert columnar.length_sum == scalar.length_sum
    if pending:
        columnar.commit_run(npages[-pending:], sums[-1], streaks[-1], lpns[-1] + npages[-1])
    assert columnar.state_dict() == scalar.state_dict()
    assert columnar.length_sum == scalar.length_sum
