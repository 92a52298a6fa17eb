"""Multi-page host writes: the columnar write body is pinned to the per-page one.

A host write of at least ``_MIN_COLUMN_WRITE`` pages is written as columns —
``StripingFTLBase._write_columns`` for DFTL, TPFTL, LeaFTL and the ideal FTL,
``LearnedFTL._write_columns`` (chunks cut before GC, borrowing and evicting CMT
inserts) for LearnedFTL — and a shorter one page by page.  The golden workload
never reaches the columnar body (its requests are 16, 4 and 2 pages long), so
the scenarios below do, on every design:

* ``fill`` — a 128-page sequential fill of ``SSDGeometry.small()``;
* ``steady`` — GC-bound 128-page overwrites of the filled device;
* ``mixed`` — a 1–200-page write/read stream at random positions (crossing
  group, stripe and GTD-entry boundaries) over a filled device whose CMT holds
  several dirty translation-page nodes;
* ``translation_gc`` — long writes on a device whose translation pool runs low
  while they are being written.

The ``(state_fingerprint, stats.summary() digest)`` literals were captured
with the per-page body, before the columnar one existed.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SSD, SSDGeometry
from repro.core.allocation import GroupGCNeeded
from repro.core.base import _MIN_COLUMN_WRITE, FTLConfig
from repro.nand.errors import GeometryError
from repro.replay import state_fingerprint
from repro.snapshot import save_snapshot
from repro.ssd.request import HostRequest, OpType
from tests.conftest import ALL_FTL_NAMES


def _mixed_geometry() -> SSDGeometry:
    # 64 mappings per translation page, 128-page stripes, two GTD entries per group.
    return SSDGeometry.small(blocks_per_plane=32, page_size=512)


def _mixed_config() -> FTLConfig:
    # A CMT of several translation-page nodes, so chunks end at dirty evictions.
    return FTLConfig(cmt_ratio=0.1, learnedftl_cmt_ratio=0.1)


def _translation_gc_geometry() -> SSDGeometry:
    # A 64-page translation pool that needs collecting every few long writes.
    return SSDGeometry.small(blocks_per_plane=12, pages_per_block=16, page_size=512)


def _requests(geometry: SSDGeometry, count: int, *, seed: int, max_pages: int, write_share: float):
    rng = random.Random(seed)
    limit = geometry.num_logical_pages
    requests = []
    for _ in range(count):
        npages = rng.randint(1, max_pages)
        op = OpType.WRITE if rng.random() < write_share else OpType.READ
        requests.append(HostRequest(op=op, lpn=rng.randint(0, limit - npages), npages=npages))
    return requests


def _steady_phase(ssd: SSD) -> None:
    rng = random.Random(12)
    limit = ssd.geometry.num_logical_pages - 128
    ssd.run(
        [HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit), npages=128) for _ in range(24)],
        threads=1,
    )


def _mixed_phases(geometry: SSDGeometry):
    requests = _requests(geometry, 120, seed=15, max_pages=200, write_share=0.65)
    return requests[:60], requests[60:]


def _translation_gc_phase(ssd: SSD) -> None:
    rng = random.Random(14)
    limit = ssd.geometry.num_logical_pages - 64
    ssd.run(
        [HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit), npages=64) for _ in range(30)],
        threads=1,
    )


def _build(scenario: str, ftl_name: str) -> SSD:
    """Create the scenario's device and fill it sequentially (128-page
    requests; 64 on the translation-GC device, whose writes are 64 pages)."""
    if scenario == "mixed":
        ssd = SSD.create(ftl_name, _mixed_geometry(), config=_mixed_config())
    elif scenario == "translation_gc":
        ssd = SSD.create(ftl_name, _translation_gc_geometry())
    else:
        ssd = SSD.create(ftl_name, SSDGeometry.small())
    ssd.fill_sequential(io_pages=64 if scenario == "translation_gc" else 128)
    return ssd


def _run(scenario: str, ssd: SSD) -> None:
    """The scenario's workload after the fill."""
    if scenario == "steady":
        _steady_phase(ssd)
    elif scenario == "mixed":
        for phase in _mixed_phases(ssd.geometry):
            ssd.run(phase, threads=2)
    elif scenario == "translation_gc":
        _translation_gc_phase(ssd)


def _summary_sha(ssd: SSD) -> str:
    return hashlib.sha256(json.dumps(ssd.stats.summary(), sort_keys=True).encode()).hexdigest()


SCENARIOS = ("fill", "steady", "mixed", "translation_gc")

#: (scenario, ftl) -> (state_fingerprint, sha256 of the sorted-key JSON of stats.summary()).
#: Every state fingerprint but ("fill", "leaftl") and the ideal FTL's was
#: re-pinned when a translation page moved by translation-pool GC stopped
#: being counted as two flash reads (``FlashArray.total_reads`` is part of
#: the state); no summary digest moved.  The steady, mixed and
#: translation-GC fingerprints of every design but the ideal FTL were
#: re-pinned again when a GC event's flash time became the sum of its
#: commands' own latencies (``gc_flash_time_us``; ("mixed", "leaftl") also
#: counts its misprediction probes of unprogrammed pages as flash reads); no
#: summary digest moved.
PINNED: dict[tuple[str, str], tuple[str, str]] = {
    ("fill", "dftl"): (
        "025cdf4fbdac81012daf6a6c85a91a02a29eca6f95d588dda5f370f870243307",
        "1b7497d83fbf368f9a466465e907ca7e4096bf0093337d5ab3df51f29707f2a2",
    ),
    ("fill", "tpftl"): (
        "7dd684b646536087835aba3f9d9f155d488ba91a8c82213d33be75d776c22e53",
        "643d5857c5bc221e30f74581470da9db984f7cc3b3c6c47433fe85fc0320f517",
    ),
    ("fill", "leaftl"): (
        "82c553167ba0a8b000fd02caff8d00a605f2bcb66ae5911721e1e455d7016fdd",
        "0f2510dcddc43d80e60eadb063155a6051884f3b5af30c7746777f8e707f07b9",
    ),
    ("fill", "learnedftl"): (
        "3955c5838765e0b921ea5dc68c1dd17eae1e190c7aa7d8c4bafdbfb315f4c02f",
        "643d5857c5bc221e30f74581470da9db984f7cc3b3c6c47433fe85fc0320f517",
    ),
    ("fill", "ideal"): (
        "9a6abd44b14cb6a146db882db48c17eec5ab12fbe691905dc73349922a1ed3f1",
        "ec72a98f002641399e97627991c912da041def527b16eac5d157488d10366709",
    ),
    ("steady", "dftl"): (
        "97d4db90d02a614a15cd1b9d1b77fbd531aa93171e333bb6a32f1baad3c2bef8",
        "5b3e8268feba3ce2c62d92cc99def8f7f1d6601b206f216929d17273529a4fd0",
    ),
    ("steady", "tpftl"): (
        "a2aecb5db01c04207188933e54942f976ab3558a70e8d81951bf49933a233df1",
        "d277c459b1b1abd52d677f366ea385ab5044484a741b06950f901f4aead3d69d",
    ),
    ("steady", "leaftl"): (
        "2ba43265b640a1c82d31d0f8605930eb2949a37211a57287e721e2c3da3871d9",
        "99ab98fde1b6c9bd32608c3f2300c681436847e2d8c394a6489f676aaf78e37f",
    ),
    ("steady", "learnedftl"): (
        "0d884f48dbe366c664472426e78c172309fd6621529d09356dc6e6d98363abc6",
        "77eaf1d855936f3bcf394f8bf29663bb441818797746d28d9dcbabe2372c68f2",
    ),
    ("steady", "ideal"): (
        "9d8504481b7e7f6b82766c706ac0506fda3fb9090f8736f04af003256fdaedad",
        "cbcce8caea3bef32f5f432bd401f4f877a1aeb188ac6664b6ca7ab64945a3a83",
    ),
    ("mixed", "dftl"): (
        "f39b64df59d74a65fb50154d9ed34635ae5117c21cf578ce5bb30857d2a2dee0",
        "1b7570fb7d6065573670b45465278e3d83920f65c94b4e42b5e575b3068124ea",
    ),
    ("mixed", "tpftl"): (
        "1e3294cbb5a394c87fd4b15287a1981c34da976895bb6d9435d308bf23e95079",
        "236d582762c9580b4f81d478e20bbd206a5142435273fa9afeda6c8ab1ffd7f0",
    ),
    ("mixed", "leaftl"): (
        "772e50499ea7f0eb62220bd5a4a51ecd0de6004ea6067793946b1843fa6abbf9",
        "a74667bf7537c550d7093f35a6670ee043c0576c8bf0cb36cf84efba482d95ff",
    ),
    ("mixed", "learnedftl"): (
        "9a69c0de812e4d997bacdea5b8f5f5dd0ec506745ffea64be7e9d2dba70a184f",
        "52945b6382f48e90392c7d47cc19d0c8d17eb2294b6c001e5c272f4b2b435846",
    ),
    ("mixed", "ideal"): (
        "7d5593ae922513a9e46a54a424fd4eeb1b4209075bd6796372856390c47ff9f9",
        "0a04c47a3e24dc8520fe5b540aed19f8855c950da7cd55be459f3c8e3f1273fe",
    ),
    ("translation_gc", "dftl"): (
        "00527639afcc3cce7d65b6a9be154548e370f1bb1ebe11db7db180878bc94013",
        "28db3efb0dc33543ffc885e23309746e34958caa087b396d819d859964a8869e",
    ),
    ("translation_gc", "tpftl"): (
        "bf0eafd1a42d8387031c528e06d9d7fe5cf9a7eb8151fba4cc78da7df6d49d70",
        "785bd72710eb83f1016f66aff96a5217aff63d69b68edc63aab7fb79d77c5754",
    ),
    ("translation_gc", "leaftl"): (
        "4e0fdb414a818f0c0d13b86d0813a7761a195f34880a53e856a1c855a46bf07f",
        "f6d815fc3cdeb387cf872c00c76e3b7a8085da7d7142246222001f8ab8e7f248",
    ),
    ("translation_gc", "learnedftl"): (
        "122888bd76c50c29872e4e33109f28958dfbd557570c18bc98e8910e47253de8",
        "23623d98837a12be2567b7a68821079097c9316a0e380485d7b6ad4e2632c6e9",
    ),
    ("translation_gc", "ideal"): (
        "812ffd332c4712b042706cc8e377aa08fc66509f6d18b1cda7a080d0f9bb5539",
        "804d7bbeaefce5a381f59ca8ef3db56eaf52d13045c6e05ce0e90717d362169a",
    ),
}


def test_scenario_request_sizes_reach_the_columnar_body():
    assert _MIN_COLUMN_WRITE <= 64


@pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_pinned_to_the_per_page_body(scenario, ftl_name):
    ssd = _build(scenario, ftl_name)
    _run(scenario, ssd)
    ssd.verify()
    assert (state_fingerprint(ssd.state_dict()), _summary_sha(ssd)) == PINNED[scenario, ftl_name]


@pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
def test_save_and_restore_mid_stream_reproduces_the_fingerprint(ftl_name, tmp_path):
    ssd = _build("mixed", ftl_name)
    first, second = _mixed_phases(ssd.geometry)
    ssd.run(first, threads=2)
    restored = SSD.restore(save_snapshot(tmp_path / "image", ssd.state_dict()))
    assert state_fingerprint(restored.state_dict()) == state_fingerprint(ssd.state_dict())
    restored.run(second, threads=2)
    restored.verify()
    assert (state_fingerprint(restored.state_dict()), _summary_sha(restored)) == PINNED[
        "mixed", ftl_name
    ]


@pytest.mark.parametrize("ftl_name", ["dftl", "tpftl", "leaftl", "learnedftl"])
def test_translation_pool_is_collected_during_long_writes(ftl_name):
    ssd = _build("translation_gc", ftl_name)
    ftl = ssd.ftl
    encode, collect = ftl.encode, ftl._collect_translation_block_into
    current = [0]
    during_long_writes = []

    def spy_encode(request, now=0.0):
        current[0] = request.npages
        return encode(request, now)

    def spy_collect(stage):
        if current[0] >= _MIN_COLUMN_WRITE:
            during_long_writes.append(stage)
        return collect(stage)

    ftl.encode, ftl._collect_translation_block_into = spy_encode, spy_collect
    _translation_gc_phase(ssd)
    assert during_long_writes


def test_learnedftl_chunks_end_at_every_cut_point():
    """Between them the LearnedFTL scenarios cut a columnar write at each kind
    of page the per-page body serves: a dirty CMT eviction, a proactive group
    GC, a ``GroupGCNeeded`` and a borrowed page."""
    seen = dict.fromkeys(("dirty_eviction", "group_gc", "gc_needed", "borrowed"), 0)
    for scenario in ("steady", "mixed"):
        ssd = _build(scenario, "learnedftl")
        ftl = ssd.ftl
        allocator = ftl.allocator
        write_columns, handle, group_gc = ftl._write_columns, ftl._handle_evictions, ftl._group_gc
        allocate_page = allocator.allocate_page
        inside = [False]

        def spy_write_columns(*args):
            inside[0] = True
            try:
                return write_columns(*args)
            finally:
                inside[0] = False

        def spy_handle(evicted):
            seen["dirty_eviction"] += inside[0] and bool(evicted)
            return handle(evicted)

        def spy_group_gc(group, now):
            seen["group_gc"] += inside[0]
            return group_gc(group, now)

        def spy_allocate_page(group):
            try:
                ppn, owner = allocate_page(group)
            except GroupGCNeeded:
                seen["gc_needed"] += inside[0]
                raise
            seen["borrowed"] += inside[0] and owner != group
            return ppn, owner

        ftl._write_columns, ftl._handle_evictions, ftl._group_gc = (
            spy_write_columns,
            spy_handle,
            spy_group_gc,
        )
        allocator.allocate_page = spy_allocate_page
        _run(scenario, ssd)
    # Every GroupGCNeeded is answered by one group GC; the others were proactive.
    assert seen["group_gc"] > seen["gc_needed"] > 0, seen
    assert seen["dirty_eviction"] and seen["borrowed"], seen


class TestRejectedWrites:
    """A write reaching outside the logical space raises before any effect."""

    @pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
    @pytest.mark.parametrize(
        ("lpn", "first_bad"), [(1534, 1536), (-2, -2)], ids=["tail_overrun", "negative_lpn"]
    )
    def test_state_and_stats_are_unchanged(self, ftl_name, lpn, first_bad):
        ssd = SSD.create(ftl_name, SSDGeometry.small())
        ssd.fill_sequential(io_pages=128)
        before = (state_fingerprint(ssd.state_dict()), _summary_sha(ssd))
        with pytest.raises(GeometryError, match=rf"lpn {first_bad} out of range \[0, 1536\)"):
            ssd.submit(HostRequest(op=OpType.WRITE, lpn=lpn, npages=4))
        assert (state_fingerprint(ssd.state_dict()), _summary_sha(ssd)) == before
        ssd.verify()

    def test_reads_outside_the_space_stay_zero_filled(self):
        ssd = SSD.create("tpftl", SSDGeometry.small())
        ssd.submit(HostRequest(op=OpType.READ, lpn=1534, npages=4))
        assert ssd.stats.host_read_pages == 4


@pytest.mark.parametrize("op_ratio", [0.25, 0.125])
@pytest.mark.parametrize("ftl_name", ALL_FTL_NAMES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(0, 1 << 20), st.integers(1, 160)),
        min_size=3,
        max_size=12,
    )
)
def test_every_step_of_a_random_multi_page_mix_verifies(ftl_name, op_ratio, steps):
    geometry = SSDGeometry.small(op_ratio=op_ratio)
    ssd = SSD.create(ftl_name, geometry)
    ssd.fill_sequential(io_pages=128)
    limit = geometry.num_logical_pages
    for is_write, position, npages in steps:
        lpn = position % (limit - npages + 1)
        ssd.submit(HostRequest(op=OpType.WRITE if is_write else OpType.READ, lpn=lpn, npages=npages))
        ssd.verify()
