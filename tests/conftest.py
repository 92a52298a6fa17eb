"""Shared fixtures for the test-suite.

Two geometries are used throughout:

* ``tiny_geometry`` — a few hundred pages with 512-byte pages (64 mappings per
  translation page, one group per stripe).  Fast enough that dozens of tests
  can each run full workloads.
* ``small_geometry`` — the library's :meth:`SSDGeometry.small` preset, used by
  the heavier integration tests.
"""

from __future__ import annotations

import random
import struct
import zipfile
from collections import Counter
from pathlib import Path

import pytest

from repro import SSD, SSDGeometry
from repro.ssd.request import KIND_BY_CODE, OP_STRIDE, CommandBuffer, HostRequest, OpType

ALL_FTL_NAMES = ("dftl", "tpftl", "leaftl", "learnedftl", "ideal")


@pytest.fixture(autouse=True)
def _reset_snapshot_store():
    """Clear the process-wide snapshot store between tests.

    CLI/orchestrator tests install a store rooted in a pytest tmp_path; a
    later test calling ``prepare_ssd`` directly must never warm through it.
    """
    yield
    from repro.experiments.runner import set_metrics_window_us, set_snapshot_dir, set_trace_dir

    set_snapshot_dir(None)
    set_metrics_window_us(None)
    set_trace_dir(None)


@pytest.fixture
def tiny_geometry() -> SSDGeometry:
    """A very small geometry for unit tests that run workloads."""
    return SSDGeometry.small(
        channels=2,
        chips_per_channel=2,
        planes_per_chip=1,
        blocks_per_plane=12,
        pages_per_block=16,
        page_size=512,
        op_ratio=0.25,
    )


@pytest.fixture
def small_geometry() -> SSDGeometry:
    """The library's default small preset (used by heavier tests)."""
    return SSDGeometry.small()


@pytest.fixture(params=ALL_FTL_NAMES)
def ftl_name(request) -> str:
    """Parametrized over every FTL design."""
    return request.param


def make_ssd(ftl_name: str, geometry: SSDGeometry, **kwargs) -> SSD:
    """Create an SSD for tests (thin wrapper kept for readability)."""
    return SSD.create(ftl_name, geometry, **kwargs)


def command_kinds(buffer: CommandBuffer) -> Counter:
    """The commands encoded in ``buffer`` (e.g. by ``ftl.encode``), counted by kind."""
    return Counter(KIND_BY_CODE[code] for code in buffer.ops[::OP_STRIDE])


def random_reads(geometry: SSDGeometry, count: int, *, seed: int = 0, npages: int = 1):
    """A list of uniformly random read requests."""
    rng = random.Random(seed)
    limit = geometry.num_logical_pages - npages
    return [
        HostRequest(op=OpType.READ, lpn=rng.randint(0, limit), npages=npages)
        for _ in range(count)
    ]


def random_writes(geometry: SSDGeometry, count: int, *, seed: int = 1, npages: int = 1):
    """A list of uniformly random write requests."""
    rng = random.Random(seed)
    limit = geometry.num_logical_pages - npages
    return [
        HostRequest(op=OpType.WRITE, lpn=rng.randint(0, limit), npages=npages)
        for _ in range(count)
    ]


def flip_archive_payload_byte(archive_path: Path) -> None:
    """Invert, in place, the middle byte of the largest member's compressed data.

    Unlike a flip at a fixed file offset this cannot land in a field nobody
    reads (a timestamp, say): it always damages decompression or the CRC-32.
    """
    with zipfile.ZipFile(archive_path) as archive:
        info = max(archive.infolist(), key=lambda member: member.compress_size)
    raw = bytearray(archive_path.read_bytes())
    # Local file header: 30 fixed bytes, then the name and the extra field.
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    raw[info.header_offset + 30 + name_len + extra_len + info.compress_size // 2] ^= 0xFF
    archive_path.write_bytes(bytes(raw))


@pytest.fixture
def warmed_ssd_factory(tiny_geometry):
    """Factory producing a preconditioned SSD for a named FTL."""

    def factory(name: str, *, overwrite_pages: int = 600, **kwargs) -> SSD:
        ssd = make_ssd(name, tiny_geometry, **kwargs)
        ssd.fill_sequential(io_pages=16)
        ssd.run(random_writes(ssd.geometry, overwrite_pages // 4, seed=3, npages=4), threads=1)
        ssd.reset_stats()
        return ssd

    return factory
