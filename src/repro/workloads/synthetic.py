"""Miscellaneous synthetic request streams used by tests and examples.

The fio/Filebench/RocksDB/trace generators cover the paper's workloads; this
module adds small composable building blocks that are convenient when writing
tests, examples and ablation studies: mixed read/write streams, strided
patterns and locality-controlled streams.

Each stream also has a ``*_batch`` counterpart returning a columnar
:class:`~repro.ssd.request.RequestBatch` (op/lpn/npages columns) for the
batched execution kernel.  The batch builders pack the *same* generator the
iterator form yields from, so the two streams are bit-identical per seed by
construction — sampling is inherently sequential for these RNG-driven
patterns (each draw advances shared generator state), and generation is not
the hot path the batched kernel optimizes.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.nand.geometry import SSDGeometry
from repro.ssd.request import HostRequest, OpType, RequestBatch
from repro.workloads.zipf import HotspotGenerator, ZipfGenerator

__all__ = [
    "mixed_stream",
    "mixed_batch",
    "strided_reads",
    "zipf_reads",
    "zipf_read_batch",
    "hotspot_stream",
    "hotspot_batch",
    "sequential_stream",
]


def sequential_stream(
    geometry: SSDGeometry,
    *,
    num_requests: int,
    op: OpType = OpType.WRITE,
    io_pages: int = 1,
    start_lpn: int = 0,
) -> Iterator[HostRequest]:
    """Plain sequential stream wrapping around the logical space."""
    span = geometry.num_logical_pages
    lpn = start_lpn % span
    for _ in range(num_requests):
        if lpn + io_pages > span:
            lpn = 0
        yield HostRequest(op, lpn, io_pages)
        lpn += io_pages


def mixed_stream(
    geometry: SSDGeometry,
    *,
    num_requests: int,
    read_fraction: float = 0.5,
    io_pages: int = 1,
    seed: int = 17,
) -> Iterator[HostRequest]:
    """Uniformly random stream with a configurable read/write mix."""
    rng = random.Random(seed)
    limit = max(1, geometry.num_logical_pages - io_pages + 1)
    for _ in range(num_requests):
        op = OpType.READ if rng.random() < read_fraction else OpType.WRITE
        yield HostRequest(op, rng.randrange(limit), io_pages)


def mixed_batch(geometry: SSDGeometry, **kwargs) -> RequestBatch:
    """:func:`mixed_stream` as one columnar batch (bit-identical stream)."""
    return RequestBatch.from_requests(mixed_stream(geometry, **kwargs))


def strided_reads(
    geometry: SSDGeometry,
    *,
    num_requests: int,
    stride_pages: int,
    io_pages: int = 1,
) -> Iterator[HostRequest]:
    """Fixed-stride read stream (defeats prefetchers without being random)."""
    span = geometry.num_logical_pages
    lpn = 0
    for _ in range(num_requests):
        yield HostRequest(OpType.READ, lpn, io_pages)
        lpn = (lpn + stride_pages) % max(1, span - io_pages)


def zipf_reads(
    geometry: SSDGeometry,
    *,
    num_requests: int,
    theta: float = 0.99,
    io_pages: int = 1,
    seed: int = 23,
) -> Iterator[HostRequest]:
    """Zipf-skewed random reads (popularity locality without spatial locality)."""
    generator = ZipfGenerator(
        max(1, geometry.num_logical_pages - io_pages + 1), theta=theta, seed=seed
    )
    for _ in range(num_requests):
        yield HostRequest(OpType.READ, generator.sample(), io_pages)


def zipf_read_batch(geometry: SSDGeometry, **kwargs) -> RequestBatch:
    """:func:`zipf_reads` as one columnar batch (bit-identical stream)."""
    return RequestBatch.from_requests(zipf_reads(geometry, **kwargs))


def hotspot_stream(
    geometry: SSDGeometry,
    *,
    num_requests: int,
    read_fraction: float = 0.7,
    hot_fraction: float = 0.2,
    hot_probability: float = 0.8,
    io_pages: int = 1,
    seed: int = 29,
) -> Iterator[HostRequest]:
    """Hot/cold mixed stream: a small region absorbs most of the traffic."""
    rng = random.Random(seed)
    generator = HotspotGenerator(
        max(1, geometry.num_logical_pages - io_pages + 1),
        hot_fraction=hot_fraction,
        hot_probability=hot_probability,
        seed=seed,
    )
    for _ in range(num_requests):
        op = OpType.READ if rng.random() < read_fraction else OpType.WRITE
        yield HostRequest(op, generator.sample(), io_pages)


def hotspot_batch(geometry: SSDGeometry, **kwargs) -> RequestBatch:
    """:func:`hotspot_stream` as one columnar batch (bit-identical stream)."""
    return RequestBatch.from_requests(hotspot_stream(geometry, **kwargs))
