"""Miscellaneous synthetic request streams used by tests and examples.

The fio/Filebench/RocksDB/trace generators cover the paper's workloads; this
module adds small composable building blocks that are convenient when writing
tests, examples and ablation studies: mixed read/write streams and
locality-controlled streams.

:func:`mixed_stream`, :func:`zipf_reads` and :func:`hotspot_stream` are the
declarations of the ``mixed``, ``zipf`` and ``hotspot`` workload kinds: their
annotated keyword-only parameters are the spec's keys, defaults and bounds
(see :mod:`repro.workloads.spec`).
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.nand.fields import Count, Fraction, NonNegativeFloat, OpenFraction, PositiveInt
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import HostRequest, OpType
from repro.workloads.zipf import HotspotGenerator, ZipfGenerator

__all__ = [
    "mixed_stream",
    "zipf_reads",
    "hotspot_stream",
]


def mixed_stream(
    geometry: SSDGeometry,
    *,
    num_requests: PositiveInt,
    read_fraction: Fraction = 0.5,
    io_pages: PositiveInt = 1,
    seed: Count = 17,
) -> Iterator[HostRequest]:
    """Uniformly random stream with a configurable read/write mix."""
    rng = random.Random(seed)
    limit = max(1, geometry.num_logical_pages - io_pages + 1)
    for _ in range(num_requests):
        op = OpType.READ if rng.random() < read_fraction else OpType.WRITE
        yield HostRequest(op, rng.randrange(limit), io_pages)


def zipf_reads(
    geometry: SSDGeometry,
    *,
    num_requests: PositiveInt,
    theta: NonNegativeFloat = 0.99,
    io_pages: PositiveInt = 1,
    seed: Count = 23,
) -> Iterator[HostRequest]:
    """Zipf-skewed random reads (popularity locality without spatial locality)."""
    generator = ZipfGenerator(
        max(1, geometry.num_logical_pages - io_pages + 1), theta=theta, seed=seed
    )
    for _ in range(num_requests):
        yield HostRequest(OpType.READ, generator.sample(), io_pages)


def hotspot_stream(
    geometry: SSDGeometry,
    *,
    num_requests: PositiveInt,
    read_fraction: Fraction = 0.7,
    hot_fraction: OpenFraction = 0.2,
    hot_probability: OpenFraction = 0.8,
    io_pages: PositiveInt = 1,
    seed: Count = 29,
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
