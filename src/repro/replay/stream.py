"""Chunked request streaming for bounded-memory trace replay.

:func:`iter_trace_requests` adapts a record source (typically a
:class:`~repro.workloads.traces.RecordStream`) into bounded
:class:`~repro.ssd.request.HostRequest` chunks.  It reads records a block at
a time and splits each block into page requests with the NumPy splitter
:func:`~repro.workloads.traces.trace_to_requests` uses — wrap-to-LPN-0 tails
included — so the concatenation of all chunks is the same request sequence
the monolithic converter produces.

Chunk boundaries always fall on **record** boundaries: a record whose I/O
splits into several page-granular requests (large transfers, wrap-around)
never straddles two chunks.  A block never asks for more records than the
open chunk still needs requests, and when wrap-around tails fill the chunk
early the source is rewound to just after its last record — so a
caller that reads ``RecordStream.cursor`` between chunks sees a cursor that
accounts for exactly the records already delivered, which is what makes
mid-replay checkpoints exact.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.nand.fields import PositiveInt, check_value
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import HostRequest
from repro.workloads.traces import TraceRecord, _record_rows, _split_records

__all__ = ["iter_trace_requests"]


def iter_trace_requests(
    records: Iterable[TraceRecord],
    geometry: SSDGeometry,
    *,
    chunk_requests: int,
    preserve_timing: bool = True,
    time_scale: float = 1.0,
) -> Iterator[list[HostRequest]]:
    """Yield bounded chunks of page-granular host requests from trace records.

    Each chunk holds at least ``chunk_requests`` requests (except the final
    one) and ends on the first record that brings it there, so it may exceed
    ``chunk_requests`` by at most the split requests of its last record.
    Memory stays O(chunk) regardless of trace length.
    """
    check_value("chunk_requests", chunk_requests, PositiveInt)
    source = _record_rows(records)
    page, logical_pages = geometry.page_size, geometry.num_logical_pages
    chunk: list[HostRequest] = []
    while rows := source.read_block(chunk_requests - len(chunk)):
        requests, ends = _split_records(
            rows, page, logical_pages, preserve_timing=preserve_timing, time_scale=time_scale
        )
        needed = chunk_requests - len(chunk)
        if ends[-1] < needed:
            chunk += requests
            continue
        last = int(np.searchsorted(ends, needed))
        source.rewind(last + 1)
        chunk += requests[: int(ends[last])]
        yield chunk
        chunk = []
    if chunk:
        yield chunk
