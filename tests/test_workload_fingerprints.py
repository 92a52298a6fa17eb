"""Golden fingerprints for the vectorized workload generators.

The orchestrator runs experiment shards in separate processes and caches their
results, which is only sound because every generator is a pure function of its
seed.  These tests pin a short digest of each generator's stream (captured when
the generators were vectorized with NumPy batch sampling), so that

* any nondeterminism (e.g. an unseeded RNG sneaking in) and
* any unintended change to the generated streams (which would silently shift
  every figure)

fail loudly.  Regenerate the constants only when a change is *supposed* to
alter the streams, and say so in the commit:

    PYTHONPATH=src:tests python -c "from test_workload_fingerprints import _print_fingerprints; _print_fingerprints()"
"""

from __future__ import annotations

import hashlib

from repro.nand.geometry import SSDGeometry
from repro.workloads.fio import FioJob, warmup_writes
from repro.workloads.traces import synthesize_systor, synthesize_websearch
from repro.workloads.zipf import HotspotGenerator, ZipfGenerator

GOLDEN = {
    "zipf": "2fe4d5ddb851d720",
    "hotspot": "36f5b1568dcce6f7",
    "fio_randread": "af9febf5a586c1bc",
    "fio_seqwrite": "471219125ff4dfbe",
    "warmup": "1281c6bb9379f449",
    "websearch1": "3d4d4f8af55baa6d",
    "systor17": "737b510b90a3277d",
}


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _fingerprints() -> dict[str, str]:
    geometry = SSDGeometry.small()
    zipf = ZipfGenerator(1000, theta=0.99, seed=1)
    return {
        "zipf": _digest(zipf.sample() for _ in range(500)),
        "hotspot": _digest(HotspotGenerator(1000, seed=1).sample_many(500)),
        "fio_randread": _digest(
            (r.lpn, r.npages, r.op.value) for r in FioJob.randread(500, seed=42).requests(geometry)
        ),
        "fio_seqwrite": _digest(
            (r.lpn, r.npages, r.op.value)
            for r in FioJob.from_name("seqwrite", 500, io_pages=4).requests(geometry)
        ),
        "warmup": _digest(
            (r.lpn, r.npages)
            for r in warmup_writes(geometry, overwrite_factor=0.5, io_pages=16, seed=7)
        ),
        "websearch1": _digest(
            (r.offset_bytes, r.size_bytes, r.is_read)
            for r in synthesize_websearch(1, num_ios=300)
        ),
        "systor17": _digest(
            (r.offset_bytes, r.size_bytes, r.is_read) for r in synthesize_systor(num_ios=300)
        ),
    }


def _print_fingerprints() -> None:
    import json

    print(json.dumps(_fingerprints(), indent=2))


def test_generator_streams_match_golden_fingerprints():
    fingerprints = _fingerprints()
    assert set(fingerprints) == set(GOLDEN)
    mismatches = {
        key: (GOLDEN[key], value) for key, value in fingerprints.items() if value != GOLDEN[key]
    }
    assert not mismatches, f"workload streams diverged from pinned fingerprints: {mismatches}"

