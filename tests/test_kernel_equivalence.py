"""Golden-equivalence regression test for the simulation kernel.

The columnar kernel refactor (array-backed flash state, flat mapping
directory, batched timing hot path) is required to be *behaviour-preserving*:
identical simulated timelines, latencies, flash-command counts and GC events.
This test pins the full statistics fingerprint of a fixed seeded workload for
every FTL design, captured from the pre-refactor (object-per-page) kernel at
the repository seed.  Any kernel change that alters simulated results — however
subtly — fails here before it can silently skew the paper's figures.

Regenerate the constants only when a change is *supposed* to alter simulated
behaviour (a modelling change, never an optimisation):

    PYTHONPATH=src:tests python - <<'PY'
    import json
    from golden_workload import run_golden_workload
    print(json.dumps({name: run_golden_workload(name)
                      for name in ("dftl", "tpftl", "leaftl", "learnedftl", "ideal")},
                     indent=4, sort_keys=True))
    PY
"""

from __future__ import annotations

import pytest

from golden_workload import run_golden_workload

#: Statistics fingerprints captured from the seed (pre-columnar) kernel.
#: ``flash_total_reads`` of dftl, tpftl and leaftl were re-pinned when a
#: translation page moved by translation-pool GC stopped being counted as two
#: flash reads (the engine always counted one), and leaftl's again when a
#: misprediction probe of an unprogrammed page started being counted as the
#: flash read the engine always charged (13 740 -> 13 790, its flash_reads).
GOLDEN = {
    "dftl": {
        "cmt_hit_ratio": 0.1001984126984127,
        "double_read_fraction": 0.8998015873015873,
        "finish_time_us": 3091120.0,
        "flash_erases": 790.0,
        "flash_programs": 13280.0,
        "flash_reads": 15729.0,
        "flash_total_erases": 790.0,
        "flash_total_programs": 13280.0,
        "flash_total_reads": 15729.0,
        "gc_count": 507.0,
        "gc_pages_moved": 7330.0,
        "host_read_pages": 2016.0,
        "host_write_pages": 1372.0,
        "model_hit_ratio": 0.0,
        "read_latency_sum_us": 2188040.0,
        "read_p999_us": 138367.88,
        "read_p99_us": 124554.40000000011,
        "single_read_fraction": 0.1001984126984127,
        "throughput_mb_s": 0.5611739434250369,
        "triple_read_fraction": 0.0,
        "write_amplification": 9.67930029154519,
        "write_latency_sum_us": 5629000.0,
        "write_p99_us": 159720.80000000002
    },
    "ideal": {
        "cmt_hit_ratio": 1.0,
        "double_read_fraction": 0.0,
        "finish_time_us": 1863840.0,
        "flash_erases": 507.0,
        "flash_programs": 8702.0,
        "flash_reads": 9346.0,
        "flash_total_erases": 507.0,
        "flash_total_programs": 8702.0,
        "flash_total_reads": 9346.0,
        "gc_count": 507.0,
        "gc_pages_moved": 7330.0,
        "host_read_pages": 2016.0,
        "host_write_pages": 1372.0,
        "model_hit_ratio": 0.0,
        "read_latency_sum_us": 1224120.0,
        "read_p999_us": 95471.92000000001,
        "read_p99_us": 84662.80000000009,
        "single_read_fraction": 1.0,
        "throughput_mb_s": 0.9306893295561851,
        "triple_read_fraction": 0.0,
        "write_amplification": 6.3425655976676385,
        "write_latency_sum_us": 3564920.0,
        "write_p99_us": 113674.0
    },
    "leaftl": {
        "cmt_hit_ratio": 0.7385912698412699,
        "double_read_fraction": 0.39732142857142855,
        "finish_time_us": 2667050.0,
        "flash_erases": 719.0,
        "flash_programs": 12148.0,
        "flash_reads": 13790.0,
        "flash_total_erases": 719.0,
        "flash_total_programs": 12148.0,
        "flash_total_reads": 13790.0,
        "gc_count": 507.0,
        "gc_pages_moved": 7330.0,
        "host_read_pages": 2016.0,
        "host_write_pages": 1372.0,
        "model_hit_ratio": 0.5104166666666666,
        "read_latency_sum_us": 1865870.0,
        "read_p999_us": 141505.96,
        "read_p99_us": 125200.80000000012,
        "single_read_fraction": 0.5515873015873015,
        "throughput_mb_s": 0.650402504639958,
        "triple_read_fraction": 0.05109126984126984,
        "write_amplification": 8.854227405247814,
        "write_latency_sum_us": 5085190.0,
        "write_p99_us": 161644.0
    },
    "learnedftl": {
        "cmt_hit_ratio": 0.09226190476190477,
        "double_read_fraction": 0.005952380952380952,
        "finish_time_us": 2100535.7499999953,
        "flash_erases": 1227.0,
        "flash_programs": 17146.0,
        "flash_reads": 17793.0,
        "flash_total_erases": 1227.0,
        "flash_total_programs": 17146.0,
        "flash_total_reads": 17793.0,
        "gc_count": 250.0,
        "gc_pages_moved": 15412.0,
        "host_read_pages": 2016.0,
        "host_write_pages": 1372.0,
        "model_hit_ratio": 0.9017857142857143,
        "read_latency_sum_us": 1824485.1999999813,
        "read_p999_us": 27389.800000000025,
        "read_p99_us": 19499.2,
        "single_read_fraction": 0.9940476190476191,
        "throughput_mb_s": 0.8258159852789956,
        "triple_read_fraction": 0.0,
        "write_amplification": 12.497084548104956,
        "write_latency_sum_us": 4012130.4000000004,
        "write_p99_us": 27310.0
    },
    "tpftl": {
        "cmt_hit_ratio": 0.7038690476190477,
        "double_read_fraction": 0.2961309523809524,
        "finish_time_us": 2669720.0,
        "flash_erases": 717.0,
        "flash_programs": 12114.0,
        "flash_reads": 13346.0,
        "flash_total_erases": 717.0,
        "flash_total_programs": 12114.0,
        "flash_total_reads": 13346.0,
        "gc_count": 507.0,
        "gc_pages_moved": 7330.0,
        "host_read_pages": 2016.0,
        "host_write_pages": 1372.0,
        "model_hit_ratio": 0.0,
        "read_latency_sum_us": 1900160.0,
        "read_p999_us": 139495.96,
        "read_p99_us": 124539.20000000013,
        "single_read_fraction": 0.7038690476190477,
        "throughput_mb_s": 0.6497520339211603,
        "triple_read_fraction": 0.0,
        "write_amplification": 8.829446064139942,
        "write_latency_sum_us": 5072440.0,
        "write_p99_us": 159280.0
    }
}


@pytest.mark.parametrize("ftl_name", sorted(GOLDEN))
def test_kernel_stats_bit_identical(ftl_name):
    """The seeded workload must reproduce the seed kernel's stats exactly."""
    fingerprint = run_golden_workload(ftl_name)
    golden = GOLDEN[ftl_name]
    assert set(fingerprint) == set(golden)
    mismatches = {
        key: (golden[key], fingerprint[key])
        for key in golden
        if fingerprint[key] != golden[key]
    }
    assert not mismatches, f"simulated stats diverged from seed kernel: {mismatches}"
