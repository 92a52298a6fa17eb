#!/usr/bin/env python3
"""Replay block traces (real or synthetic) and compare tail latency across FTLs.

This example mirrors the paper's Figure 21: warm an SSD to steady state, replay
an enterprise trace open-loop, and look at P99/P99.9 read latency.  It uses the
synthetic WebSearch/Systor stand-ins by default, but accepts a real SPC-format
or Systor-CSV trace file via ``--trace``.

Run with::

    python examples/trace_replay.py                         # synthetic WebSearch1
    python examples/trace_replay.py --preset systor17
    python examples/trace_replay.py --trace /path/WebSearch1.spc --format spc
"""

from __future__ import annotations

import argparse

from repro import SSD, SSDGeometry
from repro.analysis import format_table, tail_latency_row
from repro.workloads import (
    TRACE_FORMATS,
    TRACE_PRESETS,
    characterize,
    iter_trace_records,
    trace_to_requests,
    warmup_writes,
)


def load_records(args: argparse.Namespace):
    if args.trace:
        return list(iter_trace_records(args.trace, args.format, limit=args.ios))
    return TRACE_PRESETS[args.preset](args.ios)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(TRACE_PRESETS), default="websearch1")
    parser.add_argument("--trace", default=None, help="path to a real trace file")
    parser.add_argument("--format", choices=sorted(TRACE_FORMATS), default="spc")
    parser.add_argument("--ios", type=int, default=5_000, help="number of trace records to replay")
    parser.add_argument("--medium", action="store_true", help="use the ~1 GB geometry")
    parser.add_argument(
        "--time-scale", type=float, default=0.05, help="compress trace inter-arrival times"
    )
    args = parser.parse_args()

    geometry = SSDGeometry.medium() if args.medium else SSDGeometry.small()
    records = load_records(args)
    name = args.trace or args.preset
    print(format_table([characterize(str(name), records).as_row()], title="trace characteristics"))
    print()

    rows = []
    for ftl_name in ("tpftl", "leaftl", "learnedftl", "ideal"):
        ssd = SSD.create(ftl_name, geometry)
        ssd.fill_sequential(io_pages=128)
        ssd.run(warmup_writes(geometry, overwrite_factor=1.0, io_pages=128), threads=4)
        ssd.reset_stats()

        ssd.replay(
            trace_to_requests(records, geometry, time_scale=args.time_scale), streams=8
        )
        row = tail_latency_row(ftl_name, str(name), ssd.stats).as_dict()
        row["throughput_mb_s"] = round(ssd.stats.throughput_mb_s(), 1)
        row["double_reads"] = round(ssd.stats.double_read_fraction(), 3)
        rows.append(row)

    print(format_table(rows, title="tail latency by FTL"))
    print()
    print(
        "The tail is dominated by requests that needed extra flash reads for address\n"
        "translation; LearnedFTL's accurate model predictions remove most of them."
    )


if __name__ == "__main__":
    main()
