"""Figure 21: P99 / P99.9 tail latency under the four real-world traces.

The SSD is warmed to steady state, then each trace (WebSearch1-3 and Systor17
stand-ins) is replayed open-loop.  Expected shape: LearnedFTL's P99 and P99.9
read latencies are several times lower than TPFTL's and LeaFTL's because its
model hits remove the sporadic double/triple reads that dominate the tail, and
they approach the ideal FTL on the read-only WebSearch traces.
"""

from __future__ import annotations

from repro.analysis.latency import tail_latency_row
from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.traces import TRACE_PRESETS, trace_to_requests

__all__ = ["run", "TAIL_LATENCY_FTLS"]

TAIL_LATENCY_FTLS: tuple[str, ...] = ("tpftl", "leaftl", "learnedftl", "ideal")
TRACES: tuple[str, ...] = tuple(TRACE_PRESETS)

#: The orchestrator runs one task per (trace, FTL) cell.
SHARD_AXES = {"traces": TRACES, "ftls": TAIL_LATENCY_FTLS}


def _trace_sizes(scale: Scale) -> int:
    if scale is Scale.TINY:
        return 3_000
    if scale is Scale.DEFAULT:
        return 40_000
    return 400_000


def run(
    scale: Scale | str = Scale.DEFAULT,
    *,
    ftls: tuple[str, ...] = TAIL_LATENCY_FTLS,
    traces: tuple[str, ...] = TRACES,
    time_scale: float = 0.05,
) -> ExperimentResult:
    """Reproduce Figure 21 (P99 and P99.9 tail latencies under four traces)."""
    scale = Scale.parse(scale)
    spec = ScaleSpec.for_scale(scale)
    num_ios = _trace_sizes(scale)
    result = ExperimentResult(
        name="fig21",
        description="P99 / P99.9 tail latency under WebSearch1-3 and Systor17 stand-ins",
    )
    for trace_name in traces:
        records = TRACE_PRESETS[trace_name](num_ios)
        for ftl_name in ftls:
            ssd = prepare_ssd(ftl_name, spec, warmup="steady")
            requests = trace_to_requests(records, spec.geometry, time_scale=time_scale)
            ssd.replay(requests, streams=spec.threads)
            row = tail_latency_row(ftl_name, trace_name, ssd.stats).as_dict()
            row["throughput_mb_s"] = round(ssd.stats.throughput_mb_s(), 1)
            result.rows.append(row)
    result.notes.append(
        "Expected shape: learnedftl's p99/p999 are lower than tpftl's and leaftl's on every "
        "trace and close to ideal on the read-only WebSearch traces."
    )
    return result


def warm_ups(
    spec: ScaleSpec, *, ftls: tuple[str, ...] = TAIL_LATENCY_FTLS, **_: object
) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name=ftl_name, spec=spec) for ftl_name in ftls]
