"""Workload generators: fio, Filebench, RocksDB (mini-LSM), traces and synthetics."""

from repro.workloads.filebench import FILEBENCH_PRESETS, FilebenchConfig, FilebenchWorkload
from repro.workloads.fio import FioJob, FioPattern, warmup_writes
from repro.workloads.rocksdb import DbBench, ExtentAllocator, MiniLSM, SSTable
from repro.workloads.spec import WORKLOAD_KINDS, WorkloadPlan, build_workload
from repro.workloads.synthetic import (
    hotspot_stream,
    mixed_stream,
    sequential_stream,
    strided_reads,
    zipf_reads,
)
from repro.workloads.traces import (
    TRACE_FORMATS,
    TRACE_PRESETS,
    RecordStream,
    TraceCharacteristics,
    TraceCursor,
    TraceRecord,
    characterize,
    iter_trace_records,
    open_trace,
    synthesize_systor,
    synthesize_websearch,
    trace_format_for,
    trace_to_requests,
)
from repro.workloads.zipf import HotspotGenerator, ZipfGenerator

__all__ = [
    "FioJob",
    "FioPattern",
    "warmup_writes",
    "FilebenchWorkload",
    "FilebenchConfig",
    "FILEBENCH_PRESETS",
    "MiniLSM",
    "DbBench",
    "SSTable",
    "ExtentAllocator",
    "TraceRecord",
    "TraceCharacteristics",
    "TraceCursor",
    "RecordStream",
    "TRACE_FORMATS",
    "trace_format_for",
    "open_trace",
    "iter_trace_records",
    "synthesize_websearch",
    "synthesize_systor",
    "trace_to_requests",
    "characterize",
    "TRACE_PRESETS",
    "ZipfGenerator",
    "HotspotGenerator",
    "WORKLOAD_KINDS",
    "WorkloadPlan",
    "build_workload",
    "mixed_stream",
    "sequential_stream",
    "strided_reads",
    "zipf_reads",
    "hotspot_stream",
]
