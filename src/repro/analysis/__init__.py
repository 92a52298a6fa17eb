"""Analysis helpers: latency digests, normalization, reporting, compute-cost measurement."""

from repro.analysis.compute import ComputeCosts, measure_compute_costs
from repro.analysis.latency import (
    TailLatencyRow,
    normalize,
    speedup,
    tail_latency_row,
)
from repro.analysis.report import bar_chart, format_kv, format_table, rows_to_csv
from repro.analysis.windows import format_window_table, window_rows

__all__ = [
    "ComputeCosts",
    "measure_compute_costs",
    "TailLatencyRow",
    "tail_latency_row",
    "normalize",
    "speedup",
    "format_table",
    "format_kv",
    "rows_to_csv",
    "bar_chart",
    "format_window_table",
    "window_rows",
]
