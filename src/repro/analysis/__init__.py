"""Analysis helpers: latency digests, normalization, reporting, compute-cost measurement."""

from repro.analysis.compute import ComputeCosts, measure_compute_costs
from repro.analysis.latency import (
    TailLatencyRow,
    normalize,
    tail_latency_row,
)
from repro.analysis.report import format_table, rows_to_csv
from repro.analysis.windows import format_window_table, window_rows

__all__ = [
    "ComputeCosts",
    "measure_compute_costs",
    "TailLatencyRow",
    "tail_latency_row",
    "normalize",
    "format_table",
    "rows_to_csv",
    "format_window_table",
    "window_rows",
]
