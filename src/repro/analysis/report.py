"""Plain-text table/figure rendering for the experiment harness.

Every experiment produces a list of row dictionaries; these helpers render them
as aligned ASCII tables (the "figures" of this reproduction) and as CSV so the
numbers can be diffed against EXPERIMENTS.md or plotted externally.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Mapping, Sequence

__all__ = ["format_table", "rows_to_csv"]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.4f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], *, title: str | None = None) -> str:
    """Render rows (dicts sharing keys) as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    columns = list(rows[0].keys())
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for line in rendered:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render rows as CSV text."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


