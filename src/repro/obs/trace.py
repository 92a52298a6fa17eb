"""Structured event tracing with Chrome trace-event JSON export.

Two recorders share one tiny protocol (``enabled`` / ``now_us`` /
:meth:`instant` / :meth:`complete`):

* :class:`NullTraceRecorder` — the default.  Every FTL and device carries
  :data:`NULL_TRACER`; hook sites — the FTLs' GC/eviction paths and the
  device's one request step — are gated on ``tracer.enabled``, so the
  disabled cost is one attribute test per site visit.
* :class:`TraceRecorder` — collects typed events into flat columns and
  exports the Chrome trace-event JSON format (the ``traceEvents`` array
  form), loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.

Timestamps are **simulated** microseconds, which is exactly the unit the
trace-event format expects for ``ts``/``dur``.  Event names used by the
simulator's hook sites:

=====================  ====  =================================================
name                   ph    args
=====================  ====  =================================================
``gc``                 X     victim_block, pages_moved, translation_pages
``gc_group``           X     group, blocks_erased, pages_moved
``translation_gc``     i     victim_block, pages_moved
``cmt_evict``          i     tvpn
``translation_read``   i     chip, ppn (``ppn`` absent on the batched path)
``batch_plan``         i     planner, requests, fallbacks
``snapshot_restore``   i     finish_time_us
=====================  ====  =================================================

``ph: "X"`` is a *complete* event (``ts`` start + ``dur`` duration);
``ph: "i"`` is an *instant*.  Multi-hour replays stay bounded through a
per-name sampling cap: after ``max_events_per_name`` events of one name the
recorder drops further events of that name and reports the drop count in the
exported ``otherData`` block.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.nand.errors import ConfigurationError

__all__ = ["NullTraceRecorder", "TraceRecorder", "NULL_TRACER"]

#: Default per-name event cap.  GC events number in the thousands per run but
#: translation-read instants track flash commands (millions on long replays);
#: the cap bounds the trace file while keeping the interesting prefix.
DEFAULT_MAX_EVENTS_PER_NAME = 100_000


class NullTraceRecorder:
    """Do-nothing recorder: the zero-cost default wired into every FTL/device.

    ``enabled`` is ``False`` so hook sites skip their argument construction
    entirely; the methods exist (as no-ops) so call sites never need an
    ``is None`` dance.  ``now_us`` exists so the two recorders share one
    attribute set; the device's request step stamps it only when ``enabled``.
    """

    __slots__ = ("now_us",)

    enabled = False

    def __init__(self) -> None:
        self.now_us = 0.0

    def instant(self, name: str, ts_us: float, args: dict | None = None) -> None:
        """Ignore an instant event."""

    def complete(self, name: str, ts_us: float, dur_us: float, args: dict | None = None) -> None:
        """Ignore a complete (duration) event."""


#: The shared process-wide no-op recorder.  It holds no state besides the
#: scratch ``now_us`` clock, so sharing one instance everywhere is safe.
NULL_TRACER = NullTraceRecorder()


class TraceRecorder:
    """Collect typed simulator events and export Chrome trace-event JSON."""

    __slots__ = ("now_us", "max_events_per_name", "_events", "_counts", "_dropped")

    enabled = True

    def __init__(self, max_events_per_name: int = DEFAULT_MAX_EVENTS_PER_NAME) -> None:
        if max_events_per_name <= 0:
            raise ConfigurationError(
                f"max_events_per_name must be positive, got {max_events_per_name!r}"
            )
        #: Simulated clock stamped by the device's request step before each
        #: request is encoded, so deep hook sites without a ``now`` argument
        #: (e.g. CMT eviction flushes) still get a meaningful timestamp.
        self.now_us = 0.0
        self.max_events_per_name = max_events_per_name
        self._events: list[dict[str, Any]] = []
        self._counts: dict[str, int] = {}
        self._dropped: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------- recording
    def _admit(self, name: str) -> bool:
        count = self._counts.get(name, 0)
        if count >= self.max_events_per_name:
            self._dropped[name] = self._dropped.get(name, 0) + 1
            return False
        self._counts[name] = count + 1
        return True

    def instant(self, name: str, ts_us: float, args: dict | None = None) -> None:
        """Record an instant event (``ph: "i"``, thread scope)."""
        if not self._admit(name):
            return
        event: dict[str, Any] = {
            "name": name,
            "ph": "i",
            "ts": ts_us,
            "pid": 0,
            "tid": 0,
            "s": "t",
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def complete(self, name: str, ts_us: float, dur_us: float, args: dict | None = None) -> None:
        """Record a complete event spanning ``[ts_us, ts_us + dur_us]`` (``ph: "X"``)."""
        if not self._admit(name):
            return
        event: dict[str, Any] = {
            "name": name,
            "ph": "X",
            "ts": ts_us,
            "dur": dur_us,
            "pid": 0,
            "tid": 0,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    # --------------------------------------------------------------- export
    def dropped_counts(self) -> dict[str, int]:
        """Events dropped per name by the sampling cap (empty = nothing dropped)."""
        return dict(self._dropped)

    def export(self) -> dict[str, Any]:
        """Return the Chrome trace-event JSON object form.

        The object form (``{"traceEvents": [...]}``) rather than the bare
        array so the export can carry metadata; both forms load in Perfetto
        and ``chrome://tracing``.
        """
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated_us",
                "max_events_per_name": self.max_events_per_name,
                "dropped_events": dict(self._dropped),
            },
        }

    def write(self, path: str | Path) -> Path:
        """Serialize :meth:`export` to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.export()), encoding="utf-8")
        return path
