"""Structured event tracing with Chrome trace-event JSON export.

Two recorders share one tiny protocol (``enabled`` / ``now_us`` /
:meth:`instant` / :meth:`complete` / :meth:`translation_reads` /
:meth:`planned_translation_reads`):

* :class:`NullTraceRecorder` — the default.  Every FTL and device carries
  :data:`NULL_TRACER`; hook sites — the FTLs' GC/eviction paths and the
  device's one request step — are gated on ``tracer.enabled``, so the
  disabled cost is one attribute test per site visit.
* :class:`TraceRecorder` — keeps events as tuples in one list, in record
  order, and exports the Chrome trace-event JSON format (the
  ``traceEvents`` array form), loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.

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

A row's length is its shape: ``(name, ts, dur, args)`` for an event recorded
through :meth:`~TraceRecorder.instant` (``dur`` is ``None``) or
:meth:`~TraceRecorder.complete`, ``(ts, chip, ppn)`` for a request step's
translation read and ``(ts, chip)`` for a planner's.  The translation reads —
nearly every event of a traced run — are admitted a request (or a planner
step) at a time and never become dicts: :meth:`~TraceRecorder.write` streams
each run of same-shape rows through one ``%`` template, falling back to the
JSON encoder for any value ``%r`` would not print as JSON.
"""

from __future__ import annotations

import json
import math
from itertools import chain, groupby, islice
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.nand.errors import ConfigurationError
from repro.ssd.request import OP_STRIDE, CommandKind, CommandPurpose, command_code

__all__ = ["NullTraceRecorder", "TraceRecorder", "NULL_TRACER"]

#: Default per-name event cap.  GC events number in the thousands per run but
#: translation-read instants track flash commands (millions on long replays);
#: the cap bounds the trace file while keeping the interesting prefix.
DEFAULT_MAX_EVENTS_PER_NAME = 100_000

_TRANSLATION_READ = "translation_read"
_CODE_TRANSLATION_READ = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)

#: ``%`` templates of the two translation-read row shapes, keyed by row length.
_TRANSLATION_READ_TEMPLATES = {
    3: '{"name": "translation_read", "ph": "i", "ts": %r, "pid": 0, "tid": 0, "s": "t", '
    '"args": {"chip": %r, "ppn": %r}}',
    2: '{"name": "translation_read", "ph": "i", "ts": %r, "pid": 0, "tid": 0, "s": "t", '
    '"args": {"chip": %r}}',
}

_PLAIN_TYPES = frozenset((int, float))


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

    def translation_reads(self, ts_us: float, ops: list) -> None:
        """Ignore a request's translation reads."""

    def planned_translation_reads(self, issues: list, chips: list, count: int) -> None:
        """Ignore a planner step's translation reads."""


#: The shared process-wide no-op recorder.  It holds no state besides the
#: scratch ``now_us`` clock, so sharing one instance everywhere is safe.
NULL_TRACER = NullTraceRecorder()


def _event(row: tuple) -> dict[str, Any]:
    """The trace-event dict of one row (the form :meth:`TraceRecorder.export` returns)."""
    if len(row) == 4:
        name, ts_us, dur_us, args = row
        if dur_us is None:
            event = {"name": name, "ph": "i", "ts": ts_us, "pid": 0, "tid": 0, "s": "t"}
        else:
            event = {"name": name, "ph": "X", "ts": ts_us, "dur": dur_us, "pid": 0, "tid": 0}
        if args:
            event["args"] = args
        return event
    args = {"chip": row[1], "ppn": row[2]} if len(row) == 3 else {"chip": row[1]}
    return {"name": _TRANSLATION_READ, "ph": "i", "ts": row[0], "pid": 0, "tid": 0, "s": "t",
            "args": args}


def _plain(values: Iterable[Any]) -> bool:
    """Whether ``%r`` prints every value exactly as the JSON encoder does.

    True for ints and finite floats of exactly those types; ``bool``, NumPy
    scalars, strings, containers and ``inf``/``nan`` are encoded differently.
    """
    values = list(values)
    if not set(map(type, values)) <= _PLAIN_TYPES:
        return False
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the float range; the encoder prints it
        return False


def _quote(text: str) -> str:
    """``text`` as a JSON string literal, escaped for use in a ``%`` template."""
    return json.dumps(text).replace("%", "%%")


def _template(name: Any, instant: bool, keys: tuple) -> str | None:
    """The ``%`` template of one ``(name, ph, arg keys)`` shape (``None``: use the encoder)."""
    if not isinstance(name, str) or not all(isinstance(key, str) for key in keys):
        return None
    if instant:
        text = '{"name": ' + _quote(name) + ', "ph": "i", "ts": %r, "pid": 0, "tid": 0, "s": "t"'
    else:
        text = '{"name": ' + _quote(name) + ', "ph": "X", "ts": %r, "dur": %r, "pid": 0, "tid": 0'
    if keys:
        text += ', "args": {' + ", ".join(_quote(key) + ": %r" for key in keys) + "}"
    return text + "}"


def _encode(row: tuple, templates: dict[tuple, str | None]) -> str:
    """The JSON text of one ``(name, ts, dur, args)`` row, via its shape's template.

    ``templates`` caches one template per ``(name, instant, arg keys)`` shape.
    """
    name, ts_us, dur_us, args = row
    instant = dur_us is None
    values = (ts_us,) if instant else (ts_us, dur_us)
    keys: tuple = ()
    if args:
        keys = tuple(args)
        values += tuple(args.values())
    shape = (name, instant, keys)
    if shape not in templates:
        templates[shape] = _template(*shape)
    template = templates[shape]
    if template is None or not _plain(values):
        return json.dumps(_event(row))
    return template % values


class TraceRecorder:
    """Collect typed simulator events and export Chrome trace-event JSON."""

    __slots__ = ("now_us", "max_events_per_name", "_rows", "_counts", "_dropped")

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
        #: Every admitted event in record order; a row's length is its shape.
        self._rows: list[tuple] = []
        self._counts: dict[str, int] = {}
        self._dropped: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------- recording
    def _admit(self, name: str, count: int = 1) -> int:
        """Admit up to ``count`` events of ``name`` under the cap; return how many.

        The rest are counted as dropped.
        """
        used = self._counts.get(name, 0)
        room = self.max_events_per_name - used
        if count <= room:
            self._counts[name] = used + count
            return count
        admitted = max(room, 0)
        if admitted:
            self._counts[name] = used + admitted
        self._dropped[name] = self._dropped.get(name, 0) + count - admitted
        return admitted

    def instant(self, name: str, ts_us: float, args: dict | None = None) -> None:
        """Record an instant event (``ph: "i"``, thread scope)."""
        if self._admit(name):
            self._rows.append((name, ts_us, None, args))

    def complete(self, name: str, ts_us: float, dur_us: float, args: dict | None = None) -> None:
        """Record a complete event spanning ``[ts_us, ts_us + dur_us]`` (``ph: "X"``)."""
        if self._admit(name):
            self._rows.append((name, ts_us, dur_us, args))

    def translation_reads(self, ts_us: float, ops: list) -> None:
        """Record the ``translation_read`` instants of one request step at once.

        ``ops`` is the request's encoded command buffer (stride-4 records,
        command code first); each translation read among them becomes one
        ``{"chip", "ppn"}`` instant at ``ts_us``, in command order.  Reads
        past the cap are only counted.
        """
        codes = ops[0::OP_STRIDE]
        count = codes.count(_CODE_TRANSLATION_READ)
        if not count:
            return
        count = self._admit(_TRANSLATION_READ, count)
        if count == 1:  # the common case: one double read
            slot = codes.index(_CODE_TRANSLATION_READ) * OP_STRIDE
            self._rows.append((ts_us, ops[slot + 1], ops[slot + 2]))
            return
        append = self._rows.append
        position = -1
        for _ in range(count):
            position = codes.index(_CODE_TRANSLATION_READ, position + 1)
            slot = position * OP_STRIDE
            append((ts_us, ops[slot + 1], ops[slot + 2]))

    def planned_translation_reads(self, issues: list, chips: list, count: int) -> None:
        """Record the ``translation_read`` instants of one planner step at once.

        ``issues`` and ``chips`` are the step's issue-time and
        translation-chip columns (``chips[i] < 0``: request ``i`` needed no
        translation read); ``count`` is how many reads the step issued.  Each
        becomes one ``{"chip"}`` instant at its request's issue time.
        """
        admitted = self._admit(_TRANSLATION_READ, count)
        if admitted:
            reads = ((issue, chip) for issue, chip in zip(issues, chips) if chip >= 0)
            self._rows.extend(islice(reads, admitted))

    # --------------------------------------------------------------- export
    def dropped_counts(self) -> dict[str, int]:
        """Events dropped per name by the sampling cap (empty = nothing dropped)."""
        return dict(self._dropped)

    def _metadata(self) -> dict[str, Any]:
        return {
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated_us",
                "max_events_per_name": self.max_events_per_name,
                "dropped_events": dict(self._dropped),
            },
        }

    def export(self) -> dict[str, Any]:
        """Return the Chrome trace-event JSON object form.

        The object form (``{"traceEvents": [...]}``) rather than the bare
        array so the export can carry metadata; both forms load in Perfetto
        and ``chrome://tracing``.
        """
        return {"traceEvents": list(map(_event, self._rows)), **self._metadata()}

    def _encoded(self) -> Iterator[str]:
        """The JSON text of every event, in record order (one run of rows at a time)."""
        templates: dict[tuple, str | None] = {}
        for shape, run in groupby(self._rows, len):
            if shape == 4:
                yield from (_encode(row, templates) for row in run)
                continue
            rows = list(run)
            if _plain(chain.from_iterable(rows)):
                yield ", ".join(map(_TRANSLATION_READ_TEMPLATES[shape].__mod__, rows))
            else:
                yield ", ".join(map(json.dumps, map(_event, rows)))

    def write(self, path: str | Path) -> Path:
        """Stream :meth:`export`'s JSON to ``path`` and return it.

        The bytes equal ``json.dumps(self.export())``; no event dict is built
        unless one of its values needs the JSON encoder.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write('{"traceEvents": [')
            separator = ""
            for text in self._encoded():
                out.write(separator)
                out.write(text)
                separator = ", "
            out.write("], " + json.dumps(self._metadata())[1:])
        return path
