"""Structured event tracing with Chrome trace-event JSON export.

Two recorders share one tiny protocol (``enabled`` / ``now_us`` /
:meth:`instant` / :meth:`complete`):

* :class:`NullTraceRecorder` — the default.  Every FTL and device carries
  :data:`NULL_TRACER`; hook sites — the FTLs' GC/eviction paths and the
  device's snapshot restore — are gated on ``tracer.enabled``, so the
  disabled cost is one attribute test per site visit.
* :class:`TraceRecorder` — keeps events in record order and exports the
  Chrome trace-event JSON format (the ``traceEvents`` array form), loadable
  in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

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
``translation_read``   i     chip, ppn
``snapshot_restore``   i     finish_time_us
=====================  ====  =================================================

``ph: "X"`` is a *complete* event (``ts`` start + ``dur`` duration);
``ph: "i"`` is an *instant*.  Multi-hour replays stay bounded through a
per-name sampling cap: after ``max_events_per_name`` events of one name the
recorder drops further events of that name and reports the drop count in the
exported ``otherData`` block.

The translation reads — nearly every event of a traced run — are not
recorded by a hook site: the tracer reads them from the device's
:class:`~repro.obs.log.ObservationLog` a block at a time
(:meth:`TraceRecorder.consume`) and keeps them as three columns (issue time,
chip, ppn), never as one object per event.  Every other event is a
``(name, ts, dur, args)`` row (``dur`` is ``None`` for an instant) that
remembers how many translation reads precede it: an event recorded while
requests are still pending in the log notes how many, and the next block
places it after exactly those requests' reads.  The record order is thus the
order of the simulation without a flush per event.  A translation read
has one shape whether the request step or the read kernel served it, so a
``run()`` traces alike whichever of its read runs were planned.  Every reader (``len``,
:meth:`~TraceRecorder.export`, :meth:`~TraceRecorder.write`) flushes the log
first.
:meth:`~TraceRecorder.write` streams each run of translation reads through
one ``%`` template, falling back to the JSON encoder for any value ``%r``
would not print as JSON.
"""

from __future__ import annotations

import json
import math
from array import array
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from repro.nand.fields import PositiveInt, check_value
from repro.ssd.request import OP_STRIDE, CommandKind, CommandPurpose, command_code

__all__ = ["NullTraceRecorder", "TraceRecorder", "NULL_TRACER"]

#: Default per-name event cap.  GC events number in the thousands per run but
#: translation-read instants track flash commands (millions on long replays);
#: the cap bounds the trace file while keeping the interesting prefix.
DEFAULT_MAX_EVENTS_PER_NAME = 100_000

_TRANSLATION_READ = "translation_read"
_CODE_TRANSLATION_READ = command_code(CommandKind.READ, CommandPurpose.TRANSLATION_READ)

#: ``%`` template of a translation read.
_READ_TEMPLATE = (
    '{"name": "translation_read", "ph": "i", "ts": %r, "pid": 0, "tid": 0, "s": "t", '
    '"args": {"chip": %r, "ppn": %r}}'
)

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


#: The shared process-wide no-op recorder.  It holds no state besides the
#: scratch ``now_us`` clock, so sharing one instance everywhere is safe.
NULL_TRACER = NullTraceRecorder()


def _event(row: tuple) -> dict[str, Any]:
    """The trace-event dict of one ``(name, ts, dur, args)`` row."""
    name, ts_us, dur_us, args = row
    if dur_us is None:
        event = {"name": name, "ph": "i", "ts": ts_us, "pid": 0, "tid": 0, "s": "t"}
    else:
        event = {"name": name, "ph": "X", "ts": ts_us, "dur": dur_us, "pid": 0, "tid": 0}
    if args:
        event["args"] = args
    return event


def _read_events(ts: list, chips: list, ppns: list) -> Iterator[dict[str, Any]]:
    """The trace-event dicts of a run of translation reads."""
    for ts_us, chip, ppn in zip(ts, chips, ppns):
        yield {
            "name": _TRANSLATION_READ, "ph": "i", "ts": ts_us, "pid": 0, "tid": 0, "s": "t",
            "args": {"chip": chip, "ppn": ppn},
        }


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

    __slots__ = (
        "now_us",
        "max_events_per_name",
        "_events",
        "_at",
        "_stamps",
        "_read_ts",
        "_read_chip",
        "_read_ppn",
        "_counts",
        "_dropped",
        "_first_drop",
        "_logged",
        "_source",
    )

    enabled = True

    def __init__(self, max_events_per_name: int = DEFAULT_MAX_EVENTS_PER_NAME) -> None:
        check_value("max_events_per_name", max_events_per_name, PositiveInt)
        #: Simulated clock stamped by the device's request step before each
        #: request is encoded, so deep hook sites without a ``now`` argument
        #: (e.g. CMT eviction flushes) still get a meaningful timestamp.
        self.now_us = 0.0
        self.max_events_per_name = max_events_per_name
        #: :meth:`instant` / :meth:`complete` rows in record order, and for
        #: each the number of translation reads recorded before it.
        self._events: list[tuple] = []
        self._at: list[int] = []
        #: For the events after ``_events[len(_at)]``: how many requests were
        #: pending in the source log when each was recorded.
        self._stamps: list[int] = []
        #: Admitted translation reads as columns.
        self._read_ts = array("d")
        self._read_chip = array("q")
        self._read_ppn = array("q")
        self._counts: dict[str, int] = {}
        self._dropped: dict[str, int] = {}
        #: When each name first lost an event, as ``(requests logged before,
        #: 0 for an event | 1 for a translation read)``: the export lists
        #: ``dropped_events`` in that order, the order of the simulation.
        self._first_drop: dict[str, tuple[int, int]] = {}
        #: Requests consumed from observation logs so far.
        self._logged = 0
        #: The observation log feeding this tracer (``None`` until attached).
        self._source = None

    def __len__(self) -> int:
        self._sync()
        return len(self._events) + len(self._read_ts)

    # ------------------------------------------------------------- recording
    def attach(self, log) -> None:
        """Read translation reads from ``log`` (an :class:`~repro.obs.log.ObservationLog`).

        The log this tracer followed before is flushed first, so its reads
        keep their place ahead of anything recorded from now on.  A tracer
        follows one log at a time: events are placed against the pending
        requests of the latest one.
        """
        self._sync()
        self._source = log

    def _sync(self) -> None:
        """Bring the translation-read rows up to date with the source log."""
        if self._source is not None:
            self._source.flush()

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
        if name not in self._dropped:
            self._first_drop[name] = (self._logged + self._pending(), 0)
        self._dropped[name] = self._dropped.get(name, 0) + count - admitted
        return admitted

    def _pending(self) -> int:
        """Requests waiting in the source log (logged, not yet consumed)."""
        return 0 if self._source is None else self._source.pending()

    def _record(self, row: tuple) -> None:
        """Append an event row, placed after every translation read logged so far."""
        self._events.append(row)
        pending = self._pending()
        if pending:
            self._stamps.append(pending)
        else:
            self._at.append(len(self._read_ts))

    def instant(self, name: str, ts_us: float, args: dict | None = None) -> None:
        """Record an instant event (``ph: "i"``, thread scope)."""
        if self._admit(name):
            self._record((name, ts_us, None, args))

    def complete(self, name: str, ts_us: float, dur_us: float, args: dict | None = None) -> None:
        """Record a complete event spanning ``[ts_us, ts_us + dur_us]`` (``ph: "X"``)."""
        if self._admit(name):
            self._record((name, ts_us, dur_us, args))

    def consume(self, block) -> None:
        """Record the ``translation_read`` instants of one log block (:class:`~repro.obs.log.Block`).

        Each translation read becomes one instant at its request's issue
        time, in command order; reads past the per-name cap are only
        counted.  Events recorded while the block was pending are placed
        among the block's reads by the number of requests logged before them.
        """
        reads = np.flatnonzero(block.codes == _CODE_TRANSLATION_READ)
        admitted = 0
        if reads.shape[0]:
            first_drop = _TRANSLATION_READ not in self._dropped
            admitted = self._admit(_TRANSLATION_READ, reads.shape[0])
            if first_drop and admitted < reads.shape[0]:
                request = int(block.op_request[reads[admitted]])
                self._first_drop[_TRANSLATION_READ] = (self._logged + request, 1)
        self._logged += block.count
        reads = reads[:admitted]
        requests = block.op_request[reads]
        before = len(self._read_ts)
        if self._stamps:
            offsets = np.searchsorted(requests, self._stamps) + before
            self._at.extend(offsets.tolist())
            self._stamps.clear()
        self._read_ts.frombytes(block.issue[requests].tobytes())
        ops = block.ops
        slots = (reads * OP_STRIDE).tolist()
        self._read_chip.fromlist([ops[slot + 1] for slot in slots])
        self._read_ppn.fromlist([ops[slot + 2] for slot in slots])

    # --------------------------------------------------------------- export

    def _dropped_in_order(self) -> dict[str, int]:
        return {
            name: self._dropped[name]
            for name in sorted(self._dropped, key=self._first_drop.__getitem__)
        }

    def _metadata(self) -> dict[str, Any]:
        return {
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated_us",
                "max_events_per_name": self.max_events_per_name,
                "dropped_events": self._dropped_in_order(),
            },
        }

    def _rows(self) -> Iterator[tuple]:
        """Every row in record order, as ``(event, None)`` or ``(None, reads)``.

        ``event`` is an :meth:`instant`/:meth:`complete` row; ``reads`` is a
        run of consecutive translation reads as ``(ts, chips, ppns)`` lists.
        """
        start = 0
        for event, at in zip(self._events + [None], self._at + [len(self._read_ts)]):
            if start < at:
                yield None, (
                    self._read_ts[start:at].tolist(),
                    self._read_chip[start:at].tolist(),
                    self._read_ppn[start:at].tolist(),
                )
                start = at
            if event is not None:
                yield event, None

    def export(self) -> dict[str, Any]:
        """Return the Chrome trace-event JSON object form.

        The object form (``{"traceEvents": [...]}``) rather than the bare
        array so the export can carry metadata; both forms load in Perfetto
        and ``chrome://tracing``.
        """
        self._sync()
        events: list[dict[str, Any]] = []
        for event, reads in self._rows():
            if reads is None:
                events.append(_event(event))
            else:
                events.extend(_read_events(*reads))
        return {"traceEvents": events, **self._metadata()}

    def _encoded(self) -> Iterator[str]:
        """The JSON text of every event, in record order (one run of rows at a time)."""
        templates: dict[tuple, str | None] = {}
        for event, reads in self._rows():
            if reads is None:
                yield _encode(event, templates)
                continue
            if not _plain(reads[0]):
                yield ", ".join(map(json.dumps, _read_events(*reads)))
            else:
                yield ", ".join(map(_READ_TEMPLATE.__mod__, zip(*reads)))

    def write(self, path: str | Path) -> Path:
        """Stream :meth:`export`'s JSON to ``path`` and return it.

        The bytes equal ``json.dumps(self.export())``; no event dict is built
        unless one of its values needs the JSON encoder.
        """
        self._sync()
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
