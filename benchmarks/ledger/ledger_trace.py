"""Tracing for the ledger's traced run, installed from outside the simulator.

Two instruments, both recording only while the :class:`SliceClock` is inside
a measured phase:

* **Boundary spans.**  Timing wrappers are set on the public seams listed in
  :data:`SEAMS` — class attributes on the defining classes (and overriding
  subclasses), module functions rebound in every ``repro`` module that holds
  them.  A seam that no longer resolves is reported ``absent``, never an
  error, so refactors of the simulator cannot break the benchmark.  Spans are
  aggregated in memory per seam (calls, inclusive and self time; self = span
  minus child spans) with a bounded sample of raw spans kept for the Chrome
  trace written at exit.  Seams called per request are counted exactly but
  timed in windows (one call in eight) to keep the overhead under a quarter.
* **A sampling profile.**  A ``SIGPROF``/``ITIMER_PROF`` timer attributes
  each sample to the innermost frame under ``src/repro/`` and folds it by
  module into the layers of :data:`LAYERS`.

``--plant SEAM=FACTOR`` reuses the wrappers to busy-wait ``(FACTOR - 1) x``
each call's duration on one seam: a regression of known size and place.
"""

from __future__ import annotations

import functools
import importlib
import json
import signal
import sys
import time
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable

from ledger_clock import SliceClock

__all__ = ["LAYERS", "SEAMS", "Tracer", "count_calls", "layer_of"]

#: seam -> targets.  ``"module:Class.attr"`` wraps a method wherever the class
#: or a subclass defines it; ``"module:function"`` wraps a module function;
#: ``"module:*.attr"`` wraps ``attr`` on every class the module defines.
SEAMS: dict[str, tuple[str, ...]] = {
    "workloads.next": ("repro.workloads.traces:RecordStream.__next__",),
    "ssd.device.loop": ("repro.ssd.device:SSD.run", "repro.ssd.device:SSD.replay"),
    "core.encode": ("repro.core.base:FTLBase.encode",),
    "core.plan": (
        "repro.core.base:FTLBase.begin_read_run",
        "repro.core.base:FTLBase.begin_write_run",
        "repro.core.batch:*.take",
        "repro.core.batch:*.skip",
    ),
    "ssd.engine.exec": (
        "repro.ssd.engine:TimingEngine.execute_buffer",
        "repro.ssd.engine:TimingEngine.execute_read_batch",
        "repro.ssd.engine:TimingEngine.execute_write_batch",
        "repro.ssd.engine:TimingEngine.execute_read_batch_observed",
        "repro.ssd.engine:TimingEngine.execute_write_batch_observed",
    ),
    "ssd.stats.record": (
        "repro.ssd.stats:SimulationStats.record_latency",
        "repro.ssd.stats:SimulationStats.record_latencies",
    ),
    "obs.record": (
        "repro.obs.windows:WindowedRecorder.record_scalar",
        "repro.obs.windows:WindowedRecorder.record_fast_read",
        "repro.obs.windows:WindowedRecorder.record_fast_write",
        "repro.obs.trace:TraceRecorder.instant",
        "repro.obs.trace:TraceRecorder.complete",
    ),
    "obs.export": (
        "repro.obs.windows:WindowedRecorder.series",
        "repro.obs.trace:TraceRecorder.write",
    ),
    "snapshot.io": (
        "repro.snapshot.serialization:save_snapshot",
        "repro.snapshot.serialization:load_snapshot",
        "repro.snapshot.store:SnapshotStore.load",
        "repro.snapshot.store:SnapshotStore.save",
    ),
    "replay.session": ("repro.replay.engine:ReplaySession.run",),
    "experiments.task": ("repro.experiments:run_experiment",),
    "experiments.orchestrate": ("repro.experiments.orchestrator:run_orchestrated",),
    "analysis.render": ("repro.experiments.runner:ExperimentResult.render",),
}

#: Planner ``take()`` returns ``(k, ...)``: the requests it served in one step.
_TAKE_TARGET = "repro.core.batch:*.take"

#: Profile layers, in report order; ``other`` takes every sample that has no
#: frame under ``src/repro/`` or falls in a module not listed here.
LAYERS: tuple[str, ...] = (
    "workloads",
    "ssd.device",
    "ssd.engine",
    "ssd.stats",
    "ssd.request",
    "core.ftl",
    "core.batch",
    "core.cmt",
    "core.mapping",
    "core.allocation",
    "core.learned",
    "nand",
    "obs",
    "replay",
    "snapshot",
    "experiments",
    "execution",
    "analysis",
    "other",
)

_FTL_MODULES = ("base", "dftl", "tpftl", "leaftl", "learnedftl", "idealftl")

#: Raw spans kept per seam and phase (see :meth:`Tracer.cut`) for the Chrome trace.
_RAW_SPANS_PER_SEAM = 400

_SAMPLE_INTERVAL_S = 0.002

#: Items per span of :meth:`Tracer.timed_iter`.
_ITER_BLOCK = 256

#: A seam's first ``_EXACT_SPANS`` calls of a phase are all timed.  If they
#: averaged under ``_HOT_SPAN_NS`` the seam is *hot* (timing a call costs about
#: a microsecond, a large share of such a span): from then on only calls inside
#: a window shared by every hot seam are timed, the first ``_WINDOW`` of every
#: ``_PERIOD_MASK + 1`` hot calls, and weighed accordingly.  Sharing the window
#: keeps parent and child spans timed together, so self times stay consistent
#: (a span cut by a window edge is 1 in ``_WINDOW``).  Seams with longer spans
#: stay fully timed: their durations are heavy-tailed (an ``encode`` that runs
#: GC) and sampling them would not estimate the total.  ``.calls`` is exact
#: either way.
_EXACT_SPANS = 2_000
_HOT_SPAN_NS = 4_000
_WINDOW = 512
_PERIOD_MASK = 4095
_WINDOW_WEIGHT = (_PERIOD_MASK + 1) // _WINDOW


def layer_of(relative: str) -> str:
    """The profile layer of a source path relative to ``src/repro/``."""
    parts = Path(relative).with_suffix("").parts
    if len(parts) >= 2:
        package, module = parts[0], parts[1]
        if package == "core":
            if module == "learned":
                return "core.learned"
            if module in _FTL_MODULES:
                return "core.ftl"
        dotted = f"{package}.{module}"
        if dotted in LAYERS:
            return dotted
        if package in LAYERS:
            return package
    return "other"


def count_calls(clock: SliceClock, run: Callable[[], None]) -> int:
    """Python-level function calls made by ``run`` while the clock is in a slice."""
    calls = 0

    def profile(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        if event == "call" and clock.phase is not None:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


class Tracer:
    """Span wrappers plus sampling profile, bound to one :class:`SliceClock`.

    With ``seams`` given, only those seams are wrapped and the sampler stays
    off (the ``--plant`` mode); otherwise every seam of :data:`SEAMS` is.
    """

    def __init__(
        self,
        clock: SliceClock,
        source_root: Path,
        *,
        seams: "tuple[str, ...] | None" = None,
        plant: "dict[str, float] | None" = None,
    ) -> None:
        self.clock = clock
        self.source_root = str(source_root.resolve()) + "/"
        self.names = list(SEAMS if seams is None else seams)
        self.sampling = seams is None
        self.plant = dict(plant or {})
        n = len(self.names)
        # Aggregates of the phase in progress, indexed by seam position;
        # :meth:`cut` files them under the phase's name and zeroes them.
        self._calls = [0] * n
        self._incl_ns = [0] * n
        self._self_ns = [0] * n
        self.totals: dict[str, dict[str, dict[str, float]]] = {}
        self.raw: list[tuple[int, int, int, int, int]] = []
        self.absent: list[str] = []
        self.samples: dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Requests served by planner ``take()`` steps, and the steps that served any.
        self.taken = 0
        self.takes = 0
        # A seam has at most one span open at a time (nested calls of the same
        # seam pass through), so child time is accumulated per seam.
        self._open = [False] * n
        self._child_ns = [0] * n
        self._weight = [1] * n
        self._hot = [False] * n
        #: Calls of hot seams seen so far; its low bits place the shared window.
        self._tick = [0]
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._layer_cache: dict[str, "str | None"] = {}
        self._previous_handler: Any = None

    # ------------------------------------------------------------- wrapping
    def _wrapper(self, fn: Callable, idx: int, *, takes: bool = False) -> Callable:
        clock, running, open_, child, stack, raw = (
            self.clock, self.clock.running, self._open, self._child_ns, self._stack, self.raw
        )
        calls, incl, own, weights, tick, hot = (
            self._calls, self._incl_ns, self._self_ns, self._weight, self._tick, self._hot
        )
        extra = self.plant.get(self.names[idx], 1.0) - 1.0
        # A planted delay must hit every call, so planting never samples.
        exact_spans = 0 if self.plant else _EXACT_SPANS
        now = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not running[0]:
                return fn(*args, **kwargs)
            count = calls[idx] = calls[idx] + 1
            weight = 1
            if hot[idx]:
                # A hot seam: count every call, time only the calls that fall
                # in the shared window, and weigh those by period / window.
                tick[0] = ticks = tick[0] + 1
                if ticks & _PERIOD_MASK >= _WINDOW:
                    return fn(*args, **kwargs)
                weight = _WINDOW_WEIGHT
            if open_[idx]:
                # A nested call inside the same seam (SnapshotStore.load ->
                # load_snapshot) stays inside the one open span.
                calls[idx] = count - 1
                return fn(*args, **kwargs)
            open_[idx] = True
            child[idx] = 0
            weights[idx] = weight
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                if takes and result[0] and clock.phase == "timed":
                    tracer.taken += result[0]
                    tracer.takes += 1
                return result
            finally:
                t1 = now()
                if extra > 0.0:
                    deadline = t1 + (t1 - t0) * extra
                    while t1 < deadline:
                        t1 = now()
                stack.pop()
                open_[idx] = False
                elapsed = t1 - t0
                incl[idx] += elapsed * weight
                own[idx] += (elapsed - child[idx]) * weight
                if count == exact_spans:
                    hot[idx] = incl[idx] < exact_spans * _HOT_SPAN_NS
                parent = -1
                if stack:
                    parent = stack[-1]
                    # An always-timed parent takes the weighted estimate; a
                    # parent timed in the same window takes the span itself.
                    child[parent] += elapsed * weight if weights[parent] < weight else elapsed
                if count <= _RAW_SPANS_PER_SEAM:
                    raw.append((idx, t0, t1, parent, len(clock.slices)))

        return wrapper

    def _install_target(self, target: str, idx: int) -> bool:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        takes = target == _TAKE_TARGET
        if "." not in path:
            original = getattr(module, path, None)
            if not callable(original):
                return False
            wrapper = self._wrapper(original, idx)
            # ``from m import f`` copies the binding: rebind every holder.
            for name, holder in list(sys.modules.items()):
                if holder is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._undo.append((holder, attr, original))
            return True
        class_name, attr = path.split(".")
        if class_name == "*":
            classes = [
                value
                for value in vars(module).values()
                if isinstance(value, type) and value.__module__ == module_name
            ]
        else:
            base = getattr(module, class_name, None)
            if not isinstance(base, type):
                return False
            classes, pending = [], [base]
            while pending:
                cls = pending.pop()
                classes.append(cls)
                pending.extend(cls.__subclasses__())
        owners = [cls for cls in classes if callable(cls.__dict__.get(attr))]
        for cls in owners:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrapper(original, idx, takes=takes))
            self._undo.append((cls, attr, original))
        return bool(owners)

    def install(self) -> None:
        """Wrap every resolvable seam target and start the sampler."""
        for idx, name in enumerate(self.names):
            found = [self._install_target(target, idx) for target in SEAMS[name]]
            if not any(found):
                self.absent.append(name)
        if self.sampling:
            self._previous_handler = signal.signal(signal.SIGPROF, self._on_sample)
            signal.setitimer(signal.ITIMER_PROF, _SAMPLE_INTERVAL_S, _SAMPLE_INTERVAL_S)

    def uninstall(self) -> None:
        """Stop the sampler and restore every wrapped attribute."""
        if self.sampling and self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, self._previous_handler)
            self._previous_handler = None
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def timed_iter(self, seam: str, iterator: Any) -> Any:
        """``iterator``, pulled in blocks with one span of ``seam`` per block.

        A span per item would cost more than generating the item; the items
        and their order are unchanged (the stream must not depend on its
        consumer, which holds for the seeded generators).
        """
        if seam not in self.names:
            return iterator
        pull = self._wrapper(lambda: list(islice(iterator, _ITER_BLOCK)), self.names.index(seam))
        # iter(callable, sentinel) stops at the first empty block.
        return chain.from_iterable(iter(pull, []))

    # ------------------------------------------------------------- sampling
    def _on_sample(self, signum: int, frame: Any) -> None:
        if self.clock.phase != "timed":
            return
        cache, root = self._layer_cache, self.source_root
        layer = "other"
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                found = cache[filename]
            except KeyError:
                found = cache[filename] = (
                    layer_of(filename[len(root) :]) if filename.startswith(root) else None
                )
            if found is not None:
                layer = found
                break
            frame = frame.f_back
        self.samples[layer] += 1

    # -------------------------------------------------------------- results
    def profile_pct(self) -> dict[str, float]:
        """Share of timed-region samples per layer, in percent (sums to 100)."""
        total = sum(self.samples.values())
        return {
            layer: 100.0 * count / total if total else 0.0
            for layer, count in self.samples.items()
        }

    def cut(self, phase: str) -> dict[str, dict[str, float]]:
        """File the spans recorded since the last cut as ``phase``: ``{seam: {calls, ms, self_ms}}``."""
        self.totals[phase] = {
            name: {
                "calls": self._calls[idx],
                "ms": self._incl_ns[idx] / 1e6,
                "self_ms": self._self_ns[idx] / 1e6,
            }
            for idx, name in enumerate(self.names)
        }
        for column in (self._calls, self._incl_ns, self._self_ns, self._hot):
            column[:] = [0] * len(column)
        return self.totals[phase]

    def write_chrome_trace(self, path: Path) -> Path:
        """Write the sampled raw spans and the span totals as Chrome trace-event JSON."""
        events: list[dict[str, Any]] = []
        origin = min((span[1] for span in self.raw), default=0)
        for idx, t0, t1, parent, slice_id in self.raw:
            events.append(
                {
                    "name": self.names[idx],
                    "ph": "X",
                    "ts": (t0 - origin) / 1e3,
                    "dur": (t1 - t0) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "parent": self.names[parent] if parent >= 0 else None,
                        "slice": slice_id,
                    },
                }
            )
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "host perf_counter_ns",
                "raw_spans_per_seam": _RAW_SPANS_PER_SEAM,
                "span_totals": self.totals,
                "profile_samples": self.samples,
                "absent_seams": self.absent,
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path
