"""The simulated SSD: FTL + flash + timing engine + host thread model.

:class:`SSD` is the main entry point of the library::

    from repro import SSD, SSDGeometry, LearnedFTL
    from repro.workloads import FioJob

    ssd = SSD.create("learnedftl", SSDGeometry.small())
    ssd.fill_sequential()                       # precondition
    job = FioJob.randread(num_requests=10_000)
    result = ssd.run(job.requests(ssd.geometry), threads=4)
    print(result.stats.summary())

Two host models are supported:

* **closed loop** (``run``): N threads, each issuing its next request as soon
  as the previous one completes (fio's ``psync`` engine);
* **open loop** (``replay``): requests carry arrival timestamps (trace replay);
  a request is dispatched at ``max(arrival, previous completion of its
  stream)``.

Both are short loops that only choose issue times: the act itself — encode
the request, time its flash work, record its latency, log what it produced
— is written once, in ``SSD._step``, which :meth:`SSD.submit` shares.  With
observability on, the step makes one append to an
:class:`~repro.obs.log.ObservationLog`, and the windowed recorder and the
tracer (:mod:`repro.obs`) consume that log a block at a time; there is no
observed variant of any loop.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import Annotated, Any, Callable, Iterable, Iterator

import numpy as np

from repro.core.base import FTLBase, FTLConfig
from repro.core.dftl import DFTL
from repro.core.idealftl import IdealFTL
from repro.core.leaftl import LeaFTL
from repro.core.learnedftl import LearnedFTL
from repro.core.tpftl import TPFTL
from repro.nand.errors import ConfigurationError
from repro.nand.fields import Count, PositiveInt, as_int, check_value, one_of
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.obs.log import BLOCK_OP_SLOTS, BLOCK_ROW_SLOTS, ObservationLog
from repro.obs.trace import NULL_TRACER
from repro.obs.windows import WindowedRecorder
from repro.ssd.energy import EnergyBreakdown, EnergyModel
from repro.ssd.engine import TimingEngine
from repro.ssd.request import (
    OP_READ_CODE,
    HostRequest,
    OpType,
    RequestBatch,
)
from repro.ssd.stats import SimulationStats

__all__ = ["SSD", "RunResult", "FTL_REGISTRY", "FtlName", "create_ftl", "available_ftls"]

#: Factory registry mapping design names to classes; ``SSD.create`` and the
#: experiment harness look designs up here.
FTL_REGISTRY: dict[str, type[FTLBase]] = {
    "dftl": DFTL,
    "tpftl": TPFTL,
    "leaftl": LeaFTL,
    "learnedftl": LearnedFTL,
    "ideal": IdealFTL,
}
#: Declared type of a design-name field (see :mod:`repro.nand.fields`).
FtlName = Annotated[str, one_of(FTL_REGISTRY)]


def available_ftls() -> tuple[str, ...]:
    """The registered FTL design names, in registry (paper legend) order.

    The study layer validates its ``ftl`` axis against this enumeration, so a
    design registered into :data:`FTL_REGISTRY` becomes sweepable without any
    study-side change.
    """
    return tuple(FTL_REGISTRY)


def create_ftl(
    name: str,
    geometry: SSDGeometry,
    *,
    timing: TimingModel | None = None,
    config: FTLConfig | None = None,
    stats: SimulationStats | None = None,
) -> FTLBase:
    """Instantiate an FTL design by name (``dftl``/``tpftl``/``leaftl``/``learnedftl``/``ideal``)."""
    try:
        cls = FTL_REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown FTL {name!r}; choose one of {sorted(FTL_REGISTRY)}"
        ) from exc
    return cls(geometry, timing=timing, config=config, stats=stats)


#: Run classes of the batched loop's segment splitter.
_RUN_SCALAR, _RUN_READ = 0, 1


def _segments(klass: "np.ndarray") -> Iterator[tuple[int, int, int]]:
    """Split a run-class column into maximal constant runs.

    Yields ``(start, end, klass)`` half-open runs in order; the batched loop
    executes :data:`_RUN_READ` runs through the FTL's read planner and
    :data:`_RUN_SCALAR` runs through the request step.
    """
    n = klass.shape[0]
    if n == 0:
        return
    changes = np.flatnonzero(klass[1:] != klass[:-1]) + 1
    prev = 0
    for index in changes.tolist():
        yield prev, index, int(klass[prev])
        prev = index
    yield prev, n, int(klass[prev])


def _iter_request_chunks(
    requests: "Iterable[HostRequest] | RequestBatch", batch: int
) -> Iterator[tuple["np.ndarray", "np.ndarray", Callable[[int], HostRequest]]]:
    """Chunk a request stream into ``(lpns, klass, request_at)`` columns.

    ``klass`` classifies each request for the segment splitter: single-page
    reads (:data:`_RUN_READ`) are the planner-servable shape, everything else
    is :data:`_RUN_SCALAR`.  ``request_at(i)`` materializes chunk-local
    request ``i`` for the request step; for a :class:`RequestBatch` source it
    converts the chunk's columns with one ``tolist`` per chunk on first use,
    so writes and the planner-less designs pay list indexing per
    request instead of NumPy scalar extraction.  A :class:`RequestBatch`
    source is otherwise sliced zero-copy (its columns already exist); any
    other iterable is buffered ``batch`` requests at a time, so generators
    stream without being drained up front.
    """
    if isinstance(requests, RequestBatch):
        lpns = requests.lpns
        klass_all = np.where(
            (requests.npages == 1) & (requests.ops == OP_READ_CODE),
            np.int8(_RUN_READ),
            np.int8(_RUN_SCALAR),
        )
        total = len(requests)
        read_op, write_op = OpType.READ, OpType.WRITE
        for chunk_start in range(0, total, batch):
            chunk_end = chunk_start + batch
            if chunk_end > total:
                chunk_end = total

            def request_at(
                i: int, _start: int = chunk_start, _end: int = chunk_end, _cache: list = []
            ) -> HostRequest:
                if not _cache:
                    _cache.append(requests.ops[_start:_end].tolist())
                    _cache.append(requests.lpns[_start:_end].tolist())
                    _cache.append(requests.npages[_start:_end].tolist())
                return HostRequest(
                    read_op if _cache[0][i] == OP_READ_CODE else write_op,
                    _cache[1][i],
                    _cache[2][i],
                )

            yield lpns[chunk_start:chunk_end], klass_all[chunk_start:chunk_end], request_at
        return
    read_op = OpType.READ
    iterator = iter(requests)
    while True:
        chunk = list(islice(iterator, batch))
        if not chunk:
            return
        n = len(chunk)
        lpns = np.fromiter((request.lpn for request in chunk), np.int64, count=n)
        klass = np.fromiter(
            (
                _RUN_READ if request.op is read_op and request.npages == 1 else _RUN_SCALAR
                for request in chunk
            ),
            np.int8,
            count=n,
        )
        yield lpns, klass, chunk.__getitem__


@dataclass
class RunResult:
    """Outcome of one workload run."""

    stats: SimulationStats
    elapsed_us: float
    requests: int

    @property
    def throughput_mb_s(self) -> float:
        """Host throughput over the run in MB/s."""
        return self.stats.throughput_mb_s()

    @property
    def iops(self) -> float:
        """Host requests per simulated second."""
        return self.stats.iops()


def _count_argument(name: str, value: Any) -> int:
    """``value`` as a positive Python int, or :class:`ConfigurationError`
    naming ``name``.

    The integer rule of the config fields (:func:`repro.nand.fields.as_int`):
    any integer passes, NumPy integers included; a bool, a float or a string
    is refused rather than taken as a count.
    """
    count = as_int(value)
    if count is None:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    check_value(name, count, PositiveInt)
    return count


class SSD:
    """A complete simulated SSD bound to one FTL design.

    This is the library's main entry point: it owns the FTL (and through it
    the flash array and mapping state), the chip-parallel timing engine and
    the statistics, and exposes the host-facing API:

    * :meth:`create` — build a device from an FTL name (``FTL_REGISTRY``),
      geometry and optional :class:`FTLConfig`/:class:`TimingModel`;
    * :meth:`run` / :meth:`replay` — closed-loop (fio psync) and open-loop
      (trace arrival timestamps) execution of a request stream;
    * :meth:`fill_sequential` / :meth:`overwrite_random` — the
      preconditioning primitives the paper's warm-up is built from;
    * :meth:`save_state` / :meth:`restore` — bit-identical device
      checkpoints (see :mod:`repro.snapshot`);
    * ``ssd.stats`` — the :class:`SimulationStats` every figure reads.

    Simulated time is microseconds; ``now_us`` advances to the completion of
    the latest request.  All results are deterministic per (FTL, geometry,
    config, timing, request stream).
    """

    def __init__(
        self,
        ftl: FTLBase,
        *,
        timing: TimingModel | None = None,
        energy_model: EnergyModel | None = None,
    ) -> None:
        self.ftl = ftl
        self.geometry = ftl.geometry
        self.timing = timing or ftl.timing
        self.stats = ftl.stats
        self.stats.page_size = self.geometry.page_size
        self.engine = TimingEngine(self.geometry.num_chips, self.timing, self.stats)
        self.energy_model = energy_model or EnergyModel()
        self._clock_us = 0.0
        #: Optional windowed telemetry (:meth:`enable_observability`).
        self.recorder: WindowedRecorder | None = None
        #: Structured event tracer; the shared no-op by default.
        self.tracer = NULL_TRACER
        #: What the request step produced, for the recorder and the tracer;
        #: ``None`` (nothing attached) costs the step one ``is not None`` test.
        self._log: ObservationLog | None = None

    # ------------------------------------------------------------- creation
    @classmethod
    def create(
        cls,
        ftl_name: str,
        geometry: SSDGeometry | None = None,
        *,
        timing: TimingModel | None = None,
        config: FTLConfig | None = None,
        energy_model: EnergyModel | None = None,
    ) -> "SSD":
        """Build an SSD with a named FTL design and (optionally) custom knobs."""
        geometry = geometry or SSDGeometry.small()
        timing = timing or TimingModel.femu_default()
        ftl = create_ftl(ftl_name, geometry, timing=timing, config=config)
        return cls(ftl, timing=timing, energy_model=energy_model)

    @property
    def now_us(self) -> float:
        """Current simulated time (end of the latest completed request)."""
        return self._clock_us

    # --------------------------------------------------------- observability
    def enable_observability(self, *, window_us: float | None = None, tracer=None):
        """Attach windowed telemetry and/or an event tracer to this device.

        ``window_us`` installs a fresh :class:`~repro.obs.windows.WindowedRecorder`
        bucketing per-request activity into windows of that width of simulated
        time; ``tracer`` (a :class:`~repro.obs.trace.TraceRecorder`) is wired
        into the device and its FTL's GC/eviction hook sites.  Either may be
        given alone.  Returns the active recorder (or ``None``).

        Every host entry point (``submit``/``run``/``replay``) feeds whatever
        is attached here through the same request step and observation log,
        so they observe alike; nothing simulated changes.  Requests still
        pending in the log reach the observers attached before the call.
        """
        recorder = None if window_us is None else WindowedRecorder(window_us)
        self._flush_observations()
        if recorder is not None:
            recorder.bind_durations(self.engine._duration_by_code)
            self.recorder = recorder
        if tracer is not None:
            self.tracer = tracer
            self.ftl.tracer = tracer
        if self.recorder is not None or self.tracer.enabled:
            self._log = ObservationLog(
                self.recorder, self.tracer if self.tracer.enabled else None
            )
        return self.recorder

    def _flush_observations(self) -> None:
        """Hand the requests pending in the observation log to its consumers."""
        if self._log is not None:
            self._log.flush()

    # --------------------------------------------------------------- running
    def _step(self, request: HostRequest, issue: float) -> float:
        """Serve one host request issued at ``issue``; returns its finish time.

        The one statement of encode → execute → record → log: every host
        entry point (:meth:`submit`, both loops of :meth:`run`, :meth:`replay`)
        picks an issue time from its own clock and calls this.  Callees are
        looked up per call because ``reset_stats`` and
        ``enable_observability`` replace them between calls.  With
        observability on, the step appends what it produced to the
        observation log *after* the engine executed ``buffer`` — whose
        ``ops`` and ``outcome_codes`` hold exactly this request's commands and
        outcomes until the next ``encode``: one row (issue, latency, pages
        signed by direction, command slots, outcome codes) and the two lists.
        """
        tracer = self.tracer
        if tracer.enabled:
            tracer.now_us = issue
        buffer = self.ftl.encode(request, issue)
        finish = self.engine.execute_buffer(buffer, issue)
        is_read = request.op is OpType.READ
        latency = finish - issue
        self.stats.record_latency(is_read, latency)
        log = self._log
        if log is not None:
            ops = buffer.ops
            outcomes = buffer.outcome_codes
            rows = log.rows
            rows += (
                issue,
                latency,
                request.npages if is_read else -request.npages,
                len(ops),
                len(outcomes),
            )
            log.ops += ops
            log.outcomes += outcomes
            if len(rows) >= BLOCK_ROW_SLOTS or len(log.ops) >= BLOCK_OP_SLOTS:
                log.flush()
        return finish

    def submit(self, request: HostRequest, issue_time_us: float | None = None) -> float:
        """Process a single host request; returns its completion time."""
        finish = self._step(request, self._clock_us if issue_time_us is None else issue_time_us)
        self._clock_us = max(self._clock_us, finish)
        self.stats.finish_time_us = self._clock_us
        return finish

    def run(
        self,
        requests: "Iterable[HostRequest] | RequestBatch",
        *,
        threads: int = 1,
        batch: int | None = None,
        progress: Callable[[int], None] | None = None,
    ) -> RunResult:
        """Closed-loop execution: ``threads`` psync workers share the request stream.

        With ``batch=N`` (N > 1) the device runs the vectorized kernel:
        requests are pulled ``N`` at a time, runs of single-page reads are
        served array-at-a-time through the FTL's read planner
        (:meth:`~repro.core.base.FTLBase.begin_read_run`) and everything else
        — writes included — takes the request step one request at a time.
        Results are bit-identical to ``batch=None``; passing the stream as a
        :class:`RequestBatch` avoids materializing request objects on the
        fast path entirely.
        ``batch=1`` degenerates to one request per "run" — there is nothing to
        vectorize — so it skips the packing machinery and runs the scalar loop
        directly.
        """
        threads = _count_argument("threads", threads)
        if batch is not None:
            batch = _count_argument("batch", batch)
        start = self._clock_us
        # Min-heap of bare free-time floats: the next request always goes to
        # the earliest-free thread.  psync threads are indistinguishable, so
        # the free-time multiset is the whole host state (no slot indices) and
        # the engine's batch kernels can ``heapreplace`` it directly.
        thread_free: list[float] = [start] * threads
        if batch is not None and batch > 1:
            completed = self._run_batched(requests, thread_free, batch, progress)
        else:
            completed = 0
            step = self._step
            heapreplace = heapq.heapreplace
            for request in requests:
                heapreplace(thread_free, step(request, thread_free[0]))
                completed += 1
                if progress is not None and completed % 10_000 == 0:
                    progress(completed)
        self._clock_us = max(self._clock_us, max(thread_free))
        self.stats.finish_time_us = self._clock_us
        return RunResult(stats=self.stats, elapsed_us=self._clock_us - start, requests=completed)

    def _run_batched(
        self,
        requests: "Iterable[HostRequest] | RequestBatch",
        thread_free: list[float],
        batch: int,
        progress: Callable[[int], None] | None,
    ) -> int:
        """The chunk → segment → planner loop of ``run(..., batch=N)``.

        Serves the stream against :meth:`run`'s thread heap and returns the
        number of requests completed.  A read planner's ``take()`` is executed
        by the engine's read-batch kernel; requests it refuses, and segments
        no planner serves, go through :meth:`_step`.  Each kernel call's
        ``(issues, latencies, trans_chips, trans_ppns)`` columns go to the
        observation log right after it — before the next ``take()`` or
        fallback — so the log holds the same requests, commands and outcomes
        in the same order as the scalar loop's, and what is observed does not
        depend on ``batch``.
        Progress callbacks fire at the same 10k-request marks as the scalar
        loop (a planner step spanning a mark emits it immediately, not at
        chunk end).
        """
        completed = 0
        step = self._step
        execute_read_batch = self.engine.execute_read_batch
        begin_read_run = self.ftl.begin_read_run
        record_latencies = self.stats.record_latencies
        log = self._log
        heapreplace = heapq.heapreplace
        for lpns, klass, request_at in _iter_request_chunks(requests, batch):
            for seg_start, seg_end, kind in _segments(klass):
                planner = begin_read_run(lpns[seg_start:seg_end]) if kind == _RUN_READ else None
                pos = seg_start
                while pos < seg_end:
                    if planner is not None:
                        k, data_chips, trans_chips, trans_ppns, computes = planner.take()
                        if k:
                            issues, latencies = execute_read_batch(
                                data_chips,
                                trans_chips,
                                thread_free,
                                trans_count=len(trans_ppns),
                                computes=computes,
                            )
                            if log is not None:
                                log.append_reads(issues, latencies, trans_chips, trans_ppns)
                            record_latencies(True, latencies)
                            if progress is not None:
                                first_mark = completed - completed % 10_000 + 10_000
                                for mark in range(first_mark, completed + k + 1, 10_000):
                                    progress(mark)
                            completed += k
                            pos += k
                            if pos >= seg_end:
                                break
                    # Writes, multi-page reads, a design with no read planner
                    # (every design but LearnedFTL), or the planner refused
                    # the request at the cursor: the request step, then
                    # resume batching after it.
                    heapreplace(thread_free, step(request_at(pos), thread_free[0]))
                    completed += 1
                    if progress is not None and completed % 10_000 == 0:
                        progress(completed)
                    pos += 1
                    if planner is not None:
                        planner.skip()
                # Free the run's columns before the next run gathers its own.
                planner = None
        return completed

    def replay(
        self,
        requests: Iterable[HostRequest],
        *,
        streams: int = 1,
        stream_free: "list[float] | None" = None,
        origin_us: "float | None" = None,
    ) -> RunResult:
        """Open-loop trace replay honouring per-request arrival timestamps.

        A request is issued at ``max(arrival, previous completion of its
        stream)``; ``stream_id`` values beyond ``streams`` wrap around
        (``stream_id % streams``), so traces recorded with more jobs than the
        replay is configured for still make progress.

        ``stream_free`` and ``origin_us`` exist for chunked streaming replay
        (``repro.replay``): passing the same ``stream_free`` list (mutated in
        place; its length overrides ``streams``) and the same ``origin_us``
        arrival base across consecutive calls makes N chunked calls
        bit-identical to one monolithic call over the concatenated requests.
        Leave both ``None`` for the classic single-shot behaviour.
        """
        streams = _count_argument("streams", streams)
        if stream_free is not None and not stream_free:
            raise ConfigurationError("stream_free must be non-empty when given")
        start = self._clock_us
        origin = start if origin_us is None else origin_us
        if stream_free is None:
            stream_free = [origin] * streams
        streams = len(stream_free)
        completed = 0
        step = self._step
        for request in requests:
            slot = request.stream_id % streams
            arrival = origin + (request.issue_time_us or 0.0)
            stream_free[slot] = step(request, max(arrival, stream_free[slot]))
            completed += 1
        self._clock_us = max(self._clock_us, max(stream_free))
        self.stats.finish_time_us = self._clock_us
        return RunResult(stats=self.stats, elapsed_us=self._clock_us - start, requests=completed)

    # --------------------------------------------------------- preconditioning
    def fill_sequential(self, *, io_pages: int = 128, fraction: float = 1.0) -> RunResult:
        """Sequentially write the logical space once (or a fraction of it).

        ``io_pages`` is clamped to the remaining span at the tail of the
        device; a request size exceeding the logical space itself (or a
        non-positive one) cannot produce a meaningful request stream and
        raises :class:`ConfigurationError`.
        """
        num_logical_pages = self.geometry.num_logical_pages
        io_pages = _count_argument("io_pages", io_pages)
        if io_pages > num_logical_pages:
            raise ConfigurationError(
                f"io_pages={io_pages} exceeds the logical space of "
                f"{num_logical_pages} pages; use a smaller request size for this geometry"
            )
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        total = int(num_logical_pages * fraction)
        requests = (
            HostRequest(OpType.WRITE, lpn, min(io_pages, total - lpn))
            for lpn in range(0, total, io_pages)
        )
        return self.run(requests, threads=1)

    def overwrite_random(
        self, *, pages: int, io_pages: int = 1, seed: int = 7, threads: int = 1
    ) -> RunResult:
        """Randomly overwrite ``pages`` logical pages (steady-state conditioning).

        ``io_pages`` must fit inside the logical space — otherwise every
        generated request would spill past the end of the device — and
        ``pages`` must be non-negative.
        """
        num_logical_pages = self.geometry.num_logical_pages
        io_pages = _count_argument("io_pages", io_pages)
        if io_pages > num_logical_pages:
            raise ConfigurationError(
                f"io_pages={io_pages} exceeds the logical space of "
                f"{num_logical_pages} pages; every overwrite would run past the device end"
            )
        check_value("pages", pages, Count)
        rng = random.Random(seed)
        limit = num_logical_pages - io_pages
        requests = (
            HostRequest(OpType.WRITE, rng.randint(0, limit), io_pages)
            for _ in range(pages // io_pages)
        )
        return self.run(requests, threads=threads)

    # ------------------------------------------------------------ snapshots
    def state_dict(self) -> dict[str, Any]:
        """Capture the complete device state (for :func:`repro.snapshot.save_snapshot`).

        Includes the creation parameters (FTL name, geometry, config, timing)
        so :meth:`restore` can rebuild an identical device, plus the full
        runtime state: the FTL (flash columns, mapping directory, allocators,
        caches, learned models), the statistics and the chip timelines.
        """
        state = {
            "ftl_name": self.ftl.name,
            "geometry": asdict(self.geometry),
            "config": asdict(self.ftl.config),
            "timing": asdict(self.timing),
            "clock_us": self._clock_us,
            "ftl": self.ftl.state_dict(),
            "stats": self.stats.state_dict(),
            "engine": self.engine.timeline.state_dict(),
        }
        if self.recorder is not None:
            state["obs"] = self.recorder.state_dict()
        return state

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture into this device **in place**.

        The device must have been created with the same FTL design, geometry,
        config and timing as the snapshot source; anything else raises
        :class:`ConfigurationError` rather than silently mixing states — and
        so does a snapshot whose telemetry window differs from the attached
        recorder's.  Both are checked before anything is restored.
        """
        for field_name, current in (
            ("ftl_name", self.ftl.name),
            ("geometry", asdict(self.geometry)),
            ("config", asdict(self.ftl.config)),
            ("timing", asdict(self.timing)),
        ):
            if state[field_name] != current:
                raise ConfigurationError(
                    f"snapshot {field_name} {state[field_name]!r} does not match "
                    f"this device's {current!r}"
                )
        obs = state.get("obs")
        if obs is not None and self.recorder is not None:
            width = float(obs["window_us"])
            if width != self.recorder.window_us:
                raise ConfigurationError(
                    f"snapshot telemetry window is {width} us, "
                    f"recorder uses {self.recorder.window_us} us"
                )
        self._flush_observations()
        self.ftl.load_state(state["ftl"])
        self.stats.load_state(state["stats"])
        self.engine.timeline.load_state(state["engine"])
        self._clock_us = float(state["clock_us"])
        if obs is not None:
            if self.recorder is None:
                self.enable_observability(window_us=float(obs["window_us"]))
            self.recorder.load_state(obs)
        elif self.recorder is not None:
            # The snapshot carried no telemetry: the restored series must not
            # inherit windows from before the restore.
            self.recorder.reset()
        if self.tracer.enabled:
            self.tracer.instant(
                "snapshot_restore",
                self._clock_us,
                {"finish_time_us": self.stats.finish_time_us},
            )

    def save_state(self, path: "str | Path") -> "Path":
        """Checkpoint the device to a snapshot directory; returns the path."""
        from repro.snapshot.serialization import save_snapshot

        return save_snapshot(path, self.state_dict())

    @classmethod
    def restore(cls, path: "str | Path") -> "SSD":
        """Rebuild a device bit-identically from a :meth:`save_state` snapshot.

        The restored device uses the default energy model (the model is a set
        of stateless constants applied to the statistics after the fact, not
        simulation state); pass a custom one to :class:`SSD` directly if
        needed.
        """
        from repro.snapshot.serialization import load_snapshot

        state = load_snapshot(path)
        geometry = SSDGeometry(**state["geometry"])
        config = FTLConfig(**state["config"])
        timing = TimingModel(**state["timing"])
        ssd = cls.create(state["ftl_name"], geometry, timing=timing, config=config)
        ssd.load_state(state)
        return ssd

    # ------------------------------------------------------------- analysis
    def energy(self) -> EnergyBreakdown:
        """Energy consumed so far according to the device's energy model."""
        return self.energy_model.evaluate(self.stats)

    def reset_stats(self) -> SimulationStats:
        """Start a fresh measurement interval (e.g. after warm-up).

        Statistics, the simulated clock and the chip timelines are all reset so
        throughput and latency reflect only the measured phase; the FTL state
        (mappings, caches, models, flash contents) is preserved.  Returns the
        warm-up statistics.
        """
        self._flush_observations()
        old = self.stats
        fresh = SimulationStats(page_size=self.geometry.page_size)
        self.stats = fresh
        self.ftl.stats = fresh
        self.engine = TimingEngine(self.geometry.num_chips, self.timing, fresh)
        self._clock_us = 0.0
        if self.recorder is not None:
            # Realign the windowed series with the new measurement interval:
            # drop warm-up windows and rebind to the fresh engine's latency
            # table so window 0 restarts at the rewound clock.
            self.recorder.reset()
            self.recorder.bind_durations(self.engine._duration_by_code)
        return old

    def verify(self) -> None:
        """Run the FTL's integrity check (every LPN resolves to its newest copy)."""
        self.ftl.verify_integrity()
