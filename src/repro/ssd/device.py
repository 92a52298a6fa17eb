"""The simulated SSD: FTL + flash + timing engine + host thread model.

:class:`SSD` is the main entry point of the library::

    from repro import SSD, SSDGeometry, LearnedFTL
    from repro.workloads import FioJob

    ssd = SSD.create("learnedftl", SSDGeometry.small())
    ssd.fill_sequential()                       # precondition
    job = FioJob.randread(num_requests=10_000)
    result = ssd.run(job.requests(ssd.geometry), threads=4)
    print(result.stats.summary())

The device has one host loop, with two issue rules:

* **closed loop** (``run``): N threads, each issuing its next request as soon
  as the previous one completes (fio's ``psync`` engine);
* **open loop** (``replay``): requests carry arrival timestamps (trace replay);
  a request is issued at ``max(arrival, previous completion of its
  stream)``.

The loop only chooses issue times: it pulls requests in chunks, splits each
chunk into runs of reads (of any length) and runs of everything else, and
hands every read run to the FTL's read planner (one per chunk), whose
requests the engine's read-batch kernel times with the step's arithmetic
under the same issue rule.  Everything else, and each read a planner
refuses, takes the request step — encode the request, time its flash work,
record its latency, log what it produced — written once, in ``SSD._step``,
which :meth:`SSD.submit` shares.  With observability on, the step and the
kernel append to an :class:`~repro.obs.log.ObservationLog`, and the windowed
recorder and the tracer (:mod:`repro.obs`) consume that log a block at a
time; there is no observed variant of the loop.
"""

from __future__ import annotations

import heapq
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
from repro.nand.fields import PositiveInt, as_int, check_value, one_of
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.obs.log import BLOCK_OP_SLOTS, BLOCK_ROW_SLOTS, ObservationLog
from repro.obs.trace import NULL_TRACER
from repro.obs.windows import WindowedRecorder
from repro.ssd.energy import EnergyModel
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


#: A :class:`RequestBatch` op code's :class:`OpType` (``OP_READ_CODE`` is 0,
#: ``OP_WRITE_CODE`` 1).
_OP_TYPES = (OpType.READ, OpType.WRITE)


def _segments(reads: "np.ndarray") -> list[tuple[int, int, bool]]:
    """Split a chunk's read mask into maximal runs.

    Returns ``(start, end, is_read)`` half-open runs in order: runs of
    reads, the shape a read planner serves, and runs of writes.
    """
    bounds = [0, *((reads[1:] != reads[:-1]).nonzero()[0] + 1).tolist(), len(reads)]
    return list(zip(bounds, bounds[1:], reads[bounds[:-1]].tolist()))


#: Most read pages one chunk may cover: a read planner holds a few Python
#: columns per page of its chunk, so this bounds its memory (about 1 MB)
#: when long reads fill a chunk.  Without it, one 46 508-page chunk of the
#: `figs_tiny` ledger workload raised its peak RSS by 6.6 MB (12 %).
_CHUNK_READ_PAGES = 8_192


def _read_pages_cut(ops: "np.ndarray", npages: "np.ndarray") -> int:
    """How many leading requests of a chunk cover at most
    :data:`_CHUNK_READ_PAGES` read pages (at least one)."""
    # Ufunc and ndarray methods only: no Python-level NumPy wrapper runs
    # per chunk (the ledger's py.calls_per_op counts them).
    pages = np.add.accumulate(np.where(ops == OP_READ_CODE, npages, 0))
    if pages[-1] <= _CHUNK_READ_PAGES:
        return len(pages)
    return max(1, int(pages.searchsorted(_CHUNK_READ_PAGES, side="right")))


def _iter_request_chunks(
    requests: "Iterable[HostRequest] | RequestBatch",
    batch: int,
    *,
    origin: float | None = None,
    streams: int = 1,
) -> Iterator[tuple]:
    """Chunk a request stream into ``(ops, lpns, npages, segments,
    requests_of, arrivals, slots)``.

    ``ops``, ``lpns`` and ``npages`` are the chunk's op-code (int8), LPN and
    page-count (int64) columns (``batch`` requests, fewer where their reads
    would cover more than :data:`_CHUNK_READ_PAGES` pages), ``segments``
    their :func:`_segments` split,
    and ``requests_of(slice)`` returns a slice of the chunk as a list of
    :class:`HostRequest` for the request step.  With an ``origin`` (the open
    loop), ``arrivals[i]`` is request ``i``'s arrival, ``origin`` plus its
    ``issue_time_us`` (0 when it has none), and ``slots[i]`` its stream,
    ``stream_id % streams``.  A :class:`RequestBatch` source (closed loop
    only) is sliced zero-copy (its columns already exist) and builds request
    objects only for the slices the step serves, with one ``map`` per slice.
    Any other iterable is buffered ``batch`` requests at a time, so a
    generator is pulled at most one chunk ahead of execution and is never
    drained up front.
    """
    if isinstance(requests, RequestBatch) and origin is None:
        ops, lpns, npages = requests.ops, requests.lpns, requests.npages
        reads = ops == OP_READ_CODE
        op_type = _OP_TYPES.__getitem__
        start = 0
        while start < len(requests):
            stop = start + batch
            stop = start + _read_pages_cut(ops[start:stop], npages[start:stop])
            chunk = slice(start, stop)
            start = stop
            chunk_ops, chunk_lpns, chunk_npages = ops[chunk], lpns[chunk], npages[chunk]

            def requests_of(part: slice, _ops=chunk_ops, _lpns=chunk_lpns, _npages=chunk_npages):
                return list(
                    map(
                        HostRequest,
                        map(op_type, _ops[part].tolist()),
                        _lpns[part].tolist(),
                        _npages[part].tolist(),
                    )
                )

            yield chunk_ops, chunk_lpns, chunk_npages, _segments(reads[chunk]), requests_of, None, None
        return
    write_op = OpType.WRITE
    iterator = iter(requests)
    arrivals = slots = None
    held: list = []
    while chunk := held + list(islice(iterator, batch - len(held))):
        ops = np.array([request.op is write_op for request in chunk], dtype=np.int8)
        lpns = np.array([request.lpn for request in chunk], dtype=np.int64)
        npages = np.array([request.npages for request in chunk], dtype=np.int64)
        cut = _read_pages_cut(ops, npages)
        held = chunk[cut:]
        if held:
            chunk, ops, lpns, npages = chunk[:cut], ops[:cut], lpns[:cut], npages[:cut]
        if origin is not None:
            arrivals = [origin + (request.issue_time_us or 0.0) for request in chunk]
            slots = [request.stream_id % streams for request in chunk]
        yield ops, lpns, npages, _segments(ops == OP_READ_CODE), chunk.__getitem__, arrivals, slots


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
      :meth:`submit` — one request;
    * :meth:`fill_sequential` — the sequential preconditioning the paper's
      warm-up starts from;
    * :meth:`state_dict` / :meth:`load_state` / :meth:`restore` —
      bit-identical device checkpoints (see :mod:`repro.snapshot`);
    * :meth:`enable_observability` — windowed telemetry and event tracing;
    * :meth:`reset_stats` — start a measured phase after warm-up;
    * :meth:`verify` — check the mapping and flash invariants;
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

        The one statement of encode → execute → record → log:
        :meth:`submit`, and the host loop for every request no read planner
        serves, pick an issue time from their own clock and call this.  Callees are
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
        batch: int = 4096,
        progress: Callable[[int], None] | None = None,
    ) -> RunResult:
        """Closed-loop execution: ``threads`` psync workers share the request stream.

        The host loop (:meth:`_serve`) with the closed issue rule: each
        request issues when the earliest-free thread frees up.  Requests are
        pulled ``batch`` at a time; results are bit-identical whichever way
        a request is served, so ``batch`` (a positive count) sets only the
        chunk length: memory and how far ahead a generator is pulled.
        Passing the stream as a :class:`RequestBatch` avoids materializing
        request objects for the requests a planner serves.  ``progress``
        fires at every 10k-request mark, immediately even when a planner
        step spans it.
        """
        threads = _count_argument("threads", threads)
        batch = _count_argument("batch", batch)
        start = self._clock_us
        # Min-heap of bare free-time floats: the next request always goes to
        # the earliest-free thread.  psync threads are indistinguishable, so
        # the free-time multiset is the whole host state (no slot indices) and
        # the engine's batch kernel can ``heapreplace`` it directly.
        thread_free: list[float] = [start] * threads
        return self._serve(_iter_request_chunks(requests, batch), start, thread_free, progress)

    def replay(
        self,
        requests: Iterable[HostRequest],
        *,
        streams: int = 1,
        stream_free: "list[float] | None" = None,
        origin_us: "float | None" = None,
    ) -> RunResult:
        """Open-loop trace replay honouring per-request arrival timestamps.

        The host loop (:meth:`_serve`) with the open issue rule: a request
        is issued at ``max(origin + arrival, previous completion of its
        stream)``; ``stream_id`` values beyond ``streams`` wrap around
        (``stream_id % streams``), so traces recorded with more jobs than the
        replay is configured for still make progress.  Its reads are planned
        exactly as :meth:`run`'s are.

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
        chunks = _iter_request_chunks(requests, 4096, origin=origin, streams=len(stream_free))
        return self._serve(chunks, start, stream_free)

    def _serve(
        self,
        chunks: Iterator[tuple],
        start: float,
        host_free: list[float],
        progress: Callable[[int], None] | None = None,
    ) -> RunResult:
        """The one host loop, from simulated time ``start``.

        ``host_free`` is the host's state under its issue rule: the closed
        loop's thread heap (a chunk's ``arrivals`` is ``None``: a request
        issues at ``host_free[0]`` and the thread is re-queued at its
        finish) or the open loop's per-stream free times (a request issues
        at ``max(arrivals[i], host_free[slots[i]])`` and sets its stream's
        entry to its finish).

        Each chunk is split into maximal runs of reads and runs of writes.
        A chunk that holds a read run gets one read planner from the FTL
        (:meth:`~repro.core.base.FTLBase.begin_read_run`), which gathers its
        columns for the whole chunk once; every read run, however short and
        whatever its reads' lengths, is then a cursor range over them that
        the planner serves array-at-a-time through the engine's read-batch
        kernel.  Everything else — writes, the designs with no planner and
        each read a planner refuses — takes the request step one request at
        a time; after each run of writes the planner re-reads what those
        requests changed (``refresh``).  Each kernel call's ``(issues,
        latencies, trans_chips, trans_ppns, npages)`` columns go to the
        observation log right after it, so the log holds the same requests,
        commands and outcomes in the same order whichever way they were
        served.
        """
        completed = 0
        step = self._step
        execute_read_batch = self.engine.execute_read_batch
        begin_read_run = self.ftl.begin_read_run
        record_latencies = self.stats.record_latencies
        log = self._log
        heapreplace = heapq.heapreplace
        for ops, lpns, npages, segments, requests_of, arrivals, slots in chunks:
            # One planner per chunk that holds a read run (runs alternate, so
            # any chunk of two or more does): its columns cover the whole
            # chunk, and every read run is a cursor range over them.
            planner = None
            if len(segments) > 1 or segments[0][2]:
                planner = begin_read_run(ops, lpns, npages)
            for seg_start, seg_end, is_read in segments:
                pos = seg_start
                while pos < seg_end:
                    stop = seg_end
                    if is_read and planner is not None:
                        k, data_chips, trans_chips, trans_ppns, computes, pages = planner.take(seg_end)
                        if k:
                            issues, latencies = execute_read_batch(
                                data_chips,
                                trans_chips,
                                host_free,
                                trans_count=len(trans_ppns),
                                computes=computes,
                                npages=pages,
                                arrivals=None if arrivals is None else arrivals[pos : pos + k],
                                slots=None if slots is None else slots[pos : pos + k],
                            )
                            if log is not None:
                                log.append_reads(issues, latencies, trans_chips, trans_ppns, pages)
                            record_latencies(True, latencies)
                            if progress is not None:
                                first_mark = completed - completed % 10_000 + 10_000
                                for mark in range(first_mark, completed + k + 1, 10_000):
                                    progress(mark)
                            completed += k
                            pos += k
                            if pos >= seg_end:
                                break
                        # The planner refused the request at the cursor.
                        stop = pos + 1
                    if arrivals is None:
                        for request in requests_of(slice(pos, stop)):
                            heapreplace(host_free, step(request, host_free[0]))
                            completed += 1
                            if progress is not None and completed % 10_000 == 0:
                                progress(completed)
                    else:
                        for i, request in enumerate(requests_of(slice(pos, stop)), pos):
                            slot = slots[i]
                            host_free[slot] = step(request, max(arrivals[i], host_free[slot]))
                            completed += 1
                    if planner is not None:
                        if is_read:
                            planner.skip()
                        else:
                            planner.refresh(pos, stop)
                    pos = stop
        self._clock_us = max(self._clock_us, max(host_free))
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

    @classmethod
    def restore(cls, path: "str | Path") -> "SSD":
        """Rebuild a device bit-identically from a snapshot of its :meth:`state_dict`.

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
