"""Checkpointed streaming trace replay.

A :class:`ReplaySession` drives a trace file through
:meth:`~repro.ssd.device.SSD.replay` in bounded chunks
(:func:`~repro.replay.stream.iter_trace_requests`), writing periodic
checkpoints through the snapshot serialization layer so a killed replay can
resume from its last checkpoint and finish **bit-identical** to an
uninterrupted run — same stats fingerprint, same telemetry window series,
same device ``state_dict``.

On-disk layout of a run directory::

    run_dir/
      manifest.json            # pins trace path+sha256, device+replay config,
                               # code fingerprint (REPLAY_MANIFEST_VERSION)
      checkpoints/
        ckpt-000001/           # snapshot dir: manifest.json + arrays.npz
        ckpt-000002/           # (the newest ``keep_checkpoints`` are retained)

Each checkpoint is one snapshot-format directory holding the device
``state_dict`` (including windowed-telemetry state) plus the replay's own
state: the parser :class:`~repro.workloads.traces.TraceCursor`, the
per-stream ``stream_free`` clocks, the arrival-time origin and the running
request/chunk counters.  Checkpoints are published atomically (write to a
temp sibling, rename), so a kill during a checkpoint write can never corrupt
an existing one; a corrupt checkpoint found at resume time is skipped with a
warning in favour of the previous one, and renamed ``refused-ckpt-NNNNNN`` so
the resumed run can publish that sequence number afresh.

What is *not* checkpointed: event-tracer buffers (a resumed run's Chrome
trace covers events since the resume) and wall-clock timings.  Everything
that feeds simulated results is.

**Threads.**  A :meth:`ReplaySession.run` call replays, captures, writes,
publishes and prunes on its calling thread.  When the checkpoint it is
writing is the one the call returns right after (a ``stop_after_checkpoints``
pause, a ``stop_after_requests`` stop in the same chunk, or the final
checkpoint), it also starts one worker thread that computes the result's
:func:`state_fingerprint` of that checkpoint's device capture while the
calling thread deflates the archive; both only read the capture, and the
sha256 and zlib loops release the GIL, so the two overlap on a second core.
The calling thread joins the worker before it returns, or re-raises a
failed write, so a call never leaves a thread behind, and no checkpoint
side effect (the temp-then-rename publication, the prune) is made off the
calling thread or after the call ends.  A checkpoint the run continues past
starts no thread.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Annotated, Any, Callable

import numpy as np

from repro.core.base import FTLConfig
from repro.execution.atomic import publish_dir, publish_json
from repro.nand.errors import ReproError
from repro.nand.fields import (
    Checked,
    Count,
    FieldRule,
    NonNegativeFloat,
    PositiveFloat,
    PositiveInt,
    field_rules,
    one_of,
)
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.replay.stream import iter_trace_requests
from repro.snapshot.fingerprint import source_fingerprint
from repro.snapshot.serialization import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    _flatten,
    load_snapshot,
    save_snapshot,
)
from repro.snapshot.store import SnapshotStore
from repro.snapshot.warm import WarmupMode, warm_device
from repro.ssd.device import SSD, FtlName
from repro.workloads.traces import TRACE_FORMATS, RecordStream, TraceCursor

__all__ = [
    "REPLAY_MANIFEST_VERSION",
    "ReplayError",
    "ReplayPlan",
    "ReplayResult",
    "ReplaySession",
    "state_fingerprint",
    "trace_sha256",
]

#: Version of the run-directory manifest schema and checkpoint replay-state
#: schema.  Bump on any incompatible change.
REPLAY_MANIFEST_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_CHECKPOINT_DIR = "checkpoints"
_CHECKPOINT_PREFIX = "ckpt-"
_REFUSED_PREFIX = "refused-"


class ReplayError(RuntimeError):
    """A replay run could not be started, checkpointed or resumed."""


def trace_sha256(path: str | Path) -> str:
    """Streaming sha256 of the trace file's on-disk bytes (as stored, so a
    ``.gz`` trace is hashed compressed — the hash pins the exact artifact)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def state_fingerprint(state: dict[str, Any]) -> str:
    """sha256 of a nested ``state_dict`` structure.

    Hashes the JSON skeleton (sorted keys) plus every ndarray leaf's dtype,
    shape and raw bytes — two states fingerprint equal iff they are
    bit-identical, which is what the crash/resume tests pin.  Columns are
    numbered in traversal order, so compare like with like: two devices'
    ``state_dict()``, or two loaded trees (``load_snapshot`` returns dicts in
    sorted-key order, which numbers the same columns differently).
    """
    arrays: dict[str, np.ndarray] = {}
    skeleton = _flatten(state, arrays)
    digest = hashlib.sha256(json.dumps(skeleton, sort_keys=True).encode("utf-8"))
    for key in sorted(arrays):
        column = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(column.dtype).encode("utf-8"))
        digest.update(str(column.shape).encode("utf-8"))
        # hashlib reads the (contiguous) column's buffer in place.
        digest.update(column)
    return digest.hexdigest()


#: The manifest's plan layout, which :meth:`ReplayPlan.manifest` writes and
#: :meth:`ReplayPlan.from_manifest` reads: section -> key -> ``ReplayPlan``
#: field.  The other keys (the versions, the trace hash, the code fingerprint)
#: are checked by the resume, against a freshly built manifest.
_MANIFEST_PLAN_FIELDS: dict[str, dict[str, str]] = {
    "trace": {"path": "trace_path", "format": "trace_format", "limit": "limit",
              "max_errors": "max_errors"},
    "device": {"ftl": "ftl_name", "geometry": "geometry", "config": "config", "timing": "timing"},
    "replay": {key: key for key in ("streams", "chunk_requests", "checkpoint_every_requests",
                                    "checkpoint_every_sim_s", "preserve_timing", "time_scale",
                                    "keep_checkpoints")},
    "warmup": {"warmup": "warmup", "io_pages": "io_pages", "overwrite_factor": "overwrite_factor",
               "threads": "warmup_threads", "seed": "warmup_seed"},
    "obs": {"metrics_window_us": "metrics_window_us"},
}


def _manifest_value(name: str, value: Any, rule: FieldRule) -> Any:
    """``value`` held to the type of ``rule``'s field; a dataclass takes an
    object of its fields and is built (its bounds checked there)."""
    kind = rule.kind
    if (value is None and rule.optional) or not is_dataclass(kind):
        problem = rule.type_problem(value)
        if problem is not None:
            raise ReplayError(f"run manifest field {name} {problem}")
        return value
    if not isinstance(value, dict):
        raise ReplayError(f"run manifest field {name} must be an object, got {value!r}")
    rules = field_rules(kind)
    for key, item in value.items():
        if key not in rules:
            raise ReplayError(f"run manifest field {name}.{key} is not a {kind.__name__} field")
        _manifest_value(f"{name}.{key}", item, rules[key])
    for spec in fields(kind):
        if spec.name not in value and spec.default is MISSING and spec.default_factory is MISSING:
            raise ReplayError(f"run manifest is missing {name}.{spec.name}")
    try:
        return kind(**value)
    except ReproError as exc:
        raise ReplayError(f"run manifest field {name}: {exc}") from exc


@dataclass(frozen=True)
class ReplayPlan(Checked):
    """Everything that determines a replay run's simulated results.

    The plan is pinned verbatim (plus the trace's sha256 and the code
    fingerprint) in the run directory's ``manifest.json``; a resume refuses to
    continue under a different plan, trace file or source tree, because any of
    those could silently break bit-identity with the original run.  Building
    a plan checks every field against its annotation (see
    :mod:`repro.nand.fields`) and raises :class:`ReplayError` naming the
    first bad one, so a refused plan never touches a run directory.
    """

    field_error = ReplayError

    trace_path: str
    trace_format: Annotated[str, one_of(TRACE_FORMATS)]
    ftl_name: FtlName
    geometry: SSDGeometry
    config: FTLConfig | None = None
    timing: TimingModel | None = None
    streams: PositiveInt = 1
    chunk_requests: PositiveInt = 10_000
    checkpoint_every_requests: PositiveInt | None = None
    checkpoint_every_sim_s: PositiveFloat | None = None
    preserve_timing: bool = True
    time_scale: PositiveFloat = 1.0
    limit: Count | None = None
    max_errors: Count = 0
    warmup: WarmupMode = "none"
    io_pages: PositiveInt = 128
    overwrite_factor: NonNegativeFloat = 1.0
    warmup_threads: PositiveInt = 1
    warmup_seed: Count = 7
    metrics_window_us: PositiveFloat | None = None
    keep_checkpoints: PositiveInt = 2

    def manifest(self) -> dict[str, Any]:
        """The run manifest: plan + trace hash + code fingerprint, all pinned.

        The plan sections are laid out by ``_MANIFEST_PLAN_FIELDS``, the table
        :meth:`from_manifest` reads them back with; a dataclass field is
        stored as an object of its fields (its default's when unset).
        """
        rules = field_rules(type(self))
        manifest: dict[str, Any] = {
            "replay_manifest_version": REPLAY_MANIFEST_VERSION,
            "snapshot_format": SNAPSHOT_FORMAT_VERSION,
            "source_fingerprint": source_fingerprint(),
        }
        for section, keys in _MANIFEST_PLAN_FIELDS.items():
            values = manifest[section] = {}
            for key, plan_field in keys.items():
                value, kind = getattr(self, plan_field), rules[plan_field].kind
                if is_dataclass(kind):
                    value = asdict(kind() if value is None else value)
                values[key] = value
        manifest["trace"]["sha256"] = trace_sha256(self.trace_path)
        return manifest

    @classmethod
    def from_manifest(cls, manifest: dict[str, Any]) -> "ReplayPlan":
        """Rebuild the plan pinned by a run directory's ``manifest.json``.

        This is what lets ``replay --resume --run-dir X`` need no other flags:
        the stored manifest is the single source of truth for the plan.  A
        manifest that is not an object, lacks a section or key, names an
        unknown geometry/config/timing field or holds a wrongly typed value
        raises :class:`ReplayError` naming the field.
        """
        if not isinstance(manifest, dict):
            raise ReplayError(f"run manifest must be a JSON object, got {manifest!r}")
        version = manifest.get("replay_manifest_version")
        if version != REPLAY_MANIFEST_VERSION:
            raise ReplayError(
                f"run manifest has version {version!r}; "
                f"this build reads version {REPLAY_MANIFEST_VERSION}"
            )
        rules = field_rules(cls)
        plan: dict[str, Any] = {}
        for section, keys in _MANIFEST_PLAN_FIELDS.items():
            if section not in manifest:
                raise ReplayError(f"run manifest is missing the {section!r} section")
            values = manifest[section]
            if not isinstance(values, dict):
                raise ReplayError(f"run manifest field {section} must be an object, got {values!r}")
            for key, plan_field in keys.items():
                if key not in values:
                    raise ReplayError(f"run manifest is missing {section}.{key}")
                plan[plan_field] = _manifest_value(
                    f"{section}.{key}", values[key], rules[plan_field]
                )
        return cls(**plan)


@dataclass
class ReplayResult:
    """Outcome of one :meth:`ReplaySession.run` call."""

    finished: bool
    requests: int
    records: int
    skipped_lines: int
    chunks: int
    checkpoints_written: int
    resumed_from: int | None
    sim_time_us: float
    summary: dict[str, float]
    state_sha: str
    telemetry: dict[str, Any] | None = None
    device: SSD | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable form (``--stats-out``; the device is omitted)."""
        return {
            "finished": self.finished,
            "requests": self.requests,
            "records": self.records,
            "skipped_lines": self.skipped_lines,
            "chunks": self.chunks,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from": self.resumed_from,
            "sim_time_us": self.sim_time_us,
            "summary": self.summary,
            "state_sha": self.state_sha,
            "telemetry": self.telemetry,
        }


class ReplaySession:
    """One replay run directory: manifest, checkpoints, streaming drive loop.

    ``log`` (optional) receives one-line progress strings — the CLI passes
    ``print``; tests pass a collector.  ``snapshot_store`` (optional) lets a
    warm-up-enabled plan restore its preconditioned image from the shared
    snapshot store instead of re-warming.
    """

    def __init__(
        self,
        plan: ReplayPlan,
        run_dir: str | Path,
        *,
        snapshot_store: SnapshotStore | None = None,
        log: Callable[[str], None] | None = None,
        tracer: Any = None,
    ) -> None:
        self.plan = plan
        self.run_dir = Path(run_dir)
        self.snapshot_store = snapshot_store
        self._log = log or (lambda message: None)
        # Event tracing is best-effort: tracer buffers are in-memory only, so
        # a resumed run's trace covers events since the resume (the windowed
        # telemetry, by contrast, is checkpointed and bit-identical).
        self._tracer = tracer

    # ----------------------------------------------------------- layout
    @property
    def manifest_path(self) -> Path:
        return self.run_dir / _MANIFEST_NAME

    @property
    def checkpoints_dir(self) -> Path:
        return self.run_dir / _CHECKPOINT_DIR

    def checkpoint_paths(self) -> list[Path]:
        """Existing checkpoint directories, oldest first."""
        if not self.checkpoints_dir.is_dir():
            return []
        return sorted(
            path
            for path in self.checkpoints_dir.iterdir()
            if path.is_dir() and path.name.startswith(_CHECKPOINT_PREFIX)
        )

    # ------------------------------------------------------------ devices
    def _build_device(self) -> SSD:
        """Fresh preconditioned device with a zeroed measurement interval."""
        plan = self.plan
        if plan.warmup == "none":
            device = SSD.create(
                plan.ftl_name, plan.geometry, timing=plan.timing, config=plan.config
            )
        else:
            device = warm_device(
                plan.ftl_name,
                plan.geometry,
                warmup=plan.warmup,
                io_pages=plan.io_pages,
                overwrite_factor=plan.overwrite_factor,
                threads=plan.warmup_threads,
                seed=plan.warmup_seed,
                config=plan.config,
                timing=plan.timing,
                store=self.snapshot_store,
            )
            device.reset_stats()
        if plan.metrics_window_us is not None:
            device.enable_observability(window_us=plan.metrics_window_us)
        return device

    # -------------------------------------------------------- checkpoints
    def _write_checkpoint(
        self,
        seq: int,
        device: SSD,
        cursor: TraceCursor,
        stream_free: list[float],
        origin_us: float,
        requests: int,
        chunks: int,
        *,
        completed: bool,
        returning: bool,
    ) -> str | None:
        """Publish checkpoint ``seq``.

        With ``returning`` (the run returns right after this checkpoint), the
        device capture is fingerprinted on a worker thread while this thread
        writes it, and the digest is returned; otherwise ``None``.  The worker
        is joined before this returns or raises.  A failed write removes its
        temp directory.
        """
        state = {
            "replay_state": {
                "seq": seq,
                "cursor": cursor.as_dict(),
                "stream_free": list(stream_free),
                "origin_us": origin_us,
                "requests": requests,
                "chunks": chunks,
                "completed": completed,
            },
            "device": device.state_dict(),
        }
        self.checkpoints_dir.mkdir(parents=True, exist_ok=True)
        final = self.checkpoints_dir / f"{_CHECKPOINT_PREFIX}{seq:06d}"
        temp = self.checkpoints_dir / f".{final.name}.tmp"
        shutil.rmtree(temp, ignore_errors=True)
        # A pool per write, never one made at import: it starts its one
        # thread only on submit, and leaving the block joins it.
        with ThreadPoolExecutor(1, thread_name_prefix="replay-fingerprint") as pool:
            digest = pool.submit(state_fingerprint, state["device"]) if returning else None
            try:
                save_snapshot(temp, state)
            except BaseException:
                shutil.rmtree(temp, ignore_errors=True)
                raise
            if not publish_dir(temp, final):
                # Resume moves refused checkpoints aside, so nothing should be
                # here; keeping the old copy would leave it shadowing this one.
                raise ReplayError(f"cannot publish checkpoint {final}: the directory exists")
            self._prune_checkpoints()
        return None if digest is None else digest.result()

    def _prune_checkpoints(self) -> None:
        """Drop all but the newest ``keep_checkpoints`` checkpoint dirs."""
        paths = self.checkpoint_paths()
        for stale in paths[: max(0, len(paths) - self.plan.keep_checkpoints)]:
            shutil.rmtree(stale, ignore_errors=True)

    def _load_latest_checkpoint(self) -> dict[str, Any] | None:
        """Newest loadable checkpoint state, skipping corrupt ones with a warning.

        A refused checkpoint is renamed out of :meth:`checkpoint_paths`'s
        view (``refused-ckpt-NNNNNN``): the resumed run rewrites its sequence
        number, and the new copy must not find the old one in its way.
        """
        for path in reversed(self.checkpoint_paths()):
            try:
                return load_snapshot(path)
            except SnapshotError as exc:
                refused = path.with_name(f"{_REFUSED_PREFIX}{path.name}")
                shutil.rmtree(refused, ignore_errors=True)
                path.replace(refused)
                message = (
                    f"skipping corrupt replay checkpoint {path.name} "
                    f"(moved aside to {refused.name}): {exc}"
                )
                warnings.warn(message, RuntimeWarning, stacklevel=2)
                self._log(message)
        return None

    # --------------------------------------------------------------- run
    def _verify_manifest(self, manifest: dict[str, Any]) -> None:
        """A resume must run under the exact manifest the run started with."""
        try:
            stored = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ReplayError(
                f"cannot read run manifest at {self.manifest_path}: {exc}"
            ) from exc
        if stored != manifest:
            mismatched = sorted(
                key
                for key in set(stored) | set(manifest)
                if stored.get(key) != manifest.get(key)
            )
            raise ReplayError(
                f"resume manifest mismatch in {mismatched}: the trace file, plan "
                f"or source tree changed since this run started; bit-identical "
                f"resume is impossible (start a fresh run directory instead)"
            )

    def run(
        self,
        *,
        resume: bool = False,
        stop_after_checkpoints: int | None = None,
        stop_after_requests: int | None = None,
    ) -> ReplayResult:
        """Drive the trace through the device, checkpointing on cadence.

        ``stop_after_checkpoints`` pauses the run right after the Nth
        checkpoint written *by this call* (a clean kill: nothing is lost).
        ``stop_after_requests`` aborts once the *total* replayed request count
        reaches the threshold, without writing a checkpoint — modelling a
        crash between checkpoints; the work since the last checkpoint is
        rolled back on resume.  Both return ``finished=False``, and each must
        be at least 1 when given (checked before the run directory is touched).
        """
        for name, value in (
            ("stop_after_checkpoints", stop_after_checkpoints),
            ("stop_after_requests", stop_after_requests),
        ):
            if value is not None and value < 1:
                raise ReplayError(f"{name} must be >= 1 when given, got {value}")
        plan = self.plan
        manifest = plan.manifest()
        resumed_from: int | None = None
        if resume:
            self._verify_manifest(manifest)
            state = self._load_latest_checkpoint()
            if state is None:
                warnings.warn(
                    f"no usable checkpoint under {self.checkpoints_dir}; "
                    f"restarting the replay from the beginning",
                    RuntimeWarning,
                    stacklevel=2,
                )
                state = None
        else:
            if self.manifest_path.exists():
                raise ReplayError(
                    f"{self.run_dir} already holds a replay run; pass resume=True "
                    f"(--resume) to continue it or use a fresh run directory"
                )
            state = None

        if state is not None:
            replay_state = state["replay_state"]
            device = SSD.create(
                plan.ftl_name, plan.geometry, timing=plan.timing, config=plan.config
            )
            device.load_state(state["device"])
            cursor = TraceCursor.from_dict(replay_state["cursor"])
            stream_free = [float(value) for value in replay_state["stream_free"]]
            origin_us = float(replay_state["origin_us"])
            seq = int(replay_state["seq"])
            requests_done = int(replay_state["requests"])
            chunks_done = int(replay_state["chunks"])
            resumed_from = seq
            if replay_state["completed"]:
                # The run already finished; resuming is a no-op.
                self._log(f"replay already completed at checkpoint {seq}; nothing to do")
                return self._result(
                    device,
                    finished=True,
                    requests=requests_done,
                    cursor=cursor,
                    chunks=chunks_done,
                    checkpoints_written=0,
                    resumed_from=resumed_from,
                    origin_us=origin_us,
                )
            self._log(
                f"resuming from checkpoint {seq}: {requests_done} requests, "
                f"record {cursor.record_index}, byte offset {cursor.byte_offset}"
            )
        else:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            publish_json(self.manifest_path, manifest, indent=2)
            device = self._build_device()
            origin_us = device.now_us
            stream_free = [origin_us] * plan.streams
            cursor = TraceCursor()
            seq = 0
            requests_done = 0
            chunks_done = 0

        if self._tracer is not None:
            device.enable_observability(tracer=self._tracer)

        last_ckpt_requests = requests_done
        last_ckpt_clock_us = device.now_us
        checkpoints_written = 0
        finished = True
        # The digest of the checkpoint this call returns right after, taken on
        # a worker thread as the checkpoint is written; None while the device
        # has moved past its newest checkpoint.
        state_sha: str | None = None

        stream = RecordStream(
            plan.trace_path,
            plan.trace_format,
            limit=plan.limit,
            max_errors=plan.max_errors,
            cursor=cursor,
        )
        with stream:
            chunk_iter = iter_trace_requests(
                stream,
                plan.geometry,
                chunk_requests=plan.chunk_requests,
                preserve_timing=plan.preserve_timing,
                time_scale=plan.time_scale,
            )
            for chunk in chunk_iter:
                device.replay(chunk, stream_free=stream_free, origin_us=origin_us)
                requests_done += len(chunk)
                chunks_done += 1
                cursor = stream.cursor
                due = False
                if plan.checkpoint_every_requests is not None:
                    due = requests_done - last_ckpt_requests >= plan.checkpoint_every_requests
                if not due and plan.checkpoint_every_sim_s is not None:
                    due = (
                        device.now_us - last_ckpt_clock_us
                        >= plan.checkpoint_every_sim_s * 1e6
                    )
                pausing = due and (
                    stop_after_checkpoints is not None
                    and checkpoints_written + 1 >= stop_after_checkpoints
                )
                aborting = stop_after_requests is not None and requests_done >= stop_after_requests
                if due:
                    seq += 1
                    state_sha = self._write_checkpoint(
                        seq,
                        device,
                        cursor,
                        stream_free,
                        origin_us,
                        requests_done,
                        chunks_done,
                        completed=False,
                        returning=pausing or aborting,
                    )
                    checkpoints_written += 1
                    last_ckpt_requests = requests_done
                    last_ckpt_clock_us = device.now_us
                    self._progress(device, seq, requests_done, cursor)
                    if pausing:
                        finished = False
                        self._log(
                            f"pausing after checkpoint {seq} (stop_after_checkpoints)"
                        )
                        break
                if aborting:
                    finished = False
                    self._log(
                        f"aborting at {requests_done} requests without a checkpoint "
                        f"(stop_after_requests): work since checkpoint {seq} will "
                        f"be rolled back on resume"
                    )
                    break
            final_cursor = stream.cursor

        if finished:
            cursor = final_cursor
            seq += 1
            state_sha = self._write_checkpoint(
                seq,
                device,
                cursor,
                stream_free,
                origin_us,
                requests_done,
                chunks_done,
                completed=True,
                returning=True,
            )
            checkpoints_written += 1
            self._log(
                f"replay finished: {requests_done} requests from "
                f"{cursor.record_index} records "
                f"({cursor.skipped_lines} malformed lines skipped), "
                f"sim time {(device.now_us - origin_us) / 1e6:.3f}s, "
                f"final checkpoint {seq}"
            )
        return self._result(
            device,
            finished=finished,
            requests=requests_done,
            cursor=cursor,
            chunks=chunks_done,
            checkpoints_written=checkpoints_written,
            resumed_from=resumed_from,
            origin_us=origin_us,
            state_sha=state_sha,
        )

    def _progress(self, device: SSD, seq: int, requests: int, cursor: TraceCursor) -> None:
        line = (
            f"checkpoint {seq}: {requests} requests, record {cursor.record_index}, "
            f"sim time {device.now_us / 1e6:.3f}s"
        )
        if device.recorder is not None:
            series = device.recorder.series(device.stats)
            if series["num_windows"]:
                line += (
                    f", window {series['num_windows'] - 1}: "
                    f"{series['iops'][-1]:.0f} iops"
                )
        self._log(line)

    def _result(
        self,
        device: SSD,
        *,
        finished: bool,
        requests: int,
        cursor: TraceCursor,
        chunks: int,
        checkpoints_written: int,
        resumed_from: int | None,
        origin_us: float,
        state_sha: str | None = None,
    ) -> ReplayResult:
        """Assemble the result; ``state_sha`` is the device's fingerprint if
        the caller already holds it (of the checkpoint it just wrote)."""
        telemetry = None
        if device.recorder is not None:
            telemetry = device.recorder.series(device.stats)
        if state_sha is None:
            state_sha = state_fingerprint(device.state_dict())
        return ReplayResult(
            finished=finished,
            requests=requests,
            records=cursor.record_index,
            skipped_lines=cursor.skipped_lines,
            chunks=chunks,
            checkpoints_written=checkpoints_written,
            resumed_from=resumed_from,
            sim_time_us=device.now_us - origin_us,
            summary=dict(device.stats.summary()),
            state_sha=state_sha,
            telemetry=telemetry,
            device=device,
        )
