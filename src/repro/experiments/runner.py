"""Shared machinery for the per-figure experiment harnesses.

Every experiment module exposes ``run(scale=..., **kwargs) -> ExperimentResult``
and is registered in :data:`repro.experiments.EXPERIMENTS`.  This module
provides the pieces they share:

* :class:`Scale` — the three experiment sizes.  ``tiny`` is what the pytest
  benchmarks use (seconds), ``default`` runs on a ~0.5 GB simulated device
  (tens of seconds per figure) and ``full`` uses the paper's 32 GB geometry
  (hours; provided for completeness).
* :func:`prepare_ssd` — create an SSD, warm it to steady state the way
  Section IV-B describes, and reset the statistics so measurements exclude the
  warm-up; :func:`snapshot_key` is the store key such a call warms under.
* :class:`ExperimentResult` — rows + rendered table + free-form notes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.report import format_table, rows_to_csv
from repro.core.base import FTLConfig
from repro.nand.fields import PositiveFloat, check_value
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.obs.trace import TraceRecorder
from repro.snapshot.store import SnapshotStore
from repro.snapshot.warm import warm_device, warm_key
from repro.ssd.device import SSD

__all__ = [
    "Scale",
    "ScaleSpec",
    "ExperimentResult",
    "prepare_ssd",
    "snapshot_key",
    "observe_device",
    "ALL_FTLS",
    "BASELINE_FTLS",
    "WARMUP_IO_PAGES",
    "WARMUP_SEED",
    "WARMUP_THREAD_CAP",
    "set_snapshot_dir",
    "active_snapshot_store",
    "set_metrics_window_us",
    "set_trace_dir",
    "observability_settings",
    "begin_telemetry_capture",
    "collect_telemetry",
]

#: The warm-up identity :func:`prepare_ssd` uses by default.
WARMUP_IO_PAGES = 128
WARMUP_SEED = 7
WARMUP_THREAD_CAP = 8

#: FTLs compared in the full figures (order matches the paper's legends).
ALL_FTLS: tuple[str, ...] = ("dftl", "tpftl", "leaftl", "learnedftl", "ideal")

#: FTLs used by the motivation experiments.
BASELINE_FTLS: tuple[str, ...] = ("tpftl", "leaftl")


class Scale(enum.Enum):
    """Experiment size."""

    TINY = "tiny"
    DEFAULT = "default"
    FULL = "full"

    @classmethod
    def parse(cls, value: "Scale | str") -> "Scale":
        """Accept either a :class:`Scale` or its string name."""
        if isinstance(value, Scale):
            return value
        return cls(value)


@dataclass(frozen=True)
class ScaleSpec:
    """Concrete sizing parameters of one scale."""

    geometry: SSDGeometry
    read_requests: int
    write_requests: int
    warmup_overwrite_factor: float
    threads: int

    @classmethod
    def for_scale(cls, scale: "Scale | str") -> "ScaleSpec":
        """Resolve a scale name into geometry and request budgets."""
        scale = Scale.parse(scale)
        if scale is Scale.TINY:
            return cls(
                geometry=SSDGeometry.small(),
                read_requests=2_000,
                write_requests=2_000,
                warmup_overwrite_factor=1.0,
                threads=8,
            )
        if scale is Scale.DEFAULT:
            return cls(
                geometry=SSDGeometry.medium(),
                read_requests=40_000,
                write_requests=40_000,
                warmup_overwrite_factor=2.0,
                threads=64,
            )
        return cls(
            geometry=SSDGeometry.paper(),
            read_requests=400_000,
            write_requests=400_000,
            warmup_overwrite_factor=6.0,
            threads=64,
        )

    def with_overrides(
        self,
        *,
        geometry: SSDGeometry | None = None,
        threads: int | None = None,
        read_requests: int | None = None,
        write_requests: int | None = None,
    ) -> "ScaleSpec":
        """Copy of this spec with selected sizing parameters replaced.

        This is the planner hook the study subsystem uses: a study cell keeps
        a scale's request budgets but may substitute its own geometry and host
        thread count.
        """
        changes: dict[str, Any] = {}
        if geometry is not None:
            changes["geometry"] = geometry
        if threads is not None:
            changes["threads"] = threads
        if read_requests is not None:
            changes["read_requests"] = read_requests
        if write_requests is not None:
            changes["write_requests"] = write_requests
        return replace(self, **changes) if changes else self


@dataclass
class ExperimentResult:
    """Output of one experiment harness.

    ``raw`` carries machine-readable side data that is never rendered: the
    unrounded metrics (throughput, energy, ...) a harness's ``finish`` step
    builds its cross-FTL normalized columns from, so shard results merge into
    the rows of one whole run.  It must stay JSON-serializable.
    """

    name: str
    description: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    extra_tables: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    raw: dict[str, Any] = field(default_factory=dict)

    def table(self) -> str:
        """Render the main rows as an ASCII table."""
        return format_table(self.rows, title=f"{self.name}: {self.description}")

    def csv(self) -> str:
        """Render the main rows as CSV."""
        return rows_to_csv(self.rows)

    def render(self) -> str:
        """Render everything (main table, extra tables, notes)."""
        parts = [self.table()]
        for title, rows in self.extra_tables.items():
            parts.append("")
            parts.append(format_table(rows, title=title))
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (used by the orchestrator and cache)."""
        return {
            "name": self.name,
            "description": self.description,
            "rows": self.rows,
            "notes": self.notes,
            "extra_tables": self.extra_tables,
            "raw": self.raw,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. a cache entry)."""
        return cls(
            name=payload["name"],
            description=payload["description"],
            rows=list(payload.get("rows", [])),
            notes=list(payload.get("notes", [])),
            extra_tables=dict(payload.get("extra_tables", {})),
            raw=dict(payload.get("raw", {})),
        )


#: Process-wide snapshot store the harnesses warm through (set by the CLI /
#: orchestrator via :func:`set_snapshot_dir`; ``None`` = warm from scratch).
_SNAPSHOT_STORE: SnapshotStore | None = None


def set_snapshot_dir(path: "str | Path | None") -> SnapshotStore | None:
    """Point every subsequent :func:`prepare_ssd` at a snapshot store.

    ``None`` disables snapshotting.  Re-pointing at the same directory keeps
    the existing store object (and its hit/miss counters); worker processes
    call this once per task, so the counters accumulate across one process's
    tasks.
    """
    global _SNAPSHOT_STORE
    if path is None:
        _SNAPSHOT_STORE = None
    elif _SNAPSHOT_STORE is None or _SNAPSHOT_STORE.root != Path(path):
        _SNAPSHOT_STORE = SnapshotStore(path)
    return _SNAPSHOT_STORE


def active_snapshot_store() -> SnapshotStore | None:
    """The store :func:`prepare_ssd` currently warms through (or ``None``)."""
    return _SNAPSHOT_STORE


# Process-wide observability settings, mirroring the snapshot store: the CLI /
# orchestrator set them once (per worker process), :func:`prepare_ssd` applies
# them to every device it builds, and :func:`collect_telemetry` drains what the
# devices recorded into the experiment result's ``raw`` block.
_METRICS_WINDOW_US: float | None = None
_TRACE_DIR: Path | None = None
#: Devices instrumented since the last :func:`begin_telemetry_capture`,
#: as ``(ftl_name, ssd)`` in preparation order.
_OBSERVED_DEVICES: list[tuple[str, SSD]] = []


def set_metrics_window_us(window_us: float | None) -> float | None:
    """Enable (or disable, with ``None``) windowed telemetry for subsequent devices."""
    global _METRICS_WINDOW_US
    check_value("metrics window", window_us, PositiveFloat | None)
    _METRICS_WINDOW_US = None if window_us is None else float(window_us)
    return _METRICS_WINDOW_US


def set_trace_dir(path: "str | Path | None") -> Path | None:
    """Enable (or disable, with ``None``) event tracing; traces land under ``path``."""
    global _TRACE_DIR
    _TRACE_DIR = None if path is None else Path(path)
    return _TRACE_DIR


def observability_settings() -> tuple[float | None, str | None]:
    """The active ``(metrics_window_us, trace_dir)`` pair (both ``None`` = off)."""
    return _METRICS_WINDOW_US, None if _TRACE_DIR is None else str(_TRACE_DIR)


def begin_telemetry_capture() -> None:
    """Forget previously instrumented devices (called per experiment run)."""
    _OBSERVED_DEVICES.clear()


def collect_telemetry(label: str) -> "dict[str, Any] | None":
    """Drain the telemetry of every device prepared since the capture began.

    Returns a JSON-serializable block (or ``None`` when observability is off):
    one entry per instrumented device with its per-window series and, when
    tracing is on, the Chrome trace file written under the trace directory
    (``<task>-<index>-<ftl>.trace.json``, ``<task>`` being the task ``label``
    — e.g. ``fig21[websearch1/dftl]`` — with each run of other characters
    turned into ``-``, and ``<index>`` counting the task's devices).
    """
    if not _OBSERVED_DEVICES:
        return None
    task = re.sub(r"[^0-9A-Za-z]+", "-", label).strip("-")
    devices: list[dict[str, Any]] = []
    for index, (ftl_name, ssd) in enumerate(_OBSERVED_DEVICES):
        entry: dict[str, Any] = {"ftl": ftl_name}
        if ssd.recorder is not None:
            entry["windows"] = ssd.recorder.series(ssd.stats)
        tracer = ssd.tracer
        if tracer.enabled:
            entry["trace_events"] = len(tracer)
            if _TRACE_DIR is not None:
                path = tracer.write(
                    _TRACE_DIR / f"{task}-{index:02d}-{ftl_name}.trace.json"
                )
                entry["trace_file"] = str(path)
        devices.append(entry)
    _OBSERVED_DEVICES.clear()
    return {
        "metrics_window_us": _METRICS_WINDOW_US,
        "trace": _TRACE_DIR is not None,
        "devices": devices,
    }


def prepare_ssd(
    ftl_name: str,
    spec: ScaleSpec,
    *,
    config: FTLConfig | None = None,
    timing: TimingModel | None = None,
    warmup: str = "steady",
    warmup_io_pages: int = WARMUP_IO_PAGES,
    seed: int = WARMUP_SEED,
    snapshot_store: SnapshotStore | None = None,
) -> SSD:
    """Create and precondition an SSD the way the paper's evaluation does.

    ``warmup`` selects the preconditioning style:

    * ``"none"`` — fresh device;
    * ``"fill"`` — one sequential fill of the logical space;
    * ``"steady"`` — sequential fill followed by mixed sequential/random
      overwrites of ``warmup_overwrite_factor`` x the logical space using
      128-page (512 KB at 4 KB pages) requests, matching Section IV-B's
      warm-up that lets LeaFTL build its learned index.

    The warm-up runs through :func:`repro.snapshot.warm.warm_device`: when a
    snapshot store is active (``snapshot_store`` argument, else the
    process-wide store installed by :func:`set_snapshot_dir`), the warm image
    is restored from disk when present and published after the first warm-up
    — bit-identical either way.  Statistics are reset afterwards so the
    measured phase starts clean.
    """
    store = snapshot_store if snapshot_store is not None else _SNAPSHOT_STORE
    ssd = warm_device(
        ftl_name,
        spec.geometry,
        config=config,
        timing=timing,
        store=store,
        **_warm_recipe(spec, warmup, warmup_io_pages, seed),
    )
    ssd.reset_stats()
    observe_device(ftl_name, ssd)
    return ssd


def _warm_recipe(spec: ScaleSpec, warmup: str, io_pages: int, seed: int) -> dict[str, Any]:
    """The warm-up arguments :func:`prepare_ssd` hands to ``warm_device``."""
    return {
        "warmup": warmup,
        "io_pages": io_pages,
        "overwrite_factor": spec.warmup_overwrite_factor,
        "threads": min(WARMUP_THREAD_CAP, spec.threads),
        "seed": seed,
    }


def snapshot_key(
    ftl_name: str, spec: ScaleSpec, *, config: FTLConfig | None = None, warmup: str = "steady"
) -> str | None:
    """The snapshot-store key :func:`prepare_ssd` with these arguments (and
    the default timing and recipe) warms under, computed without warming
    anything (``None``: nothing is stored)."""
    return warm_key(
        ftl_name,
        spec.geometry,
        config=config,
        **_warm_recipe(spec, warmup, WARMUP_IO_PAGES, WARMUP_SEED),
    )


def observe_device(ftl_name: str, ssd: SSD) -> None:
    """Instrument a prepared device with the process-wide observability settings.

    Call it right after the device's post-warm-up ``reset_stats()``, so window
    0 starts at the measured phase and warm-up activity never reaches the
    series or the trace; :func:`collect_telemetry` drains the device later.
    A no-op while observability is off.
    """
    if _METRICS_WINDOW_US is None and _TRACE_DIR is None:
        return
    tracer = TraceRecorder() if _TRACE_DIR is not None else None
    ssd.enable_observability(window_us=_METRICS_WINDOW_US, tracer=tracer)
    _OBSERVED_DEVICES.append((ftl_name, ssd))
