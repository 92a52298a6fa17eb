"""Construct workloads from declarative spec dictionaries.

The study subsystem (:mod:`repro.studies`) sweeps workloads as one axis of a
scenario grid; each axis value is a plain dictionary like::

    {"kind": "fio", "pattern": "randread"}
    {"kind": "zipf", "theta": 0.99}
    {"kind": "hotspot", "read_fraction": 0.7}
    {"kind": "trace", "name": "websearch1"}

:func:`build_workload` validates such a dictionary (unknown keys and
ill-typed values raise :class:`~repro.nand.errors.ConfigurationError` naming
the offending key) and returns a :class:`WorkloadPlan` that can generate the
request stream for any geometry.  Request counts default to the experiment
scale's budgets, so a study spec stays scale-independent unless it pins
``num_requests`` explicitly.

Everything here routes through the existing generators — :class:`FioJob`,
:func:`zipf_reads` / :func:`hotspot_stream` / :func:`mixed_stream` and the
:data:`TRACE_PRESETS` synthesizers — so spec-built workloads are bit-identical
to hand-built ones with the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Any, Iterator, Mapping

from repro.nand.errors import ConfigurationError
from repro.nand.fields import NonEmptyStr, PositiveFloat, PositiveInt, check_value, one_of
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import HostRequest
from repro.workloads.fio import FioJob, FioPattern
from repro.workloads.synthetic import hotspot_stream, mixed_stream, zipf_reads
from repro.workloads.traces import TRACE_PRESETS, trace_to_requests

__all__ = ["WORKLOAD_KINDS", "WorkloadPlan", "build_workload"]

#: Workload kinds understood by :func:`build_workload`.
WORKLOAD_KINDS: tuple[str, ...] = ("fio", "zipf", "hotspot", "mixed", "trace")

#: Allowed keys per kind (beyond the mandatory ``kind`` and optional ``label``).
_KIND_FIELDS: dict[str, tuple[str, ...]] = {
    "fio": ("pattern", "io_pages", "span_fraction", "seed", "num_requests"),
    "zipf": ("theta", "io_pages", "seed", "num_requests"),
    "hotspot": (
        "read_fraction",
        "hot_fraction",
        "hot_probability",
        "io_pages",
        "seed",
        "num_requests",
    ),
    "mixed": ("read_fraction", "io_pages", "seed", "num_requests"),
    "trace": ("name", "num_ios", "time_scale"),
}
#: Declared types of the choice fields (see :mod:`repro.nand.fields`).
_KIND = Annotated[str, one_of(WORKLOAD_KINDS)]
_FIO_PATTERN = Annotated[str, one_of([member.value for member in FioPattern])]
_TRACE_NAME = Annotated[str, one_of(TRACE_PRESETS)]


@dataclass(frozen=True)
class WorkloadPlan:
    """A validated, geometry-independent workload ready to generate requests.

    Attributes
    ----------
    kind:
        Workload kind (one of :data:`WORKLOAD_KINDS`).
    label:
        Short axis-value label used in study cell names and result columns.
    description:
        Human-readable one-liner for reports.
    replay:
        ``True`` when the stream carries arrival timestamps and must run
        open-loop through :meth:`repro.ssd.device.SSD.replay`; ``False`` for
        closed-loop :meth:`~repro.ssd.device.SSD.run` streams.
    num_requests:
        Number of host requests (or trace I/Os) the plan generates.
    params:
        The fully-defaulted parameter mapping (spec round-trip / cache keys).
    """

    kind: str
    label: str
    description: str
    replay: bool
    num_requests: int
    params: tuple[tuple[str, Any], ...]

    def requests(self, geometry: SSDGeometry) -> Iterator[HostRequest]:
        """Yield the plan's host requests sized to ``geometry``."""
        params = dict(self.params)
        if self.kind == "fio":
            job = FioJob(
                FioPattern(params["pattern"]),
                self.num_requests,
                io_pages=params["io_pages"],
                seed=params["seed"],
                span_fraction=params["span_fraction"],
            )
            return job.requests(geometry)
        if self.kind == "zipf":
            return zipf_reads(
                geometry,
                num_requests=self.num_requests,
                theta=params["theta"],
                io_pages=params["io_pages"],
                seed=params["seed"],
            )
        if self.kind == "hotspot":
            return hotspot_stream(
                geometry,
                num_requests=self.num_requests,
                read_fraction=params["read_fraction"],
                hot_fraction=params["hot_fraction"],
                hot_probability=params["hot_probability"],
                io_pages=params["io_pages"],
                seed=params["seed"],
            )
        if self.kind == "mixed":
            return mixed_stream(
                geometry,
                num_requests=self.num_requests,
                read_fraction=params["read_fraction"],
                io_pages=params["io_pages"],
                seed=params["seed"],
            )
        records = TRACE_PRESETS[params["name"]](self.num_requests)
        return trace_to_requests(records, geometry, time_scale=params["time_scale"])


def _context(spec: Mapping[str, Any]) -> str:
    kind = spec.get("kind", "<missing>")
    return f"workload spec (kind={kind!r})"


def _get(spec: Mapping[str, Any], key: str, default: Any, hint: Any) -> Any:
    """Fetch one optional field and hold it to its declared type
    (:mod:`repro.nand.fields`), naming the key on failure."""
    value = spec.get(key, default)
    check_value(f"{_context(spec)}: field {key!r}", value, hint)
    return value


def build_workload(
    spec: Mapping[str, Any],
    *,
    read_requests: int,
    write_requests: int,
) -> WorkloadPlan:
    """Validate one workload spec dictionary into a :class:`WorkloadPlan`.

    ``read_requests`` / ``write_requests`` supply the default request budget
    (normally from the experiment :class:`~repro.experiments.runner.ScaleSpec`)
    when the spec does not pin ``num_requests`` (or ``num_ios`` for traces).
    Unknown kinds, unknown keys and ill-typed values raise
    :class:`ConfigurationError` naming the offending key.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"workload spec must be a mapping, got {spec!r}")
    kind = spec.get("kind")
    check_value("workload spec field 'kind'", kind, _KIND)
    allowed = set(_KIND_FIELDS[kind]) | {"kind", "label"}
    for key in spec:
        if key not in allowed:
            raise ConfigurationError(
                f"{_context(spec)}: unknown field {key!r}; "
                f"allowed fields: {sorted(allowed)}"
            )
    label = _get(spec, "label", None, NonEmptyStr | None)

    if kind == "fio":
        pattern = _get(spec, "pattern", None, _FIO_PATTERN)
        is_read = FioPattern(pattern).is_read
        budget = read_requests if is_read else write_requests
        params = {
            "pattern": pattern,
            "io_pages": _get(spec, "io_pages", 1, PositiveInt),
            "span_fraction": float(_get(spec, "span_fraction", 1.0, float)),
            "seed": _get(spec, "seed", 42, int),
        }
        num_requests = _get(spec, "num_requests", budget, PositiveInt)
        default_label = pattern
        description = f"fio {pattern} x{num_requests}"
        replay = False
    elif kind == "zipf":
        params = {
            "theta": float(_get(spec, "theta", 0.99, float)),
            "io_pages": _get(spec, "io_pages", 1, PositiveInt),
            "seed": _get(spec, "seed", 23, int),
        }
        num_requests = _get(spec, "num_requests", read_requests, PositiveInt)
        default_label = f"zipf{params['theta']:g}"
        description = f"zipf(theta={params['theta']:g}) reads x{num_requests}"
        replay = False
    elif kind == "hotspot":
        params = {
            "read_fraction": float(_get(spec, "read_fraction", 0.7, float)),
            "hot_fraction": float(_get(spec, "hot_fraction", 0.2, float)),
            "hot_probability": float(_get(spec, "hot_probability", 0.8, float)),
            "io_pages": _get(spec, "io_pages", 1, PositiveInt),
            "seed": _get(spec, "seed", 29, int),
        }
        num_requests = _get(spec, "num_requests", read_requests, PositiveInt)
        default_label = f"hotspot{params['hot_probability']:g}"
        description = (
            f"hotspot mix ({params['hot_probability']:.0%} of I/O on "
            f"{params['hot_fraction']:.0%} of the space) x{num_requests}"
        )
        replay = False
    elif kind == "mixed":
        params = {
            "read_fraction": float(_get(spec, "read_fraction", 0.5, float)),
            "io_pages": _get(spec, "io_pages", 1, PositiveInt),
            "seed": _get(spec, "seed", 17, int),
        }
        num_requests = _get(spec, "num_requests", read_requests, PositiveInt)
        default_label = f"mixed{params['read_fraction']:g}"
        description = f"uniform mix ({params['read_fraction']:.0%} reads) x{num_requests}"
        replay = False
    else:  # trace
        name = _get(spec, "name", None, _TRACE_NAME)
        params = {
            "name": name,
            "time_scale": float(_get(spec, "time_scale", 0.05, PositiveFloat)),
        }
        num_requests = _get(spec, "num_ios", read_requests, PositiveInt)
        default_label = name
        description = f"trace replay of {name} x{num_requests}"
        replay = True

    return WorkloadPlan(
        kind=kind,
        label=label or default_label,
        description=description,
        replay=replay,
        num_requests=num_requests,
        params=tuple(sorted(params.items())),
    )
