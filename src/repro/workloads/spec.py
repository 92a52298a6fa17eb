"""Construct workloads from declarative spec dictionaries.

The study subsystem (:mod:`repro.studies`) sweeps workloads as one axis of a
scenario grid; each axis value is a plain dictionary like::

    {"kind": "fio", "pattern": "randread"}
    {"kind": "zipf", "theta": 0.99}
    {"kind": "hotspot", "read_fraction": 0.7}
    {"kind": "trace", "name": "websearch1"}

Each kind runs one generator, which is also its declaration: the annotated
fields of :class:`FioJob` and the annotated keyword-only parameters of
:func:`zipf_reads`, :func:`hotspot_stream`, :func:`mixed_stream` and
:func:`preset_requests` are the spec's keys, defaults and bounds (see
:mod:`repro.nand.fields`).  :func:`build_workload` holds a dictionary to them
(an unknown key or a bad value raises
:class:`~repro.nand.errors.ConfigurationError` naming the kind and the key)
and returns a :class:`WorkloadPlan` that can generate the request stream for
any geometry.  Request counts default to the experiment scale's budgets, so a
study spec stays scale-independent unless it pins ``num_requests`` (``num_ios``
for traces) explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Any, Callable, Iterator, Mapping, NamedTuple

from repro.nand.errors import ConfigurationError
from repro.nand.fields import NonEmptyStr, check_value, field_defaults, field_rules, one_of
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import HostRequest
from repro.workloads.fio import FioJob, FioPattern
from repro.workloads.synthetic import hotspot_stream, mixed_stream, zipf_reads
from repro.workloads.traces import preset_requests

__all__ = ["WORKLOAD_KINDS", "WorkloadPlan", "build_workload"]


class _Kind(NamedTuple):
    """How one workload kind is declared, budgeted, labelled and run."""

    #: The generator: a :class:`~repro.nand.fields.Checked` job class whose
    #: ``requests(geometry)`` yields the stream, or a function called as
    #: ``generator(geometry, **parameters)``.
    generator: Callable[..., Any]
    #: Default label and description, formatted with the parameters (and the
    #: request count as ``count``).
    label: str
    description: str
    #: The parameter the scale's request budget fills when a spec omits it.
    count: str = "num_requests"
    #: Whether the budget is the read one, given the other parameters.
    reads: Callable[[Mapping[str, Any]], bool] = lambda params: True
    #: Whether the stream carries arrival times (open-loop replay).
    replay: bool = False


_KINDS: dict[str, _Kind] = {
    "fio": _Kind(
        FioJob,
        "{pattern}",
        "fio {pattern} x{count}",
        reads=lambda params: FioPattern(params["pattern"]).is_read,
    ),
    "zipf": _Kind(zipf_reads, "zipf{theta:g}", "zipf(theta={theta:g}) reads x{count}"),
    "hotspot": _Kind(
        hotspot_stream,
        "hotspot{hot_probability:g}",
        "hotspot mix ({hot_probability:.0%} of I/O on {hot_fraction:.0%} of the space) x{count}",
    ),
    "mixed": _Kind(
        mixed_stream, "mixed{read_fraction:g}", "uniform mix ({read_fraction:.0%} reads) x{count}"
    ),
    "trace": _Kind(
        preset_requests, "{name}", "trace replay of {name} x{count}", count="num_ios", replay=True
    ),
}

#: Workload kinds understood by :func:`build_workload`.
WORKLOAD_KINDS: tuple[str, ...] = tuple(_KINDS)
_KIND_NAME = Annotated[str, one_of(WORKLOAD_KINDS)]


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
        kind = _KINDS[self.kind]
        arguments = {**dict(self.params), kind.count: self.num_requests}
        if isinstance(kind.generator, type):
            return kind.generator(**arguments).requests(geometry)
        return kind.generator(geometry, **arguments)


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
    Unknown kinds, unknown keys and values outside their generator's declared
    type raise :class:`ConfigurationError` naming the kind and the key.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"workload spec must be a mapping, got {spec!r}")
    kind_name = spec.get("kind")
    check_value("workload spec field 'kind'", kind_name, _KIND_NAME)
    kind = _KINDS[kind_name]
    context = f"workload spec (kind={kind_name!r}):"
    rules = field_rules(kind.generator)
    allowed = {*rules, "kind", "label"}
    for key in spec:
        if key not in allowed:
            raise ConfigurationError(
                f"{context} unknown field {key!r}; allowed fields: {sorted(allowed)}"
            )
    label = spec.get("label")
    check_value(f"{context} label", label, NonEmptyStr | None)

    defaults = field_defaults(kind.generator)
    params: dict[str, Any] = {}
    for name, rule in rules.items():
        if name == kind.count:
            continue
        value = spec.get(name, defaults.get(name))
        rule.check(f"{context} {name}", value)
        params[name] = float(value) if rule.kind is float else value
    num_requests = spec.get(kind.count, read_requests if kind.reads(params) else write_requests)
    rules[kind.count].check(f"{context} {kind.count}", num_requests)

    return WorkloadPlan(
        kind=kind_name,
        label=label or kind.label.format(**params),
        description=kind.description.format(**params, count=num_requests),
        replay=kind.replay,
        num_requests=num_requests,
        params=tuple(sorted(params.items())),
    )
