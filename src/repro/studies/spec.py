"""Declarative study specifications: parse, validate and expand scenario grids.

A *study* sweeps the simulator across named axes and compares the cells of
the resulting cross-product.  The spec is a plain mapping (hand-written YAML
or JSON file, or a Python dict)::

    name: cmt-budget-sweep
    description: CMT budget x FTL on skewed random reads
    warmup: steady                  # none | fill | steady (default steady)
    metric: throughput_mb_s        # primary metric for normalized columns
    axes:
      ftl: [dftl, tpftl, learnedftl]
      config:                       # any FTLConfig knob, by name
        cmt_ratio: [0.01, 0.03, 0.10]
      geometry:                     # optional; default = the scale's geometry
        base: small                 # small | medium | paper
        overrides:
          - {}
          - {chips_per_channel: 4}
      workload:                     # see repro.workloads.spec
        - {kind: fio, pattern: randread}
        - {kind: zipf, theta: 0.99}
      host:
        threads: [8, 64]

Validation is strict: unknown axis names, unknown ``FTLConfig`` knobs,
unknown geometry fields, malformed workload entries and ill-typed values all
raise :class:`~repro.nand.errors.ConfigurationError` naming the offending
key.  :meth:`StudySpec.expand` turns a valid spec into the ordered list of
:class:`StudyCell` values the planner schedules; the order is the
deterministic cross-product order (ftl, config knobs, geometry, workload,
threads), which is also the row order of the merged comparison table.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Any, Mapping, Sequence

from repro.core.base import FTLConfig
from repro.nand.errors import ConfigurationError, ReproError
from repro.nand.fields import NonEmptyStr, PositiveInt, check_value, one_of
from repro.nand.geometry import GeometryPreset, SSDGeometry
from repro.snapshot.warm import WarmupMode
from repro.ssd.device import FtlName, available_ftls
from repro.workloads.spec import build_workload

__all__ = ["StudySpec", "StudyCell", "GeometryChoice", "load_study_file"]

#: Metrics a cell reports; the spec's ``metric`` must be one of these.
CELL_METRICS: tuple[str, ...] = (
    "throughput_mb_s",
    "iops",
    "read_p99_us",
    "read_p999_us",
    "cmt_hit_ratio",
    "model_hit_ratio",
    "write_amplification",
    "gc_count",
    "utilization",
)

#: Metrics where lower is better (tail latency, WA, GC count).
LOWER_IS_BETTER: frozenset[str] = frozenset(
    {"read_p99_us", "read_p999_us", "write_amplification", "gc_count"}
)

_TOP_LEVEL_KEYS = ("name", "description", "axes", "warmup", "metric")
#: Declared types of the spec's scalar keys, held to the config field rule.
_SCALAR_KEYS = {
    "name": NonEmptyStr,
    "description": str,
    "warmup": WarmupMode,
    "metric": Annotated[str, one_of(CELL_METRICS)],
}
_AXIS_KEYS = ("ftl", "config", "geometry", "workload", "host")


def _refused_from(where: str, base: Any, overrides: dict[str, Any]) -> Any:
    """``base.with_overrides(**overrides)``; a refusal becomes a
    :class:`ConfigurationError` that says ``where`` the values came from."""
    try:
        return base.with_overrides(**overrides)
    except ReproError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _value_label(value: Any) -> str:
    """Stable short label for an axis value (``0.1`` and ``0.10`` collapse)."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class GeometryChoice:
    """One value of the geometry axis: a base preset plus field overrides."""

    label: str
    base: str | None
    overrides: tuple[tuple[str, Any], ...] = ()

    def resolve(self, scale_geometry: SSDGeometry) -> SSDGeometry:
        """Materialize the geometry against the running scale's default."""
        geometry = SSDGeometry.preset(self.base) if self.base else scale_geometry
        if not self.overrides:
            return geometry
        return _refused_from(f"geometry axis value {self.label!r}", geometry, dict(self.overrides))


@dataclass(frozen=True)
class StudyCell:
    """One cell of the expanded scenario grid (a single simulator run).

    ``coords`` maps axis name -> value label for every axis (swept or not);
    the planner uses it to locate reference cells when computing per-axis
    normalized columns.  :meth:`payload` renders the cell as the
    JSON-serializable dict the ``studycell`` experiment consumes — canonical
    (sorted keys) so it doubles as the task cache identity.
    """

    label: str
    ftl: str
    config: tuple[tuple[str, Any], ...]
    geometry: GeometryChoice
    workload: tuple[tuple[str, Any], ...]
    threads: int | None
    warmup: str
    coords: tuple[tuple[str, str], ...]

    def payload(self, study_name: str) -> dict[str, Any]:
        """JSON-serializable cell description passed to the cell runner."""
        return {
            "study": study_name,
            "label": self.label,
            "ftl": self.ftl,
            "config": dict(self.config),
            "geometry": {
                "label": self.geometry.label,
                "base": self.geometry.base,
                "overrides": dict(self.geometry.overrides),
            },
            "workload": dict(self.workload),
            "threads": self.threads,
            "warmup": self.warmup,
            # List-of-pairs (not a dict): canonical JSON sorts mapping keys,
            # and the merged table wants columns in axis order.
            "coords": [list(pair) for pair in self.coords],
        }

    def payload_json(self, study_name: str) -> str:
        """Canonical JSON encoding of :meth:`payload` (the task kwarg)."""
        return json.dumps(self.payload(study_name), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class StudySpec:
    """A validated scenario-sweep specification.

    Build one with :meth:`from_dict` (or :func:`load_study_file` for YAML /
    JSON files); direct construction skips validation and is meant for
    internal use.  ``config_axes`` holds ``(knob, values)`` pairs in spec
    order, ``workloads`` the normalized workload spec dicts with their labels.
    """

    name: str
    description: str = ""
    ftls: tuple[str, ...] = ()
    config_axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    geometries: tuple[GeometryChoice, ...] = (GeometryChoice(label="scale", base=None),)
    workloads: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...] = ()
    threads: tuple[int | None, ...] = (None,)
    warmup: str = "steady"
    metric: str = "throughput_mb_s"

    # ------------------------------------------------------------- parsing
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StudySpec":
        """Validate a raw mapping into a spec, naming every offending key."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(f"study spec must be a mapping, got {type(payload).__name__}")
        for key in payload:
            if key not in _TOP_LEVEL_KEYS:
                raise ConfigurationError(
                    f"study spec: unknown top-level key {key!r}; "
                    f"allowed keys: {list(_TOP_LEVEL_KEYS)}"
                )
        name = payload.get("name")
        description = payload.get("description", "")
        warmup = payload.get("warmup", "steady")
        metric = payload.get("metric", "throughput_mb_s")
        for key, value in zip(_SCALAR_KEYS, (name, description, warmup, metric)):
            check_value(f"study spec: key {key!r}", value, _SCALAR_KEYS[key])

        axes = payload.get("axes")
        if not isinstance(axes, Mapping) or not axes:
            raise ConfigurationError("study spec: key 'axes' must be a non-empty mapping")
        for key in axes:
            if key not in _AXIS_KEYS:
                raise ConfigurationError(
                    f"study spec: unknown axis {key!r}; allowed axes: {list(_AXIS_KEYS)}"
                )

        ftls = cls._parse_ftl_axis(axes.get("ftl"))
        config_axes = cls._parse_config_axis(axes.get("config"))
        geometries = cls._parse_geometry_axis(axes.get("geometry"))
        workloads = cls._parse_workload_axis(axes.get("workload"))
        threads = cls._parse_host_axis(axes.get("host"))

        return cls(
            name=name,
            description=description,
            ftls=ftls,
            config_axes=config_axes,
            geometries=geometries,
            workloads=workloads,
            threads=threads,
            warmup=warmup,
            metric=metric,
        )

    @staticmethod
    def _parse_ftl_axis(value: Any) -> tuple[str, ...]:
        known = available_ftls()
        if value is None:
            return known
        if not isinstance(value, Sequence) or isinstance(value, (str, bytes)) or not value:
            raise ConfigurationError("study spec: axis 'ftl' must be a non-empty list of names")
        seen: list[str] = []
        for entry in value:
            check_value("study spec: axis 'ftl' value", entry, FtlName)
            if entry in seen:
                raise ConfigurationError(f"study spec: axis 'ftl' repeats value {entry!r}")
            seen.append(entry)
        return tuple(seen)

    @staticmethod
    def _parse_config_axis(value: Any) -> tuple[tuple[str, tuple[Any, ...]], ...]:
        if value is None:
            return ()
        if not isinstance(value, Mapping):
            raise ConfigurationError(
                "study spec: axis 'config' must map FTLConfig knob names to value lists"
            )
        default = FTLConfig()
        axes: list[tuple[str, tuple[Any, ...]]] = []
        for knob, values in value.items():
            if not isinstance(values, Sequence) or isinstance(values, (str, bytes)) or not values:
                raise ConfigurationError(
                    f"study spec: config knob {knob!r} must list at least one value"
                )
            for item in values:
                # FTLConfig checks both the knob name and the value.
                _refused_from("study spec: axis 'config'", default, {str(knob): item})
            labels = [_value_label(item) for item in values]
            if len(set(labels)) != len(labels):
                raise ConfigurationError(
                    f"study spec: config knob {knob!r} repeats a value in {list(values)}"
                )
            axes.append((str(knob), tuple(values)))
        return tuple(axes)

    @staticmethod
    def _parse_geometry_axis(value: Any) -> tuple[GeometryChoice, ...]:
        if value is None:
            return (GeometryChoice(label="scale", base=None),)
        if not isinstance(value, Mapping):
            raise ConfigurationError(
                "study spec: axis 'geometry' must be a mapping with optional "
                "'base' and 'overrides' keys"
            )
        for key in value:
            if key not in ("base", "overrides"):
                raise ConfigurationError(
                    f"study spec: axis 'geometry' has unknown key {key!r}; "
                    "allowed keys: ['base', 'overrides']"
                )
        base = value.get("base")
        check_value("study spec: geometry base", base, GeometryPreset | None)
        overrides = value.get("overrides", [{}])
        if not isinstance(overrides, Sequence) or isinstance(overrides, (str, bytes)) or not overrides:
            raise ConfigurationError(
                "study spec: geometry 'overrides' must be a non-empty list of mappings"
            )
        # Stand-in base for value validation when the real base is the (yet
        # unknown) scale geometry; the field checks are per-field, so any
        # base exposes exactly the same invalid values.
        probe_base = SSDGeometry.preset(base) if base else SSDGeometry.small()
        choices: list[GeometryChoice] = []
        for entry in overrides:
            if not isinstance(entry, Mapping):
                raise ConfigurationError(
                    f"study spec: geometry override {entry!r} must be a mapping"
                )
            _refused_from(
                f"study spec: geometry override {dict(entry)!r}",
                probe_base,
                {str(key): item for key, item in entry.items()},
            )
            base_label = base or "scale"
            suffix = "+".join(f"{key}={_value_label(item)}" for key, item in entry.items())
            label = f"{base_label}+{suffix}" if suffix else base_label
            choices.append(
                GeometryChoice(label=label, base=base, overrides=tuple(entry.items()))
            )
        labels = [choice.label for choice in choices]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("study spec: geometry axis repeats an override entry")
        return tuple(choices)

    @staticmethod
    def _parse_workload_axis(value: Any) -> tuple[tuple[str, tuple[tuple[str, Any], ...]], ...]:
        if value is None:
            value = [{"kind": "fio", "pattern": "randread"}]
        if not isinstance(value, Sequence) or isinstance(value, (str, bytes)) or not value:
            raise ConfigurationError(
                "study spec: axis 'workload' must be a non-empty list of workload mappings"
            )
        workloads: list[tuple[str, tuple[tuple[str, Any], ...]]] = []
        for entry in value:
            # Budgets are scale-dependent; validation only needs placeholders.
            plan = build_workload(entry, read_requests=1, write_requests=1)
            workloads.append((plan.label, tuple(sorted(entry.items()))))
        labels = [label for label, _ in workloads]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                f"study spec: workload labels must be unique, got {labels}; "
                "set an explicit 'label' field to disambiguate"
            )
        return tuple(workloads)

    @staticmethod
    def _parse_host_axis(value: Any) -> tuple[int | None, ...]:
        if value is None:
            return (None,)
        if not isinstance(value, Mapping):
            raise ConfigurationError("study spec: axis 'host' must be a mapping")
        for key in value:
            if key != "threads":
                raise ConfigurationError(
                    f"study spec: axis 'host' has unknown key {key!r}; allowed keys: ['threads']"
                )
        threads = value.get("threads")
        if (
            not isinstance(threads, Sequence)
            or isinstance(threads, (str, bytes))
            or not threads
        ):
            raise ConfigurationError(
                "study spec: host 'threads' must be a non-empty list of positive integers"
            )
        for item in threads:
            check_value("study spec: host 'threads' value", item, PositiveInt)
        if len(set(threads)) != len(threads):
            raise ConfigurationError("study spec: host 'threads' repeats a value")
        return tuple(threads)

    # ----------------------------------------------------------- round-trip
    def to_dict(self) -> dict[str, Any]:
        """Render the spec back into the mapping format :meth:`from_dict` accepts."""
        axes: dict[str, Any] = {"ftl": list(self.ftls)}
        if self.config_axes:
            axes["config"] = {knob: list(values) for knob, values in self.config_axes}
        if self.geometries != (GeometryChoice(label="scale", base=None),):
            base = self.geometries[0].base
            axes["geometry"] = {
                **({"base": base} if base else {}),
                "overrides": [dict(choice.overrides) for choice in self.geometries],
            }
        axes["workload"] = [dict(entry) for _, entry in self.workloads]
        if self.threads != (None,):
            axes["host"] = {"threads": list(self.threads)}
        return {
            "name": self.name,
            "description": self.description,
            "warmup": self.warmup,
            "metric": self.metric,
            "axes": axes,
        }

    # ------------------------------------------------------------ expansion
    def axis_values(self) -> dict[str, list[str]]:
        """Ordered value labels per axis (including unswept single-value axes)."""
        axes: dict[str, list[str]] = {"ftl": [_value_label(ftl) for ftl in self.ftls]}
        for knob, values in self.config_axes:
            axes[knob] = [_value_label(item) for item in values]
        axes["geometry"] = [choice.label for choice in self.geometries]
        axes["workload"] = [label for label, _ in self.workloads]
        axes["threads"] = [
            "scale" if item is None else _value_label(item) for item in self.threads
        ]
        return axes

    def swept_axes(self) -> list[str]:
        """Names of the axes with more than one value (the comparison axes)."""
        return [axis for axis, values in self.axis_values().items() if len(values) > 1]

    def expand(self) -> list[StudyCell]:
        """Expand the spec into the deterministic cross-product of cells."""
        knob_names = [knob for knob, _ in self.config_axes]
        knob_values = [values for _, values in self.config_axes]
        swept = set(self.swept_axes())
        cells: list[StudyCell] = []
        for ftl, combo, geometry, (workload_label, workload), threads in itertools.product(
            self.ftls,
            itertools.product(*knob_values) if knob_values else [()],
            self.geometries,
            self.workloads,
            self.threads,
        ):
            coords: dict[str, str] = {"ftl": ftl}
            for knob, item in zip(knob_names, combo):
                coords[knob] = _value_label(item)
            coords["geometry"] = geometry.label
            coords["workload"] = workload_label
            coords["threads"] = "scale" if threads is None else _value_label(threads)

            parts = [ftl]
            parts.extend(
                f"{knob}={coords[knob]}" for knob in knob_names if knob in swept
            )
            if "geometry" in swept or geometry.base is not None or geometry.overrides:
                parts.append(coords["geometry"])
            parts.append(workload_label)
            if "threads" in swept or threads is not None:
                parts.append(f"t{threads}" if threads is not None else "tscale")
            cells.append(
                StudyCell(
                    label="/".join(parts),
                    ftl=ftl,
                    config=tuple(zip(knob_names, combo)),
                    geometry=geometry,
                    workload=workload,
                    threads=threads,
                    warmup=self.warmup,
                    coords=tuple(coords.items()),
                )
            )
        return cells


def load_study_file(path: "str | Path") -> StudySpec:
    """Load a study spec from a YAML or JSON file.

    The format is chosen by suffix (``.yaml``/``.yml`` vs ``.json``); YAML
    requires PyYAML and raises :class:`ConfigurationError` when it is not
    installed, so the JSON path keeps working on minimal environments.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read study spec {path}: {exc}") from exc
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - environment-dependent
            raise ConfigurationError(
                f"study spec {path} is YAML but PyYAML is not installed; "
                "convert the spec to JSON or install pyyaml"
            ) from exc
        try:
            payload = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"study spec {path} is not valid YAML: {exc}") from exc
    elif path.suffix == ".json":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"study spec {path} is not valid JSON: {exc}") from exc
    else:
        raise ConfigurationError(
            f"study spec {path} has unsupported suffix {path.suffix!r}; "
            "use .yaml, .yml or .json"
        )
    return StudySpec.from_dict(payload)
