"""One field rule for the configuration dataclasses and workload generators.

``SSDGeometry``, ``FTLConfig``, ``TimingModel``, ``ReplayPlan`` and ``FioJob``
declare each field's type and bound in its annotation (``PositiveInt``,
``Fraction``, ``Annotated[str, one_of(...)]``) and derive from
:class:`Checked`, which holds every field to it when the object is built or
replaced and raises the class's ``field_error`` as ``<field> must be ...,
got <value>``.  A bool is not an int; an int is any integer (NumPy's are
stored as Python ints); a float accepts an int and must be finite; an enum
takes a member or a member's value (stored as the member); ``X | None``
admits ``None``.  A workload generator function declares its keyword-only
parameters the same way; :func:`field_rules` and :func:`field_defaults` read
either kind of declaration.
"""

from __future__ import annotations

import math
import operator
import types
from dataclasses import MISSING, fields, is_dataclass, replace
from enum import EnumMeta
from functools import cache
from inspect import Parameter, signature
from typing import Annotated, Any, Callable, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from repro.nand.errors import ConfigurationError

__all__ = [
    "Bound",
    "Checked",
    "Count",
    "FieldRule",
    "Fraction",
    "NonEmptyStr",
    "NonNegativeFloat",
    "OpenFraction",
    "PositiveFloat",
    "PositiveInt",
    "SpanFraction",
    "as_int",
    "check_value",
    "field_defaults",
    "field_rule",
    "field_rules",
    "one_of",
]


class Bound(NamedTuple):
    """The values a field admits beyond its type: those where ``test`` holds,
    worded as ``text`` in an error message."""

    text: str
    test: Callable[[Any], bool]


def one_of(choices: Any) -> Bound:
    """Bound admitting the members of ``choices``."""
    return Bound(f"one of {sorted(choices)}", choices.__contains__)


PositiveInt = Annotated[int, Bound("positive", lambda value: value > 0)]
Count = Annotated[int, Bound(">= 0", lambda value: value >= 0)]
PositiveFloat = Annotated[float, Bound("positive", lambda value: value > 0)]
NonNegativeFloat = Annotated[float, Bound(">= 0", lambda value: value >= 0)]
Fraction = Annotated[float, Bound("in [0, 1]", lambda value: 0 <= value <= 1)]
OpenFraction = Annotated[float, Bound("in (0, 1)", lambda value: 0 < value < 1)]
SpanFraction = Annotated[float, Bound("in (0, 1]", lambda value: 0 < value <= 1)]
NonEmptyStr = Annotated[str, Bound("non-empty", bool)]


def as_int(value: Any) -> int | None:
    """``value`` as a Python int if it is an integer (NumPy's included), else
    ``None``; a bool (Python's or NumPy's) is not an integer."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


class FieldRule:
    """One declared field: its type ``kind``, whether ``None`` is admitted,
    and its :class:`Bound` (or ``None``)."""

    __slots__ = ("kind", "optional", "bound")

    def __init__(self, hint: Any) -> None:
        options = get_args(hint) if get_origin(hint) in (Union, types.UnionType) else (hint,)
        (hint,) = [option for option in options if option is not type(None)]
        self.optional = len(options) > 1
        self.bound: Bound | None = None
        if get_origin(hint) is Annotated:
            hint, self.bound = get_args(hint)
        elif isinstance(hint, EnumMeta):
            values = [member.value for member in hint]
            self.bound = Bound(
                f"one of {sorted(values)}",
                lambda value: isinstance(value, hint) or value in values,
            )
        self.kind: type = hint

    def type_problem(self, value: Any) -> str | None:
        """``"must be <type>, got <value>"`` if ``value`` has the wrong type, else ``None``."""
        if value is None and self.optional:
            return None
        if self.kind is int:
            ok = as_int(value) is not None
        elif self.kind is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif isinstance(self.kind, EnumMeta):
            ok = True  # the bound names the members
        else:
            ok = isinstance(value, self.kind)
        if ok:
            return None
        wanted = self.kind.__name__ + (" or null" if self.optional else "")
        return f"must be {wanted}, got {value!r}"

    def problem(self, value: Any) -> str | None:
        """What is wrong with ``value`` for this field (type, then finiteness
        and bound) as ``"must be ..., got ..."``; ``None`` if nothing."""
        problem = self.type_problem(value)
        if problem is not None or (value is None and self.optional):
            return problem
        bound = self.bound
        if self.kind is float and not (math.isfinite(value) and (bound is None or bound.test(value))):
            wanted = "finite" if bound is None else f"finite and {bound.text}"
        elif bound is not None and not bound.test(value):
            wanted = bound.text
        else:
            return None
        return f"must be {wanted}, got {value!r}"

    def check(self, name: str, value: Any, error: type[Exception] = ConfigurationError) -> None:
        """Raise ``error("<name> must be ..., got ...")`` if ``value`` has a problem."""
        problem = self.problem(value)
        if problem is not None:
            raise error(f"{name} {problem}")


@cache
def field_rule(hint: Any) -> FieldRule:
    """The :class:`FieldRule` of a resolved annotation (built once per hint)."""
    return FieldRule(hint)


def _declared(target: Callable[..., Any]) -> dict[str, Any]:
    """Each field of a dataclass, or keyword-only parameter of a function, in
    declared order, mapped to its default (``MISSING`` where it has none)."""
    if is_dataclass(target):
        return {spec.name: spec.default for spec in fields(target)}
    return {
        name: MISSING if parameter.default is Parameter.empty else parameter.default
        for name, parameter in signature(target).parameters.items()
        if parameter.kind is Parameter.KEYWORD_ONLY
    }


@cache
def field_rules(target: Callable[..., Any]) -> dict[str, FieldRule]:
    """``{field: FieldRule}`` of a dataclass's fields, or of a function's
    keyword-only parameters, in declared order; the annotations are resolved
    once per target rather than on every construction or call."""
    hints = get_type_hints(target, include_extras=True)
    return {name: field_rule(hints[name]) for name in _declared(target)}


@cache
def field_defaults(target: Callable[..., Any]) -> dict[str, Any]:
    """``{field: default}`` of the declarations :func:`field_rules` reads
    that have a default."""
    return {name: value for name, value in _declared(target).items() if value is not MISSING}


def check_value(
    name: str, value: Any, hint: Any, error: type[Exception] = ConfigurationError
) -> None:
    """Hold a value that is not a dataclass field to a declared type, raising
    ``error("<name> must be ..., got ...")``."""
    field_rule(hint).check(name, value, error)


class Checked:
    """Base of the frozen configuration dataclasses: each field is held to
    its annotation when the object is built or replaced."""

    #: Exception a bad field, or an unknown override name, raises.
    field_error: type[Exception] = ConfigurationError

    def __post_init__(self) -> None:
        for name, rule in field_rules(type(self)).items():
            value = getattr(self, name)
            rule.check(name, value, self.field_error)
            if value is None or type(value) is rule.kind:
                continue
            if rule.kind is int:
                object.__setattr__(self, name, operator.index(value))
            elif isinstance(rule.kind, EnumMeta):
                object.__setattr__(self, name, rule.kind(value))

    @classmethod
    def sweepable_fields(cls) -> dict[str, type]:
        """Every field by name with its declared type: the surface study
        sweeps override, which grows with each field declared."""
        return {name: rule.kind for name, rule in field_rules(cls).items()}

    def with_overrides(self, **overrides: Any) -> Any:
        """Copy with named fields replaced, checked like a new object; an
        unknown name raises ``field_error`` naming it."""
        valid = field_rules(type(self))
        for key in overrides:
            if key not in valid:
                raise self.field_error(
                    f"unknown {type(self).__name__} field {key!r}; valid fields: {list(valid)}"
                )
        return replace(self, **overrides)
