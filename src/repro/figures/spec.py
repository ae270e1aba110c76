"""The figure-spec registry of the reproduction suite.

Every figure and table of the paper's evaluation is described by one
:class:`FigureSpec`: a declarative record of what the figure claims, which
workloads, systems and sweep axes it exercises, the schema its payload must
satisfy, and the function that actually produces that payload.  Specs register
under a stable id (``"fig04"``, ``"table1"``, ...) through
:func:`register_figure`, exactly like policies register with
:mod:`repro.registry` — the suite runner and the CLI resolve figures purely
by id.

A spec's runner receives a :class:`~repro.figures.context.FigureContext` and
returns a JSON-serializable payload.  Two keys are mandatory in every payload
(they are injected into every declared schema):

* ``"headline"`` — the one-line reproduced metric shown in ``REPRODUCTION.md``;
* ``"checks"`` — a list of ``{"name", "passed", "detail"}`` shape checks, the
  declarative replacement for the assertions the legacy benchmark scripts
  hard-coded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Valid figure ids: ``fig04``, ``fig05_11``, ``table1``, ``fleet_scaling``...
_ID_PATTERN = re.compile(r"^[a-z][a-z0-9_]{1,40}$")

#: Scalar type names allowed in payload schemas.  A trailing ``"?"`` marks the
#: value as optional/nullable (``"number?"`` accepts a float, ``None``, or a
#: missing key).
_SCALAR_TYPES = {
    "str": str,
    "bool": bool,
    "int": int,
    "number": (int, float),
    "any": object,
}

#: Schema entries every payload must provide, regardless of the declared
#: schema (see the module docstring).
IMPLICIT_SCHEMA: Dict[str, Any] = {
    "headline": "str",
    "checks": [{"name": "str", "passed": "bool", "detail": "str"}],
}


@dataclass(frozen=True)
class FigureSpec:
    """One registered paper figure/table reproduction.

    Attributes:
        figure_id: stable registry id (``"fig04"``, ``"table1"``, ...).
        title: human-readable figure title.
        paper_reference: where the figure lives in the paper
            (``"Figure 4 / Table 2"``).
        claim: the paper's finding this figure reproduces, quoted in
            ``REPRODUCTION.md`` next to the reproduced metric.
        runner: callable producing the payload from a ``FigureContext``.
        schema: declarative payload schema (see :func:`validate_payload`);
            the implicit ``headline``/``checks`` entries are always added.
        workloads: evaluation workloads the figure exercises (documentation
            plus bundle prewarming).
        systems: registered policy names the figure runs.
        sweep: named sweep axes and their full-mode values, purely
            declarative (``{"tiers": [...], "cost_ratio": [...]}``).
    """

    figure_id: str
    title: str
    paper_reference: str
    claim: str
    runner: Callable[..., Dict[str, Any]]
    schema: Mapping[str, Any]
    workloads: Tuple[str, ...] = ()
    systems: Tuple[str, ...] = ()
    sweep: Mapping[str, Sequence[Any]] = field(default_factory=dict)

    def run(self, context) -> Dict[str, Any]:
        """Produce the payload and validate it against the spec's schema."""
        payload = self.runner(context)
        problems = validate_payload(payload, self.schema)
        if problems:
            raise ConfigurationError(
                f"figure {self.figure_id!r} produced a payload violating its "
                f"declared schema: {'; '.join(problems)}"
            )
        return payload


_REGISTRY: Dict[str, FigureSpec] = {}


def validate_schema(schema: Any, path: str = "payload") -> List[str]:
    """Problems in a schema declaration itself (empty list when valid).

    A schema is a dict mapping payload keys to either a scalar type name
    (``"str"``, ``"bool"``, ``"int"``, ``"number"``, ``"any"``, each
    optionally suffixed with ``"?"``), a nested schema dict, or a
    single-element list containing the schema of each row.
    """
    problems: List[str] = []
    if not isinstance(schema, Mapping):
        return [f"{path}: schema must be a dict, got {type(schema).__name__}"]
    if not schema:
        return [f"{path}: schema must declare at least one key"]
    for key, value in schema.items():
        if not isinstance(key, str) or not key:
            problems.append(f"{path}: schema keys must be non-empty strings")
            continue
        entry_path = f"{path}.{key}"
        if isinstance(value, str):
            if value.rstrip("?") not in _SCALAR_TYPES:
                problems.append(
                    f"{entry_path}: unknown type {value!r} (expected one of "
                    f"{sorted(_SCALAR_TYPES)}, optionally suffixed with '?')"
                )
        elif isinstance(value, list):
            if len(value) != 1:
                problems.append(
                    f"{entry_path}: list schemas must hold exactly one element schema"
                )
            else:
                problems.extend(_validate_element_schema(value[0], f"{entry_path}[]"))
        elif isinstance(value, Mapping):
            problems.extend(validate_schema(value, entry_path))
        else:
            problems.append(
                f"{entry_path}: schema values must be type names, dicts or "
                f"one-element lists, got {type(value).__name__}"
            )
    return problems


def _validate_element_schema(element: Any, path: str) -> List[str]:
    """Problems in a list-element schema (scalar name, row dict, or list)."""
    if isinstance(element, str):
        if element.rstrip("?") not in _SCALAR_TYPES:
            return [
                f"{path}: unknown type {element!r} (expected one of "
                f"{sorted(_SCALAR_TYPES)}, optionally suffixed with '?')"
            ]
        return []
    if isinstance(element, list):
        if len(element) != 1:
            return [f"{path}: list schemas must hold exactly one element schema"]
        return _validate_element_schema(element[0], f"{path}[]")
    return validate_schema(element, path)


def _validate_value(value: Any, declared: Any, path: str, problems: List[str]) -> None:
    if isinstance(declared, str):
        optional = declared.endswith("?")
        type_name = declared.rstrip("?")
        if value is None:
            if not optional:
                problems.append(f"{path}: required value is None")
            return
        expected = _SCALAR_TYPES[type_name]
        if expected is object:
            return
        if isinstance(value, bool) and type_name in ("int", "number"):
            problems.append(f"{path}: expected {type_name}, got bool")
        elif not isinstance(value, expected):
            problems.append(
                f"{path}: expected {type_name}, got {type(value).__name__}"
            )
    elif isinstance(declared, list):
        if not isinstance(value, list):
            problems.append(f"{path}: expected a list, got {type(value).__name__}")
            return
        for index, item in enumerate(value):
            _validate_value(item, declared[0], f"{path}[{index}]", problems)
    else:  # nested mapping
        if not isinstance(value, Mapping):
            problems.append(f"{path}: expected a dict, got {type(value).__name__}")
            return
        for key, entry in declared.items():
            entry_path = f"{path}.{key}"
            if key not in value:
                if not (isinstance(entry, str) and entry.endswith("?")):
                    problems.append(f"{entry_path}: missing required key")
                continue
            _validate_value(value[key], entry, entry_path, problems)


def validate_payload(payload: Any, schema: Mapping[str, Any]) -> List[str]:
    """Problems of a payload against a declared schema (empty when valid).

    Unknown payload keys are allowed (specs may report more than they
    promise); missing or mistyped declared keys are problems.
    """
    problems: List[str] = []
    _validate_value(payload, dict(schema), "payload", problems)
    return problems


def register_figure(
    figure_id: str,
    *,
    title: str,
    paper_reference: str,
    claim: str,
    schema: Mapping[str, Any],
    workloads: Sequence[str] = (),
    systems: Sequence[str] = (),
    sweep: Optional[Mapping[str, Sequence[Any]]] = None,
) -> Callable[[Callable[..., Dict[str, Any]]], Callable[..., Dict[str, Any]]]:
    """Class/function decorator registering a figure spec under ``figure_id``.

    Rejects duplicate ids, malformed ids, empty claims and invalid schemas at
    registration time, so a broken catalog fails at import rather than at the
    end of a long suite run.  The decorated function is returned unchanged;
    the spec is retrieved with :func:`figure_spec`.
    """
    if not _ID_PATTERN.match(figure_id or ""):
        raise ConfigurationError(
            f"invalid figure id {figure_id!r}: expected lowercase "
            "letters/digits/underscores starting with a letter"
        )
    if figure_id in _REGISTRY:
        raise ConfigurationError(
            f"figure {figure_id!r} is already registered "
            f"({_REGISTRY[figure_id].title!r}); unregister it first"
        )
    if not title or not paper_reference or not claim:
        raise ConfigurationError(
            f"figure {figure_id!r}: title, paper_reference and claim are required"
        )
    if schema is None:
        raise ConfigurationError(f"figure {figure_id!r}: an output schema is required")
    problems = validate_schema(schema)
    if problems:
        raise ConfigurationError(
            f"figure {figure_id!r} declares an invalid schema: {'; '.join(problems)}"
        )

    def decorator(runner: Callable[..., Dict[str, Any]]) -> Callable[..., Dict[str, Any]]:
        full_schema = dict(IMPLICIT_SCHEMA)
        full_schema.update(schema)
        _REGISTRY[figure_id] = FigureSpec(
            figure_id=figure_id,
            title=title,
            paper_reference=paper_reference,
            claim=claim,
            runner=runner,
            schema=full_schema,
            workloads=tuple(workloads),
            systems=tuple(systems),
            sweep=dict(sweep or {}),
        )
        return runner

    return decorator


def unregister_figure(figure_id: str) -> None:
    """Remove a figure from the registry (primarily for tests)."""
    _REGISTRY.pop(figure_id, None)


def figure_names() -> List[str]:
    """All registered figure ids, sorted."""
    return sorted(_REGISTRY)


def figure_spec(figure_id: str) -> FigureSpec:
    """The registered spec for ``figure_id`` (raises on unknown ids)."""
    try:
        return _REGISTRY[figure_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; registered figures: {known}"
        ) from None


def check(name: str, passed: bool, detail: str = "") -> Dict[str, Any]:
    """One entry of a payload's ``checks`` list."""
    return {"name": name, "passed": bool(passed), "detail": str(detail)}
