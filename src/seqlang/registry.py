"""Action schemas: which actions exist and which parameters they take.

README "Built-in actions" owns the built-in schemas, what :func:`validate`
checks and the registry file format, whose lines :func:`config_lines`
reads.  A registry is immutable once built.  Validation returns
diagnostics instead of raising, so callers can render warnings and count
errors as they see fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite
from typing import Callable, Iterator

from seqlang.logical_form import ActionNode, ParamNode, SequenceNode, _Fault

ERROR = "error"
WARNING = "warning"


class ConfigParseError(_Fault):
    """A malformed registry config line (1-based line number)."""

    template = "registry config line {line}: {message}"
    fields = ("line", "message")


@dataclass(frozen=True)
class Diagnostic:
    """One validation or load finding.

    ``action_index``/``param_index`` locate the finding inside the tree;
    both are None for load-time findings.
    """

    severity: str
    code: str
    message: str
    action_index: int | None = None
    param_index: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.action_index is not None:
            where = f" [action {self.action_index}"
            where += f", param {self.param_index}]" if self.param_index is not None else "]"
        return f"{self.severity}: {self.message}{where}"


def finite_number(value: str) -> float | None:
    """The finite float ``float()`` reads from ``value``, or None: the one
    rule for a number, which the ``number`` cue and the plant both use."""
    try:
        number = float(value)
    except ValueError:
        return None
    return number if isfinite(number) else None


@dataclass(frozen=True)
class ActionSchema:
    """One action's name, parameter names (in canonical order), and any

    alias spellings that address an existing parameter.  ``slots``, built
    once, maps each parameter name and alias to its canonical position; a
    parameter name shadows an alias of the same spelling, and the first
    of two equal aliases wins.
    """

    name: str
    params: tuple[str, ...] = ()
    aliases: tuple[tuple[str, str], ...] = ()
    slots: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the nodes own the name rules and their texts: action, seq, each parameter, then each alias;
        # emit refuses xmlns, which XML readers take for a namespace declaration, so a schema does too
        SequenceNode((ActionNode(self.name),))
        for param in self.params:
            ParamNode(param, 0, param)
            if param == "xmlns":
                raise ValueError(f"parameter 'xmlns' in action '{self.name}' would declare an XML namespace")
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"duplicate parameter names for '{self.name}'")
        slots = {param: slot for slot, param in enumerate(self.params)}
        for alias, target in self.aliases:
            ParamNode(alias, 0, alias)
            if alias == "xmlns":
                raise ValueError(f"parameter 'xmlns' in action '{self.name}' would declare an XML namespace")
            if target not in slots:
                raise ValueError(f"alias {alias!r} targets unknown parameter {target!r}")
            slots.setdefault(alias, slots[target])
        object.__setattr__(self, "slots", slots)

    def canonical_param(self, name: str) -> str | None:
        """Resolve a written parameter name to its schema name, or None."""
        slot = self.slots.get(name)
        return None if slot is None else self.params[slot]


@dataclass(frozen=True)
class ActionRegistry:
    """Immutable set of action schemas plus any load-time warnings.

    ``by_name``, built once, maps each action name to its schema.
    """

    schemas: tuple[ActionSchema, ...]
    warnings: tuple[Diagnostic, ...] = ()
    by_name: dict[str, ActionSchema] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name = {schema.name: schema for schema in self.schemas}
        if len(by_name) != len(self.schemas):
            raise ValueError("duplicate action names in registry")
        object.__setattr__(self, "by_name", by_name)

    def get(self, name: str) -> ActionSchema | None:
        return self.by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def param_order(self, action: str) -> Callable[[str], tuple[int, str]]:
        """Sort key over parameter names giving an action's canonical order:

        schema slot, then name; names outside the schema (or all of them,
        for an unknown action) come last, sorted by name.
        """
        schema = self.by_name.get(action)
        if schema is None:
            return lambda name: (0, name)
        slots, unknown = schema.slots, len(schema.params)
        return lambda name: (slots.get(name, unknown), name)


# raw is the sixth motion axis; yaw addresses the same slot.
BUILTIN_SCHEMAS = (
    ActionSchema("move", ("x", "y", "z", "roll", "pitch", "raw"), (("yaw", "raw"),)),
    ActionSchema("flatten", ("num",)),
    ActionSchema("say", ("words",)),
    ActionSchema("clean", ("obj",)),
    ActionSchema("bring", ("val",)),
    ActionSchema("find", ("val",)),
    ActionSchema("goal", ()),
    ActionSchema("gate", ()),
)


@lru_cache(maxsize=1)
def builtin_registry() -> ActionRegistry:
    """The stock registry with the eight built-in actions, built once."""
    return ActionRegistry(BUILTIN_SCHEMAS)


def config_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based number, text) of each registry or lexicon line left non-blank
    once a ``#`` comment is cut; only LF ends a line, so CR and the other
    line breaks are blanks, or comment text.
    """
    for lineno, raw_line in enumerate(text.split("\n"), 1):
        line = raw_line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_registry(config: str) -> ActionRegistry:
    """Extend the built-ins from config text (see module docstring).

    Redefining any existing action (builtin or an earlier config line)
    replaces its schema and leaves a warning on the returned registry.
    Malformed lines raise :class:`ConfigParseError`.
    """
    # a redefined name keeps its place in the dict, and so in the registry
    schemas = {schema.name: schema for schema in BUILTIN_SCHEMAS}
    warnings: list[Diagnostic] = []
    for lineno, line in config_lines(config):
        name, *params = line.split()
        try:
            schema = ActionSchema(name, tuple(params))
        except ValueError as exc:
            raise ConfigParseError(lineno, str(exc)) from None
        if name in schemas:
            warnings.append(Diagnostic(WARNING, "shadowed-action", f"line {lineno} redefines action '{name}'"))
        schemas[name] = schema
    return ActionRegistry(tuple(schemas.values()), tuple(warnings))


def validate(tree: SequenceNode, registry: ActionRegistry, mode: str = "strict") -> list[Diagnostic]:
    """Check a sequence against a registry; returns findings in tree order.

    Strict mode reports errors for unknown action names, parameter names
    outside the action's schema, two parameters of one action that
    address one schema slot (an alias beside its target, or a name
    written twice), and variable indices that stray from sequence-global
    0, 1, 2, ... numbering.  Lenient mode downgrades the two unknown-name
    checks to warnings; the structural two stay errors.  Parameters a
    schema lists but the tree omits are never flagged.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', not {mode!r}")
    name_severity = ERROR if mode == "strict" else WARNING
    diagnostics: list[Diagnostic] = []
    expected_index = 0
    by_name = registry.by_name
    for ai, action in enumerate(tree.actions):
        schema = by_name.get(action.name)
        if schema is None:
            diagnostics.append(
                Diagnostic(name_severity, "unknown-action", f"unknown action '{action.name}'", ai)
            )
        slots = {} if schema is None else schema.slots
        # a known name is keyed by its slot, an unknown one by itself, so
        # slot is param.name only for a name outside the schema
        seen: set[int | str] = set()
        for pi, param in enumerate(action.params):
            slot = slots.get(param.name, param.name)
            if slot in seen:
                diagnostics.append(
                    Diagnostic(
                        ERROR,
                        "duplicate-param",
                        f"duplicate parameter '{param.name}' in action '{action.name}'",
                        ai,
                        pi,
                    )
                )
            seen.add(slot)
            if schema is not None and slot is param.name:
                diagnostics.append(
                    Diagnostic(
                        name_severity,
                        "unknown-param",
                        f"action '{action.name}' has no parameter '{param.name}'",
                        ai,
                        pi,
                    )
                )
            if param.var_index != expected_index:
                diagnostics.append(
                    Diagnostic(
                        ERROR,
                        "bad-numbering",
                        f"variable index {param.var_index}, expected {expected_index}",
                        ai,
                        pi,
                    )
                )
            expected_index += 1
    return diagnostics
