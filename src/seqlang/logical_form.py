"""Parsing and rendering of mission logical forms.

README "The logical form language" owns the grammar, what a token is,
the typed errors and the canonical numbering :func:`render` writes.
:func:`parse_logical_form` is one flat loop that indexes forward over
the token list, with an end-of-input sentinel, one token of lookahead
and no backtracking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
VAR_RE = re.compile(r"\$(0|[1-9][0-9]*)\Z")

RESERVED_HEAD = "seq"


class _Fault(Exception):
    """An error whose text is its class's ``template`` filled from its fields.

    ``fields`` names the constructor's arguments in order; each is kept as
    the attribute of that name, and may be left out where the class sets
    that attribute.  ``args`` holds every field, so a copy rebuilds it.
    """

    fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        rest = self.fields[len(args) :]
        self.__dict__.update(zip(self.fields, args), **kwargs)
        if len(args) > len(self.fields) or not kwargs.keys() <= set(rest) or not all(hasattr(self, n) for n in rest):
            raise TypeError(f"{type(self).__name__}() takes the arguments ({', '.join(self.fields)})")
        self.args = tuple([getattr(self, name) for name in self.fields])

    def __str__(self) -> str:
        return self.template.format_map(vars(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.fields])
        return f"{type(self).__qualname__}({shown})"


class LogicalFormError(_Fault):
    """Base class for every tokenize/parse failure in this module."""


class FormSyntaxError(LogicalFormError):
    """Structural mismatch: the token at ``position`` is not what the

    grammar requires there.  ``found`` is None past the end of input.
    """

    fields = ("position", "expected", "found")

    def __str__(self) -> str:
        found = "end of input" if self.found is None else f"'{self.found}'"
        return f"syntax error at token {self.position}: expected {self.expected}, found {found}"


class TrailingTokensError(LogicalFormError):
    """A complete sequence parsed but unconsumed tokens remain."""

    template = "trailing tokens at token {position}: '{found}'"
    fields = ("position", "found")


class InvalidNameError(LogicalFormError):
    """An action or parameter name that is not a lowercase identifier."""

    template = "invalid name at token {position}: '{found}' (want [a-z][a-z0-9_]*)"
    fields = ("position", "found")


class BadVariableError(LogicalFormError):
    """The variable slot does not hold ``$`` plus a plain decimal index."""

    template = "bad variable at token {position}: '{found}' (want $ followed by a decimal index)"
    fields = ("position", "found")


class EmptyValueError(LogicalFormError):
    """A parameter whose value group closed without a single token."""

    template = "empty parameter value at token {position}"
    fields = ("position",)


def is_param_value(value: object) -> bool:
    """Whether ``value`` may be a :class:`ParamNode` value."""
    # Padded with a space each side, a single-spaced value has no
    # double space, and a paren token shows as " ( " or " ) ".
    padded = f" {value} " if isinstance(value, str) else "  "
    return not ("  " in padded or " ( " in padded or " ) " in padded or "\t" in padded or "\n" in padded)


@dataclass(frozen=True, slots=True)
class ParamNode:
    """One named parameter: ``( name ( $i ( value tokens ) ) )``.

    ``value`` stores the value tokens joined by single spaces; it is
    non-empty and contains no parens, tabs, or newlines, so rendering it
    back into token form is unambiguous.
    """

    name: str
    var_index: int
    value: str

    def __post_init__(self) -> None:
        if not IDENT_RE.match(self.name):
            raise ValueError(f"parameter name {self.name!r} is not a lowercase identifier")
        if not isinstance(self.var_index, int) or self.var_index < 0:
            raise ValueError(f"variable index {self.var_index!r} must be a non-negative int")
        if not is_param_value(self.value):
            raise ValueError(f"parameter value {self.value!r} is not single-spaced paren-free tokens")


@dataclass(frozen=True, slots=True)
class ActionNode:
    """One action invocation with its parameters in written order."""

    name: str
    params: tuple[ParamNode, ...] = ()

    def __post_init__(self) -> None:
        if not IDENT_RE.match(self.name):
            raise ValueError(f"action name {self.name!r} is not a lowercase identifier")
        object.__setattr__(self, "params", tuple(self.params))


@dataclass(frozen=True, slots=True)
class SequenceNode:
    """A whole mission: actions run left to right, no nesting.

    ``seq`` is the grammar's reserved head word, so no action may use it
    as a name; everything else is representable.
    """

    actions: tuple[ActionNode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        for action in self.actions:
            if action.name == RESERVED_HEAD:
                raise ValueError("actions may not be named 'seq'")


def _builder(cls: type, name: str) -> Callable[..., Any]:
    """An unchecked ``cls(...)`` named ``name``, for a frozen slotted dataclass.

    Its parameters are ``cls``'s slots, which are its fields in order; its
    source is written here and compiled, as ``dataclasses`` writes ``__init__``.
    It fills a ``builder.twin`` (``_param``'s is ``_ParamTwin``), a plain class
    with ``cls``'s own ``__slots__``, by plain assignment at slot speed (a frozen
    class's setter call is slower), then makes it a ``cls`` by setting its
    ``__class__``: CPython allows that because both are heap types with the
    same slots and no ``__dict__`` or ``__weakref__``.
    """
    slots = cls.__slots__
    fill = "".join(f"    node.{slot} = {slot}\n" for slot in slots)
    source = f"def {name}({', '.join(slots)}):\n    node = new(twin)\n{fill}    node.__class__ = cls\n    return node\n"
    scope = {"new": object.__new__, "twin": type(f"{name.title()}Twin", (), {"__slots__": slots}), "cls": cls}
    exec(source, scope)
    scope[name].twin = scope["twin"]
    return scope[name]


# Unchecked builders, for the readers and frontend.translate, which have
# already checked all that the constructors check (translate: names in its
# Lexicon, values in _tokens): names match IDENT_RE, indices are ints >= 0,
# values pass is_param_value, no action is named RESERVED_HEAD; tuples throughout.
_param, _action, _sequence = map(_builder, (ParamNode, ActionNode, SequenceNode), ("_param", "_action", "_sequence"))


def parse_logical_form(text: str) -> SequenceNode:
    """Tokenize and parse a complete logical form.

    The whole input must be one sequence; a nested ``seq`` head is
    rejected before reading the action, and anything after the
    sequence's closing paren raises :class:`TrailingTokensError`.  Any
    lowercase identifier is accepted as an action or parameter name;
    whether it is known is the registry's business, not the parser's.
    A parameter's value is every token up to the first close paren; at
    least one is required, and an open paren inside it is an error.
    """
    # A token is a maximal run of anything but space, tab and newline.
    tokens: list[str | None] = list(filter(None, text.replace("\t", " ").replace("\n", " ").split(" ")))
    size = len(tokens)
    # The sentinel reads as "found end of input" wherever the grammar
    # wants a token; no index below runs more than one past a real token.
    tokens.append(None)
    if tokens[0] != "(":
        raise FormSyntaxError(0, "'('", tokens[0])
    if tokens[1] != RESERVED_HEAD:
        raise FormSyntaxError(1, f"'{RESERVED_HEAD}'", tokens[1])
    variable = VAR_RE.match
    # Names that have passed IDENT_RE; seq is one only for a parameter.
    named: set[str] = set()
    actions: list[ActionNode] = []
    i = 2
    while (tok := tokens[i]) != ")":
        if tok != "(":
            raise FormSyntaxError(i, "'(' or ')'", tok)
        name = tokens[i + 1]
        if name == RESERVED_HEAD:
            raise FormSyntaxError(i + 1, "an action name (sequences do not nest)", RESERVED_HEAD)
        if name is None:
            raise FormSyntaxError(i + 1, "an action name", None)
        if name not in named:
            if not IDENT_RE.match(name):
                raise InvalidNameError(i + 1, name)
            named.add(name)
        i += 2
        params: list[ParamNode] = []
        while (tok := tokens[i]) != ")":
            if tok != "(":
                raise FormSyntaxError(i, "'(' or ')'", tok)
            param = tokens[i + 1]
            if param is None:
                raise FormSyntaxError(i + 1, "a parameter name", None)
            if param not in named:
                if not IDENT_RE.match(param):
                    raise InvalidNameError(i + 1, param)
                named.add(param)
            if tokens[i + 2] != "(":
                raise FormSyntaxError(i + 2, "'('", tokens[i + 2])
            var = tokens[i + 3]
            if var is None:
                raise FormSyntaxError(i + 3, "a '$' variable", None)
            if not variable(var):
                raise BadVariableError(i + 3, var)
            if tokens[i + 4] != "(":
                raise FormSyntaxError(i + 4, "'('", tokens[i + 4])
            start = end = i + 5
            while (tok := tokens[end]) != ")":
                if tok is None or tok == "(":
                    raise FormSyntaxError(end, "a value token or ')'", tok)
                end += 1
            if end == start:
                raise EmptyValueError(end)
            if tokens[end + 1] != ")":
                raise FormSyntaxError(end + 1, "')'", tokens[end + 1])
            if tokens[end + 2] != ")":
                raise FormSyntaxError(end + 2, "')'", tokens[end + 2])
            value = tokens[start] if end == start + 1 else " ".join(tokens[start:end])
            params.append(_param(param, int(var[1:]), value))
            i = end + 3
        actions.append(_action(name, tuple(params)))
        i += 1
    if i + 1 < size:
        raise TrailingTokensError(i + 1, tokens[i + 1])
    return _sequence(tuple(actions))


def render(tree: SequenceNode) -> str:
    """Serialize a sequence to its canonical single-line spelling.

    Tokens are joined by single spaces and variables are re-numbered
    0, 1, 2, ... in order of appearance, whatever indices the tree
    carries.
    """
    tokens = ["(", RESERVED_HEAD]
    counter = 0
    for action in tree.actions:
        tokens.append("(")
        tokens.append(action.name)
        for param in action.params:
            tokens.extend(("(", param.name, "(", f"${counter}", "(", param.value, ")", ")", ")"))
            counter += 1
        tokens.append(")")
    tokens.append(")")
    return " ".join(tokens)
