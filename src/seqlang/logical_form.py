"""Parsing and rendering of mission logical forms.

A logical form is a fully parenthesized, space-separated expression
describing one mission: a flat sequence of actions, each carrying named
parameters bound to numbered variables.

    SEQ    := "(" "seq" ACTION* ")"
    ACTION := "(" name PARAM* ")"
    PARAM  := "(" name "(" "$" INT "(" VALUE ")" ")" ")"

``name`` is a lowercase identifier (``[a-z][a-z0-9_]*``), the variable is a
dollar sign glued to a decimal index (``$0``, ``$1``, ...), and VALUE is one
or more arbitrary tokens other than parens.  Space, tab and newline are the
only separators; any other character, carriage return and Unicode blanks
included, is part of a token.  Parens are tokens of their own and must be
separated from their neighbours; there is no escaping, no comments, and
sequences do not nest.

Example::

    ( seq ( flatten ( num ( $0 ( 2 ) ) ) ) ( goal ) )

Parsing is one flat loop that indexes forward over the token list, with
an end-of-input sentinel, one token of lookahead and no backtracking;
the first problem raises a subclass of :class:`LogicalFormError`
carrying the zero-based token position.  :func:`render` goes the other
way and always re-numbers variables 0, 1, 2, ... in order of appearance,
so ``render(parse_logical_form(s))`` is the canonical spelling of ``s``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
VAR_RE = re.compile(r"\$(0|[1-9][0-9]*)\Z")

RESERVED_HEAD = "seq"


class LogicalFormError(Exception):
    """Base class for every tokenize/parse failure in this module."""


@dataclass(eq=False)
class FormSyntaxError(LogicalFormError):
    """Structural mismatch: the token at ``position`` is not what the

    grammar requires there.  ``found`` is None past the end of input.
    """

    position: int
    expected: str
    found: str | None

    def __str__(self) -> str:
        found = "end of input" if self.found is None else f"'{self.found}'"
        return f"syntax error at token {self.position}: expected {self.expected}, found {found}"


@dataclass(eq=False)
class TrailingTokensError(LogicalFormError):
    """A complete sequence parsed but unconsumed tokens remain."""

    position: int
    found: str

    def __str__(self) -> str:
        return f"trailing tokens at token {self.position}: '{self.found}'"


@dataclass(eq=False)
class InvalidNameError(LogicalFormError):
    """An action or parameter name that is not a lowercase identifier."""

    position: int
    found: str

    def __str__(self) -> str:
        return f"invalid name at token {self.position}: '{self.found}' (want [a-z][a-z0-9_]*)"


@dataclass(eq=False)
class BadVariableError(LogicalFormError):
    """The variable slot does not hold ``$`` plus a plain decimal index."""

    position: int
    found: str

    def __str__(self) -> str:
        return f"bad variable at token {self.position}: '{self.found}' (want $ followed by a decimal index)"


@dataclass(eq=False)
class EmptyValueError(LogicalFormError):
    """A parameter whose value group closed without a single token."""

    position: int

    def __str__(self) -> str:
        return f"empty parameter value at token {self.position}"


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

    def __init__(self, name: str, var_index: int, value: str) -> None:
        if not IDENT_RE.match(name):
            raise ValueError(f"parameter name {name!r} is not a lowercase identifier")
        if not isinstance(var_index, int) or var_index < 0:
            raise ValueError(f"variable index {var_index!r} must be a non-negative int")
        if not is_param_value(value):
            raise ValueError(f"parameter value {value!r} is not single-spaced paren-free tokens")
        _set_param_name(self, name)
        _set_param_index(self, var_index)
        _set_param_value(self, value)


@dataclass(frozen=True, slots=True)
class ActionNode:
    """One action invocation with its parameters in written order."""

    name: str
    params: tuple[ParamNode, ...] = ()

    def __init__(self, name: str, params: tuple[ParamNode, ...] = ()) -> None:
        if not IDENT_RE.match(name):
            raise ValueError(f"action name {name!r} is not a lowercase identifier")
        _set_action_name(self, name)
        _set_action_params(self, params if type(params) is tuple else tuple(params))


@dataclass(frozen=True, slots=True)
class SequenceNode:
    """A whole mission: actions run left to right, no nesting.

    ``seq`` is the grammar's reserved head word, so no action may use it
    as a name; everything else is representable.
    """

    actions: tuple[ActionNode, ...] = ()

    def __init__(self, actions: tuple[ActionNode, ...] = ()) -> None:
        if type(actions) is not tuple:
            actions = tuple(actions)
        for action in actions:
            if action.name == RESERVED_HEAD:
                raise ValueError("actions may not be named 'seq'")
        _set_actions(self, actions)


# Frozen dataclasses forbid plain assignment; the node __init__s store
# fields through these slot setters.
_set_param_name = ParamNode.name.__set__
_set_param_index = ParamNode.var_index.__set__
_set_param_value = ParamNode.value.__set__
_set_action_name = ActionNode.name.__set__
_set_action_params = ActionNode.params.__set__
_set_actions = SequenceNode.actions.__set__


# Unchecked builders, for the readers and frontend.translate, which have
# already checked all that the constructors check (translate: names in its
# Lexicon, values in _tokens): names match IDENT_RE, indices are ints >= 0,
# values pass is_param_value, no action is named RESERVED_HEAD; tuples throughout.
# Each fills a twin, a plain class with its node class's own __slots__, by
# plain assignment at slot speed (a setter call is slower), then makes it
# the node class: CPython allows that __class__ assignment because both are
# heap types with the same slots and no __dict__ or __weakref__.
_ParamTwin = type("_ParamTwin", (), {"__slots__": ParamNode.__slots__})
_ActionTwin = type("_ActionTwin", (), {"__slots__": ActionNode.__slots__})
_SequenceTwin = type("_SequenceTwin", (), {"__slots__": SequenceNode.__slots__})


def _param(name: str, var_index: int, value: str) -> ParamNode:
    node = object.__new__(_ParamTwin)
    node.name = name
    node.var_index = var_index
    node.value = value
    node.__class__ = ParamNode
    return node


def _action(name: str, params: tuple[ParamNode, ...]) -> ActionNode:
    node = object.__new__(_ActionTwin)
    node.name = name
    node.params = params
    node.__class__ = ActionNode
    return node


def _sequence(actions: tuple[ActionNode, ...]) -> SequenceNode:
    node = object.__new__(_SequenceTwin)
    node.actions = actions
    node.__class__ = SequenceNode
    return node


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
