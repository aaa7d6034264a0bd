"""Reference logical-form parser used to cross-check the library's.

This is the library's original recursive-descent parser, kept verbatim:
one helper per grammar rule, each taking the token list and an index,
with one token of lookahead and no backtracking.  The library's flat
index loop must agree with it on every input: the same tree, or the
same exception class with the same ``position``, ``expected`` and
``found``.

``value_ok`` is the original ``ParamNode`` value rule, written with
``split`` and a generator, so the library's substring tests can be
checked against it.  Only the node and exception types are shared with
the library.
"""

from __future__ import annotations

import re

from seqlang.logical_form import (
    ActionNode,
    BadVariableError,
    EmptyValueError,
    FormSyntaxError,
    InvalidNameError,
    ParamNode,
    SequenceNode,
    TrailingTokensError,
)

IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
VAR_RE = re.compile(r"\$(0|[1-9][0-9]*)\Z")
# A token is a maximal run of anything but space, tab and newline.
_TOKEN_RE = re.compile(r"[^ \t\n]+")

RESERVED_HEAD = "seq"


def value_ok(value) -> bool:
    pieces = value.split(" ") if isinstance(value, str) else []
    return bool(pieces) and not any(not p or p in ("(", ")") or "\t" in p or "\n" in p for p in pieces)


def _at(tokens: list[str], i: int, expected: str) -> str:
    if i >= len(tokens):
        raise FormSyntaxError(i, expected, None)
    return tokens[i]


def _expect(tokens: list[str], i: int, lexeme: str) -> int:
    """Index just past ``lexeme``, which must be the token at ``i``."""
    tok = _at(tokens, i, f"'{lexeme}'")
    if tok != lexeme:
        raise FormSyntaxError(i, f"'{lexeme}'", tok)
    return i + 1


def _name(tokens: list[str], i: int, expected: str) -> str:
    tok = _at(tokens, i, expected)
    if not IDENT_RE.match(tok):
        raise InvalidNameError(i, tok)
    return tok


def _parse_action(tokens: list[str], i: int) -> tuple[ActionNode, int]:
    """Parse ``( name PARAM* )`` from the open paren at ``i``; returns the

    action and the index just past its closing paren.  Any lowercase
    identifier is accepted as the name; whether it is a known action is
    the registry's business, not the parser's.
    """
    name = _name(tokens, i + 1, "an action name")
    i += 2
    params: list[ParamNode] = []
    while (tok := _at(tokens, i, "'(' or ')'")) != ")":
        if tok != "(":
            raise FormSyntaxError(i, "'(' or ')'", tok)
        param, i = _parse_parameter(tokens, i)
        params.append(param)
    return ActionNode(name, tuple(params)), i + 1


def _parse_parameter(tokens: list[str], i: int) -> tuple[ParamNode, int]:
    """Parse ``( name ( $i ( value+ ) ) )`` from the open paren at ``i``.

    The value is every token up to the first close paren; at least one is
    required, and an open paren inside the value group is an error.
    """
    name = _name(tokens, i + 1, "a parameter name")
    i = _expect(tokens, i + 2, "(")
    var = _at(tokens, i, "a '$' variable")
    match = VAR_RE.match(var)
    if match is None:
        raise BadVariableError(i, var)
    start = end = _expect(tokens, i + 1, "(")
    while (tok := _at(tokens, end, "a value token or ')'")) != ")":
        if tok == "(":
            raise FormSyntaxError(end, "a value token or ')'", tok)
        end += 1
    if end == start:
        raise EmptyValueError(end)
    i = _expect(tokens, end + 1, ")")
    i = _expect(tokens, i, ")")
    return ParamNode(name, int(match.group(1)), " ".join(tokens[start:end])), i


def parse_logical_form(text: str) -> SequenceNode:
    """Tokenize and parse a complete logical form.

    The whole input must be one sequence; a nested ``seq`` head is
    rejected before descending into the action, and anything after the
    sequence's closing paren raises :class:`TrailingTokensError`.
    """
    tokens = _TOKEN_RE.findall(text)
    i = _expect(tokens, 0, "(")
    i = _expect(tokens, i, RESERVED_HEAD)
    actions: list[ActionNode] = []
    while (tok := _at(tokens, i, "'(' or ')'")) != ")":
        if tok != "(":
            raise FormSyntaxError(i, "'(' or ')'", tok)
        if i + 1 < len(tokens) and tokens[i + 1] == RESERVED_HEAD:
            raise FormSyntaxError(i + 1, "an action name (sequences do not nest)", RESERVED_HEAD)
        action, i = _parse_action(tokens, i)
        actions.append(action)
    if i + 1 < len(tokens):
        raise TrailingTokensError(i + 1, tokens[i + 1])
    return SequenceNode(tuple(actions))
