"""Deterministic lexicon frontend: command text in, logical form out.

No statistics, no learned weights.  An utterance is split into clauses on
connective phrases, each clause is matched against verb triggers (longest
trigger wins, leftmost breaks ties), and the clause's remaining tokens are
mined for parameter values by small per-action cue rules.  Same text, same
lexicon, same tree, every time.

Lexicon file format (``#`` starts a comment anywhere)::

    [verbs]
    move to = move          # trigger phrase (1-3 tokens) = action name

    [params.move]
    after x = x             # cues: "after <word>", "number", "rest"

    [connectives]
    then                    # one connective phrase per line

Cue meanings, applied in written order against the tokens after the
trigger: ``after <word>`` takes the token following the first occurrence
of that word; ``number`` takes the first numeric token; ``rest`` takes
everything not already consumed, minus leading filler words ("the",
"me", ...).  A cue that finds nothing contributes no parameter.

The connective "and" is special: it only splits where every resulting
fragment still contains a verb trigger, so "bring the wrench and the
hammer" stays one clause.  All other connectives split unconditionally,
longest phrase first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from seqlang.logical_form import IDENT_RE, ActionNode, ParamNode, SequenceNode
from seqlang.registry import ActionRegistry, builtin_registry

NUMBER_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")

# Stripped from token edges; parens and quotes are additionally removed
# from token interiors so values stay renderable.
_EDGE_PUNCT = "\"'!?.,;:()[]"
_INNER_PUNCT = str.maketrans("", "", "()[]\"'")

SKIP_WORDS = ("the", "a", "an", "me", "to", "at", "out", "up", "for")

DEFAULT_CONNECTIVES = ("and then", "after that", "then", "and", ",")


class FrontendError(Exception):
    """Base class for translation failures."""


@dataclass(eq=False)
class NoVerbMatch(FrontendError):
    """A clause with no verb trigger in it (clause_index is zero-based)."""

    clause_index: int
    clause: str

    def __str__(self) -> str:
        return f"clause {self.clause_index + 1}: no verb trigger matches '{self.clause}'"


@dataclass(eq=False)
class AmbiguousMatch(FrontendError):
    """Two equally long triggers match at the same position but name

    different actions; only programmatically built lexicons can get here.
    """

    clause_index: int
    clause: str
    actions: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"clause {self.clause_index + 1}: ambiguous triggers "
            f"({', '.join(self.actions)}) in '{self.clause}'"
        )


@dataclass(eq=False)
class LexiconError(Exception):
    """A malformed lexicon file (1-based line number, when known)."""

    message: str
    line: int | None = None

    def __str__(self) -> str:
        if self.line is None:
            return f"lexicon: {self.message}"
        return f"lexicon line {self.line}: {self.message}"


@dataclass(frozen=True)
class ParamRule:
    """One cue: where to look in the clause tail and which parameter the

    found value binds to.  kind is "after", "number", or "rest".
    """

    kind: str
    param: str
    keyword: str | None = None


@dataclass(frozen=True)
class Lexicon:
    """Verb triggers, per-action parameter cues, and connective phrases."""

    verbs: tuple[tuple[tuple[str, ...], str], ...]
    params: tuple[tuple[str, tuple[ParamRule, ...]], ...] = ()
    connectives: tuple[str, ...] = DEFAULT_CONNECTIVES

    def rules_for(self, action: str) -> tuple[ParamRule, ...]:
        for name, rules in self.params:
            if name == action:
                return rules
        return ()


def _clean_token(token: str) -> str:
    return token.strip(_EDGE_PUNCT).translate(_INNER_PUNCT)


def normalize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and shed punctuation.

    Numbers keep their minus signs and decimal points; tokens that were
    pure punctuation disappear.  Idempotent over its own output.
    """
    cleaned = (_clean_token(tok) for tok in text.lower().split())
    return [tok for tok in cleaned if tok]


def _match_candidates(tokens: list[str], lexicon: Lexicon) -> list[tuple[int, int, str]]:
    """All trigger hits as (length, start, action), best first."""
    hits = []
    for phrase, action in lexicon.verbs:
        size = len(phrase)
        for start in range(len(tokens) - size + 1):
            if tuple(tokens[start : start + size]) == phrase:
                hits.append((size, start, action))
    hits.sort(key=lambda h: (-h[0], h[1]))
    return hits


def _has_verb(tokens: list[str], lexicon: Lexicon) -> bool:
    return bool(_match_candidates(tokens, lexicon))


def _split_unconditional(tokens: list[str], connectives: tuple[str, ...]) -> list[list[str]]:
    splitters = sorted(
        (tuple(c.split()) for c in connectives if c != "and"), key=len, reverse=True
    )
    clauses: list[list[str]] = []
    current: list[str] = []
    i = 0
    while i < len(tokens):
        matched = None
        for phrase in splitters:
            if tuple(tokens[i : i + len(phrase)]) == phrase:
                matched = phrase
                break
        if matched:
            if current:
                clauses.append(current)
                current = []
            i += len(matched)
        else:
            current.append(tokens[i])
            i += 1
    if current:
        clauses.append(current)
    return clauses


def _split_on_and(tokens: list[str], lexicon: Lexicon) -> list[list[str]]:
    """Split at "and" only where every fragment keeps a verb trigger."""
    for i, tok in enumerate(tokens):
        if tok != "and" or i == 0 or i == len(tokens) - 1:
            continue
        left, right = tokens[:i], tokens[i + 1 :]
        if not _has_verb(left, lexicon):
            continue
        rest = _split_on_and(right, lexicon)
        if all(_has_verb(fragment, lexicon) for fragment in rest):
            return [left] + rest
    return [tokens]


def split_clauses(text: str, lexicon: Lexicon) -> list[list[str]]:
    """Clause token lists for an utterance, in order.

    Commas are isolated before anything else so "dive, then say hi"
    splits the same as "dive then say hi"; punctuation inside clauses is
    cleaned afterwards.  Empty fragments vanish.
    """
    raw_tokens = text.lower().replace(",", " , ").split()
    fragments = _split_unconditional(raw_tokens, lexicon.connectives)
    cleaned = []
    for fragment in fragments:
        tokens = normalize(" ".join(fragment))
        if tokens:
            cleaned.append(tokens)
    if "and" not in lexicon.connectives:
        return cleaned
    clauses: list[list[str]] = []
    for fragment in cleaned:
        clauses.extend(_split_on_and(fragment, lexicon))
    return clauses


def _extract_params(tail: list[str], rules: tuple[ParamRule, ...]) -> list[tuple[str, str]]:
    consumed = [False] * len(tail)
    found: list[tuple[str, str]] = []
    for rule in rules:
        if rule.kind == "after":
            for i, tok in enumerate(tail[:-1]):
                if tok == rule.keyword and not consumed[i] and not consumed[i + 1]:
                    consumed[i] = consumed[i + 1] = True
                    found.append((rule.param, tail[i + 1]))
                    break
        elif rule.kind == "number":
            for i, tok in enumerate(tail):
                if not consumed[i] and NUMBER_RE.match(tok):
                    consumed[i] = True
                    found.append((rule.param, tok))
                    break
        elif rule.kind == "rest":
            remaining = [tok for i, tok in enumerate(tail) if not consumed[i]]
            while remaining and remaining[0] in SKIP_WORDS:
                remaining.pop(0)
            if remaining:
                consumed = [True] * len(tail)
                found.append((rule.param, " ".join(remaining)))
    return found


def _translate_clause(
    index: int, tokens: list[str], lexicon: Lexicon
) -> tuple[str, list[tuple[str, str]]]:
    candidates = _match_candidates(tokens, lexicon)
    if not candidates:
        raise NoVerbMatch(index, " ".join(tokens))
    size, start, action = candidates[0]
    tied = {c[2] for c in candidates if c[0] == size and c[1] == start}
    if len(tied) > 1:
        raise AmbiguousMatch(index, " ".join(tokens), tuple(sorted(tied)))
    tail = tokens[start + size :]
    return action, _extract_params(tail, lexicon.rules_for(action))


def translate(
    utterance: str,
    lexicon: Lexicon | None = None,
    registry: ActionRegistry | None = None,
) -> SequenceNode:
    """Translate an utterance into a logical-form tree.

    The result always strict-validates against the registry the lexicon
    was loaded for: every action comes from a verb entry, every parameter
    from a cue rule, parameters sit in the order the XML emitter writes
    them (:meth:`ActionRegistry.param_order`), and variables are
    numbered globally in order.  Untranslatable input raises
    :class:`NoVerbMatch` or :class:`AmbiguousMatch`; nothing else escapes.
    """
    lexicon = default_lexicon() if lexicon is None else lexicon
    registry = builtin_registry() if registry is None else registry
    clauses = split_clauses(utterance, lexicon)
    if not clauses:
        raise NoVerbMatch(0, utterance.strip())
    actions: list[ActionNode] = []
    counter = 0
    for index, clause_tokens in enumerate(clauses):
        action_name, params = _translate_clause(index, clause_tokens, lexicon)
        key = registry.param_order(action_name)
        params.sort(key=lambda pair: key(pair[0]))
        nodes = []
        for param_name, value in params:
            nodes.append(ParamNode(param_name, counter, value))
            counter += 1
        actions.append(ActionNode(action_name, tuple(nodes)))
    return SequenceNode(tuple(actions))


def load_lexicon(text: str, registry: ActionRegistry) -> Lexicon:
    """Parse lexicon text (format in the module docstring).

    Every referenced action must exist in ``registry``; triggers must be
    1-3 tokens and unique.  Raises :class:`LexiconError` with the line
    number otherwise.
    """
    verbs: list[tuple[tuple[str, ...], str]] = []
    params: dict[str, list[ParamRule]] = {}
    connectives: list[str] = []
    saw_connectives = False
    section: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise LexiconError(f"unterminated section header {line!r}", lineno)
            section = line[1:-1].strip()
            if section == "connectives":
                saw_connectives = True
            elif section != "verbs" and not section.startswith("params."):
                raise LexiconError(f"unknown section [{section}]", lineno)
            elif section.startswith("params."):
                action = section[len("params.") :]
                if action not in registry:
                    raise LexiconError(f"[{section}] names unknown action '{action}'", lineno)
            continue
        if section is None:
            raise LexiconError("entry before any section header", lineno)
        if section == "connectives":
            connectives.append(line)
            continue
        if "=" not in line:
            raise LexiconError("expected 'left = right'", lineno)
        left, right = (part.strip() for part in line.split("=", 1))
        if not left or not right:
            raise LexiconError("empty side of '='", lineno)
        if section == "verbs":
            phrase = tuple(left.split())
            if not 1 <= len(phrase) <= 3:
                raise LexiconError(f"trigger '{left}' must be 1-3 tokens", lineno)
            if any(p != _clean_token(p) or p != p.lower() for p in phrase):
                raise LexiconError(f"trigger '{left}' is not normalized lowercase text", lineno)
            if right not in registry:
                raise LexiconError(f"unknown action '{right}'", lineno)
            if any(existing == phrase for existing, _ in verbs):
                raise LexiconError(f"duplicate trigger '{left}'", lineno)
            verbs.append((phrase, right))
        else:
            action = section[len("params.") :]
            if not IDENT_RE.match(right):
                raise LexiconError(f"parameter name {right!r} is not a lowercase identifier", lineno)
            cue = left.split()
            if cue == ["number"]:
                rule = ParamRule("number", right)
            elif cue == ["rest"]:
                rule = ParamRule("rest", right)
            elif len(cue) == 2 and cue[0] == "after":
                rule = ParamRule("after", right, cue[1])
            else:
                raise LexiconError(f"unknown cue '{left}' (want 'after <word>', 'number', or 'rest')", lineno)
            params.setdefault(action, []).append(rule)
    return Lexicon(
        verbs=tuple(verbs),
        params=tuple((name, tuple(rules)) for name, rules in params.items()),
        connectives=tuple(connectives) if saw_connectives else DEFAULT_CONNECTIVES,
    )


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package, covering all built-ins."""
    text = resources.files("seqlang").joinpath("data/lexicon.txt").read_text("utf-8")
    return load_lexicon(text, builtin_registry())
