"""Deterministic lexicon frontend: command text in, logical form out.

No statistics, no learned weights.  An utterance is tokenized once and
split into clauses on connective phrases; each clause is matched against
verb triggers, and its remaining tokens are mined for parameter values by
per-action cue rules.  Same text, same lexicon, same tree, every time.
README "The lexicon" owns the file format, the entry rules, the tokenizer,
the cue rules and the "and" rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from itertools import accumulate

from seqlang.logical_form import ActionNode, ParamNode, SequenceNode, _action, _Fault, _param, _sequence
from seqlang.registry import ActionRegistry, builtin_registry, config_lines

_Index = dict[str, dict[int, dict[tuple[str, ...], str]]]

NUMBER_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")

# Stripped from token edges, after commas are split off.
_EDGE_PUNCT = "!?.;:"
# Deleted everywhere: parens and quotes, so values stay renderable, and
# the code points XML 1.0 forbids that str.split() does not treat as
# blanks, so every value can go into a mission file.  _tokens deletes the
# rest, U+FFFE, U+FFFF and lone surrogates, without a BMP-wide class.
_DELETED = re.compile(r"[()\[\]\"'\x00-\x08\x0e-\x1b]")

SKIP_WORDS = ("the", "a", "an", "me", "to", "at", "out", "up", "for")

DEFAULT_CONNECTIVES = ("and then", "after that", "then", "and", ",")


class NoVerbMatch(_Fault):
    """A clause with no verb trigger in it (clause_index is zero-based)."""

    fields = ("clause_index", "clause")

    def __str__(self) -> str:
        return f"clause {self.clause_index + 1}: no verb trigger matches '{self.clause}'"


class LexiconError(_Fault):
    """A malformed lexicon file (1-based line number)."""

    template = "lexicon line {line}: {message}"
    fields = ("message", "line")


class _BadEntry(_Fault, ValueError):
    """A lexicon entry refused at construction: ``section`` and ``index``

    name it as a file would (``verbs``, ``params.ACTION``, ``connectives``),
    so that :func:`load_lexicon` can give the entry's line instead.  A
    second cue list for one action is ``params[index]``; a file merges
    its sections for an action into one list, so it never holds one.
    """

    template = "{section}[{index}]: {message}"
    fields = ("section", "index", "message")


@dataclass(frozen=True)
class ParamRule:
    """One cue: where to look in the clause tail and which parameter the

    found value binds to.  kind is "after", "number", or "rest".
    """

    kind: str
    param: str
    keyword: str | None = None

    def __post_init__(self) -> None:
        ParamNode(self.param, 0, self.param)  # the node owns the name rule and its text
        if self.kind not in ("after", "number", "rest"):
            raise ValueError(f"unknown cue kind {self.kind!r} (want 'after', 'number' or 'rest')")
        if self.kind == "after" and (not self.keyword or normalize(self.keyword) != [self.keyword]):
            raise ValueError(f"'after' cue keyword {self.keyword!r} is not normalized lowercase text")


@dataclass(frozen=True)
class Lexicon:
    """Verb triggers, per-action parameter cues, and connective phrases.

    The constructor owns the entry rules README "The lexicon" states, and
    :class:`ParamRule` those of a cue, so :func:`translate` builds its
    nodes unchecked.  A refused entry raises ``ValueError`` naming its
    section and index.  A cue binds its parameter as written: only
    :func:`load_lexicon`, which has a registry, resolves an alias to its
    target, so only a loaded lexicon's output always strict-validates.

    Built once from these: ``cues`` maps an action to its cue list, and
    two indexes of one shape (:func:`_index`) map each trigger phrase to
    its action (``triggers``) and each connective but "and" to itself.
    """

    verbs: tuple[tuple[tuple[str, ...], str], ...]
    params: tuple[tuple[str, tuple[ParamRule, ...]], ...] = ()
    connectives: tuple[str, ...] = DEFAULT_CONNECTIVES
    triggers: _Index = field(init=False, repr=False, compare=False)
    cues: dict[str, tuple[ParamRule, ...]] = field(init=False, repr=False, compare=False)
    splitters: _Index = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        actions: dict[tuple[str, ...], str] = {}
        for i, (phrase, action) in enumerate(self.verbs):
            if not phrase or normalize(" ".join(phrase)) != list(phrase):
                raise _BadEntry("verbs", i, f"trigger {phrase!r} is not normalized lowercase text")
            try:
                SequenceNode((ActionNode(action),))
            except ValueError as exc:
                raise _BadEntry("verbs", i, str(exc)) from None
            if phrase in actions:
                raise _BadEntry("verbs", i, f"duplicate trigger '{' '.join(phrase)}'")
            actions[phrase] = action
        cues: dict[str, tuple[ParamRule, ...]] = {}
        named = {action for _, action in self.verbs}
        for index, (action, rules) in enumerate(self.params):
            if action in cues:
                raise _BadEntry("params", index, f"duplicate cue list for action '{action}'")
            if rules and action not in named:
                raise _BadEntry(f"params.{action}", 0, f"no trigger names action '{action}'")
            cues[action] = rules
        for i, connective in enumerate(self.connectives):
            if not connective or " ".join(_tokens(connective)) != connective:
                raise _BadEntry("connectives", i, f"connective '{connective}' is not normalized lowercase text")
        object.__setattr__(self, "triggers", _index(actions))
        object.__setattr__(self, "cues", cues)
        object.__setattr__(self, "splitters", _index({tuple(c.split()): c for c in self.connectives if c != "and"}))


def _index(phrases: dict[tuple[str, ...], str]) -> _Index:
    """First word -> its phrases' lengths, longest first -> {phrase: value}."""
    index: _Index = {}
    for phrase in sorted(phrases, key=len, reverse=True):
        index.setdefault(phrase[0], {}).setdefault(len(phrase), {})[phrase] = phrases[phrase]
    return index


def _matches(tokens: list[str], index: _Index) -> list[tuple[int, int, str]]:
    """(start, end, value) per phrase of ``index`` in ``tokens``, by start, longest first."""
    found = []
    for start in [i for i, tok in enumerate(tokens) if tok in index]:
        for size, phrases in index[tokens[start]].items():
            value = phrases.get(tuple(tokens[start : start + size]))
            if value is not None:
                found.append((start, start + size, value))
    return found


def _tokens(text: str) -> list[str]:
    """Lowercase, delete what XML forbids, split on whitespace and at each

    comma, keeping it as a token, and shed edge punctuation.  Numbers keep
    their minus signs and decimal points; pure punctuation disappears.
    """
    # Deleting first lets the strip see the edges deletion uncovers; no
    # UTF-8 encoder takes a lone surrogate, so "ignore" deletes those.
    text = _DELETED.sub("", text.lower())
    if not text.isascii():
        text = text.replace("\ufffe", "").replace("\uffff", "").encode("utf-8", "ignore").decode("utf-8")
    cleaned = (tok.strip(_EDGE_PUNCT) for tok in text.replace(",", " , ").split())
    return [tok for tok in cleaned if tok]


def normalize(text: str) -> list[str]:
    """The utterance's tokens without commas: the words triggers and cues

    match.  Idempotent over its own output.
    """
    return [tok for tok in _tokens(text) if tok != ","]


def _clauses(text: str, lexicon: Lexicon) -> list[tuple[list[str], list[str], str]]:
    """(tokens, tail after the winning trigger, its action or ``""``) per

    clause: :func:`_matches` finds the connectives, then, once commas no
    connective takes are dropped, the triggers in each fragment between.
    """
    tokens = _tokens(text)
    fragments = []
    done = 0  # tokens before this are in a fragment or a connective
    for start, end, _ in _matches(tokens, lexicon.splitters):
        if start >= done:
            fragments.append(tokens[done:start])
            done = end
    fragments.append(tokens[done:])
    clauses = []
    for fragment in fragments:
        if "," in fragment:
            fragment = [tok for tok in fragment if tok != ","]
        if not fragment:
            continue
        hits = _matches(fragment, lexicon.triggers)
        # cut at each "and" with a whole hit since the last cut and one after
        # it; latest[e] is the largest start of a hit ending by e, else -1
        cuts = [-1]
        if hits and "and" in fragment and "and" in lexicon.connectives:
            latest = [-1] * (len(fragment) + 1)
            for start, end, _ in hits:
                latest[end] = start
            latest = list(accumulate(latest, max))
            for i in [i for i, tok in enumerate(fragment) if tok == "and"]:
                if latest[i] > cuts[-1] and latest[-1] > i:
                    cuts.append(i)
        cuts.append(len(fragment))
        # longest hit inside a clause wins, leftmost breaks ties; hits across
        # a cut are dropped
        best = [(0, 0, "")] * (len(cuts) - 1)
        k = 0
        for hit in hits:
            while cuts[k + 1] < hit[0]:
                k += 1
            if hit[1] <= cuts[k + 1] and hit[1] - hit[0] > best[k][1] - best[k][0]:
                best[k] = hit
        for k, (_, end, action) in enumerate(best):
            clauses.append((fragment[cuts[k] + 1 : cuts[k + 1]], fragment[end : cuts[k + 1]], action))
    return clauses


def split_clauses(text: str, lexicon: Lexicon) -> list[list[str]]:
    """Clause token lists for an utterance, in order; empty fragments vanish.

    "dive, then say hi" splits the same as "dive then say hi", and so
    does "dive. then! say hi".
    """
    return [clause for clause, _, _ in _clauses(text, lexicon)]


def _extract_params(tail: list[str], rules: tuple[ParamRule, ...]) -> dict[str, str]:
    consumed = [False] * len(tail)
    found: dict[str, str] = {}
    for rule in rules:
        if rule.param in found:
            continue
        if rule.kind == "after":
            for i, tok in enumerate(tail[:-1]):
                if tok == rule.keyword and not consumed[i] and not consumed[i + 1]:
                    consumed[i] = consumed[i + 1] = True
                    found[rule.param] = tail[i + 1]
                    break
        elif rule.kind == "number":
            for i, tok in enumerate(tail):
                if not consumed[i] and NUMBER_RE.match(tok):
                    consumed[i] = True
                    found[rule.param] = tok
                    break
        elif rule.kind == "rest":
            remaining = [tok for i, tok in enumerate(tail) if not consumed[i]]
            start = 0
            while start < len(remaining) and remaining[start] in SKIP_WORDS:
                start += 1
            if start < len(remaining):
                consumed = [True] * len(tail)
                found[rule.param] = " ".join(remaining[start:])
    return found


def translate(
    utterance: str,
    lexicon: Lexicon | None = None,
    registry: ActionRegistry | None = None,
) -> SequenceNode:
    """Translate an utterance into a logical-form tree.

    With a lexicon from :func:`load_lexicon`, the result always strict-validates
    against the registry it was loaded for: every action comes from a verb
    entry, every parameter from a cue rule, parameters sit in the order the
    XML emitter writes them (:meth:`ActionRegistry.param_order`), and
    variables are numbered globally in order.  Untranslatable input raises
    :class:`NoVerbMatch`; nothing else escapes.
    """
    lexicon = default_lexicon() if lexicon is None else lexicon
    registry = builtin_registry() if registry is None else registry
    clauses = _clauses(utterance, lexicon)
    if not clauses:
        raise NoVerbMatch(0, utterance.strip())
    actions: list[ActionNode] = []
    counter = 0
    for index, (clause, tail, action) in enumerate(clauses):
        if not action:
            raise NoVerbMatch(index, " ".join(clause))
        params = _extract_params(tail, lexicon.cues.get(action, ()))
        names = sorted(params, key=registry.param_order(action)) if len(params) > 1 else params
        nodes = tuple(_param(name, counter + k, params[name]) for k, name in enumerate(names))
        actions.append(_action(action, nodes))
        counter += len(nodes)
    return _sequence(tuple(actions))


def load_lexicon(text: str, registry: ActionRegistry) -> Lexicon:
    """Parse lexicon text (format and rules in README "The lexicon").

    Reading checks only the file's own rules: section headers, ``=``
    lines, trigger and cue word counts, and names ``registry`` holds.
    The constructors check each entry, a repeated trigger included.  Any
    fault raises :class:`LexiconError` with its line; the entries read
    before a fault are checked too, so that a refused one among them is
    the one reported.
    """
    verbs: list[tuple[tuple[str, ...], str]] = []
    params: dict[str, list[ParamRule]] = {}
    connectives: list[str] = []
    lines: dict[str, list[int]] = {}  # section -> the line of each of its entries
    saw_connectives = False
    section: str | None = None
    read_all = False
    try:
        for lineno, line in config_lines(text):
            if line.startswith("["):
                if not line.endswith("]"):
                    raise LexiconError(f"unterminated section header {line!r}", lineno)
                section = line[1:-1].strip()
                action = section[len("params.") :]
                saw_connectives = saw_connectives or section == "connectives"
                if section not in ("verbs", "connectives") and not section.startswith("params."):
                    raise LexiconError(f"unknown section [{section}]", lineno)
                if section.startswith("params.") and action not in registry:
                    raise LexiconError(f"[{section}] names unknown action '{action}'", lineno)
                continue
            if section is None:
                raise LexiconError("entry before any section header", lineno)
            lines.setdefault(section, []).append(lineno)
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
                if right not in registry:
                    raise LexiconError(f"unknown action '{right}'", lineno)
                verbs.append((phrase, right))
                continue
            cue = left.split()
            if len(cue) != (2 if cue[0] == "after" else 1):
                raise LexiconError(f"unknown cue '{left}' (want 'after <word>', 'number', or 'rest')", lineno)
            try:
                rule = ParamRule(cue[0], right, *cue[1:])
            except ValueError as exc:
                raise LexiconError(str(exc), lineno) from None
            param = registry.get(action).canonical_param(right)
            if param is None:
                raise LexiconError(f"'{action}' takes no parameter '{right}'", lineno)
            # an alias cue binds its target, so one slot has one name
            params.setdefault(action, []).append(replace(rule, param=param))
        read_all = True
    finally:
        try:
            lexicon = Lexicon(
                verbs=tuple(verbs),
                # a cue list's trigger may lie past a fault; reading checked each cue
                params=tuple((name, tuple(rules)) for name, rules in params.items()) if read_all else (),
                connectives=tuple(connectives) if saw_connectives else DEFAULT_CONNECTIVES,
            )
        except _BadEntry as exc:
            raise LexiconError(exc.message, lines[exc.section][exc.index]) from None
    return lexicon


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package, covering all built-ins."""
    text = resources.files("seqlang").joinpath("data/lexicon.txt").read_text("utf-8")
    return load_lexicon(text, builtin_registry())
