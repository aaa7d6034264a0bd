"""Reference clause splitter and translator used to cross-check the frontend.

This is the frontend's original matcher, kept verbatim: it rescans every
trigger at every start position and splits on "and" by recursion, so it
is quadratic or worse in utterance length, but its rules are written out
in the most direct way.  The library's indexed, single-pass version must
agree with it on every input.

Three rules differ from the original on purpose, each the library's
documented rule:

- in ``_extract_params``, a cue whose parameter is already bound binds
  nothing and consumes nothing;
- in ``split_clauses``, connectives are matched on normalized words,
  with each comma kept as a word of its own, not on raw lowercased
  words, so "then!" is the connective "then".
- in ``_extract_params``, a ``number`` cue takes a token that
  ``float()`` reads as a finite number, not one that matches
  ``-?[0-9]+([.][0-9]+)?``, so it binds ``-.5`` and ``1e3`` but not a
  run of digits that ``float()`` reads as infinite.

Only ``normalize``, the exception type and the registry's parameter
order and alias targets are shared with the library.
"""

from __future__ import annotations

from dataclasses import replace
from math import isfinite

from seqlang.frontend import NoVerbMatch, normalize
from seqlang.logical_form import ActionNode, ParamNode, SequenceNode


def _is_number(token):
    try:
        return isfinite(float(token))
    except ValueError:
        return False


SKIP_WORDS = ("the", "a", "an", "me", "to", "at", "out", "up", "for")


def rules_for(lexicon, action):
    schema = lexicon.registry.get(action)
    for name, rules in lexicon.params:
        if name == action:
            # a cue that names an alias binds its target
            return [replace(rule, param=schema.canonical_param(rule.param)) for rule in rules]
    return ()


def _match_candidates(tokens, lexicon):
    """All trigger hits as (length, start, action), best first."""
    hits = []
    for phrase, action in lexicon.verbs:
        size = len(phrase)
        for start in range(len(tokens) - size + 1):
            if tuple(tokens[start : start + size]) == phrase:
                hits.append((size, start, action))
    hits.sort(key=lambda h: (-h[0], h[1]))
    return hits


def _has_verb(tokens, lexicon):
    return bool(_match_candidates(tokens, lexicon))


def _split_unconditional(tokens, connectives):
    splitters = sorted(
        (tuple(c.split()) for c in connectives if c != "and"), key=len, reverse=True
    )
    clauses = []
    current = []
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


def _split_on_and(tokens, lexicon):
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


def _words_and_commas(text):
    words = []
    for index, piece in enumerate(text.split(",")):
        words += [","] * (index > 0) + normalize(piece)
    return words


def split_clauses(text, lexicon):
    fragments = _split_unconditional(_words_and_commas(text), lexicon.connectives)
    cleaned = []
    for fragment in fragments:
        tokens = normalize(" ".join(fragment))
        if tokens:
            cleaned.append(tokens)
    if "and" not in lexicon.connectives:
        return cleaned
    clauses = []
    for fragment in cleaned:
        clauses.extend(_split_on_and(fragment, lexicon))
    return clauses


def _extract_params(tail, rules):
    consumed = [False] * len(tail)
    found = []
    for rule in rules:
        if any(param == rule.param for param, _ in found):
            continue
        if rule.kind == "after":
            for i, tok in enumerate(tail[:-1]):
                if tok == rule.keyword and not consumed[i] and not consumed[i + 1]:
                    consumed[i] = consumed[i + 1] = True
                    found.append((rule.param, tail[i + 1]))
                    break
        elif rule.kind == "number":
            for i, tok in enumerate(tail):
                if not consumed[i] and _is_number(tok):
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


def _translate_clause(index, tokens, lexicon):
    candidates = _match_candidates(tokens, lexicon)
    if not candidates:
        raise NoVerbMatch(index, " ".join(tokens))
    size, start, action = candidates[0]
    tail = tokens[start + size :]
    return action, _extract_params(tail, rules_for(lexicon, action))


def translate(utterance, lexicon, registry):
    clauses = split_clauses(utterance, lexicon)
    if not clauses:
        raise NoVerbMatch(0, utterance.strip())
    actions = []
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
