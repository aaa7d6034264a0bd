"""Seeded inputs for the benchmark workloads, with gold outputs.

Every input carries its gold logical form and the trace the mock plant
must produce for it.  The gold comes from the surface templates in
``seqlang.dataset`` and is rendered here by :func:`reference_render`, a
few lines that share no code with ``seqlang.logical_form``, so the code
under test is never its own reference.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from seqlang.dataset import NOUNS, default_templates

# Non-"and" connectives.  Each ends an "and" run, so a clause placed just
# before one may carry a "the X and the Y" value without losing a noun.
BOUNDARIES = (" then ", ", ", " and then ", " after that ")
# Actions whose template ends in "the <noun>" bound by a "rest" cue.
NOUN_ACTIONS = ("bring", "find", "clean")

Action = tuple[str, tuple[tuple[str, str], ...]]


@dataclass(frozen=True)
class Input:
    """One op's input: utterance or logical-form text, and its gold."""

    text: str
    gold: str
    actions: tuple[Action, ...]


def reference_render(actions: tuple[Action, ...]) -> str:
    """The canonical logical-form spelling of (name, params) actions."""
    parts = ["( seq"]
    counter = 0
    for name, params in actions:
        parts.append("( " + name)
        for param, value in params:
            parts.append(f"( {param} ( ${counter} ( {value} ) ) )")
            counter += 1
        parts.append(")")
    parts.append(")")
    return " ".join(parts)


def reference_actions(form: str) -> tuple[Action, ...]:
    """Read a canonical logical form back into (name, params) actions."""
    tokens = form.split()
    if tokens[:2] != ["(", "seq"] or tokens[-1] != ")":
        raise ValueError(f"not a canonical logical form: {form!r}")
    actions = []
    i = 2
    while tokens[i] == "(":
        name, i = tokens[i + 1], i + 2
        params = []
        while tokens[i] == "(":
            close = tokens.index(")", i + 5)
            params.append((tokens[i + 1], " ".join(tokens[i + 5 : close])))
            i = close + 3
        actions.append((name, tuple(params)))
        i += 1
    if i != len(tokens) - 1:
        raise ValueError(f"not a canonical logical form: {form!r}")
    return tuple(actions)


def _as_action(node) -> Action:
    return node.name, tuple((p.name, p.value) for p in node.params)


def _stratified_sizes(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """Log-uniform sizes in [low, high], one per stratum, in random order.

    Stratifying keeps the mean size of a pool nearly the same across
    seeds, so seeds change the inputs but not the amount of work.
    """
    sizes = [round(low * (high / low) ** ((i + rng.random()) / count)) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def corpus_inputs(corpus) -> list[Input]:
    """Inputs from the pairs of a generated corpus."""
    inputs = []
    for pair in corpus:
        actions = reference_actions(pair.logical_form)
        if reference_render(actions) != pair.logical_form:
            raise ValueError(f"generated form is not canonical: {pair.logical_form!r}")
        inputs.append(Input(pair.utterance, pair.logical_form, actions))
    return inputs


def _long_utterance(rng: random.Random, clauses: int) -> Input:
    templates = default_templates()
    names = tuple(templates)
    joins = [rng.choice(BOUNDARIES) if rng.random() < 0.2 else " and " for _ in range(clauses - 1)]
    texts, actions = [], []
    for i in range(clauses):
        ends_and_run = i == clauses - 1 or joins[i] != " and "
        if ends_and_run and rng.random() < 0.5:
            text, node = templates[rng.choice(NOUN_ACTIONS)](rng)
            extra = "".join(" and the " + rng.choice(NOUNS) for _ in range(rng.randint(1, 3)))
            (param, value), = _as_action(node)[1]
            texts.append(text + extra)
            actions.append((node.name, ((param, value + extra),)))
        else:
            text, node = templates[rng.choice(names)](rng)
            texts.append(text)
            actions.append(_as_action(node))
    utterance = texts[0] + "".join(join + text for join, text in zip(joins, texts[1:]))
    actions = tuple(actions)
    return Input(utterance, reference_render(actions), actions)


def long_utterance_inputs(seed: int, count: int, low: int = 8, high: int = 32) -> list[Input]:
    """Utterances of ``low``..``high`` template clauses, mostly joined by "and".

    About one clause in ten carries a "the X and the Y" value, placed only
    where it ends an "and" run, where the frontend keeps it as one clause.
    """
    rng = random.Random(seed)
    return [_long_utterance(rng, n) for n in _stratified_sizes(rng, count, low, high)]


def _mission(rng: random.Random, size: int) -> Input:
    templates = default_templates()
    names = tuple(templates)
    actions = tuple(_as_action(templates[rng.choice(names)](rng)[1]) for _ in range(size))
    form = reference_render(actions)
    return Input(form, form, actions)


def mission_inputs(seed: int, count: int, low: int = 64, high: int = 512) -> list[Input]:
    """Logical forms of ``low``..``high`` template actions, log-uniform."""
    rng = random.Random(seed)
    return [_mission(rng, n) for n in _stratified_sizes(rng, count, low, high)]


def and_chain(seed: int, clauses: int) -> Input:
    """``clauses`` template clauses joined by " and " (size sweep input)."""
    rng = random.Random(seed)
    templates = default_templates()
    names = tuple(templates)
    drawn = [templates[rng.choice(names)](rng) for _ in range(clauses)]
    actions = tuple(_as_action(node) for _, node in drawn)
    return Input(" and ".join(text for text, _ in drawn), reference_render(actions), actions)


def mission_form(seed: int, actions: int) -> str:
    """A logical form of exactly ``actions`` template actions (size sweep input)."""
    return _mission(random.Random(seed), actions).text


def digest(texts) -> str:
    """SHA-256 over texts, each terminated by a NUL byte."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
