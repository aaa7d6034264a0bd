"""Seeded corpus generation and tab-separated corpus files.

A corpus is a list of (utterance, logical form) pairs.  The generator
draws mission lengths from a fixed weighted distribution, fills each
action from a surface template whose wording the default lexicon can
translate back exactly, and joins clauses with connectives.  Same seed,
same registry, same templates: byte-identical output.

File format is one pair per line, ``utterance<TAB>logicalform``, UTF-8,
LF line endings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from seqlang.logical_form import ActionNode, ParamNode, SequenceNode, _Fault, render
from seqlang.registry import ActionRegistry, builtin_registry, validate

# Weighted mission lengths, percent. Short missions dominate.
LENGTH_WEIGHTS = ((1, 30), (2, 25), (3, 15), (4, 10), (5, 8), (6, 7), (7, 5))
_LENGTHS, _WEIGHTS = zip(*LENGTH_WEIGHTS)

# Value pools are deliberately small so output vocabulary stays compact.
NUMBERS = ("0.5", "1", "2", "3.5", "5", "7", "-2.5", "-10")
NOUNS = ("buoy", "marker", "pinger", "wrench", "hammer", "table", "bench", "hull")
SAY_PHRASES = ("hello", "hello there", "mission complete", "all clear", "ready", "task done")

CONNECTIVES = (" then ", " and then ", " after that ", " and ", ", ")

# Every character str.splitlines() ends a line at, so read_tsv's line
# split; CRLF is two of them, and reads as one line end.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class FormatError(_Fault):
    """A corpus line that is not utterance<TAB>logicalform, or whose form does not parse."""

    template = "corpus line {line}: {message}"
    fields = ("line", "message")


class InsufficientSpace(_Fault):
    """The template space cannot supply the requested number of distinct

    pairs (detected by a stall in the rejection loop, not by counting).
    """

    template = "ran out of distinct pairs: requested {requested}, managed {generated}"
    fields = ("requested", "generated")


class TemplateError(ValueError):
    """A template made a logical form that fails strict validation."""


@dataclass(frozen=True)
class CorpusPair:
    """One utterance and its gold logical form; free of tabs and LINE_BREAKS."""

    utterance: str
    logical_form: str

    def __post_init__(self) -> None:
        for label, value in (("utterance", self.utterance), ("logical form", self.logical_form)):
            if not value:
                raise ValueError(f"{label} must be non-empty")
            if any(char in value for char in "\t" + LINE_BREAKS):
                raise ValueError(f"{label} may not contain tabs or line breaks")


@dataclass(frozen=True)
class Corpus:
    """An ordered list of pairs tagged with its split name."""

    pairs: tuple[CorpusPair, ...]
    split: str = "train"

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _gen_move(rng: random.Random) -> tuple[str, ActionNode]:
    # keyword spoken in the utterance, parameter name in the logical form
    axes = (("x", "x"), ("y", "y"), ("z", "z"), ("roll", "roll"), ("pitch", "pitch"), ("yaw", "raw"))
    if rng.random() < 0.08:
        return "move", ActionNode("move")
    count = rng.choice((1, 1, 2, 2, 3))
    picked = sorted(rng.sample(range(len(axes)), count))
    trigger = rng.choice(("move to", "head to", "swim to"))
    words = [trigger]
    params = []
    for index in picked:
        keyword, param = axes[index]
        value = rng.choice(NUMBERS)
        words.append(f"{keyword} {value}")
        params.append(ParamNode(param, 0, value))
    return " ".join(words), ActionNode("move", tuple(params))


# action -> (clause patterns, value pool, parameter); "{}" marks where the
# value goes, and an action with no pool takes no parameter.
_TEMPLATES = {
    "flatten": (("flatten out at {}", "flatten to {}", "level off at {}"), NUMBERS, "num"),
    "say": (("say {}", "announce {}", "broadcast {}"), SAY_PHRASES, "words"),
    "clean": (("clean the {}", "clean up the {}", "wipe down the {}"), NOUNS, "obj"),
    "bring": (("bring me the {}", "fetch the {}", "grab the {}"), NOUNS, "val"),
    "find": (("find the {}", "locate the {}", "look for the {}"), NOUNS, "val"),
    "goal": (("touch the goal", "score a goal", "goal"), (), None),
    "gate": (("go through the gate", "pass the gate", "gate"), (), None),
}


def _fill(
    action: str, patterns: tuple[str, ...], values: tuple[str, ...], param: str | None, rng: random.Random
) -> tuple[str, ActionNode]:
    if not values:
        return rng.choice(patterns), ActionNode(action)
    value = rng.choice(values)
    return rng.choice(patterns).format(value), ActionNode(action, (ParamNode(param, 0, value),))


def default_templates() -> dict[str, Callable[[random.Random], tuple[str, ActionNode]]]:
    """Surface templates for the built-in actions, one callable each.

    Every callable returns (clause text, action node) where the clause is
    exactly what the shipped lexicon translates back into that node.
    """
    return {"move": _gen_move, **{action: partial(_fill, action, *spec) for action, spec in _TEMPLATES.items()}}


# Give up after this many consecutive duplicate draws for one slot.
_STALL_LIMIT = 10_000


def _build_pair(
    rng: random.Random,
    length: int,
    templates: dict[str, Callable[[random.Random], tuple[str, ActionNode]]],
    names: tuple[str, ...],
) -> tuple[CorpusPair, SequenceNode]:
    clauses = []
    actions = []
    for _ in range(length):
        clause, action = templates[rng.choice(names)](rng)
        clauses.append(clause)
        actions.append(action)
    utterance = clauses[0]
    for clause in clauses[1:]:
        utterance += rng.choice(CONNECTIVES) + clause
    tree = SequenceNode(tuple(actions))
    return CorpusPair(utterance, render(tree)), tree


def generate(
    n_train: int,
    n_test: int,
    seed: int,
    registry: ActionRegistry | None = None,
    templates: dict[str, Callable[[random.Random], tuple[str, ActionNode]]] | None = None,
) -> tuple[Corpus, Corpus]:
    """Generate disjoint train and test corpora from one seed.

    No pair (utterance and logical form both equal) appears twice across
    the two splits.  Each split of seven or more pairs starts with one
    mission of every length 1..7 so all lengths are always represented;
    the rest follow LENGTH_WEIGHTS.  Every generated logical form
    strict-validates against the registry, or :class:`TemplateError` is
    raised.  Raises :class:`InsufficientSpace` when the templates cannot
    fill the request with distinct pairs.
    """
    rng = random.Random(seed)
    registry = builtin_registry() if registry is None else registry
    templates = default_templates() if templates is None else templates
    names = tuple(templates)
    seen: set[CorpusPair] = set()

    def fill(count: int, split: str) -> Corpus:
        pairs = []
        for slot in range(count):
            length = slot + 1 if count >= 7 and slot < 7 else rng.choices(_LENGTHS, weights=_WEIGHTS, k=1)[0]
            for _ in range(_STALL_LIMIT):
                pair, tree = _build_pair(rng, length, templates, names)
                if pair not in seen:
                    break
            else:
                raise InsufficientSpace(n_train + n_test, len(seen))
            seen.add(pair)
            # Templates number every parameter 0; the pair's form is renumbered.
            errors = [d for d in validate(tree, registry, "strict") if d.code != "bad-numbering"]
            if errors:
                raise TemplateError(f"template produced invalid form {pair.logical_form!r}: {errors[0]}")
            pairs.append(pair)
        return Corpus(tuple(pairs), split)

    return fill(n_train, "train"), fill(n_test, "test")


def write_tsv(corpus: Corpus) -> str:
    """Serialize to utterance<TAB>logicalform lines, trailing newline."""
    return "".join(f"{pair.utterance}\t{pair.logical_form}\n" for pair in corpus.pairs)


def read_tsv(text: str, split: str = "train") -> Corpus:
    """Parse corpus text; the exact inverse of :func:`write_tsv`.

    Any of ``LINE_BREAKS``, or CRLF, ends a line, so CRLF files read too.
    Raises :class:`FormatError` with a 1-based line number for a line
    whose tab count is not exactly one or whose fields are empty.
    """
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        tabs = line.count("\t")
        if tabs != 1:
            raise FormatError(lineno, f"expected exactly one tab, found {tabs}")
        utterance, logical_form = line.split("\t")
        if not utterance or not logical_form:
            raise FormatError(lineno, "empty field")
        pairs.append(CorpusPair(utterance, logical_form))
    return Corpus(tuple(pairs), split)


def vocab_stats(corpus: Corpus) -> tuple[int, int]:
    """Distinct whitespace-token counts: (utterance side, logical-form side)."""
    input_vocab: set[str] = set()
    output_vocab: set[str] = set()
    for pair in corpus.pairs:
        input_vocab.update(pair.utterance.split())
        output_vocab.update(pair.logical_form.split())
    return len(input_vocab), len(output_vocab)
