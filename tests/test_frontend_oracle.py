"""The indexed frontend agrees with the reference matcher in frontend_oracle.

Agreement means the same clause token lists from ``split_clauses`` and
the same tree from ``translate``, or, when translation fails, the same
exception type and message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frontend_oracle as oracle
from seqlang.dataset import generate
from seqlang.frontend import Lexicon, NoVerbMatch, ParamRule, default_lexicon, split_clauses, translate
from seqlang.registry import builtin_registry
from support import rebuild

# A rigged lexicon: a trigger that contains "and", a bare "and" trigger,
# and "move to", whose first word alone is no trigger.
RIGGED = Lexicon(
    verbs=(
        (("rock", "and", "roll"), "say"),
        (("and",), "goal"),
        (("dive",), "flatten"),
        (("say",), "say"),
        (("find",), "find"),
        (("move", "to"), "move"),
    ),
    params=(
        ("say", (ParamRule("rest", "words"),)),
        ("find", (ParamRule("number", "val"), ParamRule("rest", "val"))),
        ("move", (ParamRule("after", "x", "x"), ParamRule("after", "yaw", "raw"), ParamRule("after", "raw", "raw"))),
    ),
)

NOUNS = ("wrench", "hammer", "buoy", "bench", "hello", "pinger", "marker", "roll", "rock", "now")
NUMBERS = ("1", "-2.5", "3", "0.25")


def _vocabulary(lexicon):
    words = {token for phrase, _ in lexicon.verbs for token in phrase}
    words.update(token for connective in lexicon.connectives for token in connective.split())
    words.update(rule.keyword for _, rules in lexicon.params for rule in rules if rule.keyword)
    return sorted(words | {"and", *NOUNS, *NUMBERS})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NoVerbMatch as exc:
        return type(exc), str(exc)


def assert_agrees(text, lexicon):
    registry = builtin_registry()
    assert split_clauses(text, lexicon) == oracle.split_clauses(text, lexicon)
    assert _outcome(translate, text, lexicon, registry) == _outcome(oracle.translate, text, lexicon, registry)


def test_agrees_on_the_seed_7_corpus():
    train, _ = generate(2000, 0, seed=7)
    for pair in train.pairs:
        assert_agrees(pair.utterance, default_lexicon())


@pytest.mark.parametrize("lexicon", [default_lexicon(), RIGGED], ids=["shipped", "rigged"])
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_agrees_on_drawn_utterances(lexicon, data):
    words = st.lists(st.sampled_from(_vocabulary(lexicon)), max_size=24)
    assert_agrees(" ".join(data.draw(words)), lexicon)


@pytest.mark.parametrize(
    "text",
    [
        "rock and roll",
        "say hi and rock and roll",
        "and and and",
        "say and find",
        "dive and say hi",
        "say hi and dive",
        "find 3 and move to x 1 yaw 2 raw 3",
        "say 4 and 5",
        "move to, then and",
    ],
)
def test_agrees_on_rigged_edge_cases(text):
    assert_agrees(text, RIGGED)


@pytest.mark.parametrize("lexicon", [default_lexicon(), RIGGED], ids=["shipped", "rigged"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_translated_trees_hold_what_the_node_constructors_allow(lexicon, data):
    # translate builds nodes unchecked; rebuild passes them through the checks
    odd = st.text(max_size=4) | st.text(st.sampled_from("()[]\"' \t\n,.!a1"), max_size=4)
    words = st.lists(st.sampled_from(_vocabulary(lexicon)) | odd, max_size=24)
    text = " ".join(data.draw(words)) if data.draw(st.booleans()) else data.draw(st.text())
    try:
        tree = translate(text, lexicon)
    except NoVerbMatch:
        return
    assert rebuild(tree) == tree
