"""The flat logical-form parser agrees with the reference in logical_form_oracle.

Agreement means an equal tree, or, when parsing fails, the same
exception class with equal ``position``, ``expected`` and ``found`` and
the same message.
"""

import operator
import random
from string import ascii_lowercase, digits

from hypothesis import given, settings
from hypothesis import strategies as st

import logical_form_oracle as oracle
from seqlang.dataset import generate
from seqlang.logical_form import LogicalFormError, ParamNode, parse_logical_form, render
from support import random_messy_tree, rebuild

# Every token class the grammar tells apart, plus near misses of each.
SOUP = (
    "(", ")", "seq", "say", "goal", "words", "x", "_x", "Say", "seq2",
    "$0", "$1", "$12", "$01", "$", "$-1", "$x", "hi", "2.5", "a(b", "()", "((", "\r", "\x0b", "é",
)
BLANKS = (" ", "  ", "\t", "\n", " \n\t")


def _outcome(fn, text):
    try:
        return fn(text)
    except LogicalFormError as exc:
        fields = (getattr(exc, name, None) for name in ("position", "expected", "found"))
        return (type(exc), *fields, str(exc))


def assert_agrees(text):
    assert _outcome(parse_logical_form, text) == _outcome(oracle.parse_logical_form, text)


@given(st.lists(st.sampled_from(SOUP), max_size=40), st.randoms(use_true_random=False))
@settings(max_examples=500, deadline=None)
def test_agrees_on_token_soup(tokens, rng):
    assert_agrees("".join(tok + rng.choice(BLANKS) for tok in tokens))


# str.split() would also split on the last eight; the grammar keeps them in tokens.
@given(st.text(st.sampled_from("()$0 \tseqa\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000")))
@settings(max_examples=500, deadline=None)
def test_agrees_on_character_soup(text):
    assert_agrees(text)


def test_agrees_on_the_seed_7_corpus():
    train, _ = generate(2000, 0, seed=7)
    for pair in train.pairs:
        assert_agrees(pair.logical_form)


def identifiers(letters):
    """Words of ``letters``, digits and ``_`` that start with a letter."""
    return st.builds(operator.add, st.sampled_from(letters), st.text(letters + digits + "_", max_size=5))


@st.composite
def shaped_soup(draw):
    """A sequence of well-formed names and variables whose values are

    soup tokens or any text, so that most of the texts parse.
    """
    name = identifiers(ascii_lowercase)
    variable = st.integers(0).map(lambda index: f"${index}")
    tokens = ["(", "seq"]
    for _ in range(draw(st.integers(0, 4))):
        tokens += ["(", draw(name)]
        for _ in range(draw(st.integers(0, 3))):
            value = draw(st.lists(st.sampled_from(SOUP) | st.text(min_size=1, max_size=6), min_size=1, max_size=3))
            tokens += ["(", draw(name), "(", draw(variable), "(", *value, ")", ")", ")"]
        tokens.append(")")
    tokens.append(")")
    return "".join(tok + draw(st.sampled_from(BLANKS)) for tok in tokens)


@given(shaped_soup())
@settings(max_examples=200, deadline=None)
def test_parsed_trees_pass_the_constructor_checks(text):
    try:
        tree = parse_logical_form(text)
    except LogicalFormError:
        return
    assert rebuild(tree) == tree


def _mutate(tokens, rng):
    """One or two token deletions, insertions or replacements."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(tokens) + 1)
        kind = rng.choice(("delete", "insert", "replace"))
        if kind == "insert" or i == len(tokens):
            tokens.insert(i, rng.choice(SOUP))
        elif kind == "delete":
            del tokens[i]
        else:
            tokens[i] = rng.choice(SOUP)
    return tokens


def test_agrees_on_mutated_missions():
    rng = random.Random(5)
    for _ in range(5000):
        tokens = render(random_messy_tree(rng, 1, 12)).split(" ")
        assert_agrees(" ".join(_mutate(tokens, rng)))


def _value_outcome(value):
    try:
        ParamNode("words", 0, value)
    except ValueError:
        return False
    return True


@given(st.text(st.sampled_from("ab() \t\n\r")) | st.text())
@settings(max_examples=400, deadline=None)
def test_param_value_rule_agrees(value):
    assert _value_outcome(value) == oracle.value_ok(value)
