"""Tokenizer, parser, renderer, and their laws."""

import dataclasses
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlang.logical_form import (
    ActionNode,
    BadVariableError,
    EmptyValueError,
    FormSyntaxError,
    InvalidNameError,
    LogicalFormError,
    ParamNode,
    SequenceNode,
    TrailingTokensError,
    _builder,
    parse_logical_form,
    render,
)
from sexpr_oracle import as_sequence, nest, split_tokens
from support import best_of_5_each, bytecode_growth, random_messy_tree, random_tree

FLATTEN_GOAL = "( seq ( flatten ( num ( $0 ( 2 ) ) ) ) ( goal ) )"


def as_shape(tree: SequenceNode):
    """Project a parsed tree onto the oracle's tuple shape."""
    return [
        (a.name, [(p.name, p.var_index, p.value) for p in a.params])
        for a in tree.actions
    ]


# ---------------------------------------------------------------- tokenize


def _say_value(text):
    """The value parsed from ``text`` as the only parameter of a say."""
    tree = parse_logical_form(f"( seq ( say ( words ( $0 ( {text} ) ) ) ) )")
    return tree.actions[0].params[0].value


def test_tokenize_splits_on_blank_runs():
    assert render(parse_logical_form("( seq \t ( goal )\n)")) == "( seq ( goal ) )"
    with pytest.raises(TrailingTokensError) as info:
        parse_logical_form("( seq \t ( goal )\n) x")
    assert (info.value.position, info.value.found) == (6, "x")


def test_tokenize_matches_oracle_on_examples():
    for text in (FLATTEN_GOAL, "( seq )"):
        assert render(parse_logical_form(text)).split(" ") == split_tokens(text)
    for text in ("a(b $0 ((", ""):
        with pytest.raises(FormSyntaxError) as info:
            parse_logical_form(text)
        assert info.value.found == (split_tokens(text) or [None])[0]
    assert _say_value("a(b $0 ((") == " ".join(split_tokens("a(b $0 (("))


def test_tokenize_keeps_glued_parens_opaque():
    assert _say_value("a(b") == "a(b"


def test_tokenize_empty_and_blank():
    for text in ("", " \t\n "):
        with pytest.raises(FormSyntaxError) as info:
            parse_logical_form(text)
        assert (info.value.position, info.value.found) == (0, None)


@given(st.text())
def test_tokenize_never_raises_and_lexemes_are_clean(text):
    try:
        parse_logical_form(text)
    except LogicalFormError as exc:
        tokens = split_tokens(text)
        assert 0 <= exc.position <= len(tokens)
        found = getattr(exc, "found", None)
        if found is not None:
            assert found == tokens[exc.position]
            assert not any(sep in found for sep in (" ", "\t", "\n"))


def test_parser_walks_tokens_and_stops_at_the_end():
    assert parse_logical_form("( seq )") == SequenceNode(())
    for text, position in (("( seq", 2), ("(", 1)):
        with pytest.raises(FormSyntaxError) as info:
            parse_logical_form(text)
        assert (info.value.position, info.value.found) == (position, None)
    with pytest.raises(TrailingTokensError) as info:
        parse_logical_form("( seq ) )")
    assert (info.value.position, info.value.found) == (3, ")")


# ------------------------------------------------------------------- parse


def test_parse_flatten_goal_example():
    tree = parse_logical_form(FLATTEN_GOAL)
    assert tree == SequenceNode(
        (
            ActionNode("flatten", (ParamNode("num", 0, "2"),)),
            ActionNode("goal"),
        )
    )
    assert as_shape(tree) == as_sequence(nest(split_tokens(FLATTEN_GOAL)))


def test_parse_empty_sequence():
    assert parse_logical_form("( seq )") == SequenceNode(())


def test_parse_parameterless_actions():
    tree = parse_logical_form("( seq ( goal ) ( gate ) )")
    assert [a.name for a in tree.actions] == ["goal", "gate"]
    assert all(a.params == () for a in tree.actions)


def test_parse_multi_token_value():
    text = "( seq ( say ( words ( $0 ( hello there ) ) ) ) )"
    tree = parse_logical_form(text)
    assert tree.actions[0].params[0].value == "hello there"
    assert as_shape(tree) == as_sequence(nest(split_tokens(text)))


def test_parse_records_written_variable_indices():
    # the parser keeps whatever indices the text carries; only the
    # validator and renderer care about canonical numbering
    tree = parse_logical_form("( seq ( flatten ( num ( $4 ( 2 ) ) ) ) )")
    assert tree.actions[0].params[0].var_index == 4


def test_parse_accepts_custom_names():
    tree = parse_logical_form("( seq ( warp ( speed ( $0 ( 9.9 ) ) ) ) )")
    assert as_shape(tree) == [("warp", [("speed", 0, "9.9")])]


def test_parse_parameter_standalone():
    tree = parse_logical_form("( seq ( move ( x ( $3 ( -1.5 ) ) ) ) )")
    assert tree.actions[0].params == (ParamNode("x", 3, "-1.5"),)


def test_parse_action_standalone():
    tree = parse_logical_form("( seq ( move ( x ( $0 ( 1.5 ) ) ) ( y ( $1 ( -2 ) ) ) ) )")
    (action,) = tree.actions
    assert action.name == "move"
    assert [(p.name, p.value) for p in action.params] == [("x", "1.5"), ("y", "-2")]


def test_parse_agrees_with_oracle_on_random_trees():
    rng = random.Random(11)
    for _ in range(200):
        text = render(random_messy_tree(rng))
        assert as_shape(parse_logical_form(text)) == as_sequence(nest(split_tokens(text)))


# ------------------------------------------------------------------ errors


@pytest.mark.parametrize(
    "text, error, position",
    [
        ("", FormSyntaxError, 0),
        (")", FormSyntaxError, 0),
        ("seq", FormSyntaxError, 0),
        ("( sequence )", FormSyntaxError, 1),
        ("( seq", FormSyntaxError, 2),
        ("( seq ( goal )", FormSyntaxError, 5),
        ("( seq ( goal (", FormSyntaxError, 5),
        ("( seq ( goal ( x (", FormSyntaxError, 7),
        ("( seq ( seq ) )", FormSyntaxError, 3),
        ("( seq ( seq ( goal ) ) )", FormSyntaxError, 3),
        ("( seq ( goal ) ) )", TrailingTokensError, 6),
        ("( seq ) extra", TrailingTokensError, 3),
        ("( seq ( Goal ) )", InvalidNameError, 3),
        ("( seq ( 2fast ) )", InvalidNameError, 3),
        ("( seq ( $0 ) )", InvalidNameError, 3),
        ("( seq ( say ( Words ( $0 ( hi ) ) ) ) )", InvalidNameError, 5),
        ("( seq ( flatten ( num ( $a ( 2 ) ) ) ) )", BadVariableError, 7),
        ("( seq ( flatten ( num ( $00 ( 2 ) ) ) ) )", BadVariableError, 7),
        ("( seq ( flatten ( num ( $-1 ( 2 ) ) ) ) )", BadVariableError, 7),
        ("( seq ( flatten ( num ( 0 ( 2 ) ) ) ) )", BadVariableError, 7),
        ("( seq ( say ( words ( $0 ( ) ) ) ) )", EmptyValueError, 9),
        ("( seq ( say ( words ( $0 ( a ( b ) ) ) ) ) )", FormSyntaxError, 10),
        ("( seq ( flatten ( num 2 ) ) )", FormSyntaxError, 6),
        ("( seq goal )", FormSyntaxError, 2),
        # seq is a legal parameter name, but never an action name
        ("( seq ( say ( seq ( $0 ( x ) ) ) ) ( seq ) )", FormSyntaxError, 15),
        # a name seen before does not hide a bad one after it
        ("( seq ( say ( words ( $0 ( a ) ) ) ) ( say ( words ( $1 ( b ) ) ) ( Words ( $2 ( c ) ) ) ) )", InvalidNameError, 26),
        ("( seq ( goal ) ( goal ) ( Goal ) )", InvalidNameError, 9),
        ("( seq ( say ( goal ( $0 ( x ) ) ) ) ( goal ) ( 9 ) )", InvalidNameError, 18),
    ],
)
def test_malformed_input_positions(text, error, position):
    with pytest.raises(error) as info:
        parse_logical_form(text)
    assert info.value.position == position
    assert isinstance(info.value, LogicalFormError)
    assert str(info.value)


def test_syntax_error_reports_expected_and_found():
    with pytest.raises(FormSyntaxError) as info:
        parse_logical_form("( seq ( goal )")
    assert info.value.found is None
    assert "end of input" in str(info.value)

    with pytest.raises(FormSyntaxError) as info:
        parse_logical_form("( sequence )")
    assert info.value.expected == "'seq'"
    assert info.value.found == "sequence"

    for text, message in (
        ("( seq ( goal (", "syntax error at token 5: expected a parameter name, found end of input"),
        ("( seq ( goal ( x (", "syntax error at token 7: expected a '$' variable, found end of input"),
    ):
        with pytest.raises(FormSyntaxError) as info:
            parse_logical_form(text)
        assert str(info.value) == message


def test_parse_reports_the_first_token_after_the_sequence():
    with pytest.raises(TrailingTokensError) as info:
        parse_logical_form("( seq ( goal ) ) trailing")
    assert (info.value.position, info.value.found) == (6, "trailing")


# ------------------------------------------------------------------ render


def test_render_flatten_goal_is_canonical():
    assert render(parse_logical_form(FLATTEN_GOAL)) == FLATTEN_GOAL


def test_render_empty_sequence():
    assert render(SequenceNode(())) == "( seq )"


def test_render_renumbers_variables():
    tree = SequenceNode(
        (
            ActionNode("flatten", (ParamNode("num", 9, "2"),)),
            ActionNode("say", (ParamNode("words", 4, "hi"),)),
        )
    )
    assert render(tree) == "( seq ( flatten ( num ( $0 ( 2 ) ) ) ) ( say ( words ( $1 ( hi ) ) ) ) )"


def test_render_normalizes_whitespace_variants():
    assert render(parse_logical_form("(\n seq\t( goal )  )")) == "( seq ( goal ) )"


def test_non_canonical_input_canonicalizes_on_render():
    text = "( seq ( flatten ( num ( $7 ( 2 ) ) ) ) )"
    assert render(parse_logical_form(text)) == "( seq ( flatten ( num ( $0 ( 2 ) ) ) ) )"


# ------------------------------------------------------------- node guards


@pytest.mark.parametrize(
    "build",
    [
        lambda: ParamNode("Num", 0, "2"),
        lambda: ParamNode("num", -1, "2"),
        lambda: ParamNode("num", 0, ""),
        lambda: ParamNode("num", 0, "a  b"),
        lambda: ParamNode("num", 0, " a"),
        lambda: ParamNode("num", 0, "("),
        lambda: ParamNode("num", 0, "a ) b"),
        lambda: ParamNode("num", 0, "a\tb"),
        lambda: ActionNode("Flatten"),
        lambda: ActionNode("3d"),
        lambda: SequenceNode((ActionNode("seq"),)),
    ],
)
def test_node_constructors_reject_unrenderable_values(build):
    with pytest.raises(ValueError):
        build()


def test_nodes_compare_structurally():
    one = parse_logical_form(FLATTEN_GOAL)
    two = parse_logical_form("(  seq ( flatten ( num ( $0 ( 2 ) ) ) )\n( goal ) )")
    assert one == two
    assert hash(one) == hash(two)


# -------------------------------------------------------------- properties

_token_soup = st.lists(
    st.one_of(
        st.sampled_from(["(", ")", "seq", "goal", "move", "x", "num", "$0", "$1", "$a", "2", "-1.5", "hi"]),
        st.text(
            st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=4,
        ),
    ),
    max_size=40,
)

_identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(lambda s: s != "seq")
_value_tokens = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="()"),
    min_size=1,
    max_size=5,
)


def _constructs(value: str) -> bool:
    try:
        ParamNode("words", 0, value)
    except ValueError:
        return False
    return True


# Every code point, surrogates included, and a mix rich in blanks that
# str.split() would split on but the grammar keeps inside a token.
_unicode_values = (
    st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=()), min_size=1)
    | st.text(st.sampled_from("a ()$\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"), min_size=1)
).filter(_constructs)


@st.composite
def trees(draw, values=None):
    n_actions = draw(st.integers(0, 7))
    actions = []
    counter = 0
    for _ in range(n_actions):
        name = draw(_identifiers)
        params = []
        for _ in range(draw(st.integers(0, 3))):
            pname = draw(_identifiers)
            if values is None:
                value = " ".join(draw(st.lists(_value_tokens, min_size=1, max_size=3)))
            else:
                value = draw(values)
            params.append(ParamNode(pname, counter, value))
            counter += 1
        actions.append(ActionNode(name, tuple(params)))
    return SequenceNode(tuple(actions))


@given(trees())
@settings(max_examples=200)
def test_round_trip_tree_to_text_to_tree(tree):
    assert parse_logical_form(render(tree)) == tree


@given(trees(_unicode_values))
@settings(max_examples=300, deadline=None)
def test_round_trip_over_full_unicode_values(tree):
    assert parse_logical_form(render(tree)) == tree


@given(trees(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_round_trip_survives_whitespace_noise(tree, rnd):
    canonical = render(tree)
    noisy = "".join(
        tok + rnd.choice([" ", "  ", "\t", "\n", " \t "])
        for tok in canonical.split(" ")
    )
    assert parse_logical_form(noisy) == tree
    assert render(parse_logical_form(noisy)) == canonical


@given(_token_soup)
@settings(max_examples=300)
def test_parser_is_total_over_token_soup(tokens):
    text = " ".join(tokens)
    try:
        tree = parse_logical_form(text)
    except LogicalFormError:
        return
    assert isinstance(tree, SequenceNode)
    # anything accepted must round trip through its canonical form
    assert parse_logical_form(render(tree)) == tree


def test_render_is_deterministic():
    rng = random.Random(5)
    for _ in range(50):
        tree = random_tree(rng)
        assert render(tree) == render(tree)


def test_parse_time_at_most_triples_when_the_input_doubles():
    tree = random_messy_tree(random.Random(6), 1000, 1000)
    small, large = best_of_5_each(parse_logical_form, render(tree), render(SequenceNode(tree.actions * 2)))
    assert large <= 3 * small


def test_parse_bytecodes_at_most_2_5x_when_the_input_doubles():
    tree = random_messy_tree(random.Random(6), 1000, 1000)
    assert bytecode_growth(parse_logical_form, render(tree), render(SequenceNode(tree.actions * 2))) <= 2.5


# ---------------------------------------------------------------- builders


@dataclasses.dataclass(frozen=True, slots=True)
class _Probe:
    """A frozen slotted class with a defaulted field, as TraceEntry has."""

    first: int
    second: tuple[str, ...]
    flag: bool = False


def test_a_builder_takes_the_fields_in_order_and_makes_what_the_constructor_makes():
    build = _builder(_Probe, "_probe")
    assert list(inspect.signature(build).parameters) == [field.name for field in dataclasses.fields(_Probe)]
    assert build.__name__ == "_probe" and build.twin.__slots__ is _Probe.__slots__
    for args in ((1, ("a",), False), (2, (), True)):
        built, made = build(*args), _Probe(*args)
        assert type(built) is _Probe
        assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.first = 0
