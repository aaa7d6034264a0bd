"""Normalization, clause splitting, verb matching, and translation."""

import re
import string
import sys
from itertools import dropwhile
from math import isfinite

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqlang.frontend import (
    DEFAULT_CONNECTIVES,
    SKIP_WORDS,
    Lexicon,
    LexiconError,
    NoVerbMatch,
    ParamRule,
    default_lexicon,
    load_lexicon,
    normalize,
    split_clauses,
    translate,
)
from seqlang.frontend import _tokens
from seqlang.btxml import emit, parse_bt_xml
from seqlang.dataset import LINE_BREAKS
from seqlang.logical_form import RESERVED_HEAD, ActionNode, ParamNode, SequenceNode, parse_logical_form, render
from seqlang.registry import ActionRegistry, ActionSchema, ConfigParseError, builtin_registry, load_registry, validate
from support import best_of_5_each, bytecode_growth, rebuild
from test_btxml import IDENTS
from test_frontend_oracle import NOUNS, NUMBERS, RIGGED, _vocabulary


def lf(text):
    return render(translate(text))


# --------------------------------------------------------------- normalize


def test_normalize_strips_punctuation_and_case():
    assert normalize("Say 'hello'!") == ["say", "hello"]


def test_normalize_keeps_numbers_intact():
    assert normalize("Move to 1.5, 2") == ["move", "to", "1.5", "2"]
    assert normalize("dive to -2.5 now.") == ["dive", "to", "-2.5", "now"]


def test_normalize_drops_pure_punctuation_tokens():
    assert normalize("!! ??! ...") == []


def test_normalize_removes_interior_brackets():
    assert normalize("he(llo wor)ld") == ["hello", "world"]


def test_normalize_is_idempotent():
    for text in ("Say 'hello'!", "Move to 1.5, 2", "GO, go, GO!"):
        once = normalize(text)
        assert normalize(" ".join(once)) == once


_ANY_CHAR = st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=())
# Code points XML 1.0 forbids, and the ones str.split() treats as blanks.
_FORBIDDEN = re.compile("[^\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]|\\s")
# Edge punctuation next to characters normalize deletes, and blanks.
_TRICKY = st.sampled_from("aB1.!(\"' \t\x00\x01\x08\x0b\x0e\x1b\x1c\x7f\x85\xa0\ud800\udfff\ufffe\uffff\u0130")


@given(st.text(_ANY_CHAR) | st.text(_TRICKY))
@settings(max_examples=400, deadline=None)
def test_normalize_is_idempotent_over_any_text(text):
    once = normalize(text)
    assert normalize(" ".join(once)) == once
    assert all(tok and not _FORBIDDEN.search(tok) for tok in once)


def test_normalize_splits_at_inner_commas():
    # translate has always seen "a,b" as "a , b"; normalize now says so too
    assert normalize("a,b") == ["a", "b"]
    assert normalize("1,5, go") == ["1", "5", "go"]


def _readme_deletes(char):
    """README "The lexicon": brackets and quotes, and what XML 1.0 forbids

    that is no blank to str.split(), are deleted wherever they are.
    """
    return (
        char in "()[]\"'\ufffe\uffff"
        or "\x00" <= char <= "\x08"
        or "\x0e" <= char <= "\x1b"
        or "\ud800" <= char <= "\udfff"
    )


def test_normalize_deletes_characters_xml_forbids():
    assert normalize("Say a\x01b\x1b!\x00 c\ud800\uffff") == ["say", "ab", "c"]
    # every code point, inside a word: deleted, a split, or kept lowercased
    for start in range(0, 0x110000, 0x1000):
        chars = [chr(code) for code in range(start, start + 0x1000)]
        expected = []
        for char in chars:
            if _readme_deletes(char):
                expected.append("ab")
            elif char == "," or not char.split():
                expected.extend(("a", "b"))
            else:
                expected.append(f"a{char}b".lower())
        assert normalize(" ".join(f"a{char}b" for char in chars)) == expected, hex(start)


def _readme_tokens(text):
    """Tokens by README "The lexicon", rule by rule: lowercase, then delete,

    then split and strip.
    """
    # lowercased first: str.lower() reads context (a final sigma), so it sees
    # the characters deletion takes out
    text = text.lower()
    text = "".join(char for char in text if not _readme_deletes(char))
    # split on str.split() blanks and at every comma, each comma a token
    tokens = []
    for word in text.split():
        for k, piece in enumerate(word.split(",")):
            tokens.extend((",", piece) if k else (piece,))
    # each token sheds !?.;: at its edges; a token of nothing else is dropped
    return [token for token in (token.strip("!?.;:") for token in tokens) if token]


# Deleted characters beside edge punctuation, commas, blanks and a sigma.
_TOKEN_CHARS = st.sampled_from("aΣ,.!?;:()[]\"' \t\x00\x08\x0b\x1b\x1c\x85\u2028\ud800\udfff\ufffe\uffff\u0130")


@given(st.text(_ANY_CHAR) | st.text(_TOKEN_CHARS))
@settings(max_examples=1000, deadline=None)
def test_the_tokenizer_follows_the_readme_paragraph(text):
    assert _tokens(text) == _readme_tokens(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        # deletion uncovers the edge the strip then sheds
        ("say 'hi.'", ["say", "hi"]),
        # a final sigma before a deleted quote stays final
        ('ΑΣ"Β', ["αςβ"]),
        ("a,,b;, c", ["a", ",", ",", "b", ",", "c"]),
    ],
    ids=["delete-then-strip", "final-sigma", "commas"],
)
def test_the_tokenizer_readme_examples(text, expected):
    assert _tokens(text) == expected == _readme_tokens(text)


def test_utterance_carries_normalized_view():
    assert normalize("Find the  BUOY!") == ["find", "the", "buoy"]
    assert lf("Find the  BUOY!") == lf("find the buoy")


# --------------------------------------------------------------- translate


def test_translate_the_gate_example():
    assert lf("go through the gate") == "( seq ( gate ) )"


def test_translate_flatten_with_number():
    assert lf("flatten out at 2") == "( seq ( flatten ( num ( $0 ( 2 ) ) ) ) )"


def test_translate_two_clauses_numbers_globally():
    assert lf("say hello then find the buoy") == (
        "( seq ( say ( words ( $0 ( hello ) ) ) ) ( find ( val ( $1 ( buoy ) ) ) ) )"
    )


def test_translate_move_axes_in_schema_order():
    assert lf("move to x 1.5 y -2") == (
        "( seq ( move ( x ( $0 ( 1.5 ) ) ) ( y ( $1 ( -2 ) ) ) ) )"
    )
    # spoken order does not matter, schema order wins
    assert lf("move to y -2 x 1.5") == lf("move to x 1.5 y -2")


def test_translate_yaw_binds_the_raw_param():
    assert lf("head to yaw 5") == "( seq ( move ( raw ( $0 ( 5 ) ) ) ) )"


def test_translate_bare_move_has_no_params():
    assert lf("move") == "( seq ( move ) )"
    assert lf("move to x") == "( seq ( move ) )"


def test_translate_skips_leading_filler_in_rest_values():
    assert lf("bring me the wrench") == "( seq ( bring ( val ( $0 ( wrench ) ) ) ) )"
    assert lf("clean up the bench") == "( seq ( clean ( obj ( $0 ( bench ) ) ) ) )"
    assert lf("look for the pinger") == "( seq ( find ( val ( $0 ( pinger ) ) ) ) )"


def test_translate_longest_trigger_wins():
    # "goal" alone also matches, but the three-token trigger is longer
    assert lf("score a goal") == "( seq ( goal ) )"
    assert lf("level off at 1") == "( seq ( flatten ( num ( $0 ( 1 ) ) ) ) )"


def test_translate_leftmost_trigger_breaks_length_ties():
    # "gate" appears later in the clause but "say" matches first
    assert lf("say gate is open") == "( seq ( say ( words ( $0 ( gate is open ) ) ) ) )"


@pytest.mark.parametrize(
    "text, expected_clauses",
    [
        ("say hi then touch the goal", 2),
        ("say hi and then touch the goal", 2),
        ("say hi after that touch the goal", 2),
        ("say hi, touch the goal", 2),
        ("say hi, then touch the goal", 2),
    ],
)
def test_translate_connective_spellings(text, expected_clauses):
    tree = translate(text)
    assert len(tree.actions) == expected_clauses
    assert tree.actions[0].name == "say"
    assert tree.actions[-1].name == "goal"


@pytest.mark.parametrize("connective", DEFAULT_CONNECTIVES)
@pytest.mark.parametrize("spelling", ["{}!", '"{}"', "{}.", "({});"], ids=["bang", "quoted", "stop", "parens"])
def test_connectives_with_punctuation_split_like_bare_ones(connective, spelling):
    # words are stripped of punctuation before connectives are matched
    tree = translate(f"say hi {spelling.format(connective)} say ho")
    assert tree == translate(f"say hi {connective} say ho")
    assert [p.value for a in tree.actions for p in a.params] == ["hi", "ho"]


def test_and_splits_only_between_parseable_clauses():
    two = translate("bring me the wrench and flatten out at 2")
    assert [a.name for a in two.actions] == ["bring", "flatten"]

    one = translate("bring me the wrench and the hammer")
    assert [a.name for a in one.actions] == ["bring"]
    assert one.actions[0].params[0].value == "wrench and the hammer"


def test_translate_seven_clause_missions():
    text = " then ".join(
        [
            "move to x 1",
            "flatten out at 2",
            "say hello",
            "clean the table",
            "bring me the hammer",
            "find the marker",
            "go through the gate",
        ]
    )
    tree = translate(text)
    assert len(tree.actions) == 7
    indices = [p.var_index for a in tree.actions for p in a.params]
    assert indices == list(range(len(indices)))


def test_translate_is_compositional_over_then():
    left = translate("say hello")
    right = translate("find the buoy")
    joined = translate("say hello then find the buoy")
    assert render(joined) == render(SequenceNode(left.actions + right.actions))


def _renumbered(tree, offset):
    return tuple(
        ActionNode(a.name, tuple(ParamNode(p.name, p.var_index + offset, p.value) for p in a.params))
        for a in tree.actions
    )


_SHIPPED = default_lexicon()
# the shipped lexicon's whole triggers, cue words and values
_CLAUSE_WORDS = sorted(
    {" ".join(phrase) for phrase, _ in _SHIPPED.verbs}
    | {rule.keyword for _, rules in _SHIPPED.params for rule in rules if rule.keyword}
    | {*NOUNS, *NUMBERS}
)
_CONNECTIVE_TOKENS = {token for connective in _SHIPPED.connectives for token in _tokens(connective)}


@pytest.mark.parametrize("connective", [" then ", " and then ", " after that ", ", "])
@given(st.lists(st.sampled_from(_CLAUSE_WORDS), max_size=6), st.lists(st.sampled_from(_CLAUSE_WORDS), max_size=6))
@settings(max_examples=200, deadline=None)
def test_translate_is_compositional_over_unconditional_connectives(connective, left, right):
    a, b = " ".join(left), " ".join(right)
    assume(_CONNECTIVE_TOKENS.isdisjoint(_tokens(a)) and _CONNECTIVE_TOKENS.isdisjoint(_tokens(b)))
    try:
        first, second = translate(a), translate(b)
    except NoVerbMatch:
        assume(False)
    offset = sum(len(action.params) for action in first.actions)
    assert translate(a + connective + b) == SequenceNode(first.actions + _renumbered(second, offset))


# single words of the shipped lexicon, and every blank str.split() splits on
_WORDS = sorted({word for phrase in _CLAUSE_WORDS for word in phrase.split()} | _CONNECTIVE_TOKENS)
_SPLIT_BLANKS = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


# The tree, or the failing clause's index and text.  With no clause at all,
# only the index: that error reports the utterance's own stripped text.
def _tree_or_miss(text, lexicon=_SHIPPED):
    try:
        return translate(text, lexicon)
    except NoVerbMatch as exc:
        return exc.clause_index, (exc.clause if split_clauses(text, lexicon) else None)


@given(st.data(), st.lists(st.sampled_from(_WORDS), max_size=10))
@settings(max_examples=200, deadline=None)
def test_translate_is_invariant_under_blank_runs(data, words):
    blanks = st.text(st.sampled_from(_SPLIT_BLANKS), min_size=1, max_size=3)
    ends = st.text(st.sampled_from(_SPLIT_BLANKS), max_size=3)
    runs = [data.draw(ends), *[data.draw(blanks) for _ in words[1:]]]
    spaced = "".join(run + word for run, word in zip(runs, words)) + data.draw(ends)
    assert _tree_or_miss(spaced) == _tree_or_miss(" ".join(words))


@given(st.data(), st.lists(st.sampled_from(_WORDS), max_size=10))
@settings(max_examples=200, deadline=None)
def test_translate_is_invariant_under_ascii_case(data, words):
    text = " ".join(words)
    flips = data.draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    swapped = "".join(c.swapcase() if flip and c in string.ascii_letters else c for c, flip in zip(text, flips))
    assert _tree_or_miss(swapped) == _tree_or_miss(text)


# RIGGED's words hold "rock and roll" and a bare "and" trigger, so the
# "and" rule sees triggers the shipped lexicon lacks
_RIGGED_WORDS = _vocabulary(RIGGED)


@given(st.data(), st.lists(st.sampled_from(_RIGGED_WORDS), max_size=10))
@settings(max_examples=200, deadline=None)
def test_translate_over_a_rigged_lexicon_is_invariant_under_blank_runs(data, words):
    blanks = st.text(st.sampled_from(_SPLIT_BLANKS), min_size=1, max_size=3)
    ends = st.text(st.sampled_from(_SPLIT_BLANKS), max_size=3)
    runs = [data.draw(ends), *[data.draw(blanks) for _ in words[1:]]]
    spaced = "".join(run + word for run, word in zip(runs, words)) + data.draw(ends)
    assert _tree_or_miss(spaced, RIGGED) == _tree_or_miss(" ".join(words), RIGGED)


@given(st.data(), st.lists(st.sampled_from(_RIGGED_WORDS), max_size=10))
@settings(max_examples=200, deadline=None)
def test_translate_over_a_rigged_lexicon_is_invariant_under_ascii_case(data, words):
    text = " ".join(words)
    flips = data.draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    swapped = "".join(c.swapcase() if flip and c in string.ascii_letters else c for c, flip in zip(text, flips))
    assert _tree_or_miss(swapped, RIGGED) == _tree_or_miss(text, RIGGED)


def test_translate_accepts_plain_text():
    assert render(translate("goal")) == "( seq ( goal ) )"


def test_translate_orders_params_like_emit():
    # the CLI's path: the shipped lexicon, and a registry that redefines
    # move with fewer parameters; x and raw are outside its schema, so
    # they come last, by name
    registry = load_registry("move z pitch y\n")
    tree = translate("move to x 1 y 2 z 3 yaw 4 pitch 5", default_lexicon(), registry)
    assert [p.name for p in tree.actions[0].params] == ["z", "pitch", "y", "raw", "x"]
    assert render(tree) == render(parse_bt_xml(emit(tree, registry)))


def test_translate_output_always_strict_validates():
    registry = builtin_registry()
    for text in (
        "go through the gate",
        "move to x 1.5 y -2 yaw 3 then say all clear",
        "flatten out at 2, find the buoy, score a goal",
    ):
        tree = translate(text)
        assert validate(tree, registry, "strict") == []


def test_a_cue_for_a_bound_parameter_binds_nothing():
    # "after yaw" and "after raw" both bind raw; the first cue wins and
    # the second leaves "raw 3" unconsumed
    tree = translate("move to yaw 2 raw 3")
    assert validate(tree, builtin_registry(), "strict") == []
    assert [(p.name, p.value) for p in tree.actions[0].params] == [("raw", "2")]


def test_a_lexicon_built_in_code_binds_an_alias_as_written():
    # a registry where raw and yaw are two parameters, not a name and its alias
    registry = ActionRegistry((ActionSchema("move", ("raw", "yaw")),))
    cues = (ParamRule("after", "raw", "raw"), ParamRule("after", "yaw", "yaw"))
    tree = translate("move raw 1 yaw 2", Lexicon(((("move",), "move"),), (("move", cues),), registry=registry))
    assert [(p.name, p.value) for p in tree.actions[0].params] == [("raw", "1"), ("yaw", "2")]
    assert validate(tree, registry, "strict") == []


def test_a_lexicon_built_in_code_binds_an_alias_to_its_target():
    # under the built-ins yaw is raw's alias, as in a file: raw binds first,
    # so the yaw cue finds its parameter bound and binds nothing
    cues = (ParamRule("after", "raw", "raw"), ParamRule("after", "yaw", "yaw"))
    lexicon = Lexicon(((("move",), "move"),), (("move", cues),))
    assert lexicon.cues["move"] == (ParamRule("after", "raw", "raw"), ParamRule("after", "raw", "yaw"))
    tree = translate("move raw 1 yaw 2", lexicon)
    assert render(tree) == "( seq ( move ( raw ( $0 ( 1 ) ) ) ) )"
    assert validate(tree, builtin_registry(), "strict") == []


def test_no_verb_match_names_the_clause():
    with pytest.raises(NoVerbMatch) as info:
        translate("say hi then do a barrel roll")
    assert info.value.clause_index == 1
    assert "clause 2" in str(info.value)


@pytest.mark.parametrize("text", ["", "   ", "!!!", "the quick brown fox"])
def test_untranslatable_text_raises_no_verb_match(text):
    with pytest.raises(NoVerbMatch):
        translate(text)


# A trigger names one action, so no clause can tie between two.
@pytest.mark.parametrize("second", ["move", "flatten"], ids=["same-action", "other-action"])
def test_a_lexicon_refuses_a_repeated_trigger(second):
    verbs = ((("dive", "in"), "move"), (("dive",), "move"), (("dive", "in"), second))
    with pytest.raises(ValueError) as info:
        Lexicon(verbs=verbs)
    assert str(info.value) == "verbs[2]: duplicate trigger 'dive in'"
    assert render(translate("dive now", Lexicon(verbs=verbs[:2]))) == "( seq ( move ) )"


def test_translate_is_deterministic():
    text = "move to x 1 then say hello there, find the buoy"
    assert render(translate(text)) == render(translate(text))


@given(st.text(max_size=80))
@settings(max_examples=250)
def test_translate_is_total(text):
    try:
        tree = translate(text)
    except NoVerbMatch:
        return
    assert validate(tree, builtin_registry(), "strict") == []
    assert parse_logical_form(render(tree)) == tree


@given(st.sampled_from(["", "say ", "find the ", "move to x "]), st.text(_ANY_CHAR, max_size=40) | st.text(_TRICKY))
@settings(max_examples=400, deadline=None)
def test_translated_trees_always_become_missions(prefix, text):
    try:
        tree = translate(prefix + text)
    except NoVerbMatch:
        return
    assert parse_bt_xml(emit(tree)) == tree


# README "The lexicon": for every lexicon, translate's output strict-validates
# against the lexicon's registry, which translate orders by when given none,
# and emit never refuses it.  Registry lines and a lexicon over them, with a
# [connectives] section or none, are drawn and read as files; parameter names
# include ones near the XML names.
_PIPELINE_PARAMS = IDENTS | st.sampled_from(("xmlns", "xml", "seq"))
# Cue keywords, numbers on both sides of the number rule, and filler.
_PIPELINE_WORDS = ("k0", "k1", "k2", "-.5", "1e3", "nan", "inf", "1" + "0" * 309, *SKIP_WORDS, *NOUNS, *NUMBERS)
_CONNECTIVE_WORDS = {word for connective in DEFAULT_CONNECTIVES for word in connective.split()}
_ACTIONS = st.lists(IDENTS.filter(lambda name: name != RESERVED_HEAD), min_size=1, max_size=3, unique=True)
# Connectives of one or two words, which may be or hold "and" and ",".
_PIPELINE_CONNECTIVES = st.lists(IDENTS | st.sampled_from(("and", ",")), min_size=1, max_size=2).map(" ".join)


def _pipeline_triggers(connectives=()):
    """Triggers of one to three words, with the words of the default

    connectives and of ``connectives`` kept out of them.
    """
    kept_out = _CONNECTIVE_WORDS.union(*(connective.split() for connective in connectives))
    return st.lists(IDENTS.filter(lambda word: word not in kept_out), min_size=1, max_size=3).map(" ".join)


def _pipeline_text(draw, triggers, connectives=()):
    """A trigger, then words that may hold triggers and split into clauses."""
    words = {*_PIPELINE_WORDS, "then", "and", ","}.union(*(phrase.split() for phrase in (*triggers, *connectives)))
    return " ".join([draw(st.sampled_from(triggers)), *draw(st.lists(st.sampled_from(sorted(words)), max_size=10))])


def _assert_becomes_a_mission(text, lexicon, registry):
    try:
        tree = translate(text, lexicon)
    except NoVerbMatch:
        return
    assert validate(tree, registry, "strict") == []
    assert parse_bt_xml(emit(tree, registry)) == tree


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_drawn_registry_line_and_lexicon_translate_to_missions(data):
    actions = data.draw(_ACTIONS)
    params = [data.draw(st.lists(_PIPELINE_PARAMS, max_size=3, unique=True)) for _ in actions]
    try:
        registry = load_registry("".join(f"{action} {' '.join(names)}\n" for action, names in zip(actions, params)))
    except ConfigParseError:
        return
    # None writes no [connectives] section, so the defaults hold
    section = data.draw(st.none() | st.lists(_PIPELINE_CONNECTIVES, max_size=3))
    connectives = section or []
    triggers = data.draw(st.lists(_pipeline_triggers(connectives), min_size=len(actions), max_size=6, unique=True))
    lines = ["[verbs]\n", *(f"{trigger} = {actions[i % len(actions)]}\n" for i, trigger in enumerate(triggers))]
    for action, names in zip(actions, params):
        cues = [data.draw(st.sampled_from(("number", "rest", f"after k{k}"))) for k in range(len(names))]
        lines += [f"[params.{action}]\n", *map("{} = {}\n".format, cues, names)]
    if section is not None:
        lines += ["[connectives]\n", *(f"{connective}\n" for connective in section)]
    lexicon = load_lexicon("".join(lines), registry)
    _assert_becomes_a_mission(_pipeline_text(data.draw, triggers, connectives), lexicon, registry)


# Names a schema may hold; a schema refuses xmlns.
_SCHEMA_NAMES = _PIPELINE_PARAMS.filter(lambda name: name != "xmlns")


@st.composite
def _lexicons_over_aliases(draw):
    """A registry built in code, with aliases, which no registry file holds;

    a lexicon built in code over it, whose cues name parameters and
    aliases; and an utterance.
    """
    schemas = []
    for action in draw(_ACTIONS):
        params = draw(st.lists(_SCHEMA_NAMES, min_size=1, max_size=3, unique=True))
        aliases = draw(st.lists(st.tuples(_SCHEMA_NAMES, st.sampled_from(params)), max_size=3))
        schemas.append(ActionSchema(action, tuple(params), tuple(aliases)))
    triggers = draw(st.lists(_pipeline_triggers(), min_size=len(schemas), max_size=6, unique=True))
    verbs = tuple((tuple(trigger.split()), schemas[i % len(schemas)].name) for i, trigger in enumerate(triggers))
    cues = []
    for schema in schemas:
        names = draw(st.lists(st.sampled_from([*schema.params, *(alias for alias, _ in schema.aliases)]), max_size=4))
        kinds = [draw(st.sampled_from(("number", "rest", f"after k{k}"))).split() for k in range(len(names))]
        rules = tuple(ParamRule(kind, name, *keyword) for (kind, *keyword), name in zip(kinds, names))
        cues.append((schema.name, rules))
    return Lexicon(verbs, tuple(cues), registry=ActionRegistry(tuple(schemas))), _pipeline_text(draw, triggers)


# A schema that puts b before a: when translate ordered a lexicon's
# parameters by the built-ins, emit under this registry wrote b first, and
# the mission read back renumbered.
_PING = Lexicon(
    ((("ping",), "ping"),),
    (("ping", (ParamRule("after", "b", "kb"), ParamRule("after", "a", "ka"))),),
    registry=load_registry("ping b a\n"),
)


@given(_lexicons_over_aliases())
@example((_PING, "ping ka 1 kb 2"))
@settings(max_examples=200, deadline=None)
def test_a_code_built_lexicon_over_aliases_translates_to_missions_and_binds_each_alias_to_its_target(case):
    lexicon, text = case
    registry = lexicon.registry
    _assert_becomes_a_mission(text, lexicon, registry)
    # README "The lexicon": a cue that names an alias binds its target, so
    # writing each cue with its target instead changes nothing
    written = []
    for action, rules in lexicon.params:
        schema = registry.get(action)
        written.append((action, tuple(ParamRule(r.kind, schema.canonical_param(r.param), r.keyword) for r in rules)))
    targets = Lexicon(lexicon.verbs, tuple(written), lexicon.connectives, registry)
    assert _tree_or_miss(text, targets) == _tree_or_miss(text, lexicon)


# Stripped from token edges or deleted; "," is a connective, so not here.
_PUNCT = st.text(st.sampled_from("\"'!?.;:()[]"), max_size=2)


def _outcome(text, lexicon):
    try:
        return translate(text, lexicon)
    except NoVerbMatch as exc:
        return type(exc), exc.clause_index


@pytest.mark.parametrize("lexicon", [default_lexicon(), RIGGED], ids=["shipped", "rigged"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_edge_punctuation_changes_nothing(lexicon, data):
    words = {token for phrase, _ in lexicon.verbs for token in phrase}
    words.update(token for connective in lexicon.connectives for token in connective.split())
    words.update(rule.keyword for _, rules in lexicon.params for rule in rules if rule.keyword)
    tokens = data.draw(st.lists(st.sampled_from(sorted(words | {"and", *NOUNS, *NUMBERS})), max_size=16))
    punctuated = [data.draw(_PUNCT) + token + data.draw(_PUNCT) for token in tokens]
    assert _outcome(" ".join(punctuated), lexicon) == _outcome(" ".join(tokens), lexicon)


def _readme_number(token):
    """README: a number is a token ``float()`` reads as a finite number."""
    try:
        return isfinite(float(token))
    except ValueError:
        return False


def _readme_cues(tokens, rules):
    """The cues' bindings by README "The lexicon": applied in written order

    to the tokens after the trigger.  ``after WORD`` takes the token after
    the first ``WORD`` where neither is consumed, ``number`` the first token
    not consumed that ``float()`` reads as a finite number, and ``rest``
    every token not consumed, less the ``SKIP_WORDS`` at its front.  A cue
    that finds nothing, or whose parameter is bound, binds nothing and
    consumes nothing.
    """
    consumed, bound = set(), {}
    for rule in rules:
        if rule.param in bound:
            continue
        if rule.kind == "rest":
            words = list(dropwhile(SKIP_WORDS.__contains__, [t for i, t in enumerate(tokens) if i not in consumed]))
            if words:
                consumed = set(range(len(tokens)))
                bound[rule.param] = " ".join(words)
            continue
        if rule.kind == "after":
            spans = [{i, i + 1} for i in range(len(tokens) - 1) if tokens[i] == rule.keyword]
        else:
            spans = [{i} for i, tok in enumerate(tokens) if _readme_number(tok)]
        span = next((span for span in spans if not span & consumed), None)
        if span is not None:
            consumed |= span
            bound[rule.param] = tokens[max(span)]
    return bound


def _bindings(lexicon, text):
    (translated,) = translate(text, lexicon).actions
    return {param.name: param.value for param in translated.params}


# Tail words: cue keywords, values, and spellings on both sides of the number rule.
_CUE_WORDS = ("at", "now", "x1", "2.", ".5", "-.5", "+2", "1e3", "1_000", "-", "-0", *NOUNS, *NUMBERS)


def _assert_cues_follow_the_readme(lexicon, kind, data):
    """Translate one of ``kind``'s actions' triggers, then a tail of words

    that hold no trigger and no connective, so the clause split leaves the
    tail whole; check each ``kind`` cue before a ``rest`` cue.
    """
    heads = {}
    for action, rules in lexicon.params:
        # a cue that names an alias binds its target
        schema = lexicon.registry.get(action)
        rules = [ParamRule(rule.kind, schema.canonical_param(rule.param), rule.keyword) for rule in rules]
        head = rules[: next((k for k, rule in enumerate(rules) if rule.kind == "rest"), len(rules))]
        if any(rule.kind == kind for rule in head):
            heads[action] = head
    action = data.draw(st.sampled_from(sorted(heads)))
    trigger = data.draw(st.sampled_from(sorted(" ".join(p) for p, name in lexicon.verbs if name == action)))
    banned = {word for phrase, _ in lexicon.verbs for word in phrase}
    banned.update(word for connective in lexicon.connectives for word in connective.split())
    keywords = {rule.keyword for rule in heads[action] if rule.keyword}
    words = sorted(word for word in {*keywords, *_CUE_WORDS} if not banned & set(normalize(word)))
    drawn = data.draw(st.lists(st.sampled_from(words), max_size=12))
    tail = " ".join(data.draw(_PUNCT) + word + data.draw(_PUNCT) for word in drawn)
    bound = _bindings(lexicon, f"{trigger} {tail}")
    expected = _readme_cues(normalize(tail), heads[action])
    rest = {rule.param for rule in lexicon.cues[action] if rule.kind == "rest"}
    for rule in heads[action]:
        if rule.kind == kind and (rule.param in expected or rule.param not in rest):
            assert bound.get(rule.param) == expected.get(rule.param)


@pytest.mark.parametrize("lexicon", [default_lexicon(), RIGGED], ids=["shipped", "rigged"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_number_cue_binds_the_first_unconsumed_number(lexicon, data):
    _assert_cues_follow_the_readme(lexicon, "number", data)


@pytest.mark.parametrize("lexicon", [default_lexicon(), RIGGED], ids=["shipped", "rigged"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_an_after_cue_binds_the_token_after_its_first_unconsumed_keyword(lexicon, data):
    _assert_cues_follow_the_readme(lexicon, "after", data)


def _cue_pool(lexicon):
    """Parameter -> cues to draw for it: the lexicon's own, a ``number`` and a ``rest`` cue."""
    pool = {}
    for _, rules in lexicon.params:
        for rule in rules:
            pool.setdefault(rule.param, {ParamRule("number", rule.param), ParamRule("rest", rule.param)}).add(rule)
    return {param: sorted(rules, key=repr) for param, rules in sorted(pool.items())}


def _with_cues(lexicon, action, rules):
    # a registry where each action takes every drawn name, none an alias, so each cue binds as written
    names = sorted({rule.param for _, cues in lexicon.params for rule in cues} | {rule.param for rule in rules})
    registry = ActionRegistry(tuple(ActionSchema(name, tuple(names)) for name in sorted({a for _, a in lexicon.verbs})))
    others = tuple((name, cues) for name, cues in lexicon.params if name != action)
    return Lexicon(lexicon.verbs, ((action, tuple(rules)), *others), lexicon.connectives, registry)


def _drawn_clause(lexicon, rules, data):
    """An action, one of its triggers, and a tail of words that hold no

    trigger and no connective, ``SKIP_WORDS`` included, so the clause split
    leaves the tail whole.  Only the drawn trigger matches, so the tail's
    tokens are all the cues see.
    """
    action = data.draw(st.sampled_from(sorted({name for _, name in lexicon.verbs})))
    trigger = data.draw(st.sampled_from(sorted(" ".join(p) for p, name in lexicon.verbs if name == action)))
    banned = {word for phrase, _ in lexicon.verbs for word in phrase}
    banned.update(word for connective in lexicon.connectives for word in connective.split())
    keywords = {rule.keyword for rule in rules if rule.keyword}
    words = sorted({*SKIP_WORDS, *(word for word in {*keywords, *_CUE_WORDS} if not banned & set(normalize(word)))})
    drawn = data.draw(st.lists(st.sampled_from(words), max_size=12))
    tail = " ".join(data.draw(_PUNCT) + word + data.draw(_PUNCT) for word in drawn)
    tokens, n = normalize(f"{trigger} {tail}"), len(trigger.split())
    triggers = {phrase for phrase, _ in lexicon.verbs}
    # no trigger phrase ends past the drawn trigger
    spans = [(i, j) for i in range(len(tokens)) for j in range(max(i, n) + 1, len(tokens) + 1)]
    assume(not any(tuple(tokens[i:j]) in triggers for i, j in spans))
    return action, trigger, tail


@pytest.mark.parametrize("lexicon", [default_lexicon(), RIGGED], ids=["shipped", "rigged"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_rest_cue_takes_every_unconsumed_token_less_the_skip_words_in_front(lexicon, data):
    pool = _cue_pool(lexicon)
    rules = data.draw(st.lists(st.sampled_from([rule for cues in pool.values() for rule in cues]), max_size=4))
    rules.insert(data.draw(st.integers(0, len(rules))), ParamRule("rest", data.draw(st.sampled_from(sorted(pool)))))
    action, trigger, tail = _drawn_clause(lexicon, rules, data)
    assert _bindings(_with_cues(lexicon, action, rules), f"{trigger} {tail}") == _readme_cues(normalize(tail), rules)


@pytest.mark.parametrize("lexicon", [default_lexicon(), RIGGED], ids=["shipped", "rigged"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_cue_whose_parameter_is_bound_binds_nothing_and_consumes_nothing(lexicon, data):
    # two cues for one parameter, a rest cue possibly either; once the cues
    # before the later one bind that parameter, deleting it changes nothing
    pool = _cue_pool(lexicon)
    param = data.draw(st.sampled_from(sorted(pool)))
    rules = data.draw(st.lists(st.sampled_from([rule for cues in pool.values() for rule in cues]), max_size=4))
    late = data.draw(st.integers(0, len(rules)))
    rules.insert(late, data.draw(st.sampled_from(pool[param])))
    rules.insert(data.draw(st.integers(0, late)), data.draw(st.sampled_from(pool[param])))
    late += 1
    action, trigger, tail = _drawn_clause(lexicon, rules, data)
    text = f"{trigger} {tail}"
    assume(param in _bindings(_with_cues(lexicon, action, rules[:late]), text))
    without = _with_cues(lexicon, action, rules[:late] + rules[late + 1 :])
    assert translate(text, _with_cues(lexicon, action, rules)) == translate(text, without)


# ----------------------------------------------------------------- scaling


@pytest.mark.parametrize(
    "build",
    [
        lambda n: "say " + " and ".join(["hello"] * n),
        lambda n: " and ".join(["say hello"] * n),
        lambda n: "bring " + " and ".join(["the wrench"] * n),
        lambda n: "say " + "the " * (100 * n) + "hi",
    ],
    ids=["one-say-many-ands", "many-says", "one-long-value", "leading-filler"],
)
def test_translate_time_at_most_triples_when_the_input_doubles(build):
    small, large = best_of_5_each(translate, build(100), build(200))
    assert large <= 3 * small


def test_lexicon_time_at_most_triples_when_its_connectives_double():
    # every connective starts with "go", so all of them share one splitter entry
    small, large = (tuple(f"go w{i}" for i in range(n)) for n in (8000, 16000))
    small, large = best_of_5_each(lambda connectives: Lexicon(verbs=(), connectives=connectives), small, large)
    assert large <= 3 * small


# The bytecode count beside the clock above: deterministic, so host load
# cannot fail it, but blind to work done inside C functions.
@pytest.mark.parametrize(
    "build",
    [
        lambda n: "say " + " and ".join(["hello"] * n),
        lambda n: " and ".join(["say hello"] * n),
        lambda n: "bring " + " and ".join(["the wrench"] * n),
        lambda n: "say " + "the " * (100 * n) + "hi",
    ],
    ids=["one-say-many-ands", "many-says", "one-long-value", "leading-filler"],
)
def test_translate_bytecodes_at_most_2_5x_when_the_input_doubles(build):
    assert bytecode_growth(translate, build(100), build(200)) <= 2.5


@pytest.mark.parametrize(
    "lexicon, text",
    [
        # 20 clauses split at "go on", listed after n connectives "go wN"
        (
            lambda n: Lexicon(verbs=((("say",), "say"),), connectives=(*(f"go w{i}" for i in range(n)), "go on")),
            " go on ".join(["say hello"] * 20),
        ),
        # 20 clauses, each with one of n triggers "go to wN"
        (
            lambda n: Lexicon(verbs=((("say",), "say"), *((("go", "to", f"w{i}"), "move") for i in range(n)))),
            " then ".join(["go to w3 now"] * 20),
        ),
    ],
    ids=["connectives", "triggers"],
)
def test_translate_bytecodes_stay_flat_when_the_phrases_sharing_a_first_word_double(lexicon, text):
    growth = bytecode_growth(lambda lexicon: translate(text, lexicon), lexicon(500), lexicon(1000))
    assert growth <= 1.1


def test_lexicon_bytecodes_at_most_2_5x_when_its_connectives_double():
    # the bytecode count beside the Lexicon clock, on the same connectives
    small, large = (tuple(f"go w{i}" for i in range(n)) for n in (8000, 16000))
    assert bytecode_growth(lambda connectives: Lexicon(verbs=(), connectives=connectives), small, large) <= 2.5


def test_a_400_clause_and_chain_translates():
    tree = translate(" and ".join(["say hello"] * 400))
    assert len(tree.actions) == 400
    assert render(tree) == render(translate(" then ".join(["say hello"] * 400)))


# ----------------------------------------------------------------- lexicon


def test_default_lexicon_has_three_triggers_per_action():
    lexicon = default_lexicon()
    counts = {}
    for _, action in lexicon.verbs:
        counts[action] = counts.get(action, 0) + 1
    assert set(counts) == set(builtin_registry().by_name)
    assert all(count >= 3 for count in counts.values())


def test_split_clauses_drops_empty_fragments():
    lexicon = default_lexicon()
    assert split_clauses("say hi, then goal", lexicon) == [["say", "hi"], ["goal"]]
    assert split_clauses("then say hi then", lexicon) == [["say", "hi"]]


def test_a_trigger_across_an_and_split_matches_in_neither_clause():
    # RIGGED's "rock and roll" is longer than "say", but its "and" is a split
    assert split_clauses("say rock and roll find", RIGGED) == [["say", "rock"], ["roll", "find"]]
    tree = translate("say rock and roll find", RIGGED)
    assert render(tree) == "( seq ( say ( words ( $0 ( rock ) ) ) ) ( find ) )"


# "and" is no connective here, so only the "and , then" phrase takes a comma
SAY_THEN = Lexicon(verbs=((("say",), "say"),), connectives=("then", "and , then"))
THEN_SAY = Lexicon(verbs=((("say",), "say"),), connectives=("and then", "then say"))


def test_commas_no_connective_takes_are_dropped():
    assert split_clauses("say hi, there then say a, and , then say b", SAY_THEN) == [
        ["say", "hi", "there"],
        ["say", "a"],
        ["say", "b"],
    ]


@pytest.mark.parametrize(
    "text, lexicon, expected",
    [
        # the second "then" starts a phrase of its own, the first is inside "and then"
        ("say hi and then then say ho", default_lexicon(), [["say", "hi"], ["say", "ho"]]),
        # "then say" would reach past the consumed "and then", so it is no match
        ("say hi and then say ho", THEN_SAY, [["say", "hi"], ["say", "ho"]]),
        # "then" is a connective head inside the consumed "and , then"
        ("say a, and , then say b", SAY_THEN, [["say", "a"], ["say", "b"]]),
        # a bare "and" trigger is a whole hit on either side of an "and"
        ("and", RIGGED, [["and"]]),
        ("and and and", RIGGED, [["and"], ["and"]]),
        ("say hi and and", RIGGED, [["say", "hi"], ["and"]]),
    ],
    ids=["head-in-consumed-phrase", "head-reaching-past-consumed-phrase", "comma-phrase", "bare-and", "three-ands", "and-after-and"],
)
def test_split_clauses_fixed_cases(text, lexicon, expected):
    assert split_clauses(text, lexicon) == expected


# Overlapping connectives, one holding a comma, and a trigger that a
# dropped comma can join: "c , d" holds "c d" once the comma goes.
OVERLAP = Lexicon(
    verbs=((("go",), "goal"), (("c", "d"), "say"), (("b",), "find")),
    connectives=("a b", "b c d", "and", "d , go"),
)


def _readme_split(text, lexicon):
    """Clauses by README "The lexicon", rule by rule, with no index."""
    tokens = _tokens(text)
    connectives = sorted({tuple(c.split()) for c in lexicon.connectives if c != "and"}, key=len, reverse=True)
    triggers = {phrase for phrase, _ in lexicon.verbs}

    def holds_a_trigger(words):
        return any(tuple(words[i:j]) in triggers for i in range(len(words)) for j in range(i + 1, len(words) + 1))

    # connectives split unconditionally, the longest at the leftmost position first
    fragments, fragment, i = [], [], 0
    while i < len(tokens):
        taken = next((c for c in connectives if tuple(tokens[i : i + len(c)]) == c), None)
        if taken is None:
            fragment.append(tokens[i])
            i += 1
        else:
            fragments.append(fragment)
            fragment = []
            i += len(taken)
    fragments.append(fragment)
    clauses = []
    for fragment in fragments:
        # commas no connective takes are dropped before triggers match
        words = [word for word in fragment if word != ","]
        # "and" splits where the part since the last split and the rest of
        # the fragment each hold a whole trigger
        last = 0
        for i, word in enumerate(words):
            if word == "and" and "and" in lexicon.connectives:
                if holds_a_trigger(words[last:i]) and holds_a_trigger(words[i + 1 :]):
                    clauses.append(words[last:i])
                    last = i + 1
        clauses.append(words[last:])
    # empty fragments vanish
    return [clause for clause in clauses if clause]


@pytest.mark.parametrize("lexicon", [default_lexicon(), RIGGED, OVERLAP], ids=["shipped", "rigged", "overlap"])
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_split_clauses_follows_the_readme_rules(lexicon, data):
    text = " ".join(data.draw(st.lists(st.sampled_from(_vocabulary(lexicon)), max_size=20)))
    assert split_clauses(text, lexicon) == _readme_split(text, lexicon)


@pytest.mark.parametrize(
    "text, lexicon, expected",
    [
        # "everything after" an "and" ends at the next unconditional connective
        ("say hello and there then goal", default_lexicon(), [["say", "hello", "and", "there"], ["goal"]]),
        # the leftmost position wins: "a b" is taken, not the longer "b c d"
        ("go a b c d go", OVERLAP, [["go"], ["c", "d", "go"]]),
        # the comma goes before triggers match, so "c , d" holds "c d"
        ("go and c , d", OVERLAP, [["go"], ["c", "d"]]),
    ],
    ids=["and-rest-ends-at-a-connective", "leftmost-connective-wins", "comma-dropped-before-triggers"],
)
def test_split_clauses_readme_examples(text, lexicon, expected):
    assert split_clauses(text, lexicon) == expected == _readme_split(text, lexicon)


def _readme_verb(clause, lexicon):
    """The clause's action and the tokens after its trigger, by README "The

    lexicon": the longest trigger anywhere in the clause wins, and the
    leftmost breaks a tie in length.  None when no trigger is in the clause.
    """
    triggers = dict(lexicon.verbs)
    spans = [(i, j) for i in range(len(clause)) for j in range(i + 1, len(clause) + 1)]
    spans = [(i, j) for i, j in spans if tuple(clause[i:j]) in triggers]
    if not spans:
        return None
    i, j = min(spans, key=lambda span: (span[0] - span[1], span[0]))
    return triggers[tuple(clause[i:j])], clause[j:]


@pytest.mark.parametrize("lexicon", [default_lexicon(), RIGGED], ids=["shipped", "rigged"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_longest_trigger_in_a_clause_wins_and_the_leftmost_breaks_a_tie(lexicon, data):
    # whole trigger phrases beside single words, so triggers overlap and nest
    phrases = sorted({*_vocabulary(lexicon), *(" ".join(phrase) for phrase, _ in lexicon.verbs)})
    text = " ".join(data.draw(st.lists(st.sampled_from(phrases), max_size=16)))
    expected = [_readme_verb(clause, lexicon) for clause in _readme_split(text, lexicon)]
    if None in expected or not expected:
        with pytest.raises(NoVerbMatch) as caught:
            translate(text, lexicon)
        assert caught.value.clause_index == (expected.index(None) if expected else 0)
        return
    tree = translate(text, lexicon)
    actions = [(action.name, {param.name: param.value for param in action.params}) for action in tree.actions]
    assert actions == [(action, _readme_cues(tail, lexicon.cues.get(action, ()))) for action, tail in expected]


@pytest.mark.parametrize(
    "build, needle",
    [
        # no registry holds a name the nodes refuse, so a lexicon refuses it as unknown
        (lambda: Lexicon(verbs=((("go",), "Go"),)), "verbs\\[0\\]: unknown action 'Go'"),
        (lambda: Lexicon(verbs=((("go",), "seq"),)), "verbs\\[0\\]: unknown action 'seq'"),
        (lambda: ParamRule("rest", "Words"), "parameter name 'Words'"),
    ],
    ids=["action-Go", "action-seq", "param-Words"],
)
def test_lexicon_refuses_names_no_node_may_hold(build, needle):
    with pytest.raises(ValueError, match=needle):
        build()


# Entries no input can reach: load_lexicon refuses them in a file, with a
# line number, and a lexicon built in code refuses them at construction.


@pytest.mark.parametrize("kind", ["Rest", "after x", "numbers", ""])
def test_param_rule_refuses_an_unknown_cue_kind(kind):
    with pytest.raises(ValueError, match="unknown cue kind"):
        ParamRule(kind, "words")


@pytest.mark.parametrize("keyword", [None, ""])
def test_param_rule_refuses_an_after_cue_with_no_keyword(keyword):
    with pytest.raises(ValueError, match="'after' cue keyword"):
        ParamRule("after", "x", keyword)


@pytest.mark.parametrize("keyword", ["X", "x.", "(x)", "a b", "a,b", ","])
def test_param_rule_refuses_an_after_keyword_normalize_changes(keyword):
    with pytest.raises(ValueError, match="not normalized"):
        ParamRule("after", "x", keyword)


@pytest.mark.parametrize("phrase", [(), ("Say",), ("say!",), ("bring", "me,"), ("look for",), ("",), (",",)], ids=repr)
def test_lexicon_refuses_a_trigger_word_normalize_changes(phrase):
    with pytest.raises(ValueError, match="not normalized"):
        Lexicon(verbs=((phrase, "say"),))


SAY = ((("say",), "say"),)


@pytest.mark.parametrize("connective", ["", "Then", "and  then!", "then,", '"then"', " and", "and ", "and  then", "and\tthen"])
def test_lexicon_refuses_a_connective_the_tokenizer_changes(connective):
    with pytest.raises(ValueError, match="not normalized"):
        Lexicon(verbs=SAY, connectives=(connective,))


@pytest.mark.parametrize(
    "kwargs, where",
    [
        ({"verbs": ((("say",), "say"), (("Go",), "goal"))}, "verbs[1]: "),
        ({"verbs": ((("say",), "Say"),)}, "verbs[0]: "),
        ({"verbs": SAY, "connectives": ("then", "Then")}, "connectives[1]: "),
        ({"verbs": SAY, "params": (("say", ()), ("goal", ()), ("say", (ParamRule("rest", "words"),)))}, "params[2]: "),
        ({"verbs": SAY, "params": (("goal", ()), ("move", (ParamRule("after", "x", "x"),)))}, "params.move[0]: "),
        ({"verbs": SAY, "params": (("warp", (ParamRule("rest", "words"),)),)}, "params[0]: unknown action 'warp'"),
        ({"verbs": SAY, "params": (("warp", ()),)}, "params[0]: unknown action 'warp'"),
    ],
    ids=[
        "trigger",
        "action",
        "connective",
        "repeated-cue-list",
        "cue-list-no-trigger-names",
        "cue-list-unknown-action",
        "empty-cue-list-unknown-action",
    ],
)
def test_a_lexicon_entry_error_names_its_section_and_index(kwargs, where):
    with pytest.raises(ValueError) as info:
        Lexicon(**kwargs)
    assert str(info.value).startswith(where)


# Text one lexicon line may hold: no comment, "=", section header or line end.
_LINE_TEXT = st.text(st.characters(blacklist_characters="#=[\n", blacklist_categories=("Cs",)), max_size=8)


def _refused(build, error):
    try:
        build()
    except error:
        return True
    return False


@given(_LINE_TEXT)
@settings(max_examples=500, deadline=None)
def test_a_file_and_code_refuse_the_same_connectives(text):
    registry = builtin_registry()
    in_file = _refused(lambda: load_lexicon("[verbs]\nsay = say\n[connectives]\n" + text, registry), LexiconError)
    # a blank line is no entry, so the file then holds no connective
    in_code = _refused(lambda: Lexicon(verbs=SAY, connectives=(text.strip(),) if text.strip() else ()), ValueError)
    assert in_file == in_code


@given(_LINE_TEXT.filter(lambda text: 1 <= len(text.split()) <= 3))
@settings(max_examples=500, deadline=None)
def test_a_file_and_code_refuse_the_same_triggers(text):
    in_file = _refused(lambda: load_lexicon(f"[verbs]\n{text} = say\n", builtin_registry()), LexiconError)
    in_code = _refused(lambda: Lexicon(verbs=((tuple(text.split()), "say"),)), ValueError)
    assert in_file == in_code


_VERB_LINES = st.tuples(st.sampled_from(["dive", "dive in", "dive  in", "go"]), st.sampled_from(["move", "flatten"]))


@given(st.lists(_VERB_LINES, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_a_file_and_code_refuse_the_same_repeated_triggers(lines):
    text = "[verbs]\n" + "".join(f"{phrase} = {action}\n" for phrase, action in lines)
    verbs = tuple((tuple(phrase.split()), action) for phrase, action in lines)
    repeats = [i for i, (phrase, _) in enumerate(verbs) if phrase in [p for p, _ in verbs[:i]]]
    in_file = _refused(lambda: load_lexicon(text, builtin_registry()), LexiconError)
    in_code = _refused(lambda: Lexicon(verbs=verbs), ValueError)
    assert in_file == in_code == bool(repeats)
    if repeats:
        with pytest.raises(LexiconError) as info:
            load_lexicon(text, builtin_registry())
        assert info.value.line == repeats[0] + 2  # the header is line 1
        assert info.value.message == f"duplicate trigger '{' '.join(verbs[repeats[0]][0])}'"


_LOWER_IDENT = re.compile("[a-z][a-z0-9_]*")
_NAMES = st.from_regex(_LOWER_IDENT, fullmatch=True) | st.sampled_from(["move", "x", "seq"]) | st.text(max_size=6)
_TRIGGER_WORDS = ("go", "dive", "say")


@given(
    actions=st.lists(_NAMES, min_size=1, max_size=3),
    rules=st.lists(st.tuples(st.sampled_from(["after", "number", "rest"]), _NAMES), max_size=3),
    words=st.lists(st.sampled_from([*_TRIGGER_WORDS, "x", "1", "the", "and", "then"]) | st.text(max_size=3), max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_lexicon_names_are_checked_at_construction(actions, rules, words):
    # a name breaks the rule when no logical-form node could hold it, or,
    # for a parameter, when no registry can (xmlns); an action repeated in
    # ``actions`` gets a second, dead, cue list.  The registry holds every
    # drawn name a schema may hold, so it refuses nothing more.
    breaks = (
        any(not _LOWER_IDENT.fullmatch(name) or name == "seq" for name in actions)
        or any(not _LOWER_IDENT.fullmatch(name) or name == "xmlns" for _, name in rules)
        or len(set(actions)) < len(actions)
    )
    names = dict.fromkeys(name for _, name in rules)
    params = tuple(name for name in names if _node_refusal(lambda: ActionSchema("a", (name,))) is None)
    held = [action for action in dict.fromkeys(actions) if _node_refusal(lambda: ActionSchema(action)) is None]
    try:
        cues = tuple(ParamRule(kind, name, "x" if kind == "after" else None) for kind, name in rules)
        lexicon = Lexicon(
            verbs=tuple(((word,), action) for word, action in zip(_TRIGGER_WORDS, actions)),
            params=tuple((action, cues) for action in actions),
            registry=ActionRegistry(tuple(ActionSchema(action, params) for action in held)),
        )
    except ValueError:
        assert breaks
        return
    assert not breaks
    try:
        tree = translate(" ".join(["go", *words]), lexicon)
    except NoVerbMatch:
        return
    assert rebuild(tree) == tree


# Names as a cue line's right side can hold them: no comment sign, no line
# end, nothing config_lines or the "=" split would strip.
_CUE_NAMES = st.one_of(
    st.from_regex(_LOWER_IDENT, fullmatch=True),
    st.sampled_from(["seq", "words"]),
    st.text(min_size=1).filter(lambda s: "#" not in s and "\n" not in s and s.strip() == s),
)


def _node_refusal(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@given(
    actions=st.lists(_CUE_NAMES, min_size=1, max_size=3),
    param=_CUE_NAMES,
    cue=st.sampled_from(["rest", "number", "after x"]),
)
@settings(max_examples=500, deadline=None)
def test_entries_refuse_exactly_the_names_the_nodes_refuse(actions, param, cue):
    # a verb is refused exactly when its registry lacks the action; a
    # registry may hold any name the nodes allow, and no other
    verbs = tuple(((word,), action) for word, action in zip(_TRIGGER_WORDS, actions))
    refusals = [_node_refusal(lambda: SequenceNode((ActionNode(action),))) for action in actions]
    held = {action for action, refusal in zip(actions, refusals) if refusal is None}
    registry = ActionRegistry(tuple(map(ActionSchema, sorted(held))))
    bad = [i for i, refusal in enumerate(refusals) if refusal is not None]
    try:
        Lexicon(verbs=verbs, registry=registry)
    except ValueError as exc:
        assert bad and str(exc) == f"verbs[{bad[0]}]: unknown action '{actions[bad[0]]}'"
    else:
        assert not bad
    # under the built-ins, a verb is refused exactly when they lack its action
    for verb, action in zip(verbs, actions):
        assert _refused(lambda: Lexicon(verbs=(verb,)), ValueError) == (action not in builtin_registry().by_name)

    refusal = _node_refusal(lambda: ParamNode(param, 0, "v"))
    kind, *keyword = cue.split()
    assert _node_refusal(lambda: ParamRule(kind, param, *keyword)) == refusal
    # a name the nodes allow, seq included, is then the registry's to know
    registry = load_registry("warp seq words\n")
    text = f"[verbs]\nwarp = warp\n[params.warp]\n{cue} = {param}\n"
    if refusal is None and param in ("seq", "words"):
        assert load_lexicon(text, registry).cues["warp"] == (ParamRule(kind, param, *keyword),)
        return
    with pytest.raises(LexiconError) as info:
        load_lexicon(text, registry)
    assert str(info.value) == "lexicon line 4: " + (refusal or f"'warp' takes no parameter '{param}'")


def test_load_lexicon_minimal_file():
    registry = load_registry("ping\n")
    lexicon = load_lexicon(
        """
        # sonar
        [verbs]
        ping = ping
        ping it = ping

        [connectives]
        then
        """,
        registry,
    )
    assert lexicon.verbs == ((("ping",), "ping"), (("ping", "it"), "ping"))
    assert lexicon.connectives == ("then",)
    assert render(translate("ping it", lexicon, registry)) == "( seq ( ping ) )"


def test_load_lexicon_without_connectives_uses_defaults():
    lexicon = load_lexicon("[verbs]\ngoal = goal\n", builtin_registry())
    assert "and then" in lexicon.connectives


def test_load_lexicon_param_rules():
    lexicon = load_lexicon(
        """
        [verbs]
        dive = flatten

        [params.flatten]
        number = num
        """,
        builtin_registry(),
    )
    tree = translate("dive to 3.5", lexicon)
    assert render(tree) == "( seq ( flatten ( num ( $0 ( 3.5 ) ) ) ) )"


@pytest.mark.parametrize(
    "text, line, needle",
    [
        ("goal = goal\n", 1, "before any section"),
        ("[verbs]\ngoal goal\n", 2, "left = right"),
        ("[verbs]\n= goal\n", 2, "empty side"),
        ("[verbs]\nswim to the big gate = gate\n", 2, "1-3 tokens"),
        ("[verbs]\ngo = warp\n", 2, "unknown action"),
        ("[verbs]\nGo = warp\n", 2, "unknown action 'warp'"),
        ("[verbs]\ngoal = goal\ngoal = gate\n", 3, "duplicate trigger 'goal'"),
        ("[verbs]\ngoal now = goal\ngoal\tnow = gate\n", 3, "duplicate trigger 'goal now'"),
        ("[verbs]\nGoal = goal\n", 2, "not normalized"),
        ("[verbs]\nsay = say\n[params.move]\nafter x = x\nnumber = y\n", 4, "no trigger names action 'move'"),
        ("[params.warp]\n", 1, "unknown action"),
        ("[params.say]\nsomewhere near = words\n", 2, "unknown cue"),
        ("[params.say]\nrest = Words\n", 2, "not a lowercase identifier"),
        ("[params.move]\nafter q = q\n", 2, "takes no parameter 'q'"),
        ("[params.move]\nafter X = x\n", 2, "not normalized"),
        ("[params.move]\nafter x, = x\n", 2, "not normalized"),
        ("[connectives]\nThen\n", 2, "not normalized"),
        ("[connectives]\nthen,\n", 2, "not normalized"),
        ("[connectives]\nand, then\n", 2, "not normalized"),
        ("[connectives]\nthen!\n", 2, "not normalized"),
        ("[verbs]\na,b = goal\n", 2, "not normalized"),
        ("[params.move]\nafter a,b = x\n", 2, "not normalized"),
        ("[verbs\ngoal = goal\n", 1, "unterminated"),
        ("[chapter]\n", 1, "unknown section"),
    ],
)
def test_load_lexicon_rejects_malformed_files(text, line, needle):
    with pytest.raises(LexiconError) as info:
        load_lexicon(text, builtin_registry())
    assert info.value.line == line
    assert needle in str(info.value)


# A file with several faults reports one.  Reading stops at the first line
# that breaks a file rule or holds a refused cue, and reports it.  A whole
# file goes to the constructor, which reports its first refusal: triggers,
# then cue lists in the order of their first headers, each for its action,
# its parameters and a trigger naming it, then connectives.
@pytest.mark.parametrize(
    "text, line",
    [
        ("[verbs]\nGoal = goal\n[chapter]\n", 3),
        ("[verbs]\ngoal = goal\n[chapter]\nGoal = goal\n", 3),
        ("[verbs]\nGoal = goal\n[params.move]\nafter X = x\n", 4),
        ("[connectives]\nThen\n[verbs]\nGoal = goal\n", 4),
        ("[connectives]\nThen\n[verbs]\ngoal = goal\ngoal = gate\n", 5),
        ("[verbs]\ngoal = goal\ngoal = gate\n[chapter]\n", 4),
        ("[params.move]\nafter x = x\n[chapter]\n[verbs]\nmove = move\n", 3),
        ("[params.move]\nafter x = x\n[verbs]\nGoal = goal\n", 4),
        ("[connectives]\nThen\n[params.move]\nafter x = x\n[verbs]\ngoal = goal\n", 4),
        ("[connectives]\nThen\n[verbs]\ngo = warp\n", 4),
        ("[params.say]\nrest = nope\n[bogus]\n", 3),
        ("[params.move]\nafter x = x\nafter q = q\n", 3),
        ("[verbs]\nsay = say\n[params.move]\nafter q = q\n[params.say]\nrest = nope\n", 4),
        ("[params.warp]\n[verbs]\nGoal = goal\n", 3),
        ("[verbs]\nsay = say\n[params.say]\n[params.warp]\nrest = words\n[params.say]\nrest = nope\n", 7),
        ("[verbs]\nsay = say\n[params.warp]\n[params.say]\nrest = nope\n", 3),
    ],
    ids=[
        "entry-then-section",
        "section-then-entry",
        "trigger-then-cue",
        "connective-then-trigger",
        "connective-then-repeated-trigger",
        "repeated-trigger-then-section",
        "cue-list-then-section",
        "cue-list-then-trigger",
        "connective-then-cue-list",
        "connective-then-unknown-action",
        "unknown-parameter-then-section",
        "unknown-parameter-before-cue-list",
        "cue-lists-in-order",
        "unknown-header-then-trigger",
        "cue-lists-in-header-order",
        "unknown-header-then-parameter",
    ],
)
def test_which_fault_a_file_with_several_reports(text, line):
    with pytest.raises(LexiconError) as info:
        load_lexicon(text, builtin_registry())
    assert info.value.line == line


def _readme_lexicon_fault(lines):
    """The line README "The lexicon" says a file of ``lines`` (none blank)

    is refused at, or None.  Reading stops at the first line that breaks a
    file rule or holds a refused cue, and that line is reported.  Else the
    first refused trigger is, its action unknown to the registry included;
    else the first cue list, in the order of their first headers, whose
    action the registry lacks, at that header, that holds a parameter its
    action lacks, at that cue, or that holds cues and no trigger names, at
    its first cue; else the first refused connective.
    """
    registry = builtin_registry()
    section = None
    triggers, connectives, cue_lists = [], [], {}  # cue_lists: action -> (header line, [(line, parameter)])
    for lineno, line in enumerate(lines, 1):
        if line.startswith("["):
            section = line[1:-1]
            action = section[len("params.") :]
            if not line.endswith("]") or section not in ("verbs", "connectives") and not section.startswith("params."):
                return lineno
            if section.startswith("params."):
                cue_lists.setdefault(action, (lineno, []))
            continue
        if section is None:  # an entry before any header
            return lineno
        if section == "connectives":
            connectives.append((lineno, " ".join(_readme_tokens(line)) == line))
            continue
        # a trigger or cue line: the "=" and its two sides, then the word count
        left, eq, right = (part.strip() for part in line.partition("="))
        words = left.split()
        if not (eq and left and right):
            return lineno
        if section == "verbs":
            # the action, the text and a repeat are the constructor's
            if not 1 <= len(words) <= 3:
                return lineno
            triggers.append((lineno, words, right))
            continue
        # then the cue itself; the action and the parameter it takes are the constructor's
        kind, *keyword = words
        cue_ok = (
            len(words) == (2 if kind == "after" else 1)
            and _LOWER_IDENT.fullmatch(right)
            and kind in ("after", "number", "rest")
            and all(_readme_tokens(word) == [word] for word in keyword)
        )
        if not cue_ok:
            return lineno
        cue_lists[action][1].append((lineno, right))
    seen = []
    for lineno, words, action in triggers:
        if action not in registry or _readme_tokens(" ".join(words)) != words or words in seen:
            return lineno
        seen.append(words)
    named = {action for _, _, action in triggers}
    for action, (header, cues) in cue_lists.items():
        if action not in registry:
            return header
        unknown = [lineno for lineno, param in cues if registry.get(action).canonical_param(param) is None]
        if unknown or cues and action not in named:
            return (unknown or [cues[0][0]])[0]
    return next((lineno for lineno, ok in connectives if not ok), None)


# Lines by the section they are written for, good and faulty; a line
# drawn into another section means what that section makes of it.
_LEXICON_ENTRIES = {
    "[verbs]": (
        ("goal = goal", "gate = gate", "move = move", "say = say"),
        ("goal = gate", "Goal = goal", "go = warp", "swim to the big gate = gate", "goal goal"),
    ),
    "[params.move]": (("after x = x", "after yaw = yaw", "number = y"), ("after X = x", "after q = q")),
    "[params.say]": (("rest = words", "number = words"), ("rest = Words", "rest = obj")),
    "[connectives]": (("then", "and then"), ("Then",)),
    "[chapter]": ((), ()),
    "[params.warp]": ((), ()),
}
_ANY_ENTRY = st.sampled_from(sorted({line for pools in _LEXICON_ENTRIES.values() for pool in pools for line in pool}))
_GOOD_HEADERS = ("[verbs]", "[params.move]", "[params.say]", "[connectives]")


@st.composite
def _lexicon_files(draw):
    """Sections of entries, mostly good ones written for their section, so

    that several faults come before reading stops.  A section may have no
    header: first in the file, its entries come before any.
    """
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        header = draw(st.sampled_from(_GOOD_HEADERS) | st.sampled_from(sorted(_LEXICON_ENTRIES)) | st.none())
        good, bad = _LEXICON_ENTRIES.get(header, ((), ()))
        pools = [st.sampled_from(pool) for pool in (good, good, bad) if pool] + [_ANY_ENTRY]
        lines += [header] if header else []
        lines += draw(st.lists(st.one_of(pools), max_size=3))
    return lines


@given(_lexicon_files())
@settings(max_examples=1000, deadline=None)
def test_a_file_with_several_faults_reports_the_one_the_readme_names(lines):
    try:
        load_lexicon("\n".join(lines) + "\n", builtin_registry())
    except LexiconError as exc:
        line = exc.line
    else:
        line = None
    assert line == _readme_lexicon_fault(lines)


# LF is the one line end; every other break is a blank or comment text.
@pytest.mark.parametrize("brk", [brk for brk in LINE_BREAKS if brk != "\n"])
def test_load_lexicon_ends_lines_only_at_lf(brk):
    lexicon = load_lexicon(f"[verbs] # x{brk}go = gate\r\ngoal = goal{brk}\n", builtin_registry())
    assert lexicon.verbs == ((("goal",), "goal"),)
    with pytest.raises(LexiconError) as info:
        load_lexicon(f"[verbs] # x{brk}go = gate\nGoal = goal\n", builtin_registry())
    assert info.value.line == 2
