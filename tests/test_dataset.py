"""Corpus generation, TSV serialization, and vocabulary accounting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlang.dataset import (
    Corpus,
    CorpusPair,
    FormatError,
    InsufficientSpace,
    TemplateError,
    _STALL_LIMIT,
    _TEMPLATES,
    default_templates,
    generate,
    read_tsv,
    vocab_stats,
    write_tsv,
)
from seqlang.frontend import translate
from seqlang.logical_form import ActionNode, ParamNode, SequenceNode, parse_logical_form, render
from seqlang.registry import builtin_registry, validate


@pytest.fixture(scope="module")
def seed7():
    return generate(120, 40, seed=7)


# ---------------------------------------------------------------- generate


def test_generate_returns_requested_sizes(seed7):
    train, test = seed7
    assert (len(train), len(test)) == (120, 40)
    assert (train.split, test.split) == ("train", "test")


def test_generate_splits_share_no_pairs(seed7):
    train, test = seed7
    train_keys = {(p.utterance, p.logical_form) for p in train}
    test_keys = {(p.utterance, p.logical_form) for p in test}
    assert not train_keys & test_keys
    # no duplicates within a split either
    assert len(train_keys) == len(train)
    assert len(test_keys) == len(test)


def test_generate_pairs_are_canonical_and_valid(seed7):
    registry = builtin_registry()
    for corpus in seed7:
        for pair in corpus:
            tree = parse_logical_form(pair.logical_form)
            assert render(tree) == pair.logical_form
            assert validate(tree, registry, "strict") == []


def test_generate_gold_matches_the_default_frontend(seed7):
    for corpus in seed7:
        for pair in corpus:
            assert render(translate(pair.utterance)) == pair.logical_form


def test_generate_first_slots_cover_each_length(seed7):
    for corpus in seed7:
        lengths = [len(parse_logical_form(p.logical_form).actions) for p in corpus]
        assert lengths[:7] == [1, 2, 3, 4, 5, 6, 7]
        assert set(lengths) == set(range(1, 8))


def test_generate_is_reproducible():
    first = generate(60, 20, seed=123)
    second = generate(60, 20, seed=123)
    for a, b in zip(first, second):
        assert [(p.utterance, p.logical_form) for p in a] == [
            (p.utterance, p.logical_form) for p in b
        ]


def test_generate_seed_changes_the_corpus():
    a, _ = generate(60, 20, seed=1)
    b, _ = generate(60, 20, seed=2)
    assert [p.utterance for p in a] != [p.utterance for p in b]


def test_generate_accepts_custom_templates():
    def goal_only(rng):
        return "score a goal", ActionNode("goal")

    train, test = generate(7, 0, seed=5, templates={"goal": goal_only})
    assert len(test) == 0
    assert train.pairs[0] == CorpusPair("score a goal", "( seq ( goal ) )")
    for pair in train:
        tree = parse_logical_form(pair.logical_form)
        assert all(action.name == "goal" for action in tree.actions)


def test_generate_runs_out_of_distinct_pairs():
    # Only one distinct length-1 pair exists, but both pinned splits need one.
    calls = 0

    def fixed(rng):
        nonlocal calls
        calls += 1
        return "score a goal", ActionNode("goal")

    with pytest.raises(InsufficientSpace) as info:
        generate(7, 7, seed=9, templates={"goal": fixed})
    assert info.value.requested == 14
    assert info.value.generated == 7
    # 28 draws fill train's pinned lengths 1..7; then _STALL_LIMIT duplicates.
    assert calls == 28 + _STALL_LIMIT


def test_generate_rejects_templates_that_break_validation():
    def rogue(rng):
        return "warp", ActionNode("warp")

    with pytest.raises(ValueError):
        generate(3, 0, seed=9, templates={"warp": rogue})


def test_a_template_error_names_the_rendered_form_and_its_first_error():
    # Templates number every parameter 0; the form is checked as rendered, renumbered.
    def rogue(rng):
        return "move to x 1 q 2", ActionNode("move", (ParamNode("x", 0, "1"), ParamNode("q", 0, "2")))

    with pytest.raises(TemplateError) as info:
        generate(12, 0, seed=1, templates={**default_templates(), "move": rogue})
    assert str(info.value) == (
        "template produced invalid form '( seq ( clean ( obj ( $0 ( marker ) ) ) )"
        " ( move ( x ( $1 ( 1 ) ) ) ( q ( $2 ( 2 ) ) ) ) ( goal ) )':"
        " error: action 'move' has no parameter 'q' [action 1, param 1]"
    )


def test_default_templates_cover_every_builtin():
    assert set(default_templates()) == set(builtin_registry().by_name)
    rng = random.Random(4)
    for name, template in default_templates().items():
        clause, node = template(rng)
        assert isinstance(clause, str) and clause
        assert node.name == name


@pytest.mark.parametrize("action", sorted(_TEMPLATES))
def test_every_template_pairing_translates_back_to_its_action(action):
    patterns, values, param = _TEMPLATES[action]
    for pattern in patterns:
        for value in values or [None]:
            params = () if value is None else (ParamNode(param, 0, value),)
            assert translate(pattern.format(value)) == SequenceNode((ActionNode(action, params),)), pattern


# --------------------------------------------------------------------- tsv


def test_tsv_round_trip(seed7):
    train, _ = seed7
    text = write_tsv(train)
    assert text.endswith("\n")
    assert text.splitlines()[0].count("\t") == 1

    back = read_tsv(text, split="train")
    assert [(p.utterance, p.logical_form) for p in back] == [
        (p.utterance, p.logical_form) for p in train
    ]
    # serializing the re-read corpus is byte identical
    assert write_tsv(back) == text


def test_tsv_empty_corpus():
    assert write_tsv(Corpus((), "test")) == ""
    assert len(read_tsv("", split="test")) == 0


def test_read_tsv_single_line():
    corpus = read_tsv("say hi\t( seq ( say ( words ( $0 ( hi ) ) ) ) )\n", split="eval")
    assert len(corpus) == 1
    assert corpus.split == "eval"
    assert corpus.pairs[0].utterance == "say hi"


@pytest.mark.parametrize(
    "line",
    ["no tab here", "a\tb\tc", "\tform only", "utterance only\t"],
)
def test_read_tsv_rejects_malformed_lines(line):
    with pytest.raises(FormatError) as info:
        read_tsv(line + "\n", split="eval")
    assert info.value.line == 1


def test_read_tsv_reports_the_failing_line_number():
    with pytest.raises(FormatError) as info:
        read_tsv("ok\t( seq ( goal ) )\nbroken line\n", split="eval")
    assert info.value.line == 2
    assert "broken" not in str(info.value)  # message describes the shape, not data


def test_read_tsv_does_not_parse_the_forms():
    corpus = read_tsv("anything\tnot a logical form\n", split="eval")
    assert corpus.pairs[0].logical_form == "not a logical form"


# ------------------------------------------------------------- corpus pair


@pytest.mark.parametrize(
    "utterance, form",
    [
        ("", "( seq ( goal ) )"),
        ("say hi", ""),
        ("say\thi", "( seq ( goal ) )"),
        ("say hi", "( seq\n( goal ) )"),
    ],
)
def test_corpus_pair_rejects_unserializable_fields(utterance, form):
    with pytest.raises(ValueError):
        CorpusPair(utterance, form)


# Every character str.splitlines() ends a line at.
_LINE_BREAKS = [c for c in map(chr, range(0x3000)) if len(f"a{c}b".splitlines()) == 2]


@pytest.mark.parametrize("char", _LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in _LINE_BREAKS])
def test_corpus_pair_rejects_every_line_break(char):
    with pytest.raises(ValueError):
        CorpusPair(f"say a{char}b", "( seq ( goal ) )")
    with pytest.raises(ValueError):
        CorpusPair("say ab", f"( seq{char}( goal ) )")


def _pair_or_nothing(utterance, form):
    try:
        return CorpusPair(utterance, form)
    except ValueError:
        return None


_ANY_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=()), max_size=12)
_TSV_CHARS = st.text(st.sampled_from(["a", " ", "\t", *_LINE_BREAKS]), max_size=6)
_FIELD = _ANY_TEXT | _TSV_CHARS


@given(st.lists(st.builds(_pair_or_nothing, _FIELD, _FIELD), max_size=6))
@settings(max_examples=300)
def test_read_tsv_inverts_write_tsv(pairs):
    # every pair that constructs, so every corpus that does
    corpus = Corpus(tuple(pair for pair in pairs if pair is not None), "eval")
    assert read_tsv(write_tsv(corpus), split="eval") == corpus


def test_read_tsv_accepts_crlf_line_ends():
    corpus = read_tsv("say hi\t( seq ( say ( words ( $0 ( hi ) ) ) ) )\r\ngoal\t( seq ( goal ) )\r\n")
    assert [pair.utterance for pair in corpus] == ["say hi", "goal"]


# ------------------------------------------------------------- vocab stats


def test_vocab_stats_counts_distinct_whitespace_tokens():
    pair = CorpusPair("say hi", "( seq ( say ( words ( $0 ( hi ) ) ) ) )")
    corpus = Corpus((pair,), "test")
    # input: {say, hi}; output: {(, ), seq, say, words, $0, hi}
    assert vocab_stats(corpus) == (2, 7)


def test_vocab_stats_on_generated_corpus(seed7):
    train, test = seed7
    combined = Corpus(train.pairs + test.pairs, "all")
    n_in, n_out = vocab_stats(combined)
    assert n_out < 80
    assert n_in > n_out  # surface forms vary more than the canonical side
