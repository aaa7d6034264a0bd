"""Whole-pipeline acceptance gates.

Each test covers one shipping requirement and prints a single PASS/FAIL
line (visible under ``pytest -s``); the assertions carry the details.
"""

from __future__ import annotations

import random
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from functools import partial
from importlib import resources

import pytest

from seqlang.btxml import EmitError, XmlShapeError, emit, parse_bt_xml
from seqlang.dataset import (
    Corpus,
    CorpusPair,
    FormatError,
    InsufficientSpace,
    generate,
    read_tsv,
    vocab_stats,
)
from seqlang.evaluation import evaluate
from seqlang.frontend import (
    Lexicon,
    LexiconError,
    NoVerbMatch,
    load_lexicon,
    translate,
)
from seqlang.interpreter import FAILURE, SUCCESS, MockPlant, run
from seqlang.logical_form import (
    ActionNode,
    BadVariableError,
    EmptyValueError,
    FormSyntaxError,
    InvalidNameError,
    ParamNode,
    SequenceNode,
    TrailingTokensError,
    parse_logical_form,
    render,
)
from seqlang.registry import ConfigParseError, builtin_registry, load_registry, validate

from support import random_messy_tree, random_tree


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    else:
        print(f"PASS  {label}")


@pytest.fixture(scope="module")
def seed7_corpus():
    return generate(1000, 250, seed=7)


# 1 ----------------------------------------------------------------------


def test_round_trip_holds_for_ten_thousand_trees():
    with verdict("parse/render round trip, 10,000 random trees in under 10 s"):
        rng = random.Random(1001)
        started = time.perf_counter()
        for index in range(10_000):
            tree = random_tree(rng) if index % 2 else random_messy_tree(rng)
            assert parse_logical_form(render(tree)) == tree
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"round trips took {elapsed:.2f}s"


# 2 ----------------------------------------------------------------------


def test_generated_corpus_meets_size_and_vocabulary_budget(seed7_corpus):
    train, test = seed7_corpus
    combined = Corpus(train.pairs + test.pairs, "all")
    input_size, output_size = vocab_stats(combined)
    print(f"corpus vocabulary: input {input_size}, output {output_size}")
    with verdict("seeded corpus: 1000/250 disjoint valid pairs, output vocab < 80"):
        assert (len(train), len(test)) == (1000, 250)

        train_keys = {(p.utterance, p.logical_form) for p in train}
        test_keys = {(p.utterance, p.logical_form) for p in test}
        assert len(train_keys) == 1000 and len(test_keys) == 250
        assert not train_keys & test_keys

        registry = builtin_registry()
        lengths = set()
        for pair in combined:
            tree = parse_logical_form(pair.logical_form)
            assert validate(tree, registry, "strict") == []
            lengths.add(len(tree.actions))
        assert 7 in lengths, "no seven-action mission in the corpus"

        assert output_size < 80


# 3 ----------------------------------------------------------------------


def _lexicon_without(actions):
    text = resources.files("seqlang").joinpath("data/lexicon.txt").read_text("utf-8")
    kept = []
    for line in text.splitlines():
        stripped = line.strip()
        if "=" in stripped and not stripped.startswith(("#", "[")):
            left, right = (part.strip() for part in stripped.split("=", 1))
            if right in actions and not left.startswith("after"):
                continue
        kept.append(line)
    return load_lexicon("\n".join(kept), builtin_registry())


def test_default_lexicon_is_exact_and_degrades_predictably(seed7_corpus):
    _, test = seed7_corpus
    with verdict("frontend exact match 1.0; crippled lexicon misses its own pairs"):
        full = evaluate(translate, test)
        assert full.accuracy == 1.0, f"accuracy {full.accuracy:.4f} on the test split"

        crippled = _lexicon_without({"gate", "goal"})
        partial = evaluate(lambda text: translate(text, crippled), test)
        assert partial.accuracy < 1.0

        affected = {
            index
            for index, pair in enumerate(test.pairs)
            if any(
                action.name in ("gate", "goal")
                for action in parse_logical_form(pair.logical_form).actions
            )
        }
        missed = {row.index for row in partial.failures}
        assert missed == affected, "misses are not exactly the de-lexiconed pairs"


# 4 ----------------------------------------------------------------------


def _leaf_order(xml_text):
    root = ET.fromstring(xml_text)
    sequence = root[0][0]
    return [tag[0].lower() + tag[1:] for tag in (leaf.tag for leaf in sequence)]


def test_execution_order_matches_emitted_document_order(seed7_corpus):
    train, _ = seed7_corpus
    with verdict("1000 missions: tree order == XML leaf order == trace order"):
        for pair in train:
            tree = parse_logical_form(pair.logical_form)
            xml = emit(tree)
            trace, status = run(xml)
            assert status == SUCCESS
            tree_order = [action.name for action in tree.actions]
            assert _leaf_order(xml) == tree_order
            assert [entry.action for entry in trace] == tree_order


# 5 ----------------------------------------------------------------------


def test_emitter_is_deterministic_and_reversible():
    with verdict("XML emission byte-stable, well-formed, and reader-invertible"):
        rng = random.Random(2002)
        for _ in range(1000):
            tree = random_tree(rng)
            first = emit(tree)
            assert emit(tree) == first  # byte identical on repeat
            ET.fromstring(first)  # well-formed for a stock parser
            assert parse_bt_xml(first) == parse_logical_form(render(tree))

        messy = [random_messy_tree(rng) for _ in range(200)]
        for tree in messy:
            assert emit(tree) == emit(tree)


# 6 ----------------------------------------------------------------------


def _dup_param_tree():
    return SequenceNode(
        (
            ActionNode(
                "say",
                (ParamNode("words", 0, "a"), ParamNode("words", 1, "b")),
            ),
        )
    )


MALFORMED_XML = [
    ("xml not well-formed", "<root>"),
    ("xml wrong root", "<tree/>"),
    ("xml no behavior tree", '<root main_tree_to_execute="M"/>'),
    ("xml nested leaf", (
        '<root main_tree_to_execute="M"><BehaviorTree ID="M"><Sequence>'
        "<Goal><Gate/></Goal></Sequence></BehaviorTree></root>"
    )),
    ("xml bare paren token in attribute", (
        '<root main_tree_to_execute="M"><BehaviorTree ID="M"><Sequence>'
        '<Say words="( hi )"/></Sequence></BehaviorTree></root>'
    )),
    ("xml bad leaf after a move", (
        '<root main_tree_to_execute="M"><BehaviorTree ID="M"><Sequence>'
        '<Move x="1" z="2"/><Say words="a  b"/></Sequence></BehaviorTree></root>'
    )),
]

MALFORMED = [
    ("empty form", lambda: parse_logical_form(""), FormSyntaxError),
    ("bare word", lambda: parse_logical_form("seq"), FormSyntaxError),
    ("unclosed sequence", lambda: parse_logical_form("( seq"), FormSyntaxError),
    ("unopened action", lambda: parse_logical_form("( seq goal ) )"), FormSyntaxError),
    ("trailing tokens", lambda: parse_logical_form("( seq ( goal ) ) )"), TrailingTokensError),
    ("uppercase action", lambda: parse_logical_form("( seq ( Goal ) )"), InvalidNameError),
    ("hyphenated param", lambda: parse_logical_form("( seq ( say ( wo-rds ( $0 ( a ) ) ) ) )"), InvalidNameError),
    ("missing variable", lambda: parse_logical_form("( seq ( say ( words ( x0 ( a ) ) ) ) )"), BadVariableError),
    ("zero-padded variable", lambda: parse_logical_form("( seq ( say ( words ( $01 ( a ) ) ) ) )"), BadVariableError),
    ("empty value", lambda: parse_logical_form("( seq ( say ( words ( $0 ( ) ) ) ) )"), EmptyValueError),
    ("nested sequence", lambda: parse_logical_form("( seq ( seq ) )"), FormSyntaxError),
    ("paren in value", lambda: parse_logical_form("( seq ( say ( words ( $0 ( a ( b ) ) ) ) ) )"), FormSyntaxError),
    ("capitalized registry name", lambda: load_registry("Bad\n"), ConfigParseError),
    ("registry duplicate param", lambda: load_registry("move x x\n"), ConfigParseError),
    ("emit duplicate param", lambda: emit(_dup_param_tree()), EmitError),
    *[(label, partial(parse_bt_xml, xml), XmlShapeError) for label, xml in MALFORMED_XML],
    ("unmatched utterance", lambda: translate("transmogrify the widget"), NoVerbMatch),
    ("lexicon repeated trigger", lambda: Lexicon(verbs=((("dive",), "move"), (("dive",), "flatten"))), ValueError),
    ("lexicon unknown action", lambda: load_lexicon("[verbs]\ngo = warp\n", builtin_registry()), LexiconError),
    ("tsv missing tab", lambda: read_tsv("no tab\n"), FormatError),
    ("empty corpus field", lambda: CorpusPair("", "( seq ( goal ) )"), ValueError),
    ("template space too small", lambda: generate(
        7, 7, seed=1, templates={"goal": lambda rng: ("goal", ActionNode("goal"))}
    ), InsufficientSpace),
    ("negative variable index", lambda: ParamNode("x", -1, "1"), ValueError),
    ("action named seq", lambda: SequenceNode((ActionNode("seq"),)), ValueError),
]


def test_malformed_inputs_raise_structured_errors():
    with verdict(f"{len(MALFORMED)} malformed inputs all raise typed errors"):
        assert len(MALFORMED) >= 20
        for label, attempt, expected in MALFORMED:
            with pytest.raises(expected):
                attempt()
                pytest.fail(f"{label}: no error raised")
        # run refuses each bad document as the reader does, with the plant untouched
        for label, xml in MALFORMED_XML:
            with pytest.raises(XmlShapeError) as read:
                parse_bt_xml(xml)
            plant = MockPlant()
            with pytest.raises(XmlShapeError) as ran:
                run(xml, plant)
            assert str(ran.value) == str(read.value), label
            assert plant.pose == [0.0] * 6 and plant.transcript == [], label


# 7 ----------------------------------------------------------------------


def test_fail_injection_truncates_traces_everywhere(seed7_corpus):
    train, _ = seed7_corpus
    with verdict("fail injection at every step of 50 missions: k+1 entries, FAILURE"):
        for pair in train.pairs[:50]:
            tree = parse_logical_form(pair.logical_form)
            xml = emit(tree)
            for k in range(len(tree.actions)):
                plant = MockPlant()
                plant.fail_injections.add(k)
                trace, status = run(xml, plant)
                assert status == FAILURE
                assert len(trace) == k + 1
                assert trace[-1].status == FAILURE
                assert all(entry.status == SUCCESS for entry in trace[:-1])
