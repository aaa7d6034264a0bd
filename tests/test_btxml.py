"""XML emission bytes, ordering rules, and the reader's shape checks."""

import json
import operator
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from string import ascii_letters, ascii_lowercase, digits

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import seqlang
from seqlang.btxml import EmitError, XmlShapeError, _read_any, _read_leaves, _recognize, emit, parse_bt_xml
from seqlang.dataset import generate
from seqlang.frontend import translate
from seqlang.interpreter import MockPlant, run
from seqlang.logical_form import (
    RESERVED_HEAD,
    ActionNode,
    LogicalFormError,
    ParamNode,
    SequenceNode,
    is_param_value,
    parse_logical_form,
    render,
)
from seqlang.logical_form import _action, _param, _sequence
from seqlang.registry import builtin_registry, load_registry
from support import best_of_5_each, bytecode_growth, random_tree, rebuild
from test_logical_form_oracle import identifiers, shaped_soup

FLATTEN_GOAL_XML = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<root main_tree_to_execute="MainTree">\n'
    '  <BehaviorTree ID="MainTree">\n'
    "    <Sequence>\n"
    '      <Flatten num="2"/>\n'
    "      <Goal/>\n"
    "    </Sequence>\n"
    "  </BehaviorTree>\n"
    "</root>\n"
)


# Text, a <Sequence> attribute and a foreign element, which the reader once
# ignored to give ( seq ( goal ) ).
JUNK_XML = (
    '<root><BehaviorTree><Sequence foo="1">junk<Goal>text</Goal>tail</Sequence>'
    "</BehaviorTree><Other/></root>"
)


def test_emit_flatten_goal_bytes():
    tree = parse_logical_form("( seq ( flatten ( num ( $0 ( 2 ) ) ) ) ( goal ) )")
    assert emit(tree) == FLATTEN_GOAL_XML


def test_emit_empty_sequence_self_closes():
    xml = emit(SequenceNode(()))
    assert "    <Sequence/>\n" in xml
    assert "</Sequence>" not in xml


def test_emit_uppercases_first_letter_only():
    xml = emit(parse_logical_form("( seq ( move_fast ) )"), load_registry("move_fast\n"))
    assert "<Move_fast/>" in xml


def test_emit_escapes_attribute_values():
    tree = SequenceNode((ActionNode("say", (ParamNode("words", 0, 'a <b> & "c"'),)),))
    xml = emit(tree)
    assert 'words="a &lt;b&gt; &amp; &quot;c&quot;"' in xml
    # and the reader undoes it
    back = parse_bt_xml(xml)
    assert back.actions[0].params[0].value == 'a <b> & "c"'


def test_emit_orders_attributes_by_schema():
    tree = SequenceNode(
        (
            ActionNode(
                "move",
                (
                    ParamNode("pitch", 0, "3"),
                    ParamNode("x", 1, "1"),
                    ParamNode("yaw", 2, "9"),
                ),
            ),
        )
    )
    assert '<Move x="1" pitch="3" yaw="9"/>' in emit(tree)


def test_emit_puts_unknown_params_last_alphabetically():
    tree = SequenceNode(
        (
            ActionNode(
                "flatten",
                (
                    ParamNode("zz", 0, "1"),
                    ParamNode("aa", 1, "2"),
                    ParamNode("num", 2, "3"),
                ),
            ),
        )
    )
    assert '<Flatten num="3" aa="2" zz="1"/>' in emit(tree)


def test_emit_sorts_unknown_action_params_alphabetically():
    tree = SequenceNode(
        (ActionNode("warp", (ParamNode("target", 0, "b"), ParamNode("speed", 1, "9"))),)
    )
    assert '<Warp speed="9" target="b"/>' in emit(tree)


def test_emit_custom_tree_id_is_escaped_everywhere():
    xml = emit(SequenceNode(()), tree_id='Survey "A"')
    assert 'main_tree_to_execute="Survey &quot;A&quot;"' in xml
    assert 'ID="Survey &quot;A&quot;"' in xml


def test_emit_writes_blanks_as_character_references():
    tree = SequenceNode((ActionNode("say", (ParamNode("words", 0, "a\rb"),)),))
    xml = emit(tree, tree_id="A\tB\nC\rD")
    assert 'words="a&#13;b"' in xml
    assert 'ID="A&#9;B&#10;C&#13;D"' in xml
    assert parse_bt_xml(xml) == tree


@pytest.mark.parametrize("value", ["a\x0bb", "\x00", "a\ufffeb", "x\ud800"])
def test_emit_rejects_characters_xml_forbids(value):
    tree = SequenceNode((ActionNode("say", (ParamNode("words", 0, value),)),))
    with pytest.raises(EmitError) as info:
        emit(tree)
    assert "not allowed in XML 1.0" in str(info.value)
    with pytest.raises(EmitError):
        emit(SequenceNode(()), tree_id=value)


_ANY_CHAR = st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=())


@given(st.text(_ANY_CHAR) | st.text(st.sampled_from("a &<>\"'\r\x00\x0b\x7f\x85\ud800\ufffe\U00010000")))
@settings(max_examples=500, deadline=None)
def test_emitted_values_round_trip_or_raise(value):
    try:
        tree = SequenceNode((ActionNode("say", (ParamNode("words", 0, value),)),))
    except ValueError:
        assume(False)
    try:
        xml = emit(tree)
    except EmitError:
        return
    assert parse_bt_xml(xml) == tree


def test_emit_names_each_character_xml_forbids():
    # each one, after allowed text in the tree ID and ahead of another in a value
    tree = SequenceNode((ActionNode("say", (ParamNode("words", 0, "a\x0bb"),)),))
    for code in [*range(0x00, 0x09), 0x0B, 0x0C, *range(0x0E, 0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF]:
        with pytest.raises(EmitError) as info:
            emit(tree, tree_id=f"Main&Tree{chr(code)}\x00")
        assert str(info.value) == f"character U+{code:04X} is not allowed in XML 1.0"


@pytest.mark.parametrize("names", [("xmlns",), ("words", "xmlns"), ("xmlns", "words")])
def test_emit_refuses_a_parameter_named_xmlns(names):
    # an XML reader takes it as a namespace declaration, not as a parameter
    tree = SequenceNode((ActionNode("say", tuple(ParamNode(n, k, "u") for k, n in enumerate(names))),))
    with pytest.raises(EmitError) as info:
        emit(tree)
    assert str(info.value) == "parameter 'xmlns' in action 'say' would declare an XML namespace"


@pytest.mark.parametrize("name", ["xmlnsx", "xml", "xmlns_a", "xmln"])
def test_names_near_xmlns_round_trip(name):
    tree = SequenceNode((ActionNode("say", (ParamNode(name, 0, "u"),)),))
    assert parse_bt_xml(emit(tree)) == tree


def test_emit_rejects_duplicate_params():
    # the first repeat in written order is the one named
    names = ("y", "x", "y", "x")
    tree = SequenceNode((ActionNode("move", tuple(ParamNode(n, k, "1") for k, n in enumerate(names))),))
    with pytest.raises(EmitError) as info:
        emit(tree)
    assert str(info.value) == "duplicate parameter 'y' in action 'move'"


@pytest.mark.parametrize("bad_first", [False, True], ids=["bad-char-later", "bad-char-earlier"])
def test_a_duplicate_parameter_is_reported_ahead_of_a_forbidden_character(bad_first):
    say = ActionNode("say", (ParamNode("words", 0, "a\x0bb"),))
    move = ActionNode("move", (ParamNode("x", 1, "1"), ParamNode("x", 2, "2")))
    with pytest.raises(EmitError) as info:
        emit(SequenceNode((say, move) if bad_first else (move, say)), tree_id="\x0b")
    assert str(info.value) == "duplicate parameter 'x' in action 'move'"


# A reference writer for emit, written from README "Mission XML and the
# mock plant" rather than from btxml.
_REFERENCE_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def _is_xml_char(char: str) -> bool:
    return char in "\t\n\r" or " " <= char <= "\ud7ff" or "\ue000" <= char <= "\ufffd" or char >= "\U00010000"


def reference_emit(tree, registry, tree_id="MainTree"):
    def escape(text):
        return "".join(_REFERENCE_ESCAPES.get(char, char) for char in text)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<root main_tree_to_execute="{escape(tree_id)}">',
        f'  <BehaviorTree ID="{escape(tree_id)}">',
        "    <Sequence>" if tree.actions else "    <Sequence/>",
    ]
    for action in tree.actions:
        names = [p.name for p in action.params]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise EmitError(f"duplicate parameter '{name}' in action '{action.name}'")
        schema = registry.get(action.name)
        slots = {} if schema is None else {name: slot for slot, name in enumerate(schema.params)}
        if schema is not None:
            for alias, target in schema.aliases:
                slots.setdefault(alias, slots[target])
        unknown = len(slots)
        params = sorted(action.params, key=lambda p: (slots.get(p.name, unknown), p.name))
        attrs = "".join(f' {p.name}="{escape(p.value)}"' for p in params)
        lines.append(f"      <{action.name[0].upper()}{action.name[1:]}{attrs}/>")
    if tree.actions:
        lines.append("    </Sequence>")
    document = "\n".join([*lines, "  </BehaviorTree>", "</root>", ""])
    for char in document:
        if not _is_xml_char(char):
            raise EmitError(f"character U+{ord(char):04X} is not allowed in XML 1.0")
    return document


# survey's schema order is not alphabetical; warp and dock are unknown.
_SHAPE_REGISTRY = load_registry("survey speed depth\n")
_SHAPE_PARAMS = {
    "move": ("x", "y", "z", "roll", "pitch", "raw", "yaw", "aa", "zz"),
    "flatten": ("num", "aa"),
    "say": ("words",),
    "goal": ("q",),
    "survey": ("speed", "depth", "aa"),
    "warp": ("target", "speed", "q"),
    "dock": ("q",),
}
_SHAPE_VALUES = ("1", "-2.5", "a b", 'a <b> & "c"', "x\ry", "é", "\U00010000", "&#9;")
# Values any ParamNode may hold, drawn from every code point.
_ANY_VALUE = st.text(_ANY_CHAR, min_size=1).filter(is_param_value)
_XML_FORBIDDEN = st.sampled_from("\x00\x08\x0b\x0c\x1f\ud800\udfff\ufffe\uffff")


# Every character XML 1.0 allows, in one value: the blanks a value may hold
# first, then one space, then the rest in order.
_EVERY_XML_CHAR = "\r \x21" + "".join(
    map(chr, [*range(0x22, 0xD800), *range(0xE000, 0xFFFE), *range(0x10000, 0x110000)])
)


def _with_forbidden(text):
    """``text`` with one character XML 1.0 forbids spliced into it."""
    return st.tuples(text, _XML_FORBIDDEN, text).map("".join)


@st.composite
def shaped_trees(draw):
    """Trees of a few (action, parameter names) shapes, each repeated with

    fresh values: 0-, 1- and many-parameter leaves, yaw beside raw, unknown
    actions and parameters, and now and then a repeated parameter or a
    character XML forbids.
    """
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(sorted(_SHAPE_PARAMS)))
        names = draw(st.lists(st.sampled_from(_SHAPE_PARAMS[action]), max_size=4, unique=True))
        if names and draw(st.sampled_from([False] * 9 + [True])):
            names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
        shapes.append((action, names))
    values = st.sampled_from(_SHAPE_VALUES) | _ANY_VALUE
    if draw(st.sampled_from([False] * 4 + [True])):
        values |= _with_forbidden(_ANY_VALUE).filter(is_param_value)
    actions = []
    counter = 0
    for action, names in draw(st.lists(st.sampled_from(shapes), max_size=12)):
        params = tuple(ParamNode(name, counter + k, draw(values)) for k, name in enumerate(names))
        actions.append(ActionNode(action, params))
        counter += len(params)
    return SequenceNode(tuple(actions))


def _outcome(write, *args):
    try:
        return write(*args)
    except EmitError as exc:
        return f"EmitError: {exc}"


# A forbidden character in the tree ID comes ahead of one in a value, so
# the character named must be the document's first.
@given(
    shaped_trees(),
    st.sampled_from(["MainTree", 'A "b" & <c>', "t\tid"]) | st.text(_ANY_CHAR) | _with_forbidden(st.text(_ANY_CHAR)),
)
@example(SequenceNode((ActionNode("say", (ParamNode("words", 0, "a\x00b"),)),)), "t\ud800")
@example(SequenceNode((ActionNode("say", (ParamNode("words", 0, _EVERY_XML_CHAR),)),)), "\t\n" + _EVERY_XML_CHAR[:97])
@settings(max_examples=500, deadline=None)
def test_emit_agrees_with_a_reference_writer(tree, tree_id):
    assert _outcome(emit, tree, _SHAPE_REGISTRY, tree_id) == _outcome(reference_emit, tree, _SHAPE_REGISTRY, tree_id)


def test_emit_is_byte_deterministic():
    rng = random.Random(77)
    registry = builtin_registry()
    for _ in range(100):
        tree = random_tree(rng)
        assert emit(tree, registry) == emit(tree, builtin_registry())


def test_emitted_documents_are_well_formed():
    rng = random.Random(78)
    for _ in range(50):
        root = ET.fromstring(emit(random_tree(rng)))
        assert root.tag == "root"


def test_emit_defaults_to_the_builtin_registry():
    tree = parse_logical_form("( seq ( goal ) )")
    assert emit(tree, tree_id="Alt") == emit(tree, builtin_registry(), "Alt")


# ------------------------------------------------------------------ reader


def test_parse_bt_xml_round_trips_emitted_trees():
    rng = random.Random(79)
    for _ in range(200):
        tree = random_tree(rng)
        assert parse_bt_xml(emit(tree)) == tree


# Every word of logical_form.IDENT_RE's language, drawn faster than st.from_regex draws it.
IDENTS = st.builds(operator.add, st.sampled_from(ascii_lowercase), st.text(ascii_lowercase + digits + "_"))


@st.composite
def named_trees(draw):
    """Trees whose action and parameter names are any lowercase identifiers,

    known or not, with each action's parameters in the order emit writes.
    """
    actions = []
    counter = 0
    for name in draw(st.lists(IDENTS.filter(lambda name: name != RESERVED_HEAD), max_size=4)):
        names = sorted(draw(st.lists(IDENTS, max_size=3, unique=True)), key=builtin_registry().param_order(name))
        params = [ParamNode(pname, counter + k, draw(st.text().filter(is_param_value))) for k, pname in enumerate(names)]
        actions.append(ActionNode(name, tuple(params)))
        counter += len(params)
    return SequenceNode(tuple(actions))


@given(named_trees(), st.text())
@settings(max_examples=200, deadline=None)
def test_parse_bt_xml_inverts_emit_for_any_names_and_tree_id(tree, tree_id):
    try:
        xml = emit(tree, tree_id=tree_id)
    except EmitError:
        assume(False)
    assert parse_bt_xml(xml) == tree


def test_parse_bt_xml_renumbers_in_document_order():
    xml = emit(parse_logical_form("( seq ( move ( x ( $0 ( 1 ) ) ) ( y ( $1 ( 2 ) ) ) ) ( flatten ( num ( $2 ( 3 ) ) ) ) )"))
    tree = parse_bt_xml(xml)
    assert [p.var_index for a in tree.actions for p in a.params] == [0, 1, 2]


def test_parse_bt_xml_reads_empty_sequence():
    assert parse_bt_xml(emit(SequenceNode(()))) == SequenceNode(())


def test_parse_bt_xml_picks_the_named_tree():
    xml = (
        '<root main_tree_to_execute="B">'
        '<BehaviorTree ID="A"><Sequence><Goal/></Sequence></BehaviorTree>'
        '<BehaviorTree ID="B"><Sequence><Gate/></Sequence></BehaviorTree>'
        "</root>"
    )
    tree = parse_bt_xml(xml)
    assert [a.name for a in tree.actions] == ["gate"]


def test_parse_bt_xml_accepts_single_tree_without_selector():
    xml = "<root><BehaviorTree><Sequence><Goal/></Sequence></BehaviorTree></root>"
    assert [a.name for a in parse_bt_xml(xml).actions] == ["goal"]


@pytest.mark.parametrize(
    "xml, needle",
    [
        ("<root main_tree_to_execute='M'>", "not well-formed"),
        # where the parser first fails, not where a later close() would
        ('<root><BehaviorTree><Sequence xmlns:p="u"></BehaviorTree></root>', "mismatched tag: line 1, column 44"),
        ("<notroot/>", "document element must be <root>"),
        ("<root/>", "no <BehaviorTree>"),
        ('<root main_tree_to_execute="M"><BehaviorTree ID="X"><Sequence/></BehaviorTree></root>', "no <BehaviorTree> with ID"),
        (
            "<root><BehaviorTree><Sequence/></BehaviorTree><BehaviorTree><Sequence/></BehaviorTree></root>",
            "multiple <BehaviorTree> elements but no main_tree_to_execute (at root)",
        ),
        ("<root><BehaviorTree/></root>", "exactly one <Sequence>"),
        ("<root><BehaviorTree><Sequence/><Sequence/></BehaviorTree></root>", "exactly one <Sequence>"),
        ("<root><BehaviorTree><Fallback/></BehaviorTree></root>", "exactly one <Sequence>"),
        (
            "<root><BehaviorTree><Sequence><Goal><Gate/></Goal></Sequence></BehaviorTree></root>",
            "may not have children",
        ),
        ("<root><BehaviorTree><Sequence><_goal/></Sequence></BehaviorTree></root>", "does not name an action"),
        ("<root><BehaviorTree><Sequence><Seq/></Sequence></BehaviorTree></root>", "does not name an action"),
        # seq is a legal attribute name, but never an action name
        ('<root><BehaviorTree><Sequence><Say seq="1"/><Seq/></Sequence></BehaviorTree></root>', "does not name an action"),
        (
            '<root><BehaviorTree><Sequence><Say WORDS="hi"/></Sequence></BehaviorTree></root>',
            "not a parameter name",
        ),
        (
            '<root><BehaviorTree><Sequence><Say words=""/></Sequence></BehaviorTree></root>',
            "single-spaced",
        ),
        (
            '<root><BehaviorTree><Sequence><Say words="a  b"/></Sequence></BehaviorTree></root>',
            "single-spaced",
        ),
        (
            '<root><BehaviorTree><Sequence><Say words="( x )"/></Sequence></BehaviorTree></root>',
            "single-spaced",
        ),
        # a leaf that would move the plant comes before the bad one
        (
            '<root><BehaviorTree><Sequence><Move x="1"/><Say WORDS="hi"/></Sequence></BehaviorTree></root>',
            "not a parameter name",
        ),
        (
            '<root><BehaviorTree><Sequence><Flatten num="2"/><Say words="a  b"/></Sequence></BehaviorTree></root>',
            "single-spaced",
        ),
        (
            '<root><BehaviorTree><Sequence><Move x="1"/><Goal><Gate/></Goal></Sequence></BehaviorTree></root>',
            "may not have children",
        ),
        (JUNK_XML, "may hold only <BehaviorTree>"),
        ("<root><Other/></root>", "may hold only <BehaviorTree>"),
        ('<root><BehaviorTree><Sequence foo="1"><Goal/></Sequence></BehaviorTree></root>', "may not have attributes"),
        ("<root><BehaviorTree><Sequence>junk<Goal/></Sequence></BehaviorTree></root>", "text inside <Sequence>"),
        ("<root><BehaviorTree><Sequence><Goal>text</Goal></Sequence></BehaviorTree></root>", "text inside <Goal>"),
        ("<root><BehaviorTree><Sequence><Goal/>tail</Sequence></BehaviorTree></root>", "text after <Goal>"),
        ("<root>x<BehaviorTree><Sequence/></BehaviorTree></root>", "text inside <root>"),
        ("<root><BehaviorTree><Sequence/>x</BehaviorTree></root>", "text after <Sequence>"),
        ("<root><BehaviorTree><Sequence/></BehaviorTree>&#160;</root>", "text after <BehaviorTree>"),
    ],
)
def test_parse_bt_xml_shape_errors(xml, needle):
    with pytest.raises(XmlShapeError) as info:
        parse_bt_xml(xml)
    assert needle in str(info.value)
    # run refuses the same document in the same words, before ticking any leaf
    plant = MockPlant()
    with pytest.raises(XmlShapeError) as ran:
        run(xml, plant)
    assert str(ran.value) == str(info.value)
    assert plant.pose == [0.0] * 6
    assert plant.transcript == []


def test_malformed_xml_reports_a_line():
    bad = '<root main_tree_to_execute="M">\n<BehaviorTree>\n</root>'
    with pytest.raises(XmlShapeError) as info:
        parse_bt_xml(bad)
    assert info.value.line == 3


@pytest.mark.parametrize(
    "xml, path",
    [
        (JUNK_XML, "root child 1 <Other>"),
        ('<root><BehaviorTree><Sequence foo="1"/></BehaviorTree></root>', "Sequence"),
        (
            "<root><BehaviorTree><Sequence><Goal/><Gate>x</Gate></Sequence></BehaviorTree></root>",
            "root child 0 <BehaviorTree> child 0 <Sequence> child 1 <Gate>",
        ),
        (
            '<root main_tree_to_execute="A"><BehaviorTree ID="A"><Sequence/></BehaviorTree>'
            '<BehaviorTree ID="B"><Fallback><X/></Fallback>tail</BehaviorTree></root>',
            "root child 1 <BehaviorTree> child 0 <Fallback>",
        ),
        # an element's tail is reported ahead of text inside its children
        (
            "<root><BehaviorTree><Sequence><Goal>x</Goal></Sequence>tail</BehaviorTree></root>",
            "root child 0 <BehaviorTree> child 0 <Sequence>",
        ),
        (
            '<root main_tree_to_execute="A"><BehaviorTree ID="A"><Sequence/></BehaviorTree>'
            '<BehaviorTree ID="B"><F><G><H><I>deep</I></H></G></F></BehaviorTree></root>',
            "root child 1 <BehaviorTree> child 0 <F> child 0 <G> child 0 <H> child 0 <I>",
        ),
    ],
)
def test_stray_content_errors_name_where_it_is(xml, path):
    with pytest.raises(XmlShapeError) as info:
        parse_bt_xml(xml)
    assert info.value.path == path


def test_blank_text_between_elements_is_accepted():
    xml = "<root>\n <BehaviorTree>\r\n\t<Sequence> <Goal> </Goal>&#13;\n</Sequence> </BehaviorTree>\n</root>"
    assert parse_bt_xml(xml) == SequenceNode((ActionNode("goal"),))


def test_shape_errors_name_the_offending_child():
    xml = "<root><BehaviorTree><Sequence><Goal/><_x/></Sequence></BehaviorTree></root>"
    with pytest.raises(XmlShapeError) as info:
        parse_bt_xml(xml)
    assert info.value.path == "Sequence child 1 <_x>"


@pytest.mark.parametrize(
    "leaves, needle, path",
    [
        ('<Say seq="1"/><Seq/>', "element <Seq> does not name an action", "Sequence child 1 <Seq>"),
        ("<Goal/><Goal/><_goal/>", "element <_goal> does not name an action", "Sequence child 2 <_goal>"),
        ('<Say words="a"/><Say words="b" WORDS="c"/>', "'WORDS' is not a parameter name", "Sequence child 1 <Say>"),
        ('<Say words="a"/><Goal words="b"/><Say words="a  b"/>', "'words' is not single-spaced", "Sequence child 2 <Say>"),
        ("<Say/><SAY/><Seq/>", "element <Seq> does not name an action", "Sequence child 2 <Seq>"),
        ('<Say words="a b"/><Find val="a b"/><Find val="a  b"/>', "'val' is not single-spaced", "Sequence child 2 <Find>"),
        ('<Say words="a"/><Say seq="a"/><Seq/>', "element <Seq> does not name an action", "Sequence child 2 <Seq>"),
    ],
)
def test_a_name_read_before_does_not_hide_a_bad_one(leaves, needle, path):
    xml = f"<root><BehaviorTree><Sequence>{leaves}</Sequence></BehaviorTree></root>"
    for read in (parse_bt_xml, run):
        with pytest.raises(XmlShapeError) as info:
            read(xml)
        assert needle in str(info.value)
        assert info.value.path == path


@pytest.mark.parametrize(
    "sequence, message, path",
    [
        (
            '<Sequence xmlns:p="u"><Say xmlns:q="v" words="a"/></Sequence>',
            "<Sequence> may not have attributes",
            "Sequence",
        ),
        (
            '<Sequence><Say xmlns:q="v" words="a"/></Sequence>',
            "attribute 'xmlns:q' is not a parameter name",
            "Sequence child 0 <Say>",
        ),
        # ahead of the leaf's own attributes, wherever it is written
        (
            '<Sequence><Goal/><Say words="a  b" xmlns:q="v"/></Sequence>',
            "attribute 'xmlns:q' is not a parameter name",
            "Sequence child 1 <Say>",
        ),
        (
            '<Sequence><Say xmlns:q="v" q:words="a"/></Sequence>',
            "attribute 'xmlns:q' is not a parameter name",
            "Sequence child 0 <Say>",
        ),
    ],
    ids=["on-sequence", "on-leaf", "after-an-attribute", "used-by-an-attribute"],
)
def test_a_namespace_declaration_with_a_prefix_is_an_attribute(sequence, message, path):
    xml = f"<root><BehaviorTree>{sequence}</BehaviorTree></root>"
    plant = MockPlant()
    for read in (parse_bt_xml, lambda xml: run(xml, plant)):
        with pytest.raises(XmlShapeError) as info:
            read(xml)
        assert (info.value.message, info.value.line, info.value.path) == (message, None, path)
    assert plant.pose == [0.0] * 6
    assert plant.transcript == []


def test_namespace_declarations_on_root_and_behavior_tree_are_accepted():
    xml = FLATTEN_GOAL_XML.replace("<root ", '<root xmlns:p="u" ').replace("<BehaviorTree ", '<BehaviorTree xmlns:q="v" ')
    assert parse_bt_xml(xml) == parse_bt_xml(FLATTEN_GOAL_XML)
    assert run(xml) == run(FLATTEN_GOAL_XML)


def test_reader_and_renderer_agree_on_canonical_forms():
    rng = random.Random(80)
    for _ in range(100):
        tree = random_tree(rng)
        assert render(parse_bt_xml(emit(tree))) == render(tree)


@given(shaped_soup())
@settings(max_examples=200, deadline=None)
def test_read_trees_of_emitted_forms_pass_the_constructor_checks(text):
    try:
        xml = emit(parse_logical_form(text))
    except (LogicalFormError, EmitError):
        return
    tree = parse_bt_xml(xml)
    assert rebuild(tree) == tree


# Values the reader accepts, written in every way XML allows, and near misses.
ATTR_VALUES = ("hi", "a b", "1.5", "a(b", "&#9;", "a&#10;b", "&#13;", "&amp;", "é", "", "a  b", "( x )", "\r")


def _document(leaves, blank):
    body = "".join(
        f"{blank}<{tag}" + "".join(f' {name}="{value}"' for name, value in attrs.items()) + "/>"
        for tag, attrs in leaves
    )
    return f"<root><BehaviorTree><Sequence>{body}</Sequence></BehaviorTree></root>"


def drawn_documents():
    """Mission documents of drawn leaves: any tags, the plant's own ones

    among them, each with drawn attributes set to ``ATTR_VALUES``.
    """
    tags = identifiers(ascii_letters) | st.sampled_from(("Move", "Flatten", "Say", "Seq"))
    names = identifiers(ascii_lowercase) | st.sampled_from(("x", "yaw", "num", "seq"))
    leaves = st.lists(st.tuples(tags, st.dictionaries(names, st.sampled_from(ATTR_VALUES), max_size=3)), max_size=5)
    return st.builds(_document, leaves, st.sampled_from(("", " ", "\n\t")))


@given(drawn_documents())
@settings(max_examples=200, deadline=None)
def test_read_trees_of_drawn_documents_pass_the_constructor_checks(xml):
    try:
        tree = parse_bt_xml(xml)
    except XmlShapeError:
        return
    assert rebuild(tree) == tree


# ------------------------------------------- emit's own layout, read without a parser

# Pieces an edit inserts or puts in place of a slice of an emitted document.
_EDIT_PIECES = (
    *"<>/\"'&;= \n\r\t\x0bé", "&#x41;", "&amp;", "&#62;", "<!--c-->", "Seq", ' xmlns="u"', ' a="1"',
)


@st.composite
def edited_documents(draw):
    """Emitted documents with 0-3 edits.  The trees are built unchecked,

    so a name may be ``seq`` or ``xmlns`` and a value may hold a tab.  A
    tree emit refuses for its ``xmlns`` is written by the reference writer.
    """
    names = IDENTS | st.sampled_from(("seq", "xmlns", "xml", "say", "words"))
    values = st.sampled_from(_SHAPE_VALUES[:5]) | st.text(st.sampled_from('ab &<>"\t\ré'), max_size=5)
    actions = []
    for name in draw(st.lists(names, max_size=4)):
        params = draw(st.lists(st.tuples(names, values), max_size=3, unique_by=lambda param: param[0]))
        actions.append(_action(name, tuple(_param(k, j, v) for j, (k, v) in enumerate(params))))
    tree = _sequence(tuple(actions))
    odd_ids = st.text(st.sampled_from('ab &<>"\t\r\né'), max_size=4)
    tree_id = draw(st.sampled_from(("MainTree", "", "a>b", 'q"&')) | odd_ids)
    try:
        xml = emit(tree, _SHAPE_REGISTRY, tree_id)
    except EmitError:
        xml = reference_emit(tree, _SHAPE_REGISTRY, tree_id)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(xml)))
        end = draw(st.integers(start, min(start + 8, len(xml))))
        xml = xml[:start] + draw(st.sampled_from(("",) + _EDIT_PIECES)) + xml[end:]
    return xml


def _read_outcome(read, xml):
    try:
        return read(xml)
    except XmlShapeError as exc:
        return "XmlShapeError", str(exc), exc.line, exc.path


_SAY_HI = emit(parse_logical_form("( seq ( say ( words ( $0 ( hi ) ) ) ) ( goal ) )"))


@given(edited_documents())
@example(_SAY_HI.replace("    </Sequence>", "x    </Sequence>"))
@example(_SAY_HI.replace("<Say ", '<Say xmlns="u" '))
@example(_SAY_HI.replace('words="hi"', 'words="hi" words="ho"'))
@example(_SAY_HI.replace("<Goal/>", "<Seq/>"))
@example(emit(SequenceNode(()), tree_id="a>b").replace("&gt;", "&#62;", 1))
@example(_SAY_HI.replace('ID="MainTree"', 'ID="Other"'))
@settings(max_examples=1000, deadline=None)
def test_reading_without_a_parser_changes_no_outcome(xml):
    assert _read_outcome(_read_leaves, xml) == _read_outcome(_read_any, xml)


# A value holding each character emit writes as a reference, and a tree ID
# holding "&".  Tab and LF make values the reader refuses, which the
# ElementTree reader reports.
_REFERENCED = [*((f"a{char}b", "MainTree") for char in '&<>"\t\n\r'), ("a", "a&b")]


@pytest.mark.parametrize("value, tree_id", _REFERENCED, ids=repr)
def test_only_the_element_tree_reader_decodes_references(value, tree_id):
    xml = emit(_sequence((_action("say", (_param("words", 0, value),)),)), tree_id=tree_id)
    assert "&" in xml
    assert _recognize(xml) is None
    assert _read_outcome(_read_leaves, xml) == _read_outcome(_read_any, xml)


def test_every_emitted_corpus_document_is_read_without_a_parser():
    for corpus in generate(300, 100, seed=11):
        for pair in corpus:
            xml = emit(parse_logical_form(pair.logical_form))
            assert xml.isascii()
            leaves = _recognize(xml)
            assert leaves is not None
            assert leaves == _read_any(xml)


_SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)


@given(st.text() | st.just(FLATTEN_GOAL_XML), st.data())
@settings(max_examples=200, deadline=None)
def test_a_lone_surrogate_is_a_shape_error_naming_it(text, data):
    at = data.draw(st.integers(0, len(text)))
    xml = text[:at] + data.draw(_SURROGATES) + text[at:]
    first = next(char for char in xml if "\ud800" <= char <= "\udfff")
    plant = MockPlant()
    for read in (parse_bt_xml, lambda xml: run(xml, plant)):
        with pytest.raises(XmlShapeError) as info:
            read(xml)
        assert info.value.message == f"not well-formed XML: character U+{ord(first):04X} is not allowed in XML 1.0"
    assert plant.pose == [0.0] * 6
    assert plant.transcript == []


def test_a_lone_surrogate_is_reported_on_its_line():
    for newline in ("\n", "\r", "\r\n"):
        xml = FLATTEN_GOAL_XML.replace("\n", newline).replace("<Goal/>", '<Goal q="\udfff"/>')
        with pytest.raises(XmlShapeError) as info:
            parse_bt_xml(xml)
        assert info.value.line == 6


def test_parse_bt_xml_time_at_most_triples_when_the_input_doubles():
    tree = random_tree(random.Random(81), 1000, 1000)
    small, large = best_of_5_each(parse_bt_xml, emit(tree), emit(SequenceNode(tree.actions * 2)))
    assert large <= 3 * small


def test_the_element_tree_reader_time_at_most_triples_when_the_input_doubles():
    # the documents above, re-indented with tabs, which only the full reader takes
    tree = random_tree(random.Random(81), 1000, 1000)
    small, large = (emit(t).replace("  ", "\t") for t in (tree, SequenceNode(tree.actions * 2)))
    assert _recognize(small) is None and _recognize(large) is None
    small, large = best_of_5_each(parse_bt_xml, small, large)
    assert large <= 3 * small


def test_emit_time_at_most_triples_when_the_input_doubles():
    # random_tree gives each action 0 to 3 parameters, known and custom actions alike
    tree = random_tree(random.Random(82), 1000, 1000)
    assert {len(action.params) for action in tree.actions} == {0, 1, 2, 3}
    small, large = best_of_5_each(emit, tree, SequenceNode(tree.actions * 2))
    assert large <= 3 * small


# Bytecode counts beside the clocks above, on the same documents and trees
def test_parse_bt_xml_bytecodes_at_most_2_5x_when_the_input_doubles():
    tree = random_tree(random.Random(81), 1000, 1000)
    assert bytecode_growth(parse_bt_xml, emit(tree), emit(SequenceNode(tree.actions * 2))) <= 2.5


def test_the_element_tree_reader_bytecodes_at_most_2_5x_when_the_input_doubles():
    tree = random_tree(random.Random(81), 1000, 1000)
    small, large = (emit(t).replace("  ", "\t") for t in (tree, SequenceNode(tree.actions * 2)))
    assert _recognize(small) is None and _recognize(large) is None
    assert bytecode_growth(parse_bt_xml, small, large) <= 2.5


def test_emit_bytecodes_at_most_2_5x_when_the_input_doubles():
    tree = random_tree(random.Random(82), 1000, 1000)
    assert bytecode_growth(emit, tree, SequenceNode(tree.actions * 2)) <= 2.5



# Run as `python -I -c` with the package's directory as its one argument:
# it prints, as JSON, which of ElementTree's modules compile, run and the
# reader loaded, then what the reader makes of a tab-indented document
# and of a cut one.
_FRESH_INTERPRETER = """
import json, sys
sys.path.insert(0, sys.argv[1])
import seqlang, seqlang.cli
from seqlang import emit, parse_bt_xml, run, translate
from seqlang.btxml import XmlShapeError
tree = translate(sys.argv[2])
document = emit(tree)
trace, status = run(document)
assert status == "SUCCESS" and len(trace) == 3 and parse_bt_xml(document) == tree
loaded = [name for name in ("xml.etree.ElementTree", "pyexpat") if name in sys.modules]
tabbed = parse_bt_xml(document.replace("      ", "\\t"))
try:
    parse_bt_xml(document[:-2])
except XmlShapeError as exc:
    refusal = str(exc)
print(json.dumps([loaded, repr(tabbed), refusal]))
"""


def test_emitted_documents_never_load_elementtree():
    text = "move to x 3 then say hello there and flatten out at 2"
    package_dir = str(Path(seqlang.__file__).resolve().parent.parent)
    command = [sys.executable, "-I", "-c", _FRESH_INTERPRETER, package_dir, text]
    loaded, tabbed, refusal = json.loads(subprocess.run(command, capture_output=True, text=True, check=True).stdout)
    assert loaded == []
    # the ElementTree reader, loaded there only after run, reads as it does here
    tree = translate(text)
    document = emit(tree)
    assert tabbed == repr(parse_bt_xml(document.replace("      ", "\t"))) == repr(tree)
    with pytest.raises(XmlShapeError) as info:
        parse_bt_xml(document[:-2])
    assert refusal == str(info.value)


# Run as `python -I -c` with the package's directory and an utterance: it
# prints run's status and whether ElementTree is loaded after it.
_FRESH_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from seqlang import emit, run, translate
trace, status = run(emit(translate(sys.argv[2])))
print(json.dumps([status, "xml.etree.ElementTree" in sys.modules]))
"""


def test_running_a_document_holding_a_reference_loads_elementtree():
    package_dir = str(Path(seqlang.__file__).resolve().parent.parent)
    command = [sys.executable, "-I", "-c", _FRESH_RUN, package_dir, "say fish & chips"]
    status, loaded = json.loads(subprocess.run(command, capture_output=True, text=True, check=True).stdout)
    assert status == "SUCCESS" and loaded
