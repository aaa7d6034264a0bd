"""The package's compatibility surface: its exported names and node behaviour."""

import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import seqlang
from seqlang import (
    ActionNode,
    ParamNode,
    SequenceNode,
    TraceEntry,
    default_lexicon,
    emit,
    parse_bt_xml,
    parse_logical_form,
    run,
    translate,
)
from seqlang.interpreter import _entry
from seqlang.logical_form import _action, _param, _sequence

PUBLIC_NAMES = {
    "ActionNode",
    "ActionRegistry",
    "Corpus",
    "CorpusPair",
    "Diagnostic",
    "EvalReport",
    "Lexicon",
    "LogicalFormError",
    "MockPlant",
    "ParamNode",
    "SequenceNode",
    "TraceEntry",
    "builtin_registry",
    "default_lexicon",
    "emit",
    "evaluate",
    "generate",
    "load_lexicon",
    "load_registry",
    "normalize",
    "parse_bt_xml",
    "parse_logical_form",
    "read_tsv",
    "render",
    "run",
    "translate",
    "validate",
    "vocab_stats",
    "write_tsv",
}


def test_package_exports_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(seqlang).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC_NAMES


def test_every_dataclass_has_a_docstring_of_its_own():
    # @dataclass gives a class without one a generated signature, calling
    # inspect.signature at every import
    undocumented = []
    for info in pkgutil.iter_modules(seqlang.__path__):
        module = importlib.import_module(f"seqlang.{info.name}")
        documented = {
            node.name
            for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is not None
        }
        undocumented += [
            f"{module.__name__}.{value.__name__}"
            for value in vars(module).values()
            if dataclasses.is_dataclass(value)
            and isinstance(value, type)
            and value.__module__ == module.__name__
            and value.__name__ not in documented
        ]
    assert undocumented == []


def test_split_clauses_takes_text_and_lexicon():
    from seqlang.frontend import split_clauses

    assert split_clauses("say hi then score a goal", default_lexicon()) == [
        ["say", "hi"],
        ["score", "a", "goal"],
    ]


# Node semantics: what a caller may rely on, whatever the node's layout.

PARAM = ParamNode("words", 0, "hi there")
ACTION = ActionNode("say", (PARAM,))
SEQUENCE = SequenceNode((ACTION, ActionNode("goal")))
ENTRY = TraceEntry(0, "say", (("words", "hi there"),), "SUCCESS")


def _built(source, sequence):
    """The sequence, its first action and that action's first parameter."""
    nodes = (sequence, sequence.actions[0], sequence.actions[0].params[0])
    return [pytest.param(node, id=f"{source}-{type(node).__name__}") for node in nodes]


# The same nodes and an entry from the unchecked builders, which fill twins.
_FORM = "( seq ( say ( words ( $0 ( hi there ) ) ) ) ( goal ) )"
BUILT = [
    *_built("parse_logical_form", parse_logical_form(_FORM)),
    *_built("parse_bt_xml", parse_bt_xml(emit(parse_logical_form(_FORM)))),
    *_built("translate", translate("say hi there then score a goal")),
    pytest.param(run(emit(parse_logical_form(_FORM)))[0][0], id="run-TraceEntry"),
]
NODES = [PARAM, ACTION, SEQUENCE, ENTRY, *BUILT]


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_nodes_are_frozen(node):
    first = dataclasses.fields(node)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, first, getattr(node, first))


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_equal_arguments_give_equal_nodes_and_hashes(node):
    args = [getattr(node, f.name) for f in dataclasses.fields(node)]
    twin = type(node)(*args)
    assert twin == node and twin is not node
    assert hash(twin) == hash(node)
    assert type(node)(**{f.name: getattr(node, f.name) for f in dataclasses.fields(node)}) == node
    assert node != dataclasses.replace(node, **{dataclasses.fields(node)[0].name: _other(node)})


def _other(node):
    """A legal value for the node's first field that differs from its own."""
    return {ParamNode: "num", ActionNode: "gate", SequenceNode: (), TraceEntry: 1}[type(node)]


@pytest.mark.parametrize("node", BUILT)
def test_built_nodes_are_what_the_constructors_make(node):
    made = {ParamNode: PARAM, ActionNode: ACTION, SequenceNode: SEQUENCE, TraceEntry: ENTRY}[type(node)]
    assert node == made and hash(node) == hash(made) and repr(node) == repr(made)


@pytest.mark.parametrize(
    "node_class, twin",
    [(ParamNode, _param.twin), (ActionNode, _action.twin), (SequenceNode, _sequence.twin), (TraceEntry, _entry.twin)],
    ids=lambda c: c.__name__,
)
def test_each_twin_has_its_node_class_slots_and_no_dict_or_weakref(node_class, twin):
    assert twin.__slots__ is node_class.__slots__
    for cls in (node_class, twin):
        instance = object.__new__(cls)
        assert not hasattr(instance, "__dict__") and not hasattr(instance, "__weakref__")


def test_node_reprs_are_exact():
    assert repr(PARAM) == "ParamNode(name='words', var_index=0, value='hi there')"
    assert repr(ActionNode("goal")) == "ActionNode(name='goal', params=())"
    assert repr(ACTION) == (
        "ActionNode(name='say', params=(ParamNode(name='words', var_index=0, value='hi there'),))"
    )
    assert repr(SequenceNode()) == "SequenceNode(actions=())"
    assert repr(SequenceNode((ActionNode("goal"),))) == "SequenceNode(actions=(ActionNode(name='goal', params=()),))"
    assert repr(ENTRY) == (
        "TraceEntry(step=0, action='say', params=(('words', 'hi there'),), status='SUCCESS', warning=False)"
    )


def test_node_fields_are_named_in_order():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(ParamNode) == ["name", "var_index", "value"]
    assert names(ActionNode) == ["name", "params"]
    assert names(SequenceNode) == ["actions"]
    assert names(TraceEntry) == ["step", "action", "params", "status", "warning"]
    assert dataclasses.asdict(ACTION) == {
        "name": "say",
        "params": ({"name": "words", "var_index": 0, "value": "hi there"},),
    }


@pytest.mark.parametrize(
    "node, changes, message",
    [
        (PARAM, {"name": "Words"}, "parameter name 'Words' is not a lowercase identifier"),
        (PARAM, {"var_index": -1}, "variable index -1 must be a non-negative int"),
        (PARAM, {"value": "a  b"}, "parameter value 'a  b' is not single-spaced paren-free tokens"),
        (ACTION, {"name": "Say"}, "action name 'Say' is not a lowercase identifier"),
        (SEQUENCE, {"actions": (ActionNode("seq"),)}, "actions may not be named 'seq'"),
    ],
)
def test_replace_runs_the_constructor_checks(node, changes, message):
    with pytest.raises(ValueError) as info:
        dataclasses.replace(node, **changes)
    assert str(info.value) == message
    assert dataclasses.replace(node) == node


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_nodes_survive_deepcopy_and_pickle(node):
    for twin in (copy.deepcopy(node), copy.copy(node), pickle.loads(pickle.dumps(node))):
        assert twin == node
        assert hash(twin) == hash(node)
        assert repr(twin) == repr(node)


def test_list_arguments_become_tuples():
    action = ActionNode("say", [PARAM])
    assert type(action.params) is tuple and action == ACTION
    assert type(ActionNode("say", iter([PARAM])).params) is tuple
    sequence = SequenceNode([ACTION, ActionNode("goal")])
    assert type(sequence.actions) is tuple and sequence == SEQUENCE
    assert type(dataclasses.replace(ACTION, params=[PARAM]).params) is tuple


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ParamNode("Num", 0, "2"), "parameter name 'Num' is not a lowercase identifier"),
        (lambda: ParamNode("", 0, "2"), "parameter name '' is not a lowercase identifier"),
        (lambda: ParamNode("num", -1, "2"), "variable index -1 must be a non-negative int"),
        (lambda: ParamNode("num", 1.0, "2"), "variable index 1.0 must be a non-negative int"),
        (lambda: ParamNode("num", "0", "2"), "variable index '0' must be a non-negative int"),
        (lambda: ParamNode("num", 0, ""), "parameter value '' is not single-spaced paren-free tokens"),
        (lambda: ParamNode("num", 0, " a"), "parameter value ' a' is not single-spaced paren-free tokens"),
        (lambda: ParamNode("num", 0, "a ) b"), "parameter value 'a ) b' is not single-spaced paren-free tokens"),
        (lambda: ParamNode("num", 0, "("), "parameter value '(' is not single-spaced paren-free tokens"),
        (lambda: ParamNode("num", 0, "a\nb"), "parameter value 'a\\nb' is not single-spaced paren-free tokens"),
        (lambda: ParamNode("num", 0, 2), "parameter value 2 is not single-spaced paren-free tokens"),
        # the checks run in field order: the name is reported first
        (lambda: ParamNode("Num", -1, ""), "parameter name 'Num' is not a lowercase identifier"),
        (lambda: ParamNode("num", -1, ""), "variable index -1 must be a non-negative int"),
        (lambda: ActionNode("Flatten"), "action name 'Flatten' is not a lowercase identifier"),
        (lambda: ActionNode("3d", [PARAM]), "action name '3d' is not a lowercase identifier"),
        (lambda: SequenceNode([ActionNode("goal"), ActionNode("seq")]), "actions may not be named 'seq'"),
    ],
)
def test_node_constructor_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_name_checks_accept_only_lowercase_identifiers():
    assert ParamNode("a_1", 0, "x").name == "a_1"
    assert ActionNode("seq").name == "seq"  # reserved only inside a sequence
    for bad in ("a-b", "a\n", "é", "_a"):
        with pytest.raises(ValueError):
            ParamNode(bad, 0, "x")
        with pytest.raises(ValueError):
            ActionNode(bad)
