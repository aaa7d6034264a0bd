"""Built-in schemas, config loading, and tree validation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlang.dataset import LINE_BREAKS
from seqlang.logical_form import ActionNode, ParamNode, SequenceNode, parse_logical_form
from seqlang.registry import (
    ActionRegistry,
    ActionSchema,
    ConfigParseError,
    Diagnostic,
    builtin_registry,
    load_registry,
    validate,
)
from support import best_of_5_each, bytecode_growth, random_messy_tree


def test_builtins_cover_the_eight_actions():
    registry = builtin_registry()
    assert registry.names() == ("move", "flatten", "say", "clean", "bring", "find", "goal", "gate")
    assert registry.get("move").params == ("x", "y", "z", "roll", "pitch", "raw")
    assert registry.get("flatten").params == ("num",)
    assert registry.get("say").params == ("words",)
    assert registry.get("clean").params == ("obj",)
    assert registry.get("bring").params == ("val",)
    assert registry.get("find").params == ("val",)
    assert registry.get("goal").params == ()
    assert registry.get("gate").params == ()
    assert registry.warnings == ()


def test_yaw_is_an_alias_for_the_sixth_axis():
    move = builtin_registry().get("move")
    assert move.canonical_param("yaw") == "raw"
    assert move.canonical_param("raw") == "raw"
    assert move.slots["yaw"] == move.slots["raw"] == 5
    assert move.canonical_param("heading") is None


def test_schema_guards():
    with pytest.raises(ValueError):
        ActionSchema("move", ("x", "x"))
    with pytest.raises(ValueError):
        ActionSchema("Move", ("x",))
    with pytest.raises(ValueError, match="'seq'"):
        ActionSchema("seq")
    with pytest.raises(ValueError):
        ActionSchema("move", ("x",), (("yaw", "nope"),))
    with pytest.raises(ValueError):
        ActionRegistry((ActionSchema("a"), ActionSchema("a")))


# An alias is a parameter name, so the node's rule and text apply to it too.
@pytest.mark.parametrize("alias", ["Yaw", "seq x", "", "2x", "x-y"])
def test_schemas_refuse_an_alias_the_nodes_refuse(alias):
    with pytest.raises(ValueError) as refusal:
        ParamNode(alias, 0, "v")
    with pytest.raises(ValueError) as info:
        ActionSchema("move", ("raw",), (("yaw", "raw"), (alias, "raw")))
    assert str(info.value) == str(refusal.value) == f"parameter name {alias!r} is not a lowercase identifier"
    with pytest.raises(ValueError) as info:
        ActionSchema("move", ("raw",), ((alias, "nope"),))
    assert str(info.value) == str(refusal.value)


def test_load_registry_adds_custom_actions():
    registry = load_registry(
        """
        # survey payload
        sample depth rate   # trailing comment
        ping
        """
    )
    assert "sample" in registry
    assert registry.get("sample").params == ("depth", "rate")
    assert registry.get("ping").params == ()
    assert "move" in registry
    assert registry.warnings == ()


def test_load_registry_shadows_builtin_with_warning():
    registry = load_registry("flatten depth\n")
    assert registry.get("flatten").params == ("depth",)
    assert len(registry.warnings) == 1
    warning = registry.warnings[0]
    assert warning.severity == "warning"
    assert warning.code == "shadowed-action"
    assert "flatten" in warning.message


def test_load_registry_warns_on_user_redefinition():
    registry = load_registry("ping\nping freq\n")
    assert registry.get("ping").params == ("freq",)
    assert len(registry.warnings) == 1


def test_a_redefined_action_keeps_its_place():
    registry = load_registry("ping\nflatten depth\nping freq\n")
    assert registry.names() == ("move", "flatten", "say", "clean", "bring", "find", "goal", "gate", "ping")
    assert [str(w) for w in registry.warnings] == [
        "warning: line 2 redefines action 'flatten'",
        "warning: line 3 redefines action 'ping'",
    ]


def test_load_registry_time_at_most_triples_when_the_config_doubles():
    small, large = ("\n".join(f"a{i} p q" for i in range(n)) for n in (2000, 4000))
    small, large = best_of_5_each(load_registry, small, large)
    assert large <= 3 * small


def test_load_registry_bytecodes_at_most_2_5x_when_the_config_doubles():
    # the bytecode count beside the clock above, on the same configs
    small, large = ("\n".join(f"a{i} p q" for i in range(n)) for n in (2000, 4000))
    assert bytecode_growth(load_registry, small, large) <= 2.5


@pytest.mark.parametrize(
    "config, line",
    [
        ("Ping\n", 1),
        ("ping Freq\n", 1),
        ("ok\n\nsample depth depth\n", 3),
        ("9lives\n", 1),
        ("ok\nseq a\n", 2),
    ],
)
def test_load_registry_rejects_malformed_lines(config, line):
    with pytest.raises(ConfigParseError) as info:
        load_registry(config)
    assert info.value.line == line
    assert str(info.value).startswith(f"registry config line {line}")


# Names as a config line can hold them: no blank, no comment sign.
_NAMES = st.one_of(
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
    st.just("seq"),
    st.text(min_size=1).filter(lambda s: "#" not in s and s.split() == [s]),
)


def _node_refusal(name, params):
    """What the nodes say of a schema's names, in its order: the action, then each parameter."""
    try:
        SequenceNode((ActionNode(name),))
        for param in params:
            ParamNode(param, 0, "v")
    except ValueError as exc:
        return str(exc)
    return None


@given(_NAMES, st.lists(_NAMES, unique=True, max_size=4))
@settings(max_examples=500, deadline=None)
def test_schemas_refuse_exactly_the_names_the_nodes_refuse(name, params):
    refusal = _node_refusal(name, params)
    try:
        ActionSchema(name, tuple(params))
    except ValueError as exc:
        assert str(exc) == refusal
    else:
        assert refusal is None
    config = f"ping\n{name} {' '.join(params)}\n"
    if refusal is None:
        assert load_registry(config).get(name).params == tuple(params)
    else:
        with pytest.raises(ConfigParseError) as info:
            load_registry(config)
        assert str(info.value) == f"registry config line 2: {refusal}"


# LF is the one line end; every other break is a blank or comment text.
@pytest.mark.parametrize("brk", [brk for brk in LINE_BREAKS if brk != "\n"])
def test_load_registry_ends_lines_only_at_lf(brk):
    registry = load_registry(f"ok # x{brk}tail\r\nping{brk}\n")
    assert registry.names()[-2:] == ("ok", "ping")
    with pytest.raises(ConfigParseError) as info:
        load_registry(f"ok # x{brk}tail\nBad\n")
    assert info.value.line == 2


def test_builtin_registry_is_built_once():
    assert builtin_registry() is builtin_registry()


# ---------------------------------------------------------------- validate


def _tree(text):
    return parse_logical_form(text)


def test_validate_accepts_builtin_missions():
    registry = builtin_registry()
    tree = _tree("( seq ( move ( x ( $0 ( 1 ) ) ) ( yaw ( $1 ( 3 ) ) ) ) ( goal ) )")
    assert validate(tree, registry, "strict") == []


def test_validate_never_requires_missing_params():
    # schemas list what may appear, not what must
    registry = builtin_registry()
    assert validate(_tree("( seq ( move ) ( flatten ) ( say ) )"), registry, "strict") == []


def test_validate_unknown_action_downgrades_in_lenient():
    registry = builtin_registry()
    tree = _tree("( seq ( warp ) )")
    strict = validate(tree, registry, "strict")
    lenient = validate(tree, registry, "lenient")
    assert [(d.severity, d.code) for d in strict] == [("error", "unknown-action")]
    assert [(d.severity, d.code) for d in lenient] == [("warning", "unknown-action")]
    assert strict[0].action_index == 0


def test_validate_unknown_param_downgrades_in_lenient():
    registry = builtin_registry()
    tree = _tree("( seq ( flatten ( depth ( $0 ( 2 ) ) ) ) )")
    strict = validate(tree, registry, "strict")
    lenient = validate(tree, registry, "lenient")
    assert [(d.severity, d.code) for d in strict] == [("error", "unknown-param")]
    assert [(d.severity, d.code) for d in lenient] == [("warning", "unknown-param")]
    assert (strict[0].action_index, strict[0].param_index) == (0, 0)


def test_validate_duplicate_param_is_error_in_both_modes():
    registry = builtin_registry()
    tree = _tree("( seq ( move ( x ( $0 ( 1 ) ) ) ( x ( $1 ( 2 ) ) ) ) )")
    for mode in ("strict", "lenient"):
        diags = validate(tree, registry, mode)
        assert [(d.severity, d.code) for d in diags] == [("error", "duplicate-param")]
        assert diags[0].param_index == 1


# move's parameters, its alias yaw for raw, and a name outside the schema
@given(st.lists(st.sampled_from(["x", "y", "z", "roll", "pitch", "raw", "yaw", "q"]), max_size=8))
@settings(max_examples=300, deadline=None)
def test_duplicate_param_is_reported_exactly_when_two_params_share_a_slot(names):
    tree = SequenceNode((ActionNode("move", tuple(ParamNode(name, i, "1") for i, name in enumerate(names))),))
    slot = {"yaw": "raw"}
    shared = [i for i, name in enumerate(names) if slot.get(name, name) in [slot.get(n, n) for n in names[:i]]]
    diags = validate(tree, builtin_registry(), "strict")
    duplicates = [d for d in diags if d.code == "duplicate-param"]
    assert [d.param_index for d in duplicates] == shared
    assert [d.message for d in duplicates] == [f"duplicate parameter '{names[i]}' in action 'move'" for i in shared]
    assert [d.code for d in diags if d.code != "duplicate-param"] == ["unknown-param"] * names.count("q")


def test_validate_numbering_is_sequence_global_and_positional():
    registry = builtin_registry()
    tree = _tree("( seq ( flatten ( num ( $4 ( 2 ) ) ) ) )")
    diags = validate(tree, registry, "strict")
    assert [(d.severity, d.code) for d in diags] == [("error", "bad-numbering")]
    assert "variable index 4, expected 0" in diags[0].message

    # indices restarting per action are wrong too
    tree = _tree("( seq ( move ( x ( $0 ( 1 ) ) ) ) ( flatten ( num ( $0 ( 2 ) ) ) ) )")
    diags = validate(tree, registry, "lenient")
    assert [(d.code) for d in diags] == ["bad-numbering"]
    assert "variable index 0, expected 1" in diags[0].message


def test_validate_checks_structure_inside_unknown_actions():
    registry = builtin_registry()
    tree = _tree("( seq ( warp ( q ( $0 ( 1 ) ) ) ( q ( $9 ( 2 ) ) ) ) )")
    codes = [d.code for d in validate(tree, registry, "strict")]
    # membership is unknowable without a schema, but structure still holds
    assert codes == ["unknown-action", "duplicate-param", "bad-numbering"]


def test_validate_reports_in_tree_order():
    registry = builtin_registry()
    tree = _tree(
        "( seq ( warp ) ( move ( q ( $1 ( 1 ) ) ) ) ( flatten ( num ( $5 ( 2 ) ) ) ) )"
    )
    diags = validate(tree, registry, "strict")
    assert [(d.action_index, d.code) for d in diags] == [
        (0, "unknown-action"),
        (1, "unknown-param"),
        (1, "bad-numbering"),
        (2, "bad-numbering"),
    ]


def test_validate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        validate(SequenceNode(()), builtin_registry(), "pedantic")


def test_validate_is_pure():
    registry = builtin_registry()
    tree = _tree("( seq ( warp ( q ( $3 ( 1 ) ) ) ) )")
    before = tree
    first = validate(tree, registry, "strict")
    second = validate(tree, registry, "strict")
    assert first == second
    assert tree == before


def _perturb_numbering(rng, tree):
    actions = []
    for action in tree.actions:
        params = tuple(
            ParamNode(p.name, p.var_index + rng.choice((0, 0, 1, 3)), p.value)
            for p in action.params
        )
        actions.append(ActionNode(action.name, params))
    return SequenceNode(tuple(actions))


def test_lenient_is_a_downgrade_of_strict_never_more():
    registry = builtin_registry()
    rng = random.Random(23)
    for _ in range(150):
        tree = _perturb_numbering(rng, random_messy_tree(rng))
        strict = validate(tree, registry, "strict")
        lenient = validate(tree, registry, "lenient")
        assert len(strict) == len(lenient)
        for s, l in zip(strict, lenient):
            assert (s.code, s.message, s.action_index, s.param_index) == (
                l.code,
                l.message,
                l.action_index,
                l.param_index,
            )
            if s.severity == "error":
                assert l.severity in ("error", "warning")
            else:
                assert l.severity == "warning"


def test_diagnostic_str_names_location():
    diag = Diagnostic("error", "unknown-param", "no such param", 2, 1)
    assert str(diag) == "error: no such param [action 2, param 1]"
