"""Mock-plant execution of emitted missions."""

import dataclasses
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqlang.btxml import XmlShapeError, emit, parse_bt_xml
from seqlang.frontend import default_lexicon, normalize, translate
from seqlang.interpreter import (
    FAILURE,
    SUCCESS,
    MockPlant,
    TraceEntry,
    format_trace,
    run,
)
from seqlang.logical_form import ActionNode, ParamNode, SequenceNode
from test_btxml import drawn_documents


def mission(*actions):
    return emit(SequenceNode(actions))


def act(name, *pairs):
    params = tuple(
        ParamNode(pname, index, value) for index, (pname, value) in enumerate(pairs)
    )
    return ActionNode(name, params)


# -------------------------------------------------------------------- moves


def test_plant_starts_at_the_origin():
    assert MockPlant().pose == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_move_writes_axes_absolutely():
    plant = MockPlant()
    trace, status = run(mission(act("move", ("x", "1.5"), ("z", "-2"))), plant)
    assert status == SUCCESS
    assert plant.pose == [1.5, 0.0, -2.0, 0.0, 0.0, 0.0]
    assert trace[0].status == SUCCESS


def test_move_overwrites_rather_than_accumulates():
    plant = MockPlant()
    run(mission(act("move", ("x", "5"))), plant)
    run(mission(act("move", ("x", "2"))), plant)
    assert plant.pose[0] == 2.0


def test_move_raw_and_yaw_share_the_heading_slot():
    plant = MockPlant()
    run(mission(act("move", ("raw", "90"))), plant)
    assert plant.pose[5] == 90.0

    plant = MockPlant()
    run(mission(act("move", ("yaw", "45"))), plant)
    assert plant.pose[5] == 45.0


def test_move_with_no_params_changes_nothing():
    plant = MockPlant()
    trace, status = run(mission(act("move")), plant)
    assert status == SUCCESS
    assert plant.pose == [0.0] * 6
    assert plant.transcript == [("move", ())]


def test_move_rejects_non_numeric_values_atomically():
    plant = MockPlant()
    trace, status = run(
        mission(act("move", ("x", "1"), ("y", "sideways"))), plant
    )
    assert status == FAILURE
    assert plant.pose == [0.0] * 6  # the good axis was not applied either
    assert plant.transcript == []
    assert trace[-1].status == FAILURE


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "NaN", "1e999"])
def test_move_rejects_non_finite_values_atomically(value):
    plant = MockPlant()
    plant.pose = [1.0, 2.0, 3.0, 0.1, 0.2, 0.3]
    trace, status = run(mission(act("move", ("x", "5"), ("y", value))), plant)
    assert status == FAILURE
    assert plant.pose == [1.0, 2.0, 3.0, 0.1, 0.2, 0.3]
    assert plant.transcript == []
    assert trace[-1].status == FAILURE


def test_move_ignores_unknown_attribute_names():
    plant = MockPlant()
    _, status = run(mission(act("move", ("x", "1"), ("extra", "jets"))), plant)
    assert status == SUCCESS
    assert plant.pose[0] == 1.0


# ------------------------------------------------------------------ flatten


def test_flatten_zeroes_attitude_and_sets_depth():
    plant = MockPlant()
    plant.pose = [4.0, 5.0, 6.0, 0.3, -0.2, 1.0]
    _, status = run(mission(act("flatten", ("num", "3.5"))), plant)
    assert status == SUCCESS
    assert plant.pose == [4.0, 5.0, 3.5, 0.0, 0.0, 1.0]


def test_flatten_without_number_keeps_depth():
    plant = MockPlant()
    plant.pose = [0.0, 0.0, 9.0, 0.3, -0.2, 0.0]
    run(mission(act("flatten")), plant)
    assert plant.pose == [0.0, 0.0, 9.0, 0.0, 0.0, 0.0]


def test_flatten_rejects_bad_number_atomically():
    plant = MockPlant()
    plant.pose = [0.0, 0.0, 9.0, 0.3, -0.2, 0.0]
    _, status = run(mission(act("flatten", ("num", "deep"))), plant)
    assert status == FAILURE
    assert plant.pose == [0.0, 0.0, 9.0, 0.3, -0.2, 0.0]


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_flatten_rejects_non_finite_numbers_atomically(value):
    plant = MockPlant()
    plant.pose = [0.0, 0.0, 9.0, 0.3, -0.2, 0.0]
    trace, status = run(mission(act("flatten", ("num", value))), plant)
    assert status == FAILURE
    assert plant.pose == [0.0, 0.0, 9.0, 0.3, -0.2, 0.0]
    assert plant.transcript == []
    assert trace[-1].status == FAILURE


# -------------------------------------------------------- record-only leaves


def test_record_only_actions_append_to_the_transcript():
    plant = MockPlant()
    xml = mission(
        act("say", ("words", "hello there")),
        act("clean", ("obj", "table")),
        act("bring", ("val", "wrench")),
        act("find", ("val", "buoy")),
        act("goal"),
        act("gate"),
    )
    trace, status = run(xml, plant)
    assert status == SUCCESS
    assert plant.pose == [0.0] * 6
    assert plant.transcript == [
        ("say", (("words", "hello there"),)),
        ("clean", (("obj", "table"),)),
        ("bring", (("val", "wrench"),)),
        ("find", (("val", "buoy"),)),
        ("goal", ()),
        ("gate", ()),
    ]
    assert all(entry.status == SUCCESS for entry in trace)


def test_every_built_in_that_succeeds_is_recorded_and_an_unknown_action_is_not():
    plant = MockPlant()
    xml = mission(act("move", ("x", "1")), act("flatten", ("num", "2")), act("say", ("words", "hi")), act("dance"))
    run(xml, plant)
    assert plant.transcript == [("move", (("x", "1"),)), ("flatten", (("num", "2"),)), ("say", (("words", "hi"),))]


def test_unknown_action_is_a_warned_no_op():
    plant = MockPlant()
    trace, status = run(mission(act("warp", ("speed", "9"))), plant)
    assert status == SUCCESS
    assert trace[0].warning is True
    assert plant.pose == [0.0] * 6
    assert plant.transcript == []  # warned actions leave no transcript record


def test_known_actions_do_not_carry_the_warning_flag():
    trace, _ = run(mission(act("goal"), act("move", ("x", "1"))))
    assert [entry.warning for entry in trace] == [False, False]


# ------------------------------------------------------------ sequence flow


def test_empty_mission_succeeds_with_empty_trace():
    trace, status = run(emit(SequenceNode(())))
    assert (trace, status) == ([], SUCCESS)


def test_trace_preserves_action_order():
    xml = mission(act("goal"), act("say", ("words", "hi")), act("gate"))
    trace, _ = run(xml)
    assert [entry.action for entry in trace] == ["goal", "say", "gate"]
    assert [entry.step for entry in trace] == [0, 1, 2]


def test_sequence_stops_at_the_first_failure():
    plant = MockPlant()
    xml = mission(
        act("goal"),
        act("move", ("x", "bad")),
        act("say", ("words", "unreached")),
    )
    trace, status = run(xml, plant)
    assert status == FAILURE
    assert [entry.action for entry in trace] == ["goal", "move"]
    assert plant.transcript == [("goal", ())]


def test_fail_injection_replaces_the_handler():
    plant = MockPlant()
    plant.fail_injections.add(1)
    xml = mission(act("goal"), act("move", ("x", "7")), act("gate"))
    trace, status = run(xml, plant)
    assert status == FAILURE
    assert len(trace) == 2
    assert trace[1] == TraceEntry(1, "move", (("x", "7"),), FAILURE)
    assert plant.pose == [0.0] * 6  # the real move handler never ran
    assert plant.transcript == [("goal", ())]


def test_fail_injection_at_step_zero():
    plant = MockPlant()
    plant.fail_injections.add(0)
    trace, status = run(mission(act("goal")), plant)
    assert status == FAILURE
    assert len(trace) == 1
    assert plant.transcript == []


def test_plant_state_persists_across_runs():
    plant = MockPlant()
    run(mission(act("move", ("x", "3"))), plant)
    run(mission(act("say", ("words", "hi"))), plant)
    assert plant.pose[0] == 3.0
    assert [name for name, _ in plant.transcript] == ["move", "say"]


def test_run_executes_what_the_frontend_compiles():
    xml = emit(translate("move to x 1 yaw 90 then flatten out at 2, say all clear"))
    plant = MockPlant()
    trace, status = run(xml, plant)
    assert status == SUCCESS
    assert [entry.action for entry in trace] == ["move", "flatten", "say"]
    assert plant.pose == [1.0, 0.0, 2.0, 0.0, 0.0, 90.0]
    assert plant.transcript[-1] == ("say", (("words", "all clear"),))


# ------------------------------------------------------------------- traces


def test_format_trace_lines():
    xml = mission(act("move", ("x", "1"), ("y", "2")), act("goal"))
    trace, _ = run(xml)
    assert format_trace(trace) == [
        "0\tmove\tx=1,y=2\tSUCCESS",
        "1\tgoal\t\tSUCCESS",
    ]


def test_format_trace_keeps_multiword_values():
    trace, _ = run(mission(act("say", ("words", "hello there"))))
    assert format_trace(trace) == ["0\tsay\twords=hello there\tSUCCESS"]


def test_format_trace_marks_failures():
    plant = MockPlant()
    plant.fail_injections.add(0)
    trace, _ = run(mission(act("gate")), plant)
    assert format_trace(trace) == ["0\tgate\t\tFAILURE"]


# The lexicon's own words: a drawn word that holds one changes the clause.
_LEXICON_WORDS = {word for phrase, _ in default_lexicon().verbs for word in phrase}
_LEXICON_WORDS.update(word for connective in default_lexicon().connectives for word in connective.split())


@given(st.text(alphabet="0123456789.-+eE_infaty\u0663", min_size=1, max_size=12))
@example("1" + "0" * 309)
@example("1e3")
@settings(max_examples=500, deadline=None)
def test_the_number_cue_binds_a_token_exactly_when_the_plant_runs_it(word):
    # one rule for a number: a value the cue binds runs, and one it passes over would fail
    assume(normalize(word) == [word] and word not in _LEXICON_WORDS)
    (flatten,) = translate(f"flatten out at {word}").actions
    _, status = run(mission(act("flatten", ("num", word))))
    assert ("num" in {param.name for param in flatten.params}) == (status == SUCCESS)


@given(drawn_documents(), st.sets(st.integers(0, 5), max_size=2))
@settings(max_examples=200, deadline=None)
def test_trace_entries_equal_entries_built_through_the_constructor(xml, fail_at):
    for injections in (set(), fail_at):
        try:
            trace, _ = run(xml, MockPlant(fail_injections=injections))
        except XmlShapeError:
            return
        for entry in trace:
            twin = TraceEntry(entry.step, entry.action, entry.params, entry.status, entry.warning)
            assert entry == twin
            assert hash(entry) == hash(twin)
            assert repr(entry) == repr(twin)
            assert dataclasses.replace(entry) == entry


# README's pose order, with move's "raw" spelling of yaw.
POSE_SLOTS = {"x": 0, "y": 1, "z": 2, "roll": 3, "pitch": 4, "yaw": 5, "raw": 5}


def finite(value):
    try:
        number = float(value)
    except ValueError:
        return None
    return number if math.isfinite(number) else None


def reference_run(leaves, plant):
    """README's plant rules as a plain tick loop over (name, params) leaves;

    returns (trace as (step, name, params, status, warning) tuples, status).
    A move or flatten that succeeds is recorded too, as the move tests pin.
    """
    trace = []
    for step, (name, params) in enumerate(leaves):
        warning = False
        numbers = {key: finite(value) for key, value in params}
        if step in plant.fail_injections:
            status = FAILURE
        elif name == "move":
            moves = [(POSE_SLOTS[key], numbers[key]) for key, _ in params if key in POSE_SLOTS]
            status = FAILURE if any(number is None for _, number in moves) else SUCCESS
            if status == SUCCESS:
                for slot, number in moves:
                    plant.pose[slot] = number
        elif name == "flatten":
            depths = [numbers[key] for key, _ in params if key == "num"]
            status = FAILURE if None in depths else SUCCESS
            if status == SUCCESS:
                plant.pose[3] = plant.pose[4] = 0.0
                if depths:
                    plant.pose[2] = depths[-1]
        elif name in ("say", "clean", "bring", "find", "goal", "gate"):
            status = SUCCESS
        else:
            status, warning = SUCCESS, True
        if status == SUCCESS and not warning:
            plant.transcript.append((name, params))
        trace.append((step, name, params, status, warning))
        if status == FAILURE:
            return trace, FAILURE
    return trace, SUCCESS


@given(drawn_documents(), st.sets(st.integers(0, 5), max_size=2))
@example(mission(act("say", ("words", "hi")), act("gate"), act("warp"), act("move", ("x", "1.5"))), set())
@example(mission(act("say", ("words", "hi")), act("gate"), act("warp")), {1})
@settings(max_examples=300, deadline=None)
def test_run_agrees_with_a_reference_tick_loop(xml, fail_at):
    try:
        tree = parse_bt_xml(xml)
    except XmlShapeError:
        with pytest.raises(XmlShapeError):
            run(xml)
        return
    leaves = [(action.name, tuple((p.name, p.value) for p in action.params)) for action in tree.actions]
    plant, expected = MockPlant(fail_injections=set(fail_at)), MockPlant(fail_injections=set(fail_at))
    trace, status = run(xml, plant)
    assert ([(e.step, e.action, e.params, e.status, e.warning) for e in trace], status) == reference_run(leaves, expected)
    assert plant == expected
