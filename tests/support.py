"""Shared builders for the test suite.

random_tree() produces structurally valid sequences whose parameter
order matches what the XML emitter would choose (schema order for known
actions, alphabetical for unknown ones), so emit round trips are exact.
random_messy_tree() relaxes ordering and mixes custom parameters into
known actions; only the parse/render laws hold for those.
best_of_5_each() times a call at two sizes for the size-scaling tests,
in thread CPU time and in units of a calibration kernel run beside each call;
bytecodes() counts the bytecodes a call executes, which no host load moves.
rebuild() copies a tree node by node through the checked constructors.
"""

from __future__ import annotations

import gc
import random
import re
import sys
from time import thread_time

from seqlang.logical_form import ActionNode, ParamNode, SequenceNode
from seqlang.registry import BUILTIN_SCHEMAS

KNOWN_SPECS = {schema.name: schema.params for schema in BUILTIN_SCHEMAS}

# listed alphabetically so sorted picks equal emit's attribute order
CUSTOM_SPECS = {
    "warp": ("speed", "target"),
    "scan": ("mode",),
    "dock": (),
    "sample": ("depth", "jar", "rate"),
}

VALUES = ("1", "-2.5", "0.7", "buoy", "left_marker", "hello there", "x9", "$5", "a_b.c")


def _pick_params(rng: random.Random, pool: tuple[str, ...], counter: int) -> list[ParamNode]:
    count = rng.randint(0, min(len(pool), 3))
    picked = sorted(rng.sample(range(len(pool)), count))
    return [ParamNode(pool[i], counter + offset, rng.choice(VALUES)) for offset, i in enumerate(picked)]


def random_tree(
    rng: random.Random,
    min_actions: int = 0,
    max_actions: int = 7,
    allow_custom: bool = True,
) -> SequenceNode:
    specs = dict(KNOWN_SPECS)
    if allow_custom:
        specs.update(CUSTOM_SPECS)
    names = sorted(specs)
    actions = []
    counter = 0
    for _ in range(rng.randint(min_actions, max_actions)):
        name = rng.choice(names)
        params = _pick_params(rng, specs[name], counter)
        counter += len(params)
        actions.append(ActionNode(name, tuple(params)))
    return SequenceNode(tuple(actions))


def random_messy_tree(rng: random.Random, min_actions: int = 0, max_actions: int = 7) -> SequenceNode:
    """Canonically numbered but otherwise unruly: shuffled parameter

    order and the odd made-up parameter on a known action.
    """
    names = sorted(KNOWN_SPECS) + sorted(CUSTOM_SPECS)
    actions = []
    counter = 0
    for _ in range(rng.randint(min_actions, max_actions)):
        name = rng.choice(names)
        pool = list(KNOWN_SPECS.get(name) or CUSTOM_SPECS.get(name) or ())
        if rng.random() < 0.3:
            pool.append(rng.choice(("extra", "q", "misc_knob")))
        rng.shuffle(pool)
        chosen = pool[: rng.randint(0, min(len(pool), 3))]
        params = []
        for pname in chosen:
            params.append(ParamNode(pname, counter, rng.choice(VALUES)))
            counter += 1
        actions.append(ActionNode(name, tuple(params)))
    return SequenceNode(tuple(actions))


def rebuild(tree: SequenceNode) -> SequenceNode:
    """``tree`` rebuilt through the public node constructors, which check

    every field; equal to ``tree`` only if each node held what they allow.
    """
    return SequenceNode(
        tuple(
            ActionNode(action.name, tuple(ParamNode(p.name, p.var_index, p.value) for p in action.params))
            for action in tree.actions
        )
    )


# The calibration kernel of perfbench/calibrate.py, copied so that the
# tests do not import the bench: fixed plain-Python work of the kind
# seqlang does, sharing no code with it, about a millisecond long.
_WORDS = ("move", "to", "x", "1.5", "then", "say", "all", "clear", "and", "bring", "the", "wrench", "(", ")", "$3")
_TEXT = " ".join(_WORDS[(i * 7) % len(_WORDS)] for i in range(800))
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")


class _Node:
    __slots__ = ("name", "numeric")

    def __init__(self, name: str, numeric: bool) -> None:
        self.name = name
        self.numeric = numeric


def _kernel() -> int:
    counts: dict[str, int] = {}
    nodes = []
    for token in _TEXT.split():
        word = token.strip("().").lower()
        counts[word] = counts.get(word, 0) + 1
        nodes.append(_Node(word, _NUMBER.match(word) is not None))
    return len(" ".join(f'{n.name}="{n.numeric}"' for n in nodes)) + len(counts)


def _kernel_seconds() -> float:
    gc.disable()
    try:
        start = thread_time()
        _kernel()
        return thread_time() - start
    finally:
        gc.enable()


def best_of_5_each(fn, small, large) -> tuple[float, float]:
    """The shortest of five timed calls of ``fn(small)`` and of ``fn(large)``,

    each in kernel times: a call's CPU seconds over those of the shorter
    of the two kernel runs on either side of it.  CPU time leaves out the
    slices the scheduler gives other processes, which on a loaded host
    can land in any wall-clock measurement of a few milliseconds; the
    host's core speed drifts by up to 2x, which moves the kernel with
    the call and so cancels out.  The calls alternate, so what drift is
    left falls on both sizes alike.
    """
    best = [float("inf"), float("inf")]
    before = _kernel_seconds()
    for _ in range(5):
        for k, arg in enumerate((small, large)):
            start = thread_time()
            fn(arg)
            took = thread_time() - start
            after = _kernel_seconds()
            best[k] = min(best[k], took / min(before, after))
            before = after
    return best[0], best[1]


def bytecodes(fn, *args) -> int:
    """The number of bytecodes ``fn(*args)`` executes in Python frames.

    Work done inside C functions counts as the one bytecode that calls
    them, so a count catches a Python loop but not, say, a list copy.
    """
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def bytecode_growth(fn, small, large) -> float:
    """``bytecodes(fn, large)`` over ``bytecodes(fn, small)``, each counted

    after one warm-up call, so that first-call work such as filling a cache
    falls on neither.
    """
    fn(small)
    fn(large)
    return bytecodes(fn, large) / bytecodes(fn, small)
