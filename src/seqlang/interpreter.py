"""Mock plant execution of mission XML.

README "Mission XML and the mock plant" owns the plant: its pose and
transcript, what each built-in does, warned no-ops for unknown actions,
and ``MockPlant.fail_injections``.  Axis slots and the set of built-ins
come from the schemas in :mod:`seqlang.registry`, read once at import.

:func:`run` ticks the leaves :func:`seqlang.btxml._read_leaves` checks
and returns, so no tree is built: each leaf's (name, value) pairs are its
trace entry's params.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from seqlang.btxml import _read_leaves
from seqlang.logical_form import _builder
from seqlang.registry import BUILTIN_SCHEMAS, finite_number

SUCCESS = "SUCCESS"
FAILURE = "FAILURE"

_MOVE = next(schema for schema in BUILTIN_SCHEMAS if schema.name == "move")

# parameter name or alias -> pose slot
_AXES = _MOVE.slots

# action -> the pose slot of each parameter it reads; other built-ins only record
_SLOTS = {"move": _AXES, "flatten": {"num": _AXES["z"]}}
_RECORD_ONLY = frozenset(schema.name for schema in BUILTIN_SCHEMAS) - _SLOTS.keys()


@dataclass
class MockPlant:
    """Mutable execution state: a pose, a transcript, and fail switches."""

    pose: list[float] = field(default_factory=lambda: [0.0] * 6)
    transcript: list[tuple[str, tuple[tuple[str, str], ...]]] = field(default_factory=list)
    fail_injections: set[int] = field(default_factory=set)


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One executed leaf: step index, action, its params, and status."""

    step: int
    action: str
    params: tuple[tuple[str, str], ...]
    status: str
    warning: bool = False


# trace entries are built unchecked, like the nodes (logical_form._builder)
_entry = _builder(TraceEntry, "_entry")


def _pose(pose: list[float], name: str, params: tuple[tuple[str, str], ...]) -> list[float] | None:
    """The pose a move or flatten leaf leaves behind, or None when a value it reads is not a finite number."""
    pose, slots = list(pose), _SLOTS[name]
    if name == "flatten":
        pose[_AXES["roll"]] = pose[_AXES["pitch"]] = 0.0
    for param_name, value in params:
        if (slot := slots.get(param_name)) is not None:
            if (number := finite_number(value)) is None:
                return None
            pose[slot] = number
    return pose


def run(xml_text: str, plant: MockPlant | None = None) -> tuple[list[TraceEntry], str]:
    """Execute mission XML; returns (trace, overall status).

    The trace holds one entry per action that ticked, in order; on a
    FAILURE the remaining actions never appear.  Overall status is
    SUCCESS only if every leaf succeeded.
    """
    leaves = _read_leaves(xml_text)
    plant = MockPlant() if plant is None else plant
    trace: list[TraceEntry] = []
    injections, record, tick = plant.fail_injections, plant.transcript.append, trace.append
    for step, (name, params) in enumerate(leaves):
        status, warning = SUCCESS, False
        if step in injections:
            status = FAILURE
        elif name in _RECORD_ONLY:
            record((name, params))
        elif name in _SLOTS:
            if (pose := _pose(plant.pose, name, params)) is None:
                status = FAILURE
            else:
                plant.pose[:] = pose
                record((name, params))
        else:
            warning = True
        tick(_entry(step, name, params, status, warning))
        if status == FAILURE:
            return trace, FAILURE
    return trace, SUCCESS


def format_trace(trace: list[TraceEntry]) -> list[str]:
    """Render entries as step<TAB>action<TAB>k=v,...<TAB>status lines."""
    lines = []
    for entry in trace:
        pairs = ",".join(f"{name}={value}" for name, value in entry.params)
        lines.append(f"{entry.step}\t{entry.action}\t{pairs}\t{entry.status}")
    return lines
