"""A fixed calibration kernel that tracks the machine's current speed.

On a shared host the speed of a core drifts by up to 2x over tens of
seconds, as other tenants load the machine, so raw op times from two
15-second runs can differ by 30% with no change to the code.  The
harness therefore runs this kernel every few tens of milliseconds
between ops and scales each op's time by ``REFERENCE_S`` over the median
kernel time around it: times are reported as if the kernel took exactly
``REFERENCE_S``.  The kernel is plain Python of the same kind seqlang
runs (splitting, dict lookups, small objects, regex matches, string
building) and shares no code with it, so a change to seqlang cannot
change the yardstick.  Raw wall times are reported alongside.
"""

from __future__ import annotations

import bisect
import gc
import re
import statistics
from time import perf_counter

REFERENCE_S = 1e-3
# Seconds between kernel samples; the speed drifts over seconds, not ms.
INTERVAL_S = 0.025
# Samples on each side of an op that set its scale.
NEIGHBOURS = 5

_WORDS = ("move", "to", "x", "1.5", "then", "say", "all", "clear", "and", "bring", "the", "wrench", "(", ")", "$3")
_TEXT = " ".join(_WORDS[(i * 7) % len(_WORDS)] for i in range(800))
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")


class _Node:
    __slots__ = ("name", "numeric")

    def __init__(self, name: str, numeric: bool) -> None:
        self.name = name
        self.numeric = numeric


def kernel() -> int:
    """The fixed unit of work; about a millisecond on a 2 GHz Xeon core."""
    counts: dict[str, int] = {}
    nodes = []
    for token in _TEXT.split():
        word = token.strip("().").lower()
        counts[word] = counts.get(word, 0) + 1
        nodes.append(_Node(word, _NUMBER.match(word) is not None))
    return len(" ".join(f'{n.name}="{n.numeric}"' for n in nodes)) + len(counts)


def kernel_seconds() -> float:
    """One timed kernel call, with the garbage collector held off."""
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        gc.enable()


class SpeedLog:
    """Kernel times sampled along a run, and the scale they give each op."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.at.append(perf_counter())
        self.seconds.append(kernel_seconds())

    def maybe_sample(self) -> None:
        if perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median kernel time of the samples around ``at``."""
        i = bisect.bisect_right(self.at, at)
        near = self.seconds[max(0, i - NEIGHBOURS) : i + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)
