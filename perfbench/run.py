#!/usr/bin/env python3
"""The seqlang benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; seqlang is imported from its
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds the run's provenance, sample count, error rate, raw wall times
and exact counts.  The exit code is non-zero, with the workload and op
index on stderr, when any op raised or gave a wrong output, or when an
exact count of the traced run differs from the untraced one.  Times are
scaled to a reference machine speed (see calibrate.py and README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "seqlang" / "__init__.py").is_file():
    sys.exit(f"perfbench: no seqlang sources under {SRC}; run from a seqlang checkout")
sys.path.insert(0, str(SRC))

import seqlang  # noqa: E402
from seqlang import (  # noqa: E402
    builtin_registry,
    default_lexicon,
    emit,
    parse_bt_xml,
    parse_logical_form,
    render,
    run,
    translate,
    validate,
)
from seqlang.dataset import generate  # noqa: E402
from seqlang.frontend import split_clauses  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402

if Path(seqlang.__file__).resolve().parent != SRC / "seqlang":
    sys.exit(f"perfbench: imported seqlang from {seqlang.__file__}, not from {SRC}")

WORKLOADS = ("corpus", "long_utterances", "missions")


@dataclass(frozen=True)
class Sizes:
    corpus_pool: int
    long_pool: int
    mission_pool: int
    setup_reps: int
    min_ops: int
    chain_clauses: tuple[int, ...]
    mission_actions: tuple[int, ...]
    sweep_reps: int


FULL = Sizes(4000, 1024, 256, 15, 1000, (8, 16, 32, 64), (100, 1000, 10000), 3)
# For the smoke test only: every code path, in about a second per run.
TINY = Sizes(20, 4, 4, 1, 1, (2, 4), (10, 100), 1)

# Per-layer metrics of a traced run, with units; BENCHMARK.json lists the same.
PER_LAYER_UNITS = {
    "frontend.split_clauses.us_per_op": "us",
    "frontend.translate.self_us_per_op": "us",
    "frontend.tokens_per_s": "tokens/s",
    "logical_form.parse_logical_form.us_per_op": "us",
    "logical_form.parse_logical_form.tokens_per_s": "tokens/s",
    "logical_form.render.us_per_op": "us",
    "registry.validate.us_per_op": "us",
    "btxml.emit.us_per_op": "us",
    "btxml.parse_bt_xml.us_per_op": "us",
    "interpreter.run.self_us_per_op": "us",
    "dataset.generate_s": "s",
    "frontend.share": "fraction",
    "logical_form.share": "fraction",
    "registry.share": "fraction",
    "btxml.share": "fraction",
    "interpreter.share": "fraction",
    "trace.unattributed_share": "fraction",
    "trace.overhead_pct": "%",
    "frontend.tokens_per_op": "tokens",
    "frontend.clauses_per_op": "clauses",
    "logical_form.tokens_per_op": "tokens",
    "btxml.bytes_per_op": "bytes",
    "interpreter.steps_per_op": "steps",
    "frontend.translate.growth_per_doubling": "x",
    "logical_form.parse_logical_form.growth_per_doubling": "x",
    "btxml.emit.growth_per_doubling": "x",
    "btxml.parse_bt_xml.growth_per_doubling": "x",
}

COUNT_NAMES = (
    "frontend.tokens_per_op",
    "frontend.clauses_per_op",
    "logical_form.tokens_per_op",
    "btxml.bytes_per_op",
    "interpreter.steps_per_op",
)

# Runs in a fresh interpreter.  Prints the seconds from just before
# "import seqlang" to a loaded default lexicon and registry, then the
# median calibration kernel time measured after that, then where
# seqlang came from.
_SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import seqlang.cli
from seqlang import builtin_registry, default_lexicon
default_lexicon()
builtin_registry()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import calibrate, statistics
kernel = statistics.median(calibrate.kernel_seconds() for _ in range(11))
print(elapsed, kernel, seqlang.__file__)
"""


class OpFailed(Exception):
    """An op raised, or its output differs from the gold."""


class Tracer:
    """Spans kept in memory as (name, op, parent, start, end) tuples.

    Spans of one op share the op's index.  Probe spans re-run an inner
    call on the same input after the op ends; their parent names the span
    whose time they split into self time.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, str | None, float, float]] = []

    def call(self, name: str, op: int, parent: str | None, fn, *args):
        start = perf_counter()
        result = fn(*args)
        self.spans.append((name, op, parent, start, perf_counter()))
        return result

    def totals(self, speed: calibrate.SpeedLog) -> dict[str, float]:
        """Scaled seconds per span name."""
        out: dict[str, float] = {}
        for name, _, _, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) * speed.scale(start)
        return out


# Op outputs: (tree, rendered form or None, diagnostics, xml, trace, status)
Outputs = tuple


@dataclass
class Workload:
    name: str
    inputs: list[inputs.Input]
    op: Callable[[inputs.Input], Outputs]
    traced_op: Callable[[inputs.Input, Tracer, int], Outputs]
    generate_s: float = 0.0
    expected: list[list[tuple]] = field(init=False)
    known_xml: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.expected = [
            [(step, name, params, "SUCCESS", False) for step, (name, params) in enumerate(inp.actions)]
            for inp in self.inputs
        ]


def make_workload(name: str, seed: int, sizes: Sizes, speed: calibrate.SpeedLog) -> Workload:
    lexicon = default_lexicon()
    registry = builtin_registry()

    # Each op is written twice: the untraced one calls the layers directly,
    # so the end-to-end metrics carry no tracing cost at all.

    def compile_and_run(inp):
        tree = translate(inp.text, lexicon, registry)
        diagnostics = validate(tree, registry, "strict")
        rendered = render(tree)
        xml = emit(tree, registry)
        trace, status = run(xml)
        return tree, rendered, diagnostics, xml, trace, status

    def compile_and_run_traced(inp, t, op):
        start = perf_counter()
        tree = t.call("frontend.translate", op, "op", translate, inp.text, lexicon, registry)
        diagnostics = t.call("registry.validate", op, "op", validate, tree, registry, "strict")
        rendered = t.call("logical_form.render", op, "op", render, tree)
        xml = t.call("btxml.emit", op, "op", emit, tree, registry)
        trace, status = t.call("interpreter.run", op, "op", run, xml)
        t.spans.append(("op", op, None, start, perf_counter()))
        t.call("frontend.split_clauses", op, "frontend.translate", split_clauses, inp.text, lexicon)
        t.call("btxml.parse_bt_xml", op, "interpreter.run", parse_bt_xml, xml)
        return tree, rendered, diagnostics, xml, trace, status

    def parse_and_run(inp):
        tree = parse_logical_form(inp.text)
        diagnostics = validate(tree, registry, "strict")
        xml = emit(tree, registry)
        trace, status = run(xml)
        return tree, None, diagnostics, xml, trace, status

    def parse_and_run_traced(inp, t, op):
        start = perf_counter()
        tree = t.call("logical_form.parse_logical_form", op, "op", parse_logical_form, inp.text)
        diagnostics = t.call("registry.validate", op, "op", validate, tree, registry, "strict")
        xml = t.call("btxml.emit", op, "op", emit, tree, registry)
        trace, status = t.call("interpreter.run", op, "op", run, xml)
        t.spans.append(("op", op, None, start, perf_counter()))
        t.call("btxml.parse_bt_xml", op, "interpreter.run", parse_bt_xml, xml)
        return tree, None, diagnostics, xml, trace, status

    if name == "corpus":
        start = perf_counter()
        train, _ = generate(sizes.corpus_pool, 0, seed)
        generate_s = perf_counter() - start
        speed.sample()
        generate_s *= speed.scale(start)
        pool = inputs.corpus_inputs(train)
        return Workload(name, pool, compile_and_run, compile_and_run_traced, generate_s)
    if name == "long_utterances":
        pool = inputs.long_utterance_inputs(seed, sizes.long_pool)
        return Workload(name, pool, compile_and_run, compile_and_run_traced)
    pool = inputs.mission_inputs(seed, sizes.mission_pool)
    return Workload(name, pool, parse_and_run, parse_and_run_traced)


def check(w: Workload, index: int, out) -> None:
    """Raise OpFailed unless ``out`` is the gold output for input ``index``.

    The first output seen for an input is checked in full, including
    that reading the emitted XML gives back the gold form; later outputs
    must repeat its XML byte for byte.
    """
    inp = w.inputs[index]
    tree, rendered, diagnostics, xml, trace, status = out
    if rendered is not None and rendered != inp.gold:
        raise OpFailed(f"rendered form differs from gold: {rendered!r} != {inp.gold!r}")
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise OpFailed(f"validate reported {errors[0]}")
    known = w.known_xml.get(index)
    if known is None:
        if rendered is None and render(tree) != inp.gold:
            raise OpFailed("parsed form does not render as the gold form")
        if render(parse_bt_xml(xml)) != inp.gold:
            raise OpFailed("parse_bt_xml(emit(tree)) does not render as the gold form")
        w.known_xml[index] = xml
    elif xml != known:
        raise OpFailed("emitted XML differs from the first run on this input")
    if status != "SUCCESS":
        raise OpFailed(f"run returned {status}")
    if [(e.step, e.action, e.params, e.status, e.warning) for e in trace] != w.expected[index]:
        raise OpFailed("run trace differs from one SUCCESS entry per gold action")


def counts(inp: inputs.Input, out) -> tuple[int, ...]:
    """Exact work counts of one op, in COUNT_NAMES order.

    An op that went through the frontend has a rendered form; its input
    tokens are counted as the frontend splits them, commas apart.
    """
    tree, rendered, _, xml, trace, _ = out
    if rendered is None:
        front = (0, 0)
        form = inp.text
    else:
        front = (len(inp.text.replace(",", " , ").split()), len(tree.actions))
        form = rendered
    return front + (len(form.split()), len(xml.encode("utf-8")), len(trace))


@dataclass
class Tally:
    """What a run's passes measured: op outcomes and untraced op times."""

    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None
    samples: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)

    def fail(self, workload: str, index: int, message: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{workload}: op {self.attempted - 1} (input {index}) failed: {message}"


def one_pass(w: Workload, tally: Tally, speed: calibrate.SpeedLog, tracer: Tracer | None) -> list[int]:
    """Run every input once; returns the pass's summed exact counts.

    Checks and calibration run outside the timed region.  An op that
    raises or gives a wrong output counts as failed and adds no counts.
    """
    pass_counts = [0] * len(COUNT_NAMES)
    for index, inp in enumerate(w.inputs):
        speed.maybe_sample()
        tally.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                out = w.op(inp)
            else:
                out = w.traced_op(inp, tracer, tally.attempted)
        except Exception as exc:  # any escape is a failed op, not a crash
            tally.fail(w.name, index, f"{type(exc).__name__}: {exc}")
            continue
        took = perf_counter() - start
        try:
            check(w, index, out)
        except OpFailed as exc:
            tally.fail(w.name, index, str(exc))
            continue
        except Exception as exc:  # a check that raises means a wrong output
            tally.fail(w.name, index, f"check raised {type(exc).__name__}: {exc}")
            continue
        if tracer is None:
            tally.samples.append((start, took))
        for k, value in enumerate(counts(inp, out)):
            pass_counts[k] += value
    return pass_counts


def measure_setup(reps: int) -> tuple[float, float]:
    """Median (scaled, raw) seconds to import seqlang and load its defaults.

    Each repetition is a fresh interpreter; the first one only warms the
    file cache and the bytecode, and is not counted.
    """
    scaled, raw = [], []
    for rep in range(reps + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, kernel, module_file = done.stdout.split()
        if Path(module_file).resolve().parent != SRC / "seqlang":
            raise RuntimeError(f"set-up child imported seqlang from {module_file}")
        if rep:
            raw.append(float(elapsed))
            scaled.append(float(elapsed) * calibrate.REFERENCE_S / float(kernel))
    return statistics.median(scaled), statistics.median(raw)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _growth(sizes: tuple[int, ...], times: list[float]) -> float:
    """Time ratio per doubling of input size, from the smallest to the largest."""
    return (times[-1] / times[0]) ** (1 / math.log2(sizes[-1] / sizes[0]))


def sweeps(seed: int, sizes: Sizes, speed: calibrate.SpeedLog) -> tuple[dict[str, float], str]:
    """Size sweeps of translate and of the logical-form and XML round trip.

    Returns per-layer growth metrics and a digest of the sweep inputs.
    Every sweep output is checked against its gold before it is timed.
    """
    lexicon = default_lexicon()
    registry = builtin_registry()
    texts = []
    timings: dict[str, list[list[tuple[float, float]]]] = {}

    def timed(name: str, fn, *args) -> None:
        reps = []
        for _ in range(sizes.sweep_reps):
            speed.sample()
            start = perf_counter()
            fn(*args)
            reps.append((start, perf_counter() - start))
        timings.setdefault(name, []).append(reps)

    for clauses in sizes.chain_clauses:
        chain = inputs.and_chain(seed + clauses, clauses)
        texts.append(chain.text)
        if render(translate(chain.text, lexicon, registry)) != chain.gold:
            raise OpFailed(f"sweep: translate of a {clauses}-clause and-chain differs from gold")
        timed("frontend.translate", translate, chain.text, lexicon, registry)
    for actions in sizes.mission_actions:
        form = inputs.mission_form(seed + actions, actions)
        texts.append(form)
        tree = parse_logical_form(form)
        xml = emit(tree, registry)
        if render(tree) != form or render(parse_bt_xml(xml)) != form:
            raise OpFailed(f"sweep: {actions}-action mission does not round-trip")
        timed("logical_form.parse_logical_form", parse_logical_form, form)
        timed("btxml.emit", emit, tree, registry)
        timed("btxml.parse_bt_xml", parse_bt_xml, xml)
    speed.sample()
    metrics = {}
    for name, per_size in timings.items():
        times = [statistics.median(took * speed.scale(start) for start, took in reps) for reps in per_size]
        grid = sizes.chain_clauses if name == "frontend.translate" else sizes.mission_actions
        metrics[f"{name}.growth_per_doubling"] = _growth(grid, times)
    return metrics, inputs.digest(texts)


def layer_metrics(
    w: Workload, tracer: Tracer, speed: calibrate.SpeedLog, ops: int, op_counts: list[int], untraced_op_s: float
) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced ops."""
    total = tracer.totals(speed)

    def per_op(name: str) -> float:
        return total.get(name, 0.0) / ops

    def rate(count: str, name: str) -> float:
        seconds = total.get(name, 0.0)
        return op_counts[COUNT_NAMES.index(count)] / seconds if seconds else 0.0

    op_s = per_op("op")
    split_s = per_op("frontend.split_clauses")
    probe_parse_s = per_op("btxml.parse_bt_xml")
    self_s = {
        "frontend": per_op("frontend.translate"),
        "logical_form": per_op("logical_form.render") + per_op("logical_form.parse_logical_form"),
        "registry": per_op("registry.validate"),
        "btxml": per_op("btxml.emit") + probe_parse_s,
        "interpreter": per_op("interpreter.run") - probe_parse_s,
    }
    metrics = {
        "frontend.split_clauses.us_per_op": split_s * 1e6,
        "frontend.translate.self_us_per_op": (self_s["frontend"] - split_s) * 1e6,
        "frontend.tokens_per_s": rate("frontend.tokens_per_op", "frontend.translate"),
        "logical_form.parse_logical_form.us_per_op": per_op("logical_form.parse_logical_form") * 1e6,
        "logical_form.parse_logical_form.tokens_per_s": rate(
            "logical_form.tokens_per_op", "logical_form.parse_logical_form"
        ),
        "logical_form.render.us_per_op": per_op("logical_form.render") * 1e6,
        "registry.validate.us_per_op": self_s["registry"] * 1e6,
        "btxml.emit.us_per_op": per_op("btxml.emit") * 1e6,
        "btxml.parse_bt_xml.us_per_op": probe_parse_s * 1e6,
        "interpreter.run.self_us_per_op": self_s["interpreter"] * 1e6,
        "dataset.generate_s": w.generate_s,
        "trace.unattributed_share": 1 - sum(self_s.values()) / op_s,
        "trace.overhead_pct": (op_s / untraced_op_s - 1) * 100,
    }
    for layer, seconds in self_s.items():
        metrics[f"{layer}.share"] = seconds / op_s
    for name, value in zip(COUNT_NAMES, op_counts):
        metrics[name] = value / ops
    return metrics


def _git_commit() -> str | None:
    git = HERE.parent / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int, w: Workload, tiny: bool) -> dict:
    sources = sorted(
        p for p in (SRC / "seqlang").rglob("*") if p.is_file() and "__pycache__" not in p.parts
    )
    return {
        "seed": seed,
        "inputs": len(w.inputs),
        "input_digest": inputs.digest(t for inp in w.inputs for t in (inp.text, inp.gold)),
        "git_commit": _git_commit(),
        "source_digest": inputs.digest(p.read_text("utf-8") for p in sources),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "tiny": tiny,
    }


def finish(detail: dict, tally: Tally, metrics: dict, problem: str | None) -> int:
    """Print the detail line and the result line; returns the exit code."""
    detail["attempted"] = tally.attempted
    detail["error_rate"] = tally.failed / tally.attempted
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": problem is None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    if problem is None:
        return 0
    print(f"perfbench: {problem}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    sizes = TINY if args.tiny else FULL

    setup = None if args.trace else measure_setup(sizes.setup_reps)
    speed = calibrate.SpeedLog()
    w = make_workload(args.workload, args.seed, sizes, speed)
    detail = {"workload": w.name, "provenance": provenance(args.seed, w, args.tiny)}
    tally = Tally()
    baseline_counts = one_pass(w, tally, speed, None)  # warm-up; checks every input in full
    detail["exact_counts"] = {
        name: value / len(w.inputs) for name, value in zip(COUNT_NAMES, baseline_counts)
    }
    if tally.failed:
        return finish(detail, tally, {}, tally.first_failure)
    # Later passes repeat the same inputs, so the program's peak is reached
    # by now; reading it later would count the harness's growing samples.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.samples.clear()
    gc.collect()
    gc.freeze()

    start = perf_counter()
    if not args.trace:
        while not tally.failed and (
            perf_counter() - start < args.seconds or len(tally.samples) < sizes.min_ops
        ):
            one_pass(w, tally, speed, None)
        if tally.failed:
            return finish(detail, tally, {}, tally.first_failure)
        speed.sample()
        raw = sorted(took for _, took in tally.samples)
        scaled = sorted(took * speed.scale(at) for at, took in tally.samples)
        detail["latency_samples"] = len(scaled)
        detail["raw"] = {
            "ops_per_s": len(raw) / sum(raw),
            "latency_p50_us": percentile(raw, 0.50) * 1e6,
            "latency_p99_us": percentile(raw, 0.99) * 1e6,
            "setup_s": setup[1],
            "kernel_ms": statistics.median(speed.seconds) * 1e3,
        }
        metrics = {
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "latency_p50_us": (percentile(scaled, 0.50) * 1e6, "us"),
            "latency_p99_us": (percentile(scaled, 0.99) * 1e6, "us"),
            "setup_s": (setup[0], "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        return finish(detail, tally, metrics, None)

    # Untraced and traced passes alternate over the same inputs, so the
    # tracing overhead is measured on identical work.
    tracer = Tracer()
    traced_counts: list[int] = [0] * len(COUNT_NAMES)
    first_traced_counts = None
    passes = 0
    while not tally.failed and (passes == 0 or perf_counter() - start < args.seconds):
        one_pass(w, tally, speed, None)
        pass_counts = one_pass(w, tally, speed, tracer)
        first_traced_counts = first_traced_counts or pass_counts
        traced_counts = [a + b for a, b in zip(traced_counts, pass_counts)]
        passes += 1
    if tally.failed:
        return finish(detail, tally, {}, tally.first_failure)
    traced_ops = passes * len(w.inputs)
    detail["traced_ops"] = traced_ops
    try:
        values, detail["provenance"]["sweep_digest"] = sweeps(args.seed, sizes, speed)
    except OpFailed as exc:
        return finish(detail, tally, {}, f"{w.name}: {exc}")
    untraced_op_s = sum(took * speed.scale(at) for at, took in tally.samples) / len(tally.samples)
    values.update(layer_metrics(w, tracer, speed, traced_ops, traced_counts, untraced_op_s))
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    mismatch = [
        f"{name}: untraced {a} != traced {b}"
        for name, a, b in zip(COUNT_NAMES, baseline_counts, first_traced_counts)
        if a != b
    ]
    if mismatch:
        problem = f"{w.name}: exact counts differ between untraced and traced runs: " + "; ".join(mismatch)
        return finish(detail, tally, metrics, problem)
    return finish(detail, tally, metrics, None)


if __name__ == "__main__":
    sys.exit(main())
