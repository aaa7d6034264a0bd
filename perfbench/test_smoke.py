"""Smoke test of the benchmark harness at tiny sizes (about 15 s).

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the repository's test suite: pytest only collects ``tests/``
unless given this path.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["error_rate"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(detail["provenance"]) >= {"seed", "input_digest", "git_commit", "python", "nproc"}
    if not trace:
        assert detail["latency_samples"] >= 1
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_report_prints_every_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/report.py", "--tiny", "--seconds", "0.3", "--seed", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert done.stdout.count(f" {metric['name']} ") == len(WORKLOADS), metric["name"]
    assert done.stdout.count("error_rate") == 2 * len(WORKLOADS)


def _copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    done = bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout == ""


def test_wrong_output_fails_naming_workload_and_op(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    interpreter = tmp_path / "src" / "seqlang" / "interpreter.py"
    interpreter.write_text(
        interpreter.read_text()
        + "\n\n_run = run\n\n\ndef run(xml_text, plant=None):\n"
        + "    trace, status = _run(xml_text, plant)\n    return trace[:-1], status\n"
    )
    done = bench(tmp_path, "missions", 0)
    assert done.returncode != 0
    assert "missions: op 0 (input 0) failed" in done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
