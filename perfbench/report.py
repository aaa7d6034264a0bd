#!/usr/bin/env python3
"""Run every workload, untraced then traced, and print every metric.

    python3 perfbench/report.py --seed 7 --seconds 30

Each run is a separate ``perfbench/run.py`` process.  For each workload
this prints the provenance, each end-to-end metric with its unit (the
latencies with their sample count), the error rate, and each per-layer
metric with its unit.  Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> tuple[int, dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        return done.returncode or 1, {}, {}
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, detail, result = run_once(workload, args.seed, args.seconds, trace, args.tiny)
            status = status or code
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload}: {kind}, exit {code}")
            if not result:
                continue
            if not trace:
                print("   provenance: " + json.dumps(detail["provenance"], sort_keys=True))
            samples = detail.get("latency_samples", detail.get("traced_ops"))
            for name, metric in result["metrics"].items():
                note = f"  (n={samples})" if name.startswith("latency_") else ""
                print(f"   {name:52s} {metric['value']:16.4f} {metric['unit']}{note}")
            print(f"   {'error_rate':52s} {detail['error_rate']:16.4f} fraction"
                  f"  ({result['failed']} of {result['attempted']} ops)")
    return status


if __name__ == "__main__":
    sys.exit(main())
