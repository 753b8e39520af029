"""Smoke check of the benchmark: every workload, tiny size, both modes.

    python3 perfbench/smoke.py

Runs run.py with ``--tiny`` (one small round per workload) with tracing
off and on, and fails unless every metric BENCHMARK.json names is printed
with its unit and no job failed its output check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [
                *spec["command"], "--workload", workload, "--seed", "1",
                "--seconds", "0.1", "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{where}: metrics {printed} != {expected[trace]}")
            print(f"ok  {where}: {result['attempted']} jobs", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
