"""singletgas benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 24 --trace 0

Run from the repository root.  The workload's job configs are generated
from the seed, then run.py starts fresh processes of perfbench/runner.py
one after another, never two at once, with ``PYTHONPATH=src`` and BLAS
pinned to one thread:

* SETUP_PROBES processes that only import ``singletgas`` and build every
  job config; ``setup_s`` is their median time from process start;
* one process that runs the jobs for ``--seconds`` and checks each output.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (jobs) and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Inputs, per-job records, the environment and the spans of
a traced run are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
RUN_TIMEOUT_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return env


def runner_cmd(workdir, *extra):
    return [
        sys.executable,
        str(ROOT / "perfbench" / "runner.py"),
        str(workdir),
        *extra,
    ]


def probe_setup(workdir, deadline):
    """Seconds from process start until every job config is built."""
    t0 = perf_counter()
    with subprocess.Popen(
        runner_cmd(workdir, "--setup-only"),
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.wait(timeout=max(1.0, deadline - perf_counter()))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return ready


def measure(workdir, seconds, trace, deadline):
    cmd = runner_cmd(workdir, "--seconds", str(seconds), "--trace", str(trace))
    try:
        subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            check=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.CalledProcessError as err:
        raise BenchError(f"measured run failed (exit {err.returncode})") from None
    except subprocess.TimeoutExpired:
        raise BenchError("measured run timed out") from None
    return json.loads((workdir / "result.json").read_text())


def environment(seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "singletgas").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(records, setup_times, peak_rss_mb):
    """Throughput is the median over rounds of items / job seconds, which a
    transient slowdown of the machine moves less than the pooled ratio."""
    seconds = [rec["seconds"] for rec in records]
    rounds = {}
    for rec in records:
        items, secs = rounds.get(rec["round"], (0, 0.0))
        rounds[rec["round"]] = (items + rec["items"], secs + rec["seconds"])
    return {
        "items_per_s": (statistics.median(i / s for i, s in rounds.values()), "1/s"),
        "job_s_p50": (float(np.percentile(seconds, 50)), "s"),
        "job_s_p90": (float(np.percentile(seconds, 90)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="one small round (smoke check)"
    )
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_TIMEOUT_S

    if not (ROOT / "src" / "singletgas" / "cli.py").is_file():
        print(f"error: no singletgas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = OUT_ROOT / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rounds = workloads.make_rounds(args.workload, args.seed, tiny=args.tiny)
    (workdir / "jobs.json").write_text(json.dumps({"rounds": rounds}))

    env = environment(args.seed)
    try:
        setup_times = [] if args.trace else [
            probe_setup(workdir, deadline) for _ in range(SETUP_PROBES)
        ]
        result = measure(workdir, args.seconds, args.trace, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    records = result["records"]
    failed = [rec for rec in records if rec["error"] is not None]
    for rec in failed[:5]:
        print(f"failed {rec['kind']} job: {rec['error']}", file=sys.stderr)
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = end_to_end(records, setup_times, result["peak_rss_mb"])
    env.update(python=result["python"], numpy=result["numpy"])
    summary = {
        "workload": args.workload,
        "env": env,
        "jobs": len(records),
        "rounds": result["rounds"],
        "measure_wall_s": result["measure_wall_s"],
        "setup_times_s": setup_times,
    }
    (workdir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("# " + json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
