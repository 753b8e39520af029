"""One measured process: import the program, build the job configs, run them.

Started by run.py with ``PYTHONPATH=src`` and BLAS pinned to one thread:

    runner.py WORKDIR --setup-only
    runner.py WORKDIR --seconds S --trace 0|1

WORKDIR holds ``jobs.json`` from run.py; the result goes to
``WORKDIR/result.json``.

``--setup-only`` prints ``ready`` once the configs are built and exits;
run.py times process start to that line.  Otherwise whole rounds of jobs
run, one at a time, for about ``--seconds``.  Only ``cli.run`` is
timed; output checks and file removal happen between timed calls.  With
``--trace 1`` each round runs once untraced and once traced (alternating
which goes first), and the two passes must write byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from singletgas import cli

import tracing
import workloads


def run_job(job, cfg, paths, references, digests):
    t0 = perf_counter()
    try:
        status = cli.run(cfg)
        error = None if status == cli.EXIT_OK else f"exit status {status}"
    except Exception as err:  # a failing job is counted, the run goes on
        status, error = -1, f"{type(err).__name__}: {err}"
    seconds = perf_counter() - t0
    if error is None:
        error = workloads.check(job, paths, references)
    out_bytes = sum(p.stat().st_size for p in paths if p.exists())
    digest = None
    if digests:
        h = hashlib.sha256()
        for p in paths:
            h.update(p.read_bytes() if p.exists() else b"<missing>")
        digest = h.hexdigest()
    for p in paths:
        p.unlink(missing_ok=True)
    return {
        "kind": job["kind"],
        "seconds": seconds,
        "items": job["items"],
        "error": error,
        "bytes": out_bytes,
        "digest": digest,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    spec = json.loads((workdir / "jobs.json").read_text())
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rounds = []
    for r, jobs in enumerate(spec["rounds"]):
        built = []
        for j, job in enumerate(jobs):
            fmt = job["config"].get("format", "csv")
            out = workdir / f"job.{fmt}"
            cfg = cli.build_config({**job["config"], "out": str(out)})
            built.append((job, cfg, workloads.output_paths(job["config"], out)))
        rounds.append(built)
    if tracer:
        tracer.uninstall()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    references = json.loads(workloads.REFERENCES_PATH.read_text())
    records = []
    mismatches = 0
    start = perf_counter()
    r = 0
    while True:
        round_start = perf_counter()
        built = rounds[r % len(rounds)]
        passes = [False] if not tracer else ([False, True] if r % 2 == 0 else [True, False])
        by_pass = {}
        for traced in passes:
            if traced:
                tracer.install()
            recs = []
            for job, cfg, paths in built:
                if traced:
                    tracer.job_id = len(records) + len(recs)
                rec = run_job(job, cfg, paths, references, digests=bool(tracer))
                rec["traced"] = traced
                rec["round"] = r
                recs.append(rec)
            if traced:
                tracer.uninstall()
            by_pass[traced] = recs
        if tracer:
            for plain, traced in zip(by_pass[False], by_pass[True]):
                if plain["digest"] != traced["digest"] and traced["error"] is None:
                    traced["error"] = "traced output differs from untraced output"
                    mismatches += 1
        for traced in passes:
            records.extend(by_pass[traced])
        r += 1
        # Stop at the round boundary nearest to --seconds, so that a run
        # measures about --seconds whatever a round costs.
        elapsed = perf_counter() - start
        if elapsed + 0.5 * (perf_counter() - round_start) >= args.seconds:
            break
    wall = perf_counter() - start

    result = {
        "records": records,
        "rounds": r,
        "measure_wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer:
        traced = [rec for rec in records if rec["traced"]]
        plain = [rec for rec in records if not rec["traced"]]
        result["per_layer"] = tracing.layer_metrics(
            tracer,
            traced_jobs=len(traced),
            traced_job_s=sum(rec["seconds"] for rec in traced),
            untraced_job_s=sum(rec["seconds"] for rec in plain),
            output_bytes=sum(rec["bytes"] for rec in traced),
        )
        result["identity_mismatches"] = mismatches
        tracer.save(workdir / "spans.npz")
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
