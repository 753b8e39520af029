"""The four benchmark workloads: seeded job configs and output checks.

A workload is a list of rounds; a round is a list of jobs; a job is one
``cli.run`` call on a config dict built here from the seed.  The runner
only ever stops between rounds, so every run sees whole rounds and the
mix of job kinds (and with it the median and p90 positions) is fixed.

This module does not import ``singletgas``: the program receives only the
generated configs, and the inputs stay the same when the program changes.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep_grid", "threshold", "validate", "lattice")

# Pinned from this code by pin_references.py.  Jitter picks from these
# pools so that every generated point has a pinned answer.
T_POOL = [round(0.10 + 0.04 * k, 2) for k in range(36)]  # 0.10 .. 1.50
P_POOL = [round(0.05 + 0.10 * k, 2) for k in range(8)]  # 0.05 .. 0.75
THRESHOLD_P_POOL = [round(0.05 * k, 2) for k in range(1, 11)]  # 0.05 .. 0.50

# Loose enough for quadrature-accuracy fixes (~4e-6 on T*), tight enough
# to catch a wrong answer.
FS_ATOL = 1e-4
TSTAR_ATOL = 1e-4
LATTICE_SUM_ATOL = 1e-10

SWEEP_COLUMNS = "T_over_mu,P,f_s,var_Jx,var_Jz,mean_N,witnessed"
VALIDATE_COLUMNS = "index,is_bose,modes,max_rel_err,ok"

# Rounds generated per workload; a run that outlasts them starts over.
POOL_ROUNDS = {"sweep_grid": 400, "threshold": 200, "validate": 12, "lattice": 40}

REFERENCES_PATH = Path(__file__).with_name("references.json")


def point_key(t, p):
    return f"{t:.2f}|{p:.2f}"


def make_rounds(workload, seed, tiny=False):
    """Rounds of job dicts ``{"kind", "config", "items", "expect"}``."""
    rng = random.Random(f"{workload}:{seed}")
    maker = {
        "sweep_grid": _sweep_round,
        "threshold": _threshold_round,
        "validate": _validate_round,
        "lattice": _lattice_round,
    }[workload]
    count = 1 if tiny else POOL_ROUNDS[workload]
    return [maker(rng, tiny) for _ in range(count)]


def _job(kind, config, items, **expect):
    return {"kind": kind, "config": config, "items": items, "expect": expect}


def _sweep_round(rng, tiny):
    # One temperature row of the 27,000-level grid, two P > 0 targets.
    t = rng.choice(T_POOL)
    ps = sorted(rng.sample(P_POOL, 2))
    config = {
        "workflow": "freespace",
        "spectrum": "grid",
        "half_width": 15,
        "t_grid": [t],
        "p_grid": ps,
    }
    return [_job("sweep", config, len(ps))]


def _threshold_round(rng, tiny):
    # One continuum search, four trap searches: p50 falls among the trap
    # jobs and p90 among the continuum ones, never on the boundary.
    jobs = []
    for spectrum in ("continuum", "trap", "trap", "trap", "trap"):
        p = rng.choice(THRESHOLD_P_POOL)
        config = {"workflow": "threshold", "spectrum": spectrum, "p_target": p}
        jobs.append(_job(f"threshold_{spectrum}", config, 1))
    return jobs


# Validate: Bose ensembles cost a fixed amount per (mode count, converged
# boson cutoff), measured at this commit for two modes as about 0.23 s at
# n_cut = 40, 3.5 s at n_cut = 80 and about 60 s at n_cut = 160.  The
# cutoff follows from u = beta * (lowest level - H/2 - mu): 40 for u >= 0.72,
# 80 for 0.48 <= u <= 0.66.  Drawing seeds at random would make a run's cost
# depend on how many slow ensembles it happened to draw, so each round holds
# a fixed number of each class, with a margin around the class boundaries.
# One n_cut = 160 ensemble outlasts a whole run, so that class is not drawn;
# the one n_cut = 80 ensemble per round keeps the tail in view.  Of the 20
# jobs in a round, 17 are Fermi-only, so the median falls among them and
# p90 in the middle of the n_cut = 40 Bose jobs.
VALIDATE_FERMI_JOBS = 17
VALIDATE_FERMI_SAMPLES = 100
VALIDATE_BOSE_FAST_JOBS = 2
BOSE_FAST_U = (0.85, 3.0)  # converges at n_cut = 40
BOSE_SLOW_U = (0.50, 0.62)  # doubles once, to n_cut = 80


def predicted_bose_ensemble(seed):
    """(modes, u) of the first Bose ensemble ``validate`` draws for a seed.

    Replays ``singletgas.rng.Lcg64`` and ``cli._sample_bose_ensemble`` with
    ``samples_fermi = 0``; the check compares the predicted mode count with
    the one the program writes.
    """
    state = seed & _MASK

    def draw():
        nonlocal state
        state = (_LCG_MULTIPLIER * state + _LCG_INCREMENT) & _MASK
        return state

    modes = 1 + draw() % 2
    for _ in range(modes + 2):  # energies, beta, field
        draw()
    u = 0.3 + 2.7 * ((draw() >> 11) / float(1 << 53))
    return modes, u


_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_MASK = (1 << 64) - 1


def _bose_seed(rng, u_range):
    while True:
        seed = rng.getrandbits(31)
        modes, u = predicted_bose_ensemble(seed)
        if modes == 2 and u_range[0] <= u <= u_range[1]:
            return seed


def _validate_config(seed, fermi, bose):
    return {
        "workflow": "validate",
        "seed": seed,
        "samples_fermi": fermi,
        "samples_bose": bose,
    }


def _validate_round(rng, tiny):
    fermi_jobs, fast_jobs, slow_jobs = (
        (2, 1, 0) if tiny else (VALIDATE_FERMI_JOBS, VALIDATE_BOSE_FAST_JOBS, 1)
    )
    jobs = [
        _job(
            "validate_fermi",
            _validate_config(rng.getrandbits(31), VALIDATE_FERMI_SAMPLES, 0),
            VALIDATE_FERMI_SAMPLES,
        )
        for _ in range(fermi_jobs)
    ]
    for kind, count, u_range in (
        ("validate_bose_n40", fast_jobs, BOSE_FAST_U),
        ("validate_bose_n80", slow_jobs, BOSE_SLOW_U),
    ):
        for _ in range(count):
            seed = _bose_seed(rng, u_range)
            jobs.append(_job(kind, _validate_config(seed, 0, 1), 1, modes=2))
    rng.shuffle(jobs)
    return jobs


def _lattice_round(rng, tiny):
    # One large CSV map and two JSON maps at the default temperature; the
    # writer dominates all of them.  Two JSON jobs put the median inside the
    # JSON cluster and p90 inside the CSV cluster, away from the boundary.
    # The seed changes nothing here: the temperature sets how many digits
    # the writer prints, and with it the cost, and the job order moves the
    # peak memory.
    maps = ((64, "csv"), (32, "json"), (32, "json")) if tiny else (
        (1024, "csv"), (512, "json"), (512, "json"))
    return [
        _job(
            f"lattice_{fmt}",
            {"workflow": "lattice", "lattice_size": size, "format": fmt},
            size * size,
        )
        for size, fmt in maps
    ]


# ---------------------------------------------------------------- outputs


def output_paths(config, out):
    """Files a job writes when its config has ``out = out``."""
    if config["workflow"] != "lattice":
        return [out]
    suffix = out.suffix or ".csv"
    return [
        out.with_name(out.stem + "_correlation" + suffix),
        out.with_name(out.stem + "_structure_factor" + suffix),
    ]


def check(job, paths, references):
    """None when the job's output files are right, else the reason."""
    kind = job["kind"]
    try:
        if kind == "sweep":
            return _check_sweep(job, paths[0], references)
        if kind.startswith("threshold"):
            return _check_threshold(job, paths[0], references)
        if kind.startswith("validate"):
            return _check_validate(job, paths[0])
        return _check_lattice(job, paths)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return f"unreadable output: {err!r}"


def _csv_rows(path, header):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]} != {header!r}")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("non-finite value in output")
    return rows


def _check_sweep(job, path, references):
    cfg = job["config"]
    rows = _csv_rows(path, SWEEP_COLUMNS)
    points = [(t, p) for t in cfg["t_grid"] for p in cfg["p_grid"]]
    if len(rows) != len(points):
        return f"{len(rows)} rows for {len(points)} points"
    for row, (t, p) in zip(rows, points):
        if (row[0], row[1]) != (t, p):
            return f"row for T={row[0]}, P={row[1]} where T={t}, P={p} expected"
        ref = references["sweep_grid"][point_key(t, p)]
        if abs(row[2] - ref) > FS_ATOL:
            return f"f_s(T={t}, P={p}) = {row[2]}, reference {ref}"
    return None


def _check_threshold(job, path, references):
    cfg = job["config"]
    rows = _csv_rows(path, "P,T_star_over_mu")
    if len(rows) != 1 or rows[0][0] != cfg["p_target"]:
        return f"unexpected rows {rows}"
    ref = references["threshold"][cfg["spectrum"]][f"{cfg['p_target']:.2f}"]
    if abs(rows[0][1] - ref) > TSTAR_ATOL:
        return f"T*({cfg['spectrum']}, P={cfg['p_target']}) = {rows[0][1]}, reference {ref}"
    return None


def _check_validate(job, path):
    cfg = job["config"]
    rows = _csv_rows(path, VALIDATE_COLUMNS)
    if len(rows) != cfg["samples_fermi"] + cfg["samples_bose"]:
        return f"{len(rows)} rows for {cfg['samples_fermi'] + cfg['samples_bose']} ensembles"
    if not all(row[4] == 1 for row in rows):
        return "an ensemble is not ok"
    modes = job["expect"].get("modes")
    if modes is not None and rows[-1][2] != modes:
        return f"Bose ensemble has {rows[-1][2]:g} modes, the sampler model predicts {modes}"
    return None


def _read_map(path):
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        size, values = payload["L"], np.array(payload["values"], dtype=float)
    else:
        with path.open() as fh:
            line = next(fh)
            while line.startswith("#"):
                line = next(fh)
            key, size = line.strip().split(",")
            if key != "L":
                raise ValueError(f"bad map header {line!r}")
            size = int(size)
            values = np.array([np.fromstring(row, sep=",") for row in fh])
    if values.shape != (size, size):
        raise ValueError(f"map shape {values.shape} for L = {size}")
    if not np.isfinite(values).all():
        raise ValueError("non-finite value in map")
    return values


def _check_lattice(job, paths):
    corr, sf = (_read_map(p) for p in paths)
    size = job["config"]["lattice_size"]
    if corr.shape[0] != size:
        return f"map size {corr.shape[0]} for L = {size}"
    gap = abs(sf.mean() - corr[0, 0])
    if gap > LATTICE_SUM_ATOL:
        return f"mean S(k) differs from the onsite correlation by {gap:.3g}"
    return None
