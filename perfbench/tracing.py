"""Span tracing installed from outside the program, at module boundaries.

``Tracer.install`` wraps the public functions of each ``singletgas`` layer
and rebinds the wrapper at every name the function is reached through:
its own module, the package namespace, and every module that imported it
by name (``spinmoments`` imports ``build_occupation_table`` and
``total_number`` that way).  Calls through a module attribute, such as
``cli`` calling ``oracle.exact_moments``, see the wrapper on the module.
No code under ``src/`` changes; ``uninstall`` puts the originals back.

Spans are kept in memory as columns (name, job, parent, start, end) and
saved when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("spectra", "occupancy", "spinmoments", "oracle", "lattice", "cli")
# cli's helpers (run_sweep, the writers, oracle_deviation, ...) stay
# unwrapped, so cli.run's self time is orchestration, formatting and
# writing.
CLI_ENTRY_POINTS = ("build_config", "run")
# Spans named after an argument: exact_moments is split by statistics.
SPAN_SUFFIX = {"oracle.exact_moments": lambda ens, *a, **k: ens.statistics}
SETUP_JOB = -1


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.job = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.levels = 0  # energy levels returned by spectra.enumerate_levels
        self.job_id = SETUP_JOB
        self._stack = []
        self._rebound = []
        self._wrappers = {}

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, func):
        nid = self._name_id(name)
        suffix = SPAN_SUFFIX.get(name)
        count_levels = name == "spectra.enumerate_levels"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = self._name_id(f"{name}.{suffix(*args, **kwargs)}") if suffix else nid
            idx = len(self.start)
            stack = self._stack
            self.name.append(span_name)
            self.job.append(self.job_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if count_levels:
                self.levels += len(result[0])
            return result

        return traced

    def install(self):
        """Wrap every traced function at every name bound to it."""
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"singletgas.{layer}")
                for attr, obj in vars(module).items():
                    public = not attr.startswith("_") and (
                        layer != "cli" or attr in CLI_ENTRY_POINTS
                    )
                    if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                        self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "singletgas"]
        for module in package:
            for attr, obj in list(vars(module).items()):
                pair = self._wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    self._rebound.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in self._rebound:
            setattr(module, attr, obj)
        self._rebound = []

    def columns(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def self_times(cols):
    """Per-span self time: duration minus the durations of direct children."""
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def layer_metrics(tracer, traced_jobs, traced_job_s, untraced_job_s, output_bytes):
    """Per-layer metrics, averaged per traced job (build_config per config)."""
    cols = tracer.columns()
    own = self_times(cols)
    ids, parent = cols["name"], cols["parent"]
    in_job = cols["job"] >= 0
    n_names = len(tracer.names)
    calls = dict(zip(tracer.names, np.bincount(ids[in_job], minlength=n_names)))
    self_s = dict(
        zip(tracer.names, np.bincount(ids[in_job], weights=own[in_job], minlength=n_names))
    )
    # (child name, parent name) -> number of such parent links in jobs
    linked = in_job & (parent >= 0)
    links = collections.Counter(
        (tracer.names[c], tracer.names[p]) for c, p in zip(ids[linked], ids[parent[linked]])
    )

    def ratio(num, den):
        return float(num) / den if den else 0.0

    metrics = {}
    for name in (
        "spectra.enumerate_levels",
        "occupancy.build_occupation_table",
        "occupancy.occupation",
        "occupancy.solve_field_for_polarization",
        "spinmoments.singlet_fraction_sweep",
        "spinmoments.find_threshold",
        "spinmoments.moments_at",
        "spinmoments.collective_variances",
        "oracle.exact_moments.fermi",
        "oracle.exact_moments.bose",
        "lattice.spin_correlation_map",
        "lattice.structure_factor",
    ):
        metrics[f"{name}.calls"] = (ratio(calls.get(name, 0), traced_jobs), "1/job")
        metrics[f"{name}.self_s"] = (ratio(self_s.get(name, 0.0), traced_jobs), "s/job")
    metrics["spectra.levels"] = (ratio(tracer.levels, traced_jobs), "levels/job")
    for name in ("spectra.resolve_model", "occupancy.polarization_at"):
        metrics[f"{name}.calls"] = (ratio(calls.get(name, 0), traced_jobs), "1/job")
    solve, search = "occupancy.solve_field_for_polarization", "spinmoments.find_threshold"
    metrics["occupancy.p_evals_per_solve"] = (
        ratio(links["occupancy.polarization_at", solve], calls.get(solve, 0)), "ratio"
    )
    metrics["spinmoments.f_s_evals_per_threshold"] = (
        ratio(links["spinmoments.moments_at", search], calls.get(search, 0)), "ratio"
    )

    setup = ~in_job & (ids == tracer.names.index("cli.build_config"))
    metrics["cli.build_config.self_s"] = (
        ratio(own[setup].sum(), np.count_nonzero(setup)), "s/config"
    )
    metrics["cli.run.self_s"] = (ratio(self_s.get("cli.run", 0.0), traced_jobs), "s/job")
    metrics["cli.output_bytes"] = (ratio(output_bytes, traced_jobs), "B/job")
    for layer in LAYERS:
        mine = sum(v for n, v in self_s.items() if n.split(".")[0] == layer)
        metrics[f"{layer}.share"] = (ratio(mine, traced_job_s), "frac")
    metrics["trace.overhead_frac"] = (traced_job_s / untraced_job_s - 1.0, "frac")
    return metrics
