"""Batch front end: config parsing, workflows, deterministic CSV/JSON output.

Workflows: ``freespace`` sweeps the singlet fraction of the configured
spectrum over a (T, P) grid; ``threshold`` locates the temperature where
f_s vanishes; ``lattice`` emits the spin correlation map and structure factor;
``validate`` cross-checks the closed-form variances against the exact
few-mode enumeration on seeded random ensembles.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import lattice, oracle, spectra, spinmoments
from .occupancy import DegenerateInputError, DomainError, NoConvergence
from .rng import Lcg64

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    workflow: str = ""
    spectrum: str = "continuum"  # continuum | grid | trap
    t_grid: list = field(default_factory=lambda: [0.1, 0.2, 0.5, 1.0])
    p_grid: list = field(default_factory=lambda: [0.0])
    p_target: float = 0.0
    t_bracket: list = field(default_factory=lambda: [0.02, 2.0])
    mu_over_homega: float = 30.0
    half_width: int = 15
    lattice_size: int = 64
    t_over_j: float = lattice.GROUND_STATE_T
    samples_fermi: int = 100
    samples_bose: int = 20
    seed: int = 1
    out: str = "out.csv"
    format: str = "csv"

    WORKFLOWS = ("freespace", "lattice", "validate", "threshold")

    def validate(self):
        if self.workflow not in self.WORKFLOWS:
            raise ConfigError(f"workflow must be one of {self.WORKFLOWS}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.spectrum not in ("continuum", "grid", "trap"):
            raise ConfigError(f"unknown spectrum {self.spectrum!r}")
        if len(self.t_bracket) != 2:
            raise ConfigError("t_bracket must hold two temperatures")
        for name in ("t_grid", "p_grid", "t_bracket"):
            grid = getattr(self, name)
            if not grid:
                raise ConfigError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        for name in ("t_grid", "p_grid", "t_bracket"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ConfigError(f"{name} must be finite")
        for name in ("p_target", "mu_over_homega", "t_over_j"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if any(t <= 0 for t in self.t_grid + self.t_bracket):
            raise ConfigError("temperatures must be positive")
        if any(not 0.0 <= p < 1.0 for p in self.p_grid + [self.p_target]):
            raise ConfigError("polarizations must lie in [0, 1)")
        if self.lattice_size <= 0 or self.lattice_size % 2:
            raise ConfigError("lattice_size must be a positive even integer")
        for name in ("t_over_j", "mu_over_homega", "half_width"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.samples_fermi < 0 or self.samples_bose < 0:
            raise ConfigError("sample counts must be nonnegative")

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def parse_config_text(text):
    """Flat ``key = value`` lines, or a JSON object; '#' starts a comment."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"bad JSON config: {err}") from None
    data = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = value
    return data


def _number(raw, kind):
    """``raw`` as ``kind`` (int or float); booleans and fractional ints fail."""
    if isinstance(raw, bool) or (
        kind is int and isinstance(raw, float) and not raw.is_integer()
    ):
        raise ValueError(f"{raw!r} is not a valid {kind.__name__}")
    return kind(raw)


def build_config(data, overrides=None):
    cfg = RunConfig()
    data = dict(data)
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    known = {f.name: f for f in fields(RunConfig)}
    for key, raw in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        try:
            if isinstance(current, list):
                if isinstance(raw, str):
                    raw = [v for v in raw.split(",") if v.strip()]
                setattr(cfg, key, [_number(v, float) for v in raw])
            elif isinstance(current, (int, float)):
                setattr(cfg, key, _number(raw, type(current)))
            else:
                setattr(cfg, key, str(raw))
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
    cfg.validate()
    return cfg


def _model_for(cfg):
    if cfg.spectrum == "grid":
        return spectra.FreeSpaceGrid(half_width=cfg.half_width)
    if cfg.spectrum == "trap":
        return spectra.HarmonicTrap(level_spacing=1.0 / cfg.mu_over_homega)
    return spectra.FreeSpaceContinuum()


# json.dumps prints a float as repr(float(t)) for its %.12g token t.  For a
# normal float that is t itself, with ".0" if t is integral: two decimals of
# at most 12 digits lie more than one ulp apart, so t is the shortest string
# that round-trips.  It is not where %g writes 1e12 <= |x| < 1e16 in exponent
# form and repr does not, nor for a subnormal, whose few bits cannot tell
# twelve digits apart; a row holding such a token goes through repr.
_REPR_DIFFERS = re.compile(r"e(\+1|-3\d\d)")


def _json_tokens(text):
    """The JSON numbers of one comma-joined ``%.12g`` row."""
    if _REPR_DIFFERS.search(text):
        return map(repr, map(float, text.split(",")))
    return [t if "." in t or "e" in t else t + ".0" for t in text.split(",")]


def _write(path, cfg, csv_head, json_head, rows_key, rows):
    """Write ``rows`` below the resolved config, as CSV or as JSON.

    ``csv_head`` is the CSV line above the rows; ``json_head`` is the
    (key, value) pair stored next to ``rows_key`` in the JSON object.
    Each value is printed once with ``%.12g`` and the file is written row
    by row; JSON comes out in the bytes ``json.dumps(indent=1,
    sort_keys=True)`` gives for the rounded floats.
    """
    rows = np.asarray(rows, dtype=float)
    if not np.isfinite(rows).all():
        raise DomainError(f"refusing to write non-finite values to {path}")
    cells = ",".join(["%.12g"] * rows.shape[-1])
    with open(path, "w") as out:
        if cfg.format == "json":
            head = json.dumps(
                {"config": cfg.as_dict(), json_head[0]: json_head[1], rows_key: []},
                indent=1,
                sort_keys=True,
            )
            assert head.endswith(f'"{rows_key}": []\n}}'), f"{rows_key} must sort last"
            out.write(head.removesuffix("]\n}"))
            sep = "\n  [\n   "
            for row in rows:
                tokens = _json_tokens(cells % tuple(row.tolist()))
                out.write(sep + ",\n   ".join(tokens))
                sep = "\n  ],\n  [\n   "
            out.write(("\n  ]\n ]" if len(rows) else "]") + "\n}\n")
            return
        for key, value in sorted(cfg.as_dict().items()):
            out.write(f"# {key} = {value}\n")
        out.write(csv_head + "\n")
        for row in rows:
            out.write(cells % tuple(row.tolist()) + "\n")


def _write_table(cfg, columns, rows):
    _write(cfg.out, cfg, ",".join(columns), ("columns", list(columns)), "rows", rows)


SWEEP_COLUMNS = ("T_over_mu", "P", "f_s", "var_Jx", "var_Jz", "mean_N", "witnessed")


def run_sweep(cfg):
    points = spinmoments.singlet_fraction_sweep(_model_for(cfg), cfg.t_grid, cfg.p_grid)
    rows = [
        (
            pt.temperature,
            pt.p_target,
            pt.singlet_fraction,
            pt.moments.var_jx,
            pt.moments.var_jz,
            pt.moments.mean_n,
            int(pt.witnessed),
        )
        for pt in points
    ]
    _write_table(cfg, SWEEP_COLUMNS, rows)


def run_threshold(cfg):
    model = _model_for(cfg)
    t_star = spinmoments.find_threshold(
        model, cfg.p_target, t_bracket=tuple(cfg.t_bracket)
    )
    _write_table(cfg, ("P", "T_star_over_mu"), [(cfg.p_target, t_star)])


def run_lattice(cfg):
    cmap = lattice.spin_correlation_map(cfg.lattice_size, temperature=cfg.t_over_j)
    sf = lattice.structure_factor(cmap)
    out = Path(cfg.out)
    L = cfg.lattice_size
    for name, values in (("_correlation", cmap), ("_structure_factor", sf)):
        path = out.with_name(out.stem + name + (out.suffix or "." + cfg.format))
        _write(path, cfg, f"L,{L}", ("L", L), "values", values)


def _sample_fermi_ensemble(gen):
    modes = gen.randint(1, 4)
    return oracle.FockEnsemble(
        statistics="fermi",
        energies=tuple(gen.uniform(-1.0, 1.0) for _ in range(modes)),
        beta=gen.uniform(0.2, 5.0),
        mu=gen.uniform(-1.0, 1.0),
        field=gen.uniform(0.0, 1.0),
    )


def _sample_bose_ensemble(gen):
    modes = gen.randint(1, 2)
    energies = tuple(gen.uniform(0.2, 1.5) for _ in range(modes))
    beta = gen.uniform(0.5, 3.0)
    h = gen.uniform(0.0, 0.3)
    # keep the gap to the lowest level at least 0.3/beta, where the oracle's
    # occupation cutoff stays below 200
    mu = min(energies) - h / 2.0 - gen.uniform(0.3, 3.0) / beta
    return oracle.FockEnsemble(
        statistics="bose", energies=energies, beta=beta, mu=mu, field=h
    )


ORACLE_RTOL = 1e-10


def run_validate(cfg):
    gen = Lcg64(cfg.seed)
    samplers = [_sample_fermi_ensemble] * cfg.samples_fermi
    samplers += [_sample_bose_ensemble] * cfg.samples_bose
    ensembles = [sample(gen) for sample in samplers]
    deviations = oracle.oracle_deviations(ensembles)
    rows = [
        (i, ens.statistics == "bose", len(ens.energies), dev, dev < ORACLE_RTOL)
        for i, (ens, dev) in enumerate(zip(ensembles, deviations))
    ]
    _write_table(cfg, ("index", "is_bose", "modes", "max_rel_err", "ok"), rows)
    return sum(not row[-1] for row in rows)


def run(cfg):
    """Execute one workflow; returns a process exit status."""
    if cfg.workflow == "freespace":
        run_sweep(cfg)
    elif cfg.workflow == "threshold":
        run_threshold(cfg)
    elif cfg.workflow == "lattice":
        run_lattice(cfg)
    elif cfg.workflow == "validate":
        if run_validate(cfg):
            return 1
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="singletgas",
        description="Collective-spin entanglement witnesses for ideal quantum gases",
    )
    parser.add_argument("--config", help="config file (key = value lines, or JSON)")
    parser.add_argument("--workflow", choices=RunConfig.WORKFLOWS)
    parser.add_argument("--out", help="output path")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)

    try:
        data = {}
        if args.config:
            data = parse_config_text(Path(args.config).read_text())
        cfg = build_config(
            data,
            overrides={
                "workflow": args.workflow,
                "out": args.out,
                "format": args.format,
                "seed": args.seed,
            },
        )
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run(cfg)
    except (DomainError, DegenerateInputError, spinmoments.BracketError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except NoConvergence as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
