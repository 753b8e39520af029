"""Recompute the pinned answers the benchmark checks outputs against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/pin_references.py

It evaluates f_s on every (T, P) point of the sweep pools and T* for every
threshold target with the program as it is, and rewrites
perfbench/references.json.  The pins record what the code computed when
the benchmark was defined; regenerate them only with a reason recorded.
"""

from __future__ import annotations

import json
import sys

from singletgas import spectra, spinmoments

from workloads import (
    P_POOL,
    REFERENCES_PATH,
    T_POOL,
    THRESHOLD_P_POOL,
    point_key,
)


def main():
    grid = spectra.FreeSpaceGrid(half_width=15)
    sweep = {}
    for t in T_POOL:
        for pt in spinmoments.singlet_fraction_sweep(grid, [t], P_POOL):
            sweep[point_key(t, pt.p_target)] = pt.singlet_fraction
        print(f"T = {t}", file=sys.stderr)
    models = {
        "continuum": spectra.FreeSpaceContinuum(),
        "trap": spectra.HarmonicTrap(level_spacing=1.0 / 30.0),
    }
    threshold = {
        name: {
            f"{p:.2f}": spinmoments.find_threshold(model, p, t_bracket=(0.02, 2.0))
            for p in THRESHOLD_P_POOL
        }
        for name, model in models.items()
    }
    REFERENCES_PATH.write_text(
        json.dumps({"sweep_grid": sweep, "threshold": threshold}, indent=1, sort_keys=True)
        + "\n"
    )


if __name__ == "__main__":
    main()
