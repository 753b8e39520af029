"""Harmonic-trap singlet-fraction data at mu / (hbar omega) = 30.

Writes trap_fs_vs_T.csv and trap_fs_map.csv into ./data.
"""

import pathlib

import numpy as np

from singletgas.cli import build_config, run

OUT = pathlib.Path("data")
OUT.mkdir(exist_ok=True)

line = build_config(
    {
        "workflow": "freespace",
        "spectrum": "trap",
        "mu_over_homega": 30,
        "t_grid": np.round(np.linspace(0.02, 0.6, 60), 6).tolist(),
        "p_grid": [0.0],
        "out": str(OUT / "trap_fs_vs_T.csv"),
    }
)
run(line)

heatmap = build_config(
    {
        "workflow": "freespace",
        "spectrum": "trap",
        "mu_over_homega": 30,
        "t_grid": np.round(np.linspace(0.02, 0.5, 25), 6).tolist(),
        "p_grid": np.round(np.linspace(0.0, 0.99, 101), 6).tolist(),
        "out": str(OUT / "trap_fs_map.csv"),
    }
)
run(heatmap)

threshold = build_config(
    {
        "workflow": "threshold",
        "spectrum": "trap",
        "t_bracket": [0.05, 1.0],
        "out": str(OUT / "trap_threshold.csv"),
    }
)
run(threshold)
print("wrote", sorted(p.name for p in OUT.glob("trap*")))
