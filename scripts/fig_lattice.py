"""Half-filled square-lattice data: spin correlation map, structure factor
and the staggered-QFI summary, at L = 64 in the ground-state regime."""

import pathlib

from singletgas import lattice
from singletgas.cli import build_config, run

OUT = pathlib.Path("data")
OUT.mkdir(exist_ok=True)

cfg = build_config(
    {"workflow": "lattice", "lattice_size": 64, "out": str(OUT / "lattice.csv")}
)
run(cfg)

sf = lattice.structure_factor(lattice.spin_correlation_map(64))
qfi = lattice.qfi_staggered(sf)
print("wrote", sorted(p.name for p in OUT.glob("lattice*")))
print(
    f"S(0,0)={sf[0, 0]:.5f}  S(pi,pi)={sf[32, 32]:.5f}  "
    f"QFI density={qfi.density:.5f}  witnessed={qfi.witnessed}"
)
