"""Collective-spin fluctuations and entanglement witnesses of ideal
spin-1/2 quantum gases, plus lattice spin correlations and the
staggered-QFI witness."""

from .lattice import (
    QfiResult,
    first_order_correlation,
    qfi_staggered,
    spin_correlation_map,
    structure_factor,
)
from .occupancy import (
    GasParameters,
    OccupationTable,
    build_occupation_table,
    occupation,
    solve_field_for_polarization,
    spin_sums,
)
from .oracle import FockEnsemble, exact_moments
from .spectra import (
    FreeSpaceContinuum,
    FreeSpaceGrid,
    HarmonicTrap,
    enumerate_levels,
    lattice_dispersion,
)
from .spinmoments import (
    Inequalities,
    SpinMoments,
    collective_variances,
    find_threshold,
    singlet_fraction_sweep,
    witness_report,
    xi_squared,
)

__all__ = [
    "FockEnsemble",
    "FreeSpaceContinuum",
    "FreeSpaceGrid",
    "GasParameters",
    "HarmonicTrap",
    "Inequalities",
    "OccupationTable",
    "QfiResult",
    "SpinMoments",
    "build_occupation_table",
    "collective_variances",
    "enumerate_levels",
    "exact_moments",
    "find_threshold",
    "first_order_correlation",
    "lattice_dispersion",
    "occupation",
    "qfi_staggered",
    "singlet_fraction_sweep",
    "solve_field_for_polarization",
    "spin_correlation_map",
    "spin_sums",
    "structure_factor",
    "witness_report",
    "xi_squared",
]

__version__ = "0.1.0"
