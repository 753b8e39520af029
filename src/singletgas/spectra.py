"""Single-particle spectra as streams of (energy, weight) pairs.

Units: the chemical potential sets the energy scale for the gas models
(mu = 1, k_B = 1), the hopping amplitude for the lattice model.  Weights
are integer degeneracies for discrete spectra and Gauss-Legendre
quadrature weights (density of states included) for the continuum model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

# occupations below exp(-OCC_LOG_GUARD) are treated as zero when choosing
# adaptive cutoffs
OCC_LOG_GUARD = math.log(1e12)


@dataclass(frozen=True)
class FreeSpaceGrid:
    """Periodic-boundary momentum grid, energies e = eu * (nx^2+ny^2+nz^2).

    half_width w gives 2w points per axis, n in {-w, ..., w-1}; only n^2
    enters, so the asymmetry is irrelevant.
    """

    half_width: int = 15
    energy_unit: float = 1.0 / 30.0


@dataclass(frozen=True)
class FreeSpaceContinuum:
    """sqrt(e) density of states on [0, energy_cutoff], Gauss-Legendre panels.

    ``energy_cutoff=None`` means "resolve per parameter point"; see
    :func:`resolve_model`.  ``breakpoints`` are interior panel boundaries
    (a boundary at the Fermi edge keeps the quadrature accurate at low T).
    The DOS prefactor is set to 1: every downstream observable is a
    normalization-independent ratio.
    """

    energy_cutoff: float | None = None
    order: int = 32
    breakpoints: tuple = (1.0,)


@dataclass(frozen=True)
class HarmonicTrap:
    """3d isotropic trap, e_n = spacing * (n + 3/2), degeneracy (n+1)(n+2)/2.

    ``n_max=None`` requests an adaptive shell cutoff (smallest shell whose
    occupation drops below 1e-12 at the given temperature and field, with
    a hard floor of 2 mu / spacing).
    """

    level_spacing: float = 1.0 / 30.0
    n_max: int | None = None


SpectrumModel = FreeSpaceGrid | FreeSpaceContinuum | HarmonicTrap


def lattice_dispersion(k, hopping=1.0):
    """Tight-binding energy -2J(cos kx + cos ky) for wavevector k=(kx, ky)."""
    kx, ky = k
    return -2.0 * hopping * (np.cos(kx) + np.cos(ky))


def resolve_model(model, temperature, mu=1.0, field=0.0):
    """Fill in adaptive pieces of a model for one thermodynamic point.

    Continuum: cutoff mu + |H|/2 + 40 T, panel boundaries at both
    spin Fermi edges mu -+ H/2 and at +-20 T around them.  Trap: shell
    cutoff where the occupation falls below 1e-12.  Other models pass
    through unchanged.
    """
    if isinstance(model, FreeSpaceContinuum):
        cut = model.energy_cutoff
        if cut is None:
            cut = mu + abs(field) / 2.0 + 40.0 * temperature
        edges = []
        for edge in (mu - field / 2.0, mu + field / 2.0):
            edges.extend([edge - 20.0 * temperature, edge, edge + 20.0 * temperature])
        pts = tuple(sorted({p for p in edges if 0.0 < p < cut}))
        return replace(model, energy_cutoff=cut, breakpoints=pts)
    if isinstance(model, HarmonicTrap) and model.n_max is None:
        hw = model.level_spacing
        if hw <= 0:
            raise ValueError(f"level spacing must be positive, got {hw}")
        top = mu + abs(field) / 2.0 + temperature * OCC_LOG_GUARD
        n_max = max(math.ceil(2.0 * mu / hw), math.ceil(top / hw - 1.5))
        return replace(model, n_max=n_max)
    return model


def band_bottom(model):
    """Band bottom, the zero of Bose fugacities: 1.5 spacings in the trap, else 0."""
    return 1.5 * model.level_spacing if isinstance(model, HarmonicTrap) else 0.0


def enumerate_levels(model):
    """Materialize a spectrum as two arrays (energies, weights).

    Energies ascend.  Discrete models return distinct energies with their
    integer degeneracies as weights; the continuum returns quadrature nodes.
    """
    if isinstance(model, FreeSpaceGrid):
        return _grid_levels(model)
    if isinstance(model, FreeSpaceContinuum):
        return _continuum_levels(model)
    if isinstance(model, HarmonicTrap):
        return _trap_levels(model)
    raise TypeError(f"not a spectrum model: {model!r}")


def _grid_levels(model):
    w = model.half_width
    if w <= 0:
        raise ValueError(f"grid half-width must be positive, got {w}")
    if model.energy_unit <= 0:
        raise ValueError(f"energy unit must be positive, got {model.energy_unit}")
    # states per n^2 on one axis, convolved over three: states per shell s
    axis = np.bincount(np.arange(-w, w) ** 2)
    counts = np.convolve(np.convolve(axis, axis), axis)
    shells = np.flatnonzero(counts)
    return model.energy_unit * shells, counts[shells].astype(float)


def _continuum_levels(model):
    if model.energy_cutoff is None:
        raise ValueError("continuum cutoff unresolved; call resolve_model first")
    cut = model.energy_cutoff
    if cut <= 0:
        raise ValueError(f"energy cutoff must be positive, got {cut}")
    if model.order < 2:
        raise ValueError(f"quadrature order too small: {model.order}")
    bounds = sorted({0.0, cut, *(p for p in model.breakpoints if 0.0 < p < cut)})
    x, w = leggauss(model.order)
    energies, weights = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        e = 0.5 * (b - a) * x + 0.5 * (a + b)
        energies.append(e)
        weights.append(0.5 * (b - a) * w * np.sqrt(e))
    return np.concatenate(energies), np.concatenate(weights)


def _trap_levels(model):
    if model.n_max is None:
        raise ValueError("trap cutoff unresolved; call resolve_model first")
    if model.n_max < 0:
        raise ValueError(f"shell cutoff must be nonnegative, got {model.n_max}")
    if model.level_spacing <= 0:
        raise ValueError(f"level spacing must be positive, got {model.level_spacing}")
    shells = np.arange(model.n_max + 1)
    energies = model.level_spacing * (shells + 1.5)
    weights = (shells + 1) * (shells + 2) / 2.0
    return energies, weights

