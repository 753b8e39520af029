"""Single-particle spectra as streams of (energy, weight) pairs.

Units: the chemical potential sets the energy scale for the gas models
(mu = 1, k_B = 1), the hopping amplitude for the lattice model.  Weights
are integer degeneracies for discrete spectra and Gauss-Legendre
quadrature weights (density of states included) for the continuum model.
A spectrum is materialized at one thermodynamic point (T, mu, H): the
continuum window and the trap shell cutoff follow from that point, the
grid ignores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# occupations below exp(-OCC_LOG_GUARD) are treated as zero when choosing
# adaptive cutoffs
OCC_LOG_GUARD = math.log(1e12)

# grid energy per unit of n^2 = nx^2 + ny^2 + nz^2, in units of mu
GRID_ENERGY_UNIT = 1.0 / 30.0

MAX_LEVELS = 2**24  # trap shells or grid n^2 values, checked before allocating


class DomainError(ValueError):
    """Parameters outside the physical domain (e.g. Bose fugacity too large)."""


@cache
def _gauss_rule():
    """Gauss-Legendre rule on [-1, 1] shared by every continuum panel.

    Built on first use, so processes that never enumerate a continuum skip
    the eigenvalue solve behind ``leggauss`` and the import of
    ``numpy.polynomial`` (about 0.8 MB); read-only, as every call shares it.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(32)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class FreeSpaceGrid:
    """Periodic-boundary momentum grid, e = GRID_ENERGY_UNIT * (nx^2+ny^2+nz^2).

    half_width w gives 2w points per axis, n in {-w, ..., w-1}; only n^2
    enters, so the asymmetry is irrelevant.
    """

    half_width: int = 15


@dataclass(frozen=True)
class FreeSpaceContinuum:
    """sqrt(e) density of states on Gauss-Legendre panels in u = sqrt(e).

    The window [0, mu + |H|/2 + 40 T] and the panel boundaries (at both
    spin Fermi edges mu -+ H/2 and 20 T either side, which keeps the
    quadrature accurate at low T) follow from the thermodynamic point.
    The DOS prefactor is set to 1: every downstream observable is a
    normalization-independent ratio.
    """


@dataclass(frozen=True)
class HarmonicTrap:
    """3d isotropic trap, e_n = spacing * (n + 3/2), degeneracy (n+1)(n+2)/2.

    Shells run up to where the occupation at the thermodynamic point
    drops below 1e-12, and at least to 2 mu / spacing.
    """

    level_spacing: float = 1.0 / 30.0


def lattice_dispersion(k):
    """Tight-binding energy -2(cos kx + cos ky) in units of the hopping, k=(kx, ky)."""
    kx, ky = k
    return -2.0 * (np.cos(kx) + np.cos(ky))


def band_bottom(model):
    """Band bottom, the zero of Bose fugacities: 1.5 spacings in the trap, else 0."""
    return 1.5 * model.level_spacing if isinstance(model, HarmonicTrap) else 0.0


def enumerate_levels(model, temperature, mu=1.0, field=0.0):
    """Materialize a spectrum at one thermodynamic point as (energies, weights).

    Energies ascend.  Discrete models return distinct energies with their
    integer degeneracies as weights; the continuum returns quadrature nodes.
    """
    if isinstance(model, FreeSpaceGrid):
        return _grid_levels(model)
    if isinstance(model, FreeSpaceContinuum):
        return _continuum_levels(temperature, mu, field)
    if isinstance(model, HarmonicTrap):
        return _trap_levels(model, temperature, mu, field)
    raise TypeError(f"not a spectrum model: {model!r}")


def _grid_levels(model):
    w = model.half_width
    if w <= 0:
        raise ValueError(f"grid half-width must be positive, got {w}")
    if 3 * w * w + 1 > MAX_LEVELS:
        raise DomainError(f"grid half-width {w} needs over {MAX_LEVELS} shells")
    # states per n^2 on one axis, convolved over three: states per shell s
    axis = np.bincount(np.arange(-w, w) ** 2)
    counts = np.convolve(np.convolve(axis, axis), axis)
    shells = np.flatnonzero(counts)
    return GRID_ENERGY_UNIT * shells, counts[shells].astype(float)


def _continuum_levels(temperature, mu, field):
    cut = mu + abs(field) / 2.0 + 40.0 * temperature
    if cut <= 0:
        raise ValueError(f"energy cutoff must be positive, got {cut}")
    spread = 20.0 * temperature
    edges = {
        edge + d
        for edge in (mu - field / 2.0, mu + field / 2.0)
        for d in (-spread, 0.0, spread)
    }
    bounds = np.array(sorted({0.0, cut, *(p for p in edges if 0.0 < p < cut)}))
    x, w = _gauss_rule()
    # one row per panel in u = sqrt(e), where the sqrt(e) de = 2 u^2 du
    # integrand is smooth: half-width and midpoint as (panels, 1) columns
    a, b = np.sqrt(bounds[:-1, None]), np.sqrt(bounds[1:, None])
    half = 0.5 * (b - a)
    u = half * x + 0.5 * (a + b)
    return (u * u).ravel(), (2.0 * half * w * u * u).ravel()


def _trap_levels(model, temperature, mu, field):
    hw = model.level_spacing
    if hw <= 0:
        raise ValueError(f"level spacing must be positive, got {hw}")
    top = mu + abs(field) / 2.0 + temperature * OCC_LOG_GUARD
    last = max(2.0 * mu / hw, top / hw - 1.5)
    if last > MAX_LEVELS - 1:  # before ceil, which fails on inf
        raise DomainError(f"trap needs over {MAX_LEVELS} shells, up to n = {last:.3g}")
    last_shell = math.ceil(last)
    if last_shell < 0:
        raise ValueError(f"shell cutoff must be nonnegative, got {last_shell}")
    shells = np.arange(last_shell + 1)
    energies = hw * (shells + 1.5)
    weights = (shells + 1) * (shells + 2) / 2.0
    return energies, weights
