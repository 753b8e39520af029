"""Spin correlations, structure factor and staggered-QFI witness for the
tight-binding Fermi gas on an L x L periodic square lattice."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import occupancy, spectra
from .spectra import DomainError

IMAG_TOL = 1e-12
GROUND_STATE_T = 1e-3  # in units of the hopping; see module notes below

# "T -> 0" is taken as T = 1e-3 J: the Fermi function then puts n_k = 1/2
# on the zero-energy shell, which is the correct average over the
# degenerate half-filled ground states without explicit bookkeeping.
# Below about 1e-14 J its n_k follow the signs of its ~1e-16 round-off energies:
# one ground state, not the average (L = 1024, T = 1e-300: onsite 0.12499984).


class QfiResult(NamedTuple):
    qfi: float
    density: float
    witnessed: bool


def momentum_occupations(size, temperature=GROUND_STATE_T):
    """Fermi occupations n_k per spin on the L x L grid, half filled (mu = 0)."""
    if size <= 0 or size % 2:
        raise ValueError(f"lattice size must be a positive even integer, got {size}")
    if size * size > spectra.MAX_LEVELS:
        raise DomainError(f"lattice size {size} needs over {spectra.MAX_LEVELS} sites")
    # k and -k are exact negatives, so n_k keeps inversion symmetry at any T
    k = 2.0 * np.pi * np.fft.fftfreq(size)
    energies = spectra.lattice_dispersion(np.meshgrid(k, k, indexing="ij"))
    params = occupancy.GasParameters.fermi(temperature, mu=0.0)
    return occupancy.occupation(energies, params)


def first_order_correlation(size, temperature=GROUND_STATE_T):
    """One-body correlation G(r) = (1/L^2) sum_k exp(-i k r) n_k, per spin.

    Real by inversion symmetry of the band; the imaginary part is checked
    against IMAG_TOL and dropped (a DomainError beyond it).
    """
    n_k = momentum_occupations(size, temperature)
    g = np.fft.ifft2(n_k)
    if np.abs(g.imag).max() > IMAG_TOL:
        raise DomainError("first-order correlation has a nonzero imaginary part")
    return g.real


def spin_correlation_map(size, temperature=GROUND_STATE_T):
    """<S^z_0 S^z_r> for the balanced gas via Wick contractions of G.

    An (L, L) array over the displacement torus.  Onsite: (1/4) sum_sigma
    n(1-n); offsite: -(1/2) G(r)^2.
    """
    g = first_order_correlation(size, temperature)
    values = -0.5 * g**2
    filling = g[0, 0]
    values[0, 0] = 0.5 * filling * (1.0 - filling)
    if not 0.0 <= values[0, 0] <= 0.125 + IMAG_TOL:
        raise DomainError(f"onsite correlation {values[0, 0]} outside [0, 1/8]")
    return values


def structure_factor(cmap):
    """S(k) over the discrete Brillouin zone k = 2 pi (mx, my) / L, an (L, L) array.

    The discrete Fourier transform of the correlation map over displacements.
    It is a variance of a collective operator per site, hence real and
    nonnegative; tiny negative round-off is clipped at zero.
    """
    s = np.fft.fft2(cmap)
    if np.abs(s.imag).max() > IMAG_TOL:
        raise DomainError("structure factor has a nonzero imaginary part")
    s = s.real
    if s.min() < -1e-10:
        raise DomainError(f"structure factor significantly negative: {s.min()}")
    return np.maximum(s, 0.0)


def qfi_staggered(sf):
    """QFI of the staggered collective spin: 4 L^2 S(pi, pi).

    Its density (QFI per site) exceeding unity would witness multipartite
    entanglement among the lattice sites; the comparison is strict.
    """
    L = sf.shape[0]
    s_pipi = float(sf[L // 2, L // 2])
    qfi = 4.0 * L**2 * s_pipi
    density = qfi / L**2
    return QfiResult(qfi, density, density > 1.0)
