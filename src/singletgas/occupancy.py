"""Bose-Einstein / Fermi-Dirac occupations, their spin moments, field solver."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import spectra
from .spectra import DomainError

EXP_GUARD = 700.0  # double-precision exp() saturation
BOSE_MARGIN = 1e-12  # relative guard against a diverging lowest level

SPIN_UP = 0.5
SPIN_DOWN = -0.5
SPINS = np.array([[SPIN_UP], [SPIN_DOWN]])  # both spins as one broadcast column


class DegenerateInputError(DomainError):
    """Input with no usable information (e.g. zero total particle number)."""


class NoConvergence(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


@dataclass(frozen=True)
class GasParameters:
    """Thermodynamic point (statistics, T, mu, H) of an ideal spin-1/2 gas.

    ``statistics`` is "fermi" or "bose"; T, mu and H must be finite.
    """

    statistics: str
    temperature: float
    mu: float
    field: float = 0.0

    def __post_init__(self):
        if self.statistics not in ("fermi", "bose"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        t, mu, h = self.temperature, self.mu, self.field
        if not (math.isfinite(t) and math.isfinite(mu) and math.isfinite(h)):
            raise DomainError(f"T, mu and H must be finite, got {t}, {mu}, {h}")
        if t <= 0:
            raise DomainError(f"temperature must be positive, got {t}")

    @property
    def eta(self):
        return -1.0 if self.statistics == "fermi" else 1.0

    @classmethod
    def fermi(cls, temperature, mu=1.0, field=0.0):
        return cls("fermi", temperature, mu, field)

    @classmethod
    def bose(cls, model, temperature, fugacity, field=0.0):
        """Bose gas at mu = band bottom + T ln z (``spectra.band_bottom``).

        Rejects z <= 0 or NaN, and parameters whose most populated spin branch
        would reach or exceed the band bottom, at a relative margin 1e-12.
        """
        if not fugacity > 0:
            raise DomainError(f"fugacity must be positive, got {fugacity}")
        bottom = spectra.band_bottom(model)
        mu = bottom + temperature * math.log(fugacity)
        top = mu + abs(field) / 2.0
        if top > bottom - BOSE_MARGIN * max(1.0, abs(bottom)) - \
                BOSE_MARGIN * temperature:
            raise DomainError(
                f"Bose branch chemical potential {top} reaches band bottom {bottom}"
            )
        return cls("bose", temperature, mu, field)


def occupation(energy, params, sigma=SPIN_UP):
    """Mean occupation 1/(exp(beta(e - sigma H - mu)) - eta) of each level.

    ``sigma`` may be an array that broadcasts against the energies (a (2, 1)
    column gives both spins in one pass).  See :func:`occupy` for the kernel.
    """
    x = np.asarray(
        (np.asarray(energy, dtype=float) - sigma * params.field - params.mu)
        / params.temperature
    )
    occupy(x, params.statistics)
    return x if x.ndim else float(x)


def occupy(x, statistics):
    """Mean occupation 1/(exp(x) - eta), in place on the fresh array x (the
    lattice passes a million levels).  x is clipped at EXP_GUARD, the exp
    range, and levels above it (+inf too) are set to 0; far below it the Fermi
    formula rounds to exactly 1.  Bose x <= 0 is a domain error."""
    above = x > EXP_GUARD
    np.minimum(x, EXP_GUARD, out=x)
    if statistics == "bose":
        if np.any(x <= 0):
            raise DomainError("Bose occupation argument <= 0 (diverging occupation)")
        np.expm1(x, out=x)
    else:
        np.exp(x, out=x)
        x += 1.0
    np.divide(1.0, x, out=x)
    x[above] = 0.0
    return x


def build_occupation_table(model, params):
    """(weights, n): level weights and the (2, levels) n_{alpha sigma} at ``params``."""
    energies, weights = spectra.enumerate_levels(
        model, params.temperature, mu=params.mu, field=params.field
    )
    return weights, occupation(energies, params, SPINS)


class SpinMoments(NamedTuple):
    """First and second moments of the collective spin of the ensemble.

    Every state built here, the gas in a field along z and each oracle
    ensemble, is invariant under rotations about z: <Jx> = <Jy> = 0 and
    Var(Jy) = Var(Jx), so one transverse variance stands for both.
    ``cov_njz`` is Cov(N, Jz), which equals T d<N>/dH at fixed (T, mu).
    """

    mean_n: float
    mean_jz: float
    var_jx: float
    var_jz: float
    cov_njz: float

    @property
    def polarization(self):
        return 2.0 * self.mean_jz / self.mean_n


def spin_moments(weights, n, eta):
    """SpinMoments of a table (weights, n), statistics sign ``eta`` (-1 Fermi, +1 Bose).

    The one place a table's occupations are summed, in one (5, ..., levels)
    reduction over the last axis: batch axes in n (2, ..., levels) give array
    fields.  With F_sigma = sum_a w_a n_sigma (1 + eta n_sigma) and the
    exchange sum X = eta sum_a w_a n_up n_down: Var(Jz) = (F_up + F_down) / 4,
    Cov(N, Jz) = (F_up - F_down) / 2 and Var(Jx) = Var(Jy) = <N>/4 + X/2.
    Zero total number is a DegenerateInputError.
    """
    if eta not in (1, -1):
        raise ValueError(f"statistics sign must be +-1, got {eta}")
    wn = weights * n
    sums = np.concatenate((wn, wn * (1.0 + eta * n), wn[:1] * n[1:])).sum(axis=-1)
    up, down, fluct_up, fluct_down, cross = sums.tolist() if sums.ndim == 1 else sums
    total = up + down
    if (total <= 0) if sums.ndim == 1 else (total <= 0).any():
        raise DegenerateInputError("zero total particle number, polarization undefined")
    return SpinMoments(
        total,
        0.5 * (up - down),
        total / 4.0 + eta * cross / 2.0,
        (fluct_up + fluct_down) / 4.0,
        (fluct_up - fluct_down) / 2.0,
    )


def polarization_at(model, params, field):
    """(moments, slope): the table's SpinMoments and dP/dH at ``field``, fixed (T, mu).

    The slope is the fluctuation-dissipation sum over the same table:
    d<N>/dH = Cov(N, Jz) / T and d<Jz>/dH = Var(Jz) / T.  It holds the
    levels fixed, so where they move with H (the continuum's panel edges) it
    is the slope of the quadrature at this point's nodes, not of P(H) itself.
    Its one user, the field solve, takes Fermi gases only.
    """
    table = build_occupation_table(model, replace(params, field=field))
    m = spin_moments(*table, params.eta)
    # P = 2 <Jz> / <N>, so dP/dH = (2 Var(Jz) - P Cov(N, Jz)) / (T <N>); the
    # factors 4 and 2 give back the sums F_up +- F_down without rounding
    slope = (4.0 * m.var_jz - m.polarization * (2.0 * m.cov_njz)) / (
        2.0 * params.temperature * m.mean_n
    )
    return m, slope


P_TOLERANCE = 1e-8
MAX_ITERATIONS = 200
# largest factor by which a Newton step may grow H while the bracket is open.
# Newton's own first steps from 2T artanh(P*) into the degenerate regime grow
# H by up to 13.8 (grid, T = 0.05); a cap of 2 took 7-10 % more P evaluations
# per T* search
OPEN_BRACKET_GROWTH = 16.0


def solve_field_for_polarization(model, params, p_target, start=None):
    """Zeeman field H >= 0 with |P(H) - p_target| < P_TOLERANCE, and its moments.

    Returns (H, moments), the SpinMoments of the last P evaluation's table,
    so the caller needs no second build or reduction.  Newton on the slope from
    ``polarization_at``, safeguarded by a bracket as in ``rtsafe`` (Numerical
    Recipes 9.4): it starts from ``start`` when that is positive and finite,
    else from H = 2T artanh(p_target), exact in the non-degenerate limit, and
    keeps a bracket [lo, hi] from the sign of P - p_target (P is monotone in
    H with P(0) = 0).  While hi is still open, a step grows H by at most
    ``OPEN_BRACKET_GROWTH``, and a step that does not grow it doubles H; once
    the bracket is closed, a step that leaves it is replaced by bisection.
    p_target = 0 is one evaluation at the cold start H = 0, where P = 0
    exactly; from a positive ``start`` it is a Newton solve to |P| <
    P_TOLERANCE.  Fermi statistics only.
    """
    if params.statistics != "fermi":
        raise ValueError("polarization sweeps are defined for Fermi gases only")
    if not 0.0 <= p_target < 1.0:
        raise DomainError(f"target polarization must be in [0, 1), got {p_target}")
    lo, hi = 0.0, math.inf
    if start is not None and 0.0 < start < math.inf:
        h = start
    else:
        h = 2.0 * math.atanh(p_target) * params.temperature  # 0.0 at P* = 0, any T
    for _ in range(MAX_ITERATIONS):
        moments, slope = polarization_at(model, params, h)
        residual = moments.polarization - p_target
        if abs(residual) < P_TOLERANCE:
            return h, moments
        if residual < 0.0:
            lo = h
        else:
            hi = h
        step = h - residual / slope if slope > 0.0 else math.nan
        if hi == math.inf:
            # a near-zero slope must not throw H (and the trap's shell count,
            # which grows with H) far past the root
            h = min(step, OPEN_BRACKET_GROWTH * h) if step > lo else 2.0 * h
        elif lo < step < hi:
            h = step
        else:
            h = 0.5 * (lo + hi)
    raise NoConvergence(
        f"field solve did not converge in {MAX_ITERATIONS} steps for P={p_target}"
    )
