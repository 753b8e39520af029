"""Bose-Einstein / Fermi-Dirac occupations, particle numbers, field solver."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import spectra

EXP_GUARD = 700.0  # double-precision exp() saturation
BOSE_MARGIN = 1e-12  # relative guard against a diverging lowest level

SPIN_UP = 0.5
SPIN_DOWN = -0.5
SPINS = np.array([[SPIN_UP], [SPIN_DOWN]])  # both spins as one broadcast column


class DomainError(ValueError):
    """Parameters outside the physical domain (e.g. Bose fugacity too large)."""


class DegenerateInputError(ValueError):
    """Input with no usable information (e.g. zero total particle number)."""


class NoConvergence(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


@dataclass(frozen=True)
class GasParameters:
    """Thermodynamic control knobs of an ideal spin-1/2 gas.

    ``statistics`` is "fermi" or "bose".  Fermi gases carry an explicit
    chemical potential; Bose gases are specified by a fugacity
    z = exp(beta * mu_tilde) with mu_tilde measured from the band bottom,
    resolved to a chemical potential once a spectrum is known.
    """

    statistics: str
    temperature: float
    mu: float | None = None
    fugacity: float | None = None
    field: float = 0.0

    def __post_init__(self):
        if self.statistics not in ("fermi", "bose"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        if self.temperature <= 0:
            raise DomainError(f"temperature must be positive, got {self.temperature}")
        if self.statistics == "fermi" and self.mu is None:
            raise ValueError("Fermi parameters need a chemical potential")
        if self.statistics == "bose" and self.mu is None and self.fugacity is None:
            raise ValueError("Bose parameters need a fugacity (or explicit mu)")
        if self.fugacity is not None and self.fugacity <= 0:
            raise DomainError(f"fugacity must be positive, got {self.fugacity}")

    @property
    def eta(self):
        return -1.0 if self.statistics == "fermi" else 1.0

    @classmethod
    def fermi(cls, temperature, mu=1.0, field=0.0):
        return cls("fermi", temperature, mu=mu, field=field)

    @classmethod
    def bose(cls, temperature, fugacity, field=0.0):
        return cls("bose", temperature, fugacity=fugacity, field=field)

    def resolved(self, bottom):
        """Turn a fugacity-specified Bose gas into one with an explicit mu.

        Rejects parameters whose most populated spin branch would reach or
        exceed ``bottom`` (``spectra.band_bottom``), at a relative margin 1e-12.
        """
        if self.mu is not None:
            return self
        mu = bottom + self.temperature * math.log(self.fugacity)
        top = mu + abs(self.field) / 2.0
        if top > bottom - BOSE_MARGIN * max(1.0, abs(bottom)) - \
                BOSE_MARGIN * self.temperature:
            raise DomainError(
                f"Bose branch chemical potential {top} reaches band bottom {bottom}"
            )
        return replace(self, mu=mu)


class NumberSummary(NamedTuple):
    total: float
    up: float
    down: float
    polarization: float


@dataclass(frozen=True)
class OccupationTable:
    """Mean occupations per level and spin over an enumerated spectrum."""

    energies: np.ndarray
    weights: np.ndarray
    n_up: np.ndarray
    n_down: np.ndarray


def occupation(energy, params, sigma=SPIN_UP):
    """Mean occupation 1/(exp(beta(e - sigma H - mu)) - eta) of each level.

    ``sigma`` may be an array that broadcasts against the energies (a (2, 1)
    column gives both spins in one pass).  Saturates deterministically
    outside the double-precision exp range: 0 above, and (Fermi only) 1
    below.  Bose arguments <= 0 are a domain error (diverging or negative
    occupation).
    """
    if params.mu is None:
        raise ValueError("unresolved Bose parameters; call params.resolved(bottom)")
    x = np.asarray(
        (np.asarray(energy, dtype=float) - sigma * params.field - params.mu)
        / params.temperature
    )
    if params.statistics == "bose":
        if np.any(x <= 0):
            raise DomainError("Bose occupation argument <= 0 (diverging occupation)")
        out = np.zeros_like(x)
        ok = x <= EXP_GUARD
        out[ok] = 1.0 / np.expm1(x[ok])
        return out if out.ndim else float(out)
    out = np.empty_like(x)
    lo, hi = x < -EXP_GUARD, x > EXP_GUARD
    mid = ~(lo | hi)
    out[lo] = 1.0
    out[hi] = 0.0
    out[mid] = 1.0 / (np.exp(x[mid]) + 1.0)
    return out if out.ndim else float(out)


def build_occupation_table(model, params):
    """Materialize n_{alpha sigma} over the spectrum at the point ``params``.

    Bose gases given by a fugacity are enumerated with the probe mu = 0.
    """
    probe_mu = params.mu if params.mu is not None else 0.0
    energies, weights = spectra.enumerate_levels(
        model, params.temperature, mu=probe_mu, field=params.field
    )
    params = params.resolved(spectra.band_bottom(model))
    try:
        n_up, n_down = occupation(energies, params, SPINS)
    except DomainError as err:
        bad = int(np.argmin(energies))
        raise DomainError(f"{err} (first offending level index {bad})") from None
    return OccupationTable(energies, weights, n_up, n_down)


def total_number(table):
    """Aggregate (<N>, <N_up>, <N_down>, P) from an occupation table."""
    n_up = float(np.sum(table.weights * table.n_up))
    n_down = float(np.sum(table.weights * table.n_down))
    total = n_up + n_down
    if total <= 0:
        raise DegenerateInputError("zero total particle number, polarization undefined")
    return NumberSummary(total, n_up, n_down, (n_up - n_down) / total)


class FieldResponse(NamedTuple):
    polarization: float
    slope: float  # dP/dH at fixed levels, (T, mu)
    table: OccupationTable


def polarization_at(model, params, field):
    """P, dP/dH and the occupation table at the given Zeeman field, fixed (T, mu).

    The slope is the fluctuation-dissipation sum over the same table:
    dN_sigma/dH = sigma beta sum_a w_a n (1 + eta n), which for fermions is
    sigma beta sum_a w_a n_sigma (1 - n_sigma).  It holds the levels fixed, so
    where they move with H (the continuum's panel edges) it is the slope of
    the quadrature at this point's nodes, not of P(H) itself.  Its one user,
    the field solve, takes Fermi gases only.
    """
    table = build_occupation_table(model, replace(params, field=field))
    nums = total_number(table)
    w, eta = table.weights, params.eta
    fluct_up = float(np.sum(w * table.n_up * (1.0 + eta * table.n_up)))
    fluct_down = float(np.sum(w * table.n_down * (1.0 + eta * table.n_down)))
    # P = (N_up - N_down) / N with dN_up/dH = fluct_up / 2T, dN_down/dH = -fluct_down / 2T
    slope = ((fluct_up + fluct_down) - nums.polarization * (fluct_up - fluct_down)) / (
        2.0 * params.temperature * nums.total
    )
    return FieldResponse(nums.polarization, slope, table)


P_TOLERANCE = 1e-8
MAX_ITERATIONS = 200
# largest factor by which a Newton step may grow H while the bracket is open.
# Newton's own first steps from 2T artanh(P*) into the degenerate regime grow
# H by up to 13.8 (grid, T = 0.05); a cap of 2 took 7-10 % more P evaluations
# per T* search
OPEN_BRACKET_GROWTH = 16.0


def _bracketed_root(f, a, b, fa, fb, xtol=0.0):
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in sign.

    Illinois false position (Dowell & Jarratt 1971): a secant step that lands
    on the last point's side halves the retained end's f, so no end stalls.
    Returns x once f(x) == 0, the midpoint once |b - a| < xtol.
    """
    for _ in range(MAX_ITERATIONS):
        if abs(b - a) < xtol:
            return 0.5 * (a + b)
        x = b - fb * (b - a) / (fb - fa)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fb > 0.0):
            fa *= 0.5
        else:
            a, fa = b, fb
        b, fb = x, fx
    raise NoConvergence(f"root search did not converge in {MAX_ITERATIONS} steps")


def solve_field_for_polarization(model, params, p_target):
    """Zeeman field H >= 0 with |P(H) - p_target| < P_TOLERANCE, and its table.

    Returns (H, table), the table being that of the last P evaluation, so the
    caller needs no second build; p_target = 0 gives H = 0 and the table
    there without a search.  Newton on the slope from ``polarization_at``,
    safeguarded by a bracket as in ``rtsafe`` (Numerical Recipes 9.4): it
    starts from H = 2T artanh(p_target), exact in the non-degenerate limit,
    and keeps a bracket [lo, hi] from the sign of P - p_target (P is monotone
    in H with P(0) = 0).  While hi is still open, a step grows H by at most
    ``OPEN_BRACKET_GROWTH``, and a step that does not grow it doubles H; once
    the bracket is closed, a step that leaves it is replaced by bisection.
    Fermi statistics only.
    """
    if params.statistics != "fermi":
        raise ValueError("polarization sweeps are defined for Fermi gases only")
    if not 0.0 <= p_target < 1.0:
        raise DomainError(f"target polarization must be in [0, 1), got {p_target}")
    if p_target == 0.0:
        return 0.0, build_occupation_table(model, replace(params, field=0.0))
    lo, hi = 0.0, math.inf
    h = 2.0 * params.temperature * math.atanh(p_target)
    for _ in range(MAX_ITERATIONS):
        p, slope, table = polarization_at(model, params, h)
        residual = p - p_target
        if abs(residual) < P_TOLERANCE:
            return h, table
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
