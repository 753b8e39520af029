"""Exact grand-canonical collective-spin moments for few-mode systems.

Ground truth for the closed-form variances and for the unapproximated
nonlinear separability inequalities: moments are explicit weighted traces
over the (truncated) Fock space.  The sum over occupation configurations
is only regrouped, never approximated.  The thermal state of an ideal gas
is a product over (mode, spin) orbitals, so the weight of each
(N_up, N_dn) sector is a product of two per-spin convolutions of the
orbital Boltzmann factors, and a sum over the sectors of one N convolves them.

Only diagonal operators and within-mode spin flips appear; (J^x)^2 and
(J^y)^2 reduce to sums of per-mode diagonal matrix elements because the
cross terms move particles between modes and the thermal state is
diagonal in the occupation basis (no fermionic sign strings arise).  The
per-mode element (n_up + n_dn + 2 eta n_up n_dn) / 4 sums to N / 4 plus
one product term per mode, each again a pair of convolutions with that
mode's factor weighted by its occupation.  No pair of operators is
contracted (no Wick factorization), so agreement with
``spinmoments.collective_variances`` is a genuine check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import occupancy, spinmoments
from .occupancy import DegenerateInputError, DomainError, NoConvergence, OccupationTable
from .spinmoments import Inequalities, SpinMoments, tightest_permutations

MAX_FERMI_MODES = 6
MAX_BOSE_MODES = 4
MAX_BOSE_CUTOFF = 640


@dataclass(frozen=True)
class FockEnsemble:
    """Few-mode grand-canonical ensemble, enumerable exactly."""

    statistics: str
    energies: tuple
    beta: float
    mu: float
    field: float = 0.0

    def __post_init__(self):
        if self.statistics not in ("fermi", "bose"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        if not np.isfinite([*self.energies, self.beta, self.mu, self.field]).all():
            raise ValueError("energies, beta, mu and field must be finite")
        if self.beta <= 0:
            raise ValueError(f"inverse temperature must be positive, got {self.beta}")
        limit = MAX_FERMI_MODES if self.statistics == "fermi" else MAX_BOSE_MODES
        if not 1 <= len(self.energies) <= limit:
            raise ValueError(
                f"{self.statistics} ensembles support 1..{limit} modes, "
                f"got {len(self.energies)}"
            )
        if self.statistics == "bose" and self.gap <= 0:
            raise DomainError("Bose chemical potential reaches a single-particle level")

    @property
    def gap(self):
        """Height of the lowest orbital, the lower spin of the lowest mode, above mu."""
        return min(self.energies) - abs(self.field) / 2.0 - self.mu


@dataclass(frozen=True)
class ExactReport:
    """Exact moments plus the exact (N >= 2 conditioned) inequality sides.

    The separability criteria assume no weight on the N <= 1 sectors; a
    grand-canonical state violates that, so the inequality sides are
    evaluated on the state conditioned on N >= 2 and the discarded weight
    is reported for the caller to judge applicability.  ``n_cut`` is the
    per-orbital occupation cutoff the traces ran at (1 for fermions).
    """

    moments: SpinMoments
    sector_moments: SpinMoments
    weight_n_le_1: float
    checks: Inequalities
    n_cut: int


def _occupation_cutoff(ens):
    """Per-orbital occupation cutoff: 1 for fermions, and for bosons the
    smallest c from which on the tail bound below stays under 2^-60.

    Orbital i (a mode and a spin) holds n_i bosons with P(n_i = n) =
    (1 - x_i) x_i^n, x_i <= x = exp(-beta gap).  Given n_i > c, n_i - c - 1
    is geometric again, so with the other k - 1 orbitals (k = 2 * modes) it
    has the law of N, and E[N^2; n_i > c] = x_i^(c+1) E[(c + 1 + N)^2] <=
    x^(c+1) ((c + 1 + m)^2 + v), where m = k x / (1 - x) >= <N> and
    v = m / (1 - x) >= Var N.  Every traced operator O has |O| <= N^2, and
    the N >= 2 sector weighs at least x^2, so the cut moves each moment,
    sector moment and weight_n_le_1 by at most twice
    k x^(c-1) ((c + 1 + m)^2 + v) times max(1, |value|).  2^-60 leaves 2^8
    below double rounding for the variances and inequality sides.  The bound
    exceeds x^(c-1), so beta gap < 60 ln 2 / (MAX_BOSE_CUTOFF - 1) raises
    NoConvergence before any array is built, as does c > MAX_BOSE_CUTOFF.
    """
    if ens.statistics == "fermi":
        return 1
    u = ens.beta * ens.gap
    if u * (MAX_BOSE_CUTOFF - 1) >= 60.0 * math.log(2.0):
        k, x, one_minus_x = 2 * len(ens.energies), math.exp(-u), -math.expm1(-u)
        m = k * x / one_minus_x
        c = np.arange(1, MAX_BOSE_CUTOFF + 1)
        bound = k * x ** (c - 1.0) * ((c + 1 + m) ** 2 + m / one_minus_x)
        cut = int(c[bound > 2.0**-60][-1]) + 1
        if cut <= MAX_BOSE_CUTOFF:
            return cut
    raise NoConvergence(f"boson cutoff above {MAX_BOSE_CUTOFF} at beta * gap = {u:.3g}")


def _spin_products(ens, shift, cut):
    """Weights of the total count of one spin species (level shift
    ``shift``, occupations up to ``cut`` per orbital), and row m of the
    same with mode m's factor weighted by its occupation."""
    occ = np.arange(cut + 1)
    factors = []
    for eps in ens.energies:
        logw = -ens.beta * (eps + shift - ens.mu) * occ
        factors.append(np.exp(logw - logw.max()))
    marked = [
        reduce(np.convolve, factors[:m] + [occ * f] + factors[m + 1 :])
        for m, f in enumerate(factors)
    ]
    return reduce(np.convolve, factors), np.array(marked)


def _moments(w, n, jz, jz2, jx2):
    """Moments from the weight ``w`` of each N in ``n`` and the weighted
    sums ``jz``, ``jz2``, ``jx2`` of Jz, Jz^2 and (Jx)^2 at that N."""
    z = w.sum()
    mean_jz = float(jz.sum() / z)
    return SpinMoments(
        mean_n=float((w * n).sum() / z),
        mean_jz=mean_jz,
        var_jx=float(jx2.sum() / z),  # <(Jx)^2>, and <Jx> = 0 identically
        var_jz=float(jz2.sum() / z) - mean_jz**2,
    )


def _exact_report(ens, cut):
    up, a = _spin_products(ens, -0.5 * ens.field, cut)
    dn, b = _spin_products(ens, 0.5 * ens.field, cut)
    occ = np.arange(up.size, dtype=float)
    up_n, dn_n, conv = occ * up, occ * dn, np.convolve
    # over the sectors of each N: the weight and the weighted Jz, Jz^2 and
    # (Jx)^2, whose per-mode products pair marked rows (module notes)
    w = conv(up, dn)
    n = np.arange(w.size, dtype=float)
    jz = 0.5 * (conv(up_n, dn) - conv(up, dn_n))
    jz2 = 0.25 * (conv(occ * up_n, dn) - 2.0 * conv(up_n, dn_n) + conv(up, occ * dn_n))
    eta = -1.0 if ens.statistics == "fermi" else 1.0
    jx2 = 0.25 * n * w + 0.5 * eta * sum(map(conv, a, b))
    moments = _moments(w, n, jz, jz2, jx2)

    w2, n2 = w[2:], n[2:]  # the N >= 2 sectors
    z2 = w2.sum()
    if not z2 > 0:
        raise DegenerateInputError(f"no weight on the N >= 2 sectors of {ens!r}")
    sector = _moments(*(v[2:] for v in (w, n, jz, jz2, jx2)))
    inv = 1.0 / (n2 - 1.0)
    jx2_over = float((jx2[2:] * inv).sum() / z2)
    jz2_over = float((jz2[2:] * inv).sum() / z2)
    n_over = float((w2 * n2 * inv).sum() / (2.0 * z2))
    nn2_over = float((w2 * n2 * (n2 - 2.0) * inv).sum() / (4.0 * z2))

    checks = tightest_permutations(
        sector.mean_n,
        sector.var_jx,
        sector.var_jz,
        jx2_over,
        jz2_over,
        n_over,
        nn2_over,
        "exact",
    )
    return ExactReport(moments, sector, float(1.0 - z2 / w.sum()), checks, cut)


def exact_moments(ens):
    """Exact moments and inequality sides at the cutoff of
    :func:`_occupation_cutoff`; see :class:`ExactReport`."""
    return _exact_report(ens, _occupation_cutoff(ens))


def closed_form_moments(ens):
    """Wick-route moments of a few-mode ensemble, for oracle comparison."""
    energies = np.array(ens.energies, dtype=float)
    params = occupancy.GasParameters(
        ens.statistics, 1.0 / ens.beta, mu=ens.mu, field=ens.field
    )
    n = occupancy.occupation(energies, params, occupancy.SPINS)
    table = OccupationTable(energies, np.ones_like(energies), n)
    return spinmoments.collective_variances(occupancy.spin_sums(table, params.eta))


def oracle_deviation(ens):
    """Max relative deviation between exact and closed-form moments."""
    exact = exact_moments(ens).moments
    wick = closed_form_moments(ens)
    dev = 0.0
    for a, b in (
        (exact.mean_n, wick.mean_n),
        (exact.mean_jz, wick.mean_jz),
        (exact.var_jx, wick.var_jx),
        (exact.var_jz, wick.var_jz),
    ):
        dev = max(dev, abs(a - b) / max(1.0, abs(a), abs(b)))
    return dev
