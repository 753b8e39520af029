"""Exact grand-canonical collective-spin moments for few-mode systems.

Ground truth for the closed-form variances and for the unapproximated
nonlinear separability inequalities: moments are explicit weighted traces
over the (truncated) Fock space.  The sum over occupation configurations
is only regrouped, never approximated.  The thermal state of an ideal gas
is a product over (mode, spin) orbitals, so the weight of each
(N_up, N_dn) sector is the outer product of two 1-D convolutions of the
per-orbital Boltzmann factors, one per spin.

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

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import occupancy, spinmoments
from .occupancy import DegenerateInputError, DomainError, NoConvergence, OccupationTable
from .spinmoments import InequalityCheck, SpinMoments, tightest_permutations

MAX_FERMI_MODES = 6
MAX_BOSE_MODES = 4
MAX_BOSE_CUTOFF = 640
CUTOFF_RTOL = 1e-10


@dataclass(frozen=True)
class FockEnsemble:
    """Few-mode grand-canonical ensemble, enumerable exactly."""

    statistics: str
    energies: tuple
    beta: float
    mu: float
    field: float = 0.0
    n_cut: int = 40

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
        if self.statistics == "bose":
            if self.n_cut < 1:
                raise ValueError(f"boson cutoff must be >= 1, got {self.n_cut}")
            gap = min(self.energies) - abs(self.field) / 2.0 - self.mu
            if gap <= 0:
                raise DomainError(
                    "Bose chemical potential reaches a single-particle level"
                )


@dataclass(frozen=True)
class ExactReport:
    """Exact moments plus the exact (N >= 2 conditioned) inequality sides.

    The separability criteria assume no weight on the N <= 1 sectors; a
    grand-canonical state violates that, so the inequality sides are
    evaluated on the state conditioned on N >= 2 and the discarded weight
    is reported for the caller to judge applicability.
    """

    moments: SpinMoments
    sector_moments: SpinMoments
    weight_n_le_1: float
    inequality_sum: InequalityCheck
    inequality_single: InequalityCheck
    inequality_pair: InequalityCheck

    @property
    def checks(self):
        return (self.inequality_sum, self.inequality_single, self.inequality_pair)


def _spin_products(ens, shift):
    """Weights of the total count of one spin species (level shift
    ``shift``), and row m of the same with mode m's factor weighted by its
    occupation."""
    occ = np.arange(2 if ens.statistics == "fermi" else ens.n_cut + 1)
    factors = []
    for eps in ens.energies:
        logw = -ens.beta * (eps + shift - ens.mu) * occ
        factors.append(np.exp(logw - logw.max()))
    marked = [
        reduce(np.convolve, factors[:m] + [occ * f] + factors[m + 1 :])
        for m, f in enumerate(factors)
    ]
    return reduce(np.convolve, factors), np.array(marked)


def _moments(w, x, n, jz):
    z = w.sum()
    mean_n = float((w * n).sum() / z)
    mean_jz = float((w * jz).sum() / z)
    mean_jz2 = float((w * jz**2).sum() / z)
    var_jx = float(x.sum() / z)  # <(Jx)^2>, and <Jx> = 0 identically
    return SpinMoments(
        mean_n=mean_n,
        mean_jz=mean_jz,
        var_jx=var_jx,
        var_jy=var_jx,
        var_jz=mean_jz2 - mean_jz**2,
        polarization=2.0 * mean_jz / mean_n if mean_n > 0 else 0.0,
    )


def _exact_report(ens):
    up, a = _spin_products(ens, -0.5 * ens.field)
    dn, b = _spin_products(ens, 0.5 * ens.field)
    n_up = np.arange(up.size, dtype=float)[:, None]
    n_dn = np.arange(dn.size, dtype=float)[None, :]
    n = n_up + n_dn
    jz = 0.5 * (n_up - n_dn)
    weights = np.outer(up, dn)
    eta = -1.0 if ens.statistics == "fermi" else 1.0
    # per-mode diagonal (Jx)^2 = (n_up + n_dn + 2 eta n_up n_dn) / 4: the
    # linear terms sum to N / 4 over the modes, the product terms to A^T B
    accum = 0.25 * n * weights + 0.5 * eta * (a.T @ b)
    moments = _moments(weights, accum, n, jz)

    sel = n >= 2
    w2, x2, n2, jz2 = weights[sel], accum[sel], n[sel], jz[sel]
    z2 = w2.sum()
    if not z2 > 0:
        raise DegenerateInputError(f"no weight on the N >= 2 sectors of {ens!r}")
    sector = _moments(w2, x2, n2, jz2)
    inv = 1.0 / (n2 - 1.0)
    jx2_over = float((x2 * inv).sum() / z2)
    jz2_over = float((w2 * jz2**2 * inv).sum() / z2)
    n_over = float((w2 * n2 * inv).sum() / (2.0 * z2))
    nn2_over = float((w2 * n2 * (n2 - 2.0) * inv).sum() / (4.0 * z2))

    ineq_sum, single, pair = tightest_permutations(
        sector.mean_n,
        {"x": sector.var_jx, "y": sector.var_jy, "z": sector.var_jz},
        {"x": jx2_over, "y": jx2_over, "z": jz2_over},
        n_over,
        nn2_over,
        "exact",
    )
    return ExactReport(
        moments=moments,
        sector_moments=sector,
        weight_n_le_1=float(1.0 - z2 / weights.sum()),
        inequality_sum=ineq_sum,
        inequality_single=single,
        inequality_pair=pair,
    )


def _close(a, b):
    for u, v in (
        (a.moments.mean_n, b.moments.mean_n),
        (a.moments.var_jx, b.moments.var_jx),
        (a.moments.var_jz, b.moments.var_jz),
    ):
        if abs(u - v) > CUTOFF_RTOL * max(1.0, abs(u), abs(v)):
            return False
    return True


def exact_moments(ens):
    """Exact moments and inequality sides; see :class:`ExactReport`.

    Boson cutoffs are validated by comparing against an n_cut - 1 run and
    doubled until the truncation no longer matters.
    """
    if ens.statistics == "fermi":
        return _exact_report(ens)
    cut = ens.n_cut
    while cut <= MAX_BOSE_CUTOFF:
        report = _exact_report(replace(ens, n_cut=cut))
        probe = _exact_report(replace(ens, n_cut=cut - 1))
        if _close(report, probe):
            return report
        cut *= 2
    raise NoConvergence(
        f"boson occupation cutoff did not converge below {MAX_BOSE_CUTOFF}"
    )


def closed_form_moments(ens):
    """Wick-route moments of a few-mode ensemble, for oracle comparison."""
    energies = np.array(ens.energies, dtype=float)
    params = occupancy.GasParameters(
        ens.statistics, 1.0 / ens.beta, mu=ens.mu, field=ens.field
    )
    table = OccupationTable(
        energies,
        np.ones_like(energies),
        occupancy.occupation(energies, params, occupancy.SPIN_UP),
        occupancy.occupation(energies, params, occupancy.SPIN_DOWN),
    )
    return spinmoments.collective_variances(table, params.eta)


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
