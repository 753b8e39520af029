"""Exact grand-canonical collective-spin moments for few-mode systems.

Ground truth for the closed-form variances and for the unapproximated
nonlinear separability inequalities: every occupation configuration of a
(truncated) Fock space is enumerated, mode by mode, and moments are taken
as explicit weighted traces.  Nothing here uses Wick factorization, so
agreement with ``spinmoments.collective_variances`` is a genuine check.

Only diagonal operators and within-mode spin flips appear; (J^x)^2 and
(J^y)^2 reduce to sums of per-mode diagonal matrix elements because the
cross terms move particles between modes and the thermal state is
diagonal in the occupation basis (no fermionic sign strings arise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import occupancy, spinmoments
from .occupancy import DomainError, NoConvergence, OccupationTable
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


def _mode_entries(ens, eps):
    """Configurations (n, 2jz, weight, diag (jx)^2) of one motional mode.

    Weights are normalized to the largest configuration weight of the
    mode; all computed quantities are weight ratios.
    """
    e_up = eps - 0.5 * ens.field - ens.mu
    e_dn = eps + 0.5 * ens.field - ens.mu
    occs = range(2) if ens.statistics == "fermi" else range(ens.n_cut + 1)
    entries = []
    for nu in occs:
        for nd in occs:
            logw = -ens.beta * (e_up * nu + e_dn * nd)
            if ens.statistics == "fermi":
                jx2 = 0.25 * (nu * (1 - nd) + nd * (1 - nu))
            else:
                jx2 = 0.25 * (nu * (nd + 1) + nd * (nu + 1))
            entries.append((nu + nd, nu - nd, logw, jx2))
    top = max(e[2] for e in entries)
    return [(n, k, math.exp(logw - top), jx2) for n, k, logw, jx2 in entries]


def _joint_tables(ens):
    """Weight table W[N, K] (K = 2 Jz + offset) and the companion table X
    accumulating the weighted per-mode diagonal of (J^x)^2."""
    weights = np.ones((1, 1))
    accum = np.zeros((1, 1))
    cur = 0
    for eps in ens.energies:
        entries = _mode_entries(ens, eps)
        step = max(n for n, _, _, _ in entries)
        new = cur + step
        w_next = np.zeros((new + 1, 2 * new + 1))
        x_next = np.zeros_like(w_next)
        for n, k, w, jx2 in entries:
            rows = slice(n, n + cur + 1)
            cols = slice(new - cur + k, new + cur + 1 + k)
            w_next[rows, cols] += w * weights
            x_next[rows, cols] += w * (accum + jx2 * weights)
        weights, accum, cur = w_next, x_next, new
    return weights, accum, cur


def _moments_from_tables(weights, accum, n_max, restrict=0):
    w = weights[restrict:]
    x = accum[restrict:]
    z = w.sum()
    n_vals = np.arange(restrict, n_max + 1, dtype=float)[:, None]
    jz_vals = 0.5 * (np.arange(2 * n_max + 1, dtype=float) - n_max)[None, :]
    mean_n = float((w * n_vals).sum() / z)
    mean_jz = float((w * jz_vals).sum() / z)
    mean_jz2 = float((w * jz_vals**2).sum() / z)
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
    weights, accum, n_max = _joint_tables(ens)
    z = weights.sum()
    moments = _moments_from_tables(weights, accum, n_max)

    w2 = weights[2:]
    x2 = accum[2:]
    z2 = w2.sum()
    weight_low = float(1.0 - z2 / z)
    sector = _moments_from_tables(weights, accum, n_max, restrict=2)

    n_vals = np.arange(2, n_max + 1, dtype=float)[:, None]
    jz_vals = 0.5 * (np.arange(2 * n_max + 1, dtype=float) - n_max)[None, :]
    inv = 1.0 / (n_vals - 1.0)
    jx2_over = float((x2 * inv).sum() / z2)
    jz2_over = float((w2 * jz_vals**2 * inv).sum() / z2)
    n_over = float((w2 * n_vals * inv).sum() / (2.0 * z2))
    nn2_over = float((w2 * n_vals * (n_vals - 2.0) * inv).sum() / (4.0 * z2))

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
        weight_n_le_1=weight_low,
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
