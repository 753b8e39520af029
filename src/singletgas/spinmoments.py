"""Collective-spin variances, separability witnesses, singlet fraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import occupancy
from .occupancy import GasParameters, total_number


class BracketError(ValueError):
    """Root bracket without a sign change."""


@dataclass(frozen=True)
class SpinMoments:
    """First and second moments of the collective spin of the ensemble."""

    mean_n: float
    mean_jz: float
    var_jx: float
    var_jy: float
    var_jz: float
    polarization: float


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    satisfied: bool
    approximation: str  # "exact" or "mean-N"


@dataclass(frozen=True)
class WitnessReport:
    """The three separability inequalities plus the singlet-formation data.

    Inequality 1 compares the summed variances to <N>/2 and is exact.
    Inequalities 2 and 3 involve nonlinear functions of N; here every
    <f(N) X> is evaluated as f(<N>)<X> and the check carries a "mean-N"
    flag.  Of the inequivalent axis permutations the one with the smallest
    margin is reported, so ``satisfied`` means *all* permutations hold.
    """

    inequality_sum: InequalityCheck
    inequality_single: InequalityCheck
    inequality_pair: InequalityCheck
    xi_squared: float
    singlet_fraction: float
    entanglement_witnessed: bool

    @property
    def checks(self):
        return (self.inequality_sum, self.inequality_single, self.inequality_pair)


def collective_variances(table, eta):
    """Collective-spin moments from an occupation table.

    Var(Jz) = <N>/4 + (eta/4) sum_a w_a (n_up^2 + n_down^2) and
    Var(Jx) = Var(Jy) = <N>/4 + (eta/2) sum_a w_a n_up n_down, the level
    weights multiplying each contribution.
    """
    if eta not in (1, -1, 1.0, -1.0):
        raise ValueError(f"statistics sign must be +-1, got {eta}")
    w = table.weights
    nums = total_number(table)
    var_jz = nums.total / 4.0 + (eta / 4.0) * float(
        np.sum(w * (table.n_up**2 + table.n_down**2))
    )
    var_jxy = nums.total / 4.0 + (eta / 2.0) * float(
        np.sum(w * table.n_up * table.n_down)
    )
    return SpinMoments(
        mean_n=nums.total,
        mean_jz=0.5 * (nums.up - nums.down),
        var_jx=var_jxy,
        var_jy=var_jxy,
        var_jz=var_jz,
        polarization=nums.polarization,
    )


def xi_squared(moments):
    """Singlet-formation parameter 2 sum_mu Var(J^mu) / <N>."""
    return (
        2.0
        * (moments.var_jx + moments.var_jy + moments.var_jz)
        / moments.mean_n
    )


def tightest_permutations(n, variances, second_over, n_over, nn2_over, approximation):
    """Inequalities 1-3, with 2 and 3 at their axis permutation of smallest margin.

    ``n`` is <N>; ``variances`` and ``second_over`` map the axes "x", "y", "z"
    to Var(J^a) and <(J^a)^2 / (N - 1)>; ``n_over`` is <N / (N - 1)> / 2 and
    ``nn2_over`` is <N (N - 2) / (N - 1)> / 4.  Inequality 1 reads
    sum_a Var(J^a) >= n / 2; it is linear in the moments, so always "exact".
    Inequality 2 reads Var(J^a) >= second_over[b] + second_over[c] - n_over,
    inequality 3 Var(J^a) + Var(J^b) >= second_over[c] + nn2_over; both carry
    ``approximation``.
    """
    total = sum(variances.values())
    ineq_sum = InequalityCheck(total, n / 2.0, total >= n / 2.0, "exact")

    def tightest(sides):
        lhs, rhs = min(sides, key=lambda lr: lr[0] - lr[1])
        return InequalityCheck(lhs, rhs, lhs >= rhs, approximation)

    single = tightest(
        (variances[a], second_over[b] + second_over[c] - n_over)
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))
    )
    pair = tightest(
        (variances[a] + variances[b], second_over[c] + nn2_over)
        for a, b, c in (("x", "y", "z"), ("x", "z", "y"), ("y", "z", "x"))
    )
    return ineq_sum, single, pair


def witness_report(moments):
    """Evaluate the three separability inequalities for one set of moments.

    Requires <N> > 2: the fluctuating-N criteria assume no weight on the
    empty and single-particle sectors, and the mean-N evaluation of the
    nonlinear inequalities needs <N> - 1 well away from zero.
    """
    n = moments.mean_n
    if n <= 2.0:
        raise ValueError(f"witness evaluation needs <N> > 2, got {n}")
    variances = {"x": moments.var_jx, "y": moments.var_jy, "z": moments.var_jz}
    # polarization only along z, so <Jx> = <Jy> = 0
    second = {
        "x": moments.var_jx,
        "y": moments.var_jy,
        "z": moments.var_jz + moments.mean_jz**2,
    }
    denom = n - 1.0
    ineq_sum, single, pair = tightest_permutations(
        n,
        variances,
        {axis: value / denom for axis, value in second.items()},
        n / (2.0 * denom),
        n * (n - 2.0) / (4.0 * denom),
        "mean-N",
    )
    xi2 = xi_squared(moments)
    return WitnessReport(
        inequality_sum=ineq_sum,
        inequality_single=single,
        inequality_pair=pair,
        xi_squared=xi2,
        singlet_fraction=1.0 - xi2,
        entanglement_witnessed=xi2 < 1.0,
    )


@dataclass(frozen=True)
class SweepPoint:
    temperature: float
    p_target: float
    field: float
    moments: SpinMoments
    singlet_fraction: float
    witnessed: bool


def moments_at(model, temperature, p_target=0.0):
    """(H, moments) of a Fermi gas at one (T, P) point, from the field solve's table."""
    params = GasParameters.fermi(temperature)
    field, table = occupancy.solve_field_for_polarization(model, params, p_target)
    return field, collective_variances(table, eta=-1.0)


def singlet_fraction_sweep(model, t_grid, p_grid):
    """f_s over a (T, P) product grid, rows ordered T outer / P inner."""
    t_grid, p_grid = list(t_grid), list(p_grid)
    if not t_grid or not p_grid:
        raise ValueError("temperature and polarization grids must be nonempty")
    rows = []
    for t in t_grid:
        for p in p_grid:
            try:
                field, moments = moments_at(model, t, p)
            except (occupancy.DomainError, occupancy.NoConvergence) as err:
                raise type(err)(f"at grid point T={t}, P={p}: {err}") from None
            xi2 = xi_squared(moments)
            rows.append(
                SweepPoint(t, p, field, moments, 1.0 - xi2, xi2 < 1.0)
            )
    return rows


T_TOLERANCE = 1e-6


def find_threshold(model, p_target=0.0, t_bracket=(0.02, 2.0)):
    """Temperature at which f_s(T, P) changes sign, to within T_TOLERANCE.

    The bracket must straddle the zero: f_s > 0 at the lower end and
    f_s < 0 at the upper end.  ``_bracketed_root`` narrows it to T_TOLERANCE.
    """

    def f_s(t):
        _, moments = moments_at(model, t, p_target)
        return 1.0 - xi_squared(moments)

    lo, hi = t_bracket
    f_lo, f_hi = f_s(lo), f_s(hi)
    if not f_lo > 0.0 > f_hi:
        raise BracketError(
            f"f_s does not change sign on [{lo}, {hi}] at P={p_target}"
        )
    return occupancy._bracketed_root(f_s, lo, hi, f_lo, f_hi, xtol=T_TOLERANCE)
