"""Separability witnesses of the collective-spin moments, singlet fraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import occupancy
from .occupancy import GasParameters


class BracketError(ValueError):
    """Root bracket without a sign change."""


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    satisfied: bool
    approximation: str  # "exact" or "mean-N"


class Inequalities(NamedTuple):
    """Separability inequalities 1-3 (Toth et al., PRL 99, 250405, 2007)."""

    sum: InequalityCheck
    single: InequalityCheck
    pair: InequalityCheck


def xi_squared(moments):
    """Singlet-formation parameter 2 sum_mu Var(J^mu) / <N>."""
    return 2.0 * (2.0 * moments.var_jx + moments.var_jz) / moments.mean_n


def tightest_permutations(
    n, var_x, var_z, second_x, second_z, n_over, nn2_over, approximation
):
    """Inequalities 1-3, with 2 and 3 at their axis permutation of smallest margin.

    ``n`` is <N>; ``var_x`` and ``var_z`` are Var(Jx) = Var(Jy) and Var(Jz);
    ``second_x`` and ``second_z`` are <(J^a)^2 / (N - 1)> for a = x (= y)
    and z; ``n_over`` is <N / (N - 1)> / 2 and ``nn2_over`` is
    <N (N - 2) / (N - 1)> / 4.  Inequality 1 reads sum_a Var(J^a) >= n / 2;
    it is linear in the moments, so always "exact".  Inequality 2 reads
    Var(J^a) >= second[b] + second[c] - n_over, inequality 3
    Var(J^a) + Var(J^b) >= second[c] + nn2_over; both carry
    ``approximation``.  With x and y alike, two of the three permutations
    of each coincide, so two candidates remain.
    """
    total = 2.0 * var_x + var_z
    ineq_sum = InequalityCheck(total, n / 2.0, total >= n / 2.0, "exact")

    def tightest(*sides):
        lhs, rhs = min(sides, key=lambda lr: lr[0] - lr[1])
        return InequalityCheck(lhs, rhs, lhs >= rhs, approximation)

    single = tightest(
        (var_x, second_x + second_z - n_over), (var_z, 2.0 * second_x - n_over)
    )
    pair = tightest(
        (2.0 * var_x, second_z + nn2_over), (var_x + var_z, second_x + nn2_over)
    )
    return Inequalities(ineq_sum, single, pair)


def witness_report(moments):
    """Evaluate the three separability inequalities for one set of moments.

    Inequality 1 compares the summed variances to <N>/2 and is exact; it
    holds iff xi^2 >= 1.  Inequalities 2 and 3 involve nonlinear functions
    of N; here every <f(N) X> is evaluated as f(<N>)<X> and the check
    carries a "mean-N" flag.  Of the inequivalent axis permutations the one
    with the smallest margin is reported, so ``satisfied`` means *all*
    permutations hold.

    Requires <N> > 2: the fluctuating-N criteria assume no weight on the
    empty and single-particle sectors, and the mean-N evaluation of the
    nonlinear inequalities needs <N> - 1 well away from zero.
    """
    n = moments.mean_n
    if n <= 2.0:
        raise ValueError(f"witness evaluation needs <N> > 2, got {n}")
    denom = n - 1.0
    return tightest_permutations(
        n,
        moments.var_jx,
        moments.var_jz,
        moments.var_jx / denom,  # <Jx> = 0
        (moments.var_jz + moments.mean_jz**2) / denom,
        n / (2.0 * denom),
        n * (n - 2.0) / (4.0 * denom),
        "mean-N",
    )


@dataclass(frozen=True)
class SweepPoint:
    temperature: float
    p_target: float
    field: float
    moments: occupancy.SpinMoments
    singlet_fraction: float
    witnessed: bool


def moments_at(model, temperature, p_target=0.0, start=None):
    """(H, moments) of a Fermi gas at one (T, P) point: the field solve's result.

    ``start`` is the field solve's first guess (see
    ``occupancy.solve_field_for_polarization``).
    """
    params = GasParameters.fermi(temperature)
    return occupancy.solve_field_for_polarization(model, params, p_target, start)


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


def _bracketed_root(f, a, b, fa, fb, xtol=0.0):
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in sign.

    Illinois false position (Dowell & Jarratt 1971): a secant step that lands
    on the last point's side halves the retained end's f, so no end stalls.
    Returns x once f(x) == 0, the midpoint once |b - a| < xtol.
    """
    for _ in range(occupancy.MAX_ITERATIONS):
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
    raise occupancy.NoConvergence(
        f"root search did not converge in {occupancy.MAX_ITERATIONS} steps"
    )


def _secant_field(solved, temperature):
    """H at ``temperature`` on the line through the last two (T, H) in ``solved``.

    None with fewer than two points or equal temperatures; a result that is
    not positive and finite is left for the field solve to reject.
    """
    if len(solved) < 2:
        return None
    (t0, h0), (t1, h1) = solved[-2:]
    if t0 == t1:
        return None
    return h1 + (h1 - h0) * (temperature - t1) / (t1 - t0)


def find_threshold(model, p_target=0.0, t_bracket=(0.02, 2.0)):
    """Temperature at which f_s(T, P) changes sign, to within T_TOLERANCE.

    The bracket must straddle the zero: f_s > 0 at the lower end and
    f_s < 0 at the upper end.  ``_bracketed_root`` narrows it to T_TOLERANCE.
    Each field solve after the first two starts from the secant predictor,
    the line through this search's last two solved (T, H), which cuts the
    P evaluations per search by about a third; no state outlives the call.
    """
    solved = []

    def f_s(t):
        field, moments = moments_at(model, t, p_target, _secant_field(solved, t))
        solved.append((t, field))
        return 1.0 - xi_squared(moments)

    lo, hi = t_bracket
    f_lo, f_hi = f_s(lo), f_s(hi)
    if not f_lo > 0.0 > f_hi:
        raise BracketError(
            f"f_s does not change sign on [{lo}, {hi}] at P={p_target}"
        )
    return _bracketed_root(f_s, lo, hi, f_lo, f_hi, xtol=T_TOLERANCE)
