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

import numpy as np

from . import occupancy, spinmoments
from .occupancy import DegenerateInputError, DomainError, NoConvergence
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
        finite = map(math.isfinite, (*self.energies, self.beta, self.mu, self.field))
        if not all(finite):
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


def _convolve_rows(p, f):
    """Convolve each row (last axis) of ``p`` with the matching row of ``f``.

    The shapes alone choose the method: ``np.convolve`` per row when both row
    lengths exceed the row count (long boson rows stay in C), else a loop over
    the shorter operand's coefficients (``p``'s on a tie), each step one
    shifted multiply-add over all rows.
    """
    n, k = p.shape[-1], f.shape[-1]
    if min(n, k) > p[..., 0].size:
        rows = map(np.convolve, p.reshape(-1, n), f.reshape(-1, k))
        return np.reshape(list(rows), p.shape[:-1] + (n + k - 1,))
    if n <= k:
        p, f, n, k = f, p, k, n
    out = np.zeros(p.shape[:-1] + (n + k - 1,))
    for j in range(k):
        out[..., j : j + n] += f[..., j, None] * p
    return out


def _columns(ensembles, pad):
    """Energies (ensemble, mode) padded with ``pad``; beta, mu, H (3, ensemble, 1)."""
    modes = max(len(ens.energies) for ens in ensembles)
    eps = [ens.energies + (pad,) * (modes - len(ens.energies)) for ens in ensembles]
    params = np.array([(ens.beta, ens.mu, ens.field) for ens in ensembles])
    return np.array(eps), params.T[..., None]


def _exact_table(ensembles, cut):
    """ExactReport fields, one row per ensemble of one statistics at cutoff
    ``cut``, from one (ensemble, spin, mode) array.  Padded modes get the unit
    factor (1, 0, ...), whose marked row is zero: they add exact zeros."""
    eps, params = _columns(ensembles, np.nan)
    (beta, mu, h), modes = params[..., None], eps.shape[1]
    occ = np.arange(cut + 1.0)
    # orbital factors over (ensemble, spin, mode, occupation), spin up at
    # -H/2; the NaN padding becomes the unit factor
    logw = (-beta * (eps[:, None] + h * [[-0.5], [0.5]] - mu))[..., None] * occ
    f = np.exp(logw - logw.max(axis=-1, keepdims=True))
    f = np.where(np.isnan(f), occ == 0, f)
    # one fold over the modes: row m < modes weights mode m's factor by its
    # occupation (the marked rows), row ``modes`` is the plain spin product
    marks = np.arange(modes + 1)[:, None]
    spin = np.ones(f.shape[:2] + (modes + 1, 1))
    for j in range(modes):
        fj = f[:, :, j, None]
        spin = _convolve_rows(spin, np.where(marks == j, occ * fj, fj))
    # over the sectors of each N: the weight and the weighted Jz, Jz^2 and
    # (Jx)^2, whose per-mode products pair marked rows (module notes); the
    # six spin-product pairs carry (n_up, n_dn) powers 00 10 01 20 11 02
    n_spin = np.arange(spin.shape[-1])
    powers = np.array([[0, 1, 0, 2, 1, 0], [0, 0, 1, 0, 1, 2]])[..., None]
    sides = np.concatenate([n_spin**powers * spin[:, :, -1:], spin[:, :, :-1]], axis=2)
    terms = _convolve_rows(sides[:, 0], sides[:, 1])
    w, up_n, dn_n, up_n2, cross, dn_n2, *jx = np.moveaxis(terms, 1, 0)
    n = np.arange(w.shape[-1], dtype=float)
    jz, jz2 = 0.5 * (up_n - dn_n), 0.25 * (up_n2 - 2.0 * cross + dn_n2)
    eta = -1.0 if ensembles[0].statistics == "fermi" else 1.0
    jx2 = 0.25 * n * w + 0.5 * eta * sum(jx)

    w2, n2 = w[:, 2:], n[2:]  # the N >= 2 sectors
    z2 = w2.sum(axis=-1)
    if not (z2 > 0).all():
        empty = ensembles[int(np.argmin(z2 > 0))]
        raise DegenerateInputError(f"no weight on the N >= 2 sectors of {empty!r}")
    columns = []
    for lo in (0, 2):  # every sector, then N >= 2; Var Jx = <(Jx)^2> as <Jx> = 0
        z, *s = (v[:, lo:].sum(axis=-1) for v in (w, w * n, jz, jx2, jz2))
        columns += [s[0] / z, s[1] / z, s[2] / z, s[3] / z - (s[1] / z) ** 2]
    inv = 1.0 / (n2 - 1.0)
    columns += [
        (jx2[:, 2:] * inv).sum(axis=-1) / z2,
        (jz2[:, 2:] * inv).sum(axis=-1) / z2,
        (w2 * n2 * inv).sum(axis=-1) / (2.0 * z2),
        (w2 * n2 * (n2 - 2.0) * inv).sum(axis=-1) / (4.0 * z2),
        1.0 - z2 / w.sum(axis=-1),
    ]
    return np.stack(columns, axis=1)


def _exact_reports(ensembles, cut):
    """ExactReport of each ensemble, from the rows of :func:`_exact_table`."""
    return [
        ExactReport(
            SpinMoments(*row[:4]),
            SpinMoments(*row[4:8]),
            row[12],
            tightest_permutations(row[4], row[6], row[7], *row[8:12], "exact"),
            cut,
        )
        for row in _exact_table(ensembles, cut).tolist()
    ]


def exact_moments(ens):
    """Exact moments and inequality sides at the cutoff of
    :func:`_occupation_cutoff`; see :class:`ExactReport`."""
    return _exact_reports([ens], _occupation_cutoff(ens))[0]


def _closed_forms(ensembles):
    """Wick-route moments of ensembles of one statistics as (ensemble,) arrays.
    Padded modes sit at energy +inf and weight 0, so they add exact zeros."""
    eps, (beta, mu, h) = _columns(ensembles, np.inf)
    # over T = 1 / beta: bit for bit the exponent of occupancy.occupation
    x = (eps - occupancy.SPINS[..., None] * h - mu) / (1.0 / beta)
    n = occupancy.occupy(x, ensembles[0].statistics)
    eta = -1.0 if ensembles[0].statistics == "fermi" else 1.0
    sums = occupancy.spin_sums(np.isfinite(eps) * 1.0, n, eta)
    return spinmoments.collective_variances(sums)


def closed_form_moments(ens):
    """Wick-route moments of a few-mode ensemble, for oracle comparison."""
    return SpinMoments(*(v.item() for v in vars(_closed_forms([ens])).values()))


def oracle_deviations(ensembles):
    """Max relative deviation between exact and closed-form moments of each
    ensemble, in order.  Every cutoff (and so NoConvergence) comes first, then
    one batch of (moment, ensemble) arrays per (statistics, cutoff) group."""
    groups = {}
    for i, ens in enumerate(ensembles):
        groups.setdefault((ens.statistics, _occupation_cutoff(ens)), []).append(i)
    deviations = np.empty(len(ensembles))
    for (_, cut), members in groups.items():
        group = [ensembles[i] for i in members]
        a = _exact_table(group, cut)[:, :4].T
        b = np.array(list(vars(_closed_forms(group)).values()))
        scale = np.maximum(1.0, np.maximum(abs(a), abs(b)))
        deviations[members] = (abs(a - b) / scale).max(axis=0)
    return deviations.tolist()
