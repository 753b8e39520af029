import numpy as np
import pytest

from singletgas.occupancy import DomainError
from singletgas.oracle import (
    FockEnsemble,
    closed_form_moments,
    exact_moments,
    oracle_deviation,
)
from singletgas.rng import Lcg64


def test_single_fermi_mode_equal_weights():
    # beta (e - mu) = 0, H = 0: the four states {0, up, dn, updn} have
    # equal weight
    report = exact_moments(FockEnsemble("fermi", (0.0,), beta=1.0, mu=0.0))
    assert report.moments.mean_n == pytest.approx(1.0)
    assert report.moments.var_jz == pytest.approx(0.125)
    assert report.moments.var_jx == pytest.approx(0.125)
    wick = closed_form_moments(FockEnsemble("fermi", (0.0,), beta=1.0, mu=0.0))
    assert wick.var_jz == pytest.approx(report.moments.var_jz, rel=1e-12)


def test_deep_fermi_sea_is_singlet():
    ens = FockEnsemble("fermi", (-1.0, -0.8, -0.5), beta=200.0, mu=0.0)
    report = exact_moments(ens)
    assert report.moments.mean_n == pytest.approx(6.0, abs=1e-10)
    for var in (report.moments.var_jx, report.moments.var_jz):
        assert var == pytest.approx(0.0, abs=1e-10)


def test_two_bose_modes_match_closed_form():
    ens = FockEnsemble(
        "bose", (0.0, 0.5), beta=1.0, mu=float(np.log(0.3)), n_cut=40
    )
    assert oracle_deviation(ens) < 1e-8


def test_bose_mu_reaching_level_rejected():
    with pytest.raises(DomainError):
        FockEnsemble("bose", (0.5,), beta=1.0, mu=0.6)


def test_mode_limits_enforced():
    with pytest.raises(ValueError):
        FockEnsemble("fermi", tuple(np.zeros(7)), beta=1.0, mu=0.0)
    with pytest.raises(ValueError):
        FockEnsemble("bose", tuple(np.ones(5)), beta=1.0, mu=0.0)


def test_random_fermi_ensembles_match_wick():
    gen = Lcg64(123)
    for _ in range(25):
        modes = gen.randint(1, 4)
        ens = FockEnsemble(
            "fermi",
            energies=tuple(gen.uniform(-1.0, 1.0) for _ in range(modes)),
            beta=gen.uniform(0.2, 5.0),
            mu=gen.uniform(-1.0, 1.0),
            field=gen.uniform(0.0, 1.0),
        )
        assert oracle_deviation(ens) < 1e-10


def test_random_bose_ensembles_match_wick():
    gen = Lcg64(321)
    for _ in range(5):
        modes = gen.randint(1, 2)
        energies = tuple(gen.uniform(0.2, 1.5) for _ in range(modes))
        beta = gen.uniform(0.5, 3.0)
        h = gen.uniform(0.0, 0.3)
        mu = min(energies) - h / 2.0 - gen.uniform(0.3, 3.0) / beta
        ens = FockEnsemble("bose", energies, beta=beta, mu=mu, field=h)
        assert oracle_deviation(ens) < 1e-6


def test_low_particle_sector_weight_reported():
    # nearly-empty gas: almost all weight sits in the N <= 1 sector
    dilute = exact_moments(FockEnsemble("fermi", (2.0,), beta=3.0, mu=0.0))
    assert dilute.weight_n_le_1 > 0.99
    dense = exact_moments(FockEnsemble("fermi", (-2.0,), beta=3.0, mu=0.0))
    assert dense.weight_n_le_1 < 0.01


def test_exact_bose_inequalities_hold():
    gen = Lcg64(99)
    for _ in range(5):
        modes = gen.randint(1, 2)
        energies = tuple(gen.uniform(0.2, 1.0) for _ in range(modes))
        beta = gen.uniform(0.5, 2.0)
        mu = min(energies) - gen.uniform(0.3, 2.0) / beta
        report = exact_moments(FockEnsemble("bose", energies, beta=beta, mu=mu))
        assert all(check.satisfied for check in report.checks)
        assert all(check.approximation == "exact" for check in report.checks)


def test_mean_n_approximation_quality():
    # for well-populated fermionic ensembles the mean-N sides of the
    # nonlinear inequalities track the exact conditioned sides within 10%
    from singletgas.spinmoments import witness_report

    gen = Lcg64(7)
    checked = 0
    while checked < 10:
        modes = 4
        ens = FockEnsemble(
            "fermi",
            energies=tuple(gen.uniform(-1.0, 0.0) for _ in range(modes)),
            beta=gen.uniform(2.0, 6.0),
            mu=gen.uniform(0.5, 1.0),
            field=gen.uniform(0.0, 0.3),
        )
        exact = exact_moments(ens)
        if exact.moments.mean_n < 6.0:
            continue
        approx = witness_report(closed_form_moments(ens))
        for pair in (
            (exact.inequality_single, approx.inequality_single),
            (exact.inequality_pair, approx.inequality_pair),
        ):
            a, b = (chk.rhs for chk in pair)
            assert abs(a - b) <= 0.10 * max(1.0, abs(a), abs(b))
        checked += 1


def test_bose_cutoff_convergence_loop():
    # a deliberately small starting cutoff must be escalated, not trusted
    soft = FockEnsemble("bose", (0.2,), beta=2.0, mu=-0.2, n_cut=4)
    hard = FockEnsemble("bose", (0.2,), beta=2.0, mu=-0.2, n_cut=64)
    a = exact_moments(soft).moments
    b = exact_moments(hard).moments
    assert a.mean_n == pytest.approx(b.mean_n, rel=1e-9)
    assert a.var_jx == pytest.approx(b.var_jx, rel=1e-9)
