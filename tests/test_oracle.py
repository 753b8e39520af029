import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singletgas import occupancy, oracle
from singletgas.occupancy import DegenerateInputError, DomainError, NoConvergence
from singletgas.oracle import (
    FockEnsemble,
    closed_form_moments,
    exact_moments,
    oracle_deviations,
)
from singletgas.rng import Lcg64
from singletgas.spinmoments import (
    SpinMoments,
    collective_variances,
    tightest_permutations,
)


def test_single_fermi_mode_equal_weights():
    # beta (e - mu) = 0, H = 0: the four states {0, up, dn, updn} have
    # equal weight
    report = exact_moments(FockEnsemble("fermi", (0.0,), beta=1.0, mu=0.0))
    assert report.n_cut == 1
    assert report.moments.mean_n == pytest.approx(1.0)
    assert report.moments.var_jz == pytest.approx(0.125)
    assert report.moments.var_jx == pytest.approx(0.125)
    wick = closed_form_moments(FockEnsemble("fermi", (0.0,), beta=1.0, mu=0.0))
    assert wick.var_jz == pytest.approx(report.moments.var_jz, rel=1e-12)


def test_deep_fermi_sea_is_singlet():
    ens = FockEnsemble("fermi", (-1.0, -0.8, -0.5), beta=200.0, mu=0.0)
    report = exact_moments(ens)
    assert report.n_cut == 1
    assert report.moments.mean_n == pytest.approx(6.0, abs=1e-10)
    for var in (report.moments.var_jx, report.moments.var_jz):
        assert var == pytest.approx(0.0, abs=1e-10)


def test_two_bose_modes_match_closed_form():
    ens = FockEnsemble("bose", (0.0, 0.5), beta=1.0, mu=float(np.log(0.3)))
    assert oracle_deviations([ens])[0] < 1e-10


def test_bose_mu_reaching_level_rejected():
    with pytest.raises(DomainError):
        FockEnsemble("bose", (0.5,), beta=1.0, mu=0.6)


def test_mode_limits_enforced():
    with pytest.raises(ValueError):
        FockEnsemble("fermi", tuple(np.zeros(7)), beta=1.0, mu=0.0)
    with pytest.raises(ValueError):
        FockEnsemble("bose", tuple(np.ones(5)), beta=1.0, mu=0.0)


# The mode counts cycle explicitly: Lcg64.randint reads the low bits of the
# state, which repeat with a short period (see its docstring).


def test_random_fermi_ensembles_match_wick():
    gen = Lcg64(123)
    ensembles = [
        FockEnsemble(
            "fermi",
            energies=tuple(gen.uniform(-1.0, 1.0) for _ in range(1 + i % 4)),
            beta=gen.uniform(0.2, 5.0),
            mu=gen.uniform(-1.0, 1.0),
            field=gen.uniform(0.0, 1.0),
        )
        for i in range(25)
    ]
    assert max(oracle_deviations(ensembles)) < 1e-10


def test_random_bose_ensembles_match_wick():
    gen = Lcg64(321)
    ensembles = []
    for i in range(5):
        energies = tuple(gen.uniform(0.2, 1.5) for _ in range(1 + i % 2))
        beta = gen.uniform(0.5, 3.0)
        h = gen.uniform(0.0, 0.3)
        mu = min(energies) - h / 2.0 - gen.uniform(0.3, 3.0) / beta
        ensembles.append(FockEnsemble("bose", energies, beta=beta, mu=mu, field=h))
    assert max(oracle_deviations(ensembles)) < 1e-10


def test_low_particle_sector_weight_reported():
    # nearly-empty gas: almost all weight sits in the N <= 1 sector
    dilute = exact_moments(FockEnsemble("fermi", (2.0,), beta=3.0, mu=0.0))
    assert dilute.weight_n_le_1 > 0.99
    dense = exact_moments(FockEnsemble("fermi", (-2.0,), beta=3.0, mu=0.0))
    assert dense.weight_n_le_1 < 0.01


def test_empty_pair_sector_rejected():
    # beta (eps - mu) = 1200 per particle: the N >= 2 weight underflows to 0
    ens = FockEnsemble("fermi", (40.0,), beta=30.0, mu=0.0)
    with pytest.raises(DegenerateInputError, match="FockEnsemble"):
        exact_moments(ens)


def test_exact_bose_inequalities_hold():
    gen = Lcg64(99)
    for i in range(5):
        energies = tuple(gen.uniform(0.2, 1.0) for _ in range(1 + i % 2))
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
            (exact.checks.single, approx.single),
            (exact.checks.pair, approx.pair),
        ):
            a, b = (chk.rhs for chk in pair)
            assert abs(a - b) <= 0.10 * max(1.0, abs(a), abs(b))
        checked += 1


def _report_values(report):
    moments = [
        getattr(m, f)
        for m in (report.moments, report.sector_moments)
        for f in SpinMoments.__dataclass_fields__
    ]
    sides = [v for check in report.checks for v in (check.lhs, check.rhs)]
    return [*moments, report.weight_n_le_1, *sides]


@st.composite
def bose_ensembles(draw, max_modes=4):
    """Bose ensembles of 1-4 modes at beta * gap in [0.1, 40] and H >= 0."""
    energies = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=max_modes))
    beta, h = draw(st.floats(0.2, 5.0)), draw(st.floats(0.0, 1.0))
    mu = min(energies) - h / 2.0 - draw(st.floats(0.1, 40.0)) / beta
    return FockEnsemble("bose", tuple(energies), beta=beta, mu=mu, field=h)


@settings(max_examples=60, deadline=None)
@given(ens=bose_ensembles())
def test_bose_cutoff_matches_far_larger_cutoff(ens):
    # the tail bound's cutoff changes no reported value against a cutoff
    # more than twice as large
    report = exact_moments(ens)
    (reference,) = oracle._exact_reports([ens], 2 * report.n_cut + 60)
    for got, want in zip(_report_values(report), _report_values(reference)):
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_bose_cutoff_beyond_limit_raises_before_any_array(monkeypatch):
    # beta * gap = 0.05 needs a cutoff above MAX_BOSE_CUTOFF; no numpy call
    # (so no bound table and no Fock array) happens before the refusal
    ens = FockEnsemble("bose", (0.5, 0.7), beta=2.0, mu=0.475)
    monkeypatch.setattr(oracle, "np", None)
    with pytest.raises(NoConvergence):
        exact_moments(ens)


@pytest.mark.parametrize(
    "statistics, changes",
    [
        ("fermi", {"beta": math.nan}),
        ("fermi", {"beta": math.inf}),
        ("fermi", {"mu": math.nan}),
        ("fermi", {"mu": -math.inf}),
        ("fermi", {"energies": (0.1, math.nan)}),
        ("fermi", {"energies": (math.inf, 0.3)}),
        ("fermi", {"field": math.nan}),
        ("fermi", {"field": math.inf}),
        ("bose", {"beta": math.nan}),
        ("bose", {"mu": math.nan}),
        ("bose", {"mu": -math.inf}),
        ("bose", {"energies": (0.5, math.inf)}),
        ("bose", {"field": math.nan}),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={v[k]}" for k in v),
)
def test_non_finite_inputs_rejected(statistics, changes):
    kwargs = {"energies": (0.1, 0.3), "beta": 1.0, "mu": -0.5, "field": 0.2}
    kwargs.update(changes)
    with pytest.raises(ValueError):
        FockEnsemble(statistics, **kwargs)


def _brute_force_report(ens, cut):
    """Every field of an ExactReport by enumerating each (n_up, n_dn) per
    mode up to ``cut``: a reference independent of the oracle's per-spin
    factorization."""
    occs = range(cut + 1)
    rows = []
    for config in itertools.product(
        itertools.product(occs, occs), repeat=len(ens.energies)
    ):
        logw = jx2 = 0.0
        for eps, (nu, nd) in zip(ens.energies, config):
            logw -= ens.beta * (
                (eps - 0.5 * ens.field - ens.mu) * nu
                + (eps + 0.5 * ens.field - ens.mu) * nd
            )
            # <n_up n_dn| J+ J- + J- J+ |n_up n_dn> / 4 within the mode
            if ens.statistics == "fermi":
                jx2 += 0.25 * (nu * (1 - nd) + nd * (1 - nu))
            else:
                jx2 += 0.25 * (nu * (nd + 1) + nd * (nu + 1))
        n = sum(nu + nd for nu, nd in config)
        jz = 0.5 * sum(nu - nd for nu, nd in config)
        rows.append((logw, n, jz, jx2))
    top = max(r[0] for r in rows)
    w, n, jz, jx2 = (np.array(c) for c in zip(*rows))
    w = np.exp(w - top)

    def moments(sel):
        z = w[sel].sum()
        mean_n = (w * n)[sel].sum() / z
        mean_jz = (w * jz)[sel].sum() / z
        var_jx = (w * jx2)[sel].sum() / z
        return SpinMoments(
            mean_n=mean_n,
            mean_jz=mean_jz,
            var_jx=var_jx,
            var_jz=(w * jz**2)[sel].sum() / z - mean_jz**2,
        )

    sel = n >= 2
    sector = moments(sel)
    ws, ns = w[sel], n[sel]
    z2 = ws.sum()
    jx2_over = (ws * jx2[sel] / (ns - 1)).sum() / z2
    jz2_over = (ws * jz[sel] ** 2 / (ns - 1)).sum() / z2
    checks = tightest_permutations(
        sector.mean_n,
        sector.var_jx,
        sector.var_jz,
        jx2_over,
        jz2_over,
        (ws * ns / (ns - 1)).sum() / (2.0 * z2),
        (ws * ns * (ns - 2) / (ns - 1)).sum() / (4.0 * z2),
        "exact",
    )
    return moments(np.ones_like(sel)), sector, 1.0 - z2 / w.sum(), checks


BRUTE_FORCE_ENSEMBLES = [
    (FockEnsemble("fermi", (0.3,), beta=2.0, mu=0.5, field=0.4), 1),
    (FockEnsemble("fermi", (-0.4, 0.2), beta=3.0, mu=0.1, field=0.0), 1),
    (FockEnsemble("fermi", (-0.7, -0.1, 0.6), beta=1.5, mu=0.0, field=0.8), 1),
    (FockEnsemble("fermi", (-1.0, -0.8, -0.5), beta=20.0, mu=0.0, field=0.3), 1),
    (FockEnsemble("bose", (0.4,), beta=1.0, mu=-0.2, field=0.3), 8),
    (FockEnsemble("bose", (0.2, 0.9), beta=1.5, mu=-0.3, field=0.2), 6),
    (FockEnsemble("bose", (0.5, 0.6), beta=0.8, mu=0.0, field=0.0), 8),
]


@pytest.mark.parametrize(
    "ens, cut",
    BRUTE_FORCE_ENSEMBLES,
    ids=[f"ens{i}" for i in range(len(BRUTE_FORCE_ENSEMBLES))],
)
def test_exact_report_matches_brute_force(ens, cut):
    # at a fixed cutoff, not the one exact_moments works out
    (report,) = oracle._exact_reports([ens], cut)
    moments, sector, weight_low, checks = _brute_force_report(ens, cut)

    def close(a, b):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    for got, want in ((report.moments, moments), (report.sector_moments, sector)):
        for field in SpinMoments.__dataclass_fields__:
            close(getattr(got, field), getattr(want, field))
    close(report.weight_n_le_1, weight_low)
    for got, want in zip(report.checks, checks):
        close(got.lhs, want.lhs)
        close(got.rhs, want.rhs)
        assert got.satisfied == want.satisfied


@st.composite
def mixed_batches(draw):
    """(ensembles, cut): 1-5 Fermi ensembles of 1-4 modes at cut 1, or 1-3
    Bose ensembles of 1-2 modes at the fixed small cut 4."""
    if draw(st.booleans()):
        ensembles = [
            FockEnsemble(
                "fermi",
                tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))),
                beta=draw(st.floats(0.2, 5.0)),
                mu=draw(st.floats(-1.0, 1.0)),
                field=draw(st.floats(0.0, 1.0)),
            )
            for _ in range(draw(st.integers(1, 5)))
        ]
        return ensembles, 1
    count = draw(st.integers(1, 3))
    return [draw(bose_ensembles(max_modes=2)) for _ in range(count)], 4


@settings(max_examples=40, deadline=None)
@given(batch=mixed_batches())
def test_batched_reports_match_brute_force_and_lone_reports(batch):
    # padding to the batch's largest mode count changes no report beyond
    # round-off, against both the brute force and the ensemble run alone
    ensembles, cut = batch
    for ens, report in zip(ensembles, oracle._exact_reports(ensembles, cut)):
        brute = oracle.ExactReport(*_brute_force_report(ens, cut), cut)
        (alone,) = oracle._exact_reports([ens], cut)
        for other, rtol in ((brute, 1e-12), (alone, 1e-14)):
            for got, want in zip(_report_values(report), _report_values(other)):
                assert abs(got - want) <= rtol * max(1.0, abs(got), abs(want))
            assert [c.satisfied for c in report.checks] == [
                c.satisfied for c in other.checks
            ]


@st.composite
def field_ensembles(draw):
    """Sampler-like ensembles of either statistics at a field H > 0."""
    h = draw(st.floats(0.05, 1.0))
    if draw(st.booleans()):
        energies = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
        beta, mu = draw(st.floats(0.2, 5.0)), draw(st.floats(-1.0, 1.0))
        return FockEnsemble("fermi", tuple(energies), beta=beta, mu=mu, field=h)
    energies = draw(st.lists(st.floats(0.2, 1.5), min_size=1, max_size=2))
    beta = draw(st.floats(0.5, 3.0))
    mu = min(energies) - h / 2.0 - draw(st.floats(0.3, 3.0)) / beta
    return FockEnsemble("bose", tuple(energies), beta=beta, mu=mu, field=h)


def _both_routes(ens):
    return exact_moments(ens).moments, closed_form_moments(ens)


@settings(max_examples=30, deadline=None)
@given(ens=field_ensembles())
def test_detailed_balance_transverse_variance(ens):
    # detailed balance on J+ and J-, whose thermal weights differ by
    # exp(-beta H): Var(Jx) = <Jz> / (2 tanh(beta H / 2))
    for m in _both_routes(ens):
        expected = m.mean_jz / (2.0 * math.tanh(0.5 * ens.beta * ens.field))
        assert abs(m.var_jx - expected) <= 1e-9 * max(1.0, abs(expected))


@settings(max_examples=30, deadline=None)
@given(ens=field_ensembles())
def test_fluctuation_dissipation_longitudinal_variance(ens):
    # Var(Jz) = T d<Jz>/dH, the derivative by central difference
    step = 1e-5
    up = _both_routes(replace(ens, field=ens.field + step))
    dn = _both_routes(replace(ens, field=ens.field - step))
    for m, a, b in zip(_both_routes(ens), up, dn):
        expected = (a.mean_jz - b.mean_jz) / (2.0 * step * ens.beta)
        assert abs(m.var_jz - expected) <= 1e-6 * max(1.0, abs(expected))


def _per_ensemble_deviations(ensembles):
    """The per-ensemble loop that oracle_deviations batches: exact reports
    per (statistics, cutoff) group, then each ensemble's closed form through
    its own GasParameters, occupation and one-table spin sums."""
    groups = {}
    for i, ens in enumerate(ensembles):
        key = (ens.statistics, oracle._occupation_cutoff(ens))
        groups.setdefault(key, []).append(i)
    exact = {}
    for (_, cut), members in groups.items():
        group = [ensembles[i] for i in members]
        exact.update(zip(members, oracle._exact_reports(group, cut)))
    deviations = []
    for i, ens in enumerate(ensembles):
        energies = np.array(ens.energies, dtype=float)
        params = occupancy.GasParameters(
            ens.statistics, 1.0 / ens.beta, mu=ens.mu, field=ens.field
        )
        n = occupancy.occupation(energies, params, occupancy.SPINS)
        wick = collective_variances(
            occupancy.spin_sums(np.ones_like(energies), n, params.eta)
        )
        pairs = zip(vars(exact[i].moments).values(), vars(wick).values())
        deviations.append(max(abs(a - b) / max(1.0, abs(a), abs(b)) for a, b in pairs))
    return deviations


@st.composite
def mixed_groups(draw):
    """Shuffled Fermi ensembles of 1-6 modes and Bose ensembles of 1-4 modes
    at beta * gap >= 1, whose cutoffs stay below 70."""
    fermi = [
        FockEnsemble(
            "fermi",
            tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))),
            beta=draw(st.floats(0.2, 5.0)),
            mu=draw(st.floats(-1.0, 1.0)),
            field=draw(st.floats(0.0, 1.0)),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    bose = []
    for _ in range(draw(st.integers(0 if fermi else 1, 4))):
        energies = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
        beta, h = draw(st.floats(0.2, 5.0)), draw(st.floats(0.0, 1.0))
        mu = min(energies) - h / 2.0 - draw(st.floats(1.0, 40.0)) / beta
        bose.append(FockEnsemble("bose", tuple(energies), beta=beta, mu=mu, field=h))
    return draw(st.permutations(fermi + bose))


@settings(max_examples=40, deadline=None)
@given(ensembles=mixed_groups())
def test_batched_deviations_match_per_ensemble_loop_bitwise(ensembles):
    got = oracle_deviations(ensembles)
    assert [d.hex() for d in got] == [
        d.hex() for d in _per_ensemble_deviations(ensembles)
    ]


def test_padded_closed_forms_match_lone_ensembles_bitwise():
    # a 1-mode and a 6-mode Fermi ensemble, and a 1-mode and a 4-mode Bose
    # pair: the short one is padded with five (three) modes at energy +inf
    # and weight 0, which change no bit of either
    fermi = [
        FockEnsemble("fermi", (0.3,), beta=2.0, mu=0.5, field=0.4),
        FockEnsemble("fermi", (-0.9, -0.5, -0.1, 0.2, 0.6, 0.9), beta=3.0, mu=0.1),
    ]
    bose = [
        FockEnsemble("bose", (0.4,), beta=1.0, mu=-0.2, field=0.3),
        FockEnsemble("bose", (0.2, 0.5, 0.9, 1.3), beta=1.5, mu=-0.6, field=0.2),
    ]
    for group in (fermi, bose):
        batch = vars(oracle._closed_forms(group))
        for i, ens in enumerate(group):
            alone = vars(closed_form_moments(ens))
            assert [float(batch[k][i]).hex() for k in alone] == [
                v.hex() for v in alone.values()
            ]
        assert oracle_deviations(group) == [oracle_deviations([e])[0] for e in group]
