import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singletgas import occupancy, spinmoments
from singletgas.occupancy import (
    GasParameters,
    build_occupation_table,
    spin_sums,
)
from singletgas.spectra import FreeSpaceContinuum, FreeSpaceGrid, HarmonicTrap
from singletgas.spinmoments import (
    T_TOLERANCE,
    BracketError,
    SpinMoments,
    collective_variances,
    find_threshold,
    moments_at,
    singlet_fraction_sweep,
    witness_report,
    xi_squared,
)


def table_of(n_up, n_down, weights=None):
    n = np.array((n_up, n_down), dtype=float)
    if weights is None:
        weights = np.ones(n.shape[1])
    return weights, n


def moments_of(table, eta):
    return collective_variances(spin_sums(*table, eta))


def test_single_fermi_level_half_filled():
    moments = moments_of(table_of([0.5], [0.5]), eta=-1)
    assert moments.mean_n == pytest.approx(1.0)
    assert moments.var_jz == pytest.approx(0.125)
    assert moments.var_jx == pytest.approx(0.125)


def test_single_bose_level_unit_filled():
    moments = moments_of(table_of([1.0], [1.0]), eta=+1)
    assert moments.mean_n == pytest.approx(2.0)
    assert moments.var_jz == pytest.approx(1.0)
    assert moments.var_jx == pytest.approx(1.0)


def test_degeneracy_weights_multiply_contributions():
    weighted = moments_of(table_of([0.3], [0.2], weights=[5.0]), eta=-1)
    repeated = moments_of(
        table_of([0.3] * 5, [0.2] * 5), eta=-1
    )
    assert weighted.mean_n == pytest.approx(repeated.mean_n)
    assert weighted.var_jz == pytest.approx(repeated.var_jz)
    assert weighted.var_jx == pytest.approx(repeated.var_jx)


def test_filled_sea_is_total_singlet():
    moments = moments_of(table_of([1.0] * 8, [1.0] * 8), eta=-1)
    assert moments.var_jx == pytest.approx(0.0, abs=1e-14)
    assert moments.var_jz == pytest.approx(0.0, abs=1e-14)


def test_mean_jz_and_polarization():
    moments = moments_of(table_of([1.0, 1.0], [1.0, 0.0]), eta=-1)
    assert moments.mean_jz == pytest.approx(0.5)
    assert 2.0 * moments.mean_jz / moments.mean_n == pytest.approx(1.0 / 3.0)


def test_witness_maximal_violation():
    moments = SpinMoments(100.0, 0.0, 0.0, 0.0)
    report = witness_report(moments)
    assert report.sum.lhs == 0.0
    assert report.sum.rhs == 50.0
    assert not report.sum.satisfied
    assert xi_squared(moments) == 0.0


def test_witness_boundary_case():
    # sum of variances exactly <N>/2: f_s = 0, nothing witnessed
    v = 100.0 / 6.0
    moments = SpinMoments(100.0, 0.0, v, v)
    report = witness_report(moments)
    assert 1.0 - xi_squared(moments) == pytest.approx(0.0, abs=1e-12)
    assert report.sum.satisfied


def test_witness_requires_enough_particles():
    with pytest.raises(ValueError):
        witness_report(SpinMoments(2.0, 0.0, 0.1, 0.1))


def _three_permutation_checks(
    n, variances, second_over, n_over, nn2_over, approximation
):
    """Reference: inequalities 1-3 over all three axis permutations, with
    per-axis dicts, for comparison with the two-candidate routine."""
    total = sum(variances.values())
    ineq_sum = (total, n / 2.0, total >= n / 2.0, "exact")

    def tightest(sides):
        lhs, rhs = min(sides, key=lambda lr: lr[0] - lr[1])
        return (lhs, rhs, lhs >= rhs, approximation)

    single = tightest(
        (variances[a], second_over[b] + second_over[c] - n_over)
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))
    )
    pair = tightest(
        (variances[a] + variances[b], second_over[c] + nn2_over)
        for a, b, c in (("x", "y", "z"), ("x", "z", "y"), ("y", "z", "x"))
    )
    return ineq_sum, single, pair


def test_two_candidates_match_three_permutations_bitwise():
    # with x and y alike, the dropped permutation of each inequality is an
    # exact duplicate; values drawn from a small pool make ties common
    rng = np.random.default_rng(14)
    pool = np.array([0.0, 0.25, 0.5, 1.0, 2.5])
    for i in range(4000):
        draw = rng.choice(pool, 7) if i % 2 else rng.uniform(0.0, 5.0, 7)
        n, vx, vz, sx, sz, n_over, nn2_over = (float(v) for v in draw)
        tag = ("exact", "mean-N")[i % 4 // 2]
        want = _three_permutation_checks(
            n,
            {"x": vx, "y": vx, "z": vz},
            {"x": sx, "y": sx, "z": sz},
            n_over,
            nn2_over,
            tag,
        )
        got = spinmoments.tightest_permutations(
            n, vx, vz, sx, sz, n_over, nn2_over, tag
        )
        got = [(c.lhs.hex(), c.rhs.hex(), c.satisfied, c.approximation) for c in got]
        want = [(lhs.hex(), rhs.hex(), ok, a) for lhs, rhs, ok, a in want]
        assert got == want


def test_witness_flags_and_xi_identity():
    params = GasParameters.fermi(temperature=0.3, mu=1.0)
    table = build_occupation_table(FreeSpaceGrid(half_width=8), params)
    moments = moments_of(table, eta=-1)
    report = witness_report(moments)
    assert report.sum.approximation == "exact"
    assert report.single.approximation == "mean-N"
    assert report.pair.approximation == "mean-N"
    xi2 = xi_squared(moments)
    expected = 2 * (moments.var_jx + moments.var_jx + moments.var_jz) / moments.mean_n
    assert xi2 == pytest.approx(expected, rel=1e-15)
    assert report.sum.satisfied == (xi2 >= 1.0)


def test_bose_table_satisfies_all_inequalities():
    params = GasParameters.bose(temperature=1.0, fugacity=0.8, field=0.1)
    table = build_occupation_table(FreeSpaceGrid(half_width=8), params)
    moments = moments_of(table, eta=+1)
    report = witness_report(moments)
    assert all(check.satisfied for check in report)
    for var in (moments.var_jx, moments.var_jz):
        assert var > moments.mean_n / 4.0


@settings(max_examples=30, deadline=None)
@given(
    z=st.floats(0.2, 0.95),
    t=st.floats(0.5, 2.0),
    h_frac=st.floats(0.0, 0.8),
)
def test_bose_never_witnessed_property(z, t, h_frac):
    h = h_frac * 2.0 * t * math.log(1.0 / z)
    params = GasParameters.bose(temperature=t, fugacity=z, field=h)
    table = build_occupation_table(HarmonicTrap(level_spacing=1 / 20), params)
    moments = moments_of(table, eta=+1)
    if moments.mean_n > 6.0:
        report = witness_report(moments)
        assert all(check.satisfied for check in report)
        assert not xi_squared(moments) < 1.0
    assert min(moments.var_jx, moments.var_jz) > moments.mean_n / 4.0


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.05, 2.0), h=st.floats(0.0, 2.0))
def test_fermi_variances_bounded_property(t, h):
    params = GasParameters.fermi(temperature=t, mu=1.0, field=h)
    table = build_occupation_table(FreeSpaceContinuum(), params)
    moments = moments_of(table, eta=-1)
    bound = moments.mean_n / 4.0 + 1e-12
    assert moments.var_jx <= bound and moments.var_jz <= bound
    assert min(moments.var_jx, moments.var_jz) >= 0.0


def test_singlet_fraction_decreases_with_temperature():
    rows = singlet_fraction_sweep(
        FreeSpaceContinuum(), [0.1, 0.3, 0.6, 0.9, 1.2], [0.0]
    )
    fs = [r.singlet_fraction for r in rows]
    assert all(b < a for a, b in zip(fs, fs[1:]))


def test_sweep_ordering_and_shape():
    rows = singlet_fraction_sweep(FreeSpaceContinuum(), [0.2, 0.4], [0.0, 0.3])
    assert [(r.temperature, r.p_target) for r in rows] == [
        (0.2, 0.0),
        (0.2, 0.3),
        (0.4, 0.0),
        (0.4, 0.3),
    ]


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        singlet_fraction_sweep(FreeSpaceContinuum(), [], [0.0])


def test_sweep_errors_name_the_grid_point():
    with pytest.raises(occupancy.DomainError, match=r"^at grid point T=0\.5, P=1\.0: "):
        singlet_fraction_sweep(FreeSpaceContinuum(), [0.5], [1.0])


@pytest.mark.parametrize(
    "model",
    [FreeSpaceContinuum(), FreeSpaceGrid(), HarmonicTrap()],
    ids=["continuum", "grid", "trap"],
)
def test_moments_at_builds_one_table_per_p_evaluation(model, monkeypatch):
    # the field solve's last table is the one the moments come from: one
    # table and one reduction per P evaluation, no rebuild or second
    # reduction after the solve (only the formula), and one P evaluation at
    # H = 0 when P* = 0
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(occupancy, "polarization_at")
    counting(occupancy, "build_occupation_table")
    counting(occupancy, "spin_sums")
    counting(spinmoments, "collective_variances")
    field, moments = moments_at(model, 0.3, 0.0)
    assert field == 0.0
    assert calls == [
        "polarization_at",
        "build_occupation_table",
        "spin_sums",
        "collective_variances",
    ]
    for p in (0.2, 0.6):
        calls.clear()
        field, moments = moments_at(model, 0.3, p)
        evals = calls.count("polarization_at")
        per_eval = ["polarization_at", "build_occupation_table", "spin_sums"]
        assert evals > 0 and calls == per_eval * evals + ["collective_variances"]
        polarization = 2.0 * moments.mean_jz / moments.mean_n
        assert polarization == pytest.approx(p, abs=occupancy.P_TOLERANCE)


def test_low_t_limit_approaches_total_singlet():
    _, moments = moments_at(HarmonicTrap(level_spacing=1 / 30), 1e-3, 0.0)
    assert 1.0 - xi_squared(moments) > 0.999


@pytest.mark.parametrize(
    "model",
    [FreeSpaceContinuum(), FreeSpaceGrid(half_width=8), HarmonicTrap(level_spacing=0.1)],
    ids=["continuum", "grid", "trap"],
)
@pytest.mark.parametrize("t,p", [(0.1, 0.2), (0.5, 0.5), (1.0, 0.8)])
def test_detailed_balance_gas_models(model, t, p):
    # SU(2) with a Zeeman field, any spectrum: J+ and J- weights differ by
    # exp(-H / T), so Var(Jx) = <Jz> / (2 tanh(H / 2T))
    field, m = moments_at(model, t, p)
    expected = m.mean_jz / (2.0 * math.tanh(0.5 * field / t))
    assert m.var_jx == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "model,spin_stats",
    [
        (FreeSpaceContinuum(), "fermi"),
        (FreeSpaceContinuum(), "bose"),
        (FreeSpaceGrid(half_width=6), "fermi"),
        (FreeSpaceGrid(half_width=6), "bose"),
        (HarmonicTrap(level_spacing=0.1), "fermi"),
        (HarmonicTrap(level_spacing=0.1), "bose"),
    ],
    ids=[
        "continuum-fermi",
        "continuum-bose",
        "grid-fermi",
        "grid-bose",
        "trap-fermi",
        "trap-bose",
    ],
)
@pytest.mark.parametrize("t,h", [(0.1, 0.05), (0.5, 0.3), (1.0, 0.5)])
def test_fluctuation_dissipation_gas_models(model, spin_stats, t, h):
    # Var(Jz) = T d<Jz>/dH at fixed mu (fixed fugacity for Bose), by a
    # central difference.
    def moments(field):
        if spin_stats == "fermi":
            params = GasParameters.fermi(t, mu=1.0, field=field)
        else:
            params = GasParameters.bose(t, fugacity=0.5, field=field)
        return moments_of(build_occupation_table(model, params), params.eta)

    step = 1e-5
    slope = (moments(h + step).mean_jz - moments(h - step).mean_jz) / (2.0 * step)
    assert t * slope == pytest.approx(moments(h).var_jz, rel=1e-6)


# T* from the bisection that the Illinois search replaced (midpoint of a
# bracket narrower than T_TOLERANCE), for the brackets below
BISECTION_T_STAR = {
    ("continuum", 0.0): 1.1163386869430543,
    ("continuum", 0.2): 1.075857844352722,
    ("continuum", 0.5): 0.8642124128341674,
    ("continuum", 0.8): 0.44249353885650633,
    ("grid", 0.0): 1.1202738523483275,
    ("grid", 0.2): 1.0788347101211548,
    ("grid", 0.5): 0.8647175264358521,
    ("grid", 0.8): 0.44249448299407956,
    ("trap", 0.0): 0.3644263029098511,
    ("trap", 0.2): 0.3561962842941284,
    ("trap", 0.5): 0.30826938152313244,
    ("trap", 0.8): 0.1795933485031128,
}


@pytest.mark.parametrize(
    "name,model,t_bracket",
    [
        ("continuum", FreeSpaceContinuum(), (0.02, 2.0)),
        ("grid", FreeSpaceGrid(), (0.02, 2.0)),
        ("trap", HarmonicTrap(), (0.05, 1.0)),
    ],
    ids=["continuum", "grid", "trap"],
)
def test_threshold_evaluation_count(name, model, t_bracket, monkeypatch):
    # f_s evaluations per search, both bracket ends included; a bisection
    # to T_TOLERANCE needs 22-23, so only a superlinear search passes
    evals = []
    real_moments_at = spinmoments.moments_at

    def counted(*args, **kwargs):
        evals.append(args)
        return real_moments_at(*args, **kwargs)

    monkeypatch.setattr(spinmoments, "moments_at", counted)
    counts = []
    for p in (0.0, 0.2, 0.5, 0.8):
        evals.clear()
        t_star = find_threshold(model, p, t_bracket=t_bracket)
        counts.append(len(evals))
        assert t_star == pytest.approx(BISECTION_T_STAR[name, p], abs=T_TOLERANCE)
    assert np.mean(counts) <= 14.0


def test_threshold_p_evaluation_count(monkeypatch):
    # P evaluations per T* search.  Warm-started field solves measured 27-36
    # (mean 30.9); cold starts from 2T artanh(P*) took 43-58 (mean 49.9)
    calls = []
    polarization_at = occupancy.polarization_at

    def counted(*args):
        calls.append(args)
        return polarization_at(*args)

    monkeypatch.setattr(occupancy, "polarization_at", counted)
    counts = []
    for model, t_bracket in (
        (FreeSpaceContinuum(), (0.02, 2.0)),
        (FreeSpaceGrid(), (0.02, 2.0)),
        (HarmonicTrap(), (0.05, 1.0)),
    ):
        for p in (0.2, 0.5, 0.8):
            calls.clear()
            find_threshold(model, p, t_bracket=t_bracket)
            counts.append(len(calls))
    assert np.mean(counts) <= 34.0


def test_secant_field_extrapolates_last_two_points():
    secant = spinmoments._secant_field
    assert secant([], 0.5) is None
    assert secant([(0.4, 1.0)], 0.5) is None
    assert secant([(0.4, 1.0), (0.4, 2.0)], 0.5) is None
    assert secant([(9.0, 9.0), (0.2, 1.0), (0.4, 2.0)], 0.5) == pytest.approx(2.5)
    # a line that crosses H = 0 gives a start the field solve rejects
    assert secant([(0.2, 1.0), (0.4, 0.5)], 1.0) < 0.0


def test_threshold_solves_start_from_the_secant_field(monkeypatch):
    starts = []
    real_solve = occupancy.solve_field_for_polarization

    def recorded(model, params, p_target, start=None):
        starts.append(start)
        return real_solve(model, params, p_target, start)

    monkeypatch.setattr(occupancy, "solve_field_for_polarization", recorded)
    find_threshold(HarmonicTrap(), 0.5, t_bracket=(0.05, 1.0))
    assert starts[:2] == [None, None]
    assert len(starts) > 2 and all(s > 0.0 for s in starts[2:])


def test_free_space_threshold_pinned_polylog():
    # root of (3/2) Li_{1/2}(-e^{1/T}) / Li_{3/2}(-e^{1/T}) = 1, from
    # 30-digit mpmath
    t_star = find_threshold(FreeSpaceContinuum(), 0.0)
    assert t_star == pytest.approx(1.11633909914114737, abs=1e-8)


# Continuum moments at mu = 1 and fixed (T, H), from 40-digit mpmath.  With
# g = Gamma(3/2) T^{3/2}, z_pm = exp((1 +- H/2) / T) and L_s = Li_s(-z_+),
# M_s = Li_s(-z_-) (spin up is z_+):
#   <N> = -g (L_{3/2} + M_{3/2}),   P = (L_{3/2} - M_{3/2}) / (L_{3/2} + M_{3/2}),
#   Var Jz = -g (L_{1/2} + M_{1/2}) / 4,
#   Var Jx = <Jz> coth(H / 2T) / 2 with <Jz> = P <N> / 2 (Var Jz at H = 0).
CONTINUUM_POLYLOG_MOMENTS = {  # (T, H): (<N>, P, Var Jx, Var Jz)
    (0.3, 0.0): (1.4926234083307153, 0.0, 0.143448851383221, 0.143448851383221),
    (0.3, 0.4): (
        1.5147045407081876,
        0.25202916110023976,
        0.16376153324181064,
        0.14257250976912542,
    ),
    (1.0, 0.9): (
        2.8724377451538547,
        0.285293033530573,
        0.4855939856133654,
        0.45562292832493617,
    ),
    (0.05, 0.2): (
        1.3424738595506887,
        0.14876059554942925,
        0.051789807414170434,
        0.02494214615901577,
    ),
    (2.0, 1e-3): (
        5.601469463343011,
        0.0001807310475441934,
        1.0123594649876149,
        1.012359445622158,
    ),
}


@pytest.mark.parametrize("t, h", sorted(CONTINUUM_POLYLOG_MOMENTS))
def test_continuum_moments_match_polylogs(t, h):
    mean_n, p, var_jx, var_jz = CONTINUUM_POLYLOG_MOMENTS[t, h]
    params = GasParameters.fermi(t, mu=1.0, field=h)
    sums = spin_sums(*build_occupation_table(FreeSpaceContinuum(), params), -1.0)
    moments = collective_variances(sums)
    assert sums.polarization == pytest.approx(p, rel=0.0, abs=1e-13)
    for got, want in (
        (moments.mean_n, mean_n),
        (moments.var_jx, var_jx),
        (moments.var_jz, var_jz),
    ):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


# Thomas-Fermi limit of the trap (DOS e^2): xi^2 at P = 0 is
# 3 Li_2(-z) / (2 Li_3(-z)) with z = exp(1/T); its root, from 30-digit mpmath
TRAP_THOMAS_FERMI_T_STAR = 0.3645975200230655


def test_trap_threshold_converges_to_thomas_fermi_root():
    # the shell sum's T*(0) approaches the Thomas-Fermi root as
    # (homega / mu)^2, so Richardson extrapolation of the two finest traps
    # removes the leading error
    t_star = {
        r: find_threshold(HarmonicTrap(level_spacing=1.0 / r), 0.0)
        for r in (60, 120, 240)
    }
    for r, t in t_star.items():
        assert (TRAP_THOMAS_FERMI_T_STAR - t) * r**2 == pytest.approx(0.1537, abs=5e-4)
    extrapolated = (4.0 * t_star[240] - t_star[120]) / 3.0
    assert abs(extrapolated - TRAP_THOMAS_FERMI_T_STAR) < 1e-8


def test_threshold_needs_sign_change():
    with pytest.raises(BracketError):
        find_threshold(FreeSpaceContinuum(), 0.0, t_bracket=(0.05, 0.1))
