import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singletgas import occupancy, spinmoments
from singletgas.occupancy import (
    EXP_GUARD,
    P_TOLERANCE,
    SPIN_DOWN,
    SPIN_UP,
    SPINS,
    DegenerateInputError,
    DomainError,
    GasParameters,
    NoConvergence,
    build_occupation_table,
    occupation,
    solve_field_for_polarization,
    spin_moments,
)
from singletgas.spectra import (
    FreeSpaceContinuum,
    FreeSpaceGrid,
    HarmonicTrap,
    band_bottom,
)


def test_fermi_midpoint():
    params = GasParameters.fermi(temperature=1.0, mu=1.0)
    assert occupation(1.0, params) == pytest.approx(0.5)


def test_fermi_filled_sea():
    params = GasParameters.fermi(temperature=1e-9, mu=1.0)
    assert occupation(0.5, params) == 1.0
    assert occupation(1.5, params) == 0.0


def test_bose_trivial_value():
    # beta (e - mu) = ln 2  ->  n = 1
    params = GasParameters("bose", temperature=1.0, mu=0.0)
    assert occupation(math.log(2.0), params) == pytest.approx(1.0)


def test_bose_nonpositive_argument_rejected():
    params = GasParameters("bose", temperature=1.0, mu=0.5)
    with pytest.raises(DomainError):
        occupation(0.5, params)
    with pytest.raises(DomainError):
        occupation(0.2, params)


@pytest.mark.parametrize(
    "model",
    [FreeSpaceContinuum(), FreeSpaceGrid(half_width=4), HarmonicTrap()],
    ids=["continuum", "grid", "trap"],
)
def test_bose_explicit_mu_above_band_bottom_rejected(model):
    # an explicit mu skips the fugacity guard; the occupation kernel rejects it
    params = GasParameters("bose", temperature=1.0, mu=band_bottom(model) + 0.1)
    with pytest.raises(DomainError):
        build_occupation_table(model, params)


@pytest.mark.parametrize("t, z", [(0.002, 0.999), (0.005, 0.99), (0.01, 0.9)])
def test_bose_trap_cutoff_counts_from_the_band_bottom(t, z):
    # the fugacity's mu sits just under the bottom 1.5 spacings, and the shell
    # cutoff counted from that mu keeps the last shell below 1e-12
    model = HarmonicTrap(level_spacing=1 / 30)
    params = GasParameters.bose(model, temperature=t, fugacity=z)
    table = build_occupation_table(model, params)
    assert table[1][:, -1].max() <= 1e-12


def test_bose_fugacity_guard():
    with pytest.raises(DomainError):
        GasParameters.bose(FreeSpaceContinuum(), 1.0, fugacity=0.5, field=2.0)


@pytest.mark.parametrize("fugacity", [0.0, -0.5, math.nan])
def test_bose_nonpositive_fugacity_rejected(fugacity):
    with pytest.raises(DomainError, match="fugacity must be positive"):
        GasParameters.bose(FreeSpaceContinuum(), temperature=1.0, fugacity=fugacity)


def test_unknown_statistics_rejected():
    with pytest.raises(ValueError, match="unknown statistics"):
        GasParameters("boltzmann", 1.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["temperature", "mu", "field"])
def test_non_finite_point_rejected(name, value):
    # a NaN passes every ordered comparison, so without the finiteness check
    # it reaches the moments (NaN) or the trap's shell count (a bare ValueError)
    point = {"temperature": 0.3, "mu": 1.0, "field": 0.1, name: value}
    with pytest.raises(DomainError, match="must be finite"):
        GasParameters("fermi", **point)
    if name == "temperature":
        with pytest.raises(DomainError, match="must be finite"):
            spinmoments.moments_at(FreeSpaceGrid(half_width=4), value, 0.3)


@pytest.mark.parametrize(
    "z,expected",
    # Gamma(3/2) Li_{3/2}(z), from 30-digit mpmath
    [(0.5, 0.5537473918702932), (0.8, 1.1153789508215015), (0.95, 1.669790960658655)],
)
def test_bose_continuum_number_matches_polylog(z, expected):
    # N_up = int_0^inf sqrt(e) de / (exp(e / T) / z - 1)
    #      = Gamma(3/2) T^{3/2} Li_{3/2}(z), with the DOS prefactor set to 1
    params = GasParameters.bose(FreeSpaceContinuum(), temperature=1.0, fugacity=z)
    table = build_occupation_table(FreeSpaceContinuum(), params)
    moments = spin_moments(*table, params.eta)
    assert moments.mean_n / 2 == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize(
    "t,expected",
    # Gamma(3/2) T^{3/2} (-Li_{3/2}(-e^{1/T})), from 30-digit mpmath
    [
        (0.05, 0.6687273818620263),
        (0.3, 0.7463117041653576),
        (1.0, 1.3963752806665641),
        (2.0, 2.8007346982338297),
    ],
)
def test_fermi_continuum_number_matches_polylog(t, expected):
    # N_up = int_0^inf sqrt(e) de / (exp((e - mu) / T) + 1) at mu = 1
    params = GasParameters.fermi(temperature=t, mu=1.0)
    table = build_occupation_table(FreeSpaceContinuum(), params)
    moments = spin_moments(*table, params.eta)
    assert moments.mean_n / 2 == pytest.approx(expected, rel=1e-10)


def test_saturation_guards():
    params = GasParameters.fermi(temperature=1e-4, mu=0.0)
    assert occupation(1000.0, params) == 0.0
    assert occupation(-1000.0, params) == 1.0
    bose = GasParameters("bose", temperature=1e-4, mu=-1.0)
    assert occupation(1000.0, bose) == 0.0


def test_occupation_at_the_exp_guard_is_not_cut():
    # the guard itself still lies in the exp range: only x > EXP_GUARD is 0
    fermi = GasParameters.fermi(temperature=1.0, mu=0.0)
    assert occupation(EXP_GUARD, fermi) == 1.0 / (math.exp(EXP_GUARD) + 1.0) > 0.0
    bose = GasParameters("bose", temperature=1.0, mu=0.0)
    assert occupation(EXP_GUARD, bose) == 1.0 / math.expm1(EXP_GUARD) > 0.0


def masked_occupation(energy, params, sigma=SPIN_UP):
    """Reference: the occupation kernel with one mask per saturation regime."""
    x = np.asarray(
        (np.asarray(energy, dtype=float) - sigma * params.field - params.mu)
        / params.temperature
    )
    if params.statistics == "bose":
        if np.any(x <= 0):
            raise DomainError("Bose occupation argument <= 0")
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


def kernel_outcome(kernel, energy, params, sigma):
    """The result's type, shape and bytes, or the type of what it raised."""
    try:
        out = kernel(energy, params, sigma)
    except (DomainError, RuntimeWarning) as err:
        return type(err)
    return type(out), np.shape(out), np.asarray(out).tobytes()


# the saturation edges, one ulp either side of them, and both infinities
EXPONENT_EDGES = [
    x
    for guard in (EXP_GUARD, -EXP_GUARD)
    for x in (guard, math.nextafter(guard, math.inf), math.nextafter(guard, -math.inf))
] + [math.inf, -math.inf]


@settings(max_examples=300)
@given(
    statistics=st.sampled_from(["fermi", "bose"]),
    shape=st.sampled_from(["scalar", "1-D", "(2, k)"]),
    # (T, mu, H) = (1, 0, 0) makes the exponent the energy itself
    point=st.one_of(
        st.just((1.0, 0.0, 0.0)),
        st.tuples(st.floats(1e-3, 10.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    ),
    energies=st.lists(
        st.one_of(st.sampled_from(EXPONENT_EDGES), st.floats(-800.0, 800.0)),
        min_size=1,
        max_size=12,
    ),
)
def test_occupation_matches_masked_reference(statistics, shape, point, energies):
    t, mu, h = point
    params = GasParameters(statistics, t, mu=mu, field=h)
    if shape == "scalar":
        cases = [(energies[0], SPIN_UP), (energies[0], SPIN_DOWN)]
    elif shape == "1-D":
        cases = [(np.array(energies), SPIN_UP)]
    else:
        cases = [(np.array(energies), SPINS)]
    for energy, sigma in cases:
        assert kernel_outcome(occupation, energy, params, sigma) == kernel_outcome(
            masked_occupation, energy, params, sigma
        )


@given(delta=st.floats(0.0, 50.0), t=st.floats(0.05, 5.0))
def test_fermi_particle_hole_relation(delta, t):
    params = GasParameters.fermi(temperature=t, mu=1.0)
    total = occupation(1.0 + delta, params) + occupation(1.0 - delta, params)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sharp_trap_step():
    params = GasParameters.fermi(temperature=0.01, mu=2.0)
    table = build_occupation_table(HarmonicTrap(level_spacing=1.0), params)
    assert len(table[0]) == 5  # shells up to 2 mu / spacing
    assert table[1][0, 0] == pytest.approx(1.0, abs=1e-12)
    assert table[1][0, 1] < 1e-20
    assert np.array_equal(table[1][0], table[1][1])


def test_balanced_columns_equal_without_field():
    params = GasParameters.fermi(temperature=0.4, mu=1.0)
    table = build_occupation_table(FreeSpaceGrid(half_width=8), params)
    assert np.array_equal(table[1][0], table[1][1])
    assert spin_moments(*table, params.eta).polarization == 0.0


def test_sommerfeld_number_ratio():
    # oracle: <N>(T)/<N>(0) = 1 + pi^2/8 (T/mu)^2 + O(T^4); exact T=0
    # number is 2 * (2/3) mu^(3/2) for the unit-normalized sqrt(e) DOS
    params = GasParameters.fermi(temperature=0.2, mu=1.0)
    table = build_occupation_table(FreeSpaceContinuum(), params)
    ratio = spin_moments(*table, params.eta).mean_n / (4.0 / 3.0)
    assert ratio > 1.0
    assert ratio == pytest.approx(1.0 + np.pi**2 / 8 * 0.04, abs=5e-3)


def test_trap_particle_number_matches_low_t_scale():
    params = GasParameters.fermi(temperature=0.02, mu=1.0)
    table = build_occupation_table(HarmonicTrap(level_spacing=1 / 30), params)
    assert 0.9e4 <= spin_moments(*table, params.eta).mean_n <= 2e4


def test_total_number_rejects_empty_gas():
    with pytest.raises(DegenerateInputError):
        spin_moments(np.ones(2), np.zeros((2, 2)), -1.0)


@pytest.mark.parametrize("eta", [-1.0, 1.0])
def test_spin_sums_match_level_by_level_sums(eta):
    weights = [1.0, 3.0, 6.0]
    up, down = [0.9, 0.4, 0.05], [0.7, 0.2, 0.01]
    moments = spin_moments(np.array(weights), np.array([up, down]), eta)
    n_up = math.fsum(w * n for w, n in zip(weights, up))
    n_down = math.fsum(w * n for w, n in zip(weights, down))
    assert moments.mean_n == pytest.approx(n_up + n_down, rel=1e-15)
    assert moments.mean_jz == pytest.approx((n_up - n_down) / 2, rel=1e-15)
    p = (n_up - n_down) / (n_up + n_down)
    assert moments.polarization == pytest.approx(p, rel=1e-14)
    f_up, f_down = (
        math.fsum(w * n * (1.0 + eta * n) for w, n in zip(weights, ns))
        for ns in (up, down)
    )
    assert moments.var_jz == pytest.approx((f_up + f_down) / 4, rel=1e-15)
    assert moments.cov_njz == pytest.approx((f_up - f_down) / 2, rel=1e-15)
    exchange = eta * math.fsum(w * u * d for w, u, d in zip(weights, up, down))
    var_jx = (n_up + n_down) / 4 + exchange / 2
    assert moments.var_jx == pytest.approx(var_jx, rel=1e-15)


@st.composite
def padded_tables(draw):
    """(tables, stacked): 1-5 tables of 1-6 levels and the (2, tables, 6)
    table holding them, each padded with weight-0 levels of any occupation."""
    count = draw(st.integers(1, 5))
    weights, n = np.zeros((count, 6)), np.empty((2, count, 6))
    tables = []
    for i in range(count):
        levels = draw(st.integers(1, 6))
        w = draw(st.lists(st.floats(0.5, 20.0), min_size=levels, max_size=levels))
        weights[i, :levels] = w
        for spin in range(2):
            n[spin, i] = draw(st.lists(st.floats(1e-6, 1.0), min_size=6, max_size=6))
        alone = n[:, i, :levels].copy()
        tables.append((np.array(w), alone))
    return tables, (weights, n)


@settings(max_examples=60, deadline=None)
@given(batch=padded_tables(), eta=st.sampled_from([-1.0, 1.0]))
def test_stacked_spin_sums_match_each_table_bitwise(batch, eta):
    # the weight-0 padding adds exact zeros at each row's end, so every
    # field of every table comes out bit for bit as when summed alone
    tables, stacked = batch
    for i, alone in enumerate(tables):
        row = [float(field[i]).hex() for field in spin_moments(*stacked, eta)]
        assert row == [float(field).hex() for field in spin_moments(*alone, eta)]


def test_stacked_spin_sums_reject_one_empty_table():
    n = np.array([[[0.5, 0.2], [0.0, 0.0]], [[0.4, 0.1], [0.0, 0.0]]])
    with pytest.raises(DegenerateInputError):
        spin_moments(np.ones((2, 2)), n, -1.0)


def test_spin_sums_reject_bad_statistics_sign():
    for eta in (0.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            spin_moments(np.ones(1), np.full((2, 1), 0.5), eta)


def test_polarized_limit():
    # field so large the down branch is empty
    params = GasParameters.fermi(temperature=0.05, mu=1.0, field=30.0)
    table = build_occupation_table(HarmonicTrap(level_spacing=1.0), params)
    assert table[1][1, 0] < 1e-100  # lowest down level e + H/2 = 16.5, mu = 1
    moments = spin_moments(*table, params.eta)
    assert moments.polarization == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "model",
    [FreeSpaceContinuum(), FreeSpaceGrid(half_width=8), HarmonicTrap(level_spacing=0.1)],
    ids=["continuum", "grid", "trap"],
)
def test_field_reversal_swaps_spins(model):
    def numbers(field):
        params = GasParameters.fermi(temperature=0.02, mu=1.0, field=field)
        return spin_moments(*build_occupation_table(model, params), params.eta)

    up, down = numbers(2.0), numbers(-2.0)
    assert down.mean_n == pytest.approx(up.mean_n, rel=1e-12)
    assert down.polarization == pytest.approx(-up.polarization, rel=1e-12)


def test_polarization_monotone_in_field():
    params = GasParameters.fermi(temperature=0.2, mu=1.0)
    model = FreeSpaceContinuum()
    ladder = [
        occupancy.polarization_at(model, params, h)[0].polarization
        for h in np.linspace(0, 4, 9)
    ]
    assert ladder[0] == 0.0
    assert all(b >= a for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] > 0.9


def test_solve_field_trivial_and_monotone():
    params = GasParameters.fermi(temperature=0.01, mu=1.0)
    model = FreeSpaceContinuum()
    h_zero, moments = solve_field_for_polarization(model, params, 0.0)
    assert h_zero == 0.0 and moments.polarization == 0.0
    h_half, _ = solve_field_for_polarization(model, params, 0.5)
    h_high, _ = solve_field_for_polarization(model, params, 0.999)
    assert h_high > h_half > 0.0


def test_solve_field_agrees_with_dense_scan():
    # oracle: interpolate P(H) on a dense 10^4-point field grid
    params = GasParameters.fermi(temperature=0.2, mu=1.0)
    model = FreeSpaceContinuum()
    h, _ = solve_field_for_polarization(model, params, 0.5)
    grid = np.linspace(0.0, 2.0, 10001)
    p_of_h = [occupancy.polarization_at(model, params, x)[0].polarization for x in grid]
    assert h == pytest.approx(np.interp(0.5, p_of_h, grid), abs=1e-6)


@pytest.mark.parametrize(
    "model",
    [FreeSpaceContinuum(), FreeSpaceGrid(), HarmonicTrap()],
    ids=["continuum", "grid", "trap"],
)
def test_solve_field_evaluation_count(model, monkeypatch):
    # P evaluations per solve.  Newton from 2T artanh(P) measured 3-6 (mean
    # 4.6 continuum, 4.6 grid, 4.3 trap); the Illinois search it replaced
    # took 5-14 (mean 8.7-8.9) and a bisection 19-33
    evals = []
    polarization_at = occupancy.polarization_at

    def counted(*args):
        evals.append(args)
        return polarization_at(*args)

    monkeypatch.setattr(occupancy, "polarization_at", counted)
    counts = []
    for t in (0.05, 0.3, 1.0):
        for p in (0.1, 0.5, 0.9):
            params = GasParameters.fermi(temperature=t)
            evals.clear()
            h, moments = solve_field_for_polarization(model, params, p)
            counts.append(len(evals))
            assert abs(polarization_at(model, params, h)[0].polarization - p) < P_TOLERANCE
            assert abs(moments.polarization - p) < P_TOLERANCE
    assert np.mean(counts) <= 5.0


def slope_and_central_difference(model, params, h, step=1e-5):
    def p_of(field):
        return occupancy.polarization_at(model, params, field)[0].polarization

    central = (p_of(h + step) - p_of(h - step)) / (2.0 * step)
    return occupancy.polarization_at(model, params, h)[1], central


@pytest.mark.parametrize(
    "model,rel",
    # the continuum's panel edges move with H, which the fixed-level slope
    # leaves out (measured 3.7e-6 at worst); grid and trap levels stay put
    # (measured 1.3e-10 and 4.7e-10)
    [(FreeSpaceContinuum(), 1e-5), (FreeSpaceGrid(), 1e-8), (HarmonicTrap(), 1e-8)],
    ids=["continuum", "grid", "trap"],
)
@pytest.mark.parametrize("t", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("h", [0.05, 0.5, 1.5])
def test_polarization_slope_matches_central_difference(model, rel, t, h):
    params = GasParameters.fermi(temperature=t)
    slope, central = slope_and_central_difference(model, params, h)
    assert slope == pytest.approx(central, rel=rel)


def fake_polarization(monkeypatch, p_of, slope_of):
    """Replace P(H) and its slope; returns the list of evaluated fields."""
    fields = []

    def fake(model, params, field):
        fields.append(field)
        return SimpleNamespace(polarization=p_of(field)), slope_of(field)

    monkeypatch.setattr(occupancy, "polarization_at", fake)
    return fields


def test_solve_field_falls_back_when_slope_misleads(monkeypatch):
    # a negative slope sends every Newton step out of the bracket: H doubles
    # from 2T artanh(P*) until P > P*, then the bracket is bisected
    fields = fake_polarization(monkeypatch, lambda h: math.tanh(h / 10.0), lambda h: -1.0)
    params = GasParameters.fermi(temperature=1.0)
    h, _ = solve_field_for_polarization(FreeSpaceGrid(), params, 0.5)
    h0 = 2.0 * math.atanh(0.5)
    assert fields[:4] == [h0, 2.0 * h0, 4.0 * h0, 8.0 * h0]
    assert fields[4] == 6.0 * h0  # midpoint of [4 h0, 8 h0]
    assert abs(math.tanh(h / 10.0) - 0.5) < P_TOLERANCE


def test_solve_field_open_bracket_growth_is_bounded(monkeypatch):
    # a tiny positive slope asks for a step of ~1e14; until P > P* closes the
    # bracket, each evaluated field is at most OPEN_BRACKET_GROWTH times the
    # one before, so the first field past the root is within that factor of it
    fields = fake_polarization(monkeypatch, lambda h: math.tanh(h / 10.0), lambda h: 1e-15)
    params = GasParameters.fermi(temperature=1.0)
    h, _ = solve_field_for_polarization(FreeSpaceGrid(), params, 0.5)
    closed = next(i for i, x in enumerate(fields) if math.tanh(x / 10.0) > 0.5)
    growth = occupancy.OPEN_BRACKET_GROWTH
    assert closed > 0
    assert all(b <= growth * a for a, b in zip(fields[:closed], fields[1 : closed + 1]))
    assert fields[closed] <= growth * h
    assert abs(math.tanh(h / 10.0) - 0.5) < P_TOLERANCE


def test_solve_field_warm_start_at_root_takes_one_evaluation(monkeypatch):
    model, params = HarmonicTrap(), GasParameters.fermi(temperature=0.3)
    h_root, _ = solve_field_for_polarization(model, params, 0.5)
    fields = []
    polarization_at = occupancy.polarization_at

    def counted(*args):
        fields.append(args[2])
        return polarization_at(*args)

    monkeypatch.setattr(occupancy, "polarization_at", counted)
    h, moments = solve_field_for_polarization(model, params, 0.5, start=h_root)
    assert fields == [h_root] and h == h_root
    assert abs(moments.polarization - 0.5) < P_TOLERANCE


@pytest.mark.parametrize(
    "model",
    [FreeSpaceContinuum(), FreeSpaceGrid(), HarmonicTrap()],
    ids=["continuum", "grid", "trap"],
)
def test_solve_field_zero_target_is_one_evaluation_at_zero_field(model, monkeypatch):
    # the cold start 2T artanh(0) is H = 0, where both spin rows are equal
    # and P = 0 exactly, so the first evaluation ends the solve
    params = GasParameters.fermi(temperature=0.3)
    fields = []
    polarization_at = occupancy.polarization_at

    def counted(*args):
        fields.append(args[2])
        return polarization_at(*args)

    monkeypatch.setattr(occupancy, "polarization_at", counted)
    h, moments = solve_field_for_polarization(model, params, 0.0)
    assert fields == [0.0] and h == 0.0 and moments.polarization == 0.0
    table = build_occupation_table(model, replace(params, field=0.0))
    want = spin_moments(*table, -1.0)
    assert [float(x).hex() for x in moments] == [float(x).hex() for x in want]


def test_solve_field_zero_target_follows_a_positive_start():
    params = GasParameters.fermi(temperature=0.3)
    h, moments = solve_field_for_polarization(HarmonicTrap(), params, 0.0, start=0.4)
    assert 0.0 <= h < 0.4 and abs(moments.polarization) < P_TOLERANCE


@pytest.mark.parametrize("start", [None, math.nan, 0.0, -0.3, math.inf])
def test_solve_field_rejected_start_falls_back_to_cold_start(start, monkeypatch):
    fields = fake_polarization(monkeypatch, lambda h: math.tanh(h / 10.0), lambda h: 0.1)
    params = GasParameters.fermi(temperature=1.0)
    h, _ = solve_field_for_polarization(FreeSpaceGrid(), params, 0.5, start=start)
    assert fields[0] == 2.0 * math.atanh(0.5)
    assert abs(math.tanh(h / 10.0) - 0.5) < P_TOLERANCE


def test_solve_field_degenerate_trap_converges():
    # mu = 1 = 30 spacings sits halfway between two shells, so at T = 5e-4
    # the slope at 2T artanh(P*) is ~exp(-33); the search must still find H
    params = GasParameters.fermi(temperature=5e-4)
    h, moments = solve_field_for_polarization(HarmonicTrap(), params, 0.5)
    assert abs(moments.polarization - 0.5) < P_TOLERANCE
    assert 0.0 < h < 1.0


def test_solve_field_step_polarization_raises_no_convergence(monkeypatch):
    # a step in P(H) has slope 0 on both sides: bisection closes in on the
    # jump, but |P - P*| never drops below P_TOLERANCE
    fields = fake_polarization(monkeypatch, lambda h: 0.0 if h < 0.3 else 0.9, lambda h: 0.0)
    params = GasParameters.fermi(temperature=1.0)
    with pytest.raises(NoConvergence):
        solve_field_for_polarization(FreeSpaceGrid(), params, 0.5)
    assert len(fields) == occupancy.MAX_ITERATIONS
    assert abs(fields[-1] - 0.3) < 1e-12


def test_bracketed_root_exact_secant_step():
    evals = []

    def f(x):
        evals.append(x)
        return x - 1.0

    assert spinmoments._bracketed_root(f, 0.0, 2.0, -1.0, 1.0) == 1.0
    assert evals == [1.0]


def step_at_0_3(x):
    return -1.0 if x < 0.3 else 1.0


def test_bracketed_root_step_converges_to_jump():
    x = spinmoments._bracketed_root(step_at_0_3, 0.0, 1.0, -1.0, 1.0, xtol=1e-9)
    assert abs(x - 0.3) < 1e-9


def test_bracketed_root_step_never_meets_ftol():
    # |f| = 1 everywhere, so f never reaches 0; with xtol = 0 nothing stops
    # the search before MAX_ITERATIONS
    with pytest.raises(NoConvergence):
        spinmoments._bracketed_root(step_at_0_3, 0.0, 1.0, -1.0, 1.0, xtol=0.0)


def test_solve_field_rejects_bose_and_bad_target():
    params = GasParameters.bose(FreeSpaceContinuum(), temperature=1.0, fugacity=0.5)
    with pytest.raises(ValueError):
        solve_field_for_polarization(FreeSpaceContinuum(), params, 0.5)
    fermi = GasParameters.fermi(temperature=0.2)
    with pytest.raises(DomainError):
        solve_field_for_polarization(FreeSpaceContinuum(), fermi, 1.0)


def test_build_table_is_deterministic():
    model = FreeSpaceGrid(half_width=6)
    params = GasParameters.bose(model, temperature=0.7, fugacity=0.6, field=0.1)
    a = build_occupation_table(model, params)
    b = build_occupation_table(model, params)
    assert np.array_equal(a[1], b[1])


@settings(max_examples=50)
@given(
    z=st.floats(0.05, 0.95),
    t=st.floats(0.1, 2.0),
)
def test_bose_occupations_positive_and_finite(z, t):
    h = 0.5 * t * math.log(1.0 / z)  # safely inside the fugacity guard
    model = HarmonicTrap(level_spacing=1 / 10)
    params = GasParameters.bose(model, temperature=t, fugacity=z, field=h)
    table = build_occupation_table(model, params)
    for col in table[1]:
        assert np.all(col > 0.0) and np.all(np.isfinite(col))
