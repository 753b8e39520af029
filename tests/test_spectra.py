import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singletgas import spectra
from singletgas.spectra import (
    GRID_ENERGY_UNIT,
    DomainError,
    FreeSpaceContinuum,
    FreeSpaceGrid,
    HarmonicTrap,
    enumerate_levels,
    lattice_dispersion,
)


def test_trap_shell_degeneracies():
    # cold gas: shells up to the floor 2 mu / spacing = 2
    energies, weights = enumerate_levels(HarmonicTrap(level_spacing=1.0), 0.01)
    assert energies.tolist() == [1.5, 2.5, 3.5]
    assert weights.tolist() == [1.0, 3.0, 6.0]


def test_trap_degeneracy_formula():
    _, weights = enumerate_levels(HarmonicTrap(level_spacing=0.5), 0.01, mu=5.0)
    n = np.arange(21)
    assert np.array_equal(weights, (n + 1) * (n + 2) / 2)


def test_trap_shell_count_capped_before_any_array(monkeypatch):
    # the cold trap of test_trap_shell_degeneracies holds 3 shells: a cap of
    # 3 passes, a cap of 2 refuses it before numpy is reached
    model = HarmonicTrap(level_spacing=1.0)
    monkeypatch.setattr(spectra, "MAX_LEVELS", 3)
    assert len(enumerate_levels(model, 0.01)[0]) == 3
    monkeypatch.setattr(spectra, "MAX_LEVELS", 2)
    monkeypatch.setattr(spectra, "np", None)
    with pytest.raises(DomainError, match="trap needs over 2 shells, up to n = 2$"):
        enumerate_levels(model, 0.01)


def test_grid_size_capped_before_any_array(monkeypatch):
    # half-width 2: n^2 in 0..3 w^2, so 13 values
    monkeypatch.setattr(spectra, "MAX_LEVELS", 13)
    enumerate_levels(FreeSpaceGrid(half_width=2), 0.5)
    monkeypatch.setattr(spectra, "MAX_LEVELS", 12)
    monkeypatch.setattr(spectra, "np", None)
    with pytest.raises(DomainError, match="half-width 2 needs over 12 shells"):
        enumerate_levels(FreeSpaceGrid(half_width=2), 0.5)


@pytest.mark.parametrize(
    "spacing, temperature", [(1.0 / 30.0, 1e6), (1e-300, 0.1), (5e-324, 0.1)]
)
def test_huge_traps_refused_at_the_real_cap(monkeypatch, spacing, temperature):
    # 8.3e8 shells at T = 1e6 (mu / spacing = 30), over 2e300 at mu / spacing =
    # 1e300, and an infinite count at the smallest spacing; numpy is
    # unreachable, so a missing guard fails here instead of allocating
    monkeypatch.setattr(spectra, "np", None)
    with pytest.raises(DomainError, match="trap needs over 16777216 shells"):
        enumerate_levels(HarmonicTrap(level_spacing=spacing), temperature)


def momentum_grid(size):
    k = 2.0 * np.pi * np.arange(size) / size
    return np.meshgrid(k, k, indexing="ij")


def test_lattice_l2_energies():
    energies = lattice_dispersion(momentum_grid(2))
    assert sorted(energies.ravel().tolist()) == [-4.0, 0.0, 0.0, 4.0]


@pytest.mark.parametrize(
    "k,expected",
    [((0.0, 0.0), -4.0), ((np.pi, np.pi), 4.0), ((np.pi / 2, np.pi / 2), 0.0)],
)
def test_lattice_dispersion_points(k, expected):
    assert lattice_dispersion(k) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("w", [1, 6, 15])
def test_grid_shells_match_state_cube(w):
    # brute force: every state of the (2w)^3 cube, grouped by energy
    model = FreeSpaceGrid(half_width=w)
    n = np.arange(-w, w)
    nx, ny, nz = np.meshgrid(n, n, n, indexing="ij")
    shells, counts = np.unique((nx**2 + ny**2 + nz**2).ravel(), return_counts=True)
    energies, weights = enumerate_levels(model, 0.5)
    assert np.array_equal(energies, GRID_ENERGY_UNIT * shells)
    assert np.array_equal(weights, counts)
    assert weights.sum() == (2 * w) ** 3
    assert np.all(np.diff(energies) > 0)
    if w == 15:
        assert len(energies) == 402


def test_grid_energy_scale():
    energies, _ = enumerate_levels(FreeSpaceGrid(half_width=15), 0.5)
    assert energies[0] == 0.0
    # band edge: (-15, -15, -15)
    assert energies[-1] == pytest.approx(3 * 225 / 30)


@pytest.mark.parametrize("size", [4, 8, 16])
def test_lattice_particle_hole_symmetry(size):
    energies = lattice_dispersion(momentum_grid(size)).ravel()
    assert abs(energies.sum()) < 1e-10
    assert np.allclose(np.sort(energies), -np.sort(-energies)[::-1])


def test_continuum_weights_positive_and_boundary_at_fermi_edge():
    # cutoff mu + 40 T = 9, panels [0, 1], [1, 5], [5, 9]
    energies, weights = enumerate_levels(FreeSpaceContinuum(), 0.2)
    assert np.all(weights[energies > 0] > 0)
    assert len(energies) == 3 * 32
    assert np.count_nonzero(energies < 1.0) == 32
    assert np.all(energies < 9.0)


def test_continuum_quadrature_integrates_dos():
    # weights embed the sqrt(e) density of states; the branch point at
    # e = 0 limits Gauss-Legendre to algebraic convergence there
    # cutoff mu + 40 T = 4, panel boundaries at 1, 2 and 3
    energies, weights = enumerate_levels(FreeSpaceContinuum(), 0.05, mu=2.0)
    assert weights.sum() == pytest.approx(2 / 3 * 4.0**1.5, rel=1e-5)
    assert np.sum(weights * energies) == pytest.approx(2 / 5 * 4.0**2.5, rel=1e-5)


def test_trap_state_count_asymptotics():
    # cumulative count below E approaches E^3 / (6 hw^3)
    energies, weights = enumerate_levels(HarmonicTrap(level_spacing=1.0), 0.01, mu=20.0)
    assert len(energies) == 41
    count = weights[energies <= 30.0].sum()
    assert abs(count / (30.0**3 / 6.0) - 1.0) < 0.05


def test_trap_cutoff_follows_temperature():
    cold, _ = enumerate_levels(HarmonicTrap(level_spacing=1 / 30), 0.1)
    assert len(cold) >= 61  # hard floor 2 mu / hw = 60
    hot, _ = enumerate_levels(HarmonicTrap(level_spacing=1 / 30), 1.0)
    assert len(hot) > len(cold)
    # at T = mu = 1 the last shell is the first with occupation <= 1e-12
    tail = np.exp(-(hot[-2:] - 1.0))
    assert tail[0] > 1e-12 >= tail[1]


def test_continuum_window_follows_point():
    energies, weights = enumerate_levels(FreeSpaceContinuum(), 0.5, field=1.0)
    # cutoff mu + |H|/2 + 40 T = 21.5; spin Fermi edges at 0.5 and 1.5
    # and 20 T above them at 10.5 and 11.5 split it into five panels
    assert len(energies) == 5 * 32
    assert np.count_nonzero(energies < 0.5) == 32
    assert np.count_nonzero(energies < 1.5) == 64
    assert np.count_nonzero(energies < 10.5) == 96
    assert weights.sum() == pytest.approx(2 / 3 * 21.5**1.5, rel=1e-4)


@settings(max_examples=200, deadline=None)
@given(exponent=st.floats(204.0, 206.5), h_over_t=st.floats(0.0, 20.0))
def test_continuum_weights_refused_exactly_where_they_overflow(exponent, h_over_t):
    # T, mu and H scaled by 2^-256 scale every weight by 2^-384 exactly, so
    # the scaled weights reach 2^640 just where the true ones would overflow
    t, s = 10.0**exponent, 2.0**-256
    _, scaled = enumerate_levels(FreeSpaceContinuum(), t * s, mu=s, field=h_over_t * t * s)
    try:
        _, weights = enumerate_levels(FreeSpaceContinuum(), t, field=h_over_t * t)
    except DomainError as err:
        assert "continuum quadrature weight overflows" in str(err)
        assert scaled.max() >= 2.0**640
    else:
        assert scaled.max() < 2.0**640
        assert np.array_equal(weights * 2.0**-384, scaled)


@pytest.mark.parametrize("temperature", [4.5e306, 1e308])
def test_continuum_infinite_cutoff_refused(temperature):
    # 40 T overflows to +inf; refused before any panel is built
    with pytest.raises(DomainError, match="continuum cutoff must be positive and finite"):
        enumerate_levels(FreeSpaceContinuum(), temperature)


def test_deterministic_ordering():
    a = enumerate_levels(FreeSpaceGrid(half_width=6), 0.5)
    b = enumerate_levels(FreeSpaceGrid(half_width=6), 0.5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize(
    "model",
    [
        HarmonicTrap(level_spacing=1.0),
        HarmonicTrap(level_spacing=-0.5),
        FreeSpaceGrid(half_width=0),
        HarmonicTrap(level_spacing=0.0),
        FreeSpaceContinuum(),
        object(),
    ],
)
def test_invalid_models_rejected(model):
    # a cold Fermi sea at mu = -5 is empty: the trap shell cutoff and the
    # continuum window come out negative; what is no spectrum model is a
    # TypeError
    error = TypeError if type(model) is object else ValueError
    with pytest.raises(error):
        enumerate_levels(model, 0.01, mu=-5.0)


@given(
    kx=st.floats(-np.pi, np.pi, exclude_max=True),
    ky=st.floats(-np.pi, np.pi, exclude_max=True),
)
def test_dispersion_bounded_and_inversion_symmetric(kx, ky):
    e = lattice_dispersion((kx, ky))
    assert -4.0 <= e <= 4.0
    assert lattice_dispersion((-kx, -ky)) == pytest.approx(e, abs=1e-12)
