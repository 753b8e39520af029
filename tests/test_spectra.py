import numpy as np
import pytest
from hypothesis import given, strategies as st

from singletgas import spectra
from singletgas.spectra import (
    FreeSpaceContinuum,
    FreeSpaceGrid,
    HarmonicTrap,
    enumerate_levels,
    lattice_dispersion,
    resolve_model,
)


def test_trap_shell_degeneracies():
    energies, weights = enumerate_levels(HarmonicTrap(level_spacing=1.0, n_max=2))
    assert energies.tolist() == [1.5, 2.5, 3.5]
    assert weights.tolist() == [1.0, 3.0, 6.0]


def test_trap_degeneracy_formula():
    _, weights = enumerate_levels(HarmonicTrap(level_spacing=0.5, n_max=20))
    n = np.arange(21)
    assert np.array_equal(weights, (n + 1) * (n + 2) / 2)


def momentum_grid(size):
    k = 2.0 * np.pi * np.arange(size) / size
    return np.meshgrid(k, k, indexing="ij")


def test_lattice_l2_energies():
    energies = lattice_dispersion(momentum_grid(2), 1.0)
    assert sorted(energies.ravel().tolist()) == [-4.0, 0.0, 0.0, 4.0]


@pytest.mark.parametrize(
    "k,expected",
    [((0.0, 0.0), -4.0), ((np.pi, np.pi), 4.0), ((np.pi / 2, np.pi / 2), 0.0)],
)
def test_lattice_dispersion_points(k, expected):
    assert lattice_dispersion(k, 1.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("w", [1, 6, 15])
def test_grid_shells_match_state_cube(w):
    # brute force: every state of the (2w)^3 cube, grouped by energy
    model = FreeSpaceGrid(half_width=w)
    n = np.arange(-w, w)
    nx, ny, nz = np.meshgrid(n, n, n, indexing="ij")
    shells, counts = np.unique((nx**2 + ny**2 + nz**2).ravel(), return_counts=True)
    energies, weights = enumerate_levels(model)
    assert np.array_equal(energies, model.energy_unit * shells)
    assert np.array_equal(weights, counts)
    assert weights.sum() == (2 * w) ** 3
    assert np.all(np.diff(energies) > 0)
    if w == 15:
        assert len(energies) == 402


def test_grid_energy_scale():
    energies, _ = enumerate_levels(FreeSpaceGrid(half_width=15, energy_unit=1 / 30))
    assert energies[0] == 0.0
    # band edge: (-15, -15, -15)
    assert energies[-1] == pytest.approx(3 * 225 / 30)


@pytest.mark.parametrize("size", [4, 8, 16])
def test_lattice_particle_hole_symmetry(size):
    energies = lattice_dispersion(momentum_grid(size), 1.0).ravel()
    assert abs(energies.sum()) < 1e-10
    assert np.allclose(np.sort(energies), -np.sort(-energies)[::-1])


def test_continuum_weights_positive_and_boundary_at_fermi_edge():
    model = FreeSpaceContinuum(energy_cutoff=9.0, order=32, breakpoints=(1.0,))
    energies, weights = enumerate_levels(model)
    assert np.all(weights[energies > 0] > 0)
    assert len(energies) >= 64
    assert np.all(energies < 9.0)


def test_continuum_quadrature_integrates_dos():
    # weights embed the sqrt(e) density of states; the branch point at
    # e = 0 limits Gauss-Legendre to algebraic convergence there
    model = FreeSpaceContinuum(energy_cutoff=4.0, order=48, breakpoints=(1.0,))
    energies, weights = enumerate_levels(model)
    assert weights.sum() == pytest.approx(2 / 3 * 4.0**1.5, rel=1e-4)
    assert np.sum(weights * energies) == pytest.approx(2 / 5 * 4.0**2.5, rel=1e-4)


def test_trap_state_count_asymptotics():
    # cumulative count below E approaches E^3 / (6 hw^3)
    energies, weights = enumerate_levels(HarmonicTrap(level_spacing=1.0, n_max=40))
    count = weights[energies <= 30.0].sum()
    assert abs(count / (30.0**3 / 6.0) - 1.0) < 0.05


def test_resolve_model_trap_cutoff():
    model = resolve_model(HarmonicTrap(level_spacing=1 / 30), temperature=0.1)
    assert model.n_max >= 60  # hard floor 2 mu / hw
    hot = resolve_model(HarmonicTrap(level_spacing=1 / 30), temperature=1.0)
    assert hot.n_max > model.n_max


def test_resolve_model_continuum_window():
    model = resolve_model(FreeSpaceContinuum(), temperature=0.5, field=1.0)
    assert model.energy_cutoff == pytest.approx(1.0 + 0.5 + 20.0)
    assert 0.5 in model.breakpoints and 1.5 in model.breakpoints


def test_deterministic_ordering():
    a = enumerate_levels(FreeSpaceGrid(half_width=6))
    b = enumerate_levels(FreeSpaceGrid(half_width=6))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize(
    "model",
    [
        HarmonicTrap(level_spacing=1.0, n_max=-1),
        HarmonicTrap(level_spacing=-0.5, n_max=3),
        FreeSpaceGrid(half_width=0),
        FreeSpaceGrid(energy_unit=0.0),
        FreeSpaceContinuum(energy_cutoff=-1.0),
    ],
)
def test_invalid_models_rejected(model):
    with pytest.raises(ValueError):
        enumerate_levels(model)


@given(
    kx=st.floats(-np.pi, np.pi, exclude_max=True),
    ky=st.floats(-np.pi, np.pi, exclude_max=True),
)
def test_dispersion_bounded_and_inversion_symmetric(kx, ky):
    e = lattice_dispersion((kx, ky), 1.0)
    assert -4.0 <= e <= 4.0
    assert lattice_dispersion((-kx, -ky), 1.0) == pytest.approx(e, abs=1e-12)
