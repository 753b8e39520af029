import numpy as np
import pytest

from singletgas import lattice, spectra
from singletgas.lattice import (
    first_order_correlation,
    momentum_occupations,
    qfi_staggered,
    spin_correlation_map,
    structure_factor,
)

TWO_OVER_PI_SQ = 2.0 / np.pi**2


def reference_momentum_sum(size, displacement):
    """Independent G(r): explicit momentum sum over the half-filled sea."""
    dx, dy = displacement
    total = 0.0
    for mx in range(size):
        for my in range(size):
            kx = 2.0 * np.pi * mx / size
            ky = 2.0 * np.pi * my / size
            e = -2.0 * (np.cos(kx) + np.cos(ky))
            if abs(e) < 1e-12:
                n = 0.5
            else:
                n = 1.0 if e < 0 else 0.0
            total += n * np.cos(kx * dx + ky * dy)
    return total / size**2


def test_half_filling_onsite_density():
    g = first_order_correlation(16)
    assert g[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_nearest_neighbor_thermodynamic_limit():
    # at L=512 the momentum sum has converged to 2/pi^2 to ~1e-6
    g = first_order_correlation(512)
    assert g[1, 0] == pytest.approx(TWO_OVER_PI_SQ, abs=5e-6)


def test_diagonal_neighbor_vanishes():
    g = first_order_correlation(64)
    assert abs(g[1, 1]) < 1e-10


def test_first_order_matches_reference_sum():
    g = first_order_correlation(8)
    for r in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        assert g[r] == pytest.approx(reference_momentum_sum(8, r), abs=1e-12)


def test_odd_size_rejected():
    with pytest.raises(ValueError):
        first_order_correlation(9)
    with pytest.raises(ValueError):
        first_order_correlation(0)
    with pytest.raises(ValueError):
        momentum_occupations(16, temperature=0.0)


def test_onsite_correlation_at_half_filling():
    cmap = spin_correlation_map(32)
    assert cmap[0, 0] == pytest.approx(0.125, abs=1e-6)


def test_offsite_correlations_negative():
    cmap = spin_correlation_map(32)
    offsite = cmap.copy()
    offsite[0, 0] = -1.0
    assert np.all(offsite <= 0.0)


def test_nearest_neighbor_spin_correlation():
    cmap = spin_correlation_map(128)
    assert cmap[1, 0] == pytest.approx(-0.5 * TWO_OVER_PI_SQ**2, abs=1e-4)


def test_point_group_symmetry():
    values = spin_correlation_map(16)
    assert np.allclose(values, np.roll(values[::-1, ::-1], (1, 1), axis=(0, 1)))
    assert np.allclose(values, values.T)


def test_hot_gas_correlations_decay():
    values = spin_correlation_map(32, temperature=4.0)
    r = np.minimum(np.arange(32), 32 - np.arange(32))
    rx, ry = np.meshgrid(r, r, indexing="ij")
    far = np.hypot(rx, ry) > 3.0
    assert np.abs(values[far]).max() < 1e-3


@pytest.mark.parametrize("size", [8, 16, 32])
def test_structure_factor_two_routes_agree(size):
    # main route transforms the Wick map; reference route is the explicit
    # double sum over site pairs from the full L^2 x L^2 correlation matrix
    cmap = spin_correlation_map(size)
    sf = structure_factor(cmap)

    g = first_order_correlation(size)
    sites = [(x, y) for x in range(size) for y in range(size)]
    corr = np.empty((size**2, size**2))
    for a, (xa, ya) in enumerate(sites):
        for b, (xb, yb) in enumerate(sites):
            dx, dy = (xa - xb) % size, (ya - yb) % size
            if a == b:
                corr[a, b] = 0.5 * g[0, 0] * (1.0 - g[0, 0])
            else:
                corr[a, b] = -0.5 * g[dx, dy] ** 2
    for mx, my in [(0, 0), (size // 2, size // 2), (size // 2, 0), (1, 2)]:
        k = 2.0 * np.pi * np.array([mx, my]) / size
        phases = np.array([np.exp(1j * (k[0] * x + k[1] * y)) for x, y in sites])
        double_sum = np.real(phases.conj() @ corr @ phases) / size**2
        assert sf[mx, my] == pytest.approx(double_sum, abs=1e-10)


def test_structure_factor_nonnegative_and_parseval():
    cmap = spin_correlation_map(32)
    sf = structure_factor(cmap)
    assert np.all(sf >= 0.0)
    assert sf.mean() == pytest.approx(cmap[0, 0], abs=1e-10)


@pytest.mark.parametrize("size", [8, 16, 32, 64])
def test_uniform_structure_factor_vanishes_with_size(size):
    sf = structure_factor(spin_correlation_map(size))
    assert sf[0, 0] <= 2.0 / size


def test_finite_size_scaling_monotone():
    s00 = [
        structure_factor(spin_correlation_map(size))[0, 0]
        for size in (8, 16, 32, 64)
    ]
    assert all(b < a for a, b in zip(s00, s00[1:]))


def test_maximum_at_pi_pi_below_quarter():
    sf = structure_factor(spin_correlation_map(32))
    L = sf.shape[0]
    assert np.unravel_index(np.argmax(sf), sf.shape) == (L // 2, L // 2)
    assert sf[L // 2, L // 2] < 0.25


def test_qfi_ground_state_not_witnessed():
    sf = structure_factor(spin_correlation_map(64))
    result = qfi_staggered(sf)
    assert result.density == pytest.approx(4.0 * sf[32, 32])
    assert result.density < 1.0
    assert not result.witnessed


def test_qfi_synthetic_cases():
    L = 4
    values = np.zeros((L, L))
    values[L // 2, L // 2] = 0.3
    strong = qfi_staggered(values)
    assert strong.density == pytest.approx(1.2)
    assert strong.witnessed
    # uncorrelated localized spins: S(k) = 1/4 flat -> density exactly 1
    flat = qfi_staggered(np.full((L, L), 0.25))
    assert flat.density == pytest.approx(1.0)
    assert not flat.witnessed


@pytest.mark.parametrize("temperature", [1e-5, 1e-9, 1e-300])
@pytest.mark.parametrize("size", [4, 64])
def test_maps_far_below_the_round_off_scale(size, temperature):
    # cold enough that the zero-energy shell resolves its ~1e-16 round-off
    # energies: k and -k must still get the same occupation, or G(r) turns
    # complex
    cmap = spin_correlation_map(size, temperature)
    sf = structure_factor(cmap)
    assert np.all(np.isfinite(cmap)) and np.all(np.isfinite(sf))
    assert 0.0 <= cmap[0, 0] <= 0.125
    assert abs(sf.mean() - cmap[0, 0]) <= 1e-10


def test_lattice_size_capped_before_any_array(monkeypatch):
    # 4 x 4 momenta: a cap of 16 passes, a cap of 15 refuses it before numpy
    monkeypatch.setattr(spectra, "MAX_LEVELS", 16)
    assert momentum_occupations(4).shape == (4, 4)
    monkeypatch.setattr(lattice, "np", None)
    with pytest.raises(spectra.DomainError, match="lattice size 6 needs over 16 sites"):
        momentum_occupations(6)
    monkeypatch.setattr(spectra, "MAX_LEVELS", 15)
    with pytest.raises(spectra.DomainError, match="lattice size 4 needs over 15 sites"):
        momentum_occupations(4)


def test_huge_lattice_refused_at_the_real_cap(monkeypatch):
    # 4,098^2 = 16,793,604 momenta, over 2^24; numpy is unreachable
    monkeypatch.setattr(lattice, "np", None)
    with pytest.raises(spectra.DomainError, match="needs over 16777216 sites"):
        spin_correlation_map(4098)
