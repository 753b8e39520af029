"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from singletgas import cli, lattice, occupancy, oracle, spinmoments
from singletgas.occupancy import GasParameters, build_occupation_table, spin_sums
from singletgas.rng import Lcg64
from singletgas.spectra import FreeSpaceContinuum, FreeSpaceGrid, HarmonicTrap
from singletgas.spinmoments import (
    collective_variances,
    find_threshold,
    moments_at,
    witness_report,
    xi_squared,
)

TRAP = HarmonicTrap(level_spacing=1.0 / 30.0)


def _report(num, label, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.2f}s" + (f" / budget {budget:.0f}s)" if budget else ")")
    print(f"criterion {num} [{status}] {label}{extra}")
    assert ok, f"criterion {num} failed: {label}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_free_space_threshold():
    start = time.perf_counter()
    t_star = find_threshold(FreeSpaceContinuum(), 0.0)
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"free-space threshold T*={t_star:.4f} within 1.12 +- 0.02",
        abs(t_star - 1.12) <= 0.02,
        elapsed,
        budget=10,
    )


def test_criterion_2_grid_continuum_consistency():
    start = time.perf_counter()
    worst = 0.0
    for t in (0.2, 0.5, 0.8, 1.0):
        fs = {}
        for name, model in (("grid", FreeSpaceGrid()), ("cont", FreeSpaceContinuum())):
            _, moments = moments_at(model, t, 0.0)
            fs[name] = 1.0 - xi_squared(moments)
        worst = max(worst, abs(fs["grid"] - fs["cont"]))
    elapsed = time.perf_counter() - start
    _report(
        2,
        f"grid vs continuum f_s, worst |diff|={worst:.2e} < 0.01",
        worst < 0.01,
        elapsed,
        budget=30,
    )


def test_criterion_3_trap_threshold_and_number():
    start = time.perf_counter()
    t_star = find_threshold(TRAP, 0.0, t_bracket=(0.05, 1.0))
    table = build_occupation_table(TRAP, GasParameters.fermi(0.02, 1.0))
    n = spin_sums(*table, eta=-1.0).total
    elapsed = time.perf_counter() - start
    ok = abs(t_star - 0.368) <= 0.005 and 0.9e4 <= n <= 2e4
    _report(
        3,
        f"trap threshold T*={t_star:.4f} within 0.368 +- 0.005, <N>={n:.0f} in [0.9, 2]e4",
        ok,
        elapsed,
        budget=30,
    )


def test_criterion_4_singlet_limit():
    # the trap spectrum is gapped at mu, so T = 1e-3 mu is genuinely in
    # the ground-state regime; the gas models keep Var/<N> < 1e-3 as well
    start = time.perf_counter()
    _, trap_m = moments_at(TRAP, 1e-3, 0.0)
    f_s = 1.0 - xi_squared(trap_m)
    var_ratios = [
        max(m.var_jx, m.var_jz) / m.mean_n
        for m in (trap_m, moments_at(FreeSpaceContinuum(), 1e-3, 0.0)[1])
    ]
    elapsed = time.perf_counter() - start
    ok = f_s > 0.999 and all(r < 1e-3 for r in var_ratios)
    _report(
        4,
        f"singlet limit f_s={f_s:.6f} > 0.999, max Var/<N>={max(var_ratios):.2e} < 1e-3",
        ok,
        elapsed,
        budget=30,
    )


def test_criterion_5_bose_property_suite():
    start = time.perf_counter()
    gen = Lcg64(2024)
    models = [FreeSpaceContinuum(), FreeSpaceGrid(), TRAP]
    checked = 0
    attempts = 0
    violations = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 10000, "Bose sampler failed to find valid states"
        model = models[attempts % 3]
        t = gen.uniform(0.3, 2.0)
        z = gen.uniform(0.2, 0.95)
        h = 0.9 * gen.uniform(0.0, 1.0) * 2.0 * t * math.log(1.0 / z)
        params = GasParameters.bose(t, z, field=h)
        table = build_occupation_table(model, params)
        moments = collective_variances(spin_sums(*table, eta=+1.0))
        # the mean-N evaluation of the nonlinear inequalities is only
        # meaningful well above the N = 2 floor
        if moments.mean_n < 6.0:
            continue
        checked += 1
        if min(moments.var_jx, moments.var_jz) <= moments.mean_n / 4.0:
            violations += 1
            continue
        report = witness_report(moments)
        violations += not all(chk.satisfied for chk in report)
    elapsed = time.perf_counter() - start
    _report(
        5,
        f"Bose suite: {checked} parameter sets, {violations} violations",
        violations == 0,
        elapsed,
        budget=60,
    )


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    gen = Lcg64(6)
    fermi = [cli._sample_fermi_ensemble(gen) for _ in range(100)]
    bose = [cli._sample_bose_ensemble(gen) for _ in range(20)]
    deviations = oracle.oracle_deviations(fermi + bose)
    worst_fermi, worst_bose = max(deviations[:100]), max(deviations[100:])
    elapsed = time.perf_counter() - start
    ok = worst_fermi < 1e-10 and worst_bose < 1e-10
    _report(
        6,
        f"oracle: fermi worst {worst_fermi:.1e} < 1e-10, bose worst {worst_bose:.1e} < 1e-10",
        ok,
        elapsed,
        budget=120,
    )


def test_criterion_7_lattice_suite():
    start = time.perf_counter()
    L = 32
    cmap = lattice.spin_correlation_map(L)
    sf = lattice.structure_factor(cmap)
    qfi = lattice.qfi_staggered(sf)
    offsite = cmap.copy()
    offsite[0, 0] = -1.0
    checks = [
        abs(cmap[0, 0] - 0.125) <= 1e-6,
        bool(np.all(offsite <= 0.0)),
        abs(cmap[1, 0] - (-0.0205)) <= 0.0005,
        abs(sf.mean() - cmap[0, 0]) <= 1e-10,
        sf[0, 0] <= 2.0 / L,
        np.unravel_index(np.argmax(sf), sf.shape) == (L // 2, L // 2),
        sf[L // 2, L // 2] < 0.25,
        qfi.density < 1.0 and not qfi.witnessed,
    ]
    elapsed = time.perf_counter() - start
    _report(
        7,
        f"lattice suite at L=32: {sum(checks)}/{len(checks)} checks",
        all(checks),
        elapsed,
        budget=30,
    )


def test_criterion_8_low_t_polarization_linearity():
    start = time.perf_counter()
    model = FreeSpaceContinuum()
    _, m0 = moments_at(model, 0.02, 0.0)
    fs0 = 1.0 - xi_squared(m0)
    worst = 0.0
    for p in np.linspace(0.0, 0.8, 9):
        _, m = moments_at(model, 0.02, float(p))
        worst = max(worst, abs((1.0 - xi_squared(m)) - (1.0 - p) * fs0))
    elapsed = time.perf_counter() - start
    _report(
        8,
        f"low-T linearity: max |f_s(P) - (1-P) f_s(0)| = {worst:.3f} < 0.05",
        worst < 0.05,
        elapsed,
        budget=60,
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "run.csv"
    config = tmp_path / "job.cfg"
    config.write_text(
        f"workflow = freespace\nt_grid = 0.3, 0.9\np_grid = 0.0, 0.5\n"
        f"seed = 5\nout = {out}\n"
    )
    assert cli.main(["--config", str(config)]) == 0
    first = out.read_bytes()
    assert cli.main(["--config", str(config)]) == 0
    second = out.read_bytes()
    elapsed = time.perf_counter() - start
    _report(9, "identical config gives byte-identical output", first == second, elapsed)
