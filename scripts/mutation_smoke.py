"""Mutation smoke: each hand-picked mutant of src/singletgas/ must fail a test.

A mutant is one snippet of a module, which must occur there exactly once,
and its replacement.  Each mutant is applied to a fresh temporary copy of
src/, tests/ and pyproject.toml, never to the working tree, and the test
files named with it run there as ``pytest -x -q -p no:cacheprovider`` with
that copy first on PYTHONPATH, under a per-mutant timeout.  A nonzero exit
or a timeout kills the mutant.  The unmutated copy runs first and must pass.
Exits 1 on a surviving mutant, a snippet that is missing or occurs more
than once, or a failing unmutated copy.  Stdlib only; the tests need pytest
and hypothesis, as Tier-1 does.

    python scripts/mutation_smoke.py

Mutants left out as equivalent (no test can tell them apart):

- ``np.isfinite(eps) * 1.0`` -> ``np.ones_like(eps)`` in
  ``oracle._closed_forms``: a padded mode sits at energy +inf, where
  ``occupy`` returns exactly 0, so its weight multiplies zeros either way.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

OCC, SPIN, ORACLE = "occupancy.py", "spinmoments.py", "oracle.py"
SPECTRA, LATTICE = "spectra.py", "lattice.py"
T_OCC, T_SPIN, T_ORACLE = "test_occupancy.py", "test_spinmoments.py", "test_oracle.py"
T_SPECTRA, T_LATTICE = "test_spectra.py", "test_lattice.py"

# (name, module, snippet, replacement, test files)
MUTANTS = [
    (
        "eta sign in the spin fluctuations",
        OCC,
        "wn * (1.0 + eta * n)",
        "wn * (1.0 - eta * n)",
        [T_OCC],
    ),
    (
        "eta sign in the exchange sum",
        OCC,
        "total / 4.0 + eta * cross / 2.0",
        "total / 4.0 - eta * cross / 2.0",
        [T_OCC],
    ),
    (
        "slope's -P Cov(N, Jz) term",
        OCC,
        "m.var_jz - m.polarization * (2.0 * m.cov_njz)",
        "m.var_jz + m.polarization * (2.0 * m.cov_njz)",
        [T_OCC],
    ),
    (
        "> against >= at EXP_GUARD",
        OCC,
        "above = x > EXP_GUARD",
        "above = x >= EXP_GUARD",
        [T_OCC],
    ),
    (
        "trap MAX_LEVELS comparison",
        SPECTRA,
        "if last > MAX_LEVELS - 1:",
        "if last > MAX_LEVELS:",
        [T_SPECTRA],
    ),
    (
        "grid MAX_LEVELS comparison",
        SPECTRA,
        "if 3 * w * w + 1 > MAX_LEVELS:",
        "if 3 * w * w + 1 >= MAX_LEVELS:",
        [T_SPECTRA],
    ),
    (
        "lattice MAX_LEVELS comparison",
        LATTICE,
        "if size * size > spectra.MAX_LEVELS:",
        "if size * size >= spectra.MAX_LEVELS:",
        [T_LATTICE],
    ),
    (
        "min against max in tightest_permutations",
        SPIN,
        "min(sides, key=lambda lr: lr[0] - lr[1])",
        "max(sides, key=lambda lr: lr[0] - lr[1])",
        [T_SPIN, T_ORACLE],
    ),
    (
        "1/(N - 1) sides in witness_report",
        SPIN,
        "denom = n - 1.0",
        "denom = n",
        [T_SPIN],
    ),
    (
        "1/(N - 1) sides in _exact_table",
        ORACLE,
        "inv = 1.0 / (n2 - 1.0)",
        "inv = 1.0 / n2",
        [T_ORACLE],
    ),
    (
        "oracle's NaN unit factor for padded modes",
        ORACLE,
        "np.where(np.isnan(f), occ == 0, f)",
        "np.where(np.isnan(f), 1.0, f)",
        [T_ORACLE],
    ),
    (
        "trap degeneracy",
        SPECTRA,
        "(shells + 1) * (shells + 2) / 2.0",
        "(shells + 1) * (shells + 3) / 2.0",
        [T_SPECTRA],
    ),
    (
        "grid axis range",
        SPECTRA,
        "np.arange(-w, w) ** 2",
        "np.arange(-w, w + 1) ** 2",
        [T_SPECTRA],
    ),
    (
        "lattice onsite term",
        LATTICE,
        "values[0, 0] = 0.5 * filling * (1.0 - filling)",
        "values[0, 0] = 0.25 * filling * (1.0 - filling)",
        [T_LATTICE],
    ),
    (
        "eightfold step of the threshold's lower end",
        SPIN,
        "lo = lo / 8.0",
        "lo = lo / 2.0",
        [T_SPIN],
    ),
    (
        "no-threshold check at the upper end",
        SPIN,
        "if not f_hi < 0.0:",
        "if False:",
        [T_SPIN],
    ),
    (
        "stepped bracket's relative xtol",
        SPIN,
        "xtol=T_TOLERANCE * hi / 2.0",
        "xtol=T_TOLERANCE",
        [T_SPIN],
    ),
]


def copy_tree(dest):
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_tests(tree, tests):
    """(killed, seconds): whether the test files failed or timed out in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += [str(tree / "tests" / name) for name in tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=tree, env=env, timeout=TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        killed = done.returncode != 0
    except subprocess.TimeoutExpired:
        killed = True
    return killed, time.perf_counter() - start


def main():
    package = ROOT / "src" / "singletgas"
    bad = False
    for name, module, snippet, _, _ in MUTANTS:
        count = (package / module).read_text().count(snippet)
        if count != 1:
            print(f"snippet of {name!r} occurs {count} times in {module}")
            bad = True
    if bad:
        return 1
    with tempfile.TemporaryDirectory(prefix="mutation_smoke_") as tmp:
        clean = pathlib.Path(tmp) / "clean"
        copy_tree(clean)
        files = sorted({name for *_, tests in MUTANTS for name in tests})
        failed, seconds = run_tests(clean, files)
        print(f"unmutated copy: {'FAILED' if failed else 'passed'} ({seconds:.1f} s)")
        if failed:
            return 1
        survivors = []
        for i, (name, module, snippet, replacement, tests) in enumerate(MUTANTS):
            tree = pathlib.Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            path = tree / "src" / "singletgas" / module
            path.write_text(path.read_text().replace(snippet, replacement))
            killed, seconds = run_tests(tree, tests)
            print(f"{'killed ' if killed else 'SURVIVED'} {module}: {name} ({seconds:.1f} s)")
            if not killed:
                survivors.append(name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return int(bool(survivors))


if __name__ == "__main__":
    sys.exit(main())
