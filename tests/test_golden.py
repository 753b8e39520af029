"""Byte-level regression test of every workflow's output files.

The SHA-256 digests pin each file as the CLI wrote it when this test was
added, so any change to a printed digit, the header or the JSON layout
fails here.  Each job runs in its own directory with a relative ``out``,
because the resolved config (``out`` included) is part of the output.
Some printed values are round-off sized (validate's ``max_rel_err``,
near-zero lattice correlations), so a numpy whose summation or FFT order
differs can move their last digit.
"""

import hashlib

import pytest

from singletgas.cli import main

JOBS = {
    "continuum": "workflow = freespace\nt_grid = 0.3, 0.6\np_grid = 0.0, 0.4\n",
    "grid": "workflow = freespace\nspectrum = grid\nhalf_width = 6\n"
    "t_grid = 0.5\np_grid = 0.0, 0.3\n",
    "trap": "workflow = freespace\nspectrum = trap\nmu_over_homega = 10\n"
    "t_grid = 0.2, 0.4\np_grid = 0.0, 0.5\n",
    "threshold": "workflow = threshold\np_target = 0.2\n",
    "validate": "workflow = validate\nsamples_fermi = 4\nsamples_bose = 2\nseed = 13\n",
    "lattice": "workflow = lattice\nlattice_size = 8\n",
}

DIGESTS = {
    ("continuum", "csv"): {
        "out.csv": "67f35c2daf09e9e7cb220f372bc4c52234409cae839690579d9f7ee16af67027",
    },
    ("continuum", "json"): {
        "out.json": "bd14912c717ea8f8a71b22cb9df646dc2846fa68627c9f0a8828dbf37bf7fee5",
    },
    ("grid", "csv"): {
        "out.csv": "e9f475d574a6183eab1d64f2dc513cd08ded170e11c3baa42cd1e9c4953e7402",
    },
    ("grid", "json"): {
        "out.json": "65e12bec2e91c5ee3cb8ad635b5b5e5670b3f6dd11bb8e8b15b72598a10921e6",
    },
    ("lattice", "csv"): {
        "out_correlation.csv": "263faa8fb8709339a28409e7ab199801bb34596b3907611a7999579b6e50c27e",
        "out_structure_factor.csv": "9c4acc5a14d5443965a47c93a407a0b6df93e65f48f1ef763964534b70d41ece",
    },
    ("lattice", "json"): {
        "out_correlation.json": "464fe7beed2fe0d111c8aa2b2658487169e56bda6c7fc87b21cd8f0de59a6330",
        "out_structure_factor.json": "49b038f2d2f1dae62148381589e24811775983d0fdef4270433ac6cd5e3f879b",
    },
    ("threshold", "csv"): {
        "out.csv": "a38fd6c76e471b1531eed64ad4848a508b03183f330a846aa00d7f3e7a1071c6",
    },
    ("threshold", "json"): {
        "out.json": "8c94f08ffb045085faf342702bf0d41e0cb92d52fe0a27c09b96607fe5b49f0c",
    },
    ("trap", "csv"): {
        "out.csv": "40a0b8a406efd7b2e14ce30b9a0aba8226dd05ba99428ac01ad6af6ed51534ad",
    },
    ("trap", "json"): {
        "out.json": "9b5f962d6b4b773b141075042ce92cf5b886c31e74941e2b87eb3bd9ac9b1bab",
    },
    ("validate", "csv"): {
        "out.csv": "4a5f6478255cd95ad592bab5f8955ed20c7f8c60c6f1060d8c97ed658b278cce",
    },
    ("validate", "json"): {
        "out.json": "4a2e1bd819331dccba8fe81a43f35e44b61bd4742b598819f4f7ff44aa99d603",
    },
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_output_bytes_pinned(job, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "job.cfg").write_text(JOBS[job] + f"out = out.{fmt}\nformat = {fmt}\n")
    assert main(["--config", "job.cfg"]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("out*"))
    }
    assert digests == DIGESTS[job, fmt]
