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
        "out.csv": "9b44f295464b7adbe54d3269b6ab56ac84b4c8bcca1d8171fd578952a847c2a9",
    },
    ("continuum", "json"): {
        "out.json": "f99c4b4ced848783bb4f3332f5d3597445073456bcbf5426b449c4e86ad11c68",
    },
    ("grid", "csv"): {
        "out.csv": "654960cde10f2a3bac7c22b84197c1468aa20a4970a194f485278f46870e3a6d",
    },
    ("grid", "json"): {
        "out.json": "250ae544e7a9fa816cfb15400b33bc47610d30409241c27f831c3a72739d74ef",
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
        "out.csv": "c9a1e83e98f17b6db9e60bb4d589ff2e2c974c21a53f401e07fbfef6aa4f6997",
    },
    ("threshold", "json"): {
        "out.json": "1ba4691a04731d6d40ebe08c54e952d45f211b71e09f9190b2f4c3d21df8313d",
    },
    ("trap", "csv"): {
        "out.csv": "c4bbbfd2ae42c7f3cf3b2815ceebf48395e65f4dfae687a8361f76bdd9d9192c",
    },
    ("trap", "json"): {
        "out.json": "924dd9336ccb9686446df9a8e4281463fcbf501e92287398dc2443b4d574cabb",
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
