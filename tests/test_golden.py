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
        "out.csv": "5180a00bfba52d9ee96548dacdec38940d7c5f56f8931387da1d08a95ca57bf7",
    },
    ("continuum", "json"): {
        "out.json": "690a51f1e190695928f0c73e81990018cf72806d9f4bd6becdfa44d41754305f",
    },
    ("grid", "csv"): {
        "out.csv": "654960cde10f2a3bac7c22b84197c1468aa20a4970a194f485278f46870e3a6d",
    },
    ("grid", "json"): {
        "out.json": "250ae544e7a9fa816cfb15400b33bc47610d30409241c27f831c3a72739d74ef",
    },
    ("lattice", "csv"): {
        "out_correlation.csv": "e6852d8bc025616f0d3b228e2e3e2697efcf50ed8ebb30db4db92b45e05668ff",
        "out_structure_factor.csv": "9c4acc5a14d5443965a47c93a407a0b6df93e65f48f1ef763964534b70d41ece",
    },
    ("lattice", "json"): {
        "out_correlation.json": "5b037e3ea074db46bb7255719194e3407ca09299ffd4bd8fc6453a14aaec200e",
        "out_structure_factor.json": "49b038f2d2f1dae62148381589e24811775983d0fdef4270433ac6cd5e3f879b",
    },
    ("threshold", "csv"): {
        "out.csv": "e7eaa34e8660d4838686a9ab1061647433ba0bdbbba373aa9b8fc22235fee9f2",
    },
    ("threshold", "json"): {
        "out.json": "fb55a23a1b81733ac63e55d26724e4ee56308f1b5ec646bac085f93f5e967994",
    },
    ("trap", "csv"): {
        "out.csv": "c4bbbfd2ae42c7f3cf3b2815ceebf48395e65f4dfae687a8361f76bdd9d9192c",
    },
    ("trap", "json"): {
        "out.json": "924dd9336ccb9686446df9a8e4281463fcbf501e92287398dc2443b4d574cabb",
    },
    ("validate", "csv"): {
        "out.csv": "e36c7b93c8b340439ae1003a15c1650274a058a4b72cbaddca5d804674303f2f",
    },
    ("validate", "json"): {
        "out.json": "63348c656f8ee7d260e87e32d2d765ef80d980fb3258c5f8593579f51a4c1fa5",
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
