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
        "out.csv": "feeaa16d5af67f4696f7b35e6d13e7c8f4927ba6e5922ef3b4dd8cfc22925eb5",
    },
    ("continuum", "json"): {
        "out.json": "694240d479a205a58bf4c644b3d31b86474c25f8bdaef154a8b2c7a7882aefdd",
    },
    ("grid", "csv"): {
        "out.csv": "ff4635aa5c034b6be94ec3a31785e6429470e373d022db856e6a3b4e900bdfdf",
    },
    ("grid", "json"): {
        "out.json": "687a68e8473ed820e484d755313fe74396b0a0ee673477f991d808ff8206300d",
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
        "out.csv": "35788108a050113e5ce80d6fb64f09d80da02c2ea5f009a71b3126b92abb5b84",
    },
    ("threshold", "json"): {
        "out.json": "9bbc2578a025ea581fa6ca63365bd87be45e0702ea611b83c4a59133da370422",
    },
    ("trap", "csv"): {
        "out.csv": "0e303bd45a90cc41395077f40e886d7beda0827d9592c88969aa059cbaed6007",
    },
    ("trap", "json"): {
        "out.json": "3f760474264911c2381d544edce669d06c472b00aea9bb4efdd1e3cfad5d6661",
    },
    ("validate", "csv"): {
        "out.csv": "baf3bf95264d30fd714d9afd88decc43be32ab994c5bb816250bdb4348551e92",
    },
    ("validate", "json"): {
        "out.json": "ded60bc01351656330afd6441f47ab86f86914c5b643f0135329c0863b5c2f52",
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
