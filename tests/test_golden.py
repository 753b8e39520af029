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
        "out.csv": "86c54b7bfa6a9849044bf6b1dd37128c3b21da536c7b0a8f1916ac7179dd05fd",
    },
    ("continuum", "json"): {
        "out.json": "57f50a76c0370cedc9c4e26528afdd7615ea16d279ceb02cba1439e6c82a4cdb",
    },
    ("grid", "csv"): {
        "out.csv": "f9c1a0d23ae9cb99e0c6fc672449756d5e4758c789f75fa2b5bcd818066d18a9",
    },
    ("grid", "json"): {
        "out.json": "dc1ed684a9c1f02e5e47afa4b585c0857bf46553c826cde51348f8d7f5123088",
    },
    ("lattice", "csv"): {
        "out_correlation.csv": "08dadea3e8faf1ed2ebfde09101802d79e1676a9ed3aba6f94140f78504cd91f",
        "out_structure_factor.csv": "02e94dc2e0fcb367e4c60f44bb8de8422e71a3fd3d65b91f5cb5fd9b194776db",
    },
    ("lattice", "json"): {
        "out_correlation.json": "5259d5bbbd1de13d37a9da60c5a9ef6ece69e56edd55e41a67b2cad4e695c92b",
        "out_structure_factor.json": "90d6eb07fbf6e79a2a64c146ebef6cd153efc81901347532859c053df96265d2",
    },
    ("threshold", "csv"): {
        "out.csv": "c8209b76ff01bb1acf364e856fa560396b0f53642e63ccd991c690d5962caa6f",
    },
    ("threshold", "json"): {
        "out.json": "a2412da1c1fe5d0d5289ad548603911e834d59c806ccabd0b1676db8d151421b",
    },
    ("trap", "csv"): {
        "out.csv": "990e29a8c657410d231dd82f43930048400b28b06344ba734eae97785eb2cb58",
    },
    ("trap", "json"): {
        "out.json": "f0bb34af114c2216897c4677074632d70f8cb469e1dd9c1b69cd7a70dd76de78",
    },
    ("validate", "csv"): {
        "out.csv": "f6a8afb70294588cbcfd201c9f1e69d83b67a47be909620d97f86c251bbc29f3",
    },
    ("validate", "json"): {
        "out.json": "3dd08c7436b67ccb19094001c90438348795e3343341b2a347cc9040079a114f",
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
