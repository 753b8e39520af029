import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singletgas import cli, lattice, occupancy, spectra
from singletgas.cli import ConfigError, build_config, main, parse_config_text


def test_parse_key_value_config():
    text = """
    # comment
    workflow = freespace
    t_grid = 0.2, 0.5
    p_grid = 0.0
    seed = 9
    """
    cfg = build_config(parse_config_text(text))
    assert cfg.workflow == "freespace"
    assert cfg.t_grid == [0.2, 0.5]
    assert cfg.seed == 9


def test_parse_json_config():
    cfg = build_config(
        parse_config_text('{"workflow": "lattice", "lattice_size": 8}')
    )
    assert cfg.workflow == "lattice"
    assert cfg.lattice_size == 8


@pytest.mark.parametrize(
    "text",
    [
        "workflow = nonsense",
        "no_such_key = 1",
        "workflow = freespace\nt_grid = 0.5, 0.2",
        "workflow = freespace\np_grid = 1.5",
        "workflow = lattice\nlattice_size = 9",
        '{"workflow": ["not", "a", "string"]}',
        "just a line without equals",
        "workflow = trap",
        "workflow = freespace\nt_grid = nan",
        "workflow = freespace\nt_grid = 0.5, inf",
        "workflow = freespace\nt_grid = -1, 0.5",
        "workflow = threshold\np_target = nan",
        "workflow = lattice\nt_over_j = -1",
        "workflow = freespace\nspectrum = trap\nmu_over_homega = 0",
        "workflow = freespace\nspectrum = grid\nhalf_width = 0",
        "workflow = validate\nsamples_fermi = -3",
        "workflow = validate\nsamples_bose = -1",
        "workflow = threshold\np_target = 1.5",
        "workflow = threshold\np_target = -0.1",
        '{"workflow": "lattice", "lattice_size": 64.9}',
        '{"workflow": "freespace", "spectrum": "grid", "half_width": 2.5}',
        '{"workflow": "validate", "samples_bose": true}',
        '{"workflow": "validate", "seed": 1e999}',
        '{"workflow": "threshold", "p_target": false}',
        '{"workflow": "freespace", "t_grid": [0.5, true]}',
        "workflow = freespace\nformat = xml",
        "workflow = freespace\nspectrum = moon",
        "workflow = freespace\nt_grid = ,",
        '{"workflow": ',
    ],
)
def test_bad_configs_rejected(text):
    with pytest.raises(ConfigError):
        build_config(parse_config_text(text))


def run_cli(tmp_path, text, *extra):
    config = tmp_path / "job.cfg"
    config.write_text(text)
    return main(["--config", str(config), *extra])


def test_threshold_workflow(tmp_path):
    out = tmp_path / "thr.csv"
    status = run_cli(
        tmp_path,
        f"workflow = threshold\nspectrum = continuum\nout = {out}\n",
    )
    assert status == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "P,T_star_over_mu"
    p, t_star = (float(v) for v in lines[1].split(","))
    assert p == 0.0
    assert abs(t_star - 1.12) < 0.02


def test_sweep_workflow_columns_and_metadata(tmp_path):
    out = tmp_path / "sweep.csv"
    status = run_cli(
        tmp_path,
        f"workflow = freespace\nt_grid = 0.3, 0.6\np_grid = 0.0, 0.4\nout = {out}\n",
    )
    assert status == 0
    text = out.read_text()
    assert "# workflow = freespace" in text  # resolved config embedded
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "T_over_mu,P,f_s,var_Jx,var_Jz,mean_N,witnessed"
    assert len(lines) == 1 + 4  # grid order: T outer, P inner
    first = lines[1].split(",")
    assert float(first[0]) == 0.3 and float(first[1]) == 0.0


def test_lattice_workflow_two_files(tmp_path):
    out = tmp_path / "maps.csv"
    status = run_cli(
        tmp_path, f"workflow = lattice\nlattice_size = 16\nout = {out}\n"
    )
    assert status == 0
    corr = tmp_path / "maps_correlation.csv"
    sf = tmp_path / "maps_structure_factor.csv"
    assert corr.exists() and sf.exists()
    for path in (corr, sf):
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "L,16"
        assert len(lines) == 17
        assert all(len(line.split(",")) == 16 for line in lines[1:])
    sf_lines = [
        l for l in sf.read_text().splitlines() if not l.startswith("#")
    ][1:]
    s00 = float(sf_lines[0].split(",")[0])
    assert s00 <= 2.0 / 16.0


def test_json_output(tmp_path):
    out = tmp_path / "sweep.json"
    status = run_cli(
        tmp_path,
        f"workflow = freespace\nt_grid = 0.5\np_grid = 0.0\nout = {out}\nformat = json\n",
    )
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "T_over_mu"
    assert payload["config"]["workflow"] == "freespace"
    assert len(payload["rows"]) == 1


def test_lattice_json_parses_to_rounded_maps(tmp_path):
    out = tmp_path / "maps.json"
    status = run_cli(
        tmp_path, f"workflow = lattice\nlattice_size = 16\nout = {out}\nformat = json\n"
    )
    assert status == 0
    cmap = lattice.spin_correlation_map(16)
    maps = {
        "maps_correlation.json": cmap,
        "maps_structure_factor.json": lattice.structure_factor(cmap),
    }
    for name, values in maps.items():
        payload = json.loads((tmp_path / name).read_text())
        assert payload["L"] == 16
        assert payload["config"]["lattice_size"] == 16
        assert payload["values"] == [
            [float(format(v, ".12g")) for v in row] for row in values
        ]
        assert all(type(v) is float for row in payload["values"] for v in row)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lattice_suffixless_out_takes_format_suffix(tmp_path, fmt):
    out = tmp_path / "lat"
    job = f"workflow = lattice\nlattice_size = 4\nout = {out}\nformat = {fmt}\n"
    assert run_cli(tmp_path, job) == 0
    names = ["lat_correlation", "lat_structure_factor"]
    assert sorted(p.name for p in tmp_path.glob("lat_*")) == [f"{n}.{fmt}" for n in names]
    if fmt == "json":
        for name in names:
            assert json.loads((tmp_path / f"{name}.json").read_text())["L"] == 4


def test_validate_workflow_zero_failures(tmp_path):
    out = tmp_path / "validate.csv"
    status = run_cli(
        tmp_path,
        f"workflow = validate\nsamples_fermi = 10\nsamples_bose = 3\nout = {out}\n",
        "--seed",
        "7",
    )
    assert status == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "index,is_bose,modes,max_rel_err,ok"
    assert all(line.rsplit(",", 1)[1] == "1" for line in lines[1:])


def test_repeated_runs_byte_identical(tmp_path):
    text = "workflow = validate\nsamples_fermi = 5\nsamples_bose = 2\nseed = 11\n"
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(tmp_path, text + f"out = {out_a}\n") == 0
    assert run_cli(tmp_path, text + f"out = {out_b}\n") == 0
    a, b = out_a.read_bytes(), out_b.read_bytes()
    assert a.replace(b"a.csv", b"X") == b.replace(b"b.csv", b"X")


def test_exit_codes(tmp_path):
    # unreadable config
    assert main(["--config", str(tmp_path / "missing.cfg")]) == cli.EXIT_IO
    # config error
    assert run_cli(tmp_path, "workflow = nonsense\n") == cli.EXIT_CONFIG
    # domain error: no threshold, since f_s >= 0 at T = 2 on the w = 2 grid
    out = tmp_path / "dom.csv"
    job = f"workflow = threshold\nspectrum = grid\nhalf_width = 2\nout = {out}\n"
    assert run_cli(tmp_path, job) == cli.EXIT_DOMAIN


def test_degenerate_input_exit_code(tmp_path, capsys):
    # a trap of mu = 1e-300 level spacings holds no particle: the zero total
    # number is a DegenerateInputError, reported as a domain error
    out = tmp_path / "deg.csv"
    job = "workflow = freespace\nspectrum = trap\nmu_over_homega = 1e-300\n"
    job += f"out = {out}\n"
    assert run_cli(tmp_path, job) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err == (
        "error: at grid point T=0.1, P=0.0: "
        "zero total particle number, polarization undefined\n"
    )
    assert not out.exists()


def test_oversized_trap_exit_code(tmp_path, capsys, monkeypatch):
    # at T = 1e6 the trap asks for 8.3e8 shells, over MAX_LEVELS; numpy in
    # spectra is unreachable, so a missing guard fails instead of allocating
    monkeypatch.setattr(spectra, "np", None)
    out = tmp_path / "big.csv"
    job = f"workflow = freespace\nspectrum = trap\nt_grid = 1e6\nout = {out}\n"
    assert run_cli(tmp_path, job) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: at grid point T=1000000.0, P=0.0: trap needs over")
    assert not out.exists()


@pytest.mark.parametrize("p", [0.0, 0.5, 0.999999])
@pytest.mark.parametrize("t", [1e204, 1e205, 1e206, 1e300])
def test_hot_continuum_exit_code(t, p, tmp_path, capsys):
    # the quadrature weights grow as cut^1.5 with the cut ~ 40 T + H / 2; past
    # the largest double they are refused before numpy overflows (an overflow
    # warning is an error here, so it would end the run with a traceback)
    out = tmp_path / "hot.csv"
    job = f"workflow = freespace\nt_grid = {t}\np_grid = {p}\nout = {out}\n"
    refused = t >= 1e206 or (t == 1e205 and p == 0.999999)
    assert run_cli(tmp_path, job) == (cli.EXIT_DOMAIN if refused else cli.EXIT_OK)
    err = capsys.readouterr().err
    assert ("continuum quadrature weight overflows" in err) == refused
    assert out.exists() != refused


def test_cold_lattice_exit_code(tmp_path):
    out = tmp_path / "cold.csv"
    job = f"workflow = lattice\nlattice_size = 64\nt_over_j = 1e-9\nout = {out}\n"
    assert run_cli(tmp_path, job) == cli.EXIT_OK
    assert (tmp_path / "cold_correlation.csv").exists()


def test_oversized_lattice_exit_code(tmp_path, capsys, monkeypatch):
    # L = 100,000 asks for 1e10 momenta; numpy in lattice is unreachable
    monkeypatch.setattr(lattice, "np", None)
    out = tmp_path / "big.csv"
    job = f"workflow = lattice\nlattice_size = 100000\nout = {out}\n"
    assert run_cli(tmp_path, job) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err == "error: lattice size 100000 needs over 16777216 sites\n"


def _one_entry(r, value):
    """A stand-in lattice function: an (L, L) array, zero but ``value`` at r."""

    def fake(size, temperature):
        values = np.zeros((size, size))
        values[r] = value
        return values

    return fake


# each lattice invariant check, made to fail by one patch of the lattice module
LATTICE_INVARIANTS = {
    "imaginary G": (
        "IMAG_TOL", -1.0, "first-order correlation has a nonzero imaginary part"
    ),
    "onsite": (
        "first_order_correlation",
        _one_entry((0, 0), 2.0),
        "onsite correlation -1.0 outside [0, 1/8]",
    ),
    "imaginary S": (
        "spin_correlation_map",
        _one_entry((1, 0), -0.1),
        "structure factor has a nonzero imaginary part",
    ),
    "negative S": (
        "spin_correlation_map",
        _one_entry((0, 0), -0.1),
        "structure factor significantly negative: -0.1",
    ),
}


@pytest.mark.parametrize("case", sorted(LATTICE_INVARIANTS))
def test_lattice_invariant_failures_exit_code(case, tmp_path, capsys, monkeypatch):
    attr, patch, message = LATTICE_INVARIANTS[case]
    monkeypatch.setattr(lattice, attr, patch)
    out = tmp_path / "maps.csv"
    job = f"workflow = lattice\nlattice_size = 4\nout = {out}\n"
    assert run_cli(tmp_path, job) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_exit_status_counts_failed_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ORACLE_RTOL", 0.0)
    out = tmp_path / "v.csv"
    job = f"workflow = validate\nsamples_fermi = 2\nsamples_bose = 1\nout = {out}\n"
    assert run_cli(tmp_path, job) == 1
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 4 and all(line.endswith(",0") for line in lines[1:])


def test_unconverged_search_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(occupancy, "MAX_ITERATIONS", 1)
    out = tmp_path / "thr.csv"
    job = f"workflow = threshold\nout = {out}\n"
    assert run_cli(tmp_path, job) == cli.EXIT_CONVERGENCE
    assert not out.exists()


def test_output_in_missing_directory_exit_code(tmp_path):
    out = tmp_path / "missing" / "maps.csv"
    job = f"workflow = lattice\nlattice_size = 4\nout = {out}\n"
    assert run_cli(tmp_path, job) == cli.EXIT_IO


def test_non_finite_output_refused(tmp_path, monkeypatch):
    real_map = lattice.spin_correlation_map

    def nan_in_last_row(size, **kwargs):
        cmap = real_map(size, **kwargs)
        cmap[-1, size // 2] = np.nan
        return cmap

    def broken(cmap):
        return np.full(cmap.shape, np.nan)

    for fmt in ("csv", "json"):
        out = tmp_path / f"maps.{fmt}"
        job = f"workflow = lattice\nlattice_size = 4\nout = {out}\nformat = {fmt}\n"
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "structure_factor", broken)
            assert run_cli(tmp_path, job) == cli.EXIT_DOMAIN
        assert (tmp_path / f"maps_correlation.{fmt}").exists()
        assert not (tmp_path / f"maps_structure_factor.{fmt}").exists()

        # rows stream to the file, so the check must come before it is opened
        out = tmp_path / f"nan.{fmt}"
        job = f"workflow = lattice\nlattice_size = 4\nout = {out}\nformat = {fmt}\n"
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "spin_correlation_map", nan_in_last_row)
            assert run_cli(tmp_path, job) == cli.EXIT_DOMAIN
        assert not (tmp_path / f"nan_correlation.{fmt}").exists()
        assert not (tmp_path / f"nan_structure_factor.{fmt}").exists()


def log_uniform(lo, hi):
    """Floats 10^e with e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


TEMPERATURES = log_uniform(-300, 308)


@settings(max_examples=300, deadline=None)
@given(
    workflow=st.sampled_from(["freespace", "threshold", "lattice"]),
    spectrum=st.sampled_from(["continuum", "grid", "trap"]),
    t=TEMPERATURES,
    p=st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.999999]),
    mu_over_homega=log_uniform(-3, 8),
    # half-widths 17-147 pass the patched cap, but the grid's w^4 box
    # convolution makes a 200-step field solve there take seconds
    half_width=st.integers(1, 16) | st.integers(148, 10**6),
    lattice_size=(st.integers(1, 128) | st.integers(129, 2**19)).map(lambda k: 2 * k),
    t_over_j=TEMPERATURES,
)
def test_extreme_configs_exit_with_a_documented_code(tmp_path_factory, **config):
    # with the size cap at 2^16 every spectrum and lattice reaches its refusal
    # at cheap sizes; whatever the point, main returns a documented status,
    # and no exception or RuntimeWarning escapes
    base = tmp_path_factory.getbasetemp()
    t, p = config.pop("t"), config.pop("p")
    job = {**config, "t_grid": [t], "p_grid": [p], "p_target": p}
    path = base / "extreme.json"
    path.write_text(json.dumps({**job, "out": str(base / "extreme.csv")}))
    with mock.patch.object(spectra, "MAX_LEVELS", 2**16), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status = main(["--config", str(path)])
    assert status in (0, 2, 3, 4, 5)


def _reference_output(cfg, csv_head, json_head, rows_key, rows):
    """The writer's bytes as the per-value formatter printed them."""

    def fmt(v):
        return format(float(v), ".12g")

    if cfg.format == "json":
        payload = {
            "config": cfg.as_dict(),
            json_head[0]: json_head[1],
            rows_key: [[float(fmt(v)) for v in row] for row in rows],
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"
    lines = [f"# {key} = {value}" for key, value in sorted(cfg.as_dict().items())]
    lines.append(csv_head)
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _written(path, cfg, csv_head, json_head, rows_key, rows):
    cli._write(path, cfg, csv_head, json_head, rows_key, rows)
    return path.read_text()


TINY = 2.2250738585072014e-308  # smallest normal double

VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e-5, 5e-324, -5e-324, TINY, 1e12, 1e16]),
    st.integers(-(10**13), 10**13).map(float),
    st.floats(-1e16, 1e16).filter(lambda x: abs(x) >= 1e12),
    st.floats(9.99e-6, 1.001e-5),
    st.floats(-TINY, TINY),
)


@st.composite
def value_rows(draw):
    ncols = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(VALUES, min_size=ncols, max_size=ncols), max_size=4))


@settings(max_examples=300, deadline=None)
@given(
    fmt=st.sampled_from(["csv", "json"]),
    layout=st.sampled_from(["table", "map"]),
    rows=value_rows(),
)
def test_writer_bytes_match_per_value_format(tmp_path_factory, fmt, layout, rows):
    path = tmp_path_factory.getbasetemp() / f"writer.{fmt}"
    cfg = build_config({"workflow": "lattice", "format": fmt, "out": str(path)})
    if layout == "table":
        columns = [f"c{i}" for i in range(len(rows[0]) if rows else 2)]
        head = (",".join(columns), ("columns", columns), "rows")
    else:
        head = ("L,8", ("L", 8), "values")
    assert _written(path, cfg, *head, rows) == _reference_output(cfg, *head, rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_bytes_on_fig_lattice_maps(tmp_path, fmt):
    cmap = lattice.spin_correlation_map(64)
    path = tmp_path / f"out.{fmt}"
    cfg = build_config({"workflow": "lattice", "lattice_size": 64, "format": fmt})
    head = ("L,64", ("L", 64), "values")
    for values in (cmap, lattice.structure_factor(cmap)):
        expected = _reference_output(cfg, *head, values)
        assert _written(path, cfg, *head, values) == expected


def test_seed_flag_overrides_config(tmp_path):
    out = tmp_path / "v.csv"
    text = f"workflow = validate\nsamples_fermi = 3\nsamples_bose = 1\nseed = 1\nout = {out}\n"
    assert run_cli(tmp_path, text, "--seed", "42") == 0
    assert "# seed = 42" in out.read_text()


def test_integral_json_numbers_accepted():
    cfg = build_config({"workflow": "lattice", "lattice_size": 8.0, "seed": 3})
    assert cfg.lattice_size == 8 and type(cfg.lattice_size) is int
    assert cfg.seed == 3
