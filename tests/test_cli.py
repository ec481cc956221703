import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from diracloud import cli
from diracloud.cloud import SingularMoment


def write_config(path, text):
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------- config files

def test_config_file_parsing(tmp_path):
    p = write_config(tmp_path / "run.cfg", """
# a comment line
Z = 118        # inline comment
kappa = -2
n_intervals = 200
method = cpg

eps = 1e-5
""")
    kv = cli.read_config_file(p)
    assert kv == {"Z": 118.0, "kappa": -2, "n_intervals": 200,
                  "method": "cpg", "eps": 1e-5}
    assert isinstance(kv["kappa"], int) and isinstance(kv["Z"], float)


def test_config_file_rejects_unknown_keys(tmp_path):
    p = write_config(tmp_path / "bad.cfg", "volume = 3\n")
    with pytest.raises(ValueError):
        cli.read_config_file(p)


def test_config_file_rejects_garbage_lines(tmp_path):
    p = write_config(tmp_path / "bad.cfg", "just words\n")
    with pytest.raises(ValueError):
        cli.read_config_file(p)


def test_cli_flags_override_config_file(tmp_path):
    p = write_config(tmp_path / "run.cfg", "Z = 2\nnu = 1.7\n")
    args = SimpleNamespace(config=p,
                           **{f.name: None for f in dataclasses.fields(cli.RunConfig)})
    args.Z = 3.0
    cfg = cli.build_config(args)
    assert cfg.Z == 3.0          # flag wins
    assert cfg.nu == 1.7         # file fills the rest
    assert cfg.n_intervals == 600  # defaults below both


# -------------------------------------------------------------- exit codes

def test_invalid_grid_is_a_config_error(capsys):
    rc = cli.main(["solve", "--n-intervals", "1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_supercritical_charge_is_a_config_error(monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        pytest.fail("a supercritical config reached the weak-form assembly")
    monkeypatch.setattr(cli, "assemble_weak_form", no_assembly)
    rc = cli.main(["solve", "--Z", "140", "--kappa", "-1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_convergence_needs_three_counts(capsys):
    rc = cli.main(["convergence", "--n-values", "30,40"])
    assert rc == 2


def test_solver_breakdown_is_a_numerical_error(monkeypatch, capsys):
    def boom(cfg):
        raise SingularMoment("moment matrix broke down at x = 1")
    monkeypatch.setattr(cli, "run_solve", boom)
    rc = cli.main(["solve", "--n-intervals", "40"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


# --------------------------------------------------------------- solve runs

HYDROGEN_ARGS = ["--Z", "1", "--kappa", "-1", "--n-intervals", "40",
                 "--method", "galerkin", "--levels", "3"]


def parse_solve_csv(path):
    header, cols, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            header[k.strip()] = v.strip()
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append(line.split(","))
    return header, cols, rows


def test_solve_writes_csv_and_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve"] + HYDROGEN_ARGS) == 0

    header, cols, rows = parse_solve_csv(tmp_path / "solve.csv")
    assert cols == ["level", "computed_shifted", "exact_shifted",
                    "relative_error", "flag"]
    assert header["Z"] == "1" and header["method"] == "galerkin"
    genuine = [r for r in rows if r[4] == "genuine"]
    assert [r[0] for r in genuine] == ["1", "2", "3"]
    assert float(genuine[0][1]) == pytest.approx(-0.5, rel=1e-3)

    payload = json.loads((tmp_path / "solve.json").read_text())
    assert set(payload) == {"config", "report"}
    field_names = {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert set(payload["config"]) == field_names
    rep = payload["report"]
    assert set(rep) == {"n_eigenvalues", "n_complex", "positive_shifted",
                        "flags", "matches"}
    assert rep["n_complex"] == 0
    assert rep["matches"][0]["level"] == 1

    # the 13-digit CSV text round-trips against the JSON doubles
    assert float(genuine[0][1]) == pytest.approx(rep["matches"][0]["computed"],
                                                 rel=1e-12)


def test_solve_output_is_deterministic(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        monkeypatch.chdir(d)
        assert cli.main(["solve"] + HYDROGEN_ARGS) == 0
    assert (a / "solve.csv").read_bytes() == (b / "solve.csv").read_bytes()
    assert (a / "solve.json").read_bytes() == (b / "solve.json").read_bytes()


def test_solve_with_zero_levels_writes_header_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--Z", "1", "--n-intervals", "40",
            "--method", "galerkin", "--levels", "0"]
    assert cli.main(argv) == 0
    _, cols, rows = parse_solve_csv(tmp_path / "solve.csv")
    assert cols is not None and rows == []


def test_output_dir_env_redirects_files(tmp_path, monkeypatch):
    workdir, outdir = tmp_path / "w", tmp_path / "o"
    workdir.mkdir(), outdir.mkdir()
    monkeypatch.chdir(workdir)
    monkeypatch.setenv(cli.OUTDIR_ENV, str(outdir))
    assert cli.main(["solve"] + HYDROGEN_ARGS) == 0
    assert (outdir / "solve.csv").exists()
    assert not (workdir / "solve.csv").exists()


def test_explicit_output_path(tmp_path):
    out = tmp_path / "hydro.csv"
    assert cli.main(["solve"] + HYDROGEN_ARGS + ["--output", str(out)]) == 0
    assert out.exists() and (tmp_path / "hydro.json").exists()


def test_stabilized_methods_run_from_the_cli(tmp_path):
    out = tmp_path / "fem.csv"
    argv = ["solve"] + HYDROGEN_ARGS[:-2] + ["--levels", "1",
            "--method", "cpg_fem_tau", "--output", str(out)]
    assert cli.main(argv) == 0
    _, _, rows = parse_solve_csv(out)
    assert rows[0][4] == "genuine"


# ------------------------------------------------------------ sweep + rates

def test_sweep_varies_one_parameter(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--Z", "1", "--n-intervals", "40", "--method", "galerkin",
            "--levels", "2", "--vary", "nu", "--values", "2.2,2.4",
            "--output", str(out)]
    assert cli.main(argv) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "param_value,level,computed,exact,rel_error"
    body = [l.split(",") for l in lines[1:]]
    assert len(body) == 4
    assert sorted({r[0] for r in body}) == ["2.2", "2.4"]
    assert [r[1] for r in body] == ["1", "2", "1", "2"]


def test_rates_from_errors_recovers_quadratic():
    samples = {1: [(0.4, 0.16), (0.2, 0.04), (0.1, 0.01)]}
    assert cli.rates_from_errors(samples)[1] == pytest.approx(2.0, abs=1e-10)


def test_convergence_command_writes_rates(tmp_path):
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--Z", "1", "--method", "galerkin",
            "--n-values", "30,40,50", "--output", str(out)]
    assert cli.main(argv) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "n,level,h,computed,exact,rel_error"
    split = lines.index("level,rate")
    body = [l.split(",") for l in lines[1:split]]
    assert {r[0] for r in body} == {"30", "40", "50"}
    rates = [l.split(",") for l in lines[split + 1:]]
    assert [r[0] for r in rates] == ["1", "2", "3", "4", "5"]
    assert all(np.isfinite(float(r[1])) for r in rates)


# ------------------------------------------------------------ matrix dumps

def test_dump_matrices_writes_every_block(tmp_path):
    out = tmp_path / "mats"
    argv = ["dump-matrices", "--Z", "1", "--n-intervals", "20",
            "--method", "galerkin", "--output", str(out)]
    assert cli.main(argv) == 0
    names = {"M_000", "M_010", "M_001", "M_100", "M_110", "M_101",
             "M_000_V", "M_100_V", "A", "B", "script_A", "script_B"}
    for name in names:
        assert (out / f"{name}.txt").exists()
    tau = np.loadtxt(out / "tau.txt")
    assert tau.shape == (19,)
    assert np.all(tau == 0.0)  # plain method stores a zero tau

    first, *triplets = (out / "M_000.txt").read_text().splitlines()
    assert first == "# M_000 19x19"
    assert len(triplets) == 19 * 19
    i, j, v = triplets[0].split()
    assert (i, j) == ("1", "1") and float(v) > 0.0

    a_header = (out / "A.txt").read_text().splitlines()[0]
    assert a_header == "# A 38x38"

    # the dumped pencil is the one a solve of the same config builds
    system = cli.run_solve(cli.RunConfig(Z=1.0, n_intervals=20,
                                         method="galerkin")).system
    for name in ("A", "B"):
        i, j, v = np.loadtxt(out / f"{name}.txt", unpack=True)
        dumped = np.zeros((38, 38))
        dumped[i.astype(int) - 1, j.astype(int) - 1] = v
        assert len(v) == 38 * 38
        assert np.array_equal(dumped, getattr(system, name))
    assert np.array_equal(tau, system.tau)
