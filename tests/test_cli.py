import dataclasses
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import exp_basis, reference_dump, refuse_dense
from diracloud import assembly, cli, eigen
from diracloud.band import Band
from diracloud.cli import dump_matrix
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


@pytest.mark.parametrize("name", ["bogus", "hydrogenic:0,0", "hydrogenic:1,0"])
def test_invalid_enrichment_is_rejected_by_the_config(name):
    with pytest.raises(ValueError, match="unknown enrichment"):
        cli.RunConfig(enrichment=name)


@pytest.mark.parametrize("argv", [
    ["sweep", "--vary", "n_intervals", "--values", "200,300,1"],
    ["sweep", "--vary", "method", "--values", "cpg,bogus"],
    ["convergence", "--n-values", "200,300,1"],
    ["solve", "--enrichment", "bogus"],
    ["solve", "--levels", "-1"],
    ["solve", "--quadrature-factor", "3"],
    ["solve", "--enrichment", "hydrogenic:1,0"],
    ["convergence", "--n-values", "300,300,300"],
    ["solve", "--m", "0"],
    ["solve", "--m", "-1"],
    ["solve", "--m", "nan"],
    ["solve", "--c", "nan"],
    ["solve", "--Z", "nan"],
    ["solve", "--Z", "inf", "--levels", "0"],
    ["solve", "--A", "nan", "--nucleus", "extended_uniform"],
    ["solve", "--nu", "nan"],
    ["solve", "--Ib", "nan"],
    ["solve", "--Ia", "nan"],
    ["sweep", "--vary", "nu", "--values", ","],
    ["solve", "--Z", "0", "--levels", "2"],
], ids=["sweep-n", "sweep-method", "convergence", "enrichment", "levels",
        "quadrature-factor", "hydrogenic", "convergence-one-count", "m-zero",
        "m-negative", "m-nan", "c-nan", "Z-nan", "Z-inf", "A-nan", "nu-nan", "Ib-nan",
        "Ia-nan", "sweep-empty", "Z-zero-levels"])
def test_bad_values_exit_before_any_assembly(argv, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "assemble_pencil", lambda cfg: calls.append(cfg))
    # the flags of argv come last, so they override these
    rc = cli.main(argv[:1] + ["--Z", "118", "--kappa", "-2"] + argv[1:])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["sweep", "--vary", "nu", "--values", "1.5,2.2"],
    ["convergence", "--n-values", "30,40,50"],
    ["dump-matrices"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_before_any_assembly(argv, monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(cli, "assemble_pencil", lambda cfg: calls.append(cfg))
    taken = tmp_path / "taken"
    taken.write_text("")
    dirs = [tmp_path / name for name in ("outdir", "x.csv", "y.json")]
    for d in dirs:
        d.mkdir()
    outdir, csv_dir, _ = dirs
    # a missing directory, a file where a directory should be, and for
    # dump-matrices a file where its own directory should be; for the
    # others a file output that names a directory: a trailing separator,
    # or an existing directory in the place of a file (solve writes
    # <root>.csv and <root>.json, and y.json is a directory)
    outputs = [tmp_path / "missing" / "out.csv", taken / "out.csv"]
    if argv[0] == "dump-matrices":
        outputs += [taken, f"{taken}/"]
    elif argv[0] == "solve":
        outputs += [f"{outdir}/", csv_dir, tmp_path / "y"]
    else:
        outputs += [f"{outdir}/", outdir, csv_dir]
    for out in outputs:
        assert cli.main(argv + ["--n-intervals", "40", "--output", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
    assert calls == []
    assert sorted(tmp_path.iterdir()) == sorted([taken] + dirs)
    assert not any(any(d.iterdir()) for d in dirs)


def test_supercritical_charge_is_a_config_error(monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        pytest.fail("a supercritical config reached the weak-form assembly")
    monkeypatch.setattr(cli, "assemble_weak_form", no_assembly)
    rc = cli.main(["solve", "--Z", "140", "--kappa", "-1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(ValueError, match="kappa"):
        cli.RunConfig(Z=140.0, kappa=-1)
    # with no levels to match, a negative kappa needs no closed form
    cli.RunConfig(Z=140.0, kappa=-1, levels=0)


def test_zero_charge_runs_only_without_levels(tmp_path, capsys):
    # Z = 0 has no bound level to match a computed one against
    out = tmp_path / "free.csv"
    argv = ["solve", "--Z", "0", "--kappa", "-1", "--n-intervals", "40",
            "--output", str(out)]
    assert cli.main(argv + ["--levels", "2"]) == 2
    assert "set levels = 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert cli.main(argv + ["--levels", "0"]) == 0
    _, cols, rows = parse_solve_csv(out)
    assert cols is not None and rows == []
    json.loads(out.with_suffix(".json").read_text(),
               parse_constant=lambda name: pytest.fail(f"{name} in the JSON twin"))


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


def test_non_positive_definite_galerkin_mass_is_a_numerical_error(monkeypatch, capsys,
                                                                 tmp_path):
    # a mass matrix with a positive diagonal but no Cholesky factor: the
    # inertia window gives up, and the dense eigh path stops the run
    assemble = cli.assemble_system

    def indefinite(*args, **kwargs):
        out = assemble(*args, **kwargs)
        # B[0, 1] = B[1, 0] = 2 sqrt(B[0, 0] B[1, 1]) in the stored band,
        # where block-order unknowns 0 and 1 sit at 0 and 2
        B, k = out.bands["B"].data, out.bands["B"].k
        B[k - 2, 2] = B[k + 2, 0] = 2.0 * np.sqrt(B[k, 0] * B[k, 2])
        return out

    monkeypatch.setattr(cli, "assemble_system", indefinite)
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["solve"] + HYDROGEN_ARGS)
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_dense_fallback_past_memory_is_a_numerical_error(monkeypatch, capsys, tmp_path):
    # with no levels the solve goes dense; past the bound it stops with
    # exit 3 before any matrix is densified: the traced peak from the
    # solve's start on stays less than one dense copy above what was
    # held there, and no output is written
    monkeypatch.setattr(eigen, "DENSE_COPIES", 10 ** 12)
    solve, held = cli.solve_generalized, []

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_generalized", traced)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        rc = cli.main(["solve", "--Z", "118", "--kappa", "-2", "--levels", "0",
                       "--n-intervals", "40"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    n = 78  # the pencil's order at 40 intervals
    assert (f"numerical failure: dense fallback: order {n} needs {10 ** 12 * 8 * n * n} "
            "bytes") in capsys.readouterr().err
    assert peak - held[0] < 8 * n * n
    assert list(tmp_path.iterdir()) == []


def test_weak_form_breakdown_is_a_numerical_error(monkeypatch, capsys):
    # exp(-118 s) overflows the moment diagonal of the batched shape pass
    # mid-domain on the n=200 grid; the run stops there with exit 3
    monkeypatch.setattr(cli, "basis_from_name", lambda name: exp_basis(118.0))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["solve", "--Z", "118", "--n-intervals", "200"])
    assert rc == 3
    assert "moment diagonal not positive at x=21.556" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "dump-matrices"])
def test_nonfinite_weak_form_is_a_numerical_error(command, monkeypatch, tmp_path, capsys):
    # a NaN potential at one quadrature point passes every moment check
    # and poisons only the _V blocks.  The weak form stops there, before
    # tau, the eigensolve or any output file
    potential = assembly.potential

    def nan_at_one_point(sys, x):
        v = potential(sys, x)
        v[0] = np.nan  # n=40 has 400 quadrature points: one chunk, one call
        return v

    monkeypatch.setattr(assembly, "potential", nan_at_one_point)
    rc = cli.main([command] + HYDROGEN_ARGS + ["--output", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: weak-form block M_000_V has non-finite entries" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_module_runs_as_main_without_a_second_copy():
    # importing the package must not import diracloud.cli, or running it
    # with -m warns and executes a second copy of the module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "diracloud.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------- CLI surface

# a valid value other than the default for every RunConfig field, under
# the flag that sets it
FLAG_VALUES = {
    "--n-intervals": ("n_intervals", "60"),
    "--Ia": ("I_a", "0.5"),
    "--Ib": ("I_b", "90"),
    "--eps": ("eps", "2e-5"),
    "--nu": ("nu", "2.4"),
    "--Z": ("Z", "10"),
    "--A": ("A", "20"),
    "--kappa": ("kappa", "2"),
    "--c": ("c", "150"),
    "--m": ("m", "2"),
    "--nucleus": ("nucleus", "extended_uniform"),
    "--method": ("method", "galerkin"),
    "--enrichment": ("enrichment", "shepard"),
    "--quadrature-factor": ("quadrature_factor", "8"),
    "--levels": ("levels", "3"),
    "--output": ("output_path", "run.csv"),
}

COMMAND_ARGS = {
    "solve": [],
    "sweep": ["--vary", "nu", "--values", "2.2,2.4"],
    "convergence": ["--n-values", "30,40,50"],
    "dump-matrices": [],
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_every_field_has_one_flag(command, monkeypatch, tmp_path):
    fields = {f.name: f.type for f in dataclasses.fields(cli.RunConfig)}
    keys = [key for key, _ in FLAG_VALUES.values()]
    assert sorted(keys) == sorted(fields), "one flag per RunConfig field"
    seen = []
    for name in ("cmd_solve", "cmd_sweep", "cmd_convergence", "cmd_dump_matrices"):
        monkeypatch.setattr(cli, name, lambda cfg, *rest: seen.append(cfg) or 0)
    argv = [command] + COMMAND_ARGS[command]
    for flag, (_, raw) in FLAG_VALUES.items():
        argv += [flag, raw]
    assert cli.main(argv) == 0
    cfg, = seen
    defaults = cli.RunConfig()
    for flag, (key, raw) in FLAG_VALUES.items():
        got = getattr(cfg, key)
        assert got == fields[key](raw) and type(got) is fields[key], flag
        assert got != getattr(defaults, key), flag
    # a config file with the same values gives the same config
    p = write_config(tmp_path / "all.cfg", "".join(
        f"{key} = {raw}\n" for key, raw in FLAG_VALUES.values()))
    assert cli.main([command] + COMMAND_ARGS[command] + ["--config", p]) == 0
    assert seen[1] == cfg


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
                        "flags", "matches", "eigen_path", "eigen_window"}
    assert rep["n_complex"] == 0
    assert rep["eigen_path"] == "inertia"
    # the inertia count covers the whole window in one slice, without contour nodes
    win = rep["eigen_window"]
    assert win["fallback"] is None and win["slice_nodes"] is None
    assert win["contour_aspect"] is None
    assert win["lo"] == pytest.approx(-cli.RunConfig(Z=1.0).physical_system().mc2,
                                      rel=1e-12)
    assert win["slice_edges"] == [win["lo"], win["hi"]]
    assert win["slice_counts"] == [rep["n_eigenvalues"]] == [3]
    assert rep["matches"][0]["level"] == 1

    # the 13-digit CSV text round-trips against the JSON doubles
    assert float(genuine[0][1]) == pytest.approx(rep["matches"][0]["computed"],
                                                 rel=1e-12)


CPG_WINDOW_ARGS = ["--Z", "118", "--kappa", "-2", "--n-intervals", "200",
                   "--method", "cpg"]


def test_the_weak_form_is_freed_before_the_solve(monkeypatch):
    # nothing holds the weak-form blocks once the pencil is built
    refs, alive = [], []

    def assemble(*args):
        wfm = assemble_weak_form(*args)
        refs.append(weakref.ref(wfm))
        return wfm

    def solve(*args, **kwargs):
        gc.collect()
        alive.append(refs[0]() is not None)
        return solve_generalized(*args, **kwargs)

    assemble_weak_form, solve_generalized = cli.assemble_weak_form, cli.solve_generalized
    monkeypatch.setattr(cli, "assemble_weak_form", assemble)
    monkeypatch.setattr(cli, "solve_generalized", solve)
    for method in ("galerkin", "cpg"):
        refs.clear()
        res = cli.run_solve(cli.RunConfig(Z=118.0, kappa=-2, method=method,
                                          n_intervals=60))
        assert len(refs) == 1 and res.report.matches
    assert alive == [False, False]


def test_solve_output_is_deterministic(tmp_path, monkeypatch):
    # a galerkin run on the inertia window and a cpg run on the contour one
    for name, argv in (("galerkin", HYDROGEN_ARGS), ("cpg", CPG_WINDOW_ARGS)):
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        for d in (a, b):
            d.mkdir(parents=True)
            monkeypatch.chdir(d)
            assert cli.main(["solve"] + argv) == 0
        assert (a / "solve.csv").read_bytes() == (b / "solve.csv").read_bytes()
        assert (a / "solve.json").read_bytes() == (b / "solve.json").read_bytes()


def test_json_twin_records_the_window(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve"] + CPG_WINDOW_ARGS) == 0
    rep = json.loads((tmp_path / "solve.json").read_text())["report"]
    assert rep["eigen_path"] == "window"
    win = rep["eigen_window"]
    assert set(win) == {"lo", "hi", "slice_edges", "slice_counts", "slice_nodes",
                        "contour_aspect", "fallback"}
    assert win["fallback"] is None
    # the slices' contours are ellipses with semi-axes r and r/2
    assert win["contour_aspect"] == 0.5
    mc2 = cli.RunConfig().physical_system().mc2
    assert win["lo"] == pytest.approx(-mc2, rel=1e-12)
    assert win["slice_edges"][0] == win["lo"] and win["slice_edges"][-1] == win["hi"]
    assert len(win["slice_counts"]) == len(win["slice_nodes"]) == len(win["slice_edges"]) - 1
    assert all(2 <= m <= 12 for m in win["slice_nodes"])
    # the counts describe what was computed: the window, 15 levels
    assert sum(win["slice_counts"]) == rep["n_eigenvalues"] == 15
    assert len(rep["positive_shifted"]) == 15
    assert max(rep["positive_shifted"]) <= win["hi"]


def test_the_default_run_is_the_papers_case_on_its_window(tmp_path, monkeypatch):
    # solve with no flags is Z=118, kappa=-2: it keeps the certified window
    # and writes what the same run with those flags given writes
    for name, flags in (("default", []), ("flagged", ["--Z", "118", "--kappa", "-2"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert cli.main(["solve"] + flags) == 0
    default, flagged = tmp_path / "default", tmp_path / "flagged"
    rep = json.loads((default / "solve.json").read_text())["report"]
    assert rep["eigen_path"] == "window" and rep["eigen_window"]["fallback"] is None
    assert [m["level"] for m in rep["matches"]] == list(range(1, 16))
    for out in ("solve.csv", "solve.json"):
        assert (default / out).read_bytes() == (flagged / out).read_bytes(), out


def test_solve_with_zero_levels_writes_header_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--Z", "1", "--kappa", "-1", "--n-intervals", "40",
            "--method", "galerkin", "--levels", "0"]
    assert cli.main(argv) == 0
    _, cols, rows = parse_solve_csv(tmp_path / "solve.csv")
    assert cols is not None and rows == []


def test_instilled_state_gets_a_row_without_a_level(tmp_path, monkeypatch, capsys):
    # the n=200 galerkin pencil instills one state between levels 11 and 12
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--Z", "118", "--kappa", "-2", "--n-intervals", "200",
            "--method", "galerkin"]
    assert cli.main(argv) == 0
    _, _, rows = parse_solve_csv(tmp_path / "solve.csv")
    assert [r[0] for r in rows] == [str(lv) for lv in range(1, 12)] + [""] + [
        str(lv) for lv in range(12, 16)]
    _, computed, exact, rel_error, flag = rows[11]
    assert (exact, rel_error, flag) == ("", "", "instilled_spurious")
    assert float(computed) == pytest.approx(-43.35197, abs=1e-5)
    printed = capsys.readouterr().out.splitlines()
    assert f"flagged    {float(computed): .10e}  instilled_spurious" in printed


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

def test_sweep_varies_one_parameter(tmp_path, monkeypatch):
    # one float, one str and one int field: each value reaches the run
    # with the type of its RunConfig field
    seen = []
    run_solve = cli.run_solve
    monkeypatch.setattr(cli, "run_solve", lambda cfg: seen.append(cfg) or run_solve(cfg))
    for vary, values, want in (("nu", "2.2,2.4", [2.2, 2.4]),
                               ("method", "galerkin,cpg", ["galerkin", "cpg"]),
                               ("n_intervals", "40,50", [40, 50])):
        out = tmp_path / f"sweep_{vary}.csv"
        argv = ["sweep", "--Z", "1", "--kappa", "-1", "--n-intervals", "40",
                "--method", "galerkin", "--levels", "2", "--vary", vary, "--values", values,
                "--output", str(out)]
        seen.clear()
        assert cli.main(argv) == 0
        got = [getattr(cfg, vary) for cfg in seen]
        assert got == want and list(map(type, got)) == list(map(type, want)), vary
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "param_value,level,computed,exact,rel_error"
        body = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in body] == [str(v) for v in want for _ in (1, 2)], vary
        assert [r[1] for r in body] == ["1", "2", "1", "2"], vary


def test_rates_from_errors_recovers_quadratic():
    samples = {1: [(0.4, 0.16), (0.2, 0.04), (0.1, 0.01)]}
    assert cli.rates_from_errors(samples)[1] == pytest.approx(2.0, abs=1e-10)


def test_convergence_command_writes_rates(tmp_path):
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--Z", "1", "--kappa", "-1", "--method", "galerkin",
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
    argv = ["dump-matrices", "--Z", "1", "--kappa", "-1", "--n-intervals", "20",
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
    system = cli.run_solve(cli.RunConfig(Z=1.0, kappa=-1, n_intervals=20,
                                         method="galerkin")).system
    for name in ("A", "B"):
        i, j, v = np.loadtxt(out / f"{name}.txt", unpack=True)
        dumped = np.zeros((38, 38))
        dumped[i.astype(int) - 1, j.astype(int) - 1] = v
        assert len(v) == 38 * 38
        assert np.array_equal(dumped, getattr(system, name))
    assert np.array_equal(tau, system.tau)


@pytest.mark.parametrize("method, n", [("cpg", 20), ("cpg", 100), ("galerkin", 20),
                                       ("cpg_fem_tau", 20)],
                         ids=["20", "100", "galerkin-20", "cpg_fem_tau-20"])
def test_dump_matrices_files_match_per_entry_writer(tmp_path, monkeypatch, method, n):
    # galerkin is the tau = 0 pencil, whose residual blocks stay unscaled.
    # The blocks are densified here, before the dump, which densifies none
    _, wfm, system = cli.assemble_pencil(cli.RunConfig(Z=1.0, kappa=-1, n_intervals=n,
                                                       method=method))
    blocks = {name: getattr(wfm, name) for name in wfm.NAMES}
    blocks.update(A=system.A, B=system.B,
                  script_A=system.script_A, script_B=system.script_B)
    monkeypatch.setattr(Band, "dense", refuse_dense)
    out = tmp_path / "mats"
    assert cli.main(["dump-matrices", "--Z", "1", "--kappa", "-1", "--n-intervals", str(n),
                     "--method", method, "--output", str(out)]) == 0
    for name, mat in blocks.items():
        reference_dump(tmp_path / "ref.txt", mat, name=name)
        assert (out / f"{name}.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes(), name
    np.savetxt(tmp_path / "tau.txt", system.tau)
    assert (out / "tau.txt").read_bytes() == (tmp_path / "tau.txt").read_bytes()


def test_dump_matrices_calls_dump_matrix_once_per_block(tmp_path, monkeypatch):
    # the benchmark's assembly.dump_* metrics wrap cli.dump_matrix by name
    # and read the path and the matrix from its positional arguments
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return dump_matrix(*args, **kwargs)
    monkeypatch.setattr(cli, "dump_matrix", record)
    out = tmp_path / "mats"
    assert cli.main(["dump-matrices", "--n-intervals", "20", "--method", "cpg",
                     "--output", str(out)]) == 0
    _, wfm, system = cli.assemble_pencil(cli.RunConfig(n_intervals=20, method="cpg"))
    assert len(calls) == 12
    for (path, mat), kwargs in calls:
        # what the benchmark's observer reads of the block
        owner = wfm if kwargs["name"] in wfm.NAMES else system
        assert np.array_equal(np.asarray(mat), getattr(owner, kwargs["name"]))
        assert path == os.path.join(out, kwargs["name"] + ".txt")
        assert os.path.getsize(path) > 0
