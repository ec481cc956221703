"""Config-driven command line driver.

Subcommands: solve (one spectrum + classification), sweep (one parameter
over a value list, long-format CSV), convergence (node-count study with
per-level rates), dump-matrices (text triplets of every assembled
block).  Configs are flat key = value files with CLI flag overrides;
every output embeds the effective config so results are self-describing.
Runs are fully deterministic: same config, byte-identical CSV.  This
module writes every file a command makes, the dump's triplets included.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""
import argparse
import dataclasses
import json
import os
import sys as _sys
from dataclasses import dataclass

import numpy as np

from .assembly import (DegenerateTau, METHODS, assemble_system, assemble_weak_form,
                       build_quadrature)
from .cloud import SingularMoment, build_cloud_basis
from .eigen import (FLAG_GENUINE, FLAG_TAIL, EmptySpectrum, SpectrumReport,
                    bound_window, check_spectrum_reality, classify_spectrum,
                    convergence_rate, solve_generalized)
from .enrichment import basis_from_name
from .grid import GridConfig, generate_grid
from .physics import C_LIGHT, NUCLEI, PhysicalSystem, exact_eigenvalue

CONFIG_ERROR, NUMERICAL_ERROR = 2, 3
# dump file buffer: the default 8 KiB holds about one ~6 KB row of the n=300
# pencil, so each row would be its own write(2); this holds ~20
_DUMP_BUFFER = 128 * 1024


@dataclass(frozen=True)
class RunConfig:
    # grid
    n_intervals: int = 600
    I_a: float = 0.0
    I_b: float = 100.0
    eps: float = 1e-5
    nu: float = 2.2
    # physics; Z and kappa default to the paper's case
    Z: float = 118.0
    A: float = 0.0
    kappa: int = -2
    c: float = C_LIGHT
    m: float = 1.0
    nucleus: str = "point"
    # run
    method: str = "cpg"
    enrichment: str = "sto"
    quadrature_factor: int = 10
    levels: int = 15
    output_path: str = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if self.quadrature_factor < 2 or self.quadrature_factor % 2:
            raise ValueError("quadrature_factor must be even and >= 2")
        # cross-field checks delegate to the component configs
        self.grid_config()
        sys = self.physical_system()
        basis_from_name(self.enrichment)
        if self.levels > 0 and self.Z == 0:
            # a free particle has no bound level to match: every relative
            # error would divide by an exact level of 0
            raise ValueError("levels > 0 needs Z > 0: set levels = 0 for Z = 0")
        if self.levels > 0 or self.kappa > 0:
            # classification needs the closed-form levels: a supercritical
            # Z/kappa pair fails here
            exact_eigenvalue(sys, 1)

    def grid_config(self) -> GridConfig:
        return GridConfig(n_intervals=self.n_intervals, I_a=self.I_a,
                          I_b=self.I_b, eps=self.eps, nu=self.nu)

    def physical_system(self) -> PhysicalSystem:
        return PhysicalSystem(Z=self.Z, kappa=self.kappa, A=self.A, c=self.c,
                              m=self.m, nucleus=self.nucleus)

    def as_dict(self):
        return dataclasses.asdict(self)


@dataclass(frozen=True, eq=False)
class RunResult:
    config: RunConfig
    grid: object
    system: object
    report: SpectrumReport    # its raw is what the eigen path computed: the window or all
    eigen_path: str           # inertia, window, lu_dgeev, qz or eigh
    eigen_window: dict = None  # the window record (shifted), when one was asked for


def assemble_pencil(cfg: RunConfig):
    """Grid -> clouds -> weak form -> system; returns (grid, wfm, system)."""
    grid = generate_grid(cfg.grid_config())
    sys = cfg.physical_system()
    cb = build_cloud_basis(grid, basis=basis_from_name(cfg.enrichment))
    split = sys.nucleus_radius if sys.nucleus == "extended_uniform" else None
    quad = build_quadrature(grid, cfg.quadrature_factor, split_at=split)
    wfm = assemble_weak_form(cb, sys, quad)
    return grid, wfm, assemble_system(wfm, sys, cfg.method, grid=grid)


def run_solve(cfg: RunConfig) -> RunResult:
    """Pencil -> eigensolve -> classification."""
    sys = cfg.physical_system()
    grid, wfm, system = assemble_pencil(cfg)
    del wfm  # the weak form is not read again: free it before the solve
    # the unperturbed pencil is symmetric with B SPD (the window counted
    # by inertia on the band, or eigh for everything); the row-scaled
    # variants are not (the window certified by contour moments, or LU +
    # dgeev for everything).  Either solves only the bound window when
    # levels are matched, everything otherwise or when the window is
    # given up.  The banded pencil goes in as it is: only the dense
    # paths densify it.
    symmetric = not np.any(system.tau != 0.0)
    window = bound_window(sys, cfg.levels) if cfg.levels > 0 else None
    info = {}
    eigs = solve_generalized(system.bands["A"], system.bands["B"],
                             symmetric_definite=symmetric, window=window, info=info)
    check_spectrum_reality(eigs)
    report = classify_spectrum(eigs, sys, levels=cfg.levels)
    return RunResult(config=cfg, grid=grid, system=system, report=report,
                     eigen_path=info["path"],
                     eigen_window=_shifted_window(info.get("window"), sys.mc2))


def _shifted_window(rec, mc2):
    """The eigen layer's window record with its energies shifted by -mc^2."""
    if rec is None:
        return None
    edges = rec["slice_edges"]
    return dict(rec, lo=rec["lo"] - mc2, hi=rec["hi"] - mc2,
                slice_edges=None if edges is None else [e - mc2 for e in edges])


# ---------------------------------------------------------------- output


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.13g}"
    return "" if v is None else str(v)


def _resolve_output(path, *suffixes):
    """path, checked before any assembly: OSError unless the directory
    holding it exists and is writable.  With suffixes, path names the
    files path + suffix that a command writes, and it is an error when
    one of them would be a directory: path ends in a separator, or
    path + suffix is an existing directory."""
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise OSError(f"output directory {parent!r} is missing or not writable")
    if suffixes and (not os.path.basename(path)
                     or any(os.path.isdir(path + s) for s in suffixes)):
        raise IsADirectoryError(f"output {path!r} names a directory, not a file")
    return path


def _config_header(cfg: RunConfig):
    return [f"# {k} = {_fmt(v)}" for k, v in cfg.as_dict().items()]


def solve_rows(report: SpectrumReport):
    """CSV rows for one classified spectrum: genuine levels carry their
    level number; flagged in-window values get an empty level field."""
    rows = []
    gen_idx = [i for i, f in enumerate(report.flags) if f == FLAG_GENUINE]
    match_at = dict(zip(gen_idx, report.matches))  # both ascend in value
    last = gen_idx[-1] if gen_idx else -1
    for i, (v, f) in enumerate(zip(report.positive_shifted, report.flags)):
        if i > last:
            break
        if f == FLAG_GENUINE:
            m = match_at[i]
            rows.append((m.level, m.computed, m.exact, m.rel_error, f))
        elif f != FLAG_TAIL:
            rows.append((None, float(v), None, None, f))
    return rows


def _write_csv(path, cfg, *sections):
    """The config header, then per (column header, rows) section the
    header line and one comma-joined line per row."""
    lines = _config_header(cfg)
    for columns, rows in sections:
        lines.append(columns)
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_solve_csv(path, res: RunResult):
    _write_csv(path, res.config, ("level,computed_shifted,exact_shifted,relative_error,flag",
                                  solve_rows(res.report)))


def report_as_dict(res: RunResult):
    """The JSON twin's report.  n_eigenvalues, n_complex and
    positive_shifted describe what the eigen path computed: the bound
    window on the window and inertia paths, every eigenvalue on the
    others."""
    report = res.report
    return {
        "n_eigenvalues": len(report.raw),
        "n_complex": report.n_complex,
        "positive_shifted": [float(v) for v in report.positive_shifted],
        "flags": list(report.flags),
        "matches": [dataclasses.asdict(m) for m in report.matches],
        "eigen_path": res.eigen_path,
        "eigen_window": res.eigen_window,
    }


def write_solve_json(path, res: RunResult):
    payload = {"config": res.config.as_dict(), "report": report_as_dict(res)}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def dump_matrix(path, band, name):
    """Every entry of the block as a 'row col value' line (1-based,
    '%.17g') after a '# name nxn' line.  The entries that are not +0.0
    come from the band's slots (Band.nonzeros, no n x n copy); each row
    patches them from per-column templates into one list of ' col 0'
    suffixes, and the file goes out in 128 KiB writes.  Memory: the
    nonzeros (positions and values), one row and the write buffer."""
    n = band.n
    zero = [f" {j} 0\n" for j in range(1, n + 1)]
    fmt = [f" {j} %.17g\n" for j in range(1, n + 1)]
    line = zero.copy()
    ii, jj, vals = band.nonzeros()
    ends = np.searchsorted(ii, np.arange(n + 1)).tolist()
    with open(path, "w", buffering=_DUMP_BUFFER) as f:
        f.write(f"# {name} {n}x{n}\n")
        for i in range(n):
            js = jj[ends[i]:ends[i + 1]].tolist()
            for j, v in zip(js, vals[ends[i]:ends[i + 1]].tolist()):
                line[j] = fmt[j] % v
            r = str(i + 1)
            f.write(r + r.join(line))
            for j in js:
                line[j] = zero[j]


# ---------------------------------------------------------------- commands


def cmd_solve(cfg: RunConfig) -> int:
    base = cfg.output_path or "solve.csv"
    root = _resolve_output(base[:-4] if base.endswith(".csv") else base,
                           ".csv", ".json")
    res = run_solve(cfg)
    write_solve_csv(root + ".csv", res)
    write_solve_json(root + ".json", res)
    for m in res.report.matches:
        print(f"level {m.level:3d}  {m.computed: .10e}  exact {m.exact: .10e}  "
              f"rel {m.rel_error:.2e}")
    for row in solve_rows(res.report):
        if row[4] != FLAG_GENUINE:
            print(f"flagged    {row[1]: .10e}  {row[4]}")
    print(f"wrote {root}.csv, {root}.json")
    return 0


SWEEPABLE = ("nu", "eps", "n_intervals", "quadrature_factor", "method")


def cmd_sweep(cfg: RunConfig, vary: str, values) -> int:
    if vary not in SWEEPABLE:
        raise ValueError(f"cannot sweep {vary!r}; choose from {SWEEPABLE}")
    if not values:
        raise ValueError("sweep needs at least one value")
    # every value and the output are validated before the first solve runs
    subs = [dataclasses.replace(cfg, **{vary: val}) for val in values]
    path = _resolve_output(cfg.output_path or "sweep.csv", "")
    rows = []
    for val, sub in zip(values, subs):
        res = run_solve(sub)
        rows.extend((val, m.level, m.computed, m.exact, m.rel_error)
                    for m in res.report.matches)
    _write_csv(path, cfg, ("param_value,level,computed,exact,rel_error", rows))
    print(f"wrote {path}")
    return 0


def rates_from_errors(samples_per_level: dict) -> dict:
    """Per-level convergence rates from {level: [(h, rel_err), ...]}."""
    return {lv: convergence_rate(samples) for lv, samples in samples_per_level.items()}


RATE_LEVELS = 5  # levels whose convergence rate the study fits


def cmd_convergence(cfg: RunConfig, n_values) -> int:
    if len(n_values) < 3:
        raise ValueError("convergence study needs at least 3 node counts")
    if len(set(n_values)) < 2:
        raise ValueError("convergence study needs at least 2 distinct node counts")
    # every node count and the output are validated before the first solve runs
    subs = [dataclasses.replace(cfg, n_intervals=int(n),
                                levels=max(cfg.levels, RATE_LEVELS))
            for n in n_values]
    path = _resolve_output(cfg.output_path or "convergence.csv", "")
    samples = {lv: [] for lv in range(1, RATE_LEVELS + 1)}
    rows = []
    for sub in subs:
        res = run_solve(sub)
        h = float(res.grid.spacings[-1])  # the largest spacing on these grids
        for m in res.report.matches:
            rows.append((sub.n_intervals, m.level, h, m.computed, m.exact,
                         m.rel_error))
            if m.level <= RATE_LEVELS:
                samples[m.level].append((h, m.rel_error))
    rates = rates_from_errors(samples)
    _write_csv(path, cfg, ("n,level,h,computed,exact,rel_error", rows),
               ("level,rate", sorted(rates.items())))
    for lv, rate in sorted(rates.items()):
        print(f"level {lv}: rate {rate:.3f}")
    print(f"wrote {path}")
    return 0


def cmd_dump_matrices(cfg: RunConfig) -> int:
    outdir = _resolve_output(cfg.output_path or "matrices")
    if os.path.lexists(os.path.normpath(outdir)) and not os.path.isdir(outdir):
        raise FileExistsError(f"output {outdir!r} exists and is not a directory")
    _, wfm, system = assemble_pencil(cfg)
    os.makedirs(outdir, exist_ok=True)
    bands = {**wfm.bands, **system.bands}
    for name in wfm.NAMES + system.NAMES:
        dump_matrix(os.path.join(outdir, name + ".txt"), bands[name], name=name)
    np.savetxt(os.path.join(outdir, "tau.txt"), system.tau)
    print(f"wrote {len(bands) + 1} files to {outdir}")
    return 0


# ---------------------------------------------------------------- config I/O


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key, raw):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    return _FIELD_TYPES[key](raw)


def read_config_file(path) -> dict:
    """Flat 'key = value' lines; # starts a comment."""
    out = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value")
            key, raw = (s.strip() for s in line.split("=", 1))
            out[key] = _coerce(key, raw)
    return out


def build_config(args) -> RunConfig:
    kv = {}
    if args.config:
        kv.update(read_config_file(args.config))
    for key in _FIELD_TYPES:
        v = getattr(args, key, None)
        if v is not None:
            kv[key] = v
    return RunConfig(**kv)


# the flags not spelled as their field with "-" for "_", and the fields
# whose values come from a fixed list
_FLAG_NAMES = {"I_a": "--Ia", "I_b": "--Ib", "output_path": "--output"}
_CHOICES = {"nucleus": NUCLEI, "method": METHODS}


def _add_config_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    for key, t in _FIELD_TYPES.items():
        p.add_argument(_FLAG_NAMES.get(key, "--" + key.replace("_", "-")),
                       dest=key, type=t, choices=_CHOICES.get(key))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="diracloud",
                                 description="radial Dirac spectra with hp-cloud bases")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep", "convergence", "dump-matrices"):
        p = sub.add_parser(name)
        _add_config_flags(p)
        if name == "sweep":
            p.add_argument("--vary", required=True, choices=SWEEPABLE)
            p.add_argument("--values", required=True,
                           help="comma-separated list for the varied parameter")
        if name == "convergence":
            p.add_argument("--n-values", dest="n_values", required=True,
                           help="comma-separated node counts, at least 3")
    args = ap.parse_args(argv)

    try:
        cfg = build_config(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            values = [_coerce(args.vary, s.strip())
                      for s in args.values.split(",") if s.strip()]
            return cmd_sweep(cfg, args.vary, values)
        if args.command == "convergence":
            n_values = [int(s) for s in args.n_values.split(",") if s.strip()]
            return cmd_convergence(cfg, n_values)
        return cmd_dump_matrices(cfg)
    # LinAlgError is a ValueError: the numerical handler comes first
    except (SingularMoment, DegenerateTau, EmptySpectrum,
            np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=_sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError) as e:
        # the config and its files, the per-value configs of sweep and
        # convergence, an unwritable output, and a grid that degenerates
        # when built: config problems, not solver breakdowns
        print(f"config error: {e}", file=_sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
