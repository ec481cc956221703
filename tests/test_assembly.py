import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from _oracles import (band_from_dense, banded_weak_form, dense_weak_form, reference_cells,
                      reference_dump, reference_pencil, reference_quadrature,
                      reference_system, reference_tau, reference_weak_form)
from diracloud import assembly
from diracloud.assembly import (METHODS, DegenerateTau, assemble_system,
                                assemble_weak_form, build_quadrature, dump_matrix,
                                stability_tau, stability_tau_fem)
from diracloud.cli import RunConfig, assemble_pencil, run_solve
from diracloud.cloud import build_cloud_basis, evaluate_shapes
from diracloud.eigen import bound_window, solve_generalized
from diracloud.enrichment import BASES
from diracloud.grid import Grid, GridConfig, generate_grid
from diracloud.physics import PhysicalSystem


# ---------------------------------------------------------------- quadrature

def test_quadrature_point_count(uuo_grid_200):
    q = build_quadrature(uuo_grid_200, factor=10)
    assert q.total_points == 2000


def test_quadrature_point_count_at_production_size():
    g = generate_grid(GridConfig(n_intervals=600, I_a=0.0, I_b=100.0,
                                 eps=1e-5, nu=2.2))
    assert build_quadrature(g, factor=10).total_points == 6000


def test_quadrature_factor_must_be_even_and_positive(uuo_grid_200):
    for bad in (0, -2, 3, 7):
        with pytest.raises(ValueError):
            build_quadrature(uuo_grid_200, factor=bad)


def test_quadrature_weights_cover_the_domain(uuo_grid_200):
    r = PhysicalSystem(Z=118.0, kappa=-2, A=294.0, nucleus="extended_uniform").nucleus_radius
    for factor, split in ((10, None), (10, r), (2, r)):
        q = build_quadrature(uuo_grid_200, factor=factor, split_at=split)
        assert q.weights.sum() == pytest.approx(100.0, rel=1e-13), (factor, split)
        assert np.all(np.diff(q.points) > 0)


def test_quadrature_exact_for_cubics():
    fake = SimpleNamespace(nodes=np.array([0.0, 1.0]))
    q = build_quadrature(fake, factor=10)
    assert q.weights @ q.points ** 3 == pytest.approx(0.25, rel=1e-14)


@pytest.mark.parametrize("n", [60, 200, 600, 2000])
def test_quadrature_matches_the_per_interval_rule(n):
    g = generate_grid(GridConfig(n_intervals=n, I_a=0.0, I_b=100.0, eps=1e-5, nu=2.2))
    x = g.nodes
    for factor in (2, 10, 40):
        for split in (None, 0.5 * (x[3] + x[4]), x[7] + 1e-3 * (x[8] - x[7]), x[5], 1e9):
            q = build_quadrature(g, factor=factor, split_at=split)
            ref = reference_quadrature(g, factor, split_at=split)
            for name in ("points", "weights"):
                assert getattr(q, name).tobytes() == getattr(ref, name).tobytes(), \
                    (factor, split, name)


def test_quadrature_split_point_becomes_a_cell_edge(uuo_grid_200):
    r = 0.0123456
    for factor in (10, 2):  # at factor 2 the split interval gets two cells
        # the rule is Gauss on the oracle's cells, bit for bit
        q = build_quadrature(uuo_grid_200, factor=factor, split_at=r)
        ref = reference_quadrature(uuo_grid_200, factor, split_at=r)
        for name in ("points", "weights"):
            assert getattr(q, name).tobytes() == getattr(ref, name).tobytes(), factor
        cells = reference_cells(uuo_grid_200, factor, split_at=r)
        edges = np.concatenate([cells[:, 0], cells[-1:, 1]])
        assert np.min(np.abs(edges - r)) < 1e-15 * max(1.0, r), factor
        assert np.array_equal(cells[1:, 0], cells[:-1, 1]), factor


# ---------------------------------------------------- weak-form block oracle

@pytest.fixture(scope="module")
def toy_problem():
    """3-interval Shepard discretization small enough to integrate adaptively."""
    nodes = np.array([0.5, 1.5, 2.5, 3.5])
    g = Grid(nodes=nodes, dilations=1.2 * np.ones(4))
    cb = build_cloud_basis(g, basis=BASES["shepard"])
    sys = PhysicalSystem(Z=1.0, kappa=-1)
    quad = build_quadrature(g, factor=40)
    wfm = assemble_weak_form(cb, sys, quad)
    return g, cb, sys, wfm


def reference_entry(cb, r, s, t, i, j, lo, hi):
    def f(x):
        st = evaluate_shapes(cb, [x])
        on = st.active[0]
        row = dict(zip(st.indices[0, on].tolist(),
                       (st.derivs if r else st.values)[0, on]))
        col = dict(zip(st.indices[0, on].tolist(),
                       (st.derivs if s else st.values)[0, on]))
        return row.get(i, 0.0) * col.get(j, 0.0) * x ** (-t)

    val, _ = integrate.quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12)
    return val


@pytest.mark.parametrize("block,r,s,t", [
    ("M_000", 0, 0, 0),
    ("M_001", 0, 0, 1),
    ("M_110", 1, 1, 0),
])
def test_weak_form_blocks_match_adaptive_integration(toy_problem, block, r, s, t):
    g, cb, sys, wfm = toy_problem
    mat = getattr(wfm, block)
    for a, i in enumerate((1, 2)):
        for b, j in enumerate((1, 2)):
            ref = reference_entry(cb, r, s, t, i, j, g.nodes[0], g.nodes[-1])
            assert mat[a, b] == pytest.approx(ref, rel=1e-6, abs=1e-12)


def test_weak_form_antisymmetric_block_on_uniform_toy(toy_problem):
    g, cb, sys, wfm = toy_problem
    for a, i in enumerate((1, 2)):
        for b, j in enumerate((1, 2)):
            ref = reference_entry(cb, 1, 0, 0, i, j, g.nodes[0], g.nodes[-1])
            assert wfm.M_100[a, b] == pytest.approx(ref, abs=1e-7)


def test_block_symmetries(uuo_wfm_200):
    m = uuo_wfm_200
    assert np.allclose(m.M_000, m.M_000.T, rtol=0, atol=1e-15 * np.abs(m.M_000).max())
    assert np.array_equal(m.M_010, m.M_100.T)


def test_derivative_block_interior_columns_sum_to_zero(uuo_wfm_200):
    # integral of d/dx(shape) over the domain vanishes when the shape's
    # support is interior (partition-of-nullity pushed through quadrature)
    sums = np.abs(uuo_wfm_200.M_100.sum(axis=0)[5:-5])
    assert sums.max() <= 1e-12 * np.abs(uuo_wfm_200.M_100).max()


# ----------------------------------------------------------- system matrices

def test_galerkin_blocks_nearly_symmetric(uuo_wfm_200, uuo_system):
    out = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    asym = np.abs(out.A - out.A.T).max() / np.abs(out.A).max()
    assert asym <= 1e-3
    assert np.array_equal(out.B, out.B.T)
    assert np.all(out.tau == 0.0)


def test_mass_matrix_positive_definite(uuo_wfm_200, uuo_system):
    out = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    np.linalg.cholesky(out.B)


def test_zero_tau_reduces_stabilized_to_plain(uuo_wfm_200, uuo_system, uuo_grid_200):
    plain = assemble_system(uuo_wfm_200, uuo_system, "galerkin")
    stab = assemble_system(uuo_wfm_200, uuo_system, "cpg", grid=uuo_grid_200)
    # stabilized = plain + tau-scaled residual rows, so tau = 0 gives plain
    T = np.concatenate([stab.tau, stab.tau])[:, None]
    assert np.array_equal(stab.script_A, plain.script_A)
    assert np.array_equal(stab.script_B, plain.script_B)
    assert np.array_equal(stab.A, plain.A + T * stab.script_A)
    assert np.array_equal(stab.B, plain.B + T * stab.script_B)
    assert not np.array_equal(plain.A, stab.A)
    assert not np.array_equal(plain.B, stab.B)


def _bits(M):
    """The bit patterns of a float array, zeros unsigned."""
    return np.where(M == 0.0, 0.0, M).view(np.uint64)


def _outside(band):
    """The entries of band.dense() outside the band."""
    n = band.n
    pos = np.empty(n, dtype=int)
    pos[band.order()] = np.arange(n)
    return np.abs(pos[:, None] - pos[None, :]) > band.k


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kappa", [-2, 2])
def test_bands_densify_to_the_dense_formulas_bit_for_bit(kappa, method, n):
    grid = generate_grid(GridConfig(n_intervals=n, I_a=0.0, I_b=100.0, eps=1e-5, nu=2.2))
    sys = PhysicalSystem(Z=118.0, kappa=kappa)
    cb = build_cloud_basis(grid)
    quad = build_quadrature(grid, factor=10)
    wfm = assemble_weak_form(cb, sys, quad)
    ref_wfm = dense_weak_form(cb, sys, quad)
    for name in wfm.NAMES:
        np.testing.assert_array_equal(_bits(getattr(wfm, name)),
                                      _bits(getattr(ref_wfm, name)), err_msg=name)
    for name, band in wfm.bands.items():
        assert np.all(band.dense()[_outside(band)].view(np.uint64) == 0), name
    out = assemble_system(wfm, sys, method, grid=grid)
    if method == "cpg":
        # summed along the band's diagonals, tau may move in its last bits
        np.testing.assert_allclose(out.tau, reference_tau(ref_wfm, grid.nodes[1:-1]),
                                   rtol=1e-14, atol=0)
    ref = reference_pencil(ref_wfm, sys, out.tau)
    for name in out.NAMES:
        np.testing.assert_array_equal(_bits(getattr(out, name)),
                                      _bits(getattr(ref, name)), err_msg=name)
        band = out.bands[name]
        assert np.all(band.dense()[_outside(band)].view(np.uint64) == 0), name
    # the window paths read the assembled bands as they read the bands
    # gathered from the dense pencil
    win = bound_window(sys, 15)
    symmetric = method == "galerkin"
    banded = solve_generalized(out.bands["A"], out.bands["B"],
                               symmetric_definite=symmetric, window=win)
    gathered = solve_generalized(*band_from_dense(ref.A, ref.B, interleaved=True),
                                 symmetric_definite=symmetric, window=win)
    np.testing.assert_array_equal(banded, gathered)


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("nucleus", ["point", "extended_uniform"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kappa", [-2, 2])
def test_pencil_bands_equal_the_triplet_oracle_bit_for_bit(kappa, method, nucleus, n):
    # every slot of the four bands, signed zeros included, and tau
    cfg = RunConfig(Z=118.0, A=294.0, kappa=kappa, nucleus=nucleus, method=method,
                    n_intervals=n)
    grid, wfm, out = assemble_pencil(cfg)
    ref = reference_system(wfm, cfg.physical_system(), method, grid=grid)
    assert out.tau.view(np.uint64).tolist() == ref.tau.view(np.uint64).tolist()
    for name in out.NAMES:
        got, want = out.bands[name], ref.bands[name]
        assert (got.k, got.interleaved) == (want.k, True), name
        np.testing.assert_array_equal(got.data.view(np.uint64), want.data.view(np.uint64),
                                      err_msg=name)
    # the zero blocks are the buffer's +0.0: the diagonal blocks of
    # script_B (odd rows) and, with tau = 0, the off-diagonal blocks of B
    # (even rows, the padding slots among them)
    assert not out.bands["script_B"].data[1::2].view(np.uint64).any()
    if method == "galerkin":
        assert not out.bands["B"].data[0::2].view(np.uint64).any()
    else:
        assert out.bands["B"].data[0::2].any()


# an extended nucleus puts a cell edge at its radius: at factor 2 the
# interval holding it gets 4 points and every other interval 2, at
# factor 10 every interval holds 10
EXTENDED = RunConfig(Z=118.0, A=294.0, kappa=-2, nucleus="extended_uniform",
                     n_intervals=200)


def _extended_rule(factor):
    cfg = replace(EXTENDED, quadrature_factor=factor)
    grid, sys = generate_grid(cfg.grid_config()), cfg.physical_system()
    quad = build_quadrature(grid, factor, split_at=sys.nucleus_radius)
    return cfg, build_cloud_basis(grid), sys, quad


@pytest.mark.parametrize("factor", [2, 10])
def test_bands_do_not_depend_on_the_interval_chunk(monkeypatch, factor):
    # each entry receives its contributions interval after interval, so
    # the number of intervals sharing a shape evaluation moves no bit
    _, cb, sys, quad = _extended_rule(factor)
    ref = assemble_weak_form(cb, sys, quad)
    for chunk in (1, 7, cb.grid.n_intervals):
        monkeypatch.setattr(assembly, "_CHUNK", chunk)
        got = assemble_weak_form(cb, sys, quad)
        for name, band in ref.bands.items():
            assert got.bands[name].data.tobytes() == band.data.tobytes(), (chunk, name)


@pytest.mark.parametrize("factor", [2, 10])
def test_intervals_with_different_point_counts(factor):
    cfg, cb, sys, quad = _extended_rule(factor)
    counts = np.bincount(np.searchsorted(cb.grid.nodes, quad.points) - 1)
    assert sorted(set(counts.tolist())) == ([2, 4] if factor == 2 else [10])
    got = assemble_weak_form(cb, sys, quad)
    ref = reference_weak_form(cb, sys, quad)
    for block in got.NAMES:
        a, b = getattr(got, block), getattr(ref, block)
        assert np.array_equal(a != 0.0, b != 0.0), block
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b), block
    for method in METHODS:
        assert run_solve(replace(cfg, method=method)).eigen_path in ("inertia", "window")


def test_method_validation(uuo_wfm_200, uuo_system, uuo_grid_200):
    with pytest.raises(ValueError):
        assemble_system(uuo_wfm_200, uuo_system, "supg", grid=uuo_grid_200)
    with pytest.raises(ValueError):
        assemble_system(uuo_wfm_200, uuo_system, "cpg")  # needs the grid


def test_refining_quadrature_barely_moves_eigenvalues(solve_cached):
    # eigenvalue displacement under doubled quadrature is the metric that
    # matters; entrywise matrix agreement is not attainable on a grid this
    # strongly graded (self-similar cells near the origin refine slowly)
    a = solve_cached(Z=118.0, kappa=-2, method="galerkin", quadrature_factor=10)
    b = solve_cached(Z=118.0, kappa=-2, method="galerkin", quadrature_factor=20)
    va = {m.level: m.computed for m in a.report.matches}
    vb = {m.level: m.computed for m in b.report.matches}
    shift = np.array([abs(va[k] - vb[k]) / abs(vb[k]) for k in range(1, 16)])
    assert shift[0] <= 1e-6
    assert shift.max() <= 1e-5


# ------------------------------------------------------------ stabilization

def synthetic_row_problem(hj, hj1):
    """Rows built from exact hat-function moments on a 3-node patch."""
    sigma = np.array([3.0 / 70.0 * hj1, 20.0 / 70.0 * (hj + hj1),
                      3.0 / 70.0 * hj1])
    eta = np.array([17.0 / 70.0, 0.0, -17.0 / 70.0])
    wfm = SimpleNamespace(M_000=np.tile(sigma, (3, 1)),
                          M_100=np.tile(eta, (3, 1)))
    coords = np.array([0.0, hj, hj + hj1])
    return wfm, coords


@pytest.mark.parametrize("hj,hj1", [(1.0, 2.0), (0.25, 0.4), (3.0, 0.5)])
def test_tau_matches_two_interval_reference(hj, hj1):
    wfm, coords = synthetic_row_problem(hj, hj1)
    tau = stability_tau(banded_weak_form(wfm), coords)
    fake = SimpleNamespace(spacings=np.array([hj, hj1]))
    assert tau[1] == pytest.approx(abs(stability_tau_fem(fake)[0]), rel=1e-12)


def test_tau_vanishes_on_uniform_spacing():
    wfm, coords = synthetic_row_problem(1.0, 1.0)
    assert stability_tau(banded_weak_form(wfm), coords)[1] == pytest.approx(0.0, abs=1e-15)


def test_tau_degenerate_row_raises():
    wfm, coords = synthetic_row_problem(1.0, 2.0)
    wfm.M_100[1, :] = 0.0
    with pytest.raises(DegenerateTau):
        stability_tau(banded_weak_form(wfm), coords)


def test_tau_fem_closed_form():
    fake = SimpleNamespace(spacings=np.array([1.0, 2.0]))
    assert stability_tau_fem(fake)[0] == pytest.approx(3.0 / 17.0 * 2.0 / 3.0)
    uniform = SimpleNamespace(spacings=np.array([2.0, 2.0]))
    assert stability_tau_fem(uniform)[0] == 0.0


def test_production_tau_is_finite_and_small(uuo_wfm_200, uuo_grid_200):
    tau = stability_tau(uuo_wfm_200, uuo_grid_200.nodes[1:-1])
    assert tau.shape == (199,)
    assert np.all(np.isfinite(tau))
    assert np.all(tau >= 0.0)
    assert tau.max() < uuo_grid_200.spacings.max()


# ------------------------------------------------------------------- output

def test_dump_matrix_round_trips(tmp_path):
    m = np.array([[1.5, 0.0], [-2.25e-7, 3.0]])
    path = tmp_path / "m.txt"
    dump_matrix(path, m, name="toy")
    rows = np.loadtxt(path, ndmin=2)
    assert rows.shape == (4, 3)
    for i, j, v in rows:
        assert m[int(i) - 1, int(j) - 1] == v


@pytest.mark.parametrize("name", ["", "blk"])
def test_dump_matrix_matches_per_entry_writer(tmp_path, name):
    rng = np.random.default_rng(7)
    m = rng.normal(size=(9, 11)) * 10.0 ** rng.integers(-300, 300, size=(9, 11))
    m[0, :4] = [-0.0, 0.0, 1e-320, -5e-324]          # signed zero, subnormals
    m[1, :4] = [1.7976931348623157e308, -1.7976931348623157e308, -3.0, 1e22]
    m[2, :2] = [0.1, -123456789.125]
    # mostly +0.0, as the assembled blocks are: runs of the entries the
    # writer patches into a row (nonzeros, -0.0, NaN, inf)
    sparse = np.zeros((8, 13))
    sparse[0, 2:6] = -0.0
    sparse[1, :] = rng.normal(size=13)                # fully nonzero row
    sparse[2, 4:7] = [np.nan, np.inf, -np.inf]
    sparse[3, [0, 12]] = [5e-324, -2.5e-310]          # subnormals at both ends
    sparse[4, 3:9] = [-0.0, np.nan, -0.0, 1e-320, -np.nan, -0.0]
    sparse[6, 12] = -0.0                              # sparse[5] stays all +0.0
    sparse[7, 0] = np.inf
    last_row = np.zeros((4, 5))
    last_row[3, [1, 4]] = [2.5, -0.0]                 # nonzeros in the last row only
    cases = [m, sparse, sparse[:1], sparse[:, 4:5], sparse[4:5, 3:4],
             np.zeros((3, 0)), np.zeros((0, 4)),
             sparse.T,                                # non-contiguous, as M_010 is M_100.T
             sparse[4:6],                             # ends on an all +0.0 row
             last_row]
    for k, case in enumerate(cases):
        dump_matrix(tmp_path / "fast.txt", case, name=name)
        reference_dump(tmp_path / "ref.txt", case, name=name)
        assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes(), k


def test_dump_matrix_memory_stays_below_half_the_matrix(tmp_path):
    # the benchmark's n=300 cpg A block, 598x598: the writer holds the
    # nonzero positions and values and one row, never a table of strings
    _, _, system = assemble_pencil(RunConfig(Z=118.0, kappa=-2, n_intervals=300,
                                             method="cpg"))
    M = system.A
    tracemalloc.start()
    try:
        dump_matrix(tmp_path / "A.txt", M, name="A")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (598, 598)
    assert peak < M.nbytes / 2
