from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from diracloud.assembly import (DegenerateTau, assemble_system, assemble_weak_form,
                                build_quadrature, dump_matrix, stability_tau,
                                stability_tau_fem)
from diracloud.cloud import build_cloud_basis, evaluate_coupled
from diracloud.enrichment import shepard_basis
from diracloud.grid import Grid, GridConfig, generate_grid
from diracloud.physics import PhysicalSystem


# ---------------------------------------------------------------- quadrature

def test_quadrature_point_count(uuo_grid_200):
    q = build_quadrature(uuo_grid_200, factor=10)
    assert q.total_points == 2000
    assert q.points_per_cell == 2


def test_quadrature_point_count_at_production_size():
    g = generate_grid(GridConfig(n_intervals=600, I_a=0.0, I_b=100.0,
                                 eps=1e-5, nu=2.2))
    assert build_quadrature(g, factor=10).total_points == 6000


def test_quadrature_factor_must_be_even_and_positive(uuo_grid_200):
    for bad in (0, -2, 3, 7):
        with pytest.raises(ValueError):
            build_quadrature(uuo_grid_200, factor=bad)


def test_quadrature_weights_cover_the_domain(uuo_grid_200):
    q = build_quadrature(uuo_grid_200, factor=10)
    assert q.weights.sum() == pytest.approx(100.0, rel=1e-13)
    assert np.all(np.diff(q.points) > 0)


def test_quadrature_exact_for_cubics():
    fake = SimpleNamespace(nodes=np.array([0.0, 1.0]))
    q = build_quadrature(fake, factor=10)
    assert q.weights @ q.points ** 3 == pytest.approx(0.25, rel=1e-14)


def test_quadrature_split_point_becomes_a_cell_edge(uuo_grid_200):
    r = 0.0123456
    q = build_quadrature(uuo_grid_200, factor=10, split_at=r)
    edges = np.concatenate([q.cells[:, 0], q.cells[-1:, 1]])
    assert np.min(np.abs(edges - r)) < 1e-15 * max(1.0, r)


# ---------------------------------------------------- weak-form block oracle

@pytest.fixture(scope="module")
def toy_problem():
    """3-interval Shepard discretization small enough to integrate adaptively."""
    cfg = GridConfig(n_intervals=3, I_a=0.5, I_b=3.5, eps=1.0, nu=1.2)
    nodes = np.array([0.5, 1.5, 2.5, 3.5])
    g = Grid(config=cfg, nodes=nodes, spacings=np.ones(3),
             dilations=1.2 * np.ones(4))
    cb = build_cloud_basis(g, basis=shepard_basis())
    sys = PhysicalSystem(Z=1.0, kappa=-1)
    quad = build_quadrature(g, factor=40)
    wfm = assemble_weak_form(cb, sys, quad)
    return g, cb, sys, wfm


def reference_entry(cb, r, s, t, i, j, lo, hi):
    def f(x):
        ev = evaluate_coupled(cb, x)
        row = dict(zip(ev.active_indices.tolist(),
                       ev.derivs if r else ev.values))
        col = dict(zip(ev.active_indices.tolist(),
                       ev.derivs if s else ev.values))
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
    tau = stability_tau(wfm, coords)
    fake = SimpleNamespace(spacings=np.array([hj, hj1]))
    assert tau[1] == pytest.approx(abs(stability_tau_fem(fake, 1)), rel=1e-12)


def test_tau_vanishes_on_uniform_spacing():
    wfm, coords = synthetic_row_problem(1.0, 1.0)
    assert stability_tau(wfm, coords)[1] == pytest.approx(0.0, abs=1e-15)


def test_tau_degenerate_row_raises():
    wfm, coords = synthetic_row_problem(1.0, 2.0)
    wfm.M_100[1, :] = 0.0
    with pytest.raises(DegenerateTau):
        stability_tau(wfm, coords)


def test_tau_fem_closed_form():
    fake = SimpleNamespace(spacings=np.array([1.0, 2.0]))
    assert stability_tau_fem(fake, 1) == pytest.approx(3.0 / 17.0 * 2.0 / 3.0)
    uniform = SimpleNamespace(spacings=np.array([2.0, 2.0]))
    assert stability_tau_fem(uniform, 1) == 0.0
    with pytest.raises(ValueError):
        stability_tau_fem(fake, 0)
    with pytest.raises(ValueError):
        stability_tau_fem(fake, 2)


def test_production_tau_is_finite_and_small(uuo_wfm_200, uuo_grid_200):
    tau = stability_tau(uuo_wfm_200, uuo_grid_200)
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
