import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_shapes
from diracloud.assembly import assemble_weak_form, build_quadrature
from diracloud.cloud import (CloudBasis, SingularMoment, build_cloud_basis,
                             evaluate_shapes)
from diracloud.enrichment import BASES
from diracloud.grid import Grid, GridConfig, generate_grid
from diracloud.physics import PhysicalSystem


def uniform_grid(n, nu=1.2, h=1.0):
    """Hand-built uniform grid (the generator only makes graded ones)."""
    nodes = h * np.arange(n + 1, dtype=float)
    return Grid(nodes=nodes, dilations=np.full(n + 1, nu * h))


def test_shepard_midpoint_splits_evenly():
    # mid-domain, clear of the boundary hats
    g = uniform_grid(10, nu=1.2)
    cb = build_cloud_basis(g, basis=BASES["shepard"])
    st = evaluate_shapes(cb, [4.5])
    on = st.active[0]
    assert st.indices[0, on].tolist() == [4, 5]
    assert st.values[0, on] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert st.derivs[0, on].sum() == pytest.approx(0.0, abs=1e-12)


def test_fem_nodes_default_and_dirichlet():
    g = generate_grid(GridConfig(n_intervals=10, I_a=0.0, I_b=1.0, eps=0.5, nu=2.2))
    cb = build_cloud_basis(g)
    assert cb.fem_nodes == (0, 1, 9, 10)
    # the weak form drops the two boundary hats and keeps nodes 1..n-1
    wfm = assemble_weak_form(cb, PhysicalSystem(Z=1.0, kappa=-1), build_quadrature(g))
    assert wfm.M_000.shape == (9, 9)


def test_dirichlet_unknown_count_at_production_scale(solve_cached):
    res = solve_cached(Z=118.0, kappa=-2, method="galerkin")
    assert res.system.A.shape == res.system.B.shape == (1198, 1198)


def test_kronecker_property_at_fem_nodes(uuo_cloud_200, uuo_grid_200):
    n = uuo_grid_200.n_intervals
    for k in (0, 1, n - 1, n):
        st = evaluate_shapes(uuo_cloud_200, [uuo_grid_200.nodes[k]])
        on = st.active[0]
        vals = dict(zip(st.indices[0, on].tolist(), st.values[0, on]))
        assert vals[k] == pytest.approx(1.0, abs=1e-12)
        for i, v in vals.items():
            if i != k:
                assert abs(v) < 1e-12


def test_partition_of_unity_and_nullity(uuo_cloud_200, uuo_quad_200):
    pts = uuo_quad_200.points[::37]
    for x in pts:
        st = evaluate_shapes(uuo_cloud_200, [x])
        on = st.active[0]
        assert st.values[0, on].sum() == pytest.approx(1.0, abs=1e-12)
        dscale = max(np.abs(st.derivs[0, on]).max(), 1.0)
        assert abs(st.derivs[0, on].sum()) <= 1e-12 * dscale


def test_shifted_frame_consistency(uuo_cloud_200, uuo_grid_200, uuo_quad_200):
    # the moving fit reproduces the basis members in the shifted frame:
    # sum_i psi_i(x) p(x_i - x) = p(0) for every member p
    basis = BASES["sto"]
    p0 = basis.pair(np.zeros(1))[0][:, 0]
    for x in uuo_quad_200.points[5::41]:
        st = evaluate_shapes(uuo_cloud_200, [x])
        on = st.active[0]
        shifts = uuo_grid_200.nodes[st.indices[0, on]] - x
        P = basis.pair(shifts)[0]
        for k in range(basis.m):
            scale = max(1.0, np.abs(P[k]).max())
            assert abs(P[k] @ st.values[0, on] - p0[k]) <= 1e-12 * scale


def test_pure_and_coupled_agree_away_from_the_boundary(uuo_cloud_200, uuo_grid_200):
    x = float(0.5 * (uuo_grid_200.nodes[100] + uuo_grid_200.nodes[101]))
    a = reference_shapes(uuo_cloud_200, x, coupled=False)
    st = evaluate_shapes(uuo_cloud_200, [x])
    on = st.active[0]
    assert np.array_equal(a.active_indices, st.indices[0, on])
    assert a.values == pytest.approx(st.values[0, on], abs=1e-14)
    assert a.derivs == pytest.approx(st.derivs[0, on], rel=1e-12, abs=1e-10)


def test_derivative_matches_finite_difference(uuo_cloud_200, uuo_grid_200):
    for x in (uuo_grid_200.nodes[40] * 1.37, 0.5, 23.0):
        st = evaluate_shapes(uuo_cloud_200, [x])
        on = st.active[0]
        act, ders = st.indices[0, on], st.derivs[0, on]
        d = 1e-6 * float(uuo_grid_200.dilations[act].min())
        a, b = ({i: v for i, v, o in zip(side.indices[0], side.values[0], side.active[0]) if o}
                for side in (evaluate_shapes(uuo_cloud_200, [x - d]),
                          evaluate_shapes(uuo_cloud_200, [x + d])))
        fd = np.array([(b.get(i, 0.0) - a.get(i, 0.0)) / (2 * d) for i in act])
        scale = np.abs(ders).max()
        assert np.max(np.abs(fd - ders)) <= 1e-5 * scale


def test_evaluation_outside_domain_rejected(uuo_cloud_200):
    with pytest.raises(ValueError):
        evaluate_shapes(uuo_cloud_200, [-1.0])
    with pytest.raises(ValueError):
        evaluate_shapes(uuo_cloud_200, [100.0001])


def test_uncovered_point_raises():
    g = uniform_grid(6, nu=1.2)
    # shrink every cloud so interval midpoints lose coverage
    starved = Grid(nodes=g.nodes, dilations=np.full(7, 0.3))
    cb = build_cloud_basis(starved, basis=BASES["shepard"])
    # the boundary hat of node 1 reaches x=1.5 but is no cloud
    with pytest.raises(SingularMoment, match="only 0 clouds cover x=1.5"):
        evaluate_shapes(cb, [1.5])


def test_condition_cap_enforced(uuo_grid_200, monkeypatch):
    monkeypatch.setattr(CloudBasis, "cond_cap", 1.0)
    cb = build_cloud_basis(uuo_grid_200)
    with pytest.raises(SingularMoment, match="cond estimate"):
        evaluate_shapes(cb, [0.5])


def test_moment_condition_is_reported(uuo_cloud_200):
    cond = evaluate_shapes(uuo_cloud_200, [0.37]).cond[0]
    assert cond >= 1.0
    assert cond < 1e12


@settings(max_examples=25, deadline=None)
@given(t=st.floats(1e-6, 1.0 - 1e-6))
def test_partition_of_unity_everywhere(uuo_cloud_200, t):
    # log-uniform sample of the domain interior
    x = 10.0 ** (np.log10(3e-7) + t * (np.log10(99.0) - np.log10(3e-7)))
    st = evaluate_shapes(uuo_cloud_200, [x])
    assert st.values[0, st.active[0]].sum() == pytest.approx(1.0, abs=1e-10)
