"""The batched shape kernel and the chunked weak form against the
per-point implementations they replaced (tests/_oracles.py)."""
import dataclasses

import numpy as np
import pytest

from _oracles import exp_basis, reference_shapes, reference_weak_form
from diracloud.assembly import assemble_weak_form, build_quadrature
from diracloud.cloud import (SingularMoment, build_cloud_basis, evaluate_coupled,
                             evaluate_shapes)
from diracloud.enrichment import shepard_basis, sto_default_basis
from diracloud.grid import Grid, GridConfig

EPS = np.finfo(float).eps

# every basis is compared on the Z=118 (uuo) grid and system, which the ids
# name; exp(-20 s) reaches a moment condition of ~5e10 next to the origin
BASES = {"sto": sto_default_basis(), "shepard": shepard_basis(), "exp20": exp_basis(20.0)}
IDS = [f"{name}-118.0" for name in BASES]
BLOCKS = ("M_000", "M_010", "M_001", "M_100", "M_110", "M_101", "M_000_V", "M_100_V")


def raised(fn, *args):
    with pytest.raises((ValueError, SingularMoment)) as info:
        fn(*args)
    return info.type, str(info.value)


# the ids name the shape mode compared, the coupled one
@pytest.mark.parametrize("basis", BASES.values(), ids=[f"{i}-coupled" for i in IDS])
def test_batched_shapes_match_per_point_oracle(uuo_grid_200, uuo_quad_200, basis):
    cb = build_cloud_basis(uuo_grid_200, basis=basis)
    st = evaluate_shapes(cb, uuo_quad_200.points)
    for p, x in enumerate(uuo_quad_200.points):
        ev = reference_shapes(cb, x, coupled=True)
        act = st.active[p]
        assert np.array_equal(st.indices[p, act], ev.active_indices), x
        assert not np.any(st.values[p, ~act]) and not np.any(st.derivs[p, ~act])
        # summation order differs, so allow 1e-13 plus the eps * cond a
        # one-ulp change in the moment data can reach
        tol = 1e-13 + EPS * ev.cond
        for got, ref in ((st.values[p, act], ev.values), (st.derivs[p, act], ev.derivs)):
            assert np.max(np.abs(got - ref)) <= tol * max(np.abs(ref).max(), 1.0), x
        assert abs(st.cond[p] - ev.cond) <= 1e-12 * ev.cond, x


@pytest.mark.parametrize("basis", BASES.values(), ids=IDS)
def test_chunked_weak_form_matches_per_point_scatter(uuo_grid_200, uuo_quad_200,
                                                      uuo_system, basis):
    cb = build_cloud_basis(uuo_grid_200, basis=basis)
    got = assemble_weak_form(cb, uuo_system, uuo_quad_200)
    ref = reference_weak_form(cb, uuo_system, uuo_quad_200)
    for block in BLOCKS:
        a, b = getattr(got, block), getattr(ref, block)
        assert np.array_equal(a != 0.0, b != 0.0), block
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b), block


def test_single_point_calls_are_rows_of_the_batch(uuo_cloud_200, uuo_quad_200):
    xs = uuo_quad_200.points[::97]
    st = evaluate_shapes(uuo_cloud_200, xs)
    for p, x in enumerate(xs):
        ev = evaluate_coupled(uuo_cloud_200, float(x))
        act = st.active[p]
        assert np.array_equal(ev.active_indices, st.indices[p, act])
        assert np.array_equal(ev.values, st.values[p, act])
        assert np.array_equal(ev.derivs, st.derivs[p, act])
        assert ev.cond == st.cond[p]


# ------------------------------------------------ fail-fast through the batch

def starved_cloud():
    """Uniform 6-interval grid whose clouds leave interval midpoints bare."""
    n = 6
    cfg = GridConfig(n_intervals=n, I_a=0.0, I_b=float(n), eps=1.0, nu=1.2)
    nodes = np.arange(n + 1, dtype=float)
    g = Grid(config=cfg, nodes=nodes, spacings=np.ones(n),
             dilations=np.full(n + 1, 0.3))
    return build_cloud_basis(g, basis=shepard_basis())


def test_weak_form_refuses_an_uncovered_point(uuo_system):
    cb = starved_cloud()
    quad = build_quadrature(cb.grid, factor=10)
    err = raised(assemble_weak_form, cb, uuo_system, quad)
    assert err[0] is SingularMoment
    # the same first offending point as the per-point loop names
    assert err == raised(reference_weak_form, cb, uuo_system, quad)
    assert "clouds cover" in err[1]


def test_weak_form_enforces_the_condition_cap(uuo_grid_200, uuo_quad_200, uuo_system):
    cb = dataclasses.replace(build_cloud_basis(uuo_grid_200), cond_cap=1.0)
    err = raised(assemble_weak_form, cb, uuo_system, uuo_quad_200)
    assert err[0] is SingularMoment
    assert err == raised(reference_weak_form, cb, uuo_system, uuo_quad_200)
    assert "cond estimate" in err[1]


def test_weak_form_refuses_a_non_positive_moment_diagonal(uuo_grid_200, uuo_quad_200,
                                                          uuo_system):
    cb = build_cloud_basis(uuo_grid_200, basis=exp_basis(118.0))
    with np.errstate(over="ignore", invalid="ignore"):
        err = raised(assemble_weak_form, cb, uuo_system, uuo_quad_200)
        assert err == raised(reference_weak_form, cb, uuo_system, uuo_quad_200)
    assert err[0] is SingularMoment
    assert "moment diagonal not positive at x=21.556" in err[1]


def test_first_offending_point_decides_the_error():
    cb = starved_cloud()
    bare, outside = 0.5, -1.0
    assert raised(evaluate_shapes, cb, [0.0, bare, outside])[0] is SingularMoment
    assert raised(evaluate_shapes, cb, [0.0, outside, bare]) == \
        (ValueError, "x=-1.0 outside [0.0, 6.0]")
