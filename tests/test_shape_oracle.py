"""The batched shape kernel and the chunked weak form against the
per-point implementations they replaced (tests/_oracles.py)."""
import numpy as np
import pytest

from _oracles import exp_basis, reference_batched_shapes, reference_shapes, reference_weak_form
from diracloud import assembly, cloud
from diracloud.assembly import assemble_weak_form, build_quadrature
from diracloud.cli import RunConfig
from diracloud.cloud import CloudBasis, SingularMoment, build_cloud_basis, evaluate_shapes
from diracloud.enrichment import EnrichmentBasis, basis_from_name
from diracloud.grid import Grid, generate_grid

EPS = np.finfo(float).eps

# every basis is compared on the Z=118 (uuo) grid and system, which the ids
# name; exp(-20 s) reaches a moment condition of ~5e10 next to the origin
BASES = {"sto": basis_from_name("sto"), "shepard": basis_from_name("shepard"),
         "exp20": exp_basis(20.0)}
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
        one = evaluate_shapes(uuo_cloud_200, [x])
        on, act = one.active[0], st.active[p]
        assert np.array_equal(one.indices[0, on], st.indices[p, act])
        assert np.array_equal(one.values[0, on], st.values[p, act])
        assert np.array_equal(one.derivs[0, on], st.derivs[p, act])
        assert one.cond[0] == st.cond[p]


# ------------------------------------------------ fail-fast through the batch

def starved_cloud():
    """Uniform 6-interval grid whose clouds leave interval midpoints bare."""
    n = 6
    nodes = np.arange(n + 1, dtype=float)
    g = Grid(nodes=nodes, dilations=np.full(n + 1, 0.3))
    return build_cloud_basis(g, basis=BASES["shepard"])


def test_weak_form_refuses_an_uncovered_point(uuo_system):
    cb = starved_cloud()
    quad = build_quadrature(cb.grid, factor=10)
    err = raised(assemble_weak_form, cb, uuo_system, quad)
    assert err[0] is SingularMoment
    # the same first offending point as the per-point loop names
    assert err == raised(reference_weak_form, cb, uuo_system, quad)
    assert "clouds cover" in err[1]


def test_weak_form_enforces_the_condition_cap(uuo_grid_200, uuo_quad_200, uuo_system,
                                              monkeypatch):
    monkeypatch.setattr(CloudBasis, "cond_cap", 1.0)
    cb = build_cloud_basis(uuo_grid_200)
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


# ------------------------------------- the kernel it replaced, bit for bit

def _guard_grids(uuo_grid_200, uuo_quad_200):
    """The guard grids: the n=600 flagship grid with the production basis,
    and the n=200 uuo grid with sto, shepard and exp(-20 s)."""
    grid = generate_grid(RunConfig().grid_config())
    cases = [(build_cloud_basis(grid), build_quadrature(grid, factor=10))]
    return cases + [(build_cloud_basis(uuo_grid_200, basis=b), uuo_quad_200)
                    for b in BASES.values()]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_shapes_and_weak_form_equal_the_replaced_kernel_bit_for_bit(
        uuo_grid_200, uuo_quad_200, uuo_system, monkeypatch):
    # the per-basis constants, the shared weight and basis passes and the
    # 2x2 eigen replay change no bit of any ShapeStack field, nor of the
    # weak-form bands built from them
    for cb, quad in _guard_grids(uuo_grid_200, uuo_quad_200):
        for x in (quad.points, quad.points[:640]):
            got, ref = evaluate_shapes(cb, x), reference_batched_shapes(cb, x)
            assert np.array_equal(got.indices, ref.indices), cb.basis.name
            assert np.array_equal(got.active, ref.active), cb.basis.name
            for field in ("values", "derivs", "cond"):
                assert np.array_equal(_bits(getattr(got, field)),
                                      _bits(getattr(ref, field))), (cb.basis.name, field)
        got = assemble_weak_form(cb, uuo_system, quad)
        with monkeypatch.context() as m:
            m.setattr(assembly, "evaluate_shapes", reference_batched_shapes)
            ref = assemble_weak_form(cb, uuo_system, quad)
        for name, band in got.bands.items():
            assert np.array_equal(_bits(band.data), _bits(ref.bands[name].data)), name


def _eigh_mismatch(Me):
    """The indices of the matrices of the stack Me whose replayed
    eigenvalues or eigenvectors differ from np.linalg.eigh in any bit."""
    lam, V = cloud._eigh(Me)
    ref_lam, ref_V = np.linalg.eigh(Me)
    assert lam.shape == ref_lam.shape and V.shape == ref_V.shape
    assert V.flags.c_contiguous and lam.flags.c_contiguous
    bad = (_bits(lam) != _bits(ref_lam)).any(axis=1)
    return np.flatnonzero(bad | (_bits(V) != _bits(ref_V)).any(axis=(1, 2)))


LAPACK_CHANGED = ("the 2x2 replay of LAPACK's dsyevd path differs from np.linalg.eigh: "
                  "the bundled LAPACK build changed (numpy.show_config() names it)")


def test_the_eigen_replay_is_numpys_eigh_bit_for_bit(uuo_grid_200, uuo_quad_200,
                                                      monkeypatch):
    # every moment matrix the guard grids factor, signs included
    seen, replay = [], cloud._eigh

    def spy(Me):
        seen.append(Me.copy())
        return replay(Me)

    with monkeypatch.context() as m:
        m.setattr(cloud, "_eigh", spy)
        for cb, quad in _guard_grids(uuo_grid_200, uuo_quad_200):
            evaluate_shapes(cb, quad.points)
    assert sum(len(Me) for Me in seen) > 10000
    for Me in seen:
        assert len(_eigh_mismatch(Me)) == 0, LAPACK_CHANGED
    # and every branch of the replay: exact and negligible off-diagonals
    # under either sweep, a zero trace, |a - c| against |2b| either way,
    # negative and mixed spectra, unequilibrated scales
    rng = np.random.default_rng(29)
    hand = [[1.0, 0.0, 1.0], [1.0, 1e-20, 1.0], [2.0, 1e-17, 1.0], [1.0, 1e-17, 2.0],
            [0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, -2.0], [1.0, 0.5, 1.0],
            [3.0, 1.0, 1.0], [1.0, 1.0, 3.0], [-1.0, 0.3, -2.0], [-3.0, 1.0, -1.0],
            [1.0, -0.7, 0.2], [0.0, 0.0, -1.0], [1e-3, 2e-5, 4e2]]
    a, b, c = np.concatenate([np.array(hand).T, rng.standard_normal((3, 4000))
                              * 10.0 ** rng.uniform(-8, 8, (3, 4000))], axis=1)
    Me = np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=1)
    assert len(_eigh_mismatch(Me)) == 0, LAPACK_CHANGED
    one = rng.standard_normal((50, 1, 1))
    assert len(_eigh_mismatch(one)) == 0, LAPACK_CHANGED


def test_a_basis_of_more_than_two_members_is_refused(uuo_grid_200):
    three = EnrichmentBasis(name="three", m=3, pair=None)
    with pytest.raises(ValueError, match="at most 2 enrichment members"):
        build_cloud_basis(uuo_grid_200, basis=three)
