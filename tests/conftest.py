import pytest

from diracloud.assembly import assemble_weak_form, build_quadrature
from diracloud.cli import RunConfig, run_solve
from diracloud.cloud import build_cloud_basis
from diracloud.grid import GridConfig, generate_grid
from diracloud.physics import PhysicalSystem


@pytest.fixture(scope="session")
def solve_cached():
    """Memoized run_solve so the heavy reference configurations are
    computed once and shared across test modules."""
    cache = {}

    def run(**kwargs):
        cfg = RunConfig(**kwargs)
        if cfg not in cache:
            cache[cfg] = run_solve(cfg)
        return cache[cfg]

    return run


@pytest.fixture(scope="session")
def uuo_system():
    return PhysicalSystem(Z=118.0, kappa=-2)


@pytest.fixture(scope="session")
def uuo_grid_200():
    return generate_grid(GridConfig(n_intervals=200, I_a=0.0, I_b=100.0,
                                    eps=1e-5, nu=2.2))


@pytest.fixture(scope="session")
def uuo_cloud_200(uuo_grid_200):
    return build_cloud_basis(uuo_grid_200)


@pytest.fixture(scope="session")
def uuo_quad_200(uuo_grid_200):
    return build_quadrature(uuo_grid_200, factor=10)


@pytest.fixture(scope="session")
def uuo_wfm_200(uuo_cloud_200, uuo_system, uuo_quad_200):
    return assemble_weak_form(uuo_cloud_200, uuo_system, uuo_quad_200)
