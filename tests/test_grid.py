import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracloud.grid import GridConfig, generate_grid


def ref_nodes(cfg):
    # closed form, written out independently of the implementation
    i = np.arange(cfg.n_intervals + 1)
    la = np.log(cfg.I_a + cfg.eps)
    lb = np.log(cfg.I_b + cfg.eps)
    return np.exp(la + (lb - la) / cfg.n_intervals * i) - cfg.eps


def test_two_interval_unit_domain():
    g = generate_grid(GridConfig(n_intervals=2, I_a=0.0, I_b=1.0, eps=1.0, nu=2.2))
    assert g.nodes == pytest.approx([0.0, np.sqrt(2.0) - 1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("bad", [
    dict(n_intervals=1),
    dict(n_intervals=0),
    dict(eps=0.0),
    dict(eps=-0.5),
    dict(eps=1.5),
    dict(I_a=1.0, I_b=1.0),
    dict(I_a=2.0, I_b=1.0),
    dict(nu=1.0),
    dict(nu=0.5),
])
def test_config_rejections(bad):
    kw = dict(n_intervals=10, I_a=0.0, I_b=1.0, eps=0.5, nu=2.2)
    kw.update(bad)
    with pytest.raises(ValueError):
        GridConfig(**kw)


def test_matches_closed_form():
    cfg = GridConfig(n_intervals=37, I_a=0.0, I_b=100.0, eps=1e-5, nu=2.2)
    g = generate_grid(cfg)
    ref = ref_nodes(cfg)
    # interior from the formula, endpoints pinned exactly
    assert g.nodes[1:-1] == pytest.approx(ref[1:-1], rel=1e-13)
    assert g.nodes[0] == cfg.I_a
    assert g.nodes[-1] == cfg.I_b


def test_spacings_and_dilations():
    cfg = GridConfig(n_intervals=12, I_a=0.5, I_b=30.0, eps=0.3, nu=2.5)
    g = generate_grid(cfg)
    h = np.diff(g.nodes)
    assert g.spacings == pytest.approx(h, rel=1e-15)
    assert g.dilations[0] == pytest.approx(cfg.nu * h[0])
    assert g.dilations[-1] == pytest.approx(cfg.nu * h[-1])
    for j in range(1, len(g.nodes) - 1):
        assert g.dilations[j] == pytest.approx(cfg.nu * max(h[j - 1], h[j]))


def test_grid_is_graded_toward_origin():
    g = generate_grid(GridConfig(n_intervals=50, I_a=0.0, I_b=100.0,
                                 eps=1e-5, nu=2.2))
    assert np.all(np.diff(g.spacings) > 0.0)  # strictly growing spacings
    assert g.spacings[0] < 1e-4 < g.spacings[-1]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 50),
       ia=st.floats(0.0, 5.0),
       width=st.floats(0.1, 200.0),
       eps=st.floats(0.01, 1.0),
       nu=st.floats(1.01, 5.0))
def test_grid_invariants(n, ia, width, eps, nu):
    cfg = GridConfig(n_intervals=n, I_a=ia, I_b=ia + width, eps=eps, nu=nu)
    g = generate_grid(cfg)
    assert len(g.nodes) == n + 1
    assert len(g.spacings) == n
    assert len(g.dilations) == n + 1
    assert g.nodes[0] == cfg.I_a and g.nodes[-1] == cfg.I_b
    assert np.all(np.diff(g.nodes) > 0.0)
    assert np.all(g.spacings > 0.0)
    assert np.all(g.dilations > 0.0)
    assert g.n_intervals == n
