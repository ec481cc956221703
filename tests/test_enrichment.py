import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracloud.enrichment import BASES, QUARTIC_WEIGHT, basis_from_name

quartic = QUARTIC_WEIGHT.on_support


def test_quartic_spline_values():
    w, dw = quartic(np.array(0.0))
    assert w == 1.0
    assert dw == 0.0
    w, dw = quartic(np.array(0.5))
    assert w == pytest.approx(0.3125, abs=1e-15)
    assert dw == pytest.approx(-1.5, abs=1e-15)


def test_quartic_spline_c1_at_support_edge():
    # value and slope both vanish approaching r = 1 from inside
    w, dw = quartic(np.array(1.0 - 1e-8))
    assert abs(w) < 1e-7
    assert abs(dw) < 1e-7


@settings(max_examples=80, deadline=None)
@given(r=st.floats(0.0, 1.0, exclude_max=True))
def test_quartic_spline_monotone_decreasing_on_support(r):
    w, dw = quartic(np.array(r))
    assert 0.0 <= w <= 1.0
    assert dw <= 0.0


def test_quartic_weight_bundle():
    assert QUARTIC_WEIGHT.kind == "quartic_spline"
    w, dw = QUARTIC_WEIGHT.on_support(np.array([0.5]))
    assert w[0] == pytest.approx(0.3125)
    assert dw[0] == pytest.approx(-1.5)


def test_sto_basis_shape_and_values():
    b = BASES["sto"]
    assert b.m == 2
    vals = b.pair(np.array([0.0, 2.0]))[0]
    assert vals.shape == (2, 2)
    assert np.all(vals[0] == 1.0)              # constant member
    assert vals[1, 0] == 0.0                   # s(1 - s/2)e^{-s/2} at 0
    assert vals[1, 1] == pytest.approx(0.0, abs=1e-15)   # and at 2
    ders = b.pair(np.array([0.0]))[1]
    assert ders[0, 0] == 0.0
    assert ders[1, 0] == pytest.approx(1.0, abs=1e-15)   # unit slope at 0


def test_sto_derivative_matches_finite_difference():
    b = BASES["sto"]
    s = np.linspace(0.05, 6.0, 40)
    d = 1e-7
    fd = (b.pair(s + d)[0][1] - b.pair(s - d)[0][1]) / (2 * d)
    assert b.pair(s)[1][1] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_one_pass_weight_and_basis_equal_their_member_formulas_bit_for_bit():
    # the weight and its slope from one r**2 and one r**3, and the STO
    # member and its slope from one exp(-s/2), change no bit of the
    # per-formula evaluation they replaced, over the whole support
    r = np.linspace(0.0, 1.0, 1001, endpoint=False)
    w, dw = quartic(r)
    assert np.array_equal(w.view(np.uint64),
                          (1.0 - 6.0 * r**2 + 8.0 * r**3 - 3.0 * r**4).view(np.uint64))
    assert np.array_equal(dw.view(np.uint64),
                          (-12.0 * r + 24.0 * r**2 - 12.0 * r**3).view(np.uint64))
    s = np.random.default_rng(29).uniform(-40.0, 40.0, (7, 13))
    p, dp = BASES["sto"].pair(s)
    e = np.exp(-0.5 * s)
    assert p.shape == dp.shape == (2, 7, 13)
    assert np.all(p[0] == 1.0) and np.all(dp[0] == 0.0)
    assert np.array_equal(p[1].view(np.uint64),
                          (s * (1.0 - 0.5 * s) * np.exp(-0.5 * s)).view(np.uint64))
    assert np.array_equal(dp[1].view(np.uint64),
                          (e * (1.0 - 1.5 * s + 0.25 * s * s)).view(np.uint64))


def test_first_member_is_always_one():
    for b in BASES.values():
        p, dp = b.pair(np.linspace(0.0, 5.0, 11))
        assert np.all(p[0] == 1.0)
        assert np.all(dp[0] == 0.0)


def test_basis_from_name():
    assert basis_from_name("sto").name == "sto"
    assert basis_from_name("shepard").m == 1
    with pytest.raises(ValueError):
        basis_from_name("gto")
