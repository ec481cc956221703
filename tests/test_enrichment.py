import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracloud.enrichment import (QUARTIC_WEIGHT, basis_from_name, quartic_spline,
                                  quartic_spline_deriv, shepard_basis, sto_default_basis)


def test_quartic_spline_values():
    assert quartic_spline(0.0) == 1.0
    assert quartic_spline(0.5) == pytest.approx(0.3125, abs=1e-15)
    assert quartic_spline(1.0) == 0.0
    assert quartic_spline(1.7) == 0.0          # zero beyond the support
    assert quartic_spline_deriv(0.0) == 0.0
    assert quartic_spline_deriv(0.5) == pytest.approx(-1.5, abs=1e-15)
    assert quartic_spline_deriv(1.7) == 0.0


def test_quartic_spline_rejects_negative():
    with pytest.raises(ValueError):
        quartic_spline(-0.1)
    with pytest.raises(ValueError):
        quartic_spline_deriv(np.array([0.2, -0.3]))


def test_quartic_spline_c1_at_support_edge():
    # value and slope both vanish approaching r = 1 from inside
    r = 1.0 - 1e-8
    assert abs(quartic_spline(r)) < 1e-7
    assert abs(quartic_spline_deriv(r)) < 1e-7


@settings(max_examples=80, deadline=None)
@given(r=st.floats(0.0, 1.0))
def test_quartic_spline_monotone_decreasing_on_support(r):
    v = float(quartic_spline(r))
    assert 0.0 <= v <= 1.0
    assert quartic_spline_deriv(r) <= 0.0


def test_quartic_weight_bundle():
    assert QUARTIC_WEIGHT.kind == "quartic_spline"
    assert QUARTIC_WEIGHT.evaluate(0.5) == pytest.approx(0.3125)
    assert QUARTIC_WEIGHT.derivative(0.5) == pytest.approx(-1.5)


def test_sto_basis_shape_and_values():
    b = sto_default_basis()
    assert b.m == 2
    s = np.array([0.0, 2.0])
    vals = b.eval(s)
    assert vals.shape == (2, 2)
    assert np.all(vals[0] == 1.0)              # constant member
    assert vals[1, 0] == 0.0                   # s(1 - s/2)e^{-s/2} at 0
    assert vals[1, 1] == pytest.approx(0.0, abs=1e-15)   # and at 2
    ders = b.eval_deriv(np.array([0.0]))
    assert ders[0, 0] == 0.0
    assert ders[1, 0] == pytest.approx(1.0, abs=1e-15)   # unit slope at 0


def test_sto_derivative_matches_finite_difference():
    b = sto_default_basis()
    s = np.linspace(0.05, 6.0, 40)
    d = 1e-7
    fd = (b.eval(s + d)[1] - b.eval(s - d)[1]) / (2 * d)
    assert b.eval_deriv(s)[1] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_first_member_is_always_one():
    for b in (sto_default_basis(), shepard_basis()):
        s = np.linspace(0.0, 5.0, 11)
        assert np.all(b.eval(s)[0] == 1.0)
        assert np.all(b.eval_deriv(s)[0] == 0.0)


def test_basis_from_name():
    assert basis_from_name("sto").name == "sto"
    assert basis_from_name("shepard").m == 1
    with pytest.raises(ValueError):
        basis_from_name("gto")
