import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracloud.physics import (BOHR_IN_FM, PhysicalSystem, SupercriticalCharge,
                               exact_eigenvalue, potential)


def test_point_potential():
    sys = PhysicalSystem(Z=1.0, kappa=-1)
    assert potential(sys, 1.0) == pytest.approx(-1.0)
    assert potential(sys, np.array([0.5, 2.0])) == pytest.approx([-2.0, -0.5])
    with pytest.raises(ValueError):
        potential(sys, 0.0)
    with pytest.raises(ValueError):
        potential(sys, -1.0)


def test_system_validation():
    with pytest.raises(ValueError):
        PhysicalSystem(Z=1.0, kappa=0)
    with pytest.raises(ValueError):
        PhysicalSystem(Z=-1.0, kappa=-1)
    with pytest.raises(ValueError):
        PhysicalSystem(Z=1.0, kappa=-1, c=0.0)
    with pytest.raises(ValueError):
        PhysicalSystem(Z=1.0, kappa=-1, nucleus="gaussian")
    with pytest.raises(ValueError):
        PhysicalSystem(Z=1.0, kappa=-1, nucleus="extended_uniform")  # needs A


def test_extended_nucleus_radius_model():
    sys = PhysicalSystem(Z=118.0, kappa=-2, A=294.0, nucleus="extended_uniform")
    assert sys.nucleus_radius == pytest.approx(1.2 * 294.0 ** (1 / 3) / BOHR_IN_FM)


def test_extended_potential_is_c1_at_the_surface():
    sys = PhysicalSystem(Z=118.0, kappa=-2, A=294.0, nucleus="extended_uniform")
    R = sys.nucleus_radius
    # the two branch formulas agree in value and slope at x = R
    inside_v = -(sys.Z / (2 * R)) * (3.0 - 1.0)
    assert inside_v == pytest.approx(-sys.Z / R, rel=1e-14)
    d = 1e-9 * R
    assert potential(sys, R - d) == pytest.approx(float(potential(sys, R + d)), rel=1e-7)
    # one-sided difference quotients on each side of R both give the
    # Coulomb slope Z/R^2 (truncation error ~ h/R, rounding ~ 1e-16 R/h)
    h = 1e-5 * R
    VR = float(potential(sys, R))
    left = (VR - float(potential(sys, R - h))) / h
    right = (float(potential(sys, R + h)) - VR) / h
    assert left == pytest.approx(sys.Z / R**2, rel=1e-4)
    assert right == pytest.approx(sys.Z / R**2, rel=1e-4)
    # interior parabola at half radius
    assert potential(sys, R / 2) == pytest.approx(-(sys.Z / (2 * R)) * (3 - 0.25))
    # matches the point form well outside
    assert potential(sys, 1.0) == pytest.approx(-sys.Z)


def test_exact_eigenvalue_against_reference():
    # reference values for the lowest hydrogen kappa=-1 levels
    ref = (-0.50000665659, -0.12500208018, -0.05555629517,
           -0.03125033803, -0.02000018105)
    sys = PhysicalSystem(Z=1.0, kappa=-1)
    for nr, r in enumerate(ref, start=1):
        assert abs(exact_eigenvalue(sys, nr) - r) < 1e-8


def test_exact_eigenvalue_oracle_formula():
    # independent arrangement: solve for the unshifted energy first
    sys = PhysicalSystem(Z=92.0, kappa=2)
    za = sys.Z / sys.c
    for nr in (1, 2, 5):
        g = np.sqrt(sys.kappa**2 - za**2)
        unshifted = sys.mc2 * (1.0 + (za / (nr - 1 + g)) ** 2) ** -0.5
        assert exact_eigenvalue(sys, nr) == pytest.approx(unshifted - sys.mc2,
                                                          rel=1e-14)


def test_exact_eigenvalue_guards():
    sys = PhysicalSystem(Z=1.0, kappa=-1)
    with pytest.raises(ValueError):
        exact_eigenvalue(sys, 0)
    with pytest.raises(SupercriticalCharge):
        exact_eigenvalue(PhysicalSystem(Z=140.0, kappa=-1), 1)
    # heavy but subcritical: (Z alpha)^2 = 0.74 < kappa^2 = 1
    assert exact_eigenvalue(PhysicalSystem(Z=118.0, kappa=-1), 1) < 0.0


def test_mirror_degeneracy_of_the_formula():
    # same |kappa| gives identical values level by level; the kappa > 0
    # list simply starts one radial quantum number later
    m = PhysicalSystem(Z=118.0, kappa=-2)
    p = PhysicalSystem(Z=118.0, kappa=+2)
    for nr in (1, 2, 3, 7):
        assert exact_eigenvalue(m, nr) == pytest.approx(exact_eigenvalue(p, nr),
                                                        rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(z=st.floats(1.0, 130.0), x=st.floats(0.01, 50.0))
def test_potential_is_negative(z, x):
    sys = PhysicalSystem(Z=z, kappa=-2)
    assert float(potential(sys, x)) < 0.0
