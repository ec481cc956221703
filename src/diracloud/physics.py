"""Radial Dirac operator data: potentials, constants, exact spectrum.

Everything is in Hartree atomic units (hbar = m_e = e = 1), so the
fine-structure constant is alpha = 1/c.  Eigenvalues are reported
shifted by -mc^2 so that bound states sit in (-mc^2, 0).
"""
from dataclasses import dataclass

import numpy as np

C_LIGHT = 137.035999084
BOHR_IN_FM = 5.29177210903e4  # 1 bohr in femtometers
NUCLEI = ("point", "extended_uniform")  # nuclear charge models


class SupercriticalCharge(ValueError):
    """Z alpha exceeds |kappa|: the point-nucleus formula breaks down."""


@dataclass(frozen=True)
class PhysicalSystem:
    Z: float
    kappa: int
    A: float = 0.0            # atomic weight, only used for the nucleus radius
    c: float = C_LIGHT
    m: float = 1.0
    nucleus: str = "point"    # one of NUCLEI
    r0_fm: float = 1.2        # nuclear radius model R = r0 * A^(1/3)

    def __post_init__(self):
        if self.kappa == 0:
            raise ValueError("kappa must be a nonzero integer")
        # NaN fails every comparison, so these reject NaN as well as inf
        if not 0.0 <= self.Z < np.inf:
            raise ValueError(f"Z must be finite and >= 0, got {self.Z}")
        if not 0.0 <= self.A < np.inf:
            raise ValueError(f"A must be finite and >= 0, got {self.A}")
        if not 0.0 < self.c < np.inf:
            raise ValueError(f"c must be finite and > 0, got {self.c}")
        if not 0.0 < self.m < np.inf:
            raise ValueError(f"m must be finite and > 0, got {self.m}")
        if self.nucleus not in NUCLEI:
            raise ValueError(f"unknown nucleus model {self.nucleus!r}")
        if self.nucleus == "extended_uniform" and self.A <= 0:
            raise ValueError("extended_uniform nucleus requires A > 0")

    @property
    def alpha(self):
        return 1.0 / self.c

    @property
    def mc2(self):
        return self.m * self.c * self.c

    @property
    def nucleus_radius(self):
        """R in bohr for the uniformly charged ball model."""
        return self.r0_fm * self.A ** (1.0 / 3.0) / BOHR_IN_FM


def potential(sys: PhysicalSystem, x):
    """V(x): -Z/x for a point nucleus; for the uniform ball the interior
    is the C^1 parabolic continuation -(Z/2R)(3 - x^2/R^2)."""
    x = np.asarray(x, dtype=float)
    if sys.nucleus == "point":
        if np.any(x <= 0.0):
            raise ValueError("point-nucleus potential undefined at x <= 0")
        return -sys.Z / x
    if np.any(x < 0.0):
        raise ValueError("x must be >= 0")
    R = sys.nucleus_radius
    inside = -(sys.Z / (2.0 * R)) * (3.0 - (x / R) ** 2)
    outside = -sys.Z / np.where(x > 0.0, x, 1.0)  # dummy at x=0, masked below
    return np.where(x <= R, inside, outside)


def exact_eigenvalue(sys: PhysicalSystem, nr: int) -> float:
    """Shifted bound-state level of the point-nucleus problem,

        mc^2 / sqrt(1 + (Z alpha)^2 / (nr - 1 + sqrt(kappa^2 - (Z alpha)^2))^2) - mc^2.

    For kappa > 0 the nr = 1 slot does not correspond to a physical
    state (there is no 1p_{1/2}); callers wanting physical levels for
    positive kappa should start at nr = 2 (see eigen.classify_spectrum).
    """
    if nr < 1:
        raise ValueError(f"nr must be >= 1, got {nr}")
    za = sys.Z * sys.alpha
    if za * za >= sys.kappa * sys.kappa:
        raise SupercriticalCharge(
            f"(Z alpha)^2 = {za*za:.6f} >= kappa^2 = {sys.kappa**2}")
    s = np.sqrt(sys.kappa * sys.kappa - za * za)
    return sys.mc2 / np.sqrt(1.0 + (za / (nr - 1 + s)) ** 2) - sys.mc2
