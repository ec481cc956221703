"""Weight functions and intrinsic enrichment bases.

The weight is a quartic spline, C^1 with support [0, 1).  Enrichment
bases are small ordered families P = [p_1, ..., p_m] with p_1 = 1 and
analytic first derivatives; the default pairs the constant with a
Slater-type orbital x(1 - x/2)exp(-x/2).  Hydrogen-like radial
functions built from associated Laguerre polynomials are available as
an alternative.  Gaussians are deliberately not offered: the moment
matrix conditioning degrades too fast with them.
"""
from dataclasses import dataclass
from math import comb, factorial

import numpy as np


def _check_nonneg(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("weight argument r must be >= 0")
    return r


def quartic_spline(r):
    """1 - 6r^2 + 8r^3 - 3r^4 on [0, 1), zero outside."""
    r = _check_nonneg(r)
    return np.where(r < 1.0, 1.0 - 6.0 * r**2 + 8.0 * r**3 - 3.0 * r**4, 0.0)


def quartic_spline_deriv(r):
    r = _check_nonneg(r)
    return np.where(r < 1.0, -12.0 * r + 24.0 * r**2 - 12.0 * r**3, 0.0)


@dataclass(frozen=True)
class WeightFunction:
    kind: str
    evaluate: callable
    derivative: callable


QUARTIC_WEIGHT = WeightFunction(
    kind="quartic_spline",
    evaluate=quartic_spline,
    derivative=quartic_spline_deriv,
)


@dataclass(frozen=True)
class EnrichmentBasis:
    """Ordered list of enrichment members with analytic derivatives."""
    name: str
    members: tuple   # callables p_k(s), vectorized over numpy arrays
    derivs: tuple    # d p_k / ds

    @property
    def m(self):
        return len(self.members)

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.broadcast_to(f(s), s.shape).astype(float) for f in self.members])

    def eval_deriv(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.broadcast_to(f(s), s.shape).astype(float) for f in self.derivs])


def _one(s):
    return np.ones_like(s)


def _zero(s):
    return np.zeros_like(s)


def sto_default_basis() -> EnrichmentBasis:
    """P(x) = [1, x(1 - x/2) exp(-x/2)], the production enrichment."""
    def p2(s):
        return s * (1.0 - 0.5 * s) * np.exp(-0.5 * s)

    def dp2(s):
        # d/ds [ (s - s^2/2) e^{-s/2} ] = e^{-s/2} (1 - 3s/2 + s^2/4)
        return np.exp(-0.5 * s) * (1.0 - 1.5 * s + 0.25 * s * s)

    return EnrichmentBasis(name="sto", members=(_one, p2), derivs=(_zero, dp2))


def shepard_basis() -> EnrichmentBasis:
    """Constant-only basis, m=1 (Shepard interpolation)."""
    return EnrichmentBasis(name="shepard", members=(_one,), derivs=(_zero,))


def _laguerre_coeffs(nr: int, ell: int) -> np.ndarray:
    """Coefficients (ascending powers) of L^{2l+1}_{nr+l}(x) =
    sum_k (-1)^k/k! C(nr+3l+1, nr+l-k) x^k."""
    if nr < 1 or ell < 0:
        raise ValueError(f"invalid quantum numbers nr={nr}, ell={ell}")
    deg = nr + ell
    return np.array([(-1.0) ** k / factorial(k) * comb(nr + 3 * ell + 1, deg - k)
                     for k in range(deg + 1)])


def laguerre(nr: int, ell: int, x):
    """Associated Laguerre polynomial in the convention used by the
    hydrogen-like radial functions (degree nr+ell, upper index 2ell+1)."""
    c = _laguerre_coeffs(nr, ell)
    x = np.asarray(x, dtype=float)
    return sum(ck * x**k for k, ck in enumerate(c))


def hydrogenic_basis(Z: float, nr: int, ell: int) -> EnrichmentBasis:
    """[1, R(x)] with R the (unnormalized) radial Coulomb-Schrodinger
    solution (2Zx/nr)^l L^{2l+1}_{nr+l}(2Zx/nr) exp(-Zx/nr)."""
    c = _laguerre_coeffs(nr, ell)
    dc = np.array([k * ck for k, ck in enumerate(c)][1:] or [0.0])
    a = 2.0 * Z / nr  # y = a x

    def Lp(y):
        return sum(ck * y**k for k, ck in enumerate(dc))

    def R(s):
        y = a * np.asarray(s, dtype=float)
        return y**ell * laguerre(nr, ell, y) * np.exp(-0.5 * y)

    def dR(s):
        y = a * np.asarray(s, dtype=float)
        L = laguerre(nr, ell, y)
        core = y**ell * (Lp(y) - 0.5 * L)
        if ell > 0:
            core = core + ell * y ** (ell - 1) * L
        return a * core * np.exp(-0.5 * y)

    name = f"hydrogenic:{nr},{ell}"
    return EnrichmentBasis(name=name, members=(_one, R), derivs=(_zero, dR))


def basis_from_name(name: str, Z: float = 1.0) -> EnrichmentBasis:
    """Resolve a CLI-style enrichment name: "sto", "shepard" or
    "hydrogenic:nr,ell"."""
    if name == "sto":
        return sto_default_basis()
    if name == "shepard":
        return shepard_basis()
    if name.startswith("hydrogenic:"):
        try:
            nr_s, ell_s = name.split(":", 1)[1].split(",")
            return hydrogenic_basis(Z, int(nr_s), int(ell_s))
        except ValueError as e:
            raise ValueError(f"bad hydrogenic spec {name!r}: expected hydrogenic:nr,ell") from e
    raise ValueError(f"unknown enrichment {name!r}")
