"""Weight functions and intrinsic enrichment bases.

The weight is a quartic spline, C^1 with support [0, 1).  Enrichment
bases are small ordered families P = [p_1, ..., p_m] with p_1 = 1 and
analytic first derivatives; the default pairs the constant with a
Slater-type orbital x(1 - x/2)exp(-x/2).  Gaussians are deliberately
not offered: the moment matrix conditioning degrades too fast with them.
"""
from dataclasses import dataclass

import numpy as np


def _quartic_on_support(r):
    """Value and slope of the quartic spline at r already in [0, 1),
    unchecked, from one r**2 and one r**3."""
    r2, r3 = r**2, r**3
    return 1.0 - 6.0 * r2 + 8.0 * r3 - 3.0 * r**4, -12.0 * r + 24.0 * r2 - 12.0 * r3


def _check_nonneg(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("weight argument r must be >= 0")
    return r


def quartic_spline(r):
    """1 - 6r^2 + 8r^3 - 3r^4 on [0, 1), zero outside."""
    r = _check_nonneg(r)
    return np.where(r < 1.0, _quartic_on_support(r)[0], 0.0)


def quartic_spline_deriv(r):
    r = _check_nonneg(r)
    return np.where(r < 1.0, _quartic_on_support(r)[1], 0.0)


@dataclass(frozen=True)
class WeightFunction:
    kind: str
    evaluate: callable
    derivative: callable
    on_support: callable  # (value, slope) at r in [0, 1), unchecked


QUARTIC_WEIGHT = WeightFunction(
    kind="quartic_spline",
    evaluate=quartic_spline,
    derivative=quartic_spline_deriv,
    on_support=_quartic_on_support,
)


@dataclass(frozen=True)
class EnrichmentBasis:
    """An ordered family of m enrichment members with analytic
    derivatives.  pair(s), s a float array, returns P(s) and dP/ds as two
    (m, *s.shape) arrays, each member written into its row."""
    name: str
    m: int
    pair: callable

    def eval(self, s):
        return self.pair(np.asarray(s, dtype=float))[0]

    def eval_deriv(self, s):
        return self.pair(np.asarray(s, dtype=float))[1]


def _constant(s):
    """[1] and its zero slope."""
    return np.ones((1,) + s.shape), np.zeros((1,) + s.shape)


def _sto(s):
    """[1, s(1 - s/2) exp(-s/2)] and the slopes, one exp(-s/2) for both:
    d/ds [ (s - s^2/2) e^{-s/2} ] = e^{-s/2} (1 - 3s/2 + s^2/4)."""
    p, dp = np.empty((2, 2) + s.shape)
    p[0], dp[0] = 1.0, 0.0
    e = np.exp(-0.5 * s)
    np.multiply(s * (1.0 - 0.5 * s), e, out=p[1])
    np.multiply(e, 1.0 - 1.5 * s + 0.25 * s * s, out=dp[1])
    return p, dp


def sto_default_basis() -> EnrichmentBasis:
    """P(x) = [1, x(1 - x/2) exp(-x/2)], the production enrichment."""
    return EnrichmentBasis(name="sto", m=2, pair=_sto)


def shepard_basis() -> EnrichmentBasis:
    """Constant-only basis, m=1 (Shepard interpolation)."""
    return EnrichmentBasis(name="shepard", m=1, pair=_constant)


def basis_from_name(name: str) -> EnrichmentBasis:
    """Resolve a CLI-style enrichment name: "sto" or "shepard"."""
    if name == "sto":
        return sto_default_basis()
    if name == "shepard":
        return shepard_basis()
    raise ValueError(f"unknown enrichment {name!r}")
