"""The weight function and the intrinsic enrichment bases.

Each formula has one entry point, the one the shape kernel calls.  The
weight is the quartic spline 1 - 6r^2 + 8r^3 - 3r^4, C^1 with support
[0, 1); QUARTIC_WEIGHT.on_support gives its value and slope together,
unchecked, at r already in [0, 1), because the kernel asks for it only
where a cloud covers the point.  An enrichment basis is a small ordered
family P = [p_1, ..., p_m] with p_1 = 1, and its `pair` gives the members
and their analytic first derivatives together.  BASES names the two the
package offers: "sto" pairs the constant with a Slater-type orbital
x(1 - x/2)exp(-x/2), and "shepard" is the constant alone.  Gaussians are
deliberately not offered: the moment matrix conditioning degrades too
fast with them.
"""
from dataclasses import dataclass

import numpy as np


def _quartic_on_support(r):
    """Value and slope of the quartic spline at r already in [0, 1),
    unchecked, from one r**2 and one r**3."""
    r2, r3 = r**2, r**3
    return 1.0 - 6.0 * r2 + 8.0 * r3 - 3.0 * r**4, -12.0 * r + 24.0 * r2 - 12.0 * r3


@dataclass(frozen=True)
class WeightFunction:
    kind: str
    on_support: callable  # (value, slope) at r in [0, 1), unchecked


QUARTIC_WEIGHT = WeightFunction(kind="quartic_spline", on_support=_quartic_on_support)


@dataclass(frozen=True)
class EnrichmentBasis:
    """An ordered family of m enrichment members with analytic
    derivatives.  pair(s), s a float array, returns P(s) and dP/ds as two
    (m, *s.shape) arrays, each member written into its row."""
    name: str
    m: int
    pair: callable


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


BASES = {"sto": EnrichmentBasis(name="sto", m=2, pair=_sto),
         "shepard": EnrichmentBasis(name="shepard", m=1, pair=_constant)}


def basis_from_name(name: str) -> EnrichmentBasis:
    """Resolve a CLI-style enrichment name, a key of BASES."""
    if name not in BASES:
        raise ValueError(f"unknown enrichment {name!r}")
    return BASES[name]
