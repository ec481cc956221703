"""MLS cloud shape functions with boundary FEM coupling.

For an evaluation point x the moving-least-squares shapes are

    psi_i(x) = P^t(0) M(x)^{-1} B_i(x),
    M(x)  = sum_i phi((x - x_i)/rho_i) P(x_i - x) P^t(x_i - x),
    B_i(x) = phi((x - x_i)/rho_i) P(x_i - x),

with the origin shifted to x (all P arguments are x_i - x); the shift
is what keeps M(x) numerically sane near the origin of the radial
domain.  On top of the shift we equilibrate M symmetrically by its
diagonal before factorizing: without it the raw condition number blows
past 1e13 on production grids while the equilibrated one stays O(1).
The factorization is a symmetric eigendecomposition of the equilibrated
moment matrix; M^{-1} is never formed, and the derivative term
M^{-1} M_x M^{-1} B_i is evaluated by two solves.

Essential boundary conditions use FEM coupling: linear hats at the two
first and two last nodes, with the reproducing-condition correction

    P~^t(x) = P^t(0) - sum_{k in FEM} g_k(x) P^t(x_k - x)

replacing P^t(0), and the hat g_k added to the shape of node k.  The
combined set keeps partition of unity/nullity and is interpolating at
the boundary, so omitting the two boundary rows imposes homogeneous
Dirichlet conditions exactly.
"""
from dataclasses import dataclass

import numpy as np

from .enrichment import EnrichmentBasis, QUARTIC_WEIGHT, WeightFunction, sto_default_basis
from .grid import Grid


class SingularMoment(RuntimeError):
    """Moment matrix unusable at an evaluation point (coverage too thin,
    condition estimate beyond the cap, or non-positive)."""


@dataclass(frozen=True, eq=False)
class CloudBasis:
    grid: Grid
    basis: EnrichmentBasis
    weight: WeightFunction
    fem_nodes: tuple      # nodes carrying FEM hats; first two and last two
    cond_cap: float = 1e12


@dataclass(frozen=True, eq=False)
class ShapeEval:
    x: float
    active_indices: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    cond: float = np.nan


def build_cloud_basis(grid: Grid, basis: EnrichmentBasis = None,
                      weight: WeightFunction = None,
                      cond_cap: float = 1e12) -> CloudBasis:
    n = grid.n_intervals
    fem = tuple(sorted({0, 1, n - 1, n}))
    return CloudBasis(grid=grid,
                      basis=basis if basis is not None else sto_default_basis(),
                      weight=weight if weight is not None else QUARTIC_WEIGHT,
                      fem_nodes=fem,
                      cond_cap=cond_cap)


def _hat(x, k, nodes):
    """Value and slope of the linear hat at node k (slope from the right
    piece when x sits exactly on an interior peak)."""
    n = len(nodes) - 1
    xk = nodes[k]
    if k > 0 and nodes[k - 1] <= x <= xk:
        if not (x == xk and k < n):  # at the peak defer to the right piece
            xl = nodes[k - 1]
            return (x - xl) / (xk - xl), 1.0 / (xk - xl)
    if k < n and xk <= x <= nodes[k + 1]:
        xr = nodes[k + 1]
        return (xr - x) / (xr - xk), -1.0 / (xr - xk)
    return 0.0, 0.0


def _moment_solve(M, cond_cap, x):
    """Symmetric Jacobi equilibration + eigendecomposition of the moment
    matrix; returns a solve closure and the equilibrated condition number."""
    dg = np.diag(M)
    if np.any(dg <= 0.0) or not np.all(np.isfinite(dg)):
        raise SingularMoment(f"moment diagonal not positive at x={x}")
    d = 1.0 / np.sqrt(dg)
    lam, V = np.linalg.eigh(M * d[:, None] * d[None, :])
    cond = lam[-1] / lam[0] if lam[0] > 0.0 else np.inf
    if not np.isfinite(cond) or cond > cond_cap:
        raise SingularMoment(f"moment matrix at x={x}: cond estimate {cond:.3e}")

    def solve(rhs):
        return d * (V @ ((V.T @ (d * rhs)) / lam))

    return solve, cond


def _evaluate(cb: CloudBasis, x: float, coupled: bool) -> ShapeEval:
    grid, P = cb.grid, cb.basis
    nodes, rho = grid.nodes, grid.dilations
    if not (nodes[0] <= x <= nodes[-1]):
        raise ValueError(f"x={x} outside [{nodes[0]}, {nodes[-1]}]")
    u = (x - nodes) / rho
    r = np.abs(u)
    act = np.flatnonzero(r < 1.0)
    if len(act) < P.m:
        raise SingularMoment(f"only {len(act)} clouds cover x={x}, need >= {P.m}")
    ua, ra = u[act], r[act]
    phi = cb.weight.evaluate(ra)
    dphi = cb.weight.derivative(ra) * np.sign(ua) / rho[act]
    s = nodes[act] - x
    p = P.eval(s)        # (m, n_active)
    pd = -P.eval_deriv(s)  # d/dx of P(x_i - x)
    M = (phi * p) @ p.T
    Mx = (dphi * p) @ p.T + (phi * pd) @ p.T + (phi * p) @ pd.T
    solve, cond = _moment_solve(M, cb.cond_cap, x)

    p0 = P.eval(np.zeros(1))[:, 0]
    if coupled:
        pt = p0.copy()
        dpt = np.zeros_like(p0)
        hat_v, hat_s = {}, {}
        for k in cb.fem_nodes:
            g, dg = _hat(x, k, nodes)
            hat_v[k], hat_s[k] = g, dg
            if g != 0.0 or dg != 0.0:
                sk = np.array([nodes[k] - x])
                pk = P.eval(sk)[:, 0]
                dpk = -P.eval_deriv(sk)[:, 0]
                pt = pt - g * pk
                dpt = dpt - dg * pk - g * dpk
    else:
        pt, dpt = p0, np.zeros_like(p0)
        hat_v = hat_s = {}

    a = solve(pt)
    c = solve(Mx @ a)
    dd = solve(dpt)
    vals = phi * (a @ p)
    ders = dphi * (a @ p) + phi * (a @ pd) + phi * ((dd - c) @ p)

    if coupled:
        for k in cb.fem_nodes:
            if hat_v.get(k, 0.0) != 0.0 or hat_s.get(k, 0.0) != 0.0:
                j = np.searchsorted(act, k)
                if j < len(act) and act[j] == k:
                    vals[j] += hat_v[k]
                    ders[j] += hat_s[k]
                else:
                    act = np.insert(act, j, k)
                    vals = np.insert(vals, j, hat_v[k])
                    ders = np.insert(ders, j, hat_s[k])
    return ShapeEval(x=x, active_indices=act, values=vals, derivs=ders, cond=cond)


def evaluate_clouds(cb: CloudBasis, x: float) -> ShapeEval:
    """Pure MLS shapes (no boundary coupling)."""
    return _evaluate(cb, x, coupled=False)


def evaluate_coupled(cb: CloudBasis, x: float) -> ShapeEval:
    """MLS shapes with the boundary FEM hats coupled in."""
    return _evaluate(cb, x, coupled=True)
