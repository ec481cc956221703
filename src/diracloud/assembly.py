"""Weak-form assembly, stability parameters, and the eigenproblem blocks.

Matrix convention: (M_rst^q)_{ij} = int psi_j^{(s)} psi_i^{(r)} x^{-t} q dx,
i.e. r counts derivatives on the test function (rows), s on the trial
function (columns), t the power of 1/x, and q an optional weight (the
potential V for the _V variants).  Everything is assembled on the
Dirichlet-retained index set 1..n-1 with one dense accumulation pass
over the quadrature points.

The stabilized variant perturbs the Galerkin blocks row-wise: row j of
the residual blocks gets scaled by a stability parameter tau_j computed
either from the assembled matrices themselves (ratio of displacement-
weighted row sums of M_000 and M_100) or from the closed-form FEM
expression (3/17) h_{j+1} (h_{j+1} - h_j) / (h_{j+1} + h_j).
"""
from dataclasses import dataclass

import numpy as np

from .cloud import CloudBasis, evaluate_coupled
from .grid import Grid
from .physics import PhysicalSystem, potential

_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)  # 2-point Gauss-Legendre on a unit cell

METHODS = ("galerkin", "cpg", "cpg_fem_tau")


class DegenerateTau(RuntimeError):
    """Vanishing denominator in the stability-parameter ratio."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    cells: np.ndarray    # (ncells, 2) interval endpoints
    points: np.ndarray
    weights: np.ndarray
    points_per_cell: int = 2

    @property
    def total_points(self):
        return len(self.points)


def build_quadrature(grid: Grid, factor: int = 10, split_at: float = None) -> QuadratureRule:
    """factor/2 equal cells per nodal interval, 2-point Gauss each, so
    factor*n points total.  split_at (e.g. a potential kink) forces a
    cell boundary at that coordinate when it falls inside the domain."""
    if factor < 2 or factor % 2 != 0:
        raise ValueError(f"quadrature factor must be even and >= 2, got {factor}")
    ncell = factor // 2
    nodes = grid.nodes
    cells = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        if split_at is not None and a < split_at < b:
            # distribute the cells over the two pieces, at least one each
            left = max(1, min(ncell - 1, round(ncell * (split_at - a) / (b - a))))
            edges = np.concatenate([np.linspace(a, split_at, left + 1),
                                    np.linspace(split_at, b, ncell - left + 1)[1:]])
        else:
            edges = np.linspace(a, b, ncell + 1)
        cells.extend(zip(edges[:-1], edges[1:]))
    cells = np.array(cells)
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    width = cells[:, 1] - cells[:, 0]
    pts = np.empty(2 * len(cells))
    wts = np.empty(2 * len(cells))
    pts[0::2] = mid - _GAUSS_OFFSET * width
    pts[1::2] = mid + _GAUSS_OFFSET * width
    wts[0::2] = wts[1::2] = 0.5 * width
    return QuadratureRule(cells=cells, points=pts, weights=wts)


@dataclass(frozen=True, eq=False)
class WeakFormMatrices:
    M_000: np.ndarray
    M_010: np.ndarray
    M_001: np.ndarray
    M_100: np.ndarray
    M_110: np.ndarray
    M_101: np.ndarray
    M_000_V: np.ndarray
    M_100_V: np.ndarray


def assemble_weak_form(cb: CloudBasis, sys: PhysicalSystem,
                       quad: QuadratureRule) -> WeakFormMatrices:
    """The weak-form blocks in one pass over the quadrature points."""
    n = cb.grid.n_intervals
    nd = n - 1
    retained_lo, retained_hi = 1, n - 1
    keys = ("000", "100", "001", "110", "101", "000V", "100V")
    M = {k: np.zeros((nd, nd)) for k in keys}
    for x, w in zip(quad.points, quad.weights):
        ev = evaluate_coupled(cb, x)
        act, vals, ders = ev.active_indices, ev.values, ev.derivs
        keep = (act >= retained_lo) & (act <= retained_hi)
        idx = act[keep] - retained_lo
        v = vals[keep]
        dv = ders[keep]
        V = float(potential(sys, x))
        ix = np.ix_(idx, idx)
        ov = np.outer(v, v)
        odv = np.outer(dv, v)
        M["000"][ix] += w * ov
        M["100"][ix] += w * odv
        M["001"][ix] += (w / x) * ov
        M["110"][ix] += w * np.outer(dv, dv)
        M["101"][ix] += (w / x) * odv
        M["000V"][ix] += (w * V) * ov
        M["100V"][ix] += (w * V) * odv
    return WeakFormMatrices(M_000=M["000"], M_010=M["100"].T, M_001=M["001"],
                            M_100=M["100"], M_110=M["110"], M_101=M["101"],
                            M_000_V=M["000V"], M_100_V=M["100V"])


def stability_tau(wfm, grid_or_coords) -> np.ndarray:
    """Row-wise stability parameter from the assembled matrices:
    tau_j = | sum_i sigma_ji theta_ji / sum_i eta_ji theta_ji |
    with sigma, eta the rows of M_000 and M_100 and theta_ji = x_i - x_j
    the displacements over the working coordinates (the retained nodes
    when a Grid is passed).  wfm may be a WeakFormMatrices or any object
    with M_000/M_100 attributes."""
    M000, M100 = wfm.M_000, wfm.M_100
    if isinstance(grid_or_coords, Grid):
        xr = grid_or_coords.nodes[1:-1]
    else:
        xr = np.asarray(grid_or_coords, dtype=float)
    if len(xr) != M000.shape[0]:
        raise ValueError("coordinate set does not match matrix dimension")
    tau = np.empty(len(xr))
    for j in range(len(xr)):
        th = xr - xr[j]
        num = M000[j] @ th
        den = M100[j] @ th
        if abs(den) <= np.finfo(float).eps * (np.abs(M100[j]) @ np.abs(th)):
            raise DegenerateTau(f"vanishing denominator in row {j + 1}")
        tau[j] = abs(num / den)
    return tau


def stability_tau_fem(grid: Grid, j: int) -> float:
    """Closed-form FEM stability parameter for row j (1-based):
    (3/17) h_{j+1} (h_{j+1} - h_j) / (h_{j+1} + h_j)."""
    h = grid.spacings
    if not (1 <= j <= len(h) - 1):
        raise ValueError(f"row index {j} outside 1..{len(h) - 1}")
    hj, hj1 = h[j - 1], h[j]
    return (3.0 / 17.0) * hj1 * (hj1 - hj) / (hj1 + hj)


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    A: np.ndarray
    B: np.ndarray
    script_A: np.ndarray
    script_B: np.ndarray
    tau: np.ndarray
    method: str


def assemble_system(wfm: WeakFormMatrices, sys: PhysicalSystem, method: str,
                    grid: Grid = None) -> AssembledSystem:
    """Build the 2x2-block generalized eigenproblem.  galerkin leaves the
    blocks alone (tau = 0); the cpg variants add the residual blocks with
    row j scaled by tau_j (same tau for both block-rows of a node)."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    nd = wfm.M_000.shape[0]
    c, k, mc2 = sys.c, sys.kappa, sys.mc2
    Z = np.zeros((nd, nd))
    A = np.block([
        [mc2 * wfm.M_000 + wfm.M_000_V, -c * wfm.M_010 + c * k * wfm.M_001],
        [c * wfm.M_010 + c * k * wfm.M_001, -mc2 * wfm.M_000 + wfm.M_000_V],
    ])
    B = np.block([[wfm.M_000, Z], [Z, wfm.M_000]])
    sA = np.block([
        [c * wfm.M_110 + c * k * wfm.M_101, -mc2 * wfm.M_100 + wfm.M_100_V],
        [mc2 * wfm.M_100 + wfm.M_100_V, -c * wfm.M_110 + c * k * wfm.M_101],
    ])
    sB = np.block([[Z, wfm.M_100], [wfm.M_100, Z]])

    if method == "galerkin":
        tau = np.zeros(nd)
    elif method == "cpg":
        if grid is None:
            raise ValueError("cpg needs the grid for the stability parameter")
        tau = stability_tau(wfm, grid)
    else:  # cpg_fem_tau
        if grid is None:
            raise ValueError("cpg_fem_tau needs the grid spacings")
        tau = np.array([stability_tau_fem(grid, j) for j in range(1, nd + 1)])

    if np.any(tau != 0.0):
        T = np.concatenate([tau, tau])[:, None]
        A = A + T * sA
        B = B + T * sB
    return AssembledSystem(A=A, B=B, script_A=sA, script_B=sB, tau=tau, method=method)


def dump_matrix(path, M, name: str = ""):
    """Text dump as 'row col value' triplets (1-based indices)."""
    M = np.asarray(M)
    with open(path, "w") as f:
        if name:
            f.write(f"# {name} {M.shape[0]}x{M.shape[1]}\n")
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                f.write(f"{i + 1} {j + 1} {M[i, j]:.17g}\n")
