"""Weak-form assembly, stability parameters, and the eigenproblem blocks.

Matrix convention: (M_rst^q)_{ij} = int psi_j^{(s)} psi_i^{(r)} x^{-t} q dx,
i.e. r counts derivatives on the test function (rows), s on the trial
function (columns), t the power of 1/x, and q an optional weight (the
potential V for the _V variants).  Everything is assembled on the
Dirichlet-retained index set 1..n-1 in one pass over fixed-size chunks
of quadrature points: the shapes of a chunk come from one batched
evaluation, and every (row, column) product of shapes sharing a point
is scatter-added into the dense blocks.

The stabilized variant perturbs the Galerkin blocks row-wise: row j of
the residual blocks gets scaled by a stability parameter tau_j computed
either from the assembled matrices themselves (ratio of displacement-
weighted row sums of M_000 and M_100) or from the closed-form FEM
expression (3/17) h_{j+1} (h_{j+1} - h_j) / (h_{j+1} + h_j).
"""
from dataclasses import dataclass, fields

import numpy as np

from .cloud import CloudBasis, SingularMoment, evaluate_shapes
from .cloud import evaluate_coupled  # noqa: F401  traced by name by the benchmark
from .grid import Grid
from .physics import PhysicalSystem, potential

_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)  # 2-point Gauss-Legendre on a unit cell
_CHUNK = 512  # quadrature points per batched shape evaluation

METHODS = ("galerkin", "cpg", "cpg_fem_tau")


class DegenerateTau(RuntimeError):
    """Vanishing denominator in the stability-parameter ratio."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    cells: np.ndarray    # (ncells, 2) interval endpoints
    points: np.ndarray
    weights: np.ndarray

    @property
    def total_points(self):
        return len(self.points)


def build_quadrature(grid: Grid, factor: int = 10, split_at: float = None) -> QuadratureRule:
    """factor/2 equal cells per nodal interval, 2-point Gauss each, so
    factor*n points total.  split_at (e.g. a potential kink) forces a
    cell boundary at that coordinate when it falls inside the domain;
    each side of the split gets at least one cell, so at factor 2 the
    split interval holds two."""
    if factor < 2 or factor % 2 != 0:
        raise ValueError(f"quadrature factor must be even and >= 2, got {factor}")
    ncell = factor // 2
    nodes = grid.nodes
    cells = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        if split_at is not None and a < split_at < b:
            # distribute the cells over the two pieces, at least one each
            left = max(1, min(ncell - 1, round(ncell * (split_at - a) / (b - a))))
            right = max(1, ncell - left)
            edges = np.concatenate([np.linspace(a, split_at, left + 1),
                                    np.linspace(split_at, b, right + 1)[1:]])
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
    """The weak-form blocks from batched shape evaluations over chunks of
    quadrature points.  Each chunk forms every (row, column) pair of
    retained shapes sharing a point, in point-major order, so every entry
    receives its contributions in quadrature-point order.  Raises
    SingularMoment when a block holds inf or NaN (shapes that overflow
    without tripping a moment check)."""
    n = cb.grid.n_intervals
    nd = n - 1
    retained_lo, retained_hi = 1, n - 1
    keys = ("000", "100", "001", "110", "101", "000V", "100V")
    M = {k: np.zeros((nd, nd)) for k in keys}
    flat = {k: m.reshape(-1) for k, m in M.items()}
    for start in range(0, quad.total_points, _CHUNK):
        x = quad.points[start:start + _CHUNK]
        w = quad.weights[start:start + _CHUNK]
        st = evaluate_shapes(cb, x)
        V = potential(sys, x)
        keep = st.active & (st.indices >= retained_lo) & (st.indices <= retained_hi)
        pt, r, c = np.nonzero(keep[:, :, None] & keep[:, None, :])
        idx = st.indices - retained_lo
        lin = idx[pt, r] * nd + idx[pt, c]
        v, dv = st.values, st.derivs
        ov = v[pt, r] * v[pt, c]
        odv = dv[pt, r] * v[pt, c]
        wp, wx, wV = w[pt], (w / x)[pt], (w * V)[pt]
        np.add.at(flat["000"], lin, wp * ov)
        np.add.at(flat["100"], lin, wp * odv)
        np.add.at(flat["001"], lin, wx * ov)
        np.add.at(flat["110"], lin, wp * (dv[pt, r] * dv[pt, c]))
        np.add.at(flat["101"], lin, wx * odv)
        np.add.at(flat["000V"], lin, wV * ov)
        np.add.at(flat["100V"], lin, wV * odv)
    wfm = WeakFormMatrices(M_000=M["000"], M_010=M["100"].T, M_001=M["001"],
                           M_100=M["100"], M_110=M["110"], M_101=M["101"],
                           M_000_V=M["000V"], M_100_V=M["100V"])
    for f in fields(wfm):
        if not np.isfinite(getattr(wfm, f.name)).all():
            raise SingularMoment(f"weak-form block {f.name} has non-finite entries")
    return wfm


def stability_tau(wfm, coords) -> np.ndarray:
    """Row-wise stability parameter from the assembled matrices:
    tau_j = | sum_i sigma_ji theta_ji / sum_i eta_ji theta_ji |
    with sigma, eta the rows of M_000 and M_100 and theta_ji = x_i - x_j
    the displacements over the working coordinates (the retained nodes
    grid.nodes[1:-1] in a run).  wfm may be a WeakFormMatrices or any
    object with M_000/M_100 attributes."""
    M000, M100 = wfm.M_000, wfm.M_100
    xr = np.asarray(coords, dtype=float)
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


def stability_tau_fem(grid: Grid) -> np.ndarray:
    """Closed-form FEM stability parameter of every retained row j =
    1..n-1: (3/17) h_{j+1} (h_{j+1} - h_j) / (h_{j+1} + h_j)."""
    hj, hj1 = grid.spacings[:-1], grid.spacings[1:]
    return (3.0 / 17.0) * hj1 * (hj1 - hj) / (hj1 + hj)


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    A: np.ndarray
    B: np.ndarray
    script_A: np.ndarray
    script_B: np.ndarray
    tau: np.ndarray


def _blocks(terms):
    """The 2x2-block matrix whose block (i, j) is a X + Y for
    terms[i][j] = (a, X, Y), each block written in place."""
    nd = terms[0][0][1].shape[0]
    out = np.empty((2 * nd, 2 * nd))
    for i, row in enumerate(terms):
        for j, (a, X, Y) in enumerate(row):
            block = out[i * nd:(i + 1) * nd, j * nd:(j + 1) * nd]
            np.multiply(a, X, out=block)
            block += Y
    return out


def assemble_system(wfm: WeakFormMatrices, sys: PhysicalSystem, method: str,
                    grid: Grid = None) -> AssembledSystem:
    """Build the 2x2-block generalized eigenproblem.  galerkin leaves the
    blocks alone (tau = 0); the cpg variants add the residual blocks with
    row j scaled by tau_j (same tau for both block-rows of a node).

    galerkin's A is symmetric only up to quadrature error: the
    off-diagonal blocks of A - A^T are -+c (M_100 + M_100^T), which
    vanishes for exact integrals of the retained shapes.  The Gauss rule
    leaves up to 5.2e-3 of it (max |M_100| is 0.42) on diagonal entries
    near x = 95 for Z=118, n=600 at quadrature_factor 10, 1.8e-4 at 20
    and 4.1e-5 at 40.  B is exactly symmetric.  The symmetric eigen
    paths read the lower triangle in block order."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method != "galerkin" and grid is None:
        raise ValueError(f"{method} needs the grid for the stability parameter")
    nd = wfm.M_000.shape[0]
    c, k, mc2 = sys.c, sys.kappa, sys.mc2
    # block by block in place; (c k) M is formed once per pair of blocks
    # that add it, each product rounded as in the written-out formula
    ck = (c * k) * wfm.M_001
    A = _blocks([[(mc2, wfm.M_000, wfm.M_000_V), (-c, wfm.M_010, ck)],
                 [(c, wfm.M_010, ck), (-mc2, wfm.M_000, wfm.M_000_V)]])
    np.multiply(c * k, wfm.M_101, out=ck)
    sA = _blocks([[(c, wfm.M_110, ck), (-mc2, wfm.M_100, wfm.M_100_V)],
                  [(mc2, wfm.M_100, wfm.M_100_V), (-c, wfm.M_110, ck)]])
    B = np.zeros((2 * nd, 2 * nd))
    B[:nd, :nd] = B[nd:, nd:] = wfm.M_000
    sB = np.zeros((2 * nd, 2 * nd))
    sB[:nd, nd:] = sB[nd:, :nd] = wfm.M_100

    if method == "galerkin":
        tau = np.zeros(nd)
    elif method == "cpg":
        tau = stability_tau(wfm, grid.nodes[1:-1])
    else:  # cpg_fem_tau
        tau = stability_tau_fem(grid)

    if np.any(tau != 0.0):
        T = np.concatenate([tau, tau])[:, None]
        A += T * sA
        B += T * sB
    return AssembledSystem(A=A, B=B, script_A=sA, script_B=sB, tau=tau)


def dump_matrix(path, M, name: str = ""):
    """Text dump of every entry as 'row col value' triplets (1-based
    indices, value as '{:.17g}'), after an optional '# name RxC' line.

    Each row starts from per-column ' col 0' templates, and only its
    entries that are not +0.0 are patched in: -0.0 from a ' col -0'
    template, nonzeros, NaN and inf formatted one by one.  A row is one
    write of the row number joined between its column suffixes, so
    memory stays at the size of a row."""
    M = np.asarray(M)
    nr, nc = M.shape
    zero = [f" {j} 0\n" for j in range(1, nc + 1)]
    negzero = [f" {j} -0\n" for j in range(1, nc + 1)]
    special = (M != 0) | np.signbit(M)
    with open(path, "w") as f:
        if name:
            f.write(f"# {name} {nr}x{nc}\n")
        for i in range(nr if nc else 0):
            line = zero.copy()
            js = np.flatnonzero(special[i])
            for j, v in zip(js.tolist(), M[i, js].tolist()):
                line[j] = f" {j + 1} {v:.17g}\n" if v else negzero[j]
            r = str(i + 1)
            f.write(r + r.join(line))
