"""Weak-form assembly, stability parameters, and the eigenproblem blocks.

Matrix convention: (M_rst^q)_{ij} = int psi_j^{(s)} psi_i^{(r)} x^{-t} q dx,
i.e. r counts derivatives on the test function (rows), s on the trial
function (columns), t the power of 1/x, and q an optional weight (the
potential V for the _V variants).  Everything is assembled on the
Dirichlet-retained index set 1..n-1, element by element: each nodal
interval sums its quadrature points into small local matrices over the
nodes whose clouds reach it, and the local matrices are added into the
blocks' bands (see band.Band) in interval order.  Chunks of whole
intervals share one batched shape evaluation.  Compact cloud supports
give half-bandwidth 4 on the production grids.  The pencil's blocks are
written as their formulas in the band arrays and placed into interleaved
bands, half-bandwidth 9, a zero block left as zeros; dense matrices are
formed only on read (the dense eigen fallbacks and the tests).  M_010
is stored as M_100's transpose.  The module writes no file.

The stabilized variant perturbs the Galerkin blocks row-wise: row j of
the residual blocks gets scaled by a stability parameter tau_j computed
either from the assembled matrices themselves (ratio of displacement-
weighted row sums of M_000 and M_100) or from the closed-form FEM
expression (3/17) h_{j+1} (h_{j+1} - h_j) / (h_{j+1} + h_j).
"""
from dataclasses import dataclass

import numpy as np

from .band import Band, bandwidth, slots
from .cloud import CloudBasis, SingularMoment, candidate_windows, evaluate_shapes
# perfbench wraps this name, which no run calls; the line goes when its
# wrapper moves onto evaluate_shapes (ROADMAP item 1)
from .cloud import evaluate_shapes as evaluate_coupled  # noqa: F401
from .grid import Grid
from .physics import PhysicalSystem, potential

_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)  # 2-point Gauss-Legendre on a unit cell
_CHUNK = 64  # nodal intervals per batched shape evaluation

METHODS = ("galerkin", "cpg", "cpg_fem_tau")


class DegenerateTau(RuntimeError):
    """Vanishing denominator in the stability-parameter ratio."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
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
    a, b = grid.nodes[:-1], grid.nodes[1:]
    edges = np.linspace(a, b, ncell + 1, axis=-1)
    cells = np.stack((edges[:, :-1], edges[:, 1:]), axis=-1).reshape(-1, 2)
    split = [] if split_at is None else np.flatnonzero((a < split_at) & (split_at < b))
    if len(split):  # one interval at most holds the split
        # distribute the cells over the two pieces, at least one each
        j = split[0]
        lo, hi = a[j], b[j]
        left = max(1, min(ncell - 1, round(ncell * (split_at - lo) / (hi - lo))))
        right = max(1, ncell - left)
        piece = np.concatenate([np.linspace(lo, split_at, left + 1),
                                np.linspace(split_at, hi, right + 1)[1:]])
        cells = np.concatenate([cells[:j * ncell], np.stack((piece[:-1], piece[1:]), axis=-1),
                                cells[(j + 1) * ncell:]])
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    width = cells[:, 1] - cells[:, 0]
    pts = np.empty(2 * len(cells))
    wts = np.empty(2 * len(cells))
    pts[0::2] = mid - _GAUSS_OFFSET * width
    pts[1::2] = mid + _GAUSS_OFFSET * width
    wts[0::2] = wts[1::2] = 0.5 * width
    return QuadratureRule(points=pts, weights=wts)


def _densified(name):
    """An attribute that reads bands[name] as a new dense array."""
    return property(lambda self: self.bands[name].dense(),
                    doc=f"{name}, densified (a new array on every read)")


@dataclass(frozen=True, eq=False)
class WeakFormMatrices:
    """The weak-form blocks as bands of one half-bandwidth, keyed by
    block name, one band per name in NAMES (M_010 the transpose of
    M_100).  Every name in NAMES reads its block as a dense array."""
    bands: dict
    NAMES = ("M_000", "M_010", "M_001", "M_100", "M_110", "M_101",
             "M_000_V", "M_100_V")
    M_000 = _densified("M_000")
    M_010 = _densified("M_010")
    M_001 = _densified("M_001")
    M_100 = _densified("M_100")
    M_110 = _densified("M_110")
    M_101 = _densified("M_101")
    M_000_V = _densified("M_000_V")
    M_100_V = _densified("M_100_V")


def assemble_weak_form(cb: CloudBasis, sys: PhysicalSystem,
                       quad: QuadratureRule) -> WeakFormMatrices:
    """The weak-form blocks, assembled nodal interval by nodal interval.

    The quadrature points are grouped by interval: a group is a run of
    consecutive points in one interval, and build_quadrature lays every
    interval out as one run, of any length.  A group's frame is the
    union of its points' candidate windows, cut to the retained nodes
    and widened to the widest frame, W nodes.  Each group gives seven
    W x W local matrices (q psi^(r))^T psi^(s), one matrix product over
    its points (OpenBLAS sums it in point order).  The four symmetric
    blocks (M_000, M_001, M_110, M_000_V) copy their local upper
    triangle from the lower one, so they are exactly symmetric.  A
    chunk of _CHUNK groups shares one batched shape evaluation, and its
    local matrices go into the bands with one np.add.at, group after
    group: every entry receives its contributions in interval order,
    whatever the chunk.  The widest point window bounds the band, which
    is trimmed to the outermost nonzero diagonal of the seven blocks
    afterwards.  Raises SingularMoment when a block holds inf or NaN
    (shapes that overflow without tripping a moment check)."""
    n = cb.grid.n_intervals
    nd = n - 1  # the retained nodes 1..n-1 are rows 0..nd-1 of the blocks
    xq, wq = quad.points, quad.weights
    cell = np.searchsorted(cb.grid.nodes, xq, side="right")
    bounds = np.append(np.flatnonzero(np.diff(cell, prepend=-1)), len(xq))
    counts = np.diff(bounds)
    lo, hi = candidate_windows(cb, xq)[:2]
    # two shapes that share a point lie in its window: no entry of a
    # block lies farther than kb from the diagonal
    kb = int(np.max(hi - lo, initial=1)) - 1
    first = np.maximum(np.minimum.reduceat(lo, bounds[:-1]), 1) - 1
    stop = np.minimum(np.maximum.reduceat(hi, bounds[:-1]), n) - 1
    del cell, lo, hi  # one entry per point: not kept through the chunks
    W = int(np.max(stop - first, initial=1))
    base = np.minimum(first, nd - W)  # every frame lies inside the blocks
    # the first six blocks are (q psi^(r))^T psi for q = w, w/x, w V and
    # r = 0, 1, in that order, then M_110 = (w psi')^T psi'; the four
    # symmetric blocks are every other one
    names = ["M_000", "M_100", "M_001", "M_101", "M_000_V", "M_100_V", "M_110"]
    size = (2 * kb + 1) * nd  # one block's band
    bands = np.zeros(len(names) * size + nd)  # the seven bands, then a spare row
    r, c = np.arange(W)[:, None], np.arange(W)
    upper = np.triu_indices(W, 1)
    # the flat slot of local entry (r, c) of block b for a frame at row 0;
    # the local entries farther than kb from the diagonal, zero since no
    # point holds both shapes, go to the spare row
    local = np.where(abs(r - c) <= kb,
                     np.arange(len(names))[:, None, None] * size + (kb + r - c) * nd + c,
                     len(names) * size + c)
    for g0 in range(0, len(counts), _CHUNK):
        g1 = min(g0 + _CHUNK, len(counts))
        ng, K = g1 - g0, int(counts[g0:g1].max())
        p0, p1 = bounds[g0], bounds[g1]
        x, w = xq[p0:p1], wq[p0:p1]
        st = evaluate_shapes(cb, x)
        V = potential(sys, x)
        # point p is row s[p] of group g[p]; every group gets K rows, the
        # rows past its own points zero.  The shapes outside the frame
        # (the boundary nodes, inactive slots) go to a spare column W
        g = np.repeat(np.arange(ng), counts[g0:g1])
        s = np.arange(p1 - p0) - (bounds[g0:g1] - p0)[g]
        keep = st.active & (st.indices >= 1) & (st.indices <= nd)
        col = np.where(keep, st.indices - 1 - base[g0 + g][:, None], W)
        at = ((2 * g * K + s) * (W + 1))[:, None] + col
        fn = np.zeros((ng, 2, K, W + 1))  # (group, psi or psi', point, column)
        fn.reshape(-1)[at] = st.values
        fn.reshape(-1)[at + K * (W + 1)] = st.derivs
        fn = np.ascontiguousarray(fn[..., :W])
        q = np.zeros((ng * K, 3))
        q[g * K + s] = np.stack((w, w / x, w * V), axis=-1)
        q = np.repeat(q.reshape(ng, K, 3).swapaxes(1, 2), W, axis=2)  # (group, q, K W)
        left = (q[:, :, None] * fn.reshape(ng, 1, 2, K * W)).reshape(ng, 6, K, W)
        acc = np.empty((ng, len(names), W, W))
        np.matmul(left.swapaxes(-1, -2), fn[:, None, 0], out=acc[:, :6])
        np.matmul(left[:, 1].swapaxes(-1, -2), fn[:, 1], out=acc[:, 6])
        sym = acc[:, ::2]
        sym[..., upper[0], upper[1]] = sym[..., upper[1], upper[0]]
        lin = local + base[g0:g1, None, None, None]
        np.add.at(bands, lin.reshape(-1), acc.reshape(-1))
    bands = bands[:-nd].reshape(len(names), 2 * kb + 1, nd)
    bands = {name: Band(m) for name, m in zip(names, bands)}
    k = bandwidth(*bands.values())
    bands = {name: b.trimmed(k) for name, b in bands.items()}
    for name, band in bands.items():
        if not np.isfinite(band.data).all():
            raise SingularMoment(f"weak-form block {name} has non-finite entries")
    bands["M_010"] = bands["M_100"].T  # by definition: finite when M_100 is
    return WeakFormMatrices(bands)


def stability_tau(wfm: WeakFormMatrices, coords) -> np.ndarray:
    """Row-wise stability parameter from the assembled matrices:
    tau_j = | sum_i sigma_ji theta_ji / sum_i eta_ji theta_ji |
    with sigma, eta the rows of M_000 and M_100 and theta_ji = x_i - x_j
    the displacements over the working coordinates (the retained nodes
    grid.nodes[1:-1] in a run).  Each sum runs over the band's diagonals
    in order, all rows at once."""
    M000, M100 = wfm.bands["M_000"], wfm.bands["M_100"]
    xr = np.asarray(coords, dtype=float)
    n, k = M000.n, M000.k
    if len(xr) != n:
        raise ValueError("coordinate set does not match matrix dimension")
    # entry (j, j + o) of a band sits in slot (k - o, j + o): row o of the
    # gathers below, one column per row j of the matrix
    cols, inside = slots(n, k)
    diag = np.arange(2 * k, -1, -1)[:, None]
    th = np.where(inside, xr[cols] - xr, 0.0)
    sigma, eta = M000.data[diag, cols], M100.data[diag, cols]
    num = (sigma * th).sum(axis=0)
    den = (eta * th).sum(axis=0)
    bad = np.abs(den) <= np.finfo(float).eps * (np.abs(eta) * np.abs(th)).sum(axis=0)
    if bad.any():
        raise DegenerateTau(f"vanishing denominator in row {np.argmax(bad) + 1}")
    return np.abs(num / den)


def stability_tau_fem(grid: Grid) -> np.ndarray:
    """Closed-form FEM stability parameter of every retained row j =
    1..n-1: (3/17) h_{j+1} (h_{j+1} - h_j) / (h_{j+1} + h_j)."""
    hj, hj1 = grid.spacings[:-1], grid.spacings[1:]
    return (3.0 / 17.0) * hj1 * (hj1 - hj) / (hj1 + hj)


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """The pencil (A, B) and the residual blocks (script_A, script_B) as
    interleaved bands of one half-bandwidth (see band.Band), and tau.
    Every name in NAMES reads its matrix as a dense block-order array."""
    bands: dict
    tau: np.ndarray
    NAMES = ("A", "B", "script_A", "script_B")
    A = _densified("A")
    B = _densified("B")
    script_A = _densified("script_A")
    script_B = _densified("script_B")


def _interleave(blocks):
    """The 2x2-block matrix with block (a, b) blocks[a][b], as an
    interleaved Band of half-bandwidth 2k + 1.  Each block arrives
    finished, the data of a band of half-bandwidth k (one k for all), or
    None for a zero block.  It is only placed: into rows 1 + a - b,
    3 + a - b, ... of the columns of parity b of a zero-filled buffer."""
    m, nd = next(X.shape for row in blocks for X in row if X is not None)
    data = np.zeros((2 * m + 1, 2 * nd))
    for a, row in enumerate(blocks):
        for b, X in enumerate(row):
            if X is not None:
                data[1 + a - b:2 * m + a - b:2, b::2] = X
    return Band(data, interleaved=True)


def assemble_system(wfm: WeakFormMatrices, sys: PhysicalSystem, method: str,
                    grid: Grid = None) -> AssembledSystem:
    """Build the 2x2-block generalized eigenproblem as interleaved bands,
    each block written as its formula in the weak-form band arrays and
    the zero blocks of B and script_B left empty (None to _interleave).
    galerkin leaves the blocks alone (tau = 0); the cpg variants add the
    residual blocks with row j scaled by tau_j (same tau for both
    block-rows of a node).  Every entry inside the weak-form band is the
    one the written-out dense formulas give, bit for bit; every entry
    outside it is +0.0.

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
    W = {name: band.data for name, band in wfm.bands.items()}
    M000, M100, M010 = W["M_000"], W["M_100"], W["M_010"]
    c, k, mc2 = sys.c, sys.kappa, sys.mc2
    ck = (c * k) * W["M_001"]  # formed once for the two blocks that add it
    A = _interleave([[mc2 * M000 + W["M_000_V"], -c * M010 + ck],
                     [c * M010 + ck, -mc2 * M000 + W["M_000_V"]]])
    ck = (c * k) * W["M_101"]
    sA = _interleave([[c * W["M_110"] + ck, -mc2 * M100 + W["M_100_V"]],
                      [mc2 * M100 + W["M_100_V"], -c * W["M_110"] + ck]])
    B = _interleave([[M000, None], [None, M000]])
    sB = _interleave([[None, M100], [M100, None]])

    if method == "galerkin":
        tau = np.zeros(wfm.bands["M_000"].n)
    elif method == "cpg":
        tau = stability_tau(wfm, grid.nodes[1:-1])
    else:  # cpg_fem_tau
        tau = stability_tau_fem(grid)

    if np.any(tau != 0.0):
        T = np.repeat(tau, 2)  # tau of each interleaved row
        rows, _ = slots(len(T), A.k)
        for M, S in ((A, sA), (B, sB)):
            M.data[...] += T[rows] * S.data
    return AssembledSystem(bands={"A": A, "B": B, "script_A": sA, "script_B": sB},
                           tau=tau)

