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

All of this runs over an array of points in one vectorised pass
(evaluate_shapes): the clouds covering each point are gathered into a
padded (npts, W) stack in ascending node order, the moment matrices form
an (npts, m, m) stack, and one batched eigh factorizes them all.  The
padding slots add exact zeros, so a point's row comes out the same in
any chunk of points (the weak form takes whole nodal intervals), and a
boundary hat is evaluated only for a chunk that reaches its support.
evaluate_coupled is its one-point view.

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

from .enrichment import EnrichmentBasis, QUARTIC_WEIGHT, sto_default_basis
from .grid import Grid


class SingularMoment(RuntimeError):
    """Moment matrix unusable at an evaluation point (coverage too thin,
    condition estimate beyond the cap, or non-positive)."""


@dataclass(frozen=True, eq=False)
class CloudBasis:
    """A grid plus the enrichment basis of its clouds.  The weight and
    the moment condition cap are the same for every run (class
    attributes, not fields)."""
    grid: Grid
    basis: EnrichmentBasis
    weight = QUARTIC_WEIGHT
    cond_cap = 1e12

    @property
    def fem_nodes(self):
        """Nodes carrying FEM hats: the first two and the last two."""
        n = self.grid.n_intervals
        return tuple(sorted({0, 1, n - 1, n}))


@dataclass(frozen=True, eq=False)
class ShapeEval:
    active_indices: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    cond: float = np.nan


@dataclass(frozen=True, eq=False)
class ShapeStack:
    """Shapes at an array of points x, padded to a common width W.  Row p
    holds candidate nodes in ascending order; `active` marks the shapes
    that are part of the evaluation at x[p] (clouds covering x[p], and
    boundary hats nonzero there), and values/derivs are zero elsewhere."""
    indices: np.ndarray    # (npts, W) node index per slot
    active: np.ndarray     # (npts, W) bool
    values: np.ndarray     # (npts, W)
    derivs: np.ndarray     # (npts, W)
    cond: np.ndarray       # (npts,) equilibrated moment condition number


def build_cloud_basis(grid: Grid, basis: EnrichmentBasis = None) -> CloudBasis:
    return CloudBasis(grid=grid,
                      basis=basis if basis is not None else sto_default_basis())


def _hat(x, k, nodes):
    """Value, slope and support mask of the linear hat at node k over the
    points x (slope from the right piece when x sits exactly on an
    interior peak)."""
    n = len(nodes) - 1
    xk = nodes[k]
    g = np.zeros_like(x)
    dg = np.zeros_like(x)
    left = np.zeros(x.shape, dtype=bool)
    if k > 0:
        xl = nodes[k - 1]
        left = (xl <= x) & (x <= xk)
        if k < n:  # at the peak defer to the right piece
            left &= x != xk
        g = np.where(left, (x - xl) / (xk - xl), g)
        dg = np.where(left, 1.0 / (xk - xl), dg)
    right = np.zeros(x.shape, dtype=bool)
    if k < n:
        xr = nodes[k + 1]
        right = ~left & (xk <= x) & (x <= xr)
        g = np.where(right, (xr - x) / (xr - xk), g)
        dg = np.where(right, -1.0 / (xr - xk), dg)
    return g, dg, left | right


def _moments(a, b):
    """sum_w a[k, p, w] b[l, p, w] as a (npts, m, m) stack."""
    return a.transpose(1, 0, 2) @ b.transpose(1, 2, 0)


def _apply(A, v):
    """Per-point matrix-vector products of an (npts, m, m) stack."""
    return (A @ v[:, :, None])[:, :, 0]


def candidate_windows(cb: CloudBasis, x):
    """The candidate window [lo, hi) of node indices per point of x, a
    superset of the shapes nonzero there, and the boundary hats
    (k, g, dg, on) nonzero at some point.

    The window holds every node whose support, widened by round-off
    slack, contains x.  Running max/min make the support ends monotone,
    so it is a superset of the covering clouds on any grid; the exact
    test |x - x_i|/rho_i < 1 is left to the caller."""
    nodes, rho = cb.grid.nodes, cb.grid.dilations
    slack = 1e-12 * (np.abs(nodes) + rho)
    right_end = np.maximum.accumulate(nodes + rho + slack)
    left_end = np.minimum.accumulate((nodes - rho - slack)[::-1])[::-1]
    lo = np.searchsorted(right_end, x, side="right")
    hi = np.searchsorted(left_end, x, side="left")
    # a hat is evaluated only when some point lies in its support
    n = len(nodes) - 1
    xmin, xmax = np.min(x, initial=np.inf), np.max(x, initial=-np.inf)
    hats = [(k,) + _hat(x, k, nodes) for k in cb.fem_nodes
            if not (xmax < nodes[max(k - 1, 0)] or xmin > nodes[min(k + 1, n)])]
    hats = [h for h in hats if h[3].any()]
    for k, _, _, on in hats:  # a hat may reach past its own cloud
        lo = np.where(on, np.minimum(lo, k), lo)
        hi = np.where(on, np.maximum(hi, k + 1), hi)
    return lo, hi, hats


def evaluate_shapes(cb: CloudBasis, x) -> ShapeStack:
    """MLS shapes with the boundary FEM hats coupled in, at every point
    of x in one vectorised pass.  Every point passes the domain check,
    coverage >= m, a positive finite moment diagonal and the condition
    cap; otherwise the first offending point raises."""
    grid, P = cb.grid, cb.basis
    nodes, rho = grid.nodes, grid.dilations
    n = len(nodes) - 1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (nodes[0] <= x) & (x <= nodes[-1])
    lo, hi, hats = candidate_windows(cb, x)
    width = int(np.max(hi - lo, initial=1))
    idx = lo[:, None] + np.arange(width)
    in_window = idx < hi[:, None]
    idx = np.minimum(idx, n)

    u = (x[:, None] - nodes[idx]) / rho[idx]
    r = np.abs(u)
    cover = in_window & (r < 1.0)
    r = np.where(cover, r, 0.0)
    phi = np.where(cover, cb.weight.evaluate(r), 0.0)
    dphi = np.where(cover, cb.weight.derivative(r) * np.sign(u) / rho[idx], 0.0)
    s = np.where(cover, nodes[idx] - x[:, None], 0.0)
    p = P.eval(s)          # (m, npts, W)
    pd = -P.eval_deriv(s)  # d/dx of P(x_i - x)
    M = _moments(phi * p, p)
    Mx = _moments(dphi * p, p) + _moments(phi * pd, p) + _moments(phi * p, pd)

    # symmetric Jacobi equilibration + eigendecomposition of each moment
    # matrix; points that already failed get the identity so eigh runs
    diag = np.diagonal(M, axis1=1, axis2=2)
    count = cover.sum(axis=1)
    diag_ok = np.all(diag > 0.0, axis=1) & np.all(np.isfinite(diag), axis=1)
    ok = inside & (count >= P.m) & diag_ok
    d = 1.0 / np.sqrt(np.where(ok[:, None], diag, 1.0))
    Me = M * d[:, :, None] * d[:, None, :]
    Me[~ok] = np.eye(P.m)
    lam, V = np.linalg.eigh(Me)
    cond = np.full(len(x), np.inf)
    np.divide(lam[:, -1], lam[:, 0], out=cond, where=lam[:, 0] > 0.0)
    ok &= np.isfinite(cond) & (cond <= cb.cond_cap)
    if not np.all(ok):
        i = int(np.argmin(ok))
        xi = float(x[i])
        if not inside[i]:
            raise ValueError(f"x={xi} outside [{nodes[0]}, {nodes[-1]}]")
        if count[i] < P.m:
            raise SingularMoment(f"only {count[i]} clouds cover x={xi}, need >= {P.m}")
        if not diag_ok[i]:
            raise SingularMoment(f"moment diagonal not positive at x={xi}")
        raise SingularMoment(f"moment matrix at x={xi}: cond estimate {cond[i]:.3e}")

    Vt = V.transpose(0, 2, 1)

    def solve(rhs):  # M^{-1} rhs per point, never forming the inverse
        return d * _apply(V, _apply(Vt, d * rhs) / lam)

    p0 = P.eval(np.zeros(1))[:, 0]
    pt = np.broadcast_to(p0, (len(x), P.m))
    dpt = np.zeros_like(pt)
    for k, g, dg, on in hats:
        sk = np.where(on, nodes[k] - x, 0.0)
        pk = P.eval(sk).T
        dpk = -P.eval_deriv(sk).T
        pt = pt - g[:, None] * pk
        dpt = dpt - dg[:, None] * pk - g[:, None] * dpk

    a = solve(pt)
    c = solve(_apply(Mx, a))
    dd = solve(dpt)
    ap = np.einsum("pk,kpw->pw", a, p)
    vals = phi * ap
    ders = (dphi * ap + phi * np.einsum("pk,kpw->pw", a, pd)
            + phi * np.einsum("pk,kpw->pw", dd - c, p))

    active = cover  # the hats join the covering clouds
    for k, g, dg, on in hats:
        rows = np.flatnonzero(on)
        cols = k - lo[rows]
        vals[rows, cols] += g[rows]
        ders[rows, cols] += dg[rows]
        active[rows, cols] = True
    return ShapeStack(indices=idx, active=active, values=vals, derivs=ders, cond=cond)


def evaluate_coupled(cb: CloudBasis, x: float) -> ShapeEval:
    """The shapes at one point: the active slots of evaluate_shapes."""
    st = evaluate_shapes(cb, x)
    a = st.active[0]
    return ShapeEval(active_indices=st.indices[0, a], values=st.values[0, a],
                     derivs=st.derivs[0, a], cond=st.cond[0])
