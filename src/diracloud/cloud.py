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
an (npts, m, m) stack, m <= 2, and LAPACK's own steps for a symmetric
matrix that small, replayed elementwise over the stack (_eigh),
factorize them all, bit for bit as np.linalg.eigh does, at about a
third of its cost.  The weight and its slope share one pass, and so do
the basis and its slope; the running support ends and P(0) are computed
once per CloudBasis.  The padding slots add exact zeros, so a point's
row comes out the same in any chunk of points (the weak form takes
whole nodal intervals), and a boundary hat is evaluated only for a
chunk that reaches its support.  evaluate_coupled is its one-point
view.

Essential boundary conditions use FEM coupling: linear hats at the two
first and two last nodes, with the reproducing-condition correction

    P~^t(x) = P^t(0) - sum_{k in FEM} g_k(x) P^t(x_k - x)

replacing P^t(0), and the hat g_k added to the shape of node k.  The
combined set keeps partition of unity/nullity and is interpolating at
the boundary, so omitting the two boundary rows imposes homogeneous
Dirichlet conditions exactly.
"""
import functools
from dataclasses import dataclass

import numpy as np

from .enrichment import EnrichmentBasis, QUARTIC_WEIGHT, sto_default_basis
from .grid import Grid


class SingularMoment(RuntimeError):
    """Moment matrix unusable at an evaluation point (coverage too thin,
    condition estimate beyond the cap, or non-positive)."""


@dataclass(frozen=True, eq=False)
class CloudBasis:
    """A grid plus the enrichment basis of its clouds, m <= 2 members.
    The weight and the moment condition cap are the same for every run
    (class attributes, not fields).  The running support ends and P(0)
    are computed on first use and kept with the basis."""
    grid: Grid
    basis: EnrichmentBasis
    weight = QUARTIC_WEIGHT
    cond_cap = 1e12

    def __post_init__(self):
        if self.basis.m > 2:
            raise ValueError(f"the moment solve takes at most 2 enrichment members; "
                             f"{self.basis.name!r} has {self.basis.m}")

    @property
    def fem_nodes(self):
        """Nodes carrying FEM hats: the first two and the last two."""
        n = self.grid.n_intervals
        return tuple(sorted({0, 1, n - 1, n}))

    @functools.cached_property
    def support_ends(self):
        """The running min of the left and the running max of the right
        cloud support ends, widened by round-off slack (see
        candidate_windows)."""
        nodes, rho = self.grid.nodes, self.grid.dilations
        slack = 1e-12 * (np.abs(nodes) + rho)
        left = np.minimum.accumulate((nodes - rho - slack)[::-1])[::-1]
        return left, np.maximum.accumulate(nodes + rho + slack)

    @functools.cached_property
    def p0(self):
        """P(0), the basis at the evaluation point in the shifted frame."""
        return self.basis.eval(np.zeros(1))[:, 0]


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
    nodes = cb.grid.nodes
    left_end, right_end = cb.support_ends
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


# dsteqr's constants: dlamch('E') (half the spacing of doubles at 1) and
# dlamch('S')
_EPS = np.finfo(float).eps / 2
_SAFMIN = np.finfo(float).tiny


def _eigh(Me):
    """np.linalg.eigh of a stack of symmetric 1 x 1 or 2 x 2 matrices,
    read from the lower triangle, bit for bit: LAPACK's own steps for
    that size, replayed elementwise.  For m = 1 dsyevd returns the
    entry and the eigenvector 1.  For m = 2 dsytrd leaves the matrix as
    it is (d = diagonal, e = the entry below it) and dstedc hands it to
    dsteqr, which starts from Z = I.  If either of dsteqr's two tests
    finds e negligible, the diagonal is the spectrum; otherwise dlaev2
    gives the eigenvalue rt1 of larger modulus, the other rt2 and the
    rotation (c, s), which turns Z into [[c, -s], [s, c]].  A selection
    sort then puts the smaller value first, swapping Z's columns.  The
    moment matrices are equilibrated (unit diagonal, |e| <= 1), so the
    scalings dsyevd and dsteqr apply to entries near overflow or
    underflow never run."""
    if Me.shape[1] == 1:
        return Me[:, :, 0].copy(), np.ones(Me.shape)
    a, b, c = Me[:, 0, 0], Me[:, 1, 0], Me[:, 1, 1]
    aa, ac, tst = np.abs(a), np.abs(c), np.abs(b)
    # dsteqr's split test, then that of its QL sweep (|c| >= |a|) or of
    # its QR sweep, with the operands in that sweep's order
    split = (tst == 0.0) | (tst <= (np.sqrt(aa) * np.sqrt(ac)) * _EPS)
    split |= tst * tst <= np.where(ac < aa, (_EPS**2 * ac) * aa, (_EPS**2 * aa) * ac) + _SAFMIN
    with np.errstate(divide="ignore", invalid="ignore"):  # in rows a split discards
        # dlaev2(a, b, c); its three cases of rt are one formula here, as
        # |a - c| = |2b| gives ab * sqrt(1 + 1)
        sm, df, tb = a + c, a - c, b + b
        adf, ab = np.abs(df), np.abs(tb)
        big = aa > ac
        acmx, acmn = np.where(big, a, c), np.where(big, c, a)
        hi, lo = np.maximum(adf, ab), np.minimum(adf, ab)
        rt = hi * np.sqrt(1.0 + (lo / hi)**2)
        rt1 = 0.5 * (sm + np.where(sm < 0.0, -rt, rt))
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
        if not sm.all():
            rt2[sm == 0.0] = -0.5 * rt[sm == 0.0]
        cs = df + np.where(df >= 0.0, rt, -rt)
        big = np.abs(cs) > ab
        t = np.where(big, -tb / cs, -cs / tb)
        u = 1.0 / np.sqrt(1.0 + t * t)
    tu = t * u
    # (cs1, sn1) = (tu, u) when big, else (u, tu); when sgn1 == sgn2 the
    # pair becomes (-sn1, cs1)
    flip = (sm < 0.0) == (df < 0.0)
    turn = big != flip
    cs1, sn1 = np.where(turn, tu, u), np.where(turn, u, tu)
    np.negative(cs1, out=cs1, where=flip)
    # the ascending sort swaps rt1 and rt2 (and Z's columns) when rt2 < rt1:
    # written swapped here, and put back in the rows it leaves alone
    lam = np.empty((len(Me), 2))
    lam[:, 0], lam[:, 1] = rt2, rt1
    V = np.empty((len(Me), 2, 2))
    V[:, 0, 1] = V[:, 1, 0] = cs1
    V[:, 1, 1] = sn1
    np.negative(sn1, out=V[:, 0, 0])
    if split.any():
        lam[split, 0], lam[split, 1] = c[split], a[split]
        V[split] = [[0.0, 1.0], [1.0, 0.0]]
    keep = ~(lam[:, 0] < lam[:, 1])
    if keep.any():
        lam[keep] = lam[keep, ::-1]
        V[keep] = V[keep, :, ::-1]
    return lam, V


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

    xs, rs = nodes[idx], rho[idx]
    u = (x[:, None] - xs) / rs
    r = np.abs(u)
    cover = in_window & (r < 1.0)
    w, dw = cb.weight.on_support(np.where(cover, r, 0.0))
    phi = np.where(cover, w, 0.0)
    dphi = np.where(cover, dw * np.sign(u) / rs, 0.0)
    p, pd = P.pair(np.where(cover, xs - x[:, None], 0.0))  # (m, npts, W) each
    np.negative(pd, out=pd)  # d/dx of P(x_i - x)
    phi_p = phi * p
    M = _moments(phi_p, p)
    Mx = _moments(dphi * p, p) + _moments(phi * pd, p) + _moments(phi_p, pd)

    # symmetric Jacobi equilibration + eigendecomposition of each moment
    # matrix; points that already failed get the identity
    diag = np.diagonal(M, axis1=1, axis2=2)
    count = cover.sum(axis=1)
    diag_ok = np.all(diag > 0.0, axis=1) & np.all(np.isfinite(diag), axis=1)
    ok = inside & (count >= P.m) & diag_ok
    d = 1.0 / np.sqrt(np.where(ok[:, None], diag, 1.0))
    Me = M * d[:, :, None] * d[:, None, :]
    if not ok.all():
        Me[~ok] = np.eye(P.m)
    lam, V = _eigh(Me)
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

    pt = np.broadcast_to(cb.p0, (len(x), P.m))
    dpt = np.zeros_like(pt)
    for k, g, dg, on in hats:
        pk, dpk = P.pair(np.where(on, nodes[k] - x, 0.0))
        pk, dpk = pk.T, -dpk.T
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
