"""Independent oracles shared by the unit and acceptance suites.

The eigenvalue oracle never touches the QZ path under test: it samples
det(A - t B) on a circle (plain LU determinants), interpolates the
degree-d characteristic polynomial through a scaled-roots-of-unity
Vandermonde solve, and takes companion-matrix roots.  Kept to small
dimensions where every step is numerically boring.

The shape and weak-form oracles are the original one-point-at-a-time
implementations (an m x m eigh per point, an np.ix_ scatter per point)
that the batched kernel in diracloud.cloud replaced.  The per-point one
writes the quartic weight and its slope out itself, so it shares no
weight code with the kernel it checks.

The dense-pencil oracles are the dense implementations the band storage
replaced: the weak form added interval by interval into zero-filled
dense blocks, the row-by-row stability parameter, and the 2x2-block
pencil formulas.  The bands must densify to their arrays bit for bit.
band_from_dense gathers the bands of matrices a test builds dense.
reference_system is the interleaved pencil as it was built before
assemble_system wrote each block as its formula: every block a
coefficient triplet coef X + Y, the zero blocks 1 0 + 0 from a zero
band.  Its bands and tau must equal assemble_system's bit for bit,
signed zeros included.

reference_quadrature is the per-interval np.linspace rule that the
broadcast in build_quadrature replaced, on the cells reference_cells
gives (the rule keeps no cells of its own), and serial_window the window
solve before its slices ran on a thread pool: the eigenvalues of the
window finder, then the f2py LAPACK wrappers, one slice after the
other, every contour node factored in one buffer filled row slice by row
slice, the probes multiplied by band_matvec.  Both must agree bit for
bit.  band_matvec is the banded product one slice-add per diagonal,
which the shifted-row product of eigen._band_matvec replaced: the same
products summed in the same order, so equal bit for bit.
ellipse_filter sums a slice contour's trapezoid filter at one real
point directly, the weight that eigen._contour_nodes bounds.
symmetric_bands is the inertia window's read of the galerkin pencil
before eigen._symmetric_bands: lower bands cut to the pencil's
outermost nonzero diagonal, mirrored into the factor layout.
reference_dense_solve is the dense fallback of eigen.solve_generalized
as scipy.linalg's wrappers composed it before the solve called getrf,
gecon and getrs itself: lu_factor, gecon, lu_solve and eigvals, or
eigh of the two equilibrated copies.  The eigenvalues must agree bit
for bit.  refuse_dense stands in for Band.dense in the tests
that a path densifies no band.

exp_basis is a test-only enrichment that drives the kernel into its
ill-conditioned and overflowing regimes on purpose.
"""
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from diracloud import cloud, eigen
from diracloud.assembly import (_GAUSS_OFFSET, DegenerateTau, QuadratureRule, WeakFormMatrices,
                                stability_tau, stability_tau_fem)
from diracloud.band import Band, bandwidth, interleaving, slots
from diracloud.cloud import CloudBasis, ShapeStack, SingularMoment, evaluate_shapes
from diracloud.enrichment import EnrichmentBasis
from diracloud.physics import potential


def random_pencil(rng, dim):
    """A generic dense A with a deliberately well-conditioned B."""
    def ortho():
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        return q

    A = rng.normal(size=(dim, dim))
    B = ortho() @ np.diag(rng.uniform(1.0, 2.0, dim)) @ ortho()
    return A, B


def charpoly_eigenvalues(A, B):
    """Roots of det(A - t B) for a nonsingular B, dimension <= ~10."""
    d = A.shape[0]
    smin = np.linalg.svd(B, compute_uv=False)[-1]
    radius = np.linalg.norm(A, 2) / smin + 1.0
    ts = radius * np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    dets = np.array([np.linalg.det(A - t * B) for t in ts])
    V = np.vander(ts, d + 1, increasing=True)
    coeffs = np.linalg.solve(V, dets)       # ascending powers, degree exactly d
    return np.roots(coeffs[::-1])


def max_pairing_distance(a, b):
    """Optimal-assignment max |a_i - b_j| between two equal-size complex sets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    ri, ci = linear_sum_assignment(cost)
    return float(cost[ri, ci].max())


# ------------------------------------------------ per-point shape oracle

def exp_basis(a):
    """[1, exp(-a s)].  On the n=200 uuo grid a=20 drives the worst moment
    condition to ~5e10 next to the origin, and a=118 overflows the moment
    diagonal mid-domain, where a cloud radius exceeds ~709/a."""
    def pair(s):
        e = np.exp(-a * s)
        return np.stack([np.ones_like(s), e]), np.stack([np.zeros_like(s), -a * e])

    return EnrichmentBasis(name=f"exp:{a:g}", m=2, pair=pair)


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


# one point's shapes: the active nodes in ascending order, their values
# and slopes, and the equilibrated moment condition number
PointShapes = namedtuple("PointShapes", "active_indices values derivs cond")


def reference_shapes(cb: CloudBasis, x: float, coupled: bool) -> PointShapes:
    """One point's shapes: the per-point body the batched kernel replaced."""
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
    # the quartic spline and its slope written out, not the kernel's pass
    phi = 1.0 - 6.0 * ra**2 + 8.0 * ra**3 - 3.0 * ra**4
    dphi = (-12.0 * ra + 24.0 * ra**2 - 12.0 * ra**3) * np.sign(ua) / rho[act]
    p, pd = P.pair(nodes[act] - x)  # (m, n_active) each
    pd = -pd  # d/dx of P(x_i - x)
    M = (phi * p) @ p.T
    Mx = (dphi * p) @ p.T + (phi * pd) @ p.T + (phi * p) @ pd.T
    solve, cond = _moment_solve(M, cb.cond_cap, x)

    p0 = P.pair(np.zeros(1))[0][:, 0]
    if coupled:
        pt = p0.copy()
        dpt = np.zeros_like(p0)
        hat_v, hat_s = {}, {}
        for k in cb.fem_nodes:
            g, dg = _hat(x, k, nodes)
            hat_v[k], hat_s[k] = g, dg
            if g != 0.0 or dg != 0.0:
                pk, dpk = P.pair(np.array([nodes[k] - x]))
                pk, dpk = pk[:, 0], -dpk[:, 0]
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
    return PointShapes(active_indices=act, values=vals, derivs=ders, cond=cond)


def _reference_windows(cb: CloudBasis, x):
    """cloud.candidate_windows as it was before CloudBasis kept its
    running support ends: the ends rebuilt on every call."""
    nodes, rho = cb.grid.nodes, cb.grid.dilations
    slack = 1e-12 * (np.abs(nodes) + rho)
    right_end = np.maximum.accumulate(nodes + rho + slack)
    left_end = np.minimum.accumulate((nodes - rho - slack)[::-1])[::-1]
    lo = np.searchsorted(right_end, x, side="right")
    hi = np.searchsorted(left_end, x, side="left")
    n = len(nodes) - 1
    xmin, xmax = np.min(x, initial=np.inf), np.max(x, initial=-np.inf)
    hats = [(k,) + cloud._hat(x, k, nodes) for k in cb.fem_nodes
            if not (xmax < nodes[max(k - 1, 0)] or xmin > nodes[min(k + 1, n)])]
    hats = [h for h in hats if h[3].any()]
    for k, _, _, on in hats:
        lo = np.where(on, np.minimum(lo, k), lo)
        hi = np.where(on, np.maximum(hi, k + 1), hi)
    return lo, hi, hats


def reference_batched_shapes(cb: CloudBasis, x) -> ShapeStack:
    """cloud.evaluate_shapes as it was before the per-basis constants, the
    shared weight pass and the 2x2 eigen replay: the weight and its slope
    each in their own pass, P(0) and the support ends rebuilt on every
    call, and one batched np.linalg.eigh."""
    P = cb.basis
    nodes, rho = cb.grid.nodes, cb.grid.dilations
    n = len(nodes) - 1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (nodes[0] <= x) & (x <= nodes[-1])
    lo, hi, hats = _reference_windows(cb, x)
    width = int(np.max(hi - lo, initial=1))
    idx = lo[:, None] + np.arange(width)
    in_window = idx < hi[:, None]
    idx = np.minimum(idx, n)

    u = (x[:, None] - nodes[idx]) / rho[idx]
    r = np.abs(u)
    cover = in_window & (r < 1.0)
    r = np.where(cover, r, 0.0)
    w = np.where(r < 1.0, 1.0 - 6.0 * r**2 + 8.0 * r**3 - 3.0 * r**4, 0.0)
    dw = np.where(r < 1.0, -12.0 * r + 24.0 * r**2 - 12.0 * r**3, 0.0)
    phi = np.where(cover, w, 0.0)
    dphi = np.where(cover, dw * np.sign(u) / rho[idx], 0.0)
    s = np.where(cover, nodes[idx] - x[:, None], 0.0)
    p, pd = P.pair(s)
    pd = -pd
    M = cloud._moments(phi * p, p)
    Mx = (cloud._moments(dphi * p, p) + cloud._moments(phi * pd, p)
          + cloud._moments(phi * p, pd))

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
        raise SingularMoment(f"a moment matrix fails at x={float(x[np.argmin(ok)])}")
    Vt = V.transpose(0, 2, 1)

    def solve(rhs):
        return d * cloud._apply(V, cloud._apply(Vt, d * rhs) / lam)

    p0 = P.pair(np.zeros(1))[0][:, 0]
    pt = np.broadcast_to(p0, (len(x), P.m))
    dpt = np.zeros_like(pt)
    for k, g, dg, on in hats:
        sk = np.where(on, nodes[k] - x, 0.0)
        pk, dpk = P.pair(sk)
        pk, dpk = pk.T, -dpk.T
        pt = pt - g[:, None] * pk
        dpt = dpt - dg[:, None] * pk - g[:, None] * dpk

    a = solve(pt)
    c = solve(cloud._apply(Mx, a))
    dd = solve(dpt)
    ap = np.einsum("pk,kpw->pw", a, p)
    vals = phi * ap
    ders = (dphi * ap + phi * np.einsum("pk,kpw->pw", a, pd)
            + phi * np.einsum("pk,kpw->pw", dd - c, p))
    active = cover
    for k, g, dg, on in hats:
        rows = np.flatnonzero(on)
        cols = k - lo[rows]
        vals[rows, cols] += g[rows]
        ders[rows, cols] += dg[rows]
        active[rows, cols] = True
    return ShapeStack(indices=idx, active=active, values=vals, derivs=ders, cond=cond)


def reference_weak_form(cb: CloudBasis, sys, quad):
    """The weak-form blocks with one oracle shape evaluation and one
    np.ix_ scatter per quadrature point."""
    n = cb.grid.n_intervals
    nd = n - 1
    retained_lo, retained_hi = 1, n - 1
    keys = ("000", "100", "001", "110", "101", "000V", "100V")
    M = {k: np.zeros((nd, nd)) for k in keys}
    for x, w in zip(quad.points, quad.weights):
        ev = reference_shapes(cb, x, coupled=True)
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
    return _dense_blocks(M)


def _dense_blocks(M):
    return SimpleNamespace(M_000=M["000"], M_010=M["100"].T, M_001=M["001"],
                           M_100=M["100"], M_110=M["110"], M_101=M["101"],
                           M_000_V=M["000V"], M_100_V=M["100V"])


# ------------------------------------------- the dense pencil, bit for bit

def dense_weak_form(cb: CloudBasis, sys, quad):
    """The weak-form blocks summed in the order assemble_weak_form uses,
    one nodal interval at a time: the interval's local matrices
    (q psi^(r))^T psi^(s) over its points as one matrix product, on the
    retained nodes active at any of them; the upper triangle of the
    symmetric blocks copied from the lower; the local matrices added
    into dense zero-filled blocks in interval order.  Its bands must
    densify to these bit for bit."""
    n = cb.grid.n_intervals
    nd = n - 1
    keys = ("000", "100", "001", "110", "101", "000V", "100V")
    M = {k: np.zeros((nd, nd)) for k in keys}
    cell = np.searchsorted(cb.grid.nodes, quad.points, side="right")
    for j in np.unique(cell):
        on = cell == j
        x, w = quad.points[on], quad.weights[on]
        st = evaluate_shapes(cb, x)
        V = potential(sys, x)
        keep = st.active & (st.indices >= 1) & (st.indices <= n - 1)
        nodes = np.unique(st.indices[keep])
        v = np.zeros((len(x), len(nodes)))
        dv = np.zeros((len(x), len(nodes)))
        for p in range(len(x)):
            cols = np.searchsorted(nodes, st.indices[p, keep[p]])
            v[p, cols] = st.values[p, keep[p]]
            dv[p, cols] = st.derivs[p, keep[p]]
        wx, wV = w / x, w * V
        local = {"000": (w[:, None] * v).T @ v, "100": (w[:, None] * dv).T @ v,
                 "001": (wx[:, None] * v).T @ v, "110": (w[:, None] * dv).T @ dv,
                 "101": (wx[:, None] * dv).T @ v, "000V": (wV[:, None] * v).T @ v,
                 "100V": (wV[:, None] * dv).T @ v}
        upper = np.triu_indices(len(nodes), 1)
        for k in ("000", "001", "110", "000V"):
            local[k][upper] = local[k].T[upper]
        ix = np.ix_(nodes - 1, nodes - 1)
        for k in keys:
            M[k][ix] += local[k]
    return _dense_blocks(M)


def reference_tau(wfm, coords):
    """The stability parameter row by row from dense M_000 and M_100."""
    M000, M100 = wfm.M_000, wfm.M_100
    xr = np.asarray(coords, dtype=float)
    tau = np.empty(len(xr))
    for j in range(len(xr)):
        th = xr - xr[j]
        num = M000[j] @ th
        den = M100[j] @ th
        if abs(den) <= np.finfo(float).eps * (np.abs(M100[j]) @ np.abs(th)):
            raise DegenerateTau(f"vanishing denominator in row {j + 1}")
        tau[j] = abs(num / den)
    return tau


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


def reference_pencil(wfm, sys, tau):
    """A, B, script_A and script_B from the dense blocks of wfm by the
    written-out dense formulas, with the stability parameter tau given."""
    nd = wfm.M_000.shape[0]
    c, k, mc2 = sys.c, sys.kappa, sys.mc2
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
    if np.any(tau != 0.0):
        T = np.concatenate([tau, tau])[:, None]
        A += T * sA
        B += T * sB
    return SimpleNamespace(A=A, B=B, script_A=sA, script_B=sB)


def _interleave_terms(terms):
    """The 2x2-block matrix whose block (a, b) is coef X + Y for
    terms[a][b] = (coef, X, Y) (bands of one k) as an interleaved Band
    of half-bandwidth 2k + 1, each block computed in place in its slots
    of a zero-filled buffer."""
    k, nd = terms[0][0][1].k, terms[0][0][1].n
    data = np.zeros((4 * k + 3, 2 * nd))
    for a, row in enumerate(terms):
        for b, (coef, X, Y) in enumerate(row):
            block = data[1 + a - b:4 * k + 2 + a - b:2, b::2]
            np.multiply(coef, X.data, out=block)
            block += Y.data
    return Band(data, interleaved=True)


def reference_system(wfm, sys, method, grid=None):
    """The interleaved bands of A, B, script_A and script_B, and tau, as
    assemble_system built them from coefficient triplets: every block
    coef X + Y, the zero blocks 1 0 + 0 from a zero band."""
    W = wfm.bands
    M010 = W["M_100"].T
    c, k, mc2 = sys.c, sys.kappa, sys.mc2
    ck = Band((c * k) * W["M_001"].data)
    A = _interleave_terms([[(mc2, W["M_000"], W["M_000_V"]), (-c, M010, ck)],
                           [(c, M010, ck), (-mc2, W["M_000"], W["M_000_V"])]])
    ck = Band((c * k) * W["M_101"].data)
    sA = _interleave_terms([[(c, W["M_110"], ck), (-mc2, W["M_100"], W["M_100_V"])],
                            [(mc2, W["M_100"], W["M_100_V"]), (-c, W["M_110"], ck)]])
    zero = Band(np.zeros_like(W["M_000"].data))
    B = _interleave_terms([[(1.0, W["M_000"], zero), (1.0, zero, zero)],
                           [(1.0, zero, zero), (1.0, W["M_000"], zero)]])
    sB = _interleave_terms([[(1.0, zero, zero), (1.0, W["M_100"], zero)],
                            [(1.0, W["M_100"], zero), (1.0, zero, zero)]])
    if method == "galerkin":
        tau = np.zeros(W["M_000"].n)
    elif method == "cpg":
        tau = stability_tau(wfm, grid.nodes[1:-1])
    else:
        tau = stability_tau_fem(grid)
    if np.any(tau != 0.0):
        T = np.repeat(tau, 2)
        rows, _ = slots(len(T), A.k)
        for M, S in ((A, sA), (B, sB)):
            M.data[...] += T[rows] * S.data
    return SimpleNamespace(bands={"A": A, "B": B, "script_A": sA, "script_B": sB}, tau=tau)


def band_from_dense(*mats, interleaved=False):
    """Bands of square dense matrices (block order, of one order n) with
    one k, the outermost diagonal of any of their nonzeros.  Zeros
    outside the band lose their sign."""
    n = mats[0].shape[0]
    perm = interleaving(n) if interleaved else np.arange(n)
    pos = np.empty(n, dtype=int)
    pos[perm] = np.arange(n)
    i, j = np.nonzero(np.logical_or.reduce([M != 0.0 for M in mats]))
    k = int(np.abs(pos[i] - pos[j]).max(initial=0))
    rows, inside = slots(n, k)
    return tuple(Band(np.where(inside, M[perm[rows], perm], 0.0), interleaved)
                 for M in mats)


def banded_weak_form(dense):
    """A WeakFormMatrices of the bands of dense.M_000 and dense.M_100,
    the two blocks stability_tau reads."""
    return WeakFormMatrices(dict(zip(("M_000", "M_100"),
                                     band_from_dense(dense.M_000, dense.M_100))))


def refuse_dense(self):
    """Band.dense, for a test that no band is densified."""
    raise AssertionError("a band was densified")


def reference_dump(path, M, name):
    """The per-entry 'row col value' writer dump_matrix replaced."""
    M = np.asarray(M)
    with open(path, "w") as f:
        f.write(f"# {name} {M.shape[0]}x{M.shape[1]}\n")
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                f.write(f"{i + 1} {j + 1} {M[i, j]:.17g}\n")


def reference_cells(grid, factor, split_at=None):
    """build_quadrature's (ncells, 2) cell endpoints, one np.linspace per
    nodal interval."""
    ncell = factor // 2
    nodes = grid.nodes
    cells = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        if split_at is not None and a < split_at < b:
            left = max(1, min(ncell - 1, round(ncell * (split_at - a) / (b - a))))
            right = max(1, ncell - left)
            edges = np.concatenate([np.linspace(a, split_at, left + 1),
                                    np.linspace(split_at, b, right + 1)[1:]])
        else:
            edges = np.linspace(a, b, ncell + 1)
        cells.extend(zip(edges[:-1], edges[1:]))
    return np.array(cells)


def reference_quadrature(grid, factor, split_at=None):
    """build_quadrature's rule: 2-point Gauss on each reference cell."""
    cells = reference_cells(grid, factor, split_at)
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    width = cells[:, 1] - cells[:, 0]
    pts = np.empty(2 * len(cells))
    wts = np.empty(2 * len(cells))
    pts[0::2] = mid - _GAUSS_OFFSET * width
    pts[1::2] = mid + _GAUSS_OFFSET * width
    wts[0::2] = wts[1::2] = 0.5 * width
    return QuadratureRule(points=pts, weights=wts)


def band_matvec(Mb, k, X):
    """M X for M in general band storage (2k + 1 rows, entry (i, j) in
    row k + i - j) and X of n rows, one slice-add per diagonal, in row
    order: the loop eigen._band_matvec replaced."""
    n = Mb.shape[1]
    X2 = X.reshape(n, -1)
    Y = np.zeros(X2.shape)
    for r in range(2 * k + 1):
        o = r - k  # row index minus column index
        lo, hi = max(0, -o), min(n, n - o)
        Y[lo + o:hi + o] += Mb[r, lo:hi, None] * X2[lo:hi]
    return Y.reshape(X.shape)


def _serial_factor(Ab, Bb, k, z, ab):
    # the band rows filled through strided views of the buffer
    re = ab.real[k:]
    np.multiply(Bb[k:], z.real, out=re)
    re -= Ab[k:]
    if np.iscomplexobj(ab):
        np.multiply(Bb[k:], z.imag, out=ab.imag[k:])
    gbtrf, = sla.get_lapack_funcs(("gbtrf",), (ab,))
    return gbtrf(ab, k, k, overwrite_ab=True)


def ellipse_node(c, r, beta, t):
    """The point z = c + r (cos t + i beta sin t) at angle t of the ellipse
    with centre c and semi-axes r (along the real axis) and beta r, and
    its trapezoid weight w = r (beta cos t + i sin t), dz/dt over i."""
    cos, sin = np.cos(t), np.sin(t)
    return c + r * complex(cos, beta * sin), r * complex(beta * cos, sin)


def ellipse_filter(lam, c, r, beta, nodes):
    """The contour filter that the trapezoid rule with `nodes` nodes on
    the upper half of that ellipse gives the real eigenvalue lam: the sum
    of w_j / (z_j - lam) over those nodes, real part, over `nodes` (the
    lower half adds the complex conjugates), summed directly.  It is
    about 1 inside the ellipse and about 0 outside."""
    total = 0.0
    for t in np.pi * (2 * np.arange(nodes) + 1) / (2 * nodes):
        z, w = ellipse_node(c, r, beta, t)
        total += w / (z - lam)
    return total.real / nodes


def serial_window(A, B, win):
    """The window eigenvalues of the banded cpg pencil (A, B) (None when
    the window is given up) and the window record, as solve_generalized
    builds them: the values of the shared window finder, then the slice
    moments from f2py gbtrf/gbtrs with the slices in order."""
    rec = {"lo": 0.0, "hi": win.hi, "slice_edges": None, "slice_counts": None,
           "slice_nodes": None, "contour_aspect": None, "fallback": None}

    def doubt(reason):
        rec["fallback"] = reason
        return None, rec

    d = 1.0 / np.sqrt(B.diagonal())
    Ab, Bb, k = eigen._interleaved_bands(A, B, d)
    n = len(d)
    found = eigen._find_window_eigenvalues(Ab, Bb, win)
    reason = eigen._match_doubt(found, win)
    if reason is not None:
        return doubt(reason)
    edges = eigen._slice_edges(found, win.hi)
    counts = [int(np.sum((found > a) & (found <= b)))
              for a, b in zip(edges[:-1], edges[1:])]
    nodes = eigen._slice_nodes(edges, found, win, n // 2)
    rng = np.random.default_rng(eigen.PROBE_SEED)
    rng.standard_normal(n)  # the finder's start vector
    BV = band_matvec(Bb[k:], k, rng.standard_normal((n, eigen.PROBES))).astype(
        complex, order="F")
    ab = np.empty((3 * k + 1, n), dtype=complex, order="F")
    svals = []
    for i, (a, b, m) in enumerate(zip(edges[:-1], edges[1:], nodes), start=1):
        c, r, beta = 0.5 * (a + b), 0.5 * (b - a), eigen.CONTOUR_ASPECT
        S = np.zeros(BV.shape, dtype=complex)
        for t in np.pi * (2 * np.arange(m) + 1) / (2 * m):
            z, w = ellipse_node(c, r, beta, t)
            lu, piv, info = _serial_factor(Ab, Bb, k, z, ab)
            if info:
                return doubt(f"a contour node of slice {i} is singular")
            X, _ = sla.lapack.zgbtrs(lu, k, k, BV, piv)
            S += w * X
        svals.append(np.linalg.svd(S.real / m, compute_uv=False))
    kept = min(s[m - 1] for s, m in zip(svals, counts) if m)
    for i, (s, m) in enumerate(zip(svals, counts), start=1):
        dropped = s[m] if m < len(s) else np.inf
        if dropped * eigen.SV_GAP > kept:
            sv = ", ".join(f"{v:.2e}" for v in s)
            return doubt(f"slice {i} of {len(counts)} holds {m} found; its moment "
                         f"singular values are {sv}, the weakest kept {kept:.2e}")
    rec.update(slice_edges=edges.tolist(), slice_counts=counts, slice_nodes=nodes,
               contour_aspect=eigen.CONTOUR_ASPECT)
    return found.astype(complex), rec


def symmetric_bands(A, B, d):
    """d(A, B)d of the symmetric galerkin pencil as the inertia window
    read it before it built one scaled pair: the lower bands (k + 1
    rows, entry (i, j) in row i - j, k the outermost diagonal on which A
    or B holds a nonzero), each entry read from the block-order lower
    triangle and scaled (v d_p) d_q, then mirrored, one diagonal at a
    time, into both triangles of the factor layout ((3k + 1, n), entry
    (i, j) in row 2k + i - j).  eigen._symmetric_bands must equal it bit
    for bit."""
    k = bandwidth(A, B)
    n = A.n
    rows, inside = (a[k:] for a in slots(n, k))  # diagonals 0..k
    cols = np.arange(n)
    perm, K, o = A.order(), A.k, np.arange(k + 1)[:, None]
    p, q = perm[rows], perm[cols]
    lower = p >= q
    p, q = np.maximum(p, q), np.minimum(p, q)
    out = []
    for M in (A, B):  # entry (i, j) in slot (K + o, j), its mirror in (K - o, i)
        v = np.where(lower, M.data[K + o, cols], M.data[K - o, rows])
        L = np.where(inside, v * d[p] * d[q], 0.0)
        F = np.zeros((3 * k + 1, n), order="F")
        F[2 * k:] = L
        for r in range(1, k + 1):
            F[2 * k - r, r:] = L[r, :n - r]
        out.append(F)
    return out[0], out[1], k


def reference_dense_solve(A, B, symmetric_definite=False):
    """The path ("eigh", "lu_dgeev" or "qz") and the eigenvalues of the
    dense fallback of the pencil (A, B), dense arrays or Bands, diag(B)
    positive, as lu_factor, gecon, lu_solve and eigvals, or eigh, gave
    them."""
    A, B = (M.dense() if isinstance(M, Band) else np.asarray(M, dtype=float)
            for M in (A, B))
    d = 1.0 / np.sqrt(np.diag(B))
    Ae, Be = (d[:, None] * M * d[None, :] for M in (A, B))
    if symmetric_definite:
        return "eigh", sla.eigh(Ae, Be, eigvals_only=True).astype(complex)
    lange, gecon = sla.get_lapack_funcs(("lange", "gecon"), (Be,))
    lu, piv = sla.lu_factor(Be)
    rcond, _ = gecon(lu, lange("1", Be), norm="1")
    if not rcond >= eigen.RCOND_FLOOR:
        return "qz", sla.eigvals(A, B)
    return "lu_dgeev", sla.eigvals(sla.lu_solve((lu, piv), Ae))
