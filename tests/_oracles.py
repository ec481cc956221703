"""Independent oracles shared by the unit and acceptance suites.

The eigenvalue oracle never touches the QZ path under test: it samples
det(A - t B) on a circle (plain LU determinants), interpolates the
degree-d characteristic polynomial through a scaled-roots-of-unity
Vandermonde solve, and takes companion-matrix roots.  Kept to small
dimensions where every step is numerically boring.

The shape and weak-form oracles are the original one-point-at-a-time
implementations (an m x m eigh per point, an np.ix_ scatter per point)
that the batched kernel in diracloud.cloud replaced.

exp_basis is a test-only enrichment that drives the kernel into its
ill-conditioned and overflowing regimes on purpose.
"""
import numpy as np
from scipy.optimize import linear_sum_assignment

from diracloud.assembly import WeakFormMatrices
from diracloud.cloud import CloudBasis, ShapeEval, SingularMoment
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
    def p(s):
        return np.exp(-a * s)

    def dp(s):
        return -a * np.exp(-a * s)

    return EnrichmentBasis(name=f"exp:{a:g}", members=(lambda s: 1.0, p),
                           derivs=(lambda s: 0.0, dp))


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


def reference_shapes(cb: CloudBasis, x: float, coupled: bool) -> ShapeEval:
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


def reference_weak_form(cb: CloudBasis, sys, quad) -> WeakFormMatrices:
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
    return WeakFormMatrices(M_000=M["000"], M_010=M["100"].T, M_001=M["001"],
                            M_100=M["100"], M_110=M["110"], M_101=M["101"],
                            M_000_V=M["000V"], M_100_V=M["100V"])


def reference_dump(path, M, name=""):
    """The per-entry 'row col value' writer dump_matrix replaced."""
    M = np.asarray(M)
    with open(path, "w") as f:
        if name:
            f.write(f"# {name} {M.shape[0]}x{M.shape[1]}\n")
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                f.write(f"{i + 1} {j + 1} {M[i, j]:.17g}\n")
