"""Generalized eigensolve and spectrum classification.

The solve takes one of five paths, picked by one dispatch: a window
path when a window is given, a dense one without or once it is given
up.  All but QZ work on the pencil scaled by d = diag(B)^{-1/2} on both
sides, which leaves the spectrum alone (exponential grids give B nodal
masses spanning many decades, and every reduction loses digits without
it).  The window paths read the interleaved bands (band.Band, unknowns
G1, F1, G2, F2, ...) that assemble_system builds.  The dense paths
densify each matrix where it is read, straight into the Fortran order
LAPACK overwrites in place, once DENSE_COPIES n x n float64 arrays fit
the physical memory (the peak of every dense path: its two matrices,
which LAPACK works in).  Past that bound they raise LinAlgError (exit
3) before anything is densified.  Both symmetric paths read the lower
triangle of A and B in block order, as eigh does: galerkin's A is
symmetric only up to quadrature error (see assemble_system):
- galerkin's symmetric pencil, whose B is positive definite, when a
  bound window is given: only the eigenvalues inside it, on the banded
  pencil, with no reduction.  The window finder (below) finds them, and
  Sylvester's law of inertia certifies them (spectrum slicing): the
  negative eigenvalues of d(A - hi B)d less those of dAd, from a block
  LDL^T of the band, count the window exactly, and the count must equal
  the number found.  A window given up (see below) sends the solve to
  the next path;
- the same pencil without a window, or after such a failure: the
  Cholesky reduction (scipy.linalg.eigh), every eigenvalue;
- the tau-scaled, nonsymmetric pencil of cpg and cpg_fem_tau, when a
  bound window is given: only the eigenvalues inside it, from banded
  LAPACK on the interleaved bands.  The window finder (below) finds
  them; Sakurai-Sugiura / Beyn contour moments over slices of the
  window certify that nothing else is inside.  The region certified is
  exactly the union of the closed ellipses over the slices, each with
  semi-axes r (the slice's half-width, along the real axis) and
  CONTOUR_ASPECT r = r/2 (across it): every real point of a slice lies
  inside its ellipse, and a complex pair whose real part lies in a
  slice lies outside every contour whenever its imaginary part exceeds
  r/2.  The ellipse takes fewer nodes than the circle of radius r to
  tell a slice from its nearest outside level (112 complex LUs on the
  flagship against 151, by that level alone), at the price of the
  pairs with imaginary parts between r/2 and r, which a circle would
  see.  Each slice gets as many contour nodes as the distance to its
  nearest outside level asks for, and as the negative continuum below
  the window, some n/2 eigenvalues at -mc^2 and under, asks for
  together; that sets how sharply an ellipse is told from its outside,
  not the region.  Any doubt sends the solve to the dense path below.
  The slice moments, one per slice, are independent: they run on a thread pool
  made inside the solve, one worker per usable core, each task with its
  own factor buffer, and the results are read back in slice order, so
  eigenvalues, certificate and reason given up are those of the serial
  loop, bit for bit.  The banded LU kernels (d/zgbtrf, d/zgbtrs) are bound
  through ctypes from scipy's cython_lapack, as dpbtrf is: the same
  LAPACK as scipy.linalg's f2py wrappers, which hold the GIL while
  LAPACK runs, where a ctypes call releases it and lets the workers
  overlap;
- the same pencil without a window, or after such a doubt: dBd
  factored in place by LAPACK dgetrf, the standard problem (dBd)^-1
  (dAd) formed in place by dgetrs and solved by dgeev, every eigenvalue;
- a QZ iteration (LAPACK dggev, no eigenvectors, on Fortran-ordered
  copies it overwrites) on the unscaled pencil: the fallback of the
  dense nonsymmetric path when the scaling or the reduction is unsafe,
  and the reference the faster paths are tested against.
A window path returns its eigenvalues and their certificate, or raises
the reason it gives the window up for; solve_generalized alone writes
either into the window record, and goes on to the dense block after a
reason.  There are seven: a diagonal entry of B that is not positive,
a dBd with no banded Cholesky factor (dpbtrf's info), a guess with no
match or whose match lies farther from it than the window edge (both
paths), a numerically singular Schur complement, an inertia count that
disagrees with the values found, a singular contour node, and a slice
whose moment singular values show no gap.
The window finder, one for both window paths: banded inverse iteration
from the closed-form levels finds the eigenvalues, and where the signs
of banded LU determinants at two shifts (which give the parity of the
count of real eigenvalues between them, for either pencil) disagree
with the values found, it locates the ones missed.  The shifts are the
levels themselves, whose signs come from the LUs their inverse
iterations ran on, and the window's edges; no shift is factored twice.
Each window builds one scaled pair d(A, B)d, with the pencil's own k,
in the layout dgbtrf factors, so a factorization fills its buffer with
whole-array operations.  Each path then certifies what it found its own
way.
Classification pairs the computed bound states against the closed-form
relativistic levels with a greedy monotone matcher and flags the two
spuriosity patterns separately: values instilled between genuine
levels, and a positive-kappa ground value coinciding with the
negative-kappa ground level.
"""
import ctypes
import functools
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .band import Band, slots
from .physics import PhysicalSystem, exact_eigenvalue

FLAG_GENUINE = "genuine"
FLAG_INSTILLED = "instilled_spurious"
FLAG_COINCIDENCE = "coincidence_suspect"
FLAG_TAIL = "unmatched_tail"

IMAG_TOL = 1e-8         # |im| / max(|re|, 1) above which a value is complex
MATCH_TOL = 1e-3        # relative distance within which a value hugs an exact level
COINCIDENCE_TOL = 1e-6  # relative distance that coincides with the mirror level
RCOND_FLOOR = 1e-6      # rcond of the equilibrated B below which the nonsymmetric solve takes QZ
DENSE_COPIES = 2        # live n x n float64 arrays on every dense path (eigh, lu_dgeev, qz)
# the bound-window path
INVIT_TOL = 1e-14       # relative change at which an inverse iteration has settled
INVIT_MAXIT = 10        # inverse-iteration steps before the level counts as not found
DISTINCT_TOL = 1e-8     # relative distance below which two found levels are one eigenvalue
CONTOUR_NODES_MAX = 24  # trapezoid nodes on the upper half of a slice's ellipse, at most
CONTOUR_ASPECT = 0.5    # a slice's ellipse: semi-axis across the real axis over that along it
PROBES = 4              # real random columns the contour moments are taken of
PROBE_SEED = 0          # seed of those columns and of the inverse-iteration start
SV_GAP = 1e3            # weakest kept over largest dropped moment singular value
LEAKAGE = 0.1 / SV_GAP  # contour-filter weight left to the nearest level outside a slice


class EmptySpectrum(RuntimeError):
    """Nothing real came back from the solver."""


class _GiveUp(Exception):
    """Why a window solver gave its window up, the message being the
    record's fallback.  Not a ValueError or a RuntimeError, which the CLI
    reports as a config or a numerical error: solve_generalized catches
    every one and goes on to the dense block."""


@dataclass(frozen=True)
class BoundWindow:
    """Eigenvalues (0, hi] of the pencil, unshifted (0 is the -mc^2
    threshold), and the closed-form levels inside, ascending: the starts
    of the windowed solve.  continuum is the top of the negative
    continuum, -mc^2 unshifted, which the contour nodes of the bottom
    slices must weigh (-inf: none)."""
    hi: float
    guesses: tuple
    continuum: float = -np.inf


def bound_window(sys: PhysicalSystem, levels: int) -> BoundWindow:
    """The bound window of a run matching `levels` levels: from -mc^2 to
    midway between exact levels `levels` and `levels + 1` (shifted)."""
    ex = exact_levels(sys, levels + 1)
    return BoundWindow(hi=float(sys.mc2 + 0.5 * (ex[-2] + ex[-1])),
                       guesses=tuple(float(sys.mc2 + e) for e in ex[:-1]),
                       continuum=-float(sys.mc2))


def _dense(M, d=None):
    """A pencil matrix (a Band or a dense array) as a new Fortran-ordered
    block-order array, which LAPACK can overwrite in place; with d (a
    vector, read as a diagonal), d M d, scaled in place."""
    out = M.dense() if isinstance(M, Band) else np.array(M, order="F")
    if d is not None:
        out *= d[:, None]
        out *= d[None, :]
    return out


def solve_generalized(A, B, symmetric_definite: bool = False,
                      window: BoundWindow = None, info: dict = None):
    """Eigenvalues of A x = lambda B x (complex array): all of them, or
    with `window` only those inside it.  Eigenvalues only: no path
    computes eigenvectors.

    A and B are both interleaved Bands of one half-bandwidth (a 2x2
    block pencil, see band.Band) or both dense arrays; a window needs
    the Bands.  A pencil of any other form, a NaN or inf in A or B, and
    a window given with a dense pencil raise ValueError, checked once
    before a path is picked: `info` receives nothing, and no path (the
    raw LAPACK calls included) sees them.

    symmetric_definite (A symmetric, B SPD, both read from their lower
    triangles) raises ValueError on a diagonal entry of B that is not
    positive, where the default takes QZ on the unscaled (A, B).
    Otherwise the pencil is equilibrated by d = diag(B)^{-1/2}, which
    takes cond(B) on the flagship grid from about 1e9 to about 1e2, and
    a window (a BoundWindow) gets the eigenvalues in (0, window.hi],
    above the -mc^2 threshold, from the bands: counted by inertia when
    symmetric_definite (see _solve_window_inertia), else certified by
    contour moments (see _solve_window).  Without a window, or once it
    is given up, the dense block checks the memory bound (see the module
    docstring) and forms dBd.  symmetric_definite solves it with dAd by
    eigh, an exactly real spectrum.  The default factors it in place
    (dgetrf) and, at an rcond estimate (dgecon) of at least RCOND_FLOOR,
    overwrites dAd with C = (dBd)^-1 (dAd) (dgetrs) for dgeev; the
    backward error grows like eps / rcond(dBd), so a lower rcond takes
    QZ, which densifies the unscaled pencil only then.

    A dict passed as `info` receives the path that ran under "path"
    (inertia, window, lu_dgeev, qz or eigh) and, when a window was
    given, its record under "window", written here alone: lo (always 0)
    and hi, then the certificate the window solver returned, the slice
    edges, per-slice counts and per-slice contour nodes (upper half of
    each slice's ellipse), and the ellipses' contour_aspect
    (CONTOUR_ASPECT: the region certified, see the module docstring);
    inertia: the one slice [0, hi], its count, no nodes and no aspect;
    or under "fallback" the reason it raised instead (one of the seven
    of the module docstring; the slice entries and the aspect are None
    then, and the fallback None when the window was kept).
    A dense block past the bound raises np.linalg.LinAlgError naming
    the stage, n, the bytes needed and installed and the fallback."""
    banded = isinstance(A, Band), isinstance(B, Band)
    if all(banded):
        if not (A.interleaved and B.interleaved and A.data.shape == B.data.shape):
            raise ValueError("a banded pencil needs two interleaved bands of one shape")
        arrays, db = (A.data, B.data), B.diagonal()
    elif not any(banded):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"pencil shapes mismatch: {A.shape} vs {B.shape}")
        arrays, db = (A, B), np.diag(B)
    else:
        raise ValueError("a pencil is two interleaved Bands or two dense arrays, "
                         "not one of each")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")
    if window is not None and not (all(banded) and window.guesses):
        raise ValueError("window= needs a banded 2x2 block pencil and at least one guess")
    info = {} if info is None else info
    if window is not None:
        rec = info["window"] = {"lo": 0.0, "hi": window.hi, "slice_edges": None,
                                "slice_counts": None, "slice_nodes": None,
                                "contour_aspect": None, "fallback": None}
    d = 1.0 / np.sqrt(db) if np.all(db > 0.0) else None
    if d is None and symmetric_definite:
        raise ValueError("symmetric_definite needs positive diagonal in B")
    if window is not None:
        path, solve = (("inertia", _solve_window_inertia) if symmetric_definite
                       else ("window", _solve_window))
        try:
            if d is None:
                raise _GiveUp("a diagonal entry of B is not positive")
            w, certificate = solve(A, B, d, window)
        except _GiveUp as e:
            rec["fallback"] = str(e)
        else:
            rec.update(certificate)
            info["path"] = path
            return w
    need = DENSE_COPIES * 8 * len(db) ** 2
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise np.linalg.LinAlgError(
            f"dense fallback: order {len(db)} needs {need} bytes, {have} are installed"
            + ("" if window is None else f"; the window was given up: {rec['fallback']}"))
    if d is not None:
        Be = _dense(B, d)
        if symmetric_definite:
            info["path"] = "eigh"
            return sla.eigh(_dense(A, d), Be, eigvals_only=True,
                            overwrite_a=True, overwrite_b=True).astype(complex)
        lange, gecon, getrf, getrs = sla.get_lapack_funcs(
            ("lange", "gecon", "getrf", "getrs"), (Be,))
        anorm = lange("1", Be)
        lu, piv, _ = getrf(Be, overwrite_a=True)  # dBd becomes its LU factors
        rcond, _ = gecon(lu, anorm, norm="1")  # 0 for an exactly singular dBd
        if rcond >= RCOND_FLOOR:
            info["path"] = "lu_dgeev"
            C, _ = getrs(lu, piv, _dense(A, d), overwrite_b=True)
            return sla.eigvals(C, overwrite_a=True)
        del Be, lu  # not read by QZ, which takes the unscaled pencil
    info["path"] = "qz"
    # LAPACK dggev without eigenvectors, on copies it overwrites: what
    # sla.eigvals(A, B) gives, bit for bit, without the two n x n
    # eigenvector arrays of its workspace query
    a, b = _dense(A), _dense(B)
    ggev, = sla.get_lapack_funcs(("ggev",), (a, b))
    opts = dict(compute_vl=0, compute_vr=0, overwrite_a=1, overwrite_b=1)
    lwork = int(ggev(a, b, lwork=-1, **opts)[-2][0])
    alphar, alphai, beta, _, _, _, lapack_info = ggev(a, b, lwork=lwork, **opts)
    if lapack_info:
        raise np.linalg.LinAlgError(f"QZ (dggev) returned info {lapack_info}")
    # alpha / beta, and for beta = 0 inf, or nan where alpha = 0 too, as
    # scipy forms them
    alpha = alphar + 1j * alphai
    w = np.empty_like(alpha)
    finite = beta != 0.0
    w[finite] = alpha[finite] / beta[finite]
    w[~finite & (alpha != 0.0)] = np.inf
    w[~finite & (alpha == 0.0)] = np.nan if np.all(alphai == 0.0) else complex(np.nan, np.nan)
    return w


# ------------------------------------------------------ the bound window


def _interleaved_bands(A, B, d):
    """dAd and dBd (A, B interleaved Bands, d in block order) in the layout
    dgbtrf factors (see _factor_band), and k, the pencil's half-bandwidth:
    (3k + 1, n) Fortran arrays, entry (i, j) in row 2k + i - j, the top k
    rows zero.  Each entry is scaled by d_i d_j."""
    k = A.k
    rows, inside = slots(A.n, -k, k)
    dI = d[A.order()]
    scale = np.where(inside, dI[rows] * dI, 0.0)
    Ab, Bb = (np.zeros((3 * k + 1, A.n), order="F") for _ in range(2))
    np.multiply(A.data, scale, out=Ab[k:])
    np.multiply(B.data, scale, out=Bb[k:])
    return Ab, Bb, k


def _symmetric_bands(A, B, d):
    """dAd and dBd as symmetric matrices, as _interleaved_bands lays them
    out (rows 2k.. are the lower bands dpbtrf reads).  Each entry is read
    from the block-order lower triangle, the one eigh reads: the entry
    itself or its mirror, scaled (v d_p) d_q, p >= q its block-order
    indices, as _dense scales it."""
    k, n = A.k, A.n
    rows, inside = slots(n, -k, k)
    perm, o = A.order(), np.arange(-k, k + 1)[:, None]
    p = perm[rows]  # the block-order index of each slot's row; perm is its column's
    # each entry's flat slot: its own in the block-order lower triangle, else (j, i)'s
    src = np.where(p >= perm, (k + o) * n + np.arange(n), (k - o) * n + rows)
    dp, dq = d[np.maximum(p, perm)], d[np.minimum(p, perm)]
    del rows, p  # not read again: freed before the bands are filled

    def scaled(M):
        F = np.zeros((3 * k + 1, n), order="F")
        v = M.data.take(src)
        v *= dp
        v *= dq
        np.copyto(F[k:], v, where=inside)
        return F

    return scaled(A), scaled(B), k


@functools.cache
def _lapack(name):
    """LAPACK routine `name` of scipy's cython_lapack, the LAPACK that
    scipy.linalg calls, bound through ctypes.  Fortran passes every
    argument by address, so each is declared a void pointer; their
    count is read off the C signature the capsule is named by."""
    from scipy.linalg import cython_lapack
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    capsule = cython_lapack.__pyx_capi__[name]
    signature = get_name(capsule)
    nargs = signature.count(b",") + 1
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(get_pointer(capsule, signature))


def _call(name, *args):
    """LAPACK's info from routine `name` (see _lapack) called on args
    and a trailing info: an array passed as its data, bytes as a
    character, a float as a C double and an int as a C int.  ctypes
    releases the GIL for the call, where the f2py wrappers hold it."""
    refs = []
    for a in args:
        if isinstance(a, np.ndarray):
            refs.append(a.ctypes.data)
        elif isinstance(a, bytes):
            refs.append(a)
        else:
            refs.append(ctypes.byref(ctypes.c_double(a) if isinstance(a, float)
                                     else ctypes.c_int(a)))
    info = ctypes.c_int()
    _lapack(name)(*refs, ctypes.byref(info))
    return info.value


def _match_doubt(found, win: BoundWindow):
    """Step 2 of both windows: the greedy matcher of classify_spectrum
    pairs the ascending `found` with the guesses, and each pair must lie
    closer together than the guess lies to hi, so no value above the
    window could have won it.  Why not, or None when it holds."""
    picked = _match_levels(found, win.guesses)
    if len(picked) < len(win.guesses) or any(
            abs(found[j] - g) >= win.hi - g for j, g in zip(picked, win.guesses)):
        return ("a matched level lies farther from its guess than the window "
                "edge, or a guess has no match")
    return None


def _band_matvec(Mr, X):
    """M X for M's 2k + 1 stored rows in a (2k + 1, n) array Mr, entry
    (i, j) in row k + i - j (rows k.. of the factor layout of
    _factor_band), and X of n rows.  Each y_i adds its products m_ij x_j
    in the order of the rows, j falling.  Mr is read whole for each
    column of X: row-major, in order, where the factor layout's columns
    stride (3k + 1) * 8 bytes, so a caller that multiplies often passes
    a row-major copy.  (BLAS dgbmv does the same, but a threaded
    OpenBLAS spends milliseconds per call on it.)"""
    rows, n = Mr.shape
    k, w = (rows - 1) // 2, n + rows - 1
    columns = np.ascontiguousarray(X.reshape(n, -1).T)
    Y = np.empty(columns.shape)
    # row r of the products is one longer than a row of the sum, so that
    # product (r, j) lands in column j + r of sum row r, over y_{j + r - k};
    # products of slots outside the matrix land in the zero margins
    buf = np.zeros(rows * (w + 1))
    products, sums = buf.reshape(rows, w + 1)[:, :n], buf[:rows * w].reshape(rows, w)
    for x, y in zip(columns, Y):  # one column at a time: the buffer stays small
        np.multiply(Mr, x, out=products)
        np.sum(sums[:, k:k + n], axis=0, out=y)
    return Y.T.reshape(X.shape)


def _factor_band(Ab, Bb, z, ab):
    """Banded LU (dgbtrf, or zgbtrf for a complex z) of z B - A in `ab`,
    for Ab, Bb and ab in the layout gbtrf factors: (3k + 1, n) Fortran
    arrays, entry (i, j) in row 2k + i - j, the top k rows left to the
    fill-in, zero in Ab and Bb.  ab, of z's type, is overwritten, and
    gbtrf clears its top k rows itself before it writes them, so a buffer
    can be reused.  The pivots and the LAPACK info (> 0: exactly
    singular)."""
    k, n = (Ab.shape[0] - 1) // 3, Ab.shape[1]
    if ab.shape != Ab.shape or not ab.flags.f_contiguous or ab.dtype not in (
            np.float64, np.complex128):
        raise ValueError("gbtrf needs a Fortran-ordered float or complex buffer of the "
                         "bands' (3k+1, n) shape")
    np.multiply(Bb, z.real, out=ab.real)
    ab.real -= Ab
    if np.iscomplexobj(ab):
        np.multiply(Bb, z.imag, out=ab.imag)
    piv = np.empty(n, dtype=np.intc)
    return piv, _call("zgbtrf" if np.iscomplexobj(ab) else "dgbtrf",
                      n, n, k, k, ab, 3 * k + 1, piv)


def _parity(lu, piv):
    """The parity of the count of real eigenvalues above s, up to that of
    det B, from the real LU of s B - A (see _factor_band): the sign of
    the determinant, (#U diagonal < 0 + #row swaps) mod 2.  An exactly
    singular U leaves a wrong parity: it only locates."""
    k = (lu.shape[0] - 1) // 3
    swaps = np.count_nonzero(piv != np.arange(1, len(piv) + 1))
    return (np.count_nonzero(lu[2 * k] < 0.0) + swaps) % 2


def _negative_counts(Ml):
    """The number of negative eigenvalues of each symmetric matrix of the
    stack Ml of lower bands ((s, k + 1, n), entry (i, j) of matrix m in
    Ml[m, i - j, j]), or None when a Schur complement below is
    numerically singular: its smallest eigenvalue in modulus at most k
    eps times its largest, or exactly singular.

    In k x k blocks (1 x 1 for a diagonal) the band is block
    tridiagonal, diagonal blocks D_J and blocks C_J below them, and its
    block LDL^T has the Schur complements S_1 = D_1,
    S_J+1 = D_J+1 - C_J S_J^-1 C_J^T.  By Sylvester's law of inertia
    (Haynsworth's additivity) the count is the sum of theirs, each from
    eigvalsh.  The matrices of the stack run through the blocks
    together; the last block is padded with the identity, which adds no
    negative eigenvalue."""
    s, k, n = Ml.shape[0], max(Ml.shape[1] - 1, 1), Ml.shape[2]
    nb = -(-n // k)
    M = np.zeros((s, k + 1, nb * k))
    M[:, :Ml.shape[1], :n] = Ml
    M[:, 0, n:] = 1.0
    a = np.arange(k)
    lo, hi = np.minimum.outer(a, a), np.maximum.outer(a, a)
    cols = k * np.arange(nb)[:, None, None]
    # D_J[a, b] = M[Jk + a, Jk + b], from the lower triangle, and C_J[a, b]
    # = M[(J+1)k + a, Jk + b], on diagonal k + a - b: in the band for a <= b
    below = k + a[:, None] - a
    D = M[:, hi - lo, cols + lo]
    C = np.where(below <= k, M[:, np.minimum(below, k), cols[:-1] + a], 0.0)
    # block J first, as views: solve and eigvalsh copy their operands
    D, C = D.swapaxes(0, 1), C.swapaxes(0, 1)
    Ct = C.swapaxes(2, 3)
    mu = np.empty((nb, s, k))
    try:
        S = D[0]
        for J in range(nb):
            if J:
                S = D[J] - C[J - 1] @ np.linalg.solve(S, Ct[J - 1])
            mu[J] = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError:  # an exactly singular S
        return None
    size = np.abs(mu)
    if np.any(size.min(axis=2) <= k * np.finfo(float).eps * size.max(axis=2)):
        return None
    return np.count_nonzero(mu < 0.0, axis=(0, 2))


def _find_window_eigenvalues(Ab, Bb, win: BoundWindow):
    """Distinct real eigenvalues in (0, win.hi] of the pencil whose bands
    (the factor layout, see _interleaved_bands) are Ab and Bb, B
    nonsingular, ascending.  Found, not certified: more may lie inside,
    and nothing is said of complex ones.

    Inverse iteration from each guess finds some, all from one start
    vector, the first draw of the PROBE_SEED generator; values within
    DISTINCT_TOL of a lower one are one eigenvalue.  Then the sign of
    det(s B - A), the product of the diagonal of dgbtrf's U and
    (-1)^(row swaps), is that of det B times (-1)^(count of real
    eigenvalues above s): det(s B - A) = det B prod(s - lambda), and a
    complex pair contributes |s - lambda|^2 > 0.  The sign of det B is
    the same at every s, so it cancels between a slice's edges, and
    their parities give the parity of its count, whether or not B is
    definite (see _parity).  The slices from 0 to hi with edges at the
    guesses are searched, each guess's parity read from the LU its
    inverse iteration ran on, so that beyond the guesses only 0 and hi
    are factored; a slice may hold any number of found values.  One
    whose parity disagrees with the found values inside is cut in two by
    one more factorization: holding found values, in the middle of the
    wider side of the lowest of them; empty, at its centre.  An empty
    one first takes inverse iteration from its centre when it is
    isolated, its half-width at most a quarter of the distance from its
    centre to every found value, so that the iteration converges fast; a
    landing inside is a new found value, and a miss cuts the slice with
    the parity of that iteration's LU.  Slices narrower than DISTINCT_TOL
    of their top are not cut, so each missed eigenvalue costs a few
    factorizations, however large n, and no shift is factored twice.  An
    even number missed in one slice is not seen.  The products with B
    read a row-major copy of Bb's stored rows (see _band_matvec), made
    here, once, and freed on return."""
    k, n = (Ab.shape[0] - 1) // 3, Ab.shape[1]
    Br = np.ascontiguousarray(Bb[k:])
    start = np.random.default_rng(PROBE_SEED).standard_normal(n)
    lu = np.empty(Ab.shape, order="F")

    def iterate(shift):
        """The eigenvalue nearest the real `shift`, from inverse iteration
        with that fixed shift, or None when the estimate does not settle
        within INVIT_MAXIT steps or A - shift B is exactly singular; and
        the parity at the shift (see _parity), from the same
        factorization."""
        piv, info = _factor_band(Ab, Bb, shift, lu)
        parity = _parity(lu, piv)
        if info:
            return None, parity
        x, lam = start, None
        for _ in range(INVIT_MAXIT):
            y = _band_matvec(Br, x)
            _call("dgbtrs", b"N", n, k, k, 1, lu, 3 * k + 1, piv, y, n)
            est = shift - (x @ x) / (x @ y)  # y = x / (shift - lambda) at an eigenvector
            x = y / np.linalg.norm(y)
            if lam is not None and abs(est - lam) <= INVIT_TOL * abs(est):
                return est, parity
            lam = est
        return None, parity

    guesses = sorted(set(win.guesses))
    lams, pars = zip(*(iterate(g) for g in guesses))
    par = dict(zip(guesses, pars))
    found = np.sort([lam for lam in lams if lam is not None and 0.0 < lam <= win.hi])
    found = list(found[np.diff(found, prepend=-np.inf) > DISTINCT_TOL * found])
    edges = sorted({0.0, win.hi, *(g for g in guesses if 0.0 < g < win.hi)})
    todo = list(zip(edges[:-1], edges[1:]))
    while todo:
        a, b = todo.pop()
        for s in (a, b):  # an edge no inverse iteration has factored
            if s not in par:
                piv, _ = _factor_band(Ab, Bb, s, lu)
                par[s] = _parity(lu, piv)
        inside = [f for f in found if a < f <= b]
        if (par[a] + par[b] + len(inside)) % 2 == 0 or b - a <= DISTINCT_TOL * b:
            continue
        c = 0.5 * (a + b)
        if inside:
            f = inside[0]
            c = 0.5 * (a + f) if f - a >= b - f else 0.5 * (f + b)
        elif 2.0 * (b - a) <= min((abs(f - c) for f in found), default=np.inf):
            lam, par[c] = iterate(c)
            if lam is not None and a < lam <= b:
                found.append(lam)
                continue
        todo += [(a, c), (c, b)]
    return np.sort(found)


def _solve_window_inertia(A, B, d, win: BoundWindow):
    """The eigenvalues in (0, win.hi] of the symmetric-definite pencil
    and their certificate, the one slice [0, hi] and its count; or
    raises _GiveUp with the reason the window is given up.

    1. d(A, B)d is read from its block-order lower triangle into one
       scaled pair (see _symmetric_bands), and dBd must have a banded
       Cholesky factor (dpbtrf, on a copy of its lower bands).
    2. Inverse iteration and the parity of slice counts find the
       eigenvalues on that pair (see _find_window_eigenvalues).
    3. They must pass step 2 of _solve_window (see _match_doubt), and
       their number must be the count of eigenvalues in [0, hi), which
       is exact: the negative eigenvalues of d(A - hi B)d less those of
       dAd (see _negative_counts), from the lower bands of the pair."""
    Ab, Bb, k = _symmetric_bands(A, B, d)
    lapack_info = _call("dpbtrf", b"L", len(d), k, Bb[2 * k:].copy(order="F"), k + 1)
    if lapack_info:
        raise _GiveUp(f"dpbtrf returned info {lapack_info}: the equilibrated B "
                      "is not positive definite")
    found = _find_window_eigenvalues(Ab, Bb, win)
    shifted = Ab[2 * k:] - np.array([0.0, win.hi])[:, None, None] * Bb[2 * k:]
    del Ab, Bb  # not read again: freed before the counts, whose blocks peak
    if (reason := _match_doubt(found, win)) is not None:
        raise _GiveUp(reason)
    counts = _negative_counts(shifted)
    if counts is None:
        raise _GiveUp("a Schur complement of d(A - s B)d, s = 0 or hi, is "
                      "numerically singular")
    count = int(counts[1] - counts[0])
    if count != len(found):
        raise _GiveUp(f"the inertia count of the window is {count}, but {len(found)} "
                      "distinct eigenvalues were found")
    return found.astype(complex), {"slice_edges": [0.0, win.hi], "slice_counts": [count]}


def _slice_edges(found, hi):
    """Edges of slices that partition (0, hi]: one slice per found
    eigenvalue, with edges midway between neighbours (the lowest one
    mirrored about its value), then slices of doubling width, starting
    at that lowest slice's, down to 0."""
    edges = list(0.5 * (found[:-1] + found[1:])) + [hi]
    below = max(0.0, 2.0 * found[0] - edges[0])
    edges.insert(0, below)
    width = edges[1] - edges[0]
    while below > 0.0:
        below = max(0.0, below - width)
        edges.insert(0, below)
        width *= 2.0
    return np.array(edges)


def _contour_nodes(ratio, weight=1.0):
    """Trapezoid nodes on the upper half of a slice's ellipse, semi-axes r
    and beta r (beta = CONTOUR_ASPECT), for `weight` eigenvalues outside
    it, the nearest at distance delta from the centre c, ratio = r /
    delta.  In the Joukowski variable w of (z - c) / (r f) = (w + 1/w) /
    2, f = sqrt(1 - beta^2) (the foci at c -+ r f), the ellipse is the
    circle |w| = rho = sqrt((1 + beta) / (1 - beta)), and an eigenvalue
    at delta lies at |w_t| = s + sqrt(s^2 - 1), s = delta / (r f).  With
    N nodes there, 2N on the whole ellipse, equally spaced on that
    circle, the filter weighs it by about q^(2N), q = rho / |w_t|, and
    those farther by less: this is the fewest N >= 2 that brings weight
    q^(2N) to LEAKAGE, at most CONTOUR_NODES_MAX.  In terms of the ratio, q = (1 + beta) ratio /
    (1 + sqrt(1 - f^2 ratio^2)), which is the ratio itself on a circle
    (beta = 1) and reaches 1 at ratio 1, an eigenvalue on the contour."""
    beta = CONTOUR_ASPECT
    ratio = min(ratio, 1.0)
    q = (1.0 + beta) * ratio / (1.0 + np.sqrt(1.0 - (1.0 - beta * beta) * ratio * ratio))
    return next((m for m in range(2, CONTOUR_NODES_MAX) if weight * q ** (2 * m) <= LEAKAGE),
                CONTOUR_NODES_MAX)


def _slice_nodes(edges, found, win: BoundWindow, below):
    """The contour nodes of each slice of win: enough for the nearest
    found level outside it, and for the `below` eigenvalues at or below
    win.continuum (the negative continuum) together (see
    _contour_nodes).  Above the window the nearest level is 2 hi -
    found[-1], level `levels + 1` by the definition of hi."""
    outside = np.append(found, 2.0 * win.hi - found[-1])
    nodes = []
    for a, b in zip(edges[:-1], edges[1:]):
        far = outside[(outside <= a) | (outside > b)]
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        delta = np.abs(far - c).min(initial=np.inf)
        nodes.append(max(_contour_nodes(r / delta),
                         _contour_nodes(r / (c - win.continuum), below)))
    return nodes


def _moment_singular_values(Ab, Bb, BV, a, b, nodes):
    """Singular values of the zeroth contour moment of (z B - A)^-1 B V
    (BV real, held as a complex Fortran array) on the ellipse over
    [a, b], semi-axes r = (b - a) / 2 along the real axis and
    CONTOUR_ASPECT r across it, which meets the real axis at a and b; by
    the trapezoid rule with `nodes` nodes on the upper half, z_j = c +
    r (cos t_j + i beta sin t_j), t_j = pi (2j + 1) / (2 nodes), each
    weighted by w_j = r (beta cos t_j + i sin t_j), dz/dt over i, and
    each factored in one buffer of the call's own (see _factor_band);
    None when a node is exactly singular.  Only the upper half is
    solved: the pencil is real, so the lower nodes give the complex
    conjugates."""
    k, n = (Ab.shape[0] - 1) // 3, Ab.shape[1]
    c, r, beta = 0.5 * (a + b), 0.5 * (b - a), CONTOUR_ASPECT
    lu = np.empty(Ab.shape, dtype=complex, order="F")
    X = np.empty(BV.shape, dtype=complex, order="F")
    S = np.zeros(BV.shape, dtype=complex)
    for t in np.pi * (2 * np.arange(nodes) + 1) / (2 * nodes):
        cos, sin = np.cos(t), np.sin(t)
        piv, info = _factor_band(Ab, Bb, c + r * complex(cos, beta * sin), lu)
        if info:
            return None
        X[...] = BV
        _call("zgbtrs", b"N", n, k, k, BV.shape[1], lu, 3 * k + 1, piv, X, n)
        X *= r * complex(beta * cos, sin)  # in place: no node-sized temporary
        S += X
    return np.linalg.svd(S.real / nodes, compute_uv=False)


def _solve_window(A, B, d, win: BoundWindow):
    """The eigenvalues in (0, win.hi] and their certificate, the slice
    edges, the certified per-slice counts, the per-slice node counts and
    CONTOUR_ASPECT; or raises _GiveUp when they cannot be certified
    complete.

    1. Inverse iteration and the parity of slice counts find the
       eigenvalues on the banded d(A, B)d (see _find_window_eigenvalues).
    2. The greedy matcher of classify_spectrum pairs them with the
       guesses.  Each pair must lie closer together than the guess lies
       to hi, so no value above the window could have won it (see
       _match_doubt).
    3. The window is cut into slices (see _slice_edges), each with as
       many contour nodes as its nearest outside level and the negative
       continuum ask for (see _slice_nodes).  On each, the rank of the contour moment must
       equal the found values inside, with a gap: every kept singular
       value at least SV_GAP times every dropped one, over all slices.

    Step 3 runs one task per slice on a thread pool of one worker per
    usable core, at most one per slice, whose results and exceptions
    come back in slice order: a doubt names the lowest-numbered slice it
    concerns."""
    Ab, Bb, k = _interleaved_bands(A, B, d)
    n = len(d)
    found = _find_window_eigenvalues(Ab, Bb, win)
    if (reason := _match_doubt(found, win)) is not None:
        raise _GiveUp(reason)
    edges = _slice_edges(found, win.hi)
    counts = [int(np.sum((found > a) & (found <= b)))
              for a, b in zip(edges[:-1], edges[1:])]
    nodes = _slice_nodes(edges, found, win, n // 2)
    rng = np.random.default_rng(PROBE_SEED)
    rng.standard_normal(n)  # the finder's start vector: the probes are the next draw
    BV = _band_matvec(Bb[k:], rng.standard_normal((n, PROBES))).astype(complex, order="F")
    # imported here: only the nonsymmetric window runs threads
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(len(os.sched_getaffinity(0)), len(nodes))) as pool:
        svals = list(pool.map(functools.partial(_moment_singular_values, Ab, Bb, BV),
                              edges[:-1], edges[1:], nodes))
    for i, s in enumerate(svals, start=1):
        if s is None:
            raise _GiveUp(f"a contour node of slice {i} is singular")
    kept = min(s[m - 1] for s, m in zip(svals, counts) if m)
    for i, (s, m) in enumerate(zip(svals, counts), start=1):
        dropped = s[m] if m < len(s) else np.inf
        if dropped * SV_GAP > kept:
            sv = ", ".join(f"{v:.2e}" for v in s)
            raise _GiveUp(f"slice {i} of {len(counts)} holds {m} found; its moment "
                          f"singular values are {sv}, the weakest kept {kept:.2e}")
    return found.astype(complex), {"slice_edges": edges.tolist(), "slice_counts": counts,
                                   "slice_nodes": nodes, "contour_aspect": CONTOUR_ASPECT}


@dataclass(frozen=True, eq=False)
class LevelMatch:
    level: int
    computed: float
    exact: float
    rel_error: float


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    raw: np.ndarray                 # everything the solver returned
    positive_shifted: np.ndarray    # positive branch minus mc^2
    matches: list = field(default_factory=list)   # LevelMatch per requested level
    flags: list = field(default_factory=list)     # one flag per positive_shifted entry
    n_complex: int = 0


def exact_levels(sys: PhysicalSystem, levels: int):
    """First `levels` physical bound levels.  For kappa > 0 the radial
    quantum number starts at 2 (the nr = 1 slot is unphysical there)."""
    start = 1 if sys.kappa < 0 else 2
    return [exact_eigenvalue(sys, nr) for nr in range(start, start + levels)]


def _is_real(eigs):
    """Reality filter; the max(|re|,1) floor keeps near-zero reals testable."""
    eigs = np.asarray(eigs, dtype=complex)
    return np.abs(eigs.imag) <= IMAG_TOL * np.maximum(np.abs(eigs.real), 1.0)


def _match_levels(values, targets):
    """Greedy monotone matching: for each target in turn, the index of the
    nearest of the ascending `values` above the previous pick (ties break
    toward the lower value via argmin order); stops when values run out."""
    picked, lo = [], 0
    for ex in targets:
        if lo >= len(values):
            break
        j = lo + int(np.argmin(np.abs(values[lo:] - ex)))
        picked.append(j)
        lo = j + 1
    return picked


def check_spectrum_reality(eigs) -> int:
    """Count eigenvalues with a non-negligible imaginary part and warn:
    complex pairs are the symptom of an oversized stability parameter."""
    bad = int(np.size(eigs) - _is_real(eigs).sum())
    if bad:
        warnings.warn(
            f"{bad} eigenvalues came out complex; the stability parameter "
            "is likely too large for this configuration", RuntimeWarning)
    return bad


def classify_spectrum(eigs, sys: PhysicalSystem, levels: int = 15) -> SpectrumReport:
    raw = np.asarray(eigs, dtype=complex)
    keep = _is_real(raw)
    n_complex = int(len(raw) - keep.sum())
    real = np.sort(raw.real[keep])
    pos = real[real > 0.0] - sys.mc2
    if len(real) == 0:
        raise EmptySpectrum("no real eigenvalues survived the reality filter")

    flags = [FLAG_TAIL] * len(pos)
    matches = []
    if levels > 0:
        targets = exact_levels(sys, levels)
        matched_idx = _match_levels(pos, targets)
        for lv, (j, ex) in enumerate(zip(matched_idx, targets), start=1):
            matches.append(LevelMatch(level=lv, computed=float(pos[j]), exact=float(ex),
                                      rel_error=float(abs(pos[j] - ex) / abs(ex))))
            flags[j] = FLAG_GENUINE
        # instilled spuriosity: unmatched values strictly inside a matched gap,
        # far (relative to MATCH_TOL) from both flanking exact levels
        for a, b, ma, mb in zip(matched_idx[:-1], matched_idx[1:],
                                matches[:-1], matches[1:]):
            for j in range(a + 1, b):
                da = abs(pos[j] - ma.exact) / abs(ma.exact)
                db = abs(pos[j] - mb.exact) / abs(mb.exact)
                if da > MATCH_TOL and db > MATCH_TOL:
                    flags[j] = FLAG_INSTILLED
    # unphysical coincidence: positive kappa picking up the |kappa| ground level
    if sys.kappa > 0 and len(pos) > 0:
        mirror = exact_eigenvalue(sys, 1)
        if abs(pos[0] - mirror) <= COINCIDENCE_TOL * abs(mirror):
            flags[0] = FLAG_COINCIDENCE
    return SpectrumReport(raw=raw, positive_shifted=pos,
                          matches=matches, flags=flags, n_complex=n_complex)


def convergence_rate(samples) -> float:
    """Least-squares slope of log(err) against log(h) for (h, err) pairs."""
    samples = [(float(h), float(e)) for h, e in samples]
    if len(samples) < 3:
        raise ValueError("need at least 3 (h, error) samples")
    h = np.array([s[0] for s in samples])
    e = np.array([s[1] for s in samples])
    if np.any(h <= 0) or np.any(e <= 0):
        raise ValueError("h and errors must be positive")
    if np.unique(h).size < 2:
        raise ValueError("degenerate samples: all h equal")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])
