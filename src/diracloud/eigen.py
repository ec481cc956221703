"""Dense generalized eigensolve and spectrum classification.

The solve takes one of three dense paths.  The first two work on the
pencil scaled by d = diag(B)^{-1/2} on both sides, which leaves the
spectrum alone (exponential grids give B nodal masses spanning many
decades, and both reductions lose digits without it):
- galerkin's symmetric pencil, whose B is positive definite: the
  Cholesky reduction (scipy.linalg.eigh);
- the tau-scaled, nonsymmetric pencil of cpg and cpg_fem_tau: an LU
  reduction to the standard problem (dBd)^-1 (dAd), solved by LAPACK
  dgeev (scipy.linalg.eigvals);
- a QZ iteration (scipy.linalg.eig) on the unscaled pencil: the
  fallback of the nonsymmetric path when the scaling or the reduction
  is unsafe, and the reference the faster paths are tested against.
Classification pairs the computed bound states against the closed-form
relativistic levels with a greedy monotone matcher and flags the two
spuriosity patterns separately: values instilled between genuine
levels, and a positive-kappa ground value coinciding with the
negative-kappa ground level.
"""
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .physics import PhysicalSystem, exact_eigenvalue

FLAG_GENUINE = "genuine"
FLAG_INSTILLED = "instilled_spurious"
FLAG_COINCIDENCE = "coincidence_suspect"
FLAG_TAIL = "unmatched_tail"

IMAG_TOL = 1e-8         # |im| / max(|re|, 1) above which a value is complex
MATCH_TOL = 1e-3        # relative distance within which a value hugs an exact level
COINCIDENCE_TOL = 1e-6  # relative distance that coincides with the mirror level
RCOND_FLOOR = 1e-6      # rcond of the equilibrated B below which the nonsymmetric solve takes QZ


class EmptySpectrum(RuntimeError):
    """Nothing real came back from the solver."""


def _equilibrate(M, d):
    """d M d (d a vector, read as a diagonal) in a new Fortran-ordered
    array, which LAPACK can overwrite in place."""
    out = np.empty(M.shape, order="F")
    np.multiply(M, d[:, None], out=out)
    out *= d[None, :]
    return out


def solve_generalized(A, B, return_vectors: bool = False,
                      symmetric_definite: bool = False):
    """All eigenvalues of A x = lambda B x (complex array).  With
    return_vectors=True also the right eigenvectors, column-wise.

    The symmetric and the default path both equilibrate the pencil by
    d = diag(B)^{-1/2} first, a congruence that leaves the spectrum
    untouched and takes cond(B) on the flagship grid from about 1e9 to
    about 1e2.

    symmetric_definite=True takes the Cholesky-reduction path (A
    symmetric, B SPD), which returns an exactly real spectrum.  The
    default path LU-factors dBd and solves the standard problem
    C = (dBd)^-1 (dAd) with dgeev; its vectors are mapped back by d.
    Its backward error in the pencil grows like eps / rcond(dBd), so it
    falls back to a QZ iteration on the unscaled (A, B) when a diagonal
    entry of B is not positive and finite, or when the rcond estimate
    of dBd is below RCOND_FLOOR.  A NaN or inf in A or B raises
    ValueError on every path."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"pencil shapes mismatch: {A.shape} vs {B.shape}")
    db = np.diag(B)
    if symmetric_definite:
        if np.any(db <= 0.0):
            raise ValueError("symmetric_definite needs positive diagonal in B")
        d = 1.0 / np.sqrt(db)
        out = sla.eigh(_equilibrate(A, d), _equilibrate(B, d),
                       eigvals_only=not return_vectors,
                       overwrite_a=True, overwrite_b=True)
        if return_vectors:
            return out[0].astype(complex), d[:, None] * out[1]
        return out.astype(complex)
    if not np.all((db > 0.0) & np.isfinite(db)):
        return sla.eig(A, B, right=return_vectors)
    d = 1.0 / np.sqrt(db)
    # two buffers in all: dBd becomes its LU factors, dAd becomes C
    Be = _equilibrate(B, d)
    lange, gecon = sla.get_lapack_funcs(("lange", "gecon"), (Be,))
    anorm = lange("1", Be)
    with warnings.catch_warnings():
        # an exactly singular dBd is caught by its rcond below
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(Be, overwrite_a=True)
    rcond, _ = gecon(lu, anorm, norm="1")
    if not rcond >= RCOND_FLOOR:
        return sla.eig(A, B, right=return_vectors)
    C = sla.lu_solve((lu, piv), _equilibrate(A, d), overwrite_b=True)
    if return_vectors:
        w, V = sla.eig(C, right=True, overwrite_a=True)
        return w, d[:, None] * V
    return sla.eigvals(C, overwrite_a=True)


@dataclass(frozen=True, eq=False)
class LevelMatch:
    level: int
    computed: float
    exact: float
    rel_error: float


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    raw: np.ndarray                 # everything the solver returned
    real_spectrum: np.ndarray       # kept real eigenvalues, ascending, unshifted
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
        matched_idx = []
        lo = 0
        for lv, ex in enumerate(targets, start=1):
            if lo >= len(pos):
                break
            j = lo + int(np.argmin(np.abs(pos[lo:] - ex)))
            # ties break toward the lower computed value via argmin order
            matches.append(LevelMatch(level=lv, computed=float(pos[j]), exact=float(ex),
                                      rel_error=float(abs(pos[j] - ex) / abs(ex))))
            flags[j] = FLAG_GENUINE
            matched_idx.append(j)
            lo = j + 1
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
    return SpectrumReport(raw=raw, real_spectrum=real, positive_shifted=pos,
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
