"""Dense generalized eigensolve and spectrum classification.

The solve is a straight QZ iteration (scipy.linalg.eig on the pencil).
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


class EmptySpectrum(RuntimeError):
    """Nothing real came back from the solver."""


def solve_generalized(A, B, return_vectors: bool = False,
                      symmetric_definite: bool = False):
    """All eigenvalues of A x = lambda B x (complex array).  With
    return_vectors=True also the right eigenvectors, column-wise.

    symmetric_definite=True takes the Cholesky-reduction path (A
    symmetric, B SPD), which returns an exactly real spectrum; the
    default is a QZ iteration on the general pencil.  The symmetric
    path equilibrates the pencil by d = diag(B)^{-1/2} first (a
    congruence, so the spectrum is untouched): exponential grids give
    B nodal masses spanning many decades and the reduction loses
    digits without it."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"pencil shapes mismatch: {A.shape} vs {B.shape}")
    if symmetric_definite:
        db = np.diag(B)
        if np.any(db <= 0.0):
            raise ValueError("symmetric_definite needs positive diagonal in B")
        d = 1.0 / np.sqrt(db)
        Ae = d[:, None] * A * d[None, :]
        Be = d[:, None] * B * d[None, :]
        if return_vectors:
            w, vr = sla.eigh(Ae, Be)
            return w.astype(complex), d[:, None] * vr
        return sla.eigh(Ae, Be, eigvals_only=True).astype(complex)
    if return_vectors:
        w, vr = sla.eig(A, B, right=True)
        return w, vr
    return sla.eig(A, B, right=False)


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
