"""Square matrices stored as bands.

A Band keeps the diagonals -k..k of an n x n matrix in LAPACK general
band storage: entry (i, j), |i - j| <= k, at data[k + i - j, j].  The
slots of data that fall outside the matrix hold zeros, and every entry
outside the band is +0.0.

A 2x2 block matrix of order n is stored with the unknowns of its two
block rows interleaved, (G1, F1, G2, F2, ...): blocks of half-bandwidth
k then fit one band of half-bandwidth 2k + 1.  dense() returns block
order, the order the dense solvers and the dump read.
"""
from dataclasses import dataclass

import numpy as np


def interleaving(n):
    """The block-order index of each unknown of a 2x2 block matrix of
    order n with the two block rows interleaved, (G1, F1, G2, F2, ...)."""
    perm = np.empty(n, dtype=int)
    perm[0::2] = np.arange(n // 2)
    perm[1::2] = np.arange(n // 2, n)
    return perm


def slots(n, lo, hi):
    """The row index i of every slot of diagonals lo..hi (i - j, one row
    per diagonal, one column per j) in band storage, and the mask of
    those inside the matrix: (hi - lo + 1, n) arrays, i clipped to 0
    outside."""
    i = np.arange(n)[None, :] + np.arange(lo, hi + 1)[:, None]
    inside = (i >= 0) & (i < n)
    return np.where(inside, i, 0), inside


@dataclass(frozen=True, eq=False)
class Band:
    data: np.ndarray          # (2k + 1, n)
    interleaved: bool = False

    def __post_init__(self):
        if self.interleaved and self.n % 2:
            raise ValueError(f"an interleaved band holds a 2x2 block matrix, of even "
                             f"order; this one has order {self.n}")

    @property
    def k(self):
        return self.data.shape[0] // 2

    @property
    def n(self):
        return self.data.shape[1]

    def order(self):
        """The block-order index of each stored row and column."""
        return interleaving(self.n) if self.interleaved else np.arange(self.n)

    def dense(self):
        """The matrix as a new dense array, in block order."""
        n, k, perm = self.n, self.k, self.order()
        out = np.zeros((n, n))
        i, inside = slots(n, -k, k)
        j = np.broadcast_to(np.arange(n), i.shape)
        out[perm[i[inside]], perm[j[inside]]] = self.data[inside]
        return out

    def diagonal(self):
        """The main diagonal, in block order."""
        d = np.empty(self.n)
        d[self.order()] = self.data[self.k]
        return d

    @property
    def T(self):
        """The transpose of a band that is not interleaved: slot (k + o, j)
        takes entry (j, j + o), slot (k - o, j + o)."""
        i, inside = slots(self.n, -self.k, self.k)
        flipped = np.take_along_axis(self.data[::-1], i, axis=1)
        return Band(np.where(inside, flipped, 0.0))

    def trimmed(self, k):
        """The band cut to diagonals -k..k."""
        return Band(self.data[self.k - k:self.k + k + 1], self.interleaved)


def bandwidth(*bands):
    """The outermost diagonal on which any of the bands (of one k)
    holds a nonzero."""
    nonzero = np.any([b.data != 0.0 for b in bands], axis=(0, 2))
    return int(np.abs(np.flatnonzero(nonzero) - bands[0].k).max(initial=0))
