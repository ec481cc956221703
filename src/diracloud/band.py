"""Square matrices stored as bands.

A Band keeps the diagonals -k..k of an n x n matrix in LAPACK general
band storage: entry (i, j), |i - j| <= k, at data[k + i - j, j].  The
slots of data that fall outside the matrix hold zeros, and every entry
outside the band is +0.0.

A 2x2 block matrix of order n is stored with the unknowns of its two
block rows interleaved, (G1, F1, G2, F2, ...): blocks of half-bandwidth
k then fit one band of half-bandwidth 2k + 1.  dense() and nonzeros()
read it in block order.
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


def slots(n, k):
    """The row index i of every slot of diagonals -k..k (i - j, one row
    per diagonal, one column per j) in band storage, and the mask of
    those inside the matrix: (2k + 1, n) arrays, i clipped to 0
    outside."""
    i = np.arange(n)[None, :] + np.arange(-k, k + 1)[:, None]
    inside = (i >= 0) & (i < n)
    return np.where(inside, i, 0), inside


@dataclass(frozen=True, eq=False)
class Band:
    """A square matrix in band storage.  dense() forms it, for the dense
    solvers; nonzeros() reads the entries that are not +0.0 straight from
    the slots, for the dump, with no n x n copy.  __array__ is dense()
    for readers outside the package that take np.asarray(band), as the
    benchmark's dump observer does; the package never calls it."""
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
        """The matrix as a new dense array, in block order and in Fortran
        order, the layout LAPACK overwrites in place."""
        n, k, perm = self.n, self.k, self.order()
        out = np.zeros((n, n), order="F")
        i, inside = slots(n, k)
        j = np.broadcast_to(np.arange(n), i.shape)
        out[perm[i[inside]], perm[j[inside]]] = self.data[inside]
        return out

    def __array__(self):
        """dense(), for np.asarray(band) (no dtype, no copy flag)."""
        return self.dense()

    def nonzeros(self):
        """The row, column and value of every entry that is not +0.0
        (-0.0 and NaN count), in block order row after row, each row's
        columns ascending: np.nonzero's order on dense(), read from the
        slots of each block row without forming dense()."""
        n, k, perm = self.n, self.k, self.order()
        pos = np.empty(n, dtype=int)  # the stored index of each block index
        pos[perm] = np.arange(n)
        off = np.arange(-k, k + 1)
        if self.interleaved:
            # block order takes a row's even stored columns (block columns
            # below n/2) before its odd ones: one order of the offsets for
            # the rows stored at even indices, one for those at odd
            parity = (off + np.arange(2)[:, None]) % 2
            off = off[np.argsort(parity, axis=1, kind="stable")][pos % 2]
        s = pos[:, None]
        t = s + off  # the stored column of every slot of each block row
        inside = (t >= 0) & (t < n)
        t[~inside] = 0
        v = self.data[np.where(inside, k + s - t, 0), t]
        keep = inside & ((v != 0) | np.signbit(v))
        return np.nonzero(keep)[0], perm[t[keep]], v[keep]

    def diagonal(self):
        """The main diagonal, in block order."""
        d = np.empty(self.n)
        d[self.order()] = self.data[self.k]
        return d

    @property
    def T(self):
        """The transpose of a band that is not interleaved: slot (k + o, j)
        takes entry (j, j + o), slot (k - o, j + o)."""
        i, inside = slots(self.n, self.k)
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
