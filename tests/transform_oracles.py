"""Oracles of the quadrature transform, shared by the transform tests.

``character_sum`` is the compensated sum over a ``characters`` table, one
source row at a time: the transform's kernel before every grid pair took an
FFT or a chirp-z transform. Every pair of the tests below the roots' cap has
an exact-root table, so it is within a few eps of the exact sum per unit of
sum |w v|, and it is the oracle each FFT path is held to.
"""

import math

import numpy as np

from nucfio.grids import KahanSum
from nucfio.numerics import _fft_sizes, characters

# The per-entry gap of a transform to the exact sum is at most
# C_FFT * eps * log2(prod L) * sum_m |w_m v_m|, L per axis the FFT length of
# ``transform_lengths``.
C_FFT = 1.0


def smooth_length(m: int) -> int:
    """The least integer at least m with no prime factor above 5, by trial."""
    k = m
    while True:
        r = k
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


def transform_lengths(src, dst) -> tuple:
    """Per axis the FFT length of the transform from ``src`` to ``dst``: N of
    ``_fft_sizes`` on a commensurate axis, else the chirp-z transform's, the
    least 5-smooth length at least n + n' - 1."""
    sizes = zip(_fft_sizes(src, dst), src.shape, dst.shape)
    return tuple(N if N else smooth_length(n + m - 1) for N, n, m in sizes)


def fft_bound(src, dst, weighted) -> np.ndarray:
    """C_FFT's per-entry bound for transforming the columns of ``weighted``
    (source values with their weights) from ``src`` to ``dst``."""
    log2n = math.log2(math.prod(transform_lengths(src, dst)))
    return C_FFT * np.finfo(float).eps * log2n * np.abs(weighted).sum(axis=0)


def character_sum(values: np.ndarray, src, dst, sign: float) -> np.ndarray:
    """sum_p values_p e^{sign*2*pi*i x_p.xi_j} over the nodes x_p of ``src``
    for every xi_j of ``dst``, ascending in p by one compensated sum over
    the rows of the ``characters`` table; ``values`` is (n,) or (n, k)."""
    E = characters(src, dst, sign)
    acc = KahanSum(E.shape[1:] + values.shape[1:], complex)
    if values.ndim == 1:
        return acc.add(v * e for v, e in zip(values, E)).value
    return acc.add(v[None, :] * e[:, None] for v, e in zip(values, E)).value
