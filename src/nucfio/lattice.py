"""Fourier integral operators on the integer lattice Z^n.

Sequences live on a finite centered window {-N..N}^n; frequencies live on the
torus [0, 1)^n with a periodic quadrature grid. The transform
(F_Z f)(xi) = sum_m f(m) e^{-2*pi*i*m.xi} is an exact finite sum, and the
periodic trapezoid rule integrates the trigonometric polynomials it produces
exactly once the grid has more than twice the window's bandwidth per axis.
Trace kernels are formed as single exponent differences so the linear phase
cancels in floating point and windowed identities trace to exact integers.

The lattice, the torus (the same pairing with space and frequency swapped)
and R^n store one ``grids.SampledSymbol``, here ``SampledSymbol(window,
xi_grid, values)``, and share one transform, ``numerics.dft_forward``. Apply,
synthesis and trace are the abelian bodies of ``euclid``: a lattice operator
is applied with ``euclid.fio_apply`` and its mixed norms are
``numerics.mixed_norm``. The pairing rule,
``grids.LatticeWindow.check_grid``, is enforced by the symbol and the
transform; the entry points here call it too, which rejects other settings.
``_abelian_matrix`` (the torus's too) reads off-diagonals from one FFT per
row, within 1e-13 * sum(w) * max|a| of per-entry sums, its diagonal from the
trace kernel.
"""

from __future__ import annotations

import numpy as np

from .euclid import PhaseSpec, _abelian_synthesis, _abelian_trace
from .grids import LatticeWindow, SampledSymbol, UniformGrid, ksum, require_same_grid
from .nuclear import RankOneSequence

__all__ = [
    "lattice_symbol_from_decomposition",
    "lattice_nuclear_trace",
    "lattice_matrix",
]


def _abelian_matrix(phi: np.ndarray, a: np.ndarray, rows: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """M[p, q] = sum_j w_j e^{i(phi(p, j) - 2*pi*rows_q.x_j)} a(p, j) over the nodes x_j
    of the periodic [0, 1)^n ``grid``: row p is the FFT of w e^{i phi} a read at rows_q mod N.
    The FFT's DC bin is not exact, so the diagonal is the trace kernel's compensated row sum.
    """
    n, cols, wa = rows.shape[0], grid.nodes, a * grid.weights[None, :]
    # one (rows, nodes) buffer, reused in place to bound memory: first the rows w a e^{i phi}...
    B = np.multiply(1j, phi, out=np.empty_like(wa))
    F = np.multiply(np.exp(B, out=B), wa, out=B).reshape((n,) + grid.shape)
    np.fft.fftn(F, axes=tuple(range(1, F.ndim)), out=F)
    M = np.take(B, np.ravel_multi_index(tuple(rows.astype(int).T), grid.shape, mode="wrap"), axis=1)
    # ...then the trace kernel's integrand e^{i(phi - kern)} w a
    kern = np.empty(phi.shape)
    for p in range(n):
        # one matrix-vector product per row: a single matmul may round differently
        kern[p] = 2.0 * np.pi * (rows[p] @ cols.T)
    np.exp(np.multiply(1j, np.subtract(phi, kern, out=kern), out=B), out=B)
    M[np.diag_indices(n)] = ksum(np.multiply(B, wa, out=B), axis=1)
    return M


def lattice_symbol_from_decomposition(
    phase: PhaseSpec, d: RankOneSequence, xi_grid: UniformGrid
) -> SampledSymbol:
    """Symbol with kernel sum_k h_k(n') g_k(m).

    a(n', xi) = e^{-i phi(n', xi)} sum_k h_k(n') (F_Z g_k)(-xi); the h factor
    rides the output variable n', the g transform is evaluated at -xi.
    """
    require_same_grid(d.h_grid, d.g_grid, "lattice_symbol_from_decomposition")
    LatticeWindow.check_grid(d.h_grid, xi_grid, "lattice xi_count")
    return _abelian_synthesis(phase, d, d.h_grid, xi_grid)


def lattice_nuclear_trace(phase: PhaseSpec, a: SampledSymbol) -> complex:
    """sum_{n'} sum_xi w(xi) e^{i(phi - 2*pi*n'.xi)} a(n', xi), exact for
    windowed identities (see ``_abelian_trace``)."""
    LatticeWindow.check_grid(a.space, a.freq, "lattice xi_count")
    return _abelian_trace(phase, a)


def lattice_matrix(phase: PhaseSpec, a: SampledSymbol) -> np.ndarray:
    """Dense matrix of the operator on the window.

    M[p, q] = sum_xi w(xi) e^{i(phi(n'_p, xi) - 2*pi*m_q.xi)} a(n'_p, xi),
    acting on sequence values by plain matrix multiplication.
    """
    LatticeWindow.check_grid(a.space, a.freq, "lattice xi_count")
    pts = a.space.nodes
    return _abelian_matrix(phase.table(pts, a.freq.nodes), a.values, pts, a.freq)

