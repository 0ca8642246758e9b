"""Fourier integral operators on the integer lattice Z^n.

Sequences live on a finite centered window {-N..N}^n; frequencies live on the
torus [0, 1)^n with a periodic quadrature grid. The transform
(F_Z f)(xi) = sum_m f(m) e^{-2*pi*i*m.xi} is an exact finite sum, and the
periodic trapezoid rule integrates the trigonometric polynomials it produces
exactly once the grid has more than twice the window's bandwidth per axis.
Trace kernels are formed as single exponent differences so the linear phase
cancels in floating point and windowed identities trace to exact integers.

The lattice, the torus (space and frequency swapped) and R^n store one
``grids.SampledSymbol``, here ``SampledSymbol(window, xi_grid, values)``, and
share one transform. Apply, synthesis, trace and matrix are the abelian
bodies of ``euclid`` (apply with ``euclid.fio_apply``, mixed norms with
``numerics.mixed_norm``); the three entry points here check the pairing rule,
``grids.LatticeWindow.check_grid``, which rejects other settings.
"""

from __future__ import annotations

import numpy as np

from .euclid import PhaseSpec, _abelian_matrix, _abelian_synthesis, _abelian_trace
from .grids import LatticeWindow, SampledSymbol, UniformGrid, require_same_grid
from .nuclear import RankOneSequence

__all__ = [
    "lattice_symbol_from_decomposition",
    "lattice_nuclear_trace",
    "lattice_matrix",
]


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
    windowed identities (see ``_trace_terms``)."""
    LatticeWindow.check_grid(a.space, a.freq, "lattice xi_count")
    return _abelian_trace(phase, a)


def lattice_matrix(phase: PhaseSpec, a: SampledSymbol) -> np.ndarray:
    """Dense matrix of the operator on the window, acting on sequence values
    by plain matrix multiplication: M[p, q] = sum_xi w(xi)
    e^{i(phi(n'_p, xi) - 2*pi*m_q.xi)} a(n'_p, xi) (``euclid._abelian_matrix``)."""
    LatticeWindow.check_grid(a.space, a.freq, "lattice xi_count")
    return _abelian_matrix(phase, a)
