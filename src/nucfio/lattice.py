"""Fourier integral operators on the integer lattice Z^n.

Sequences live on a finite centered window {-N..N}^n; frequencies live on the
torus [0, 1)^n with a periodic quadrature grid. The transform
(F_Z f)(xi) = sum_m f(m) e^{-2*pi*i*m.xi} is an exact finite sum, and the
periodic trapezoid rule integrates the trigonometric polynomials it produces
exactly once the grid has more than twice the window's bandwidth per axis.
Trace kernels are formed as single exponent differences so the linear phase
cancels in floating point and windowed identities trace to exact integers.

The torus is the same pairing with the roles of space and frequency swapped,
so the trace, matrix and synthesis kernels here (``_abelian_*``) take the two
point sets and the weights of the summed side; ``group.torus_*`` calls them
too. Lattice sums are unweighted, torus integrals carry the grid weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, TruncationError, ValidationError
from .euclid import PhaseSpec
from .grids import (
    KahanSum,
    SampledField,
    UniformGrid,
    complex_samples,
    ksum,
    require_same_grid,
    validate_range,
)
from .nuclear import RankOneSequence
from .numerics import character_sum, weighted_lp_norm

__all__ = [
    "LatticeWindow",
    "LatticeSequence",
    "LatticeSymbol",
    "LatticePhase",
    "LatticeRankOne",
    "lattice_dft",
    "lattice_fio_apply",
    "lattice_symbol_from_decomposition",
    "lattice_nuclear_trace",
    "lattice_matrix",
    "lattice_mixed_norms",
    "lattice_lp_norm",
]


@dataclass(frozen=True)
class LatticeWindow:
    """Centered cube {-radius..radius}^n in lexicographic point order."""

    n: int
    radius: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"lattice dimension {self.n} < 1")
        if self.radius < 0:
            raise DomainError(f"window radius {self.radius} < 0")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def size(self) -> int:
        return self.side**self.n

    @property
    def weights(self) -> np.ndarray:
        """Unit weights: lattice sums are plain sums."""
        return np.ones(self.size)

    @property
    def points(self) -> np.ndarray:
        rng = range(-self.radius, self.radius + 1)
        return np.array(list(itertools.product(rng, repeat=self.n)), dtype=float)

    def min_xi_count(self) -> int:
        """Nodes per xi-axis for exact quadrature of window bigrams.

        Products of two window exponentials have frequencies up to 2*(2N+1)-2
        per axis; a periodic grid with at least 2*(2N+1) nodes kills every
        nonzero one exactly.
        """
        return 2 * self.side


def _check_xi_grid(window: LatticeWindow, xi_grid: UniformGrid) -> None:
    if not xi_grid.periodic:
        raise ValidationError("lattice frequency grid must be periodic on [0,1)^n")
    if xi_grid.dim != window.n:
        raise ShapeError(f"xi grid dim {xi_grid.dim} != lattice dim {window.n}")
    need = window.min_xi_count()
    for ax, (lo, hi, count) in enumerate(xi_grid.axes):
        if not (lo == 0.0 and hi == 1.0):
            raise ValidationError("lattice frequency axes must span [0, 1)")
        if count < need:
            raise TruncationError(
                f"frequency axis {ax} has {count} nodes, below the {need} needed "
                f"to integrate window bigrams exactly"
            )


# A sequence is a sampled field on a window (unit weights), and a lattice
# decomposition is the one rank-one container over such fields.
LatticeSequence = SampledField
LatticeRankOne = RankOneSequence


@dataclass(frozen=True)
class LatticeSymbol:
    """Symbol samples a(n', xi_j), window points by torus nodes."""

    window: LatticeWindow
    xi_grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        _check_xi_grid(self.window, self.xi_grid)
        v = complex_samples(self.values, (self.window.size, self.xi_grid.size), "symbol")
        object.__setattr__(self, "values", v)


# The lattice and the torus share one phase type.
LatticePhase = PhaseSpec


def _abelian_synthesis(phi: np.ndarray, pairs, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a(p, j) = e^{-i phi(p, j)} sum_k h_k(p) sum_m g_k(m) e^{2*pi*i rows_m.cols_j}.

    ``pairs`` holds (h_k, g_k) samples on ``rows``; any quadrature weight of
    the summed side is already folded into g_k.
    """
    A = np.zeros((rows.shape[0], cols.shape[0]), dtype=complex)
    for h, g in pairs:
        A += np.outer(h, character_sum(g, rows, cols, 1.0))
    return np.exp(-1j * phi) * A


def _abelian_trace(phi: np.ndarray, a: np.ndarray, rows: np.ndarray, cols: np.ndarray, w) -> complex:
    """sum_{p, j} w e^{i(phi(p, j) - 2*pi*rows_p.cols_j)} a(p, j), flattened in
    the symbol's own order; ``w`` broadcasts against ``a``.

    The exponent keeps the i on phi and is formed as one difference, so the
    linear phase gives e^{i*0} = 1 exactly and identities trace to the
    cardinality with no rounding.
    """
    kernel = 2.0 * np.pi * (rows @ cols.T)
    return complex(ksum(np.exp(1j * (phi - kernel)) * a * w))


# Frequencies per accumulated block of ``_abelian_matrix``: the block is
# (rows, rows, _MATRIX_FREQS), so a wider chunk raises peak memory.
_MATRIX_FREQS = 4


def _abelian_matrix(phi: np.ndarray, a: np.ndarray, rows: np.ndarray, cols: np.ndarray, w) -> np.ndarray:
    """M[p, q] = sum_j w_j e^{i(phi(p, j) - 2*pi*rows_q.cols_j)} a(p, j).

    The diagonal reuses the trace kernel's exact cancellation. Every entry
    is reduced over j in one compensated pass, chunk by chunk in ascending
    order, as a per-column ``ksum`` would take it.
    """
    wa = a * w[None, :]
    kern = np.empty((rows.shape[0], cols.shape[0]))
    for q in range(rows.shape[0]):
        # one matrix-vector product per q: a single matmul may round differently
        kern[q] = 2.0 * np.pi * (rows[q] @ cols.T)
    acc = KahanSum((rows.shape[0], rows.shape[0]), complex)
    for j0 in range(0, cols.shape[0], _MATRIX_FREQS):
        js = slice(j0, j0 + _MATRIX_FREQS)
        block = np.exp(1j * (phi[:, None, js] - kern[None, :, js])) * wa[:, None, js]
        acc.add(np.moveaxis(block, -1, 0))
    return acc.value


def lattice_lp_norm(f: LatticeSequence, p: float) -> float:
    """Unweighted ell^p norm over the window, p in [1, inf]."""
    return weighted_lp_norm(f.values, f.grid.weights, p)


def lattice_dft(f: LatticeSequence, xi_grid: UniformGrid) -> SampledField:
    """(F_Z f)(xi) = sum_m f(m) e^{-2*pi*i*m.xi}, exact finite sum."""
    _check_xi_grid(f.grid, xi_grid)
    return SampledField(xi_grid, character_sum(f.values, f.grid.points, xi_grid.nodes, -1.0))


def lattice_fio_apply(phase: LatticePhase, a: LatticeSymbol, f: LatticeSequence) -> LatticeSequence:
    """out(n') = sum_xi w(xi) e^{i phi(n', xi)} a(n', xi) (F_Z f)(xi)."""
    require_same_grid(f.grid, a.window, "lattice_fio_apply input")
    fhat = lattice_dft(f, a.xi_grid).values
    phi = phase.table(a.window.points, a.xi_grid.nodes)
    integrand = np.exp(1j * phi) * a.values * (a.xi_grid.weights * fhat)[None, :]
    return LatticeSequence(a.window, ksum(integrand, axis=1))


def lattice_symbol_from_decomposition(
    phase: LatticePhase, d: LatticeRankOne, xi_grid: UniformGrid
) -> LatticeSymbol:
    """Symbol with kernel sum_k h_k(n') g_k(m).

    a(n', xi) = e^{-i phi(n', xi)} sum_k h_k(n') (F_Z g_k)(-xi); the h factor
    rides the output variable n', the g transform is evaluated at -xi.
    """
    require_same_grid(d.h_grid, d.g_grid, "lattice_symbol_from_decomposition")
    _check_xi_grid(d.h_grid, xi_grid)
    pts = d.h_grid.points
    pairs = [(h.values, g.values) for h, g in d.terms]
    A = _abelian_synthesis(phase.table(pts, xi_grid.nodes), pairs, pts, xi_grid.nodes)
    return LatticeSymbol(d.h_grid, xi_grid, A)


def lattice_nuclear_trace(phase: LatticePhase, a: LatticeSymbol) -> complex:
    """sum_{n'} sum_xi w(xi) e^{i(phi - 2*pi*n'.xi)} a(n', xi), exact for
    windowed identities (see ``_abelian_trace``)."""
    pts, xi = a.window.points, a.xi_grid.nodes
    return _abelian_trace(phase.table(pts, xi), a.values, pts, xi, a.xi_grid.weights[None, :])


def lattice_matrix(phase: LatticePhase, a: LatticeSymbol) -> np.ndarray:
    """Dense matrix of the operator on the window.

    M[p, q] = sum_xi w(xi) e^{i(phi(n'_p, xi) - 2*pi*m_q.xi)} a(n'_p, xi),
    acting on sequence values by plain matrix multiplication.
    """
    pts, xi = a.window.points, a.xi_grid.nodes
    return _abelian_matrix(phase.table(pts, xi), a.values, pts, xi, a.xi_grid.weights)


def lattice_mixed_norms(a: LatticeSymbol, p1: float, p2: float) -> tuple:
    """The two iterated norms, n'-inner and xi-inner.

    Returns ((int_T (sum_{n'} |a|^{p2})^{p1/p2} dxi)^{1/p1},
             (sum_{n'} (int_T |a|^{p1} dxi)^{p2/p1})^{1/p2}).
    """
    validate_range("p1", p1, 1.0, np.inf, include_hi=False)
    validate_range("p2", p2, 1.0, np.inf, include_hi=False)
    vals = np.abs(a.values)
    w = a.xi_grid.weights
    inner_pts = ksum(vals**p2, axis=0) ** (p1 / p2)
    n_first = float(ksum(w * inner_pts)) ** (1.0 / p1)
    inner_xi = ksum(w[None, :] * vals**p1, axis=1) ** (p2 / p1)
    xi_first = float(ksum(inner_xi)) ** (1.0 / p2)
    return n_first, xi_first
