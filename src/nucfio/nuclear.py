"""Finite rank-one decompositions of integral kernels and their invariants.

A decomposition is a finite list of factor pairs (h_k, g_k) standing for the
kernel K(x, y) = sum_k h_k(x) g_k(y). Everything here treats the list as
given: the quasinorm bound is computed from these factors, with no attempt
at the infimum over all decompositions of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ValidationError
from .grids import SampledField, UniformGrid, complex_samples, ksum, require_real, require_same_grid
from .numerics import lp_norm

__all__ = [
    "RankOneSequence",
    "SampledKernel",
    "kernel_from_decomposition",
    "apply_kernel",
    "kernel_matrix",
    "require_node_cap",
    "delgado_trace",
    "r_quasinorm_bound",
    "holder_conjugate",
]

# Dense kernels are capped to keep desk-scale memory and O(n^2) costs honest.
DEFAULT_NODE_CAP = 4096


def holder_conjugate(p: float) -> float:
    """p' with 1/p + 1/p' = 1; p = 1 maps to inf."""
    p = require_real(p, "p", 1.0, np.inf, include_hi=False)
    if p == 1.0:
        return np.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class RankOneSequence:
    """Factor pairs (h_k, g_k) plus the exponents they are measured in.

    The one rank-one container of every setting. Its factors are
    :class:`~nucfio.grids.SampledField` samples on one of three domain kinds:
    a ``UniformGrid`` (R^n, the torus), a ``LatticeWindow`` (Z^n) or a
    ``GroupQuadrature`` (SU(2), and G/K through its class-I table).

    Parameters
    ----------
    terms : list of (SampledField, SampledField)
        (h_k, g_k) pairs, at least one; all h_k share one domain, all g_k
        share one domain.
    p1, p2 : float
        Lebesgue exponents, >= 1. g-factors are measured in the conjugate
        exponent p1', h-factors in p2.
    r : float
        Summability exponent in (0, 1].
    """

    terms: tuple
    p1: float
    p2: float
    r: float

    def __post_init__(self):
        terms = tuple((h, g) for h, g in self.terms)
        if not terms:
            raise ValidationError("decomposition needs at least one term")
        if not all(isinstance(f, SampledField) for pair in terms for f in pair):
            raise ValidationError("decomposition factors must be SampledFields")
        object.__setattr__(self, "p1", require_real(self.p1, "p1", 1.0, np.inf, include_hi=False))
        object.__setattr__(self, "p2", require_real(self.p2, "p2", 1.0, np.inf, include_hi=False))
        object.__setattr__(self, "r", require_real(self.r, "r", 0.0, 1.0, include_lo=False))
        h0, g0 = terms[0]
        for h, g in terms[1:]:
            require_same_grid(h.grid, h0.grid, "h factors")
            require_same_grid(g.grid, g0.grid, "g factors")
        object.__setattr__(self, "terms", terms)

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def h_grid(self):
        return self.terms[0][0].grid

    @property
    def g_grid(self):
        return self.terms[0][1].grid


@dataclass(frozen=True)
class SampledKernel:
    """Kernel samples K(x_i, y_j) on a pair of grids."""

    x_grid: UniformGrid
    y_grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        v = complex_samples(self.values, (self.x_grid.size, self.y_grid.size), "kernel")
        object.__setattr__(self, "values", v)


def kernel_from_decomposition(d: RankOneSequence) -> SampledKernel:
    """Assemble K(x, y) = sum_k h_k(x) g_k(y) densely."""
    K = np.zeros((d.h_grid.size, d.g_grid.size), dtype=complex)
    for h, g in d.terms:
        K += np.outer(h.values, g.values)
    return SampledKernel(d.h_grid, d.g_grid, K)


def apply_kernel(K: SampledKernel, f: SampledField) -> SampledField:
    """(Kf)(x) = sum_y w(y) K(x, y) f(y) by quadrature."""
    require_same_grid(f.grid, K.y_grid, "apply_kernel input")
    wf = K.y_grid.weights * f.values
    out = np.einsum("xy,y->x", K.values, wf)
    return SampledField(K.x_grid, out)


def require_node_cap(grid: UniformGrid, name: str) -> None:
    """Reject a grid of a dense array with more than ``DEFAULT_NODE_CAP``
    nodes; the error names the grid."""
    if grid.size > DEFAULT_NODE_CAP:
        raise ValidationError(f"{name} has {grid.size} nodes, above the cap {DEFAULT_NODE_CAP}")


def kernel_matrix(K: SampledKernel) -> np.ndarray:
    """Matrix M with M f_samples = apply_kernel samples: M[i, j] = w(y_j) K(x_i, y_j).

    The same quadrature weights are folded into the columns, so the matrix
    action on sample vectors reproduces ``apply_kernel`` and the matrix trace
    equals the quadrature trace of the kernel diagonal.
    """
    require_node_cap(K.x_grid, "x grid")
    require_node_cap(K.y_grid, "y grid")
    return K.values * K.y_grid.weights[None, :]


def delgado_trace(d: RankOneSequence) -> complex:
    """sum_x w(x) sum_k h_k(x) g_k(x) on any domain, the kernel-diagonal trace.

    Requires both factor families to live on one common domain so the
    diagonal is meaningful. On a grid this is
    ``matrix_trace(kernel_matrix(kernel_from_decomposition(d)))`` bit for bit,
    without forming the n x n matrix: the diagonal is accumulated from zeros
    as h_k * g_k, term by term, and then weighted, exactly as the dense
    kernel and ``kernel_matrix`` form it (numpy's complex product may use
    fused multiply-adds, so g * h could round differently).
    """
    try:
        require_same_grid(d.h_grid, d.g_grid, "delgado_trace")
    except GridMismatchError:
        raise GridMismatchError(
            "delgado_trace: h and g factors must share a grid for the kernel "
            "diagonal to exist"
        ) from None
    s = np.zeros(d.h_grid.size, dtype=complex)
    for h, g in d.terms:
        s += h.values * g.values
    return complex(ksum(s * d.g_grid.weights))


def r_quasinorm_bound(d: RankOneSequence) -> float:
    """( sum_k ||g_k||_{p1'}^r ||h_k||_{p2}^r )^(1/r) over the given terms.

    The norms are weighted by the domains' weights (quadrature weights, or
    ones on a lattice window, so the norms there are plain sums); p1 = 1
    measures g in the sup norm. This is the decomposition's own bound; no
    infimum over alternative decompositions is attempted.
    """
    p1c = holder_conjugate(d.p1)
    parts = [(lp_norm(g, p1c) * lp_norm(h, d.p2)) ** d.r for h, g in d.terms]
    return float(ksum(np.asarray(parts))) ** (1.0 / d.r)
