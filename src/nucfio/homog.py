"""FIOs on compact homogeneous spaces G/K via class-I representations.

A class-I triple is a Haar quadrature on G, a family of unitary irreducible
representation tables pi(x), and for each the number k_pi of K-invariant
vectors. Symbols of operators acting on functions of G/K are supported on
the top-left k_pi x k_pi block; the mask enforcing that is exact (entries
outside the block are bit-zero, and masking twice changes nothing).

With K = {e} every k_pi equals d_pi, the mask is the identity, and the
machinery degenerates to the compact-group module. A table is one more domain
of the class-I table kernel in ``group``: symbols and phases on G/K are
``GroupSymbol`` and ``GroupPhase`` over a table (symbol blocks masked by
``group.class_i_mask``, phase blocks full), and the ``group_*`` functions
run on it, decomposition factors being fields on the table. So the
degeneration is bit-for-bit by construction.

The concrete non-abelian instance is SU(3) in the eight-angle product
parametrization (three theta axes on [0, pi/2], five phi axes on [0, 2*pi],
Haar density sin(t1) cos^3(t1) sin(t2) cos(t2) sin(t3) cos(t3) / (2*pi^5)).
Two printed entries of the commonly cited parametrization (u21 and u23) have
a theta-index misprint that breaks row orthonormality; the forms used here
restore exact unitarity and are noted inline. Each fundamental entry is at
most two separable terms (``_SU3_TERMS``), so the Haar checks on the
eight-axis product rule are sum-factorized (Orszag, J. Comput. Phys. 1980):
the mass is the product of the axis weight sums, and each Schur integral is
a sum of products of theta moments and phi harmonics, every one a
compensated sum over one axis. This is the product-rule sum over the full
grid in another order, with no BLAS and no pass over the grid's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, ValidationError
from .grids import LatticeWindow, UniformGrid, ksum, require_int, require_real
from .group import (
    GroupPhase,
    GroupQuadrature,
    GroupSymbol,
    group_nuclear_trace,
    unitarity_defect,
)
from .numerics import characters

__all__ = [
    "ClassIIrrepTable",
    "homog_nuclear_trace",
    "homog_mixed_norm",
    "dual_lp_norm",
    "table_from_su2",
    "table_from_torus",
    "su3_dim",
    "su3_fundamental_batch",
    "Su3Quadrature",
    "su3_haar_quadrature",
    "su3_mass",
    "su3_schur_error",
]

# -- class-I representation tables -------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassIIrrepTable:
    """Haar weights plus the class-I irreps by label: ``matrices[label]`` is
    the unitary (N, d, d) table at the nodes, ``k_inv[label]`` the number of
    K-invariant vectors, an integer with 1 <= k_inv <= d. Labels must sort
    (ints or tuples); reductions iterate them in sorted order, so they are
    reproducible."""

    weights: np.ndarray
    matrices: dict
    k_inv: dict

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        total = float(ksum(w))
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"Haar weights sum to {total!r}, not 1")
        if set(self.matrices) != set(self.k_inv):
            raise ValidationError(f"matrix labels {sorted(self.matrices)} != k_inv labels {sorted(self.k_inv)}")
        if not self.matrices:
            raise ValidationError("table needs at least one irrep")
        matrices, k_inv = {}, {}
        for label in sorted(self.matrices):
            M = matrices[label] = np.asarray(self.matrices[label], dtype=complex)
            if M.ndim != 3 or M.shape[0] != w.shape[0] or M.shape[1] != M.shape[2]:
                raise ShapeError(f"irrep {label!r} matrices have shape {M.shape}, expected ({w.shape[0]}, d, d)")
            k = k_inv[label] = require_int(self.k_inv[label], f"k_inv of label {label!r}", least=1)
            if k > M.shape[1]:
                raise DomainError(f"k_inv = {k} outside [1, {M.shape[1]}] for label {label!r}")
            defect = unitarity_defect(M)
            if defect > 1e-10:
                raise ValidationError(f"irrep {label!r} table is not unitary: defect {defect:.3e} > 1e-10")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "k_inv", k_inv)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def labels(self) -> list:
        return sorted(self.matrices)

    def irrep(self, label) -> tuple:
        """(label, dim, k_inv, matrices) of one irrep."""
        if label not in self.matrices:
            raise ValidationError(f"block label {label!r} is not in the irrep table")
        return label, self.matrices[label].shape[1], self.k_inv[label], self.matrices[label]


def homog_nuclear_trace(Phi: GroupPhase, a: GroupSymbol) -> complex:
    """int_M sum_pi d_pi Tr[pi(x)^* Phi(x,pi) a(x,pi)] dx: ``group_nuclear_trace``
    on the table, so a K = {e} table gives the group trace bit for bit."""
    return group_nuclear_trace(Phi, a)


def dual_lp_norm(coeffs: dict, table: ClassIIrrepTable, p: float) -> float:
    """ell^p norm on the restricted dual: ( sum_pi d_pi k_pi^{p(1/p - 1/2)}
    ||M(pi)||_HS^p )^{1/p}."""
    p = require_real(p, "p", 1.0, np.inf, include_hi=False)
    parts = []
    for label in sorted(coeffs):
        _, d, k, _ = table.irrep(label)
        M = np.asarray(coeffs[label], dtype=complex)
        hs = float(np.sqrt((np.abs(M) ** 2).sum()))
        parts.append(d * k ** (p * (1.0 / p - 0.5)) * hs**p)
    return float(ksum(np.asarray(parts))) ** (1.0 / p)


def homog_mixed_norm(a: GroupSymbol, p1: float, p2: float) -> float:
    """( int_M ( sum_pi d_pi k_pi^{p1(1/p1-1/2)} ||a(x,pi)||_HS^{p1} )^{p2/p1}
    dx )^{1/p2}, the momentum-decay norm behind nuclearity on G/K."""
    p1 = require_real(p1, "p1", 1.0, np.inf, include_hi=False)
    p2 = require_real(p2, "p2", 1.0, np.inf, include_hi=False)
    inner = np.zeros(a.domain.size)
    for label in a.labels:
        _, d, k, _ = a.domain.irrep(label)
        hs = np.sqrt(np.einsum("nij->n", np.abs(a.blocks[label]) ** 2))
        inner += d * k ** (p1 * (1.0 / p1 - 0.5)) * hs**p1
    outer = ksum(a.domain.weights * inner ** (p2 / p1))
    return float(outer) ** (1.0 / p2)


# -- degenerate instances -----------------------------------------------------


def table_from_su2(quad: GroupQuadrature, cutoff_twoL: int) -> ClassIIrrepTable:
    """K = {e} table over an SU(2) quadrature: k_pi = d_pi for every label."""
    cutoff = require_int(cutoff_twoL, "cutoff_twoL", least=0)
    matrices = {twoL: quad.irrep(twoL)[3] for twoL in range(cutoff + 1)}
    return ClassIIrrepTable(quad.weights, matrices, {twoL: twoL + 1 for twoL in matrices})


def table_from_torus(x_grid: UniformGrid, cutoff: int) -> ClassIIrrepTable:
    """Torus-as-homogeneous-space: characters as 1x1 irreps, k_pi = 1."""
    window = LatticeWindow(getattr(x_grid, "dim", 1), cutoff)
    window.check_grid(x_grid, "torus x_count")
    # weights on [0,1)^n already sum to 1 (normalized Haar on the torus)
    labels = window.nodes
    chars = characters(window, x_grid, 1.0)  # one row per label
    matrices = {tuple(int(v) for v in ell): row.reshape(-1, 1, 1) for ell, row in zip(labels, chars)}
    return ClassIIrrepTable(x_grid.weights, matrices, dict.fromkeys(matrices, 1))


# -- SU(3) --------------------------------------------------------------------


def su3_dim(a: int, b: int) -> int:
    """Dimension (a+1)(b+1)(a+b+2)/2 of the (a, b) highest-weight irrep."""
    a, b = require_int(a, "a", least=0), require_int(b, "b", least=0)
    return (a + 1) * (b + 1) * (a + b + 2) // 2


# Each fundamental entry U_ij as at most two terms
# sign * (product of the named theta factors) * exp(i k . (phi1, ..., phi5)),
# with c2 = cos(theta2), s3 = sin(theta3) and so on; factors are named in axis
# order and every exponent is 0 or 1. The leading factors of u21 and u23 are
# sin(t2)sin(t3) and cos(t2)sin(t3): the printed variants with theta1 there
# leave the rows non-orthonormal, so these are the exactly unitary forms.
_SU3_TERMS = {
    (0, 0): ((+1, "c1 c2", (1, 0, 0, 0, 0)),),
    (0, 1): ((+1, "s1", (0, 0, 1, 0, 0)),),
    (0, 2): ((+1, "c1 s2", (0, 0, 0, 1, 0)),),
    (1, 0): ((+1, "s2 s3", (0, 0, 0, -1, -1)), (-1, "s1 c2 c3", (1, 1, -1, 0, 0))),
    (1, 1): ((+1, "c1 c3", (0, 1, 0, 0, 0)),),
    (1, 2): ((-1, "c2 s3", (-1, 0, 0, 0, -1)), (-1, "s1 s2 c3", (0, 1, -1, 1, 0))),
    (2, 0): ((-1, "s1 c2 s3", (1, 0, -1, 0, 1)), (-1, "s2 c3", (0, -1, 0, -1, 0))),
    (2, 1): ((+1, "c1 s3", (0, 0, 0, 0, 1)),),
    (2, 2): ((+1, "c2 c3", (-1, -1, 0, 0, 0)), (-1, "s1 s2 s3", (0, 0, -1, 1, 1))),
}


def _theta_powers(factors: str) -> tuple:
    """((cos power, sin power) per theta axis) of a factor string such as "s1 c2"."""
    powers = [[0, 0], [0, 0], [0, 0]]
    for name in factors.split():
        powers[int(name[1]) - 1]["cs".index(name[0])] += 1
    return tuple(map(tuple, powers))


def su3_fundamental_batch(params: np.ndarray) -> np.ndarray:
    """Fundamental 3x3 matrices for rows of eight angles
    (theta1, theta2, theta3, phi1, ..., phi5), vectorized; one row of
    angles gives a batch of one, ``su3_fundamental_batch(angles)[0]``.

    Entries follow the eight-angle product parametrization, evaluated from
    the term table ``_SU3_TERMS`` that the Haar checks integrate.
    """
    P = np.asarray(params, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    if P.shape[1] != 8:
        raise ShapeError(f"need 8 angles per row, got shape {P.shape}")
    if np.any(P[:, :3] < -1e-12) or np.any(P[:, :3] > np.pi / 2 + 1e-12):
        raise DomainError("theta angles must lie in [0, pi/2]")
    if np.any(P[:, 3:] < -1e-12) or np.any(P[:, 3:] > 2 * np.pi + 1e-12):
        raise DomainError("phi angles must lie in [0, 2*pi]")
    cos, sin = np.cos(P[:, :3]), np.sin(P[:, :3])
    U = np.empty((P.shape[0], 3, 3), dtype=complex)
    for (i, j), terms in _SU3_TERMS.items():
        entry = 0.0
        for sign, factors, k in terms:
            real = np.ones(P.shape[0])
            for axis, (pc, ps) in enumerate(_theta_powers(factors)):
                real = real * cos[:, axis] ** pc * sin[:, axis] ** ps
            phase = sum(km * P[:, 3 + m] for m, km in enumerate(k) if km)
            entry = entry + (sign * real) * np.exp(1j * phase)
        U[:, i, j] = entry
    return U


@dataclass(frozen=True, eq=False)
class Su3Quadrature:
    """Eight-axis product quadrature for normalized Haar measure on SU(3).

    The three theta axes carry Gauss-Legendre nodes in cos(2 theta) with the
    Haar density folded into their weights; the five phi axes carry uniform
    nodes, exact for the low phi-harmonics that fundamental-representation
    products produce. The rule is kept as its axes: the tensor grid of ``size``
    nodes is never formed, and the Haar checks sum over it axis by axis.
    """

    theta_nodes: tuple
    theta_weights: tuple
    phi_nodes: tuple
    phi_weights: tuple

    @property
    def size(self) -> int:
        n = 1
        for ax in self.theta_nodes:
            n *= ax.shape[0]
        for ax in self.phi_nodes:
            n *= ax.shape[0]
        return n


def su3_haar_quadrature(resolution: int = 16, phi_count: int = 5) -> Su3Quadrature:
    """Product rule for dmu = sin(t1)cos^3(t1) sin(t2)cos(t2) sin(t3)cos(t3)
    dt1 dt2 dt3 dphi1..dphi5 / (2*pi^5).

    ``resolution`` sets the Gauss-Legendre count per theta axis, in the
    variable cos(2 theta), so the densities are polynomial there. The phi
    axes integrate e^{i k phi} exactly for 0 < |k| < phi_count, which covers
    pairwise products of fundamental entries (|k| <= 2) already at the
    default count of 5.
    """
    n, m = require_int(resolution, "resolution", least=2), require_int(phi_count, "phi_count", least=3)
    # x = cos(2 theta) turns sin cos^3 dtheta into (1+x)/8 dx and sin cos dtheta
    # into dx/4, polynomial densities that Gauss-Legendre in x integrates exactly
    x, w = np.polynomial.legendre.leggauss(n)
    tn, w1, w2 = np.arccos(x) / 2.0, w * (1.0 + x) / 8.0, w / 4.0
    pn = 2.0 * np.pi * np.arange(m) / m
    pw = np.full(m, 2.0 * np.pi / m)
    # fold the 1/(2*pi^5) normalization into the first phi axis
    pw_first = pw / (2.0 * np.pi**5)
    return Su3Quadrature(
        theta_nodes=(tn, tn.copy(), tn.copy()),
        theta_weights=(w1, w2, w2.copy()),
        phi_nodes=tuple(pn.copy() for _ in range(5)),
        phi_weights=(pw_first,) + tuple(pw.copy() for _ in range(4)),
    )


def su3_mass(quad: Su3Quadrature) -> float:
    """Total mass of the product rule, the product of its eight axis weight
    sums; 1 up to quadrature rounding."""
    mass = 1.0
    for w in quad.theta_weights + quad.phi_weights:
        mass *= float(ksum(w))
    return mass


def su3_schur_error(quad: Su3Quadrature) -> float:
    """max | int U_ij conj(U_kl) dmu - delta_ik delta_jl / 3 | over indices.

    Schur orthogonality for the fundamental representation; the flat test of
    whether the quadrature really is Haar measure. Every product of two
    ``_SU3_TERMS`` terms separates over the eight axes, so its sum over the
    product rule is three theta moments sum_n w_a(n) cos^p sin^q (p, q <= 2)
    times five phi harmonics sum_m w(m) e^{i k phi_m} (|k| <= 2): the same
    quadrature sum as over the full grid, in sum-factorized order.
    """
    moments = []
    for t, w in zip(quad.theta_nodes, quad.theta_weights):
        powers = np.stack([np.cos(t) ** p * np.sin(t) ** q for p in range(3) for q in range(3)], axis=1)
        moments.append(ksum(w[:, None] * powers, axis=0).reshape(3, 3))
    harmonics = [
        ksum(w[:, None] * np.exp(1j * np.multiply.outer(f, np.arange(-2, 3))), axis=0)
        for f, w in zip(quad.phi_nodes, quad.phi_weights)
    ]

    def integral(term, other) -> complex:
        """int term * conj(other) dmu under the product rule."""
        (sign, factors, k), (other_sign, other_factors, other_k) = term, other
        value = complex(sign * other_sign)
        axes = zip(_theta_powers(factors), _theta_powers(other_factors))
        for axis, ((pc, ps), (qc, qs)) in enumerate(axes):
            value *= moments[axis][pc + qc, ps + qs]
        for axis in range(5):
            value *= harmonics[axis][k[axis] - other_k[axis] + 2]
        return value

    G = np.zeros((3, 3, 3, 3), dtype=complex)
    for (i, j), terms in _SU3_TERMS.items():
        for (k, l), others in _SU3_TERMS.items():
            G[i, j, k, l] = sum(integral(t, o) for t in terms for o in others)
    target = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3)) / 3.0
    return float(np.abs(G - target).max())
