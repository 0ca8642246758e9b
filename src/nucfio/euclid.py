"""Fourier integral operators on R^n, Z^n and T^n: apply, synthesis, traces.

The operator acts as (Ff)(x) = int e^{i phi(x, xi)} a(x, xi) (Ff)(xi) dxi in
the exp(-2*pi*i*x.xi) transform convention. Phases are either exactly linear
(phi = 2*pi*x.xi, the plain pseudo-differential case) or arbitrary sampled
real tables. Linear phases cancel exactly against the trace kernel because
both are formed from the same float products; sampled phases are validated
for oscillation density (at least 8 nodes per period) before any quadrature
that integrates them.

This module owns the abelian bodies (``_abelian_apply``, ``_abelian_synthesis``,
``_abelian_trace``, ``_abelian_matrix``): R^n, Z^n and the torus take the
same sums over a ``SampledSymbol``, with different weights: ``fio_apply``
applies all three, and ``lattice`` and ``group`` import the other bodies and
check their setting. The trace and the matrix diagonal sum the same
``_trace_terms``; the matrix's off-diagonals are one ``numerics._dft``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .grids import KahanSum, LatticeWindow, SampledField, SampledSymbol, UniformGrid, ksum
from .grids import require_real, require_same_grid
from .nuclear import RankOneSequence, delgado_trace, r_quasinorm_bound, require_node_cap
from .numerics import _dft, _row_blocks, characters, dft_forward, dft_inverse
from .numerics import factored_eigenvalues, mixed_norm
from .report import TraceReport, _c

__all__ = [
    "PhaseSpec",
    "fio_apply",
    "symbol_from_decomposition",
    "nuclear_trace_euclid",
    "decay_norms",
    "lidskii_report",
    "lidskii_exponent",
]

# Sampled-phase oscillation budget: adjacent nodes may advance the phase by
# at most 2*pi/8, i.e. at least 8 nodes per period.
_MAX_PHASE_STEP = 2.0 * np.pi / 8.0


@dataclass(frozen=True)
class PhaseSpec:
    """Real phase function phi(x, xi), linear or tabulated.

    kind 'linear' means phi = 2*pi*x.xi with no stored samples. kind
    'sampled' stores a table with one row per space point and one column
    per frequency point. The same class serves R^n (x and xi on grids), the
    lattice (x on a window, xi on the torus) and the torus (x on the torus,
    xi in a frequency cube).
    """

    kind: str
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "sampled"):
            raise ValidationError(f"phase kind {self.kind!r} not in ('linear', 'sampled')")
        if self.kind == "sampled":
            v = np.asarray(self.values, dtype=float)
            if v.ndim != 2:
                raise ShapeError("sampled phase must be a 2-d table (x points, xi points)")
            if not np.all(np.isfinite(v)):
                raise ValidationError("sampled phase contains non-finite entries")
            object.__setattr__(self, "values", v)
        elif self.values is not None:
            raise ValidationError("linear phase carries no sample table")

    @classmethod
    def linear(cls) -> "PhaseSpec":
        return cls("linear")

    def table(self, x: np.ndarray, xi: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Phase table rows for the points ``x[rows]`` against all of ``xi``.

        Linear phases are formed as 2*pi*(x.xi) so callers can cancel the
        same product exactly.
        """
        if self.kind == "linear":
            return 2.0 * np.pi * (x[rows] @ xi.T)
        if self.values.shape != (x.shape[0], xi.shape[0]):
            raise ShapeError(
                f"sampled phase table {self.values.shape} != ({x.shape[0]}, {xi.shape[0]})"
            )
        return self.values[rows]


def _require_phase_density(phase: PhaseSpec, a: SampledSymbol, what: str, xi_only: bool = False) -> None:
    """Sampled integrands must advance by <= 2*pi/8 per node step per axis.

    Only the axes actually integrated against the oscillation are checked:
    application integrates xi alone against the phase, traces integrate both
    variables against the phase minus the trace kernel 2*pi*x.xi. The table
    is read in blocks of whole axis-0 slabs, each reshaped to the grid's
    axes; a block also rereads the slab before it, so axis 0 steps pair
    across blocks. Steps are maximized over the whole table before any axis is
    judged, so the first offending axis is named, as on the full table.
    """
    x, xi = a.space.nodes, a.freq.nodes
    space, freq = a.space.shape, a.freq.shape
    first = len(space) if xi_only else 0
    steps = np.zeros(len(space) + len(freq))
    slab = int(np.prod(space[1:]))
    for rows in _row_blocks(a.space.size, slab):
        lo = max(rows.start - slab, 0)
        t = phase.table(x, xi, slice(lo, rows.stop))
        if not xi_only:
            t = t - 2.0 * np.pi * (x[lo : rows.stop] @ xi.T)
        t = t.reshape((-1,) + space[1:] + freq)
        for ax in range(first, t.ndim):
            s = t if ax == 0 else t[(rows.start - lo) // slab :]
            steps[ax] = max(steps[ax], np.abs(np.diff(s, axis=ax)).max(initial=0.0))
    for ax in range(first, len(steps)):
        if steps[ax] > _MAX_PHASE_STEP + 1e-12:
            raise ValidationError(
                f"{what}: sampled phase advances {steps[ax]:.3f} rad per node step on "
                f"axis {ax}, above the 2*pi/8 = {_MAX_PHASE_STEP:.3f} density bound "
                f"(need >= 8 nodes per oscillation period); refine the grid"
            )


# -- the abelian bodies -------------------------------------------------------
# R^n, Z^n and the torus share these three: a ``SampledSymbol`` over a space
# domain and a frequency domain (grids, or a window with unit weights on one
# side), a ``PhaseSpec`` whose rows are space points and columns frequencies.
# The entry points check their setting and call one of them.


def _cis(t: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """``np.exp(sign * 1j * t)`` bit for bit, as one cos and one sin written
    into the float view of one complex buffer.

    sign*1j*t has the imaginary part sign*0.0 + sign*t (the product's zero
    cross term rounds a -0.0 to +0.0 for sign +1 only) and a zero real part,
    whose exp is exactly 1.
    """
    theta = sign * t
    out = np.empty(theta.shape, dtype=complex)
    parts = out.view(float).reshape(theta.shape + (2,))
    np.cos(theta, out=parts[..., 0])
    theta += sign * 0.0
    np.sin(theta, out=parts[..., 1])
    return out


def _phase_factor(phase: PhaseSpec, space, freq, rows: slice, sign: float) -> np.ndarray:
    """e^{sign*i*phi} on the rows ``rows`` of the ``space`` nodes against all
    ``freq`` nodes: a linear phase's table is ``numerics.characters`` (roots
    of unity at the nodes' exact integer phases, below its cap), a sampled
    phase's the ``_cis`` of its table."""
    if phase.kind == "linear":
        return characters(space, freq, sign, rows)
    return _cis(phase.table(space.nodes, freq.nodes, rows), sign)


def _abelian_apply(phase: PhaseSpec, a: SampledSymbol, f: SampledField) -> SampledField:
    """out(p) = sum_j w_j e^{i phi(p, j)} a(p, j) (F f)(xi_j), row block by
    row block; f lives on the symbol's space domain, and so does the output."""
    wfhat = a.freq.weights * dft_forward(f, a.freq).values
    out = np.empty(a.space.size, dtype=complex)
    for rows in _row_blocks(a.space.size):
        terms = _phase_factor(phase, a.space, a.freq, rows, 1.0) * a.values[rows] * wfhat[None, :]
        out[rows] = ksum(terms, axis=1)
    return SampledField(a.space, out)


def _abelian_synthesis(phase: PhaseSpec, d: RankOneSequence, space, freq) -> SampledSymbol:
    """a(p, j) = e^{-i phi(p, j)} sum_k h_k(p) sum_m w_m g_k(m) e^{2*pi*i x_m.xi_j}
    on ``space`` x ``freq``, the g factors on ``space``. One ``dft_inverse``
    transforms all k g factors in one pass (an FFT on every commensurate
    axis, every Z^n and T^n axis among them, a chirp-z transform on every
    other); the summed side's weights w fold into g_k. Each row block sums
    its k outer products in term order, then takes the phase factor, so no
    temporary is larger than a block.
    """
    G = dft_inverse(tuple(g for _, g in d.terms), freq)
    A = np.zeros((space.size, freq.size), dtype=complex)
    for rows in _row_blocks(space.size):
        block = A[rows]
        for (h, _), Gk in zip(d.terms, G):
            block += np.outer(h.values[rows], Gk.values)
        np.multiply(_phase_factor(phase, space, freq, rows, -1.0), block, out=block)
    return SampledSymbol(space, freq, A)


def _trace_terms(phase: PhaseSpec, a: SampledSymbol, x: np.ndarray, xi: np.ndarray, rows: slice) -> np.ndarray:
    """w_p w_j e^{i(phi(p, j) - 2*pi*x_p.xi_j)} a(p, j) on the rows ``rows``
    of the nodes x against xi. The exponent is one difference; a linear
    phase is the kernel's own float product, so it is exactly 0 and the
    factor e^{i*0} = 1 is not formed (the bits of the exp path up to the
    sign of an exact-zero part). Where one side is a window of unit weights,
    w_p w_j is exact and identities trace to the cardinality with no
    rounding."""
    w = a.space.weights[rows, None] * a.freq.weights[None, :]
    if phase.kind == "linear":
        return a.values[rows] * w
    terms = _cis(phase.table(x, xi, rows) - 2.0 * np.pi * (x[rows] @ xi.T))
    terms *= a.values[rows]
    terms *= w
    return terms


def _abelian_trace(phase: PhaseSpec, a: SampledSymbol) -> complex:
    """The sum of the ``_trace_terms`` as one flat ``KahanSum`` fed row block
    by row block: term (p, j) goes to lane (p * n_xi + j) mod 1024 whatever
    the blocking, and the lanes fold in one exactly rounded ``math.fsum``."""
    x, xi = a.space.nodes, a.freq.nodes
    acc = KahanSum((), complex)
    for rows in _row_blocks(a.space.size):
        acc.add(_trace_terms(phase, a, x, xi, rows).reshape(-1))
    return complex(acc.value)


def _abelian_matrix(phase: PhaseSpec, a: SampledSymbol) -> np.ndarray:
    """The matrix of a Z^n or T^n operator on its window: the torus side T
    is summed against e^{-2*pi*i m.t} for window nodes m, as M[p, q] =
    sum_{j in T} w_j e^{i(phi(p, j) - 2*pi*m_q.xi_j)} a(p, j) on Z^n and
    M[l', l] = sum_{x in T} w_x e^{i(phi(x, l) - 2*pi*x.l')} a(x, l) on T^n.
    Off the diagonal, one ``numerics._dft`` of e^{i phi} a over T onto the
    window, which folds in the weights w and whose output columns are the
    symbol's window nodes (so Z^n reads it transposed). The FFT's DC bin is
    not exact: the diagonal is the T-side compensated sum of the
    ``_trace_terms``, so windowed identities keep it exact."""
    lattice = isinstance(a.space, LatticeWindow)
    torus, window = (a.freq, a.space) if lattice else (a.space, a.freq)
    x, xi = a.space.nodes, a.freq.nodes
    B = _phase_factor(phase, a.space, a.freq, slice(None), 1.0)
    B *= a.values
    F = _dft(B.T if lattice else B, torus, window, -1.0)
    del B  # freed before the trace terms are formed
    M = F.T if lattice else F
    np.fill_diagonal(M, ksum(_trace_terms(phase, a, x, xi, slice(None)), axis=1 if lattice else 0))
    return M


# -- R^n ---------------------------------------------------------------------


def fio_apply(phase: PhaseSpec, a: SampledSymbol, f: SampledField) -> SampledField:
    """Apply the operator: transform f, weight by e^{i phi} a, integrate in xi.

    One apply for R^n, Z^n and T^n: f lives on the symbol's space domain
    (a grid, a window, a torus grid), and so does the output.
    """
    require_same_grid(f.grid, a.space, "fio_apply input")
    if phase.kind == "sampled":
        _require_phase_density(phase, a, "fio_apply", xi_only=True)
    return _abelian_apply(phase, a, f)


def symbol_from_decomposition(
    phase: PhaseSpec,
    d: RankOneSequence,
    xi_grid: UniformGrid | None = None,
) -> SampledSymbol:
    """Symbol whose operator has kernel sum_k h_k(x) g_k(y).

    a(x, xi) = e^{-i phi(x, xi)} sum_k h_k(x) (F^{-1} g_k)(xi). The frequency
    grid defaults to the factors' own box.
    """
    require_same_grid(d.h_grid, d.g_grid, "symbol_from_decomposition factors")
    xi_grid = UniformGrid(d.h_grid.axes) if xi_grid is None else xi_grid
    return _abelian_synthesis(phase, d, d.h_grid, xi_grid)


def nuclear_trace_euclid(phase: PhaseSpec, a: SampledSymbol) -> complex:
    """Double quadrature of e^{i(phi - 2*pi*x.xi)} a(x, xi).

    The exponent is formed as a single difference, and a linear phase
    cancels the trace kernel exactly in floating point, so its factor 1 is
    not formed.
    """
    if phase.kind == "sampled":
        _require_phase_density(phase, a, "nuclear_trace_euclid")
    return _abelian_trace(phase, a)


def decay_norms(a: SampledSymbol, p1: float, p2: float) -> tuple:
    """The two iterated norms behind nuclearity, x-inner and xi-inner.

    Returns (||a|| with x integrated first at exponent p2 then xi at p1,
    ||a|| with xi integrated first at exponent p1 then x at p2). The
    hypothesis 2 <= p1 < inf is enforced here; 1 <= p2 < inf.
    """
    p1 = require_real(p1, "p1 (the theorem's range is p1 >= 2)", 2.0, np.inf, include_hi=False)
    p2 = require_real(p2, "p2", 1.0, np.inf, include_hi=False)
    return (
        mixed_norm(a, "x", p2, p1),
        mixed_norm(a, "xi", p1, p2),
    )


def lidskii_exponent(p: float) -> float:
    """r with 1/r = 1 + |1/p - 1/2|, the summability order granted on L^p."""
    p = require_real(p, "p", 1.0, np.inf, include_hi=False)
    return 1.0 / (1.0 + abs(1.0 / p - 0.5))


def lidskii_report(
    phase: PhaseSpec,
    d: RankOneSequence,
    p: float,
    xi_grid: UniformGrid | None = None,
) -> TraceReport:
    """Cross-check the trace three ways for a finite-rank operator on L^p.

    Builds the symbol from the decomposition, evaluates the phase-space trace
    integral, the quadrature matrix trace, and the eigenvalue sum, and
    records the quasinorm at the r implied by p together with both decay
    norms (which require d.p1 >= 2).

    The quadrature matrix M = H G^T W (H, G the n x k factor columns, W the
    weights) is never formed: its trace comes from the kernel diagonal
    (``delgado_trace``, equal to the dense matrix trace bit for bit, and
    reported as both) and its eigenvalues from the k x k compression (``factored_eigenvalues``).
    The node cap still holds on the x grid and the xi grid (the factor grid
    by default), because the n x n_xi symbol is dense.
    """
    r = lidskii_exponent(p)
    require_node_cap(d.h_grid, "x grid")
    require_node_cap(d.g_grid if xi_grid is None else xi_grid, "xi grid")
    a = symbol_from_decomposition(phase, d, xi_grid)
    nuclear = nuclear_trace_euclid(phase, a)
    w = d.g_grid.weights
    H = np.stack([h.values for h, _ in d.terms], axis=1)
    GW = np.stack([g.values * w for _, g in d.terms], axis=1)
    ev = factored_eigenvalues(H, GW)
    d_at_r = RankOneSequence(d.terms, d.p1, d.p2, r)
    norms = decay_norms(a, d.p1, d.p2)
    dtr = delgado_trace(d)
    return TraceReport(
        setting="euclid",
        nuclear_trace=nuclear,
        matrix_trace=dtr,
        eigenvalues=ev,
        quasinorm_bound=r_quasinorm_bound(d_at_r),
        mixed_norm_x_first=norms[0],
        mixed_norm_xi_first=norms[1],
        extras={"delgado_trace": _c(dtr)},
    )
