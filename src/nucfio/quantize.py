"""tau-quantizations on R^n: application, symbol synthesis, Wigner transform.

The tau-quantized operator of a symbol sigma acts by

    (Op_tau(sigma) f)(x) = sum_y sum_xi w(y) w(xi) e^{2*pi*i*(x-y).xi}
                             sigma(tau*x + (1-tau)*y, xi) f(y),

tau in (0, 1] (tau = 0 puts the symbol at the output-independent point y and
is excluded). tau = 1/2 is the symmetric (Weyl) quantization, tau = 1 the
x-form whose symbol synthesis matches the plain transform route.

Numerical layout: tau_apply and tau_convert contract the symbol's frequency
axis first, once per call, into a table T(u, z) over the x-nodes u and a
lattice of shifts z. Interpolation is linear in the samples with weights that
depend only on the point, so sum_xi w(xi) e^{2*pi*i*z.xi} sigma(P, xi) is T's
column z read by one cubic stencil at P: each point pair reads one stencil,
not a whole frequency row. tau_apply's shifts z = x - y live on the
difference lattice (2n - 1 nodes per axis at the x spacing). tau_convert and
the synthesis use an auxiliary z-grid with twice the spacing and twice the
extent of the x-grid, so the half-shifts x +- z/2 and the full shifts x - z
land exactly on x-nodes when the node count is odd. Points off the lattice
(tau not in {1/2, 1}) are evaluated by tensor-product cubic interpolation
with zero extension outside the box; fields and symbols must therefore decay
at the box edge, which is enforced at call time.

Both sums are ``numerics`` transforms with the quadrature weight of the
summed axis folded in: the frequency sum into T is one transform from the
frequency grid onto the shifts, whose columns are the x-rows, and the shift
sum back to frequencies one transform per ``_X_CHUNK`` x-rows. On the grids
whose steps multiply to 1/N (a box of step 1/20 against both shift
lattices) each is an FFT; elsewhere a chirp-z transform. Either way every
column keeps the bits of its own transform, so no entry depends on the
chunk width or the BLAS thread count.
"""

from __future__ import annotations

import numpy as np

from .grids import (
    SampledField,
    SampledSymbol,
    UniformGrid,
    interpolate,
    require_edge_decay,
    require_real,
    require_same_grid,
)
from .nuclear import RankOneSequence
from .numerics import _dft

__all__ = [
    "shift_grid",
    "tau_apply",
    "weyl_symbol_from_decomposition",
    "tau_convert",
    "wigner",
]

# x-rows per chunk of the shift sums and of tau_apply's stencil reads. Each
# chunk pays one transform plan and several ``interpolate`` calls, so wider
# chunks make fewer calls; 32 rows still keep the synthesis' peak below that
# of the complex-einsum oracle in tests/test_tau_oracles.py, 64 do not.
_X_CHUNK = 32


def shift_grid(x_grid: UniformGrid) -> UniformGrid:
    """z-grid for shift integrals: doubled extent, doubled spacing.

    Differences x - y of x-grid nodes live on this lattice, and with an odd
    node count its half-nodes z/2 are x-grid nodes, so Wigner-type shifts
    need no interpolation at all.
    """
    return UniformGrid(tuple((2 * lo, 2 * hi, count) for lo, hi, count in x_grid.axes))


def _freq_first(sigma: SampledSymbol, zg: UniformGrid) -> np.ndarray:
    """T(u, z) = sum_xi w(xi) e^{2*pi*i*z.xi} sigma(u, xi) at the nodes z of
    ``zg``: the frequency axis, summed once, as one transform of the x-rows.
    C-ordered, as ``interpolate`` reads it flat on every chunk."""
    return np.ascontiguousarray(_dft(sigma.values.T, sigma.freq, zg, 1.0).T)


def _shift_to_freq(xg: UniformGrid, xig: UniformGrid, zg: UniformGrid, shifted) -> SampledSymbol:
    """a(x, xi) = sum_z w(z) e^{-2*pi*i*z.xi} c(x, z) over the nodes of ``zg``,
    ``_X_CHUNK`` x-rows at a time; ``shifted(X)`` gives c on the rows X."""
    out = np.empty((xg.size, xig.size), dtype=complex)
    for s in range(0, xg.size, _X_CHUNK):
        rows = slice(s, min(s + _X_CHUNK, xg.size))
        out[rows] = _dft(shifted(xg.nodes[rows]).T, zg, xig, -1.0).T
    return SampledSymbol(xg, xig, out)


def tau_apply(sigma: SampledSymbol, tau: float, f: SampledField) -> SampledField:
    """Apply the tau-quantized operator of ``sigma`` to ``f`` by quadrature.

    The xi-integral is taken first, once per call, on the difference lattice
    z = x - y of the x-grid: S(u, z) = sum_xi w(xi) e^{2*pi*i*z.xi} sigma(u, xi)
    at every x-node u. Interpolation is linear in the samples, so each (x, y)
    pair then reads one cubic stencil of S at u = tau*x + (1-tau)*y (a convex
    combination that stays inside the box) in the column of its z.
    """
    tau = require_real(tau, "tau", 0.0, 1.0, include_lo=False)
    require_same_grid(f.grid, sigma.space, "tau_apply input")
    xg = sigma.space
    # the difference lattice: 2n-1 nodes per axis at the x spacing, z = 0 in the middle;
    # x-node i minus y-node j sits at i - j + n - 1 per axis, so its flat index is
    # flat(i) - flat(j) + flat(n - 1) with both raveled over the lattice's shape
    zg = UniformGrid(tuple((lo - hi, hi - lo, 2 * count - 1) for lo, hi, count in xg.axes))
    S = _freq_first(sigma, zg)
    zflat = np.ravel_multi_index(np.unravel_index(np.arange(xg.size), xg.shape), zg.shape)
    center = np.ravel_multi_index(tuple(n - 1 for n in xg.shape), zg.shape)
    X = xg.nodes
    wf = xg.weights * f.values
    out = np.empty(xg.size, dtype=complex)
    for s in range(0, xg.size, _X_CHUNK):
        rows = slice(s, min(s + _X_CHUNK, xg.size))
        pts = (tau * X[rows, None, :] + (1.0 - tau) * X[None, :, :]).reshape(-1, xg.dim)
        cols = (zflat[rows, None] - zflat[None, :] + center).reshape(-1)
        out[rows] = (interpolate(S, xg, pts, cols).reshape(-1, xg.size) * wf).sum(axis=1)
    return SampledField(xg, out)


def weyl_symbol_from_decomposition(
    d: RankOneSequence, tau: float, xi_grid: UniformGrid | None = None
) -> SampledSymbol:
    """tau-symbol of the rank-one kernel sum_k h_k(x) g_k(y).

    a(x, xi) = sum_z w(z) e^{-2*pi*i*z.xi} sum_k h_k(x + (1-tau) z) g_k(x - tau z),
    with no conjugation on the g factors (they are kernel factors, not an
    inner product). The frequency grid defaults to the factors' own box.
    """
    tau = require_real(tau, "tau", 0.0, 1.0, include_lo=False)
    require_same_grid(d.h_grid, d.g_grid, "weyl_symbol_from_decomposition factors")
    xg = d.h_grid
    xig = UniformGrid(xg.axes) if xi_grid is None else xi_grid
    zg = shift_grid(xg)
    for h, g in d.terms:
        require_edge_decay(h.values, xg, "weyl_symbol_from_decomposition h factor")
        require_edge_decay(g.values, xg, "weyl_symbol_from_decomposition g factor")
    Z = zg.nodes

    def shifted(Xc):
        plus = (Xc[:, None, :] + (1.0 - tau) * Z[None, :, :]).reshape(-1, xg.dim)
        minus = (Xc[:, None, :] - tau * Z[None, :, :]).reshape(-1, xg.dim)
        # the first term's product becomes the sum (0 + t is t), so no zero
        # table is held while the first pair interpolates
        acc = 0.0
        for h, g in d.terms:
            hv = interpolate(h.values, xg, plus).reshape(-1, zg.size)
            hv *= interpolate(g.values, xg, minus).reshape(-1, zg.size)
            acc += hv
        return acc

    return _shift_to_freq(xg, xig, zg, shifted)


def tau_convert(b: SampledSymbol, tau: float, tau_prime: float) -> SampledSymbol:
    """Re-express a tau-symbol in the tau_prime quantization.

    a(x, xi) = sum_z sum_eta w(z) w(eta) e^{-2*pi*i*(xi-eta).z}
               b(x + (tau - tau_prime) z, eta).

    The shift factor is (input tau) minus (output tau_prime); with the
    opposite sign the result disagrees with direct synthesis at tau_prime.
    The symbol must decay at the spatial box edge since shifted evaluations
    extend it by zero.
    """
    tau = require_real(tau, "tau", 0.0, 1.0, include_lo=False)
    tau_prime = require_real(tau_prime, "tau_prime", 0.0, 1.0, include_lo=False)
    xg, xig = b.space, b.freq
    if tau == tau_prime:
        return SampledSymbol(xg, xig, b.values.copy())
    require_edge_decay(b.values, xg, "tau_convert symbol")
    delta = tau - tau_prime
    zg = shift_grid(xg)
    Z = zg.nodes
    # eta first, once per call: B(u, z) = sum_eta w(eta) e^{+2 pi i eta.z} b(u, eta)
    B = _freq_first(b, zg)

    def shifted(Xc):
        pts = (Xc[:, None, :] + delta * Z[None, :, :]).reshape(-1, xg.dim)
        return interpolate(B, xg, pts, np.tile(np.arange(zg.size), len(Xc))).reshape(-1, zg.size)

    return _shift_to_freq(xg, xig, zg, shifted)


def wigner(h: SampledField, g: SampledField, xi_grid: UniformGrid | None = None) -> SampledSymbol:
    """Cross-Wigner transform W(h, g)(x, xi) = sum_z w(z) e^{-2*pi*i*z.xi}
    h(x + z/2) conj(g(x - z/2)).

    This is the Weyl (tau = 1/2) symbol of the rank-one kernel h(x) conj(g(y)),
    so it runs through ``weyl_symbol_from_decomposition``. Both fields share
    one grid; half-shifts are exact lattice moves for odd node counts. W(h, h)
    of a real Gaussian peaks at the phase-space origin.
    """
    require_same_grid(h.grid, g.grid, "wigner inputs")
    d = RankOneSequence(((h, SampledField(g.grid, np.conj(g.values))),), 2.0, 2.0, 1.0)
    return weyl_symbol_from_decomposition(d, 0.5, xi_grid)
