"""The quantize contractions against the complex bodies they replaced.

``tau_apply`` and ``tau_convert`` contract the frequency axis once per call
and then read one interpolation stencil per point pair. Two of the oracles
below are the earlier bodies: they interpolate the whole frequency row of the
symbol at every point pair (``interpolate_rows``) and contract afterwards.
Interpolation is linear in the samples, so the two orders agree to roundoff.
The third, ``complex_symbol_synthesis``, is the symbol synthesis with its
shift integral as one complex three-operand einsum, where quantize now runs
``numerics`` transforms. The bound is 1e-13 relative to the oracle's largest
entry.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from nucfio.grids import SampledField, UniformGrid, _axis_stencil, interpolate, ksum
from nucfio.nuclear import RankOneSequence
from nucfio.quantize import shift_grid, tau_apply, tau_convert, weyl_symbol_from_decomposition

X_CHUNK = 32
BOUND = 1e-13


def interpolate_rows(table, grid, pts):
    """Every column of a (grid.size, K) table at every point, shape (points, K):
    the same stencils as ``interpolate``, each gathering whole table rows."""
    stencils = [_axis_stencil(grid, ax, pts[:, ax]) for ax in range(grid.dim)]
    out = np.zeros((pts.shape[0], table.shape[1]), dtype=complex)
    term = np.empty(out.shape, dtype=complex)
    for combo in itertools.product(*(range(w.shape[1]) for _, w, _ in stencils)):
        idx = tuple(start + c for (start, _, _), c in zip(stencils, combo))
        w = stencils[0][1][:, combo[0]]
        for ax in range(1, grid.dim):
            w = w * stencils[ax][1][:, combo[ax]]
        np.take(table, np.ravel_multi_index(idx, grid.shape), axis=0, out=term, mode="clip")
        term *= w[:, None]
        out += term
    inside = np.logical_and.reduce([ins for _, _, ins in stencils])
    out[~inside] = 0.0
    return out


def chunked_tau_apply(sigma, tau, f):
    """Interpolate sigma(tau*x + (1-tau)*y, xi) for every (x, y, xi), 32 x-rows
    at a time; contract y with e^{-2 pi i y.xi}, then xi with e^{2 pi i x.xi}."""
    xg, xig = sigma.space, sigma.freq
    Y, XI = xg.nodes, xig.nodes
    wf = xg.weights * f.values
    E0 = np.exp(-2j * np.pi * (Y @ XI.T))
    wxi = xig.weights
    out = np.empty(xg.size, dtype=complex)
    for s in range(0, xg.size, X_CHUNK):
        rows = slice(s, min(s + X_CHUNK, xg.size))
        Xc = xg.nodes[rows]
        m = Xc.shape[0]
        pts = tau * Xc[:, None, :] + (1.0 - tau) * Y[None, :, :]
        S = interpolate_rows(sigma.values, xg, pts.reshape(-1, xg.dim)).reshape(m, xg.size, xig.size)
        v = np.einsum("y,myk,yk->mk", wf, S, E0)
        del S
        rowphase = np.exp(2j * np.pi * (Xc @ XI.T))
        out[rows] = ksum(rowphase * wxi[None, :] * v, axis=1)
    return out


def chunked_tau_convert(b, tau, tau_prime):
    """Interpolate b(x + (tau - tau_prime) z, eta) for every (x, z, eta), 32
    x-rows at a time; contract eta, then z."""
    xg, xig = b.space, b.freq
    delta = tau - tau_prime
    zg = shift_grid(xg)
    Z, wz = zg.nodes, zg.weights
    ETA = xig.nodes
    weta = xig.weights
    E_eta = np.exp(2j * np.pi * (Z @ ETA.T))
    E_xi = np.exp(-2j * np.pi * (Z @ xig.nodes.T))
    out = np.empty((xg.size, xig.size), dtype=complex)
    for s in range(0, xg.size, X_CHUNK):
        rows = slice(s, min(s + X_CHUNK, xg.size))
        Xc = xg.nodes[rows]
        m = Xc.shape[0]
        pts = (Xc[:, None, :] + delta * Z[None, :, :]).reshape(-1, xg.dim)
        BU = interpolate_rows(b.values, xg, pts).reshape(m, zg.size, xig.size)
        c = np.einsum("mzh,h,zh->mz", BU, weta, E_eta)
        del BU
        out[rows] = np.einsum("mz,z,zk->mk", c, wz, E_xi)
    return out


def complex_symbol_synthesis(d, tau):
    """a(x, xi) = sum_z w(z) e^{-2 pi i z.xi} sum_k h_k(x + (1-tau) z) g_k(x - tau z),
    32 x-rows at a time, the z-sum as one complex einsum."""
    xg = d.h_grid
    zg = shift_grid(xg)
    Z, wz = zg.nodes, zg.weights
    E = np.exp(-2j * np.pi * (Z @ xg.nodes.T))
    out = np.empty((xg.size, xg.size), dtype=complex)
    for s in range(0, xg.size, X_CHUNK):
        rows = slice(s, min(s + X_CHUNK, xg.size))
        Xc = xg.nodes[rows]
        plus = (Xc[:, None, :] + (1.0 - tau) * Z[None, :, :]).reshape(-1, xg.dim)
        minus = (Xc[:, None, :] - tau * Z[None, :, :]).reshape(-1, xg.dim)
        c = np.zeros((Xc.shape[0], zg.size), dtype=complex)
        for h, g in d.terms:
            hv = interpolate(h.values, xg, plus).reshape(-1, zg.size)
            c += hv * interpolate(g.values, xg, minus).reshape(-1, zg.size)
        out[rows] = np.einsum("mz,z,zk->mk", c, wz, E)
    return out


def gaussian(grid, center, width, amp=1.0 + 0.0j):
    r2 = (((grid.nodes - np.asarray(center)) / width) ** 2).sum(axis=1)
    return SampledField(grid, amp * np.exp(-np.pi * r2))


def rank_one(grid, shift):
    h = gaussian(grid, 0.4 * shift, 1.0, 1.0 + 0.3j)
    g = gaussian(grid, -0.2 * shift, 1.2)
    return RankOneSequence(((h, g),), 2.0, 2.0, 1.0)


def rel_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.fixture(scope="module")
def line_decomposition():
    return rank_one(UniformGrid.box(-5.0, 5.0, 257, 1), np.ones(1))


@pytest.fixture(scope="module")
def line_symbols(line_decomposition):
    """The 257-node test symbols, one synthesis per tau for the whole module."""
    return {tau: weyl_symbol_from_decomposition(line_decomposition, tau) for tau in (0.25, 0.5, 0.75, 1.0)}


@pytest.mark.parametrize("tau", [0.25, 0.5, 0.75, 1.0])
def test_symbol_synthesis_matches_complex_einsum_1d(line_decomposition, line_symbols, tau):
    assert rel_gap(line_symbols[tau].values, complex_symbol_synthesis(line_decomposition, tau)) < BOUND


@pytest.mark.parametrize("tau", [0.25, 0.75])
def test_symbol_synthesis_matches_complex_einsum_2d(tau):
    d = rank_one(UniformGrid.box(-5.0, 5.0, 13, 2), np.array([1.0, -0.5]))
    assert rel_gap(weyl_symbol_from_decomposition(d, tau).values, complex_symbol_synthesis(d, tau)) < BOUND


@pytest.mark.parametrize("tau", [0.25, 0.5, 0.75, 1.0])
def test_tau_apply_matches_chunked_loop_1d(line_symbols, tau):
    sym = line_symbols[tau]
    probe = gaussian(sym.space, [0.3], 1.1)
    assert rel_gap(tau_apply(sym, tau, probe).values, chunked_tau_apply(sym, tau, probe)) < BOUND


# all four tau, shifted both ways: delta = tau - tau_prime is 0.75 and -0.25
@pytest.mark.parametrize("tau, tau_prime", [(1.0, 0.25), (0.5, 0.75)])
def test_tau_convert_matches_chunked_loop_1d(line_symbols, tau, tau_prime):
    b = line_symbols[tau]
    assert rel_gap(tau_convert(b, tau, tau_prime).values, chunked_tau_convert(b, tau, tau_prime)) < BOUND


@pytest.mark.parametrize("tau", [0.25, 0.75])
def test_tau_routes_match_chunked_loops_2d(tau):
    plane = UniformGrid.box(-5.0, 5.0, 13, 2)
    sym = weyl_symbol_from_decomposition(rank_one(plane, np.array([1.0, -0.5])), tau)
    probe = gaussian(plane, [0.3, -0.2], 1.1)
    assert rel_gap(tau_apply(sym, tau, probe).values, chunked_tau_apply(sym, tau, probe)) < BOUND
    assert rel_gap(tau_convert(sym, tau, 0.5).values, chunked_tau_convert(sym, tau, 0.5)) < BOUND


@pytest.mark.parametrize("dim", [1, 2])
def test_column_gather_is_whole_rows_then_pick(dim):
    grid = UniformGrid.box(-2.0, 2.0, 9, dim)
    rng = np.random.default_rng(dim)
    table = rng.standard_normal((grid.size, 7)) + 1j * rng.standard_normal((grid.size, 7))
    # some points fall outside the box, where both read zero
    pts = rng.uniform(-2.5, 2.5, size=(300, dim))
    cols = rng.integers(0, 7, size=300)
    want = interpolate_rows(table, grid, pts)[np.arange(300), cols]
    assert np.array_equal(interpolate(table, grid, pts, cols), want)


def test_tau_apply_peak_is_no_greater_than_the_chunked_loop():
    grid = UniformGrid.box(-5.0, 5.0, 129, 1)
    sym = weyl_symbol_from_decomposition(rank_one(grid, np.ones(1)), 0.25)
    probe = gaussian(grid, [0.3], 1.1)
    peaks = []
    for route in (tau_apply, chunked_tau_apply):
        tracemalloc.start()
        try:
            route(sym, 0.25, probe)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


@pytest.mark.parametrize(
    "route, oracle",
    [
        (lambda sym, d: tau_convert(sym, 0.25, 0.75), lambda sym, d: chunked_tau_convert(sym, 0.25, 0.75)),
        (lambda sym, d: weyl_symbol_from_decomposition(d, 0.25), lambda sym, d: complex_symbol_synthesis(d, 0.25)),
    ],
    ids=["tau_convert", "symbol_synthesis"],
)
def test_shift_integral_peak_is_no_greater_than_its_oracle(route, oracle):
    grid = UniformGrid.box(-5.0, 5.0, 129, 1)
    d = rank_one(grid, np.ones(1))
    sym = weyl_symbol_from_decomposition(d, 0.25)
    peaks = []
    for f in (route, oracle):
        tracemalloc.start()
        try:
            f(sym, d)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]
