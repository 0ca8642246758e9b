"""The merged lattice and torus symbol bodies against the formulas they replaced.

Z^n and the torus store one ``SampledSymbol`` and share one trace, one
synthesis and one transform path. The oracles below are the earlier
per-setting formulations, kept here so the merged bodies stay equal to them
bit for bit. Two exceptions: a linear phase's synthesis factor, which
``numerics.characters`` gathers from roots of unity at each node pair's
exact integer phase, stays within the table's roundoff of the exp formula;
and every transform, an FFT on commensurate axes (a window against any
torus, dyadic boxes) and a chirp-z transform on the others, which stays
within C_FFT's bound of the compensated character sum over that exact-root
table."""

import numpy as np
import pytest

from nucfio import numerics
from nucfio.cli import run_scenario
from nucfio.errors import ShapeError, ValidationError
from nucfio.euclid import PhaseSpec, nuclear_trace_euclid, symbol_from_decomposition
from nucfio.grids import LatticeWindow, SampledField, SampledSymbol, UniformGrid, ksum
from nucfio.group import (
    torus_matrix,
    torus_nuclear_trace,
    torus_symbol_from_decomposition,
)
from nucfio.lattice import (
    lattice_matrix,
    lattice_nuclear_trace,
    lattice_symbol_from_decomposition,
)
from nucfio.nuclear import RankOneSequence
from nucfio.numerics import _fft_sizes, characters, dft_forward
from transform_oracles import C_FFT, character_sum, fft_bound, transform_lengths

EPS = np.finfo(float).eps


def oracle_trace(phi, a, rows, cols, w):
    """The per-setting trace: ``w`` is the xi weights as a row on the
    lattice and the x weights as a column on the torus."""
    kernel = 2.0 * np.pi * (rows @ cols.T)
    return complex(ksum(np.exp(1j * (phi - kernel)) * a * w))


def oracle_synthesis(phi, pairs, space, freq, factor=None):
    """The per-setting synthesis: pairs (h, g) on the lattice, (h, w * g) on
    the torus; ``factor`` replaces the phase factor e^{-i phi}."""
    A = np.zeros((space.size, freq.size), dtype=complex)
    for h, g in pairs:
        A += np.outer(h, character_sum(g, space, freq, 1.0))
    return (np.exp(-1j * phi) if factor is None else factor) * A


def synthesis_tolerance(pairs, space, freq):
    """Per-entry bound on the transform's synthesis gap: each transformed
    (weighted) g is within C_FFT's bound of the oracle's, so sum_k h_k G_k
    moves by at most sum_k |h_k| C_FFT eps log2(prod L) sum |g_k|; the k-term
    sum and the unit factor round at most k + 2 times on each side, each by
    eps sum_k |h_k| sum |g_k| at most."""
    log2n = np.log2(np.prod(transform_lengths(space, freq)))
    per_g = (C_FFT * log2n + 2 * (len(pairs) + 2)) * EPS
    return sum(np.outer(np.abs(h), per_g * np.abs(g).sum()) for h, g in pairs)


def assert_synthesis_matches(phase, got, phi, pairs, space, freq):
    """Within ``synthesis_tolerance`` of the per-setting synthesis, the
    transform's gap. A linear phase takes its factor from roots of unity
    (every pair here is below the table's cap), within 4 eps (1 + |phi|) of
    the exp value, so each entry is off by 8 eps (1 + |phi|) more, the
    product's own rounding included."""
    want = oracle_synthesis(phi, pairs, space, freq)
    tol = synthesis_tolerance(pairs, space, freq)
    if phase.kind == "linear":
        tol = tol + 8 * EPS * (1.0 + np.abs(phi)) * np.abs(want)
    assert np.all(np.abs(got - want) <= tol)
    assert not np.array_equal(got, want)


def random_complex(rng, shape):
    """Gaussian samples with a fifth of the entries holding signed zeros."""
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = v.reshape(-1)
    for t, i in enumerate(rng.choice(flat.size, size=max(1, flat.size // 5), replace=False)):
        flat[i] = complex((0.0, -0.0, flat[i].real)[t % 3], (-0.0, 0.0, 0.0, -0.0)[t % 4])
    return v


def phases(rows, cols, rng):
    """The linear phase and a sampled perturbation of it, on (rows, cols)."""
    sampled = 2.0 * np.pi * (rows @ cols.T) + 0.3 * rng.standard_normal((rows.shape[0], cols.shape[0]))
    return [PhaseSpec.linear(), PhaseSpec("sampled", sampled)]


def random_decomposition(grid, rng, terms=2):
    pairs = tuple(
        (SampledField(grid, random_complex(rng, grid.size)), SampledField(grid, random_complex(rng, grid.size)))
        for _ in range(terms)
    )
    return RankOneSequence(pairs, 2.0, 2.0, 1.0)


@pytest.mark.parametrize(
    "dim, radius, xi_count",
    [(1, 4, 20), (2, 2, 12), (1, 4, 32), (2, 2, 16)],
    ids=["dim1", "dim2", "dim1_dyadic", "dim2_dyadic"],
)
def test_lattice_bodies_match_per_setting_formulas(dim, radius, xi_count):
    # every count takes the FFT and the roots of unity for the phase factor;
    # on 32 and 16 nodes the weights 1/2^t are exact
    dyadic = xi_count in (16, 32)
    rng = np.random.default_rng(30 + dim)
    window, xi_grid = LatticeWindow(dim, radius), UniformGrid.torus(xi_count, dim)
    assert all(_fft_sizes(window, xi_grid))
    pts, xi = window.nodes, xi_grid.nodes
    shape = (window.size, xi_grid.size)
    d = random_decomposition(window, rng)
    symbols = [SampledSymbol(window, xi_grid, v) for v in (np.ones(shape), random_complex(rng, shape))]
    for phase in phases(pts, xi, rng):
        phi = phase.table(pts, xi)
        for a in symbols:
            want = oracle_trace(phi, a.values, pts, xi, xi_grid.weights[None, :])
            assert np.array_equal(lattice_nuclear_trace(phase, a), want)
        if dyadic and phase.kind == "linear":  # unit symbol, weights 1/2^t: exactly the cardinality
            assert lattice_nuclear_trace(phase, symbols[0]) == window.size
        s = lattice_symbol_from_decomposition(phase, d, xi_grid)
        pairs = [(h.values, g.values) for h, g in d.terms]
        assert_synthesis_matches(phase, s.values, phi, pairs, window, xi_grid)
    f = d.terms[0][1]
    got, want = dft_forward(f, xi_grid).values, character_sum(f.values, window, xi_grid, -1.0)
    assert np.all(np.abs(got - want) <= fft_bound(window, xi_grid, f.values))


@pytest.mark.parametrize(
    "dim, cutoff, x_count",
    [(1, 5, 24), (2, 2, 10), (1, 5, 32), (2, 2, 16)],
    ids=["dim1", "dim2", "dim1_dyadic", "dim2_dyadic"],
)
def test_torus_bodies_match_per_setting_formulas(dim, cutoff, x_count):
    # every count takes the FFT and the roots of unity for the phase factor;
    # on 32 and 16 nodes the weights 1/2^t are exact
    dyadic = x_count in (16, 32)
    rng = np.random.default_rng(32 + dim)
    x_grid, window = UniformGrid.torus(x_count, dim), LatticeWindow(dim, cutoff)
    assert all(_fft_sizes(x_grid, window))
    x, freqs, w = x_grid.nodes, window.nodes, x_grid.weights
    shape = (x_grid.size, freqs.shape[0])
    d = random_decomposition(x_grid, rng)
    symbols = [SampledSymbol(x_grid, LatticeWindow(dim, cutoff), v) for v in (np.ones(shape), random_complex(rng, shape))]
    for phase in phases(x, freqs, rng):
        phi = phase.table(x, freqs)
        for a in symbols:
            want = oracle_trace(phi, a.values, x, freqs, w[:, None])
            assert np.array_equal(torus_nuclear_trace(phase, a), want)
        if dyadic and phase.kind == "linear":  # unit symbol, weights 1/2^t: exactly the cardinality
            assert torus_nuclear_trace(phase, symbols[0]) == freqs.shape[0]
        s = torus_symbol_from_decomposition(phase, d, cutoff, x_grid)
        pairs = [(h.values, w * g.values) for h, g in d.terms]
        assert_synthesis_matches(phase, s.values, phi, pairs, x_grid, window)
    f = d.terms[0][1]
    got, want = dft_forward(f, window).values, character_sum(w * f.values, x_grid, window, -1.0)
    assert np.all(np.abs(got - want) <= fft_bound(x_grid, window, w * f.values))


def test_euclid_rank_four_synthesis_matches_per_term_formula():
    # one transform of all four g factors, 1025 frequency nodes, and the
    # roots of unity for a linear phase factor (the oracle's linear factor is
    # the same table). Spacing 4/333 against 1/128 (M = 42624) takes the
    # chirp-z transform with L = 2025 = 3^4 5^2, spacings 1/64 and 1/128 the
    # FFT with N = 8192; both are within C_FFT's bound of the per-term sums
    for lo, count in ((-6.0, 1000), (-8.0, 1025)):
        rng = np.random.default_rng(36)
        grid, xi_grid = UniformGrid.box(lo, -lo, count), UniformGrid.box(-4.0, 4.0, 1025)
        assert transform_lengths(grid, xi_grid) == ((2025,) if count == 1000 else (8192,))
        d = random_decomposition(grid, rng, terms=4)
        x, xi = grid.nodes, xi_grid.nodes
        pairs = [(h.values, grid.weights * g.values) for h, g in d.terms]
        for phase in phases(x, xi, rng):
            factor = characters(grid, xi_grid, -1.0) if phase.kind == "linear" else None
            s = symbol_from_decomposition(phase, d, xi_grid)
            want = oracle_synthesis(phase.table(x, xi), pairs, grid, xi_grid, factor)
            assert np.all(np.abs(s.values - want) <= synthesis_tolerance(pairs, grid, xi_grid))


def _euclid_case(rng):
    grid = UniformGrid.box(-8.0, 8.0, 1025)
    a = symbol_from_decomposition(PhaseSpec.linear(), random_decomposition(grid, rng, terms=4))
    return a, grid.weights[:, None] * grid.weights[None, :], nuclear_trace_euclid


def _lattice_case(rng):
    window, xi_grid = LatticeWindow(2, 3), UniformGrid.torus(16, 2)
    a = SampledSymbol(window, xi_grid, random_complex(rng, (window.size, xi_grid.size)))
    return a, xi_grid.weights[None, :], lattice_nuclear_trace


def _torus_constant_case(rng):
    x_grid, window = UniformGrid.torus(16, 2), LatticeWindow(2, 3)
    a = SampledSymbol(x_grid, window, np.ones((x_grid.size, window.size), dtype=complex))
    return a, x_grid.weights[:, None], torus_nuclear_trace


@pytest.mark.parametrize(
    "build", [_euclid_case, _lattice_case, _torus_constant_case], ids=["euclid_1025", "lattice_dim2", "torus_constant_dim2"]
)
def test_linear_trace_matches_the_exp_path_formula(build):
    # a linear phase is the trace kernel's own float product, so the trace
    # body skips the factor e^{i(phi - kernel)} = e^{i*0} = 1; the exp path
    # may differ only in the sign of an exact-zero part, which == ignores
    a, w, trace = build(np.random.default_rng(37))
    x, xi = a.space.nodes, a.freq.nodes
    want = oracle_trace(PhaseSpec.linear().table(x, xi), a.values, x, xi, w)
    got = trace(PhaseSpec.linear(), a)
    assert got == want
    assert want != 0


@pytest.mark.parametrize(
    "space, freq, values, error",
    [
        (UniformGrid.box(-1.0, 1.0, 5), UniformGrid.box(-1.0, 1.0, 7), np.ones((7, 5)), ShapeError),
        (UniformGrid.box(-1.0, 1.0, 5), UniformGrid.box(-1.0, 1.0, 3, dim=2), np.ones((5, 9)), ShapeError),
        (LatticeWindow(2, 1), UniformGrid.torus(6, 1), np.ones((9, 6)), ShapeError),
        (UniformGrid.box(-1.0, 1.0, 5), UniformGrid.box(-1.0, 1.0, 7), np.full((5, 7), np.nan), ValidationError),
        (LatticeWindow(1, 1), UniformGrid.torus(6, 1), np.full((3, 6), np.inf), ValidationError),
    ],
    ids=["wrong_shape", "mixed_dims_grids", "mixed_dims_window", "nan", "inf"],
)
def test_sampled_symbol_construction_is_checked(space, freq, values, error):
    with pytest.raises(error):
        SampledSymbol(space, freq, values)


def test_entry_points_check_the_setting_of_a_bare_symbol():
    # a SampledSymbol enforces the pairing rule where one side is a window, but
    # carries no setting, so each entry point checks its own
    phase = PhaseSpec.linear()
    box = UniformGrid.box(0.0, 1.0, 8)
    euclid = SampledSymbol(box, box, np.ones((8, 8)))
    with pytest.raises(ValidationError, match="lattice xi_count = 6 below the exactness threshold 10"):
        SampledSymbol(LatticeWindow(1, 2), UniformGrid.torus(6, 1), np.ones((5, 6)))  # 6 < 2 * 5 frequency nodes
    circle = UniformGrid.torus(8, 1)
    grid_freqs = SampledSymbol(circle, UniformGrid.torus(5, 1), np.ones((8, 5)))
    for f in (lattice_nuclear_trace, lattice_matrix):
        with pytest.raises(ValidationError):
            f(phase, euclid)
    for f in (torus_nuclear_trace, torus_matrix):
        with pytest.raises(ValidationError):
            f(phase, euclid)  # open spatial box
        with pytest.raises(ValidationError):
            f(phase, grid_freqs)  # frequencies not a window


def test_constant_symbol_traces_never_transform(monkeypatch):
    # a given symbol is traced as it stands: the lattice and torus traces
    # take no quadrature transform (``_dft``), whatever the phase, and
    # neither do the CLI runs that report them beside their matrices
    def no_transform(*args):
        raise AssertionError("a constant-symbol trace took a transform")

    monkeypatch.setattr(numerics, "_dft", no_transform)
    rng = np.random.default_rng(37)
    window, torus = LatticeWindow(2, 2), UniformGrid.torus(10, 2)
    for space, freq, trace in ((window, torus, lattice_nuclear_trace), (torus, window, torus_nuclear_trace)):
        a = SampledSymbol(space, freq, np.full((space.size, freq.size), 1.5 - 0.5j))
        for phase in phases(space.nodes, freq.nodes, rng):
            assert np.isfinite(trace(phase, a))
    symbol = {"symbol": {"family": "constant", "value": 2.0}}
    for cfg in (
        {"setting": "lattice", "dim": 1, "radius": 3, "xi_count": 14, "phase": {"kind": "linear"}, **symbol},
        {"setting": "torus", "dim": 2, "cutoff": 2, "x_count": 10, "phase": {"kind": "linear"}, **symbol},
    ):
        report, checks = run_scenario(cfg, "verify")
        assert np.isfinite(report.nuclear_trace) and all(value <= tol for _, value, tol in checks)
