"""Property test: the abelian trace of a synthesized symbol is the kernel
diagonal trace on R^1, Z^1 and T^1, and on R^2 and T^2.

One body traces all three settings; each entry point must recover
sum_x w(x) sum_k h_k(x) g_k(x) from the symbol it synthesizes, within the
tolerances the per-setting tests state (1e-10 on R^n and Z^n, 1e-12 on the
torus). The R^2 and T^2 grids are dyadic, so their character tables are
gathered from roots of unity at an index summed over both axes.
"""

import numpy as np
import pytest

from nucfio.euclid import PhaseSpec, nuclear_trace_euclid, symbol_from_decomposition
from nucfio.grids import LatticeWindow, SampledField, UniformGrid
from nucfio.group import torus_nuclear_trace, torus_symbol_from_decomposition
from nucfio.lattice import lattice_nuclear_trace, lattice_symbol_from_decomposition
from nucfio.nuclear import RankOneSequence, delgado_trace

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_RANKS = st.integers(min_value=1, max_value=4)


def _decomposition(make_factor, rank: int) -> RankOneSequence:
    return RankOneSequence(tuple((make_factor(), make_factor()) for _ in range(rank)), 2.0, 2.0, 1.0)


def _complex(rng, size=None):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@_SETTINGS
@given(_SEEDS, _RANKS)
def test_euclid_trace_is_the_kernel_diagonal_trace(seed, rank):
    rng = np.random.default_rng(seed)
    grid = UniformGrid.box(-6.0, 6.0, 257, 1)
    x = grid.nodes[:, 0]

    def gaussian():
        center, width = rng.uniform(-1.0, 1.0), rng.uniform(0.8, 1.4)
        return SampledField(grid, _complex(rng) * np.exp(-np.pi * ((x - center) / width) ** 2))

    d = _decomposition(gaussian, rank)
    phase = PhaseSpec.linear()
    got = nuclear_trace_euclid(phase, symbol_from_decomposition(phase, d))
    assert got == pytest.approx(delgado_trace(d), abs=1e-10)


@_SETTINGS
@given(_SEEDS, _RANKS, st.integers(min_value=0, max_value=5))
def test_lattice_trace_is_the_kernel_diagonal_trace(seed, rank, radius):
    rng = np.random.default_rng(seed)
    window = LatticeWindow(1, radius)
    d = _decomposition(lambda: SampledField(window, _complex(rng, window.size)), rank)
    phase = PhaseSpec.linear()
    xi_grid = UniformGrid.torus(window.min_xi_count(), 1)
    got = lattice_nuclear_trace(phase, lattice_symbol_from_decomposition(phase, d, xi_grid))
    assert got == pytest.approx(delgado_trace(d), abs=1e-10)


@_SETTINGS
@given(_SEEDS, _RANKS, st.integers(min_value=0, max_value=3))
def test_torus_trace_is_the_kernel_diagonal_trace(seed, rank, cutoff):
    # factors of degree <= cutoff on 4 * cutoff + 2 nodes: every quadrature is exact
    rng = np.random.default_rng(seed)
    circle = UniformGrid.torus(4 * cutoff + 2, 1)
    modes = np.exp(2j * np.pi * np.outer(circle.nodes[:, 0], np.arange(-cutoff, cutoff + 1)))

    def trigpoly():
        return SampledField(circle, modes @ (0.5 * _complex(rng, 2 * cutoff + 1)))

    d = _decomposition(trigpoly, rank)
    phase = PhaseSpec.linear()
    got = torus_nuclear_trace(phase, torus_symbol_from_decomposition(phase, d, cutoff, circle))
    assert got == pytest.approx(delgado_trace(d), abs=1e-12)


@_SETTINGS
@given(_SEEDS, _RANKS)
def test_euclid_dim_two_trace_is_the_kernel_diagonal_trace(seed, rank):
    # spacing 1/4 on [-4, 4]^2; the frequency box [-2, 2]^2 is one period of
    # that spacing, so the trapezoid sum over it resolves x - y to the lattice
    # 4 Z^2, and these Gaussians are below 1e-16 at distance 3
    rng = np.random.default_rng(seed)
    grid, xi_grid = UniformGrid.box(-4.0, 4.0, 33, 2), UniformGrid.box(-2.0, 2.0, 17, 2)
    x = grid.nodes

    def gaussian():
        center, width = rng.uniform(-0.5, 0.5, 2), rng.uniform(0.4, 0.6)
        return SampledField(grid, _complex(rng) * np.exp(-np.pi * np.sum((x - center) ** 2, axis=1) / width**2))

    d = _decomposition(gaussian, rank)
    phase = PhaseSpec.linear()
    got = nuclear_trace_euclid(phase, symbol_from_decomposition(phase, d, xi_grid))
    assert got == pytest.approx(delgado_trace(d), abs=1e-10)


@_SETTINGS
@given(_SEEDS, _RANKS, st.integers(min_value=0, max_value=3))
def test_torus_dim_two_trace_is_the_kernel_diagonal_trace(seed, rank, cutoff):
    # factors of degree <= cutoff per axis on 16 x 16 nodes: every quadrature is exact
    rng = np.random.default_rng(seed)
    torus = UniformGrid.torus(16, 2)
    freqs = LatticeWindow(2, cutoff).nodes
    modes = np.exp(2j * np.pi * (torus.nodes @ freqs.T))

    def trigpoly():
        return SampledField(torus, modes @ (0.5 * _complex(rng, freqs.shape[0])))

    d = _decomposition(trigpoly, rank)
    phase = PhaseSpec.linear()
    got = torus_nuclear_trace(phase, torus_symbol_from_decomposition(phase, d, cutoff, torus))
    assert got == pytest.approx(delgado_trace(d), abs=1e-12)
