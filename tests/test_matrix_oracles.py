"""The batched operator matrices against the loops they replaced.

``group_matrix`` sums two node contractions chunk by chunk and compensates
across the chunks, so it matches its per-entry oracle within
``GROUP_BOUND``, a few ulps of the entries. ``lattice._abelian_matrix`` (behind
``lattice_matrix`` and ``torus_matrix``) takes its off-diagonal entries from
one FFT per row, so they match the per-column oracle within
``FFT_BOUND * sum(w) * max|a|``; its diagonal is the same compensated row
sum as the oracle's and equals it bit for bit.
"""

import numpy as np
import pytest

from nucfio.errors import TruncationError
from nucfio.euclid import PhaseSpec
from nucfio.grids import LatticeWindow, SampledField, SampledSymbol, UniformGrid, ksum
from nucfio.group import (
    GroupPhase,
    GroupSymbol,
    class_i_mask,
    group_fio_apply,
    group_matrix,
    identity_phase,
    su2_haar_quadrature,
    su2_irrep_table,
    torus_matrix,
    torus_symbol_from_decomposition,
)
from nucfio.homog import ClassIIrrepTable, table_from_torus
from nucfio.lattice import lattice_matrix
from nucfio.nuclear import RankOneSequence
from nucfio.numerics import dft_forward


def per_entry_group_matrix(Phi, a):
    """One operator application per basis column, and each entry one
    compensated sum over the nodes in ascending order (the axis path, a
    column of entries per call)."""
    weights = a.domain.weights
    basis = []
    for label in a.labels:
        T = a.domain.irrep(label)[3]
        d = T.shape[1]
        basis += [np.sqrt(d) * T[:, i, j] for i in range(d) for j in range(d)]
    M = np.empty((len(basis), len(basis)), dtype=complex)
    for c, bc in enumerate(basis):
        Fc = group_fio_apply(Phi, a, bc)
        M[:, c] = ksum(np.stack([weights * np.conj(br) * Fc for br in basis], axis=1), axis=0)
    return M


def per_column_abelian_matrix(phi, a, rows, cols, w):
    """One kernel row and one ksum over the summed axis per column q."""
    wa = a * w[None, :]
    M = np.empty((rows.shape[0], rows.shape[0]), dtype=complex)
    for q in range(rows.shape[0]):
        kernel_q = 2.0 * np.pi * (rows[q] @ cols.T)
        M[:, q] = ksum(np.exp(1j * (phi - kernel_q[None, :])) * wa, axis=1)
    return M


# group_matrix against the per-entry oracle, absolute. The cases below differ
# by at most 9.3e-16 on entries up to 0.6; the identity symbol on the
# 8192-node rule differs by up to 8.4e-15 on the diagonal, where the
# oracle's uncompensated basis coefficients put it 7.7e-15 off 1.
GROUP_BOUND = 1e-14


def checked_group_matrix(Phi, a):
    """group_matrix(Phi, a), asserted within GROUP_BOUND of the oracle."""
    M = group_matrix(Phi, a)
    assert np.abs(M - per_entry_group_matrix(Phi, a)).max() <= GROUP_BOUND
    return M


# Off-diagonal FFT entries against the per-column sums, relative to the
# largest possible entry sum(w) * max|a|.
FFT_BOUND = 1e-13


def assert_matches_oracle(M, want, w, a):
    """The diagonal bit for bit, every other entry within the FFT bound."""
    assert np.array_equal(np.diag(M), np.diag(want))
    assert np.abs(M - want).max() <= FFT_BOUND * w.sum() * np.abs(a).max()


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def phases(rows, cols, rng):
    """The linear phase and a sampled perturbation of it, on (rows, cols)."""
    sampled = 2.0 * np.pi * (rows @ cols.T) + 0.3 * rng.standard_normal((rows.shape[0], cols.shape[0]))
    return [PhaseSpec.linear(), PhaseSpec("sampled", sampled)]


@pytest.fixture(scope="module")
def small_quad():
    return su2_haar_quadrature(6, 6, 12)


def test_group_matrix_matches_per_entry_loop(small_quad):
    # cutoff 3 carries 30 basis columns on 432 nodes, which no node chunk divides
    rng = np.random.default_rng(20)
    for cutoff, dim in ((2, 14), (3, 30)):
        labels = range(cutoff + 1)
        a = GroupSymbol(small_quad, {t: random_complex(rng, (small_quad.size, t + 1, t + 1)) for t in labels})
        near = {
            t: su2_irrep_table(small_quad, t) + 0.1 * rng.standard_normal((small_quad.size, t + 1, t + 1))
            for t in labels
        }
        for Phi in (identity_phase(small_quad, cutoff), GroupPhase(small_quad, near)):
            assert checked_group_matrix(Phi, a).shape == (dim, dim)


def test_group_matrix_matches_per_entry_loop_on_the_bench_rule():
    # the 8192-node rule of the su2 scenarios at cutoff 3: 128 node chunks
    quad = su2_haar_quadrature(16, 16, 32)
    rng = np.random.default_rng(27)
    labels = range(4)
    a = GroupSymbol(quad, {t: random_complex(rng, (quad.size, t + 1, t + 1)) for t in labels})
    near = {t: su2_irrep_table(quad, t) + 0.1 * rng.standard_normal((quad.size, t + 1, t + 1)) for t in labels}
    for Phi in (identity_phase(quad, 3), GroupPhase(quad, near)):
        assert checked_group_matrix(Phi, a).shape == (30, 30)


def test_group_matrix_on_a_class_i_table_matches_per_entry_loop(small_quad):
    # label 2 keeps a 2-dimensional invariant corner of its 3x3 blocks
    rng = np.random.default_rng(21)
    k_inv = {0: 1, 1: 2, 2: 2}
    table = ClassIIrrepTable(small_quad.weights, {t: su2_irrep_table(small_quad, t) for t in k_inv}, k_inv)
    Phi = GroupPhase(table, table.matrices)
    blocks = {t: class_i_mask(random_complex(rng, (table.size, t + 1, t + 1)), k) for t, k in k_inv.items()}
    a = GroupSymbol(table, blocks)
    checked_group_matrix(Phi, a)


def test_group_matrix_on_a_torus_table_matches_per_entry_loop():
    # the characters of T^2 up to cutoff 2 as 25 labels with 1x1 blocks
    rng = np.random.default_rng(26)
    table = table_from_torus(UniformGrid.torus(10, 2), 2)
    Phi = GroupPhase(table, table.matrices)
    a = GroupSymbol(table, {lab: random_complex(rng, (table.size, 1, 1)) for lab in table.labels})
    assert checked_group_matrix(Phi, a).shape == (25, 25)


@pytest.mark.parametrize(
    "dim, radius, xi_count",
    [(1, 4, 20), (2, 2, 12), (3, 1, 6), (2, 2, 13)],
    ids=["dim1", "dim2", "dim3", "odd"],
)
def test_lattice_matrix_matches_per_column_loop(dim, radius, xi_count):
    rng = np.random.default_rng(22 + dim)
    window, xi_grid = LatticeWindow(dim, radius), UniformGrid.torus(xi_count, dim)
    pts, xi = window.nodes, xi_grid.nodes
    shape = (window.size, xi_grid.size)
    for values in (np.ones(shape), random_complex(rng, shape)):
        a = SampledSymbol(window, xi_grid, values)
        for phase in phases(pts, xi, rng):
            want = per_column_abelian_matrix(phase.table(pts, xi), a.values, pts, xi, xi_grid.weights)
            assert_matches_oracle(lattice_matrix(phase, a), want, xi_grid.weights, values)


@pytest.mark.parametrize(
    "dim, cutoff, x_count",
    [(1, 5, 24), (2, 2, 10), (3, 1, 6), (1, 3, 15)],
    ids=["dim1", "dim2", "dim3", "odd"],
)
def test_torus_matrix_matches_per_column_loop(dim, cutoff, x_count):
    rng = np.random.default_rng(24 + dim)
    x_grid = UniformGrid.torus(x_count, dim)
    x, freqs = x_grid.nodes, LatticeWindow(dim, cutoff).nodes
    shape = (x_grid.size, freqs.shape[0])
    for values in (np.ones(shape), random_complex(rng, shape)):
        a = SampledSymbol(x_grid, LatticeWindow(dim, cutoff), values)
        for phase in phases(x, freqs, rng):
            M = per_column_abelian_matrix(phase.table(x, freqs).T, a.values.T, freqs, x, x_grid.weights)
            assert_matches_oracle(torus_matrix(phase, a), M.T, x_grid.weights, values)


def test_torus_entry_points_reject_an_aliasing_grid():
    # 5 x nodes per axis for the cutoff-3 cube: distinct l would read the same
    # FFT bin l mod 5, and the quadratures would not be exact; the symbol (so
    # no torus trace or matrix sees it), the transform, the synthesis and the
    # torus table refuse it, as the lattice does
    dim, cutoff, x_grid = 2, 3, UniformGrid.torus(5, 2)
    values = np.ones((x_grid.size, (2 * cutoff + 1) ** dim), dtype=complex)
    f = SampledField(x_grid, np.ones(x_grid.size, dtype=complex))
    d = RankOneSequence(((f, f),), 2.0, 2.0, 1.0)
    calls = [
        lambda: SampledSymbol(x_grid, LatticeWindow(dim, cutoff), values),
        lambda: dft_forward(f, LatticeWindow(dim, cutoff)),
        lambda: torus_symbol_from_decomposition(PhaseSpec.linear(), d, cutoff, x_grid),
        lambda: table_from_torus(x_grid, cutoff),
    ]
    for call in calls:
        with pytest.raises(TruncationError, match="x_count = 5 below the exactness threshold 14"):
            call()
