import numpy as np
import pytest

from nucfio.errors import DomainError, GridMismatchError, ShapeError, ValidationError
from nucfio.euclid import PhaseSpec, fio_apply
from nucfio.grids import LatticeWindow, SampledField, SampledSymbol, UniformGrid
from nucfio.lattice import (
    lattice_matrix,
    lattice_nuclear_trace,
    lattice_symbol_from_decomposition,
)
from nucfio.nuclear import RankOneSequence, r_quasinorm_bound
from nucfio.numerics import dense_eigenvalues, dft_forward, lp_norm, matrix_trace, mixed_norm


@pytest.fixture
def setup():
    w = LatticeWindow(1, 4)
    xi = UniformGrid.torus(32, 1)
    return w, xi, PhaseSpec.linear()


def random_rank_one(w, rng, terms=3):
    pairs = tuple(
        (
            SampledField(w, rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)),
            SampledField(w, rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)),
        )
        for _ in range(terms)
    )
    return RankOneSequence(pairs, 2.0, 2.0, 1.0)


def test_window_enumeration():
    w = LatticeWindow(2, 1)
    assert w.size == 9 and w.nodes.shape == (9, 2)
    # [TRIVIAL] lexicographic, first axis slowest
    assert np.array_equal(w.nodes[0], [-1.0, -1.0])
    assert np.array_equal(w.nodes[-1], [1.0, 1.0])
    assert w.min_xi_count() == 6
    with pytest.raises(DomainError):
        LatticeWindow(0, 1)


@pytest.mark.parametrize("dim, radius", [(1, 2.5), (1.0, 2), (True, 2), (1, 3.0)])
def test_window_rejects_non_integers(dim, radius):
    # values are never coerced: radius 2.5 would give side 6.0, and the
    # torus cutoff 2.7 would truncate to radius 2
    with pytest.raises(ValidationError, match="must be an integer"):
        LatticeWindow(dim, radius)
    with pytest.raises(ValidationError, match="must be an integer"):
        LatticeWindow(dim, radius).nodes


def test_xi_grid_must_be_periodic_unit(setup):
    w, _, _ = setup
    with pytest.raises(ValidationError):
        SampledSymbol(w, UniformGrid.box(0.0, 1.0, 32, 1), np.ones((9, 32), dtype=complex))


def test_dft_of_delta_is_character(setup):
    w, xi, _ = setup
    f = np.zeros(w.size, dtype=complex)
    f[w.size // 2] = 1.0  # the origin of the window
    fhat = dft_forward(SampledField(w, f), xi)
    # [DERIVED] delta at m = 0 transforms to the constant 1
    assert np.abs(fhat.values - 1.0).max() < 1e-14


def test_identity_trace_is_window_cardinality(setup):
    w, xi, phase = setup
    a = SampledSymbol(w, xi, np.ones((w.size, xi.size), dtype=complex))
    # [DERIVED] constant symbol 1 with the linear phase is the identity on
    # the window: trace = 2N + 1 exactly, by dyadic quadrature cancellation
    assert lattice_nuclear_trace(phase, a) == 9.0 + 0.0j
    M = lattice_matrix(phase, a)
    assert np.array_equal(np.diag(M), np.ones(9, dtype=complex))
    assert np.abs(M - np.eye(9)).max() < 1e-14


def test_synthesis_reproduces_sequence_action(setup):
    w, xi, phase = setup
    rng = np.random.default_rng(5)
    d = random_rank_one(w, rng)
    a = lattice_symbol_from_decomposition(phase, d, xi)
    f = SampledField(w, rng.standard_normal(w.size) + 0j)
    got = fio_apply(phase, a, f)
    want = np.zeros(w.size, dtype=complex)
    for h, g in d.terms:
        want += h.values * (g.values * f.values).sum()
    assert np.abs(got.values - want).max() < 1e-10


def test_trace_equals_diagonal_pairing(setup):
    w, xi, phase = setup
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = random_rank_one(w, rng)
        a = lattice_symbol_from_decomposition(phase, d, xi)
        want = sum((h.values * g.values).sum() for h, g in d.terms)
        tr = lattice_nuclear_trace(phase, a)
        assert tr == pytest.approx(want, abs=1e-10)
        M = lattice_matrix(phase, a)
        assert matrix_trace(M) == pytest.approx(want, abs=1e-10)
        assert dense_eigenvalues(M).sum() == pytest.approx(want, abs=1e-10)


def test_undersampled_xi_grid_rejected(setup):
    w, _, phase = setup
    small = UniformGrid.torus(8, 1)  # below 2 * (2N + 1) = 18
    rng = np.random.default_rng(7)
    d = random_rank_one(w, rng)
    with pytest.raises(ValidationError):
        lattice_symbol_from_decomposition(phase, d, small)


def test_lp_norm_is_unweighted(setup):
    w, _, _ = setup
    f = SampledField(w, np.full(w.size, 2.0 + 0.0j))
    # [TRIVIAL] ell^2 over 9 points of the constant 2
    assert lp_norm(f, 2.0) == pytest.approx(6.0)
    assert lp_norm(f, np.inf) == pytest.approx(2.0)


def test_mixed_norms_for_separable_symbol(setup):
    w, xi, _ = setup
    u = np.arange(1.0, 10.0)
    v = np.cos(2.0 * np.pi * xi.nodes[:, 0]) + 2.0
    a = SampledSymbol(w, xi, np.outer(u, v).astype(complex))
    nf, xf = mixed_norm(a, "x", 2.0, 2.0), mixed_norm(a, "xi", 2.0, 2.0)
    # [DERIVED] separable symbols factor into ell^2 x L^2 norms
    want = np.sqrt((u**2).sum()) * np.sqrt((xi.weights * v**2).sum())
    assert nf == pytest.approx(want, rel=1e-12)
    assert xf == pytest.approx(want, rel=1e-12)


def test_quasinorm_closed_form(setup):
    w, _, _ = setup
    h = SampledField(w, np.ones(w.size, dtype=complex))
    d = RankOneSequence(((h, h),), 2.0, 2.0, 1.0)
    # [DERIVED] ||1||_2 * ||1||_2 over 9 points = 9
    assert r_quasinorm_bound(d) == pytest.approx(9.0)
    d_sup = RankOneSequence(((h, h),), 1.0, 2.0, 1.0)
    # p1 = 1 pairs the g factor with the sup norm
    assert r_quasinorm_bound(d_sup) == pytest.approx(3.0)


def test_decomposition_factors_share_the_window(setup):
    w, xi, phase = setup
    h = SampledField(w, np.ones(w.size))
    g = SampledField(LatticeWindow(1, 3), np.ones(7))
    with pytest.raises(GridMismatchError):
        lattice_symbol_from_decomposition(phase, RankOneSequence(((h, g),), 2.0, 2.0, 1.0), xi)


def test_sequence_shape_validation(setup):
    w, _, _ = setup
    with pytest.raises(ShapeError):
        SampledField(w, np.ones(4))


@pytest.mark.parametrize("xi_count", [14, 21, 22, 42, 82])
def test_identity_is_exact_at_any_xi_count(xi_count):
    # fft(full(N, 1/N))[0] != 1 at N = 14, 21, 42 and 82: the matrix diagonal
    # comes from the trace kernel's row sums, not from the FFT's DC bin
    radius = (xi_count // 2 - 1) // 2  # the largest with 2 * (2 * radius + 1) <= xi_count
    w, xi = LatticeWindow(1, radius), UniformGrid.torus(xi_count, 1)
    phase = PhaseSpec.linear()
    a = SampledSymbol(w, xi, np.ones((w.size, xi.size), dtype=complex))
    M = lattice_matrix(phase, a)
    assert np.array_equal(np.diag(M), np.ones(w.size, dtype=complex))
    assert lattice_nuclear_trace(phase, a) == complex(w.size)
    assert matrix_trace(M) == complex(w.size)
    assert abs(dense_eigenvalues(M).sum() - w.size) < 1e-12


def test_sampled_phase_is_density_checked_on_apply():
    # 2*pi*n*xi tabulated on 20 xi nodes advances 2*pi*4/20 = 1.26 rad per node
    # at n = 4, above the 2*pi/8 bound; half of it (0.63 rad) passes, and the
    # linear phase, which is exact, is not checked
    w, xi = LatticeWindow(1, 4), UniformGrid.torus(20, 1)
    a = SampledSymbol(w, xi, np.ones((w.size, xi.size), dtype=complex))
    f = SampledField(w, np.ones(w.size))
    table = 2.0 * np.pi * (w.nodes @ xi.nodes.T)
    with pytest.raises(ValidationError, match="1.257 rad per node step on axis 1"):
        fio_apply(PhaseSpec("sampled", table), a, f)
    fio_apply(PhaseSpec("sampled", 0.5 * table), a, f)
    fio_apply(PhaseSpec.linear(), a, f)
