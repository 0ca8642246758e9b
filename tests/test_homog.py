import itertools

import numpy as np
import pytest

from nucfio.errors import DomainError, GridMismatchError, ShapeError, ValidationError
from nucfio.grids import LatticeWindow, SampledField, SampledSymbol, UniformGrid, ksum
from nucfio.euclid import PhaseSpec
from nucfio.group import (
    GroupPhase,
    GroupSymbol,
    class_i_mask,
    group_fio_apply,
    group_fourier,
    group_matrix,
    group_nuclear_trace,
    group_symbol_from_decomposition,
    identity_phase,
    su2_haar_quadrature,
    su2_irrep_table,
    torus_nuclear_trace,
)
from nucfio.homog import (
    ClassIIrrepTable,
    dual_lp_norm,
    homog_mixed_norm,
    homog_nuclear_trace,
    su3_dim,
    su3_fundamental_batch,
    su3_haar_quadrature,
    su3_mass,
    su3_schur_error,
    table_from_su2,
    table_from_torus,
)
from nucfio.nuclear import RankOneSequence
from nucfio.numerics import matrix_trace


@pytest.fixture(scope="module")
def quad():
    return su2_haar_quadrature(16, 16, 32)


@pytest.fixture(scope="module")
def table(quad):
    return table_from_su2(quad, 2)


def on_domain(domain, pairs):
    """The rank-one decomposition with factor values ``pairs`` as fields on ``domain``."""
    terms = tuple((SampledField(domain, h), SampledField(domain, g)) for h, g in pairs)
    return RankOneSequence(terms, 2.0, 2.0, 1.0)


def bandlimited(quad, rng, cutoff=2):
    vals = np.zeros(quad.size, dtype=complex)
    for twoL in range(cutoff + 1):
        T = su2_irrep_table(quad, twoL)
        d = twoL + 1
        C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        vals += np.sqrt(d) * np.einsum("nij,ij->n", T, C)
    return vals


def test_mask_zeroes_beyond_invariant_count():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    m = class_i_mask(B, 1)
    assert np.all(m[:, 1:, :] == 0.0)
    assert np.all(m[:, :, 1:] == 0.0)
    assert np.array_equal(m[:, :1, :1], B[:, :1, :1])
    # [TRIVIAL] idempotent, and the input is untouched
    assert np.array_equal(class_i_mask(m, 1), m)
    assert not np.array_equal(m, B)
    with pytest.raises(ShapeError, match="square trailing dims"):
        class_i_mask(B[:, :2, :], 1)
    with pytest.raises(DomainError, match=r"k = 4 outside \[1, 3\]"):
        class_i_mask(B, 4)


def test_symbol_rejects_support_outside_mask(table, quad):
    blocks = {
        t: np.broadcast_to(np.eye(t + 1, dtype=complex), (quad.size, t + 1, t + 1)).copy()
        for t in table.labels
    }
    blocks[2][:, 2, 2] = 0.0
    blocks[2][0, 2, 0] = 1e-30  # any nonzero value below k rows is illegal once k < dim
    small = ClassIIrrepTable(quad.weights, table.matrices, {0: 1, 1: 2, 2: 2})
    with pytest.raises(ValidationError):
        GroupSymbol(small, blocks)


def test_singular_homog_phase_is_condition_error(table, quad):
    from nucfio.errors import ConditionError

    blocks = {t: M.copy() for t, M in table.matrices.items()}
    blocks[1][5] = 0.0  # one singular node
    with pytest.raises(ConditionError) as err:
        GroupPhase(table, blocks)
    assert str(err.value) == "phase block 1 is singular at node 5"


def test_table_phase_needs_no_svd(table, monkeypatch):
    # the table's matrices are unitary, so their Gram certificate passes them
    def refuse(*args, **kwargs):
        raise AssertionError("a unitary phase table reached the SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert GroupPhase(table, table.matrices).labels == [0, 1, 2]


def test_table_validation(quad):
    T = su2_irrep_table(quad, 1)
    with pytest.raises(DomainError):
        ClassIIrrepTable(quad.weights, {1: T}, {1: 0})
    with pytest.raises(DomainError):
        ClassIIrrepTable(quad.weights, {1: T}, {1: 3})
    with pytest.raises(ValidationError):
        ClassIIrrepTable(quad.weights, {1: 1.7 * T}, {1: 2})  # not unitary
    with pytest.raises(ShapeError):
        ClassIIrrepTable(quad.weights, {1: T[1:]}, {1: 2})  # one node short
    with pytest.raises(ValidationError):
        ClassIIrrepTable(quad.weights, {1: T}, {2: 2})  # labels disagree
    with pytest.raises(ValidationError):
        ClassIIrrepTable(quad.weights, {}, {})
    with pytest.raises(ValidationError):
        ClassIIrrepTable(2.0 * quad.weights, {1: T}, {1: 2})  # weights sum to 2


def test_degeneration_matches_group_bitwise(quad, table):
    # trivial subgroup: the restricted trace must equal the group trace
    # bit for bit, both routes sharing one reduction kernel
    blocks_a = {
        t: np.broadcast_to(np.eye(t + 1, dtype=complex), (quad.size, t + 1, t + 1)).copy()
        for t in table.labels
    }
    th = homog_nuclear_trace(GroupPhase(table, table.matrices), GroupSymbol(table, blocks_a))
    tg = group_nuclear_trace(identity_phase(quad, 2), GroupSymbol(quad, blocks_a))
    assert th == tg


def test_degeneration_synthesis_and_apply(quad, table):
    # the same factor values as fields on the table and on the quadrature
    rng = np.random.default_rng(3)
    pairs = [(bandlimited(quad, rng), bandlimited(quad, rng)) for _ in range(2)]
    Phi_h = GroupPhase(table, table.matrices)
    a_h = group_symbol_from_decomposition(Phi_h, on_domain(table, pairs))
    Phi_g = identity_phase(quad, 2)
    a_g = group_symbol_from_decomposition(Phi_g, on_domain(quad, pairs))
    assert homog_nuclear_trace(Phi_h, a_h) == group_nuclear_trace(Phi_g, a_g)
    f = bandlimited(quad, rng)
    out_h = group_fio_apply(Phi_h, a_h, f)
    out_g = group_fio_apply(Phi_g, a_g, f)
    assert np.array_equal(out_h, out_g)


def test_synthesis_on_a_table_with_a_smaller_invariant_corner(quad, table):
    # label 2 keeps a 2 x 2 corner of its 3 x 3 blocks, so the mask drops entries
    k_inv = {0: 1, 1: 2, 2: 2}
    small = ClassIIrrepTable(quad.weights, table.matrices, k_inv)
    rng = np.random.default_rng(4)
    pairs = [(bandlimited(quad, rng), bandlimited(quad, rng)) for _ in range(2)]
    Phi = GroupPhase(small, small.matrices)
    a = group_symbol_from_decomposition(Phi, on_domain(small, pairs))
    full = group_symbol_from_decomposition(GroupPhase(table, table.matrices), on_domain(table, pairs))
    assert np.abs(full.blocks[2][:, 2, :]).max() > 0.1
    for t, k in k_inv.items():
        assert np.array_equal(a.blocks[t], class_i_mask(full.blocks[t], k))
    assert group_nuclear_trace(Phi, a) == pytest.approx(matrix_trace(group_matrix(Phi, a)), abs=1e-9)
    # factors on the quadrature have the table's size and weights, but not its domain
    with pytest.raises(GridMismatchError):
        group_symbol_from_decomposition(Phi, on_domain(quad, pairs))


def test_torus_degeneration():
    x_grid = UniformGrid.torus(32, 1)
    cutoff = 2
    tab = table_from_torus(x_grid, cutoff)
    blocks_a = {lab: np.ones((x_grid.size, 1, 1), dtype=complex) for lab in tab.labels}
    th = homog_nuclear_trace(GroupPhase(tab, tab.matrices), GroupSymbol(tab, blocks_a))
    n_freq = LatticeWindow(1, cutoff).nodes.shape[0]
    a_t = SampledSymbol(x_grid, LatticeWindow(1, cutoff), np.ones((x_grid.size, n_freq), dtype=complex))
    tt = torus_nuclear_trace(PhaseSpec.linear(), a_t)
    assert th == tt


def test_dual_lp_norm_closed_form(quad, table):
    # one unit HS mass on the twoL = 1 label: d = 2, k = 2
    coeffs = {1: np.eye(2, dtype=complex) / np.sqrt(2.0)}
    # [DERIVED] p = 2 kills the k-power: norm = sqrt(d) = sqrt(2)
    assert dual_lp_norm(coeffs, table, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    # [DERIVED] p = 1: d * k^(1/2) * ||.||_HS = 2 * sqrt(2) * 1
    assert dual_lp_norm(coeffs, table, 1.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_homog_mixed_norm_identity(quad, table):
    blocks = {
        t: np.broadcast_to(np.eye(t + 1, dtype=complex), (quad.size, t + 1, t + 1)).copy()
        for t in table.labels
    }
    a = GroupSymbol(table, blocks)
    # [DERIVED] p1 = p2 = 2: sum_t d_t * ||I_d||_HS^2 = 1 + 2*2 + 3*3 = 14
    assert homog_mixed_norm(a, 2.0, 2.0) == pytest.approx(np.sqrt(14.0), rel=1e-12)


def test_homog_fourier_matches_group(quad, table):
    rng = np.random.default_rng(5)
    f = bandlimited(quad, rng)
    for t in table.labels:
        assert np.array_equal(group_fourier(f, table, t), group_fourier(f, quad, t))


# -- su3 ----------------------------------------------------------------------


def test_su3_dims():
    # [PAPER] dim(a, b) = (a + 1)(b + 1)(a + b + 2) / 2
    assert su3_dim(0, 0) == 1
    assert su3_dim(1, 0) == 3
    assert su3_dim(1, 1) == 8
    assert su3_dim(3, 0) == 10


def test_su3_fundamental_is_special_unitary():
    rng = np.random.default_rng(6)
    ang = np.empty((2000, 8))
    ang[:, :3] = rng.uniform(0.0, np.pi / 2.0, (2000, 3))
    ang[:, 3:] = rng.uniform(0.0, 2.0 * np.pi, (2000, 5))
    U = su3_fundamental_batch(ang)
    assert np.abs(np.einsum("nij,nkj->nik", U, U.conj()) - np.eye(3)).max() < 1e-12
    assert np.abs(np.linalg.det(U) - 1.0).max() < 1e-12


def test_su3_single_sample_matches_batch():
    ang = (0.3, 0.7, 1.1, 0.2, 2.9, 4.1, 5.0, 0.6)
    U = su3_fundamental_batch(ang)[0]
    Ub = su3_fundamental_batch(np.array([ang]))[0]
    assert np.array_equal(U, Ub)


def test_su3_angle_validation():
    with pytest.raises(DomainError):
        su3_fundamental_batch([2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # theta beyond pi/2


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_su3_negative_theta_rejected(axis):
    angles = [0.3, 0.3, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0]
    angles[axis] = -0.1
    with pytest.raises(DomainError):
        su3_fundamental_batch(angles)[0]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: su3_fundamental_batch(np.zeros((2, 7))), ShapeError, r"need 8 angles per row, got shape \(2, 7\)"),
        (
            lambda: su3_fundamental_batch([0.3, 0.3, 0.3, 0.0, 0.0, 0.0, 0.0, 6.3]),
            DomainError,
            r"phi angles must lie in \[0, 2\*pi\]",
        ),
        (
            lambda: table_from_torus(UniformGrid.torus(8, 1), 1).irrep((5,)),
            ValidationError,
            r"block label \(5,\) is not in the irrep table",
        ),
    ],
    ids=["su3_seven_angles", "su3_phi_above_2pi", "unknown_table_label"],
)
def test_angles_and_labels_outside_their_range_are_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_su3_haar_mass_and_schur():
    # the runner uses resolution 16; the rule is exact already at 8
    quad = su3_haar_quadrature(8, 5)
    assert abs(su3_mass(quad) - 1.0) < 1e-10
    assert su3_schur_error(quad) < 1e-6


@pytest.mark.parametrize("resolution, phi_count", [(8, 5), (2, 3)])
def test_su3_rule_is_exact_for_the_schur_products(resolution, phi_count):
    # [DERIVED] in x = cos(2 theta) the densities sin cos^3 and sin cos are
    # (1+x)/8 and 1/4, so Gauss-Legendre in x integrates the fundamental Schur
    # products exactly; Gauss-Legendre in theta read 9.5e-9 at (8, 5), 0.16 at (2, 3)
    quad = su3_haar_quadrature(resolution, phi_count)
    assert su3_schur_error(quad) <= 1e-14
    assert abs(su3_mass(quad) - 1.0) <= 1e-14


# -- su3 oracles: the closed-form entries and the full-grid sweep ---------------


def closed_form_fundamental(P):
    """The fundamental matrices written out entry by entry."""
    t1, t2, t3 = P[:, 0], P[:, 1], P[:, 2]
    f1, f2, f3, f4, f5 = P[:, 3], P[:, 4], P[:, 5], P[:, 6], P[:, 7]
    c1, c2, c3 = np.cos(t1), np.cos(t2), np.cos(t3)
    s1, s2, s3 = np.sin(t1), np.sin(t2), np.sin(t3)
    e = lambda x: np.exp(1j * x)
    U = np.empty((P.shape[0], 3, 3), dtype=complex)
    U[:, 0, 0] = c1 * c2 * e(f1)
    U[:, 0, 1] = s1 * e(f3)
    U[:, 0, 2] = c1 * s2 * e(f4)
    U[:, 1, 0] = s2 * s3 * e(-f4 - f5) - s1 * c2 * c3 * e(f1 + f2 - f3)
    U[:, 1, 1] = c1 * c3 * e(f2)
    U[:, 1, 2] = -c2 * s3 * e(-f1 - f5) - s1 * s2 * c3 * e(f2 - f3 + f4)
    U[:, 2, 0] = -s1 * c2 * s3 * e(f1 - f3 + f5) - s2 * c3 * e(-f2 - f4)
    U[:, 2, 1] = c1 * s3 * e(f5)
    U[:, 2, 2] = c2 * c3 * e(-f1 - f2) - s1 * s2 * s3 * e(-f3 + f4 + f5)
    return U


def grid_chunks(quad):
    """(params (m, 8), weights (m,)) blocks covering the full product grid:
    one block per phi-node combination, each the whole theta box."""
    T1, T2, T3 = np.meshgrid(*quad.theta_nodes, indexing="ij")
    w1, w2, w3 = quad.theta_weights
    wt = (w1[:, None, None] * w2[None, :, None] * w3[None, None, :]).reshape(-1)
    block = np.empty((wt.shape[0], 8))
    block[:, 0], block[:, 1], block[:, 2] = T1.reshape(-1), T2.reshape(-1), T3.reshape(-1)
    for combo in itertools.product(*(range(ax.shape[0]) for ax in quad.phi_nodes)):
        wphi = 1.0
        for ax, (nodes, weights) in enumerate(zip(quad.phi_nodes, quad.phi_weights)):
            block[:, 3 + ax] = nodes[combo[ax]]
            wphi *= weights[combo[ax]]
        yield block.copy(), wt * wphi


def brute_mass(quad):
    return float(ksum(np.asarray([float(ksum(w)) for _, w in grid_chunks(quad)])))


def brute_schur_error(quad):
    G = np.zeros((3, 3, 3, 3), dtype=complex)
    for params, w in grid_chunks(quad):
        U = closed_form_fundamental(params)
        G += np.einsum("n,nij,nkl->ijkl", w, U, U.conj())
    target = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3)) / 3.0
    return float(np.abs(G - target).max())


def test_su3_term_table_matches_the_closed_form():
    rng = np.random.default_rng(8)
    ang = np.empty((1000, 8))
    ang[:, :3] = rng.uniform(0.0, np.pi / 2.0, (1000, 3))
    ang[:, 3:] = rng.uniform(0.0, 2.0 * np.pi, (1000, 5))
    corners = np.array(
        [list(t) + list(f) for t in itertools.product((0.0, np.pi / 2.0), repeat=3)
         for f in itertools.product((0.0, 2.0 * np.pi), repeat=5)]
    )
    for P in (ang, corners):
        assert np.abs(su3_fundamental_batch(P) - closed_form_fundamental(P)).max() < 1e-14


@pytest.mark.parametrize("resolution, phi_count", [(4, 3), (5, 3)])
def test_su3_factorized_checks_match_the_grid_sweep(resolution, phi_count):
    # the factorized sums reorder the product-rule sum over every node, so
    # they match the brute-force sweep of the same rule to roundoff
    quad = su3_haar_quadrature(resolution, phi_count)
    assert abs(su3_mass(quad) - brute_mass(quad)) < 1e-14
    assert abs(su3_schur_error(quad) - brute_schur_error(quad)) < 1e-14
