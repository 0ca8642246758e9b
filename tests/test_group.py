import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from nucfio.errors import ConditionError, DomainError, ShapeError, ValidationError
from nucfio.euclid import PhaseSpec, fio_apply
from nucfio.grids import LatticeWindow, SampledField, SampledSymbol, UniformGrid, ksum
import nucfio.group as group
from nucfio.group import (
    _euler_angles,
    _jy_eig,
    _leggauss_ab,
    GroupPhase,
    GroupQuadrature,
    GroupSymbol,
    euler_from_su2,
    group_fio_apply,
    group_matrix,
    group_nuclear_trace,
    group_symbol_from_decomposition,
    identity_phase,
    s3_quadrature,
    s3_raw_mass,
    s3_su2_points,
    group_fourier,
    su2_haar_quadrature,
    su2_irrep_table,
    su2_schur_error,
    torus_matrix,
    torus_nuclear_trace,
    torus_symbol_from_decomposition,
    wigner_matrix,
    _wigner_matrices,
)
from nucfio.homog import table_from_su2
from nucfio.nuclear import RankOneSequence, delgado_trace
from nucfio.numerics import dense_eigenvalues, dft_forward, dft_inverse, matrix_trace


@pytest.fixture(scope="module")
def quad():
    return su2_haar_quadrature(16, 16, 32)


def bandlimited(quad, rng, cutoff=2):
    vals = np.zeros(quad.size, dtype=complex)
    for twoL in range(cutoff + 1):
        T = su2_irrep_table(quad, twoL)
        d = twoL + 1
        C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        vals += np.sqrt(d) * np.einsum("nij,ij->n", T, C)
    return vals


def identity_symbol(quad, cutoff):
    blocks = {
        t: np.broadcast_to(np.eye(t + 1, dtype=complex), (quad.size, t + 1, t + 1)).copy()
        for t in range(cutoff + 1)
    }
    return GroupSymbol(quad, blocks)


def test_wigner_matrix_spin_half_closed_form():
    # [DERIVED] standard 2x2 rotation block in the descending-m basis
    a, b, g = 0.7, 1.1, 2.3
    c, s = np.cos(b / 2.0), np.sin(b / 2.0)
    want = np.array(
        [
            [np.exp(-0.5j * (a + g)) * c, -np.exp(-0.5j * (a - g)) * s],
            [np.exp(0.5j * (a - g)) * s, np.exp(0.5j * (a + g)) * c],
        ]
    )
    assert np.abs(wigner_matrix(1, a, b, g) - want).max() < 1e-14


def test_wigner_matrix_trivial_rep():
    assert np.array_equal(wigner_matrix(0, 1.0, 2.0, 3.0), np.ones((1, 1), dtype=complex))


def test_wigner_matrix_unitary_all_spins():
    for twoL in range(5):
        D = wigner_matrix(twoL, 1.9, 0.8, 5.3)
        assert np.abs(D @ D.conj().T - np.eye(twoL + 1)).max() < 1e-13


def test_wigner_matrix_is_a_one_node_irrep_table():
    # one d^l(beta) formula and one product order: D^l at any angles has the
    # bits of the table of a quadrature whose one node they are, and of its
    # row in a batch over several angle triples (haar-check's composition
    # check)
    rows = np.array([(0.7, 1.1, 2.3), (1.9, 0.8, 5.3), (0.0, np.pi, 4.0 * np.pi - 1e-3), (6.1, 0.05, 0.4)])
    for twoL in range(6):
        batch = _wigner_matrices(twoL, rows)
        for angles, D in zip(rows, batch):
            quad = GroupQuadrature("su2-euler", angles[None], np.ones(1))
            assert np.array_equal(wigner_matrix(twoL, *angles), su2_irrep_table(quad, twoL)[0])
            assert np.array_equal(D, wigner_matrix(twoL, *angles))


def test_composition_property():
    e1, e2 = (0.7, 0.9, 1.3), (2.1, 2.4, 3.7)
    U12 = wigner_matrix(1, *e1) @ wigner_matrix(1, *e2)
    e12 = euler_from_su2(U12)
    for twoL in range(5):
        got = wigner_matrix(twoL, *e12)
        want = wigner_matrix(twoL, *e1) @ wigner_matrix(twoL, *e2)
        assert np.abs(got - want).max() < 1e-12


def test_euler_inversion_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        U = np.array(
            [
                [q[0] + 1j * q[1], q[2] + 1j * q[3]],
                [-q[2] + 1j * q[3], q[0] - 1j * q[1]],
            ]
        )
        a, b, g = euler_from_su2(U)
        assert np.abs(wigner_matrix(1, a, b, g) - U).max() < 1e-10
        assert 0.0 <= a < 2.0 * np.pi + 1e-12
        assert 0.0 <= b <= np.pi + 1e-12
        assert 0.0 <= g < 4.0 * np.pi + 1e-12


@pytest.mark.parametrize("beta", [0.0, 1e-13, 1e-11, np.pi - 1e-11, np.pi - 1e-13, np.pi])
def test_euler_inversion_near_the_poles(beta):
    # at beta ~ 0 or pi only alpha + gamma or alpha - gamma is defined; the
    # recovered angles must still give the same element in every spin
    rng = np.random.default_rng(int(beta * 1e3) + 11)
    for _ in range(20):
        alpha, gamma = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, 4.0 * np.pi)
        a, b, g = euler_from_su2(wigner_matrix(1, alpha, beta, gamma))
        assert 0.0 <= a < 2.0 * np.pi and 0.0 <= b <= np.pi and 0.0 <= g < 4.0 * np.pi
        for twoL in (1, 2, 3):
            want = wigner_matrix(twoL, alpha, beta, gamma)
            assert np.abs(wigner_matrix(twoL, a, b, g) - want).max() <= 1e-12


def test_euler_rejects_non_unitary():
    with pytest.raises(ValidationError):
        euler_from_su2(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(ShapeError, match=r"must be 2x2, got \(3, 3\)"):
        euler_from_su2(np.eye(3))


@pytest.mark.parametrize(
    "entry, value", [(..., np.nan), ((0, 1), np.nan), ((1, 1), np.inf)], ids=["all_nan", "one_nan", "inf"]
)
def test_euler_rejects_non_finite(entry, value):
    # a nan defect compares false against the tolerance; it must still raise
    U = wigner_matrix(1, 0.3, 1.1, 2.0)
    U[entry] = value
    with pytest.raises(ValidationError):
        euler_from_su2(U)


def test_haar_quadrature_normalized(quad):
    assert abs(float(quad.weights.sum()) - 1.0) < 1e-12
    # [DERIVED] total solid measure before normalization is 16 pi^2
    assert quad.raw_mass == pytest.approx(16.0 * np.pi**2, rel=1e-12)


def test_schur_orthogonality(quad):
    for tA in range(3):
        TA = su2_irrep_table(quad, tA)
        for tB in range(3):
            TB = su2_irrep_table(quad, tB)
            G = np.einsum("n,nij,nkl->ijkl", quad.weights, TA, TB.conj())
            if tA == tB:
                d = tA + 1
                G = G - np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d)) / d
            assert np.abs(G).max() < 1e-10


def test_character_norm_one(quad):
    # [DERIVED] irreducible characters are orthonormal in L^2
    for twoL in range(3):
        chi = np.einsum("nii->n", su2_irrep_table(quad, twoL))
        assert float((quad.weights * np.abs(chi) ** 2).sum()) == pytest.approx(1.0, abs=1e-10)


def test_fourier_inversion_on_bandlimited(quad):
    # Peter-Weyl inversion through the identity operator
    rng = np.random.default_rng(8)
    cutoff = 2
    f = bandlimited(quad, rng, cutoff)
    Phi = identity_phase(quad, cutoff)
    out = group_fio_apply(Phi, identity_symbol(quad, cutoff), f)
    assert np.abs(out - f).max() < 1e-9


def test_fourier_coefficient_orthogonality(quad):
    # [DERIVED] sqrt(d) T_ij picks out the single matrix entry (j, i) / sqrt(d)
    T = su2_irrep_table(quad, 2)
    f = np.sqrt(3.0) * T[:, 0, 1]
    fhat = group_fourier(f, quad, 2)
    want = np.zeros((3, 3), dtype=complex)
    want[1, 0] = 1.0 / np.sqrt(3.0)
    assert np.abs(fhat - want).max() < 1e-12
    assert np.abs(group_fourier(f, quad, 1)).max() < 1e-12


def test_identity_operator_trace(quad):
    cutoff = 2
    Phi = identity_phase(quad, cutoff)
    a = identity_symbol(quad, cutoff)
    # [DERIVED] sum of squared dimensions: 1 + 4 + 9 = 14
    assert abs(group_nuclear_trace(Phi, a) - 14.0) < 1e-10
    M = group_matrix(Phi, a)
    assert M.shape == (14, 14)
    assert np.abs(M - np.eye(14)).max() < 1e-10
    ev = dense_eigenvalues(M)
    assert np.abs(ev - 1.0).max() < 1e-10


@pytest.mark.parametrize("cutoff", range(4))
def test_identity_matrix_trace_is_accurate(quad, cutoff):
    # sum d^2 = 1, 5, 14, 30; the per-entry sums of an earlier version read
    # 8.5e-14 off at cutoff 3, the chunked contractions 2.1e-14
    M = group_matrix(identity_phase(quad, cutoff), identity_symbol(quad, cutoff))
    assert abs(matrix_trace(M) - sum((t + 1) ** 2 for t in range(cutoff + 1))) <= 4e-14


def test_group_matrix_peak_memory(quad):
    # the basis values and the operator blocks are formed node chunk by node
    # chunk, so no (N, dim) or (N, dim, dim) array is held; the bound is the
    # 1.32 MB peak of an earlier version (0.62 MB now)
    cutoff = 3
    Phi = identity_phase(quad, cutoff)
    a = identity_symbol(quad, cutoff)
    tracemalloc.start()
    try:
        M = group_matrix(Phi, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (30, 30)
    assert peak <= 1.33e6


def test_cached_irrep_tables_are_read_only():
    # phases hold the cached table itself, so a write through one phase
    # would change the table of every later identity_phase
    quad = su2_haar_quadrature(10, 10, 20)
    with pytest.raises(ValueError, match="read-only"):
        identity_phase(quad, 1).blocks[1][:, 0, 0] *= 2
    M = group_matrix(identity_phase(quad, 1), identity_symbol(quad, 1))
    assert np.abs(M - np.eye(5)).max() < 1e-10


def test_synthesis_reproduces_delgado(quad):
    rng = np.random.default_rng(9)
    cutoff = 2
    d = RankOneSequence(
        tuple(
            (SampledField(quad, bandlimited(quad, rng)), SampledField(quad, bandlimited(quad, rng)))
            for _ in range(2)
        ),
        2.0,
        2.0,
        1.0,
    )
    Phi = identity_phase(quad, cutoff)
    a = group_symbol_from_decomposition(Phi, d)
    want = delgado_trace(d)
    assert group_nuclear_trace(Phi, a) == pytest.approx(want, abs=1e-9)
    assert matrix_trace(group_matrix(Phi, a)) == pytest.approx(want, abs=1e-9)


def test_singular_phase_rejected(quad):
    blocks = {0: np.zeros((quad.size, 1, 1), dtype=complex)}
    with pytest.raises(ConditionError):
        GroupPhase(quad, blocks)


@pytest.mark.parametrize(
    "label, node, block, message",
    [
        (1, 5, np.zeros((2, 2)), "phase block 1 is singular at node 5"),
        (1, 7, np.diag([1.0, 1e-9]), "phase block 1 has condition 1.000e+09 at node 7, above the cap 1.0e+08"),
        # the product B B* overflows to inf - inf = nan: a nan certificate must
        # not pass the label, so the SVD finds the zero column
        (2, 9, 1e200 * np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]), "phase block 2 is singular at node 9"),
    ],
    ids=["zero_node", "condition_1e9", "nan_certificate"],
)
def test_bad_phase_node_is_named(quad, label, node, block, message):
    blocks = {t: su2_irrep_table(quad, t).copy() for t in range(3)}
    blocks[label][node] = block
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the certificate's overflow is no user-facing warning
        with pytest.raises(ConditionError) as err:
            GroupPhase(quad, blocks)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "block", [2.0 * np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, 10.0])], ids=["2I", "diag_1_2", "diag_1_10"]
)
def test_well_conditioned_non_unitary_phase_passes_through_the_svd(quad, monkeypatch, block):
    # label 1 is no near-isometry, so its defect certificate fails and the SVD
    # passes it (condition 1, 2 and 10); the unitary labels 0 and 2 need no SVD
    calls, svd = [], np.linalg.svd

    def counted(B, *args, **kwargs):
        calls.append(B.shape)
        return svd(B, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    blocks = {t: su2_irrep_table(quad, t) for t in range(3)}
    blocks[1] = np.broadcast_to(block, (quad.size, 2, 2))
    assert GroupPhase(quad, blocks).labels == [0, 1, 2]
    assert calls == [(quad.size, 2, 2)]


def test_irrep_table_phase_needs_no_svd(quad, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a unitary phase table reached the SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert identity_phase(quad, 3).labels == [0, 1, 2, 3]


@pytest.fixture(scope="module")
def exact_quad():
    # the four routes below agree within 7.6e-10 on this rule, and within
    # 2e-13 on the 16 x 16 x 32 rule, which takes 2.7 times as long
    return su2_haar_quadrature(14, 10, 24)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("setting", ["su2", "homog"])
def test_routes_agree_on_random_decompositions(exact_quad, setting, cutoff):
    # factors band-limited to the cutoff: the dual trace, the Peter-Weyl
    # matrix trace, its eigenvalue sum and the kernel-diagonal trace agree
    if setting == "su2":
        domain, Phi = exact_quad, identity_phase(exact_quad, cutoff)
    else:
        domain = table_from_su2(exact_quad, cutoff)
        Phi = GroupPhase(domain, domain.matrices)
    for rank in range(1, 5):
        rng = np.random.default_rng(100 * cutoff + rank)
        terms = tuple(
            tuple(SampledField(domain, bandlimited(exact_quad, rng, cutoff)) for _ in range(2))
            for _ in range(rank)
        )
        d = RankOneSequence(terms, 2.0, 2.0, 1.0)
        a = group_symbol_from_decomposition(Phi, d)
        M = group_matrix(Phi, a)
        want = delgado_trace(d)
        for got in (group_nuclear_trace(Phi, a), matrix_trace(M), dense_eigenvalues(M).sum()):
            assert abs(got - want) <= 1e-8


def test_s3_chart_quadrature():
    s3 = s3_quadrature(48)
    assert abs(float(s3.weights.sum()) - 1.0) < 1e-12
    # [DERIVED] chart measure integrates to 4 pi^2 before normalization
    assert s3.raw_mass == pytest.approx(4.0 * np.pi**2, abs=1e-10)
    pts = s3_su2_points(s3)
    err = np.abs(np.einsum("nij,nkj->nik", pts, pts.conj()) - np.eye(2)).max()
    assert err < 1e-12
    assert np.abs(np.linalg.det(pts) - 1.0).max() < 1e-12
    # Schur orthogonality holds on the chart too
    T = su2_irrep_table(s3, 1)
    G = np.einsum("n,nij,nkl->ijkl", s3.weights, T, T.conj())
    G = G - np.einsum("ik,jl->ijkl", np.eye(2), np.eye(2)) / 2.0
    assert np.abs(G).max() < 1e-10


def s3_loop_oracle(n):
    """The 3-sphere rule built node by node, in the documented order."""
    tn, tw = _leggauss_ab(np.polynomial.legendre.leggauss(n), 0.0, 2.0 * np.pi)
    sn = 2.0 * np.pi * np.arange(n) / n
    sw = np.full(n, 2.0 * np.pi / n)
    nodes, weights = [], []
    for ti, twi in zip(tn, tw):
        half = np.sin(ti / 2.0)
        vn, vw = _leggauss_ab(np.polynomial.legendre.leggauss(n), -half, half)
        for vi, vwi in zip(vn, vw):
            for si, swi in zip(sn, sw):
                nodes.append((ti, vi, si))
                weights.append(twi * half * vwi * swi)
    weights = np.asarray(weights)
    raw = float(ksum(weights))
    return np.asarray(nodes), weights / raw, raw


def test_s3_quadrature_matches_loop_oracle():
    # the array construction reproduces the node-by-node loop bit for bit
    nodes, weights, raw = s3_loop_oracle(6)
    s3 = s3_quadrature(6)
    assert s3.nodes.tobytes() == nodes.tobytes()
    assert s3.weights.tobytes() == weights.tobytes()
    assert s3.raw_mass == raw


@pytest.mark.parametrize("resolution", [4, 7, 48])
def test_s3_raw_mass_is_the_quadratures_without_its_nodes(resolution):
    assert s3_raw_mass(resolution) == s3_quadrature(resolution).raw_mass
    with pytest.raises(DomainError, match="resolution = 3 below its minimum 4"):
        s3_raw_mass(3)


def euler_loop_oracle(U):
    """Euler angles of one SU(2) matrix, the node-by-node recovery with
    scalar moduli and branches."""
    cb, sb = abs(U[0, 0]), abs(U[1, 0])
    beta = 2.0 * np.arctan2(sb, cb)
    if sb < 1e-12:
        total = -2.0 * np.angle(U[0, 0])
        alpha = total % (2.0 * np.pi)
        gamma = (total - alpha) % (4.0 * np.pi)
    elif cb < 1e-12:
        diff = 2.0 * np.angle(U[1, 0])
        alpha = diff % (2.0 * np.pi)
        gamma = (alpha - diff) % (4.0 * np.pi)
    else:
        total, diff = -2.0 * np.angle(U[0, 0]), 2.0 * np.angle(U[1, 0])
        alpha_raw = 0.5 * (total + diff)
        alpha = alpha_raw % (2.0 * np.pi)
        gamma = (0.5 * (total - diff) + (alpha_raw - alpha)) % (4.0 * np.pi)
    return float(alpha), float(beta), float(gamma)


def test_s3_tables_match_loop_oracle():
    # the array Euler recovery gives the tables of a node-by-node loop bit
    # for bit: evaluate the Wigner tables at the loop's angles instead
    s3 = s3_quadrature(8)
    angles = np.array([euler_loop_oracle(U) for U in s3_su2_points(s3)])
    euler = GroupQuadrature("su2-euler", angles, s3.weights)
    for twoL in range(4):
        assert su2_irrep_table(s3, twoL).tobytes() == su2_irrep_table(euler, twoL).tobytes()
    # the branches beta ~ 0 and beta ~ pi, and the single-matrix entry point
    for U in (np.diag([np.exp(0.4j), np.exp(-0.4j)]), np.array([[0.0, -np.exp(0.9j)], [np.exp(-0.9j), 0.0]])):
        assert euler_from_su2(U) == euler_loop_oracle(U)


def per_node_table(quad, twoL):
    """D^l with every Euler factor evaluated at every node and multiplied
    node by node, (e^{-i m alpha} d^l) e^{-i m' gamma}: the oracle whose bits
    the factored table must reproduce."""
    if quad.kind == "su2-euler":
        alpha, beta, gamma = quad.nodes.T
    else:
        alpha, beta, gamma = _euler_angles(s3_su2_points(quad))
    m, lam, V = _jy_eig(twoL)
    core = np.exp(-1j * np.outer(beta, lam))
    d_beta = np.einsum("ik,nk,jk->nij", V, core, V.conj())
    return (
        np.exp(-1j * np.outer(alpha, m))[:, :, None]
        * d_beta
        * np.exp(-1j * np.outer(gamma, m))[:, None, :]
    )


def loop_euler_quadrature(resolution):
    """The 3-sphere rule as a hand-built Euler node list, angles recovered node by node."""
    s3 = s3_quadrature(resolution)
    angles = np.array([euler_loop_oracle(U) for U in s3_su2_points(s3)])
    return GroupQuadrature("su2-euler", angles, s3.weights)


def permuted_product_rule(shape, seed=0):
    """A product rule's nodes and weights in a random order: an Euler node
    list that is no C-order product."""
    quad = su2_haar_quadrature(*shape)
    order = np.random.default_rng(seed).permutation(quad.size)
    return GroupQuadrature("su2-euler", quad.nodes[order], quad.weights[order])


def descending_beta_rule(shape):
    """A C-order Euler product rule whose beta axis runs from pi down to 0."""
    quad = su2_haar_quadrature(*shape)
    nodes = quad.nodes.reshape(*shape, 3)[:, ::-1].reshape(-1, 3)
    weights = quad.weights.reshape(shape)[:, ::-1].reshape(-1)
    return GroupQuadrature("su2-euler", nodes, weights)


@pytest.mark.parametrize(
    "build",
    [
        lambda: su2_haar_quadrature(16, 16, 32),
        lambda: su2_haar_quadrature(5, 4, 7),
        lambda: su2_haar_quadrature(2, 2, 2),
        lambda: s3_quadrature(8),
        lambda: s3_quadrature(12),
        lambda: loop_euler_quadrature(8),
        lambda: permuted_product_rule((5, 4, 7)),
        lambda: descending_beta_rule((5, 4, 7)),
    ],
    ids=[
        "product-16-16-32", "product-5-4-7", "product-2-2-2", "s3-8", "s3-12", "euler-list",
        "permuted-5-4-7", "descending-beta-5-4-7",
    ],
)
def test_irrep_tables_match_the_per_node_oracle(build):
    # one factor per distinct angle, multiplied in the per-node order: the
    # same bits; the table is cached on first use and read-only
    quad = build()
    for twoL in range(9):
        T = su2_irrep_table(quad, twoL)
        assert T.tobytes() == per_node_table(quad, twoL).tobytes()
        assert su2_irrep_table(quad, twoL) is T
        with pytest.raises(ValueError, match="read-only"):
            T[0, 0, 0] = 0.0


def test_s3_euler_recovery_runs_once_per_quadrature(monkeypatch):
    calls = []
    recover = group._euler_angles
    monkeypatch.setattr(group, "_euler_angles", lambda U: calls.append(1) or recover(U))
    s3 = s3_quadrature(6)
    for twoL in range(4):
        su2_irrep_table(s3, twoL)
    assert len(calls) == 1


def test_product_rule_table_peak_memory():
    # the factors live on the distinct angles (16 + 16 + 32 of them) and are
    # multiplied straight into the table; the per-node build peaked at 3.2x
    quad = su2_haar_quadrature(16, 16, 32)
    tracemalloc.start()
    try:
        T = su2_irrep_table(quad, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * T.nbytes


def per_node_schur_error(quad, max_twoL):
    """Schur orthogonality as one three-operand ``einsum`` over every node per
    spin pair, reading the cached irrep tables: the oracle of the
    sum-factorized ``su2_schur_error``."""
    worst = 0.0
    for tA in range(max_twoL + 1):
        TA = su2_irrep_table(quad, tA)
        for tB in range(max_twoL + 1):
            TB = su2_irrep_table(quad, tB)
            G = np.einsum("n,nij,nkl->ijkl", quad.weights, TA, TB.conj())
            d = tA + 1
            target = np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d)) / d if tA == tB else 0.0
            worst = max(worst, float(np.abs(G - target).max()))
    return worst


@pytest.mark.parametrize(
    "build",
    [
        lambda: su2_haar_quadrature(16, 16, 32),
        lambda: su2_haar_quadrature(8, 8, 16),
        lambda: su2_haar_quadrature(5, 4, 7),
        lambda: descending_beta_rule((5, 4, 7)),
    ],
    ids=["16-16-32", "8-8-16", "5-4-7", "descending-beta-5-4-7"],
)
@pytest.mark.parametrize("max_twoL", [0, 3, 5])
def test_schur_error_matches_the_per_node_oracle(build, max_twoL):
    # the same quadrature sum in sum-factorized order; the defects run from
    # roundoff on the default rule to 0.15 on the 5 x 4 x 7 rule, whichever
    # way its beta axis runs
    quad = build()
    assert su2_schur_error(quad, max_twoL) == pytest.approx(per_node_schur_error(quad, max_twoL), abs=1e-14)


def test_schur_error_builds_no_table_and_little_memory():
    # no irrep table is built or cached; one twoL = 3 table alone is 2.1 MB
    quad = su2_haar_quadrature(16, 16, 32)
    tracemalloc.start()
    try:
        value = su2_schur_error(quad, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value < 1e-14
    assert list(quad._cache) == ["euler"]
    assert peak < 1_000_000


def test_schur_error_needs_a_c_order_euler_product_rule():
    with pytest.raises(ValidationError, match="C-order Euler product rule"):
        su2_schur_error(s3_quadrature(8))
    # a product rule's nodes in reversed axis order, alpha varying fastest
    quad = su2_haar_quadrature(4, 4, 8)
    nodes = quad.nodes.reshape(4, 4, 8, 3).transpose(2, 1, 0, 3).reshape(-1, 3)
    weights = quad.weights.reshape(4, 4, 8).transpose(2, 1, 0).reshape(-1)
    with pytest.raises(ValidationError, match="C-order Euler product rule"):
        su2_schur_error(GroupQuadrature("su2-euler", nodes, weights))
    with pytest.raises(DomainError, match="max_twoL = -1 below its minimum 0"):
        su2_schur_error(quad, -1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["beta", "weight"])
def test_quadrature_rejects_non_finite_nodes_and_weights(where, value):
    # a nan beta would otherwise build and give a table of nan entries
    quad = su2_haar_quadrature(2, 2, 2)
    nodes, weights = quad.nodes.copy(), quad.weights.copy()
    if where == "beta":
        nodes[3, 1] = value
    else:
        weights[3] = value
    with pytest.raises(ValidationError, match="must be finite"):
        GroupQuadrature("su2-euler", nodes, weights)


@pytest.mark.parametrize("kind", ["su2-euler", "s3"])
def test_quadrature_rejects_nodes_that_are_not_three_angles(kind):
    # a (4, 2) node array would otherwise build and fail later, unpacking its
    # columns into three Euler angles
    with pytest.raises(ShapeError, match=f"{kind} quadrature nodes need 3 columns, got 2"):
        GroupQuadrature(kind, np.zeros((4, 2)), np.full(4, 0.25))


def test_invalid_inputs(quad):
    with pytest.raises(DomainError):
        su2_irrep_table(quad, -1)
    with pytest.raises(DomainError):
        wigner_matrix(1, -0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        su2_haar_quadrature(1, 16, 32)
    # a phase and a symbol must share one quadrature and one label set
    with pytest.raises(ValidationError, match="group_nuclear_trace: phase and symbol use different quadratures"):
        group_nuclear_trace(identity_phase(su2_haar_quadrature(4, 4, 8), 1), identity_symbol(quad, 1))
    with pytest.raises(ValidationError, match=r"group_matrix: phase labels \[0, 1, 2\] differ from symbol labels \[0, 1\]"):
        group_matrix(identity_phase(quad, 2), identity_symbol(quad, 1))


# -- torus --------------------------------------------------------------------


@pytest.fixture
def circle():
    return UniformGrid.torus(32, 1)


def test_torus_fourier_exact_on_polynomials(circle):
    x = circle.nodes[:, 0]
    f = SampledField(circle, (2.0 * np.exp(2j * np.pi * x) + 3.0).astype(complex))
    fhat = dft_forward(f, LatticeWindow(1, 2)).values
    # freqs ordered -2..2; coefficient of e^{2 pi i x} sits at index 3
    want = np.array([0.0, 0.0, 3.0, 2.0, 0.0], dtype=complex)
    assert np.abs(fhat - want).max() < 1e-13


def test_torus_identity_trace(circle):
    n_freq = LatticeWindow(1, 2).nodes.shape[0]
    a = SampledSymbol(circle, LatticeWindow(1, 2), np.ones((circle.size, n_freq), dtype=complex))
    # [DERIVED] identity on a 5-dimensional space of exponentials
    assert torus_nuclear_trace(PhaseSpec.linear(), a) == pytest.approx(5.0, abs=1e-13)
    M = torus_matrix(PhaseSpec.linear(), a)
    assert np.abs(M - np.eye(5)).max() < 1e-13


def test_torus_identity_apply_keeps_the_frequencies_up_to_the_cutoff(circle):
    # [DERIVED] the constant symbol 1 with the linear phase projects onto the
    # exponentials e^{2 pi i l x} with |l| <= cutoff: degrees 3 and 5 go
    x = circle.nodes[:, 0]
    coeffs = {-3: 0.5, -1: 2.0, 0: 1.0 - 1.0j, 2: 0.25j, 5: 4.0}
    f = SampledField(circle, sum(c * np.exp(2j * np.pi * l * x) for l, c in coeffs.items()))
    window = LatticeWindow(1, 2)
    a = SampledSymbol(circle, window, np.ones((circle.size, window.size), dtype=complex))
    got = fio_apply(PhaseSpec.linear(), a, f)
    want = sum(c * np.exp(2j * np.pi * l * x) for l, c in coeffs.items() if abs(l) <= 2)
    assert got.grid is circle
    assert np.abs(got.values - want).max() < 1e-13


@pytest.mark.parametrize("dim, cutoff, x_count", [(1, 3, 16), (2, 1, 8)])
def test_torus_apply_is_the_frequency_sum(dim, cutoff, x_count):
    # out(x) = sum_l e^{2 pi i x.l} a(x, l) fhat(l), fhat(l) = sum_x w(x) f(x) e^{-2 pi i x.l}
    x_grid, window = UniformGrid.torus(x_count, dim), LatticeWindow(dim, cutoff)
    rng = np.random.default_rng(9)
    shape = (x_grid.size, window.size)
    a = SampledSymbol(x_grid, window, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    f = SampledField(x_grid, rng.standard_normal(x_grid.size) + 1j * rng.standard_normal(x_grid.size))
    x, l = x_grid.nodes, window.nodes
    fhat = (x_grid.weights * f.values) @ np.exp(-2j * np.pi * (x @ l.T))
    want = (np.exp(2j * np.pi * (x @ l.T)) * a.values) @ fhat
    got = fio_apply(PhaseSpec.linear(), a, f)
    assert np.abs(got.values - want).max() < 1e-12


def test_torus_synthesis_trace(circle):
    x = circle.nodes[:, 0]
    h = SampledField(circle, np.exp(2j * np.pi * x) + 0.5)
    g = SampledField(circle, 0.7 * np.exp(-2j * np.pi * x) + 0.2)
    d = RankOneSequence(((h, g),), 2.0, 2.0, 1.0)
    a = torus_symbol_from_decomposition(PhaseSpec.linear(), d, 2, circle)
    want = complex((circle.weights * h.values * g.values).sum())
    assert torus_nuclear_trace(PhaseSpec.linear(), a) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("dim, cutoff, x_count", [(1, 3, 16), (2, 2, 16)])
def test_constant_torus_symbol_traces_exactly(dim, cutoff, x_count):
    x_grid = UniformGrid.torus(x_count, dim)
    n_freq = (2 * cutoff + 1) ** dim
    a = SampledSymbol(x_grid, LatticeWindow(dim, cutoff), np.ones((x_grid.size, n_freq), dtype=complex))
    # [DERIVED] the identity on the frequency cube traces to its cardinality
    # with no rounding: the linear phase cancels the kernel exactly, so no
    # exp factor enters, and the dyadic weights sum exactly
    assert torus_nuclear_trace(PhaseSpec.linear(), a) == complex(n_freq)


@pytest.mark.parametrize("x_count", [21, 22, 42])
def test_constant_torus_matrix_is_exact_at_any_x_count(x_count):
    # fft(full(N, 1/N))[0] != 1 at N = 21 and 42: the matrix diagonal comes
    # from the trace kernel's row sums, not from the FFT's DC bin
    cutoff = (x_count - 2) // 4  # the exactness threshold 4 * cutoff + 2 of LatticeWindow.check_grid
    x_grid = UniformGrid.torus(x_count, 1)
    n_freq = 2 * cutoff + 1
    a = SampledSymbol(x_grid, LatticeWindow(1, cutoff), np.ones((x_grid.size, n_freq), dtype=complex))
    M = torus_matrix(PhaseSpec.linear(), a)
    assert np.array_equal(np.diag(M), np.ones(n_freq, dtype=complex))
    assert torus_nuclear_trace(PhaseSpec.linear(), a) == complex(n_freq)
    assert matrix_trace(M) == complex(n_freq)
    assert abs(dense_eigenvalues(M).sum() - n_freq) < 1e-12


def test_torus_grids_must_span_the_unit_box():
    # a periodic [0, 2) grid: its nodes are not k/N, where the torus matrix reads
    # them; the symbol refuses it at construction, so no entry point sees it
    wide = UniformGrid(((0.0, 2.0, 16),), periodic=True)
    ones = np.ones((wide.size, 5), dtype=complex)
    with pytest.raises(ValidationError, match=r"span \[0, 1\)"):
        SampledSymbol(wide, LatticeWindow(1, 2), ones)
    h = SampledField(wide, np.ones(wide.size, dtype=complex))
    with pytest.raises(ValidationError, match=r"span \[0, 1\)"):
        torus_symbol_from_decomposition(PhaseSpec.linear(), RankOneSequence(((h, h),), 2.0, 2.0, 1.0), 2, wide)
    with pytest.raises(ValidationError, match=r"span \[0, 1\)"):
        dft_forward(h, LatticeWindow(1, 2))


def test_torus_entry_points_reject_a_domain_that_is_not_a_grid():
    # a Haar quadrature has no axes or dim: the pairing rule runs first, so a
    # window next to it, on either side, is a ValidationError, not an AttributeError
    quad, window = su2_haar_quadrature(4, 4, 8), LatticeWindow(1, 1)
    f = SampledField(quad, np.ones(quad.size, dtype=complex))
    for call in (
        lambda: dft_forward(f, window),
        lambda: dft_inverse(SampledField(window, np.ones(3)), quad),
        lambda: SampledSymbol(quad, window, np.ones((quad.size, 3))),
        lambda: SampledSymbol(window, quad, np.ones((3, quad.size))),
    ):
        with pytest.raises(ValidationError, match=r"span \[0, 1\)"):
            call()


_TINY = su2_haar_quadrature(2, 2, 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GroupQuadrature("su2-euler", np.zeros((3, 3)), np.full(2, 0.5)), ShapeError, "are inconsistent"),
        (
            lambda: GroupQuadrature("su2-euler", np.zeros((2, 3)), np.full(2, 0.4)),
            ValidationError,
            "Haar weights sum to 0.8, not 1",
        ),
        (lambda: GroupSymbol(_TINY, {}), ValidationError, "symbol needs at least one block"),
        (lambda: group_fourier(np.ones(_TINY.size - 1), _TINY, 0), ShapeError, "function has 7 samples, quadrature 8"),
        (lambda: group.s3_su2_points(_TINY), ValidationError, "expected an s3 quadrature, got kind 'su2-euler'"),
        (
            lambda: su2_irrep_table(GroupQuadrature("other", np.zeros((2, 3)), np.full(2, 0.5)), 1),
            ValidationError,
            "no SU\\(2\\) tables for quadrature kind 'other'",
        ),
    ],
    ids=["quadrature_sizes", "quadrature_mass", "no_blocks", "fourier_samples", "s3_points_of_euler", "unknown_kind"],
)
def test_a_quadrature_symbol_or_sample_count_that_does_not_fit_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_writable_table_defect_follows_writes():
    T = su2_irrep_table(su2_haar_quadrature(4, 4, 8), 1).copy()
    assert group.unitarity_defect(T) < 1e-14
    T[3] *= 2.0  # |2 U|^2 - 1 = 3 on the diagonal of node 3
    assert group.unitarity_defect(T) == pytest.approx(3.0, rel=1e-14)
    assert id(T) not in group._DEFECTS


def test_read_only_view_of_a_writable_base_is_never_stored():
    base = su2_irrep_table(su2_haar_quadrature(4, 4, 8), 1).copy()
    view = base[:]
    view.setflags(write=False)
    assert group.unitarity_defect(view) < 1e-14
    assert id(view) not in group._DEFECTS
    base[0] *= 2.0
    assert group.unitarity_defect(view) == pytest.approx(3.0, rel=1e-14)


def test_cached_table_defect_is_formed_once(monkeypatch):
    quad = su2_haar_quadrature(4, 4, 8)
    T = su2_irrep_table(quad, 2)
    first = group.unitarity_defect(T)

    def refuse(*args, **kwargs):
        raise AssertionError("the stored defect was formed again")

    monkeypatch.setattr(np, "einsum", refuse)
    assert group.unitarity_defect(T) == first
    assert GroupPhase(quad, {2: T}).labels == [2]  # the phase check reads it too


def test_stored_defects_go_with_their_tables():
    gc.collect()
    start = len(group._DEFECTS)
    for _ in range(100):
        quad = su2_haar_quadrature(2, 2, 2)
        identity_phase(quad, 1)  # stores the defects of the quadrature's two tables
        assert len(group._DEFECTS) <= start + 2
    table = weakref.ref(su2_irrep_table(quad, 1))
    del quad
    gc.collect()
    assert table() is None
    assert len(group._DEFECTS) <= start


@pytest.mark.parametrize("scale, svd_calls", [(1.2, 0), (1.25, 1)], ids=["certified", "to_the_svd"])
def test_defect_certificate_boundary(quad, monkeypatch, scale, svd_calls):
    # a 1 x 1 label at scale s has d * defect = s^2 - 1: 0.44 <= 1/2 is
    # certified, 0.5625 goes to the SVD, which passes it at condition 1
    calls, svd = [], np.linalg.svd

    def counted(B, *args, **kwargs):
        calls.append(B.shape)
        return svd(B, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    blocks = {t: su2_irrep_table(quad, t) for t in range(2)}
    blocks[0] = np.full((quad.size, 1, 1), scale, dtype=complex)
    assert GroupPhase(quad, blocks).labels == [0, 1]
    assert len(calls) == svd_calls


def _haar_reference(counts):
    """``su2_haar_quadrature`` built with one ``leggauss`` call per axis."""
    intervals = ((0.0, 2.0 * np.pi), (0.0, np.pi), (0.0, 4.0 * np.pi))
    (an, aw), (bn, bw), (gn, gw) = (
        _leggauss_ab(np.polynomial.legendre.leggauss(n), a, b) for n, (a, b) in zip(counts, intervals)
    )
    A, B, Gm = np.meshgrid(an, bn, gn, indexing="ij")
    W = (aw[:, None, None] * (bw * np.sin(bn))[None, :, None] * gw[None, None, :]).reshape(-1)
    raw = float(ksum(W))
    return np.stack([A.reshape(-1), B.reshape(-1), Gm.reshape(-1)], axis=-1), W / raw, raw


@pytest.mark.parametrize("counts", [(16, 16, 32), (6, 9, 12)], ids=["bench_rule", "three_counts"])
def test_shared_leggauss_rules_keep_the_bits(counts):
    nodes, weights, raw = _haar_reference(counts)
    quad = su2_haar_quadrature(*counts)
    assert np.array_equal(quad.nodes, nodes) and np.array_equal(quad.weights, weights)
    assert quad.raw_mass == raw


def test_s3_rule_shares_its_leggauss_rule_bit_for_bit():
    # the t and nu axes once called leggauss(48) each
    n = 48
    tn, tw = _leggauss_ab(np.polynomial.legendre.leggauss(n), 0.0, 2.0 * np.pi)
    half = np.sin(tn / 2.0)[:, None]
    vn, vw = _leggauss_ab(np.polynomial.legendre.leggauss(n), -half, half)
    sn = 2.0 * np.pi * np.arange(n) / n
    W = ((tw[:, None] * half * vw)[:, :, None] * np.full(n, 2.0 * np.pi / n)).reshape(-1)
    T, S = np.broadcast_to(tn[:, None, None], (n, n, n)), np.broadcast_to(sn, (n, n, n))
    nodes = np.stack([T.reshape(-1), np.repeat(vn.reshape(-1), n), S.reshape(-1)], axis=-1)
    raw = float(ksum(W))
    s3 = s3_quadrature(n)
    assert np.array_equal(s3.nodes, nodes) and np.array_equal(s3.weights, W / raw)
    assert s3.raw_mass == raw == s3_raw_mass(n)
