"""Fourier integral operators on compact groups: the torus and SU(2).

The operator is the Fourier-series sum F f(x) = sum_l d_l Tr[Phi(x,l) a(x,l)
fhat(l)] with fhat(l) = int f(x) t_l(x)* dmu(x) over the normalized Haar
measure. On the torus the representations are the characters e^{2*pi*i*l.x}
and everything is scalar; on SU(2) the irreducible representations are the
Wigner matrices D^l in z-y-z Euler angles with the Condon-Shortley basis
ordered m = l, l-1, ..., -l. Integer labels twoL = 2l keep half-integer spins
exact.

Haar quadratures carry normalized weights (they sum to 1); the 3-sphere
parametrization additionally records the raw mass of its printed density,
which integrates to 4*pi^2 over the chart, twice the unit 3-sphere area.

Two kernels do the work. The torus is the abelian pair of the lattice with
space and frequency swapped, ``SampledSymbol(x_grid, LatticeWindow(dim,
cutoff), values)`` with coefficients ``dft_forward(f, window)``: its
synthesis, trace and matrix are the abelian bodies of ``euclid`` (the
matrix's off-diagonals one FFT within 1e-13 * sum(w) * max|a|, its diagonal
the trace terms' compensated sums). SU(2) is the
K = {e} instance of the class-I table kernel below. Its domain is anything with
``size``, ``weights`` and ``irrep(label) -> (label, dim, k_inv, matrices)``: a
``GroupQuadrature`` (k_inv = dim) or a ``homog.ClassIIrrepTable``. One symbol
class and one phase class (``GroupSymbol``, ``GroupPhase``) and the five
``group_*`` functions serve both, so the K = {e} degeneration is bit-for-bit
by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConditionError,
    DomainError,
    ShapeError,
    ValidationError,
)
from .euclid import PhaseSpec, _abelian_matrix, _abelian_synthesis, _abelian_trace
from .grids import KahanSum, LatticeWindow, SampledSymbol, UniformGrid, complex_samples, ksum
from .grids import require_int, require_real, require_same_grid
from .nuclear import RankOneSequence
from .numerics import _one_blas_thread

__all__ = [
    "GroupQuadrature",
    "GroupPhase",
    "GroupSymbol",
    "su2_haar_quadrature",
    "s3_quadrature",
    "s3_raw_mass",
    "s3_su2_points",
    "wigner_matrix",
    "euler_from_su2",
    "su2_irrep_table",
    "su2_schur_error",
    "group_fourier",
    "identity_phase",
    "group_fio_apply",
    "group_symbol_from_decomposition",
    "group_nuclear_trace",
    "group_matrix",
    "torus_symbol_from_decomposition",
    "torus_nuclear_trace",
    "torus_matrix",
    "class_i_mask",
    "unitarity_defect",
]

# Phase blocks must stay invertible; this is the admissibility threshold.
_PHASE_COND_CAP = 1e8


@functools.cache
def _jy_eig(twoL: int):
    """Eigendecomposition of J_y for spin twoL/2, cached.

    J_+ has entries sqrt(j(j+1) - m(m+1)) one step above the diagonal in the
    descending-m basis; J_y = (J_+ - J_-) / 2i is Hermitian.
    """
    j = twoL / 2.0
    dim = twoL + 1
    m = j - np.arange(dim)  # m = j, j-1, ..., -j
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        mk = m[k + 1]
        jplus[k, k + 1] = np.sqrt(j * (j + 1) - mk * (mk + 1))
    jy = (jplus - jplus.conj().T) / 2j
    lam, V = np.linalg.eigh(jy)
    return m, lam, V


def wigner_matrix(twoL: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Irreducible representation matrix D^l(alpha, beta, gamma), l = twoL/2.

    z-y-z Euler angles with alpha in [0, 2*pi), beta in [0, pi], gamma in
    [0, 4*pi); the gamma range covers the double cover so half-integer spins
    are single-valued. D = e^{-i m alpha} d^l(beta) e^{-i m' gamma} with the
    real middle factor d^l = exp(-i beta J_y) of ``_small_d``, multiplied in
    the order of ``su2_irrep_table``, so D has the bits of a one-node table.
    """
    twoL = require_int(twoL, "twoL", least=0)
    alpha, beta, gamma = (
        require_real(val, name, -1e-12, hi + 1e-12)
        for name, val, hi in (("alpha", alpha, 2 * np.pi), ("beta", beta, np.pi), ("gamma", gamma, 4 * np.pi))
    )
    return _wigner_matrices(twoL, np.array([[alpha, beta, gamma]]))[0]


def _wigner_matrices(twoL: int, angles: np.ndarray) -> np.ndarray:
    """``wigner_matrix`` at each row (alpha, beta, gamma) of ``angles``,
    unchecked, with one ``_small_d`` over the betas: (N, d, d), each matrix
    with the bits of a one-row call."""
    m, d_beta = _small_d(twoL, angles[:, 1])
    left, right = (np.exp(-1j * np.outer(t, m)) for t in (angles[:, 0], angles[:, 2]))
    return left[:, :, None] * d_beta * right[:, None, :]


def euler_from_su2(U: np.ndarray) -> tuple:
    """Euler angles (alpha, beta, gamma) of a 2x2 special unitary matrix.

    Inverts the fundamental representation exactly (including the sign of the
    double cover): alpha lands in [0, 2*pi) by moving whole turns into gamma,
    which lives in [0, 4*pi). Unitarity is checked to 1e-10.
    """
    A = np.asarray(U, dtype=complex)
    if A.shape != (2, 2):
        raise ShapeError(f"SU(2) element must be 2x2, got {A.shape}")
    return tuple(float(v[0]) for v in _euler_angles(A[None]))


def _euler_angles(U: np.ndarray) -> tuple:
    """Euler angle arrays (alpha, beta, gamma) of a batch (N, 2, 2) of SU(2)
    matrices, each checked to be special unitary to 1e-10.

    Moduli go through hypot, as scalar ``abs`` does, so a batch gives the
    angles of a node-by-node loop bit for bit.
    """
    herm = unitarity_defect(U)
    det = np.abs(U[:, 0, 0] * U[:, 1, 1] - U[:, 0, 1] * U[:, 1, 0] - 1.0).max()
    if not (herm <= 1e-10 and det <= 1e-10):  # a nan defect fails the test
        raise ValidationError(
            f"matrix is not special unitary (unitarity defect {herm:.2e}, det defect {det:.2e})"
        )
    a, c = U[:, 0, 0], U[:, 1, 0]
    cb, sb = np.hypot(a.real, a.imag), np.hypot(c.real, c.imag)
    beta = 2.0 * np.arctan2(sb, cb)
    total = -2.0 * np.angle(a)  # alpha + gamma
    diff = 2.0 * np.angle(c)  # alpha - gamma
    alpha_raw = 0.5 * (total + diff)
    alpha = alpha_raw % (2.0 * np.pi)
    # alpha shifts by 2*pi trade against gamma shifts by 2*pi: same element
    gamma = (0.5 * (total - diff) + (alpha_raw - alpha)) % (4.0 * np.pi)
    top = sb < 1e-12  # beta ~ 0: only alpha+gamma is defined
    alpha[top] = total[top] % (2.0 * np.pi)
    gamma[top] = (total[top] - alpha[top]) % (4.0 * np.pi)
    bottom = (cb < 1e-12) & ~top  # beta ~ pi: only alpha-gamma is defined
    alpha[bottom] = diff[bottom] % (2.0 * np.pi)
    gamma[bottom] = (alpha[bottom] - diff[bottom]) % (4.0 * np.pi)
    return alpha, beta, gamma


@dataclass(frozen=True, eq=False)
class GroupQuadrature:
    """Quadrature over a group manifold chart.

    nodes holds parameter tuples ((alpha, beta, gamma) for the Euler chart,
    (t, nu, s) for the 3-sphere chart, 3 columns either way); nodes and
    weights are finite and the weights normalized to total mass 1 within
    1e-10, checked at construction. raw_mass records the chart integral of
    the unnormalized printed density where one is meaningful.
    Instances compare by identity; phases, symbols, and decompositions meant
    to interoperate must share one quadrature object.
    """

    kind: str
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    raw_mass: float | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.ndim != 1 or nodes.shape[0] != weights.shape[0]:
            raise ShapeError("quadrature nodes (N, k) and weights (N,) are inconsistent")
        if self.kind in ("su2-euler", "s3") and nodes.shape[1] != 3:
            raise ShapeError(f"{self.kind} quadrature nodes need 3 columns, got {nodes.shape[1]}")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ValidationError("quadrature nodes and weights must be finite")
        total = float(ksum(weights))
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"Haar weights sum to {total!r}, not 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def irrep(self, label) -> tuple:
        """(twoL, dim, k_inv, matrices) of the spin twoL/2 irrep; K = {e}, so k_inv = dim."""
        twoL = require_int(label, "twoL", least=0)
        return twoL, twoL + 1, twoL + 1, su2_irrep_table(self, twoL)


def _leggauss_ab(rule: tuple, a, b):
    """The Gauss-Legendre ``rule`` = leggauss(n) moved from [-1, 1] to [a, b]."""
    x, w = rule
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def su2_haar_quadrature(n_alpha: int = 16, n_beta: int = 16, n_gamma: int = 32) -> GroupQuadrature:
    """Gauss-Legendre product rule for normalized Haar measure on SU(2).

    dmu = sin(beta) dalpha dbeta dgamma / (16*pi^2) over alpha in [0, 2*pi],
    beta in [0, pi], gamma in [0, 4*pi]; the gamma range covers the double
    cover, which half-integer-spin orthogonality needs. One ``leggauss`` rule
    is computed per distinct count.
    """
    counts = (("n_alpha", n_alpha), ("n_beta", n_beta), ("n_gamma", n_gamma))
    n_alpha, n_beta, n_gamma = (require_int(n, name, least=2) for name, n in counts)
    rules = {n: np.polynomial.legendre.leggauss(n) for n in {n_alpha, n_beta, n_gamma}}
    an, aw = _leggauss_ab(rules[n_alpha], 0.0, 2.0 * np.pi)
    bn, bw = _leggauss_ab(rules[n_beta], 0.0, np.pi)
    gn, gw = _leggauss_ab(rules[n_gamma], 0.0, 4.0 * np.pi)
    A, B, Gm = np.meshgrid(an, bn, gn, indexing="ij")
    W = (aw[:, None, None] * (bw * np.sin(bn))[None, :, None] * gw[None, None, :]).reshape(-1)
    raw = float(ksum(W))  # chart mass of sin(beta) dalpha dbeta dgamma: 16*pi^2
    nodes = np.stack([A.reshape(-1), B.reshape(-1), Gm.reshape(-1)], axis=-1)
    return GroupQuadrature("su2-euler", nodes, W / raw, raw_mass=raw)


def _s3_rule(n: int) -> tuple:
    """The resolution-n 3-sphere rule's t, nu (a row per t) and s nodes, and the unnormalized
    weight ((tw_i half_i) vw_ij) sw_k of node (t_i, nu_ij, s_k), in row-major order.
    The t and nu axes share one ``leggauss`` rule."""
    rule = np.polynomial.legendre.leggauss(n)
    tn, tw = _leggauss_ab(rule, 0.0, 2.0 * np.pi)
    sn = 2.0 * np.pi * np.arange(n) / n  # uniform, exact for trig polynomials
    sw = np.full(n, 2.0 * np.pi / n)
    half = np.sin(tn / 2.0)[:, None]
    vn, vw = _leggauss_ab(rule, -half, half)  # one nu rule per t node, (n, n)
    return tn, vn, sn, ((tw[:, None] * half * vw)[:, :, None] * sw).reshape(-1)


def s3_quadrature(resolution: int = 48) -> GroupQuadrature:
    """Quadrature for the (t, nu, s) chart of the unit 3-sphere.

    Coordinates x1 = cos(t/2), x2 = nu, (x3, x4) = rho (cos s, sin s) with
    rho^2 = sin^2(t/2) - nu^2, t in [0, 2*pi], nu in [-sin(t/2), sin(t/2)],
    s in [0, 2*pi]. The printed density sin(t/2) dt dnu ds has chart mass
    4*pi^2 (recorded as raw_mass); the true surface density is half that,
    and normalized weights are used for all integrals.
    """
    n = require_int(resolution, "resolution", least=4)
    tn, vn, sn, weights = _s3_rule(n)
    T, S = np.broadcast_to(tn[:, None, None], (n, n, n)), np.broadcast_to(sn, (n, n, n))
    nodes = np.stack([T.reshape(-1), np.repeat(vn.reshape(-1), n), S.reshape(-1)], axis=-1)
    raw = float(ksum(weights))
    return GroupQuadrature("s3", nodes, weights / raw, raw_mass=raw)


def s3_raw_mass(resolution: int = 48) -> float:
    """``s3_quadrature(resolution).raw_mass``, bit for bit, without building the nodes."""
    return float(ksum(_s3_rule(require_int(resolution, "resolution", least=4))[3]))


def s3_su2_points(quad: GroupQuadrature) -> np.ndarray:
    """Fundamental SU(2) matrices [[x1+ix2, x3+ix4], [-x3+ix4, x1-ix2]] at
    the (t, nu, s) nodes of an s3 quadrature."""
    if quad.kind != "s3":
        raise ValidationError(f"expected an s3 quadrature, got kind {quad.kind!r}")
    t, nu, s = quad.nodes.T
    x1 = np.cos(t / 2.0)
    x2 = nu
    rho = np.sqrt(np.maximum(np.sin(t / 2.0) ** 2 - nu**2, 0.0))
    x3, x4 = rho * np.cos(s), rho * np.sin(s)
    U = np.empty((quad.size, 2, 2), dtype=complex)
    U[:, 0, 0] = x1 + 1j * x2
    U[:, 0, 1] = x3 + 1j * x4
    U[:, 1, 0] = -x3 + 1j * x4
    U[:, 1, 1] = x1 - 1j * x2
    return U


def _euler_axes(quad: GroupQuadrature) -> tuple:
    """The Euler angles of a quadrature's nodes as three axes, found once and cached.

    Returns (axes, index): the distinct alpha, beta and gamma values by bits
    (-0.0 and 0.0 keep their own factors), each axis in order of first
    appearance, and each node's position in them. On a C-order ('ij'
    meshgrid) product rule the index is the nodes' C-order multi-index.
    3-sphere charts go through the embedding and exact Euler recovery.
    """
    if "euler" in quad._cache:
        return quad._cache["euler"]
    if quad.kind == "su2-euler":
        angles = quad.nodes.T
    elif quad.kind == "s3":
        angles = _euler_angles(s3_su2_points(quad))
    else:
        raise ValidationError(f"no SU(2) tables for quadrature kind {quad.kind!r}")
    axes, index = [], []
    for x in angles:
        bits = np.ascontiguousarray(x).view(np.int64)
        _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct values by first appearance
        axes.append(bits[first[order]].view(float))
        index.append(np.argsort(order)[inverse])
    quad._cache["euler"] = tuple(axes), tuple(index)
    return quad._cache["euler"]


def _small_d(twoL: int, beta: np.ndarray) -> tuple:
    """(m, d^l(beta)): the weights m = l, ..., -l and the real middle factor
    d^l = V e^{-i beta lam} V^* of J_y's eigendecomposition at each beta, one
    ``einsum``, as an (n_beta, d, d) complex array."""
    m, lam, V = _jy_eig(twoL)
    return m, np.einsum("ik,nk,jk->nij", V, np.exp(-1j * np.outer(beta, lam)), V.conj())


def su2_irrep_table(quad: GroupQuadrature, twoL: int) -> np.ndarray:
    """Representation matrices D^l at every quadrature node, cached and
    read-only (phases and tables share the cached array, so a write would
    change every later caller's table).

    D^l = e^{-i m alpha} d^l(beta) e^{-i m' gamma}: each factor is evaluated
    once per distinct angle of the nodes (``_euler_axes``), d^l(beta) by
    ``_small_d`` over those betas, and gathered by each node's index. Every
    entry is (e^{-i m alpha} d^l) e^{-i m' gamma}, the order of a
    node-by-node product, so the table holds that product's bits.
    """
    twoL = require_int(twoL, "twoL", least=0)
    key = ("table", twoL)
    if key in quad._cache:
        return quad._cache[key]
    (alpha, beta, gamma), (ia, ib, ig) = _euler_axes(quad)
    m, d_beta = _small_d(twoL, beta)
    T = d_beta[ib]
    # the left factor stays the left operand: a fused complex multiply need
    # not give b*a the bits of a*b
    np.multiply(np.exp(-1j * np.outer(alpha, m))[ia][:, :, None], T, out=T)
    np.multiply(T, np.exp(-1j * np.outer(gamma, m))[ig][:, None, :], out=T)
    T.setflags(write=False)
    quad._cache[key] = T
    return T


def su2_schur_error(quad: GroupQuadrature, max_twoL: int = 3) -> float:
    """max | sum_n w_n D^A_ij conj(D^B_kl) - delta_AB delta_ik delta_jl / d_A |
    over the spin pairs twoA, twoB <= max_twoL: Schur orthogonality under the
    quadrature, the SU(2) twin of ``homog.su3_schur_error``.

    On a C-order Euler product rule (``_euler_axes``) the summand is
    W[a, b, g] e^{-i p alpha_a} d^A_ij(beta_b) conj(d^B_kl(beta_b)) e^{-i q gamma_g}
    with p = m_i - m'_k and q = m_j - m'_l (m the weights of spin A, m' of
    spin B), for the weights as an (n_alpha, n_beta, n_gamma) tensor of any
    rank. So the node sum is taken in sum-factorized order: one table
    H[p, b, q] of alpha and gamma harmonic sums over the distinct differences
    2p, 2q in [-2 max_twoL, 2 max_twoL] (rows 2p + 2 max_twoL), shared by
    every spin pair, then per pair a last beta sum against
    d^A(beta) conj(d^B(beta)). No irrep table is built, no (N, d, d) array is
    formed, and the plain ``einsum``s make no BLAS call, so the value follows
    no thread count. Any other node list raises ``ValidationError``.
    """
    top = require_int(max_twoL, "max_twoL", least=0)
    (alpha, beta, gamma), index = _euler_axes(quad)
    shape = (alpha.size, beta.size, gamma.size)
    if not np.array_equal(np.ravel_multi_index(index, shape), np.arange(np.prod(shape))):
        raise ValidationError("su2_schur_error needs the nodes of a C-order Euler product rule")
    W = quad.weights.reshape(shape)
    halves = np.arange(-2 * top, 2 * top + 1) / 2.0  # p and q, exact
    H = np.einsum("ap,abg->pbg", np.exp(-1j * np.outer(alpha, halves)), W)
    H = np.einsum("pbg,gq->pbq", H, np.exp(-1j * np.outer(gamma, halves)))
    small_d = [_small_d(t, beta)[1] for t in range(top + 1)]
    worst = 0.0
    for tA, dA in enumerate(small_d):
        for tB, dB in enumerate(small_d):
            # H's row of 2(m_i - m'_k) = (tA - 2i) - (tB - 2k), for every (i, k)
            row = (tA - 2 * np.arange(tA + 1))[:, None] - (tB - 2 * np.arange(tB + 1)) + 2 * top
            harmonics = H[row[:, None, :, None], :, row[None, :, None, :]]  # (i, j, k, l, b)
            G = np.einsum("ijklb,bij,bkl->ijkl", harmonics, dA, dB.conj())
            if tA == tB:
                G -= np.einsum("ik,jl->ijkl", np.eye(tA + 1), np.eye(tA + 1)) / (tA + 1)
            worst = max(worst, float(np.abs(G).max()))
    return worst


def unitarity_defect(U: np.ndarray) -> float:
    """max |U_n U_n^* - I| over a batch of square matrices, formed on every call."""
    return float(np.abs(np.einsum("nij,nkj->nik", U, U.conj()) - np.eye(U.shape[-1])).max())


# -- the class-I table kernel -------------------------------------------------


def class_i_mask(blocks: np.ndarray, k: int) -> np.ndarray:
    """Zero every entry outside the leading k x k block (exact, idempotent).

    Accepts a single matrix or a batch with leading dimensions.
    """
    M = np.array(blocks, dtype=complex)
    d = M.shape[-1]
    if M.shape[-2] != d:
        raise ShapeError(f"mask needs square trailing dims, got {M.shape}")
    if require_int(k, "k", least=1) > d:
        raise DomainError(f"k = {k} outside [1, {d}]")
    M[..., k:, :] = 0.0
    M[..., :, k:] = 0.0
    return M


def _check_blocks(domain, blocks: dict, masked: bool) -> dict:
    """Validated blocks, label -> (N, d, d) finite complex array, sorted.

    ``domain.irrep`` checks each label and gives its dimension d and
    invariant count k_inv; masked blocks must vanish outside their leading
    k_inv x k_inv corner (no constraint where k_inv = d).
    """
    out = {}
    for key in sorted(blocks):
        label, d, k, _ = domain.irrep(key)
        B = complex_samples(blocks[key], (domain.size, d, d), f"block {label!r}")
        if masked and k < d and (np.any(B[:, k:, :] != 0.0) or np.any(B[:, :, k:] != 0.0)):
            raise ValidationError(
                f"block {label!r} has support outside its {k}x{k} invariant corner; "
                f"apply class_i_mask"
            )
        out[label] = B
    if not out:
        raise ValidationError("symbol needs at least one block")
    return out


def _check_invertible(domain, blocks: dict) -> None:
    """Every phase block invertible at every node with condition number at
    most 1e8; ConditionError names the first offending label and node.

    A block that is its domain's own irrep table (``domain.irrep(label)[3]``
    itself), read-only and owning its data, passes unchecked: its domain
    made it unitary (``su2_irrep_table`` from exact Euler factors,
    ``homog.ClassIIrrepTable`` by its check to 1e-10 at construction), and
    no write to it or to a base can have changed it since. Every other d x d
    label is first certified by its ``unitarity_defect`` e: if d e <= 1/2,
    then ||B_n B_n^* - I||_2 <= ||B_n B_n^* - I||_F <= d e <= 1/2, so Weyl's
    perturbation bound puts every squared singular value of B_n in
    [1/2, 3/2], every condition number is at most sqrt(3), and the label
    passes (a nan e fails the test). A label this does not certify goes to
    the per-node SVD, which gives every verdict and message.
    """
    for label, B in blocks.items():
        if B is domain.irrep(label)[3] and B.base is None and not B.flags.writeable:
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow goes to the SVD
            defect = unitarity_defect(B)
        if B.shape[-1] * defect <= 0.5:
            continue
        s = np.linalg.svd(B, compute_uv=False)
        smin = s[:, -1].min()
        if smin <= 0.0 or not np.isfinite(smin):
            node = int(s[:, -1].argmin())
            raise ConditionError(f"phase block {label!r} is singular at node {node}")
        cond = float((s[:, 0] / s[:, -1]).max())
        if cond > _PHASE_COND_CAP:
            node = int((s[:, 0] / s[:, -1]).argmax())
            raise ConditionError(
                f"phase block {label!r} has condition {cond:.3e} at node "
                f"{node}, above the cap {_PHASE_COND_CAP:.1e}"
            )


def _table_fourier(f_values: np.ndarray, weights: np.ndarray, T: np.ndarray) -> np.ndarray:
    """fhat = sum_n w_n f_n T_n^*, the matrix Fourier coefficient for table T,
    taken as the conjugate of sum_n conj(w_n f_n) T_n^T: conjugation is exact,
    so this is the same sum without conjugating the whole (N, d, d) table."""
    f = np.asarray(f_values, dtype=complex).reshape(-1)
    if f.shape[0] != weights.shape[0]:
        raise ShapeError(f"function has {f.shape[0]} samples, quadrature {weights.shape[0]}")
    return np.einsum("n,nji->ij", (weights * f).conj(), T).conj()


def group_fourier(f_values: np.ndarray, domain, label) -> np.ndarray:
    """fhat(l) = sum_n w_n f_n t_l(x_n)^*, the matrix Fourier coefficient."""
    return _table_fourier(f_values, domain.weights, domain.irrep(label)[3])


# -- matrix-valued phases and symbols ----------------------------------------


@dataclass(frozen=True, eq=False)
class GroupSymbol:
    """Matrix symbol a(x, l): one (N, d_l, d_l) block per label of its domain.

    The domain is a ``GroupQuadrature`` (labels twoL, every block full) or a
    ``homog.ClassIIrrepTable`` (symbols on G/K, each block supported on its
    leading k_inv x k_inv corner).

    A block of node stride 0, such as the read-only view
    ``np.broadcast_to(C, (N, d, d))``, is the one matrix C at every node:
    ``group_matrix`` then forms no per-node product Phi(x, l) C but
    right-multiplies that label's node sums by C once.
    """

    domain: object
    blocks: dict
    _masked = True  # class attribute: symbols live on the invariant corner

    def __post_init__(self):
        object.__setattr__(self, "blocks", _check_blocks(self.domain, self.blocks, self._masked))

    @property
    def labels(self) -> list:
        return sorted(self.blocks)


@dataclass(frozen=True, eq=False)
class GroupPhase(GroupSymbol):
    """Phase blocks Phi(x, l): full (unmasked) blocks, each invertible with
    condition number at most 1e8, checked at construction node by node.

    A block that is the domain's own read-only irrep table t_l(x), such as
    each block of ``identity_phase``, passes unchecked: the domain already
    made it unitary. A d x d label whose ``unitarity_defect`` is at most
    1/(2d) passes at once (Phi Phi^* is then within 1/2 of the identity in
    Frobenius norm at every node, so its condition numbers are at most
    sqrt(3)). Any other label falls back to a per-node SVD
    (``_check_invertible``).
    """

    _masked = False

    def __post_init__(self):
        super().__post_init__()
        _check_invertible(self.domain, self.blocks)


def identity_phase(quad: GroupQuadrature, cutoff_twoL: int) -> GroupPhase:
    """Phi(x, l) = t_l(x): the phase that makes the FIO a plain Fourier
    multiplier modulo the symbol."""
    cutoff = require_int(cutoff_twoL, "cutoff_twoL", least=0)
    return GroupPhase(quad, {t: su2_irrep_table(quad, t) for t in range(cutoff + 1)})


def _pair_tables(what: str, Phi: GroupPhase, a: GroupSymbol) -> dict:
    """Representation tables, label -> (N, d, d), of a phase and a symbol on one domain and label set."""
    if Phi.domain is not a.domain:
        raise ValidationError(f"{what}: phase and symbol use different quadratures or tables")
    if Phi.labels != a.labels:
        raise ValidationError(f"{what}: phase labels {Phi.labels} differ from symbol labels {a.labels}")
    return {label: a.domain.irrep(label)[3] for label in a.labels}


def group_fio_apply(Phi: GroupPhase, a: GroupSymbol, f_values: np.ndarray) -> np.ndarray:
    """(Ff)(x) = sum_l d_l Tr[Phi(x,l) a(x,l) fhat(l)] at every node; the
    labels are added onto zero in sorted order."""
    tables = _pair_tables("group_fio_apply", Phi, a)
    weights, f = a.domain.weights, np.asarray(f_values, dtype=complex).reshape(-1)
    return sum(
        T.shape[1] * np.einsum("nij,njk,ki->n", Phi.blocks[label], a.blocks[label], _table_fourier(f, weights, T))
        for label, T in tables.items()
    )


def group_nuclear_trace(Phi: GroupPhase, a: GroupSymbol) -> complex:
    """Haar integral of sum_l d_l Tr[t_l(x)^* Phi(x,l) a(x,l)]."""
    tables = _pair_tables("group_nuclear_trace", Phi, a)
    parts = []
    for label, T in tables.items():
        v = np.einsum("nji,njk,nki->n", T.conj(), Phi.blocks[label], a.blocks[label])
        parts.append(T.shape[1] * complex(ksum(a.domain.weights * v)))
    return complex(ksum(np.asarray(parts)))


def group_symbol_from_decomposition(Phi: GroupPhase, d: RankOneSequence) -> GroupSymbol:
    """a(x, l) = mask_k [ Phi(x, l)^{-1} sum_k h_k(x) (F conj(g_k))(l)^* ].

    With this symbol the operator's kernel is sum_k h_k(x) g_k(y) (no
    conjugate on g in the kernel; the conjugations inside the transform and
    the adjoint cancel). The factors are fields on the phase's domain. The
    mask to the k_inv x k_inv corner removes nothing on a group (k_inv = d).
    """
    for grid in (d.h_grid, d.g_grid):
        require_same_grid(grid, Phi.domain, "group_symbol_from_decomposition")
    domain, blocks = Phi.domain, {}
    for label, dim, k, T in map(domain.irrep, Phi.labels):
        S = np.zeros((domain.size, dim, dim), dtype=complex)
        for h, g in d.terms:
            ghat = _table_fourier(np.conj(g.values), domain.weights, T)
            S += h.values[:, None, None] * ghat.conj().T[None, :, :]
        S = np.linalg.solve(Phi.blocks[label], S)  # drop the right-hand side before the mask copies
        blocks[label] = class_i_mask(S, k)
    return GroupSymbol(domain, blocks)


# Quadrature nodes per contracted chunk: a chunk's real operands are
# (_MATRIX_NODES, 2 dim) and (_MATRIX_NODES, 4 dim). At cutoff 3 on 8192
# nodes 64 keeps the tracemalloc peak at 0.6 MB.
_MATRIX_NODES = 64


def group_matrix(Phi: GroupPhase, a: GroupSymbol) -> np.ndarray:
    """Dense matrix of the operator on the band-limited Peter-Weyl basis.

    Basis functions sqrt(d_l) t_l(x)_{ij} for every carried label, ordered by
    (twoL, i, j); entries are quadrature inner products <F e_c, e_r>. For the
    identity phase with identity symbol this is the identity on a space of
    dimension sum d_l^2.

    With B the (N, dim) basis values, A = w conj(B) and P_l = Phi(x,l) a(x,l),
    M[r, c] = sum_l d_l sum_{i,k} G_l[r,i,k] conj(H_l[c,i,k]) for the node
    sums G_l[r] = sum_n A[n,r] P_l(x_n) and H_l[c] = sum_n A[n,c] t_l(x_n):
    the basis column's Fourier coefficient fhat_l[c] = sum_n w_n B[n,c]
    t_l(x_n)^* is H_l[c]^*. The nodes are walked in chunks. One real dgemm
    per chunk, on one OpenBLAS thread (``numerics._one_blas_thread``, so the
    bits follow no thread count), contracts [Re A, Im A] with [Re Q, Im Q],
    Q = [P, t] over all labels, and the chunk's (2 dim, 4 dim) sum goes to
    one compensated sum over the chunks in ascending order: blocked
    summation with compensated block sums. A label whose symbol block is one
    matrix C_l at every node (node stride 0, see ``GroupSymbol``) forms no
    P_l: Q takes Phi's rows, and G_l C_l is formed once, when the labels are
    combined after the node loop. Basis values are formed from the cached
    tables chunk by chunk, never as a whole (N, dim) array. The entries
    match one operator application per column with one compensated sum per
    entry to a few ulps, not bit for bit.
    """
    weights, tables = a.domain.weights, _pair_tables("group_matrix", Phi, a)
    dims = [T.shape[1] for T in tables.values()]
    dim = sum(d * d for d in dims)
    constant = {label: a.blocks[label].strides[0] == 0 for label in tables}
    acc = KahanSum((2 * dim, 4 * dim), float)
    with _one_blas_thread():
        for n0 in range(0, a.domain.size, _MATRIX_NODES):
            rows = slice(n0, n0 + _MATRIX_NODES)
            m = weights[rows].shape[0]
            t = [T[rows].reshape(m, -1) for T in tables.values()]
            A = weights[rows, None] * np.conj(np.concatenate([np.sqrt(d) * tl for d, tl in zip(dims, t)], axis=1))
            P = []
            for label in tables:
                Pl = Phi.blocks[label][rows]
                if not constant[label]:
                    Pl = np.einsum("nij,njk->nik", Pl, a.blocks[label][rows])
                P.append(Pl.reshape(m, -1))
            Q = np.concatenate(P + t, axis=1)
            left, right = np.concatenate([A.real, A.imag], axis=1), np.concatenate([Q.real, Q.imag], axis=1)
            acc.add((left.T @ right)[None])
    S = acc.value  # rows Re A | Im A, columns Re Q | Im Q
    GH = (S[:dim, : 2 * dim] - S[dim:, 2 * dim :]) + 1j * (S[:dim, 2 * dim :] + S[dim:, : 2 * dim])
    M, q = np.zeros((dim, dim), dtype=complex), 0
    for label, d in zip(tables, dims):
        G, H = GH[:, q : q + d * d], GH[:, dim + q : dim + q + d * d]
        if constant[label]:
            G = np.einsum("rij,jk->rik", G.reshape(dim, d, d), a.blocks[label][0]).reshape(dim, d * d)
        M += d * np.einsum("rq,cq->rc", G, H.conj())
        q += d * d
    return M


# -- the torus as the abelian instance ---------------------------------------


def torus_symbol_from_decomposition(
    phase: PhaseSpec, d, cutoff: int, x_grid: UniformGrid
) -> SampledSymbol:
    """a(x, l) = e^{-i phi(x,l)} sum_k h_k(x) (F_T g_k)(-l).

    d is a rank-one decomposition whose factors are fields on the periodic
    grid; the character form of the compact-group synthesis (the conjugate
    pair in (F conj(g))(l)^* collapses to evaluating the plain transform at
    the negated frequency).
    """
    for grid in (d.h_grid, d.g_grid):
        require_same_grid(grid, x_grid, "torus_symbol_from_decomposition")
    # the transform checks x_grid against the window before any window-sized array exists
    return _abelian_synthesis(phase, d, x_grid, LatticeWindow(getattr(x_grid, "dim", 1), cutoff))


def torus_nuclear_trace(phase: PhaseSpec, a: SampledSymbol) -> complex:
    """int_T sum_l e^{i(phi - 2*pi*x.l)} a(x,l) dx, single-difference exponent."""
    LatticeWindow.check_grid(a.freq, a.space, "torus x_count")
    return _abelian_trace(phase, a)


def torus_matrix(phase: PhaseSpec, a: SampledSymbol) -> np.ndarray:
    """Operator matrix on Fourier coefficients, M[l', l] = int e^{-2*pi*i*x.l'}
    e^{i phi(x,l)} a(x,l) dx. Column l is an FFT over the x grid, within
    1e-13 * max|a| of the per-entry sums; the diagonal is the trace terms'
    compensated sum over x, so the constant symbol's diagonal is exactly 1
    (see ``euclid._abelian_matrix``)."""
    LatticeWindow.check_grid(a.freq, a.space, "torus x_count")
    return _abelian_matrix(phase, a)
