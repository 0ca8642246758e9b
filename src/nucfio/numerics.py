"""Quadrature Fourier transforms, Lebesgue and mixed norms, dense spectra.

The Fourier convention is exp(-2*pi*i*x.xi) forward, exp(+2*pi*i*x.xi)
inverse, with plain quadrature sums over the supplied grids. Transforms are
therefore only as good as the grids: the caller picks boxes large enough for
decay and fine enough for the oscillation (downstream modules validate the
latter for sampled phases). Every transform between uniform grids goes
through one entry point, ``_dft``, which checks the pair, folds in the
source weights and takes the grids axis by axis. Where the nodes of both
grids sit at whole steps from 0 and the steps multiply to 1/N (a window
against any torus, boxes with power-of-two steps against each other,
steps 1/20 against 1/10), the axis is one FFT: the values go in at their
index offsets mod N, so no twiddle factor is formed. Every other axis is a
chirp-z transform, one zero-padded FFT convolution whose pre-, post- and
chirp factors are taken at exact integer phases. All of them read the
nodes one way, ``_exact_axes``: node m of an axis is exactly (u0 + S m)/D
for integers formed from the float ends, so every phase is an exact
multiple of 1/M for an integer M, reduced in integers before a gather
from a cached table of the M-th roots of unity (M at most 2^_ROOTS_BITS)
or one ``exp`` of an argument below 2 pi. The ``characters`` tables of
the phase factors read them so too, with ``np.exp`` of the float products
above the roots' cap. This module owns the package's only ``np.fft``
calls.
"""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path

import numpy as np

from .errors import NumericError, ShapeError, ValidationError, ZeroNormError
from .grids import (
    KahanSum,
    LatticeWindow,
    SampledField,
    UniformGrid,
    _check_pairing,
    ksum,
    require_real,
    require_same_grid,
)

__all__ = [
    "characters",
    "dft_forward",
    "dft_inverse",
    "lp_norm",
    "mixed_norm",
    "hausdorff_young_ratio",
    "dense_eigenvalues",
    "factored_eigenvalues",
    "matrix_trace",
]

# Row-block height of the row-blocked passes over a symbol (the abelian
# bodies of ``euclid`` and ``mixed_norm``).
_ROW_CHUNK = 256

# Character tables and chirp-z factors gather from the M-th roots of unity,
# M at most 2^_ROOTS_BITS (a table of at most 1 MB); the commensurate axes
# of a transform pad each column to at most 2^_ROOTS_BITS entries, or to the
# larger grid's size.
_ROOTS_BITS = 16

# Roots tables kept at once: M is any common denominator of a grid pair, so
# a sweep over grid counts would otherwise keep one table per count.
_ROOTS_CACHED = 32


def _row_blocks(n: int, unit: int = 1):
    """Consecutive row slices covering range(n) in order, each a whole number
    of ``unit``-row slabs and about ``_ROW_CHUNK`` rows (at least one slab)."""
    step = max(1, _ROW_CHUNK // unit) * unit
    for s in range(0, n, step):
        yield slice(s, min(s + step, n))


@functools.lru_cache(maxsize=_ROOTS_CACHED)
def _roots(M: int) -> np.ndarray:
    """The M-th roots of unity e^{2*pi*i k/M}, k < M: every (n/M)-th n-th
    root, n = M if 4 divides M else 4M, of which only the first quadrant is
    evaluated; the second is its exact reflection and the lower half-circle
    the exact negation of the upper, so R[M - k] = conj(R[k]), and the
    quarter turns are set exactly. (2*pi*k)/n scales exactly with k and n,
    so ``_roots(2M)[::2]`` is ``_roots(M)`` bit for bit. Cached, read-only."""
    n = M if M % 4 == 0 else 4 * M
    k = np.arange(n // 4 + 1)
    quadrant = np.exp(2j * np.pi * k / n)
    R = np.empty(n, dtype=complex)
    R[n // 2 - k] = -np.conj(quadrant)
    R[k] = quadrant
    R[n // 2 :] = -R[: n // 2]
    R[:: n // 4] = (1.0, 1j, -1.0, -1j)
    R = R[:: n // M].copy()
    R.flags.writeable = False
    return R


def _exact_axes(domain) -> list:
    """Per axis the integers (u0, S, D), gcd 1 and D > 0, with node m
    exactly (u0 + S m)/D whatever its float rounds to, from the float ends
    (``as_integer_ratio``) and the exact step: (hi - lo)/(count - 1), or
    (hi - lo)/count on a periodic axis. A window is (-radius, 1, 1)."""
    if isinstance(domain, LatticeWindow):
        return [(-domain.radius, 1, 1)] * domain.dim
    axes = []
    for lo, hi, count in domain.axes:
        (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
        steps = count if domain.periodic else count - 1
        u0, S, D = a * d * steps, c * b - a * d, b * d * steps
        g = math.gcd(u0, S, D)
        axes.append((u0 // g, S // g, D // g))
    return axes


def _numerators(domain, axes: list, scale: list, M: int, nodes: slice) -> np.ndarray:
    """Per axis a, the int64 (u0 + S m) scale_a mod M of the flat nodes
    ``nodes``, with u0 scale_a and S scale_a reduced mod M as Python ints."""
    steps = zip(axes, scale, domain.shape)
    per_axis = [(u0 * c % M + S * c % M * (np.arange(n) % M)) % M for (u0, S, _), c, n in steps]
    index = np.unravel_index(np.arange(domain.size)[nodes], domain.shape)
    return [u[i] for u, i in zip(per_axis, index)]


def characters(row_domain, col_domain, sign: float, rows: slice = slice(None)):
    """The table e^{sign*2*pi*i x_p.xi_j} of the nodes x_p of
    ``row_domain.nodes[rows]`` against every xi_j of ``col_domain.nodes``.

    With node m exactly (u0 + S m)/D per axis (``_exact_axes``), x_p.xi_j is
    an exact multiple of 1/M, M = lcm over the axes of D D'. For sign +-1
    and M at most 2^_ROOTS_BITS the table is gathered from the cached M-th
    roots of unity at k = sum_a (sign u_a) t_a M/(D_a D'_a) mod M, u_a and
    t_a the nodes' numerators: exact at quarter turns, with no |theta|*eps
    argument error. Otherwise it is ``np.exp(sign*2j*np.pi*(x @ xi.T))``.
    """
    row_axes, col_axes = _exact_axes(row_domain), _exact_axes(col_domain)
    dens = [D * E for (_, _, D), (_, _, E) in zip(row_axes, col_axes)]
    M = math.lcm(*dens)
    if M > 2**_ROOTS_BITS or sign not in (1.0, -1.0):
        return np.exp(sign * 2j * np.pi * (row_domain.nodes[rows] @ col_domain.nodes.T))
    u = _numerators(row_domain, row_axes, [int(sign) * M // d for d in dens], M, rows)
    t = _numerators(col_domain, col_axes, [1] * len(dens), M, slice(None))
    index = u[0][:, None] * t[0]  # exact in int64: each product is below M^2 <= 2^32
    for ua, ta in zip(u[1:], t[1:]):
        index += ua[:, None] * ta
    if M & (M - 1):
        index %= M
    else:
        index &= M - 1
    return _roots(M).take(index)


def _fft_sizes(from_grid, to_grid) -> tuple:
    """Per axis the DFT length N_a where the nodes of both grids sit at whole
    steps from 0 (S divides u0 in ``_exact_axes``, so the step S/D is in
    lowest terms) and h_a h'_a = 1/N_a exactly: every window against a
    torus (N_a its count), boxes whose steps are powers of two, and boxes
    whose steps multiply to a unit fraction (1/20 by 1/10: N_a = 200). None
    on every other axis, and on every axis where the product of the N_a, the
    FFT array's length per column, exceeds both the larger grid's size and
    2^_ROOTS_BITS: those axes take the chirp-z transform."""
    sizes = tuple(
        None if u0 % S or v0 % T or (D * E) % (S * T) else D * E // (S * T)
        for (u0, S, D), (v0, T, E) in zip(_exact_axes(from_grid), _exact_axes(to_grid))
    )
    if math.prod(N for N in sizes if N) > max(2**_ROOTS_BITS, from_grid.size, to_grid.size):
        return (None,) * len(sizes)
    return sizes


def _wrap(a: np.ndarray, ax: int, A: int, N: int) -> np.ndarray:
    """Axis ``ax`` of a with node m at index (A + m) mod N of N: zero-padded
    to a multiple of N, its N-blocks summed in ascending order by a
    compensated sum, rolled by A; not copied if already in place."""
    n = a.shape[ax]
    if n % N:
        a = np.pad(a, [(0, -n % N if i == ax else 0) for i in range(a.ndim)])
    if a.shape[ax] > N:  # e^{2 pi i m j / N} has period N in m: fold the axis onto N nodes
        a = ksum(a.reshape(a.shape[:ax] + (-1, N) + a.shape[ax + 1 :]), axis=ax)
    return np.roll(a, A % N, axis=ax) if A % N else a


def _chirp(c2: int, c1: int, c0: int, M: int, n: int) -> np.ndarray:
    """e^{2*pi*i (c2 k^2 + c1 k + c0)/M} for k < n at the exact integer phase
    r = (c2 k^2 + c1 k + c0) mod M: over the lowest-terms modulus, with the
    coefficients reduced mod M as Python ints, then int64 products of
    reduced factors, each below M^2 <= 2^62 (Python ints for M above 2^31).
    A gather from ``_roots(M)`` where M is at most 2^_ROOTS_BITS, else one
    exp of 2*pi*r/M, an argument below 2*pi."""
    g = math.gcd(c2, c1, c0, M)
    M //= g
    c2, c1, c0 = (c // g % M for c in (c2, c1, c0))
    k = np.arange(n) if M <= 2**31 else np.arange(n).astype(object)
    r = (c2 * (k * k % M) + c1 * k + c0) % M
    if M <= 2**_ROOTS_BITS:
        return _roots(M).take(r)
    return np.exp(2j * np.pi * (r / M).astype(float))


def _smooth_length(m: int) -> int:
    """The least 2^a 3^b 5^c at least m: an FFT length that pocketfft takes
    in radix-2, 3 and 5 passes only, and often well below the next power of
    two (800 for 769)."""
    best, p5 = 1 << (m - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp_axis(a: np.ndarray, ax: int, src: tuple, dst: tuple, m_out: int, sign: float) -> np.ndarray:
    """Axis ``ax`` of a summed onto m_out output nodes by a chirp-z
    transform (Bluestein, IEEE Trans. Audio Electroacoust. 18, 1970).

    With x_m = (u0 + S m)/D and xi_j = (v0 + T j)/E (``src`` and ``dst``,
    from ``_exact_axes``) and m j = (m^2 + j^2 - (j - m)^2)/2, the phase
    sign x_m xi_j is [pre(m) + post(j) - c(j - m)]/M turns, M = 2 D E, for
    the integers pre(m) = sign (S T m^2 + 2 S v0 m), post(j) = sign (S T j^2
    + 2 u0 T j + 2 u0 v0) and c(k) = sign S T k^2, each factor a ``_chirp``.
    The sum over m is then one linear convolution with e^{-2*pi*i c(k)/M},
    k from 1 - n to m_out - 1: one FFT of length L >= n + m_out - 1 (the
    least 5-smooth one, ``_smooth_length``) along the axis, zero-padded, for
    every column at once, each along its own lines."""
    (u0, S, D), (v0, T, E) = src, dst
    n, M, s = a.shape[ax], 2 * D * E, int(sign)
    L = _smooth_length(n + m_out - 1)
    c = _chirp(-s * S * T, 0, 0, M, max(n, m_out))
    kernel = np.zeros(L, dtype=complex)
    kernel[:m_out] = c[:m_out]
    kernel[L - n + 1 :] = c[n - 1 : 0 : -1]  # k = 1 - n .. -1 at L + k
    line = (-1,) + (1,) * (a.ndim - ax - 1)
    pre = _chirp(s * S * T, 2 * s * S * v0, 0, M, n).reshape(line)
    post = _chirp(s * S * T, 2 * s * u0 * T, 2 * s * u0 * v0, M, m_out).reshape(line)
    F = np.fft.fft(a * pre, n=L, axis=ax)
    F *= np.fft.fft(kernel).reshape(line)
    return np.fft.ifft(F, axis=ax)[(slice(None),) * ax + (slice(m_out),)] * post


def _dft(values: np.ndarray, from_grid: UniformGrid, to_grid: UniformGrid, sign: float) -> np.ndarray:
    """The quadrature sum sum_p w_p values_p e^{sign*2*pi*i x_p.xi_j} over
    the nodes x_p of ``from_grid``, weights w_p, for every xi_j of
    ``to_grid``: ``values`` is (n,) or (n, k), source first, the result
    (to_grid.size,) or (to_grid.size, k), and each column is summed along
    its own lines, so it keeps the bits of its own transform. A window on
    either side must pass the pairing rule first (``grids._check_pairing``),
    so no aliasing Z^n-T^n pair is transformed.

    An axis with a length N in ``_fft_sizes`` has x_m = (A + m) h and xi_j
    = (B + j) h' (A = u0/S and B = v0/T of ``_exact_axes``) with h h' =
    1/N: the N-point DFT of values_m placed at (A + m) mod N, read at (B +
    j) mod N, with no twiddle factor and exact roots for any N. The axis is
    placed (``_wrap``), takes one ``fft`` (``ifft`` unscaled for sign +1)
    and is read at its output nodes. Any other axis takes ``_chirp_axis``.
    Per entry the result is within c * eps * log2(prod L) * sum |w values|
    of the exact sum, L the N or the chirp-z FFT length of each axis, for a
    small c (Bailey and Swarztrauber, SIAM Rev. 33, 1991); the tests hold
    it to c = 1.
    """
    _check_pairing(from_grid, to_grid)
    if to_grid.dim != from_grid.dim:
        raise ShapeError(f"target grid dim {to_grid.dim} != field dim {from_grid.dim}")
    a = (from_grid.weights * values.T).T.reshape(from_grid.shape + (-1,))
    plan = zip(_exact_axes(from_grid), _exact_axes(to_grid), _fft_sizes(from_grid, to_grid), to_grid.shape)
    for ax, (src, dst, N, m) in enumerate(plan):
        if N is None:
            a = _chirp_axis(a, ax, src, dst, m, sign)
            continue
        (u0, S, _), (v0, T, _) = src, dst
        a, B = _wrap(a, ax, u0 // S, N), v0 // T
        a = np.fft.fft(a, axis=ax) if sign < 0 else np.fft.ifft(a, axis=ax, norm="forward")
        a = a[(slice(None),) * ax + (np.arange(B, B + m) % N,)]  # no C-order copy, as ``take`` makes
    return a.reshape((to_grid.size,) + values.shape[1:])


def _transform(fields: SampledField | tuple, grid: UniformGrid, sign: float) -> SampledField | tuple:
    """One ``_dft`` for a field or for a tuple of fields on one grid, whose
    values go in as the columns of one (n, k) array."""
    if isinstance(fields, SampledField):
        return SampledField(grid, _dft(fields.values, fields.grid, grid, sign))
    fields = tuple(fields)
    if not fields:
        raise ValidationError("transform needs at least one field")
    for f in fields[1:]:
        require_same_grid(f.grid, fields[0].grid, "transformed fields")
    out = _dft(np.stack([f.values for f in fields], axis=1), fields[0].grid, grid, sign)
    return tuple(SampledField(grid, out[:, c]) for c in range(len(fields)))


def dft_forward(f: SampledField | tuple, xi_grid: UniformGrid) -> SampledField | tuple:
    """Quadrature Fourier transform, kernel exp(-2*pi*i*x.xi).

    Parameters
    ----------
    f : SampledField or tuple of SampledField
        A tuple must share one grid; its fields are transformed in one pass
        (per axis one FFT where the pair is commensurate, as a window
        against any torus is, else one chirp-z transform: every uniform
        pair), each bit-identical to its own transform.
    xi_grid : UniformGrid or LatticeWindow
        Frequency nodes to evaluate on; must match the dimension of f's grid
        and, where either side is a window, pass ``LatticeWindow.check_grid``.

    Returns
    -------
    SampledField on ``xi_grid``, or a tuple of them, one per input field.
    """
    return _transform(f, xi_grid, -1.0)


def dft_inverse(F: SampledField | tuple, x_grid: UniformGrid) -> SampledField | tuple:
    """Quadrature inverse transform, kernel exp(+2*pi*i*x.xi); takes and
    returns a field or a tuple of fields as ``dft_forward``."""
    return _transform(F, x_grid, +1.0)


def lp_norm(f: SampledField, p: float) -> float:
    """L^p norm of a field over its own domain, p in [1, inf].

    (sum_x w(x) |f(x)|^p)^(1/p) under the domain's weights: quadrature
    weights on grids and Haar quadratures, ones on lattice windows
    (multiplying by 1.0 is exact, so unweighted sums stay plain sums). p = inf
    is the largest sample modulus. The one l^p / L^p norm of every setting.
    """
    if p == np.inf:
        return float(np.abs(f.values).max())
    p = require_real(p, "p", 1.0, np.inf, include_hi=False)
    return float(ksum(f.grid.weights * np.abs(f.values) ** p)) ** (1.0 / p)


def mixed_norm(symbol, inner: str, p_inner: float, p_outer: float) -> float:
    """Iterated quadrature norm of a phase-space symbol.

    Parameters
    ----------
    symbol : SampledSymbol
        Or anything with ``space`` and ``freq`` domains (``size``,
        ``weights``) and ``values`` of shape (space.size, freq.size).
    inner : {'x', 'xi'}
        Which side the inner norm integrates first: 'x' is ``space``.
    p_inner, p_outer : float
        Exponents in [1, inf).

    Returns
    -------
    float

    Notes
    -----
    The inner integral is one compensated sum (``KahanSum``) whose rows are
    the inner side's nodes, read ``_ROW_CHUNK`` at a time: the rows of the
    values for the x-inner norm, their columns for the xi-inner norm. Each
    step is as wide as the outer side, and every outer node sums its inner
    nodes in ascending order, so the result has the bits of the whole-array
    sums. With p_inner == p_outer == p this factors into the 2n-dimensional
    L^p norm on the product grid (Fubini for the product weights).
    """
    p_inner = require_real(p_inner, "p_inner", 1.0, np.inf, include_hi=False)
    p_outer = require_real(p_outer, "p_outer", 1.0, np.inf, include_hi=False)
    if inner not in ("x", "xi"):
        raise ValidationError(f"inner must be 'x' or 'xi', got {inner!r}")
    vals = np.asarray(symbol.values)
    nx, nxi = symbol.space.size, symbol.freq.size
    if vals.shape != (nx, nxi):
        raise ShapeError(f"symbol values {vals.shape} != grid sizes ({nx}, {nxi})")
    w_in, w_out, side = symbol.space.weights, symbol.freq.weights, vals
    if inner == "xi":  # the inner side's nodes are the rows of ``side``
        w_in, w_out, side = w_out, w_in, vals.T
    acc = KahanSum((w_out.size,), float)
    for rows in _row_blocks(w_in.size):
        acc.add(w_in[rows, None] * np.abs(side[rows]) ** p_inner)
    t = acc.value ** (1.0 / p_inner)
    return float(ksum(w_out * t**p_outer)) ** (1.0 / p_outer)


def hausdorff_young_ratio(f: SampledField, p: float, xi_grid: UniformGrid | None = None) -> float:
    """||Ff||_{p'} / ||f||_p for p in [1, 2], p' the conjugate exponent.

    Defaults the frequency grid to the field's own box, which is adequate for
    fields that decay inside it. The ratio is <= 1 + quadrature error for any
    admissible p; p = 2 makes it a Plancherel check.
    """
    p = require_real(p, "p", 1.0, 2.0)
    if xi_grid is None:
        xi_grid = UniformGrid(f.grid.axes, periodic=f.grid.periodic)
    denom = lp_norm(f, p)
    if denom == 0.0:
        raise ZeroNormError("||f||_p = 0, ratio undefined")
    F = dft_forward(f, xi_grid)
    pprime = np.inf if p == 1.0 else p / (p - 1.0)
    return lp_norm(F, pprime) / denom


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when that library or its thread symbols cannot be found."""
    pkg = Path(np.__file__).resolve().parent
    for path in sorted([*pkg.parent.glob("numpy.libs/*openblas*"), *pkg.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


def _eigvals_one_thread(A: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals`` on one OpenBLAS thread, then the old count again.

    zgeev's blocked updates split their sums across threads, so the last
    bits of a spectrum would follow the thread count. Without the bundled
    OpenBLAS symbols it runs unpinned.
    """
    threads = _openblas_threads()
    old = threads[0]() if threads else 1
    if old == 1:
        return np.linalg.eigvals(A)
    threads[1](1)
    try:
        return np.linalg.eigvals(A)
    finally:
        threads[1](old)


def dense_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Full spectrum of a dense square matrix, deterministically ordered.

    Uses LAPACK's Hessenberg reduction + shifted QR iteration (zgeev), on
    one OpenBLAS thread so the bits do not depend on the thread count.
    Eigenvalues are returned in descending modulus; exact modulus ties break
    by ascending principal argument.

    Raises
    ------
    ShapeError
        Non-square or non-2d input.
    ValidationError
        Non-finite entries.
    NumericError
        QR iteration did not converge within LAPACK's internal cap of
        30*n iterations.
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"matrix must be square 2-d, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValidationError("matrix contains non-finite entries")
    try:
        ev = _eigvals_one_thread(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigenvalue QR iteration failed to converge within the LAPACK cap "
            f"of 30*n = {30 * A.shape[0]} iterations: {exc}"
        ) from exc
    order = np.lexsort((np.angle(ev), -np.abs(ev)))
    return ev[order]


def _ksum_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^T B by compensated sums over the shared leading axis, ascending.

    No BLAS call, so the result does not depend on the BLAS thread count.
    """
    return ksum(A[:, :, None] * B[:, None, :], axis=0)


def factored_eigenvalues(H: np.ndarray, GW: np.ndarray) -> np.ndarray:
    """The n eigenvalues of the rank-k product H GW^T, H and GW both n x k.

    AB and BA share their nonzero spectrum (Horn and Johnson, Matrix
    Analysis, Thm 1.3.22), so for k < n the spectrum is that of the k x k
    compression GW^T H, ordered as by ``dense_eigenvalues``, followed by
    n - k exact zeros. For k >= n the n x n product itself is diagonalized.

    Raises
    ------
    ShapeError
        H and GW are not 2-d arrays of one shape.
    ValidationError, NumericError
        As ``dense_eigenvalues``.
    """
    H = np.asarray(H, dtype=complex)
    GW = np.asarray(GW, dtype=complex)
    if H.ndim != 2 or H.shape != GW.shape:
        raise ShapeError(f"factors must be 2-d of one shape, got {H.shape} and {GW.shape}")
    n, k = H.shape
    if k >= n:
        return dense_eigenvalues(_ksum_product(H.T, GW.T))
    ev = dense_eigenvalues(_ksum_product(GW, H))
    return np.concatenate([ev, np.zeros(n - k, dtype=complex)])


def matrix_trace(M: np.ndarray) -> complex:
    """Compensated sum of the diagonal."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"matrix must be square 2-d, got shape {A.shape}")
    return complex(ksum(np.diagonal(A)))
