"""Quadrature Fourier transforms, Lebesgue and mixed norms, dense spectra.

The Fourier convention is exp(-2*pi*i*x.xi) forward, exp(+2*pi*i*x.xi)
inverse, with plain quadrature sums over the supplied grids. Transforms are
therefore only as good as the grids: the caller picks boxes large enough for
decay and fine enough for the oscillation (downstream modules validate the
latter for sampled phases). A transform between two grids whose nodes sit
at whole steps from 0, with steps that multiply to 1/N on every axis (a
window against any torus, boxes with power-of-two steps against each
other, steps 1/20 against 1/10), is one FFT: the values go in at their
index offsets mod N, so no twiddle factor is formed. Each step is exact, a
ratio of integers formed from the float ends of its axis. Every other pair
is a compensated sum over a ``characters`` table: on dyadic grids (every
node an integer over a power of two) a gather from a cached table of roots
of unity, elsewhere ``np.exp``. This module owns the package's only
``np.fft`` calls.
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
    "character_sum",
    "dft_forward",
    "dft_inverse",
    "lp_norm",
    "mixed_norm",
    "hausdorff_young_ratio",
    "dense_eigenvalues",
    "factored_eigenvalues",
    "matrix_trace",
]

# Output-node chunk width of a character-sum transform: its character table
# holds ``_CHUNK`` output nodes against every source node, whatever the column
# count.
_CHUNK = 1024

# Row-block height of the row-blocked passes over a symbol (the abelian
# bodies of ``euclid`` and ``mixed_norm``).
_ROW_CHUNK = 256

# Dyadic character tables gather from the M-th roots of unity, M = 2^(s+t) at
# most 2^_ROOTS_BITS (a table of at most 1 MB); an FFT transform pads each
# column to at most 2^_ROOTS_BITS entries, or to the larger grid's size.
_ROOTS_BITS = 16


def _row_blocks(n: int, unit: int = 1):
    """Consecutive row slices covering range(n) in order, each a whole number
    of ``unit``-row slabs and about ``_ROW_CHUNK`` rows (at least one slab)."""
    step = max(1, _ROW_CHUNK // unit) * unit
    for s in range(0, n, step):
        yield slice(s, min(s + step, n))


@functools.cache
def _roots(M: int) -> np.ndarray:
    """The M-th roots of unity e^{2*pi*i k/M}, k < M, for M a power of two.

    Only the first quadrant is evaluated; the second is its exact reflection
    and the lower half-circle the exact negation of the upper, so
    R[M - k] = conj(R[k]), and the quarter turns are set exactly. Cached and
    read-only.
    """
    n = max(M, 4)
    k = np.arange(n // 4 + 1)
    quadrant = np.exp(2j * np.pi * k / n)
    R = np.empty(n, dtype=complex)
    R[n // 2 - k] = -np.conj(quadrant)
    R[k] = quadrant
    R[n // 2 :] = -R[: n // 2]
    R[:: n // 4] = (1.0, 1j, -1.0, -1j)
    R = R[:: n // M]
    R.flags.writeable = False
    return R


def _dyadic_bits(v: np.ndarray):
    """The least s <= ``_ROOTS_BITS`` with every entry of v * 2^s an integer,
    or None.

    Read off the binary expansion: a nonzero v = mant * 2^e has its lowest
    set bit at 2^(e - 53 + z), z the trailing zero bits of the 53-bit
    integer mant * 2^53, so v * 2^s is an integer iff s >= 53 - e - z.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        return None
    mant, e = np.frexp(v[v != 0.0])
    m = np.abs(mant * 2.0**53).astype(np.int64)
    z = np.frexp((m & -m).astype(float))[1] - 1
    s = max(0, int((53 - e - z).max(initial=0)))
    return s if s <= _ROOTS_BITS else None


def characters(rows: np.ndarray, cols: np.ndarray, sign: float) -> np.ndarray:
    """The table e^{sign*2*pi*i rows_p.cols_j}, shape (len(rows), len(cols)).

    ``rows`` and ``cols`` are node arrays of shape (n, dim). Where every row
    node is a/2^s and every column node b/2^t for integers a, b, with
    M = 2^(s+t) at most 2^_ROOTS_BITS and sign +-1, each rows_p.cols_j is an
    exact multiple of 1/M: the table is gathered from the cached M-th roots
    of unity at (sign * a.b) mod M, the index formed in int64 from sign * a
    and b reduced mod M (so nothing overflows) and summed over the axes. That
    table is exact at quarter turns and carries no |theta|*eps argument
    error. Any other grid gets ``np.exp(sign*2j*np.pi*(rows @ cols.T))``.
    """
    s = _dyadic_bits(rows) if sign in (1.0, -1.0) else None
    t = None if s is None else _dyadic_bits(cols)
    if t is None or s + t > _ROOTS_BITS:
        return np.exp(sign * 2j * np.pi * (rows @ cols.T))
    M = 2 ** (s + t)
    a = np.mod(sign * rows * 2.0**s, M).astype(np.int64)
    b = np.mod(cols * 2.0**t, M).astype(np.int64)
    index = a @ b.T  # integer matmul, exact: each product is below M^2 <= 2^32
    index &= M - 1
    return _roots(M).take(index)


def character_sum(values: np.ndarray, rows: np.ndarray, cols: np.ndarray, sign: float) -> np.ndarray:
    """sum_p values_p e^{sign*2*pi*i rows_p.cols_j} for every j, ascending in p.

    The transform kernel of every grid pair that ``_fft_sizes`` turns down
    (quadrature transforms on R^n boxes whose steps are not commensurate,
    with the weights folded into the values), and the oracle of the FFT path
    on dyadic pairs. ``values`` has shape (n,) or (n, k); the result has shape
    (len(cols),) or (len(cols), k). The table of ``characters`` is formed
    once for all k columns, and one compensated sum takes the source rows
    values_p * E_p one at a time; it is elementwise over the trailing axes,
    so column c carries the bits of ``character_sum(values[:, c], ...)``.
    """
    E = characters(rows, cols, sign)
    acc = KahanSum(E.shape[1:] + values.shape[1:], complex)
    if values.ndim == 1:
        return acc.add(v * e for v, e in zip(values, E)).value
    return acc.add(v[None, :] * e[:, None] for v, e in zip(values, E)).value


def _whole_steps(grid):
    """(A, (p, q)) per axis, every node at x_m = (A + m) h for integers A
    and the step h = p/q in lowest terms, or None. The step is exact:
    h = (hi - lo)/(count - 1), or (hi - lo)/count on a periodic axis, as a
    ratio of integers formed from the float ends; an axis qualifies wherever
    lo/h is an integer, whatever its float nodes round to. A window has
    A = -radius and h = 1."""
    if isinstance(grid, LatticeWindow):
        return [(-grid.radius, (1, 1))] * grid.dim
    steps = []
    for lo, hi, count in grid.axes:
        (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
        p, q = c * b - a * d, b * d * (count if grid.periodic else count - 1)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        A, r = divmod(a * q, b * p)  # lo/h = (a/b)(q/p)
        if r:
            return None
        steps.append((A, (p, q)))
    return steps


def _fft_sizes(from_grid, to_grid):
    """The DFT length N_a of every axis, with h_a h'_a = 1/N_a exactly for
    the steps of ``_whole_steps``: every window against a torus (N_a its
    count), boxes whose steps are powers of two, and other boxes whose steps
    multiply to a unit fraction (1/20 by 1/10: N_a = 200). None for other
    pairs, or where prod N_a, the FFT array's length per column, exceeds
    both the larger grid's size and 2^_ROOTS_BITS."""
    src, dst = _whole_steps(from_grid), _whole_steps(to_grid)
    if src is None or dst is None:
        return None
    ratios = [(p * pp, q * qp) for (_, (p, q)), (_, (pp, qp)) in zip(src, dst)]  # h h' = p/q
    sizes = tuple(q // p for p, q in ratios)
    if any(q % p for p, q in ratios) or math.prod(sizes) > max(2**_ROOTS_BITS, from_grid.size, to_grid.size):
        return None
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


def _fft_sum(values: np.ndarray, from_grid, to_grid, sign: float, sizes: tuple) -> np.ndarray:
    """``character_sum`` over the nodes of a pair that ``_fft_sizes`` accepts.

    With x_m = (A + m) h, xi_j = (B + j) h' and h h' = 1/N per axis, the sum
    is the N-point DFT of values_m placed at (A + m) mod N, read at
    (B + j) mod N: no twiddle factor, exact roots for any N. ``values`` is
    (n,) or (n, k), source first. Axis by axis, each column along its own
    lines (so keeping its own bits), the axis is placed (``_wrap``), takes
    one ``fft`` (``ifft`` unscaled for sign +1) and is read at its output
    nodes. Per entry the result is within c * eps * log2(prod N) *
    sum |values| of the exact sum for a small c (Bailey and Swarztrauber,
    SIAM Rev. 33, 1991); the tests hold it to c = 1.
    """
    a = values.reshape(from_grid.shape + (-1,))
    plan = zip(_whole_steps(from_grid), _whole_steps(to_grid), sizes, to_grid.shape)
    for ax, ((A, _), (B, _), N, m) in enumerate(plan):
        a = _wrap(a, ax, A, N)
        a = np.fft.fft(a, axis=ax) if sign < 0 else np.fft.ifft(a, axis=ax, norm="forward")
        a = a[(slice(None),) * ax + (np.arange(B, B + m) % N,)]  # no C-order copy, as ``take`` makes
    return a.reshape((to_grid.size,) + values.shape[1:])


def _dft(values: np.ndarray, from_grid: UniformGrid, to_grid: UniformGrid, sign: float) -> np.ndarray:
    """The quadrature sum onto ``to_grid``, ``values`` of shape (n,) or (n, k)
    on ``from_grid``, the result (to_grid.size,) or (to_grid.size, k) with
    every column bit-identical to a one-column transform. A commensurate
    pair (``_fft_sizes``) takes one ``_fft_sum``; any other pair goes
    to ``character_sum``, ``_CHUNK`` output nodes at a time. A window on
    either side must pass the pairing rule first (``grids._check_pairing``),
    so no aliasing Z^n-T^n pair is transformed."""
    _check_pairing(from_grid, to_grid)
    if to_grid.dim != from_grid.dim:
        raise ShapeError(f"target grid dim {to_grid.dim} != field dim {from_grid.dim}")
    wsrc = (from_grid.weights * values.T).T
    sizes = _fft_sizes(from_grid, to_grid)
    if sizes is not None:
        return _fft_sum(wsrc, from_grid, to_grid, sign, sizes)
    src, dst = from_grid.nodes, to_grid.nodes
    out = np.empty((to_grid.size,) + values.shape[1:], dtype=complex)
    for s in range(0, to_grid.size, _CHUNK):
        out[s : s + _CHUNK] = character_sum(wsrc, src, dst[s : s + _CHUNK], sign)
    return out


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
        (one FFT on a commensurate pair, such as a window against any torus,
        else one character table), each bit-identical to its own transform.
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
    The symbol is read ``_ROW_CHUNK`` rows at a time: the x-inner norm
    carries one compensated column sum across the blocks in ascending row
    order, the xi-inner norm reduces each block's rows, so the result has the
    bits of the whole-array sums. With p_inner == p_outer == p this factors
    into the 2n-dimensional L^p norm on the product grid (Fubini for the
    product weights).
    """
    p_inner = require_real(p_inner, "p_inner", 1.0, np.inf, include_hi=False)
    p_outer = require_real(p_outer, "p_outer", 1.0, np.inf, include_hi=False)
    if inner not in ("x", "xi"):
        raise ValidationError(f"inner must be 'x' or 'xi', got {inner!r}")
    vals = np.asarray(symbol.values)
    nx, nxi = symbol.space.size, symbol.freq.size
    if vals.shape != (nx, nxi):
        raise ShapeError(f"symbol values {vals.shape} != grid sizes ({nx}, {nxi})")
    wx, wxi = symbol.space.weights, symbol.freq.weights
    if inner == "x":
        acc = KahanSum((nxi,), float)
        for rows in _row_blocks(nx):
            acc.add(wx[rows, None] * np.abs(vals[rows]) ** p_inner)
        t = acc.value ** (1.0 / p_inner)
        return float(ksum(wxi * t**p_outer)) ** (1.0 / p_outer)
    t = np.empty(nx)
    for rows in _row_blocks(nx):
        t[rows] = ksum(wxi[None, :] * np.abs(vals[rows]) ** p_inner, axis=1)
    t **= 1.0 / p_inner
    return float(ksum(wx * t**p_outer)) ** (1.0 / p_outer)


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
