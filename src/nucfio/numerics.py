"""Quadrature Fourier transforms, Lebesgue and mixed norms, dense spectra.

The Fourier convention is exp(-2*pi*i*x.xi) forward, exp(+2*pi*i*x.xi)
inverse, with plain quadrature sums over the supplied grids. Transforms are
therefore only as good as the grids: the caller picks boxes large enough for
decay and fine enough for the oscillation (downstream modules validate the
latter for sampled phases).
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from .errors import NumericError, ShapeError, ValidationError, ZeroNormError
from .grids import SampledField, UniformGrid, _check_pairing, ksum, require_real, require_same_grid

__all__ = [
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

# Output-node chunk width for transform phase matrices: a transform of k
# columns forms ``_CHUNK // k`` output nodes at a time, so peak memory stays
# near chunk*size complex entries regardless of grid size and column count.
_CHUNK = 1024


def character_sum(values: np.ndarray, rows: np.ndarray, cols: np.ndarray, sign: float) -> np.ndarray:
    """sum_p values_p e^{sign*2*pi*i rows_p.cols_j} for every j, ascending in p.

    The one transform kernel: quadrature transforms on R^n (weights folded
    into the values), the finite transform on Z^n and Fourier coefficients
    on the torus. ``values`` has shape (n,) or (n, k); the result has shape
    (len(cols),) or (len(cols), k). The exponential table is formed once for
    all k columns, and since the compensated sum is elementwise over the
    trailing axes, column c carries the bits of ``character_sum(values[:, c],
    ...)``.
    """
    E = np.exp(sign * 2j * np.pi * (rows @ cols.T))
    if values.ndim == 1:
        return ksum(values[:, None] * E, axis=0)
    return ksum(values[:, None, :] * E[:, :, None], axis=0)


def _dft(values: np.ndarray, from_grid: UniformGrid, to_grid: UniformGrid, sign: float) -> np.ndarray:
    """The quadrature sum onto ``to_grid``, ``values`` of shape (n,) or (n, k)
    on ``from_grid``, the result (to_grid.size,) or (to_grid.size, k) with
    every column bit-identical to a one-column transform. Output nodes go
    ``_CHUNK // k`` at a time. A window on either side must pass the pairing
    rule first (``grids._check_pairing``), so no aliasing Z^n-T^n pair is
    transformed."""
    _check_pairing(from_grid, to_grid)
    if to_grid.dim != from_grid.dim:
        raise ShapeError(f"target grid dim {to_grid.dim} != field dim {from_grid.dim}")
    src, dst = from_grid.nodes, to_grid.nodes
    wsrc = (from_grid.weights * values.T).T
    step = max(1, _CHUNK // (1 if values.ndim == 1 else values.shape[1]))
    out = np.empty((to_grid.size,) + values.shape[1:], dtype=complex)
    for s in range(0, to_grid.size, step):
        out[s : s + step] = character_sum(wsrc, src, dst[s : s + step], sign)
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
        over the exponential table, each bit-identical to its own transform.
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
    With p_inner == p_outer == p this factors into the 2n-dimensional L^p
    norm on the product grid (Fubini for the product weights).
    """
    p_inner = require_real(p_inner, "p_inner", 1.0, np.inf, include_hi=False)
    p_outer = require_real(p_outer, "p_outer", 1.0, np.inf, include_hi=False)
    if inner not in ("x", "xi"):
        raise ValidationError(f"inner must be 'x' or 'xi', got {inner!r}")
    vals = np.abs(np.asarray(symbol.values))
    nx, nxi = symbol.space.size, symbol.freq.size
    if vals.shape != (nx, nxi):
        raise ShapeError(f"symbol values {vals.shape} != grid sizes ({nx}, {nxi})")
    wx, wxi = symbol.space.weights, symbol.freq.weights
    if inner == "x":
        t = ksum(wx[:, None] * vals**p_inner, axis=0) ** (1.0 / p_inner)
        return float(ksum(wxi * t**p_outer)) ** (1.0 / p_outer)
    t = ksum(wxi[None, :] * vals**p_inner, axis=1) ** (1.0 / p_inner)
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
    if not np.all(np.isfinite(A.view(float))):
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
