"""Uniform tensor-product grids, lattice windows, sampled fields and symbols,
compensated reductions, and the package's two scalar validators.

Conventions used throughout the package:

* every scalar parameter goes through ``require_int`` (integers: spin labels,
  radii, node and term counts, invariant counts) or ``require_real`` (reals:
  exponents, tau, angles, box ends), and the callee uses the value returned;
  nothing is truncated or coerced, so 2.5, 2.0, True and "2" are rejected
  where an integer is due, and True, "2" and nan where a real is due;
* nodes are enumerated in row-major order (first axis slowest), so a flat
  node index is reproducible from the per-axis index tuple;
* open boxes carry composite-trapezoid weights (interior h, endpoints h/2),
  periodic boxes carry the uniform weight h with the right endpoint omitted;
* quadrature reductions are compensated sums in a fixed order, so repeated
  runs are bit-identical: a reduction along an axis steps through it in
  ascending index order (Kahan), and a reduction to a scalar deals element i
  to lane i mod 1024, adds each lane row to the lanes' totals and their exact
  rounding errors to the lanes' compensations, and folds the lanes in one
  exactly rounded ``math.fsum``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DomainError,
    GridMismatchError,
    ShapeError,
    TruncationError,
    ValidationError,
)

if TYPE_CHECKING:
    from .group import GroupQuadrature

__all__ = [
    "UniformGrid",
    "LatticeWindow",
    "SampledField",
    "SampledSymbol",
    "KahanSum",
    "ksum",
    "interpolate",
    "require_edge_decay",
    "require_same_grid",
    "require_int",
    "require_real",
    "complex_samples",
]

# Relative tolerance for the weight-sum == volume construction invariant.
_VOLUME_RTOL = 1e-12

# A boundary sample above this fraction of the field's peak fails require_edge_decay.
_EDGE_RTOL = 1e-8


# Lane count of the flat compensated sum (see KahanSum).
_LANES = 1024

# Lane rows the flat sum adds per vectorized chunk: a chunk's temporaries are
# 16 rows of 2048 floats (256 KB each) for a complex sum.
_CHUNK_ROWS = 16


class KahanSum:
    """Resumable compensated sum over the leading axis of blocks.

    ``add(block)`` folds axis 0 of ``block`` into the running total. A sum
    taken block by block gives the same bits as one ``add`` of the whole
    stack, so callers can bound memory by feeding chunks.

    * A total of ``shape`` != () is a Kahan sum over axis 0 in ascending
      index order, elementwise over the trailing ``shape``. ``block`` may
      also be any iterable of such rows, a generator say, so a caller can
      feed products row by row without forming their stack.
    * A total of shape () sums the flattened stream across ``_LANES`` lanes:
      element i, counted over every ``add``, goes to lane i mod ``_LANES``.
      Complex values are accumulated real and imaginary apart. The lanes
      advance by one vector add per lane row, in row order, and each row's
      exact rounding error (TwoSum, the error a Neumaier step forms) is
      added to the lanes' compensations in the same order, up to
      ``_CHUNK_ROWS`` rows per pass, so the bits do not depend on how the
      stream is cut into blocks. ``value`` folds the lanes' totals and
      compensations in one exactly rounded ``math.fsum``; if a lane is not
      finite or the fold overflows, it is the IEEE sum of the lane totals
      (inf or nan, as the plain sum would give).

    Parameters
    ----------
    shape : tuple
        Shape of the running total (the trailing shape of every block).
    dtype : numpy dtype
        Accumulator dtype; complex totals are accumulated componentwise.
    """

    def __init__(self, shape=(), dtype=float):
        self.dtype = np.dtype(dtype)
        self.total = np.zeros(shape, dtype=self.dtype)
        self.flat = self.total.ndim == 0
        if self.flat:
            # the lanes hold the float view of the stream: a complex element's
            # parts sit in adjacent lanes, so element i owns lanes 2*(i mod _LANES) + {0, 1}
            width = _LANES * (2 if self.dtype.kind == "c" else 1)
            self.total = np.zeros(width, dtype=np.finfo(self.dtype).dtype)
            self.count = 0  # floats fed so far; the next one goes to lane count mod width
        self.comp = np.zeros_like(self.total)

    def add(self, block) -> "KahanSum":
        if self.flat:
            return self._add_lanes(block)
        total, comp = self.total, self.comp
        for row in block:
            y = row - comp
            t = total + y
            comp = (t - total) - y
            total = t
        self.total, self.comp = total, comp
        return self

    def _add_lanes(self, block) -> "KahanSum":
        x = np.asarray(block)
        if x.dtype.kind == "c" and self.dtype.kind != "c":
            raise ValidationError(f"a complex block cannot be added to a {self.dtype} sum")
        x = np.ascontiguousarray(x, dtype=self.dtype).reshape(-1).view(self.total.dtype)
        width, n = self.total.shape[0], x.shape[0]
        lane = self.count % width
        self.count += n
        i = 0
        while i < n:
            # a partial row stays at its lane offset; whole rows go _CHUNK_ROWS at a time
            k = min(width - lane, n - i)
            rows = 1 if k < width else min(_CHUNK_ROWS, (n - i) // width)
            self._add_rows(slice(lane, lane + k), x[i : i + rows * k].reshape(rows, k))
            i, lane = i + rows * k, 0
        return self

    def _add_rows(self, lanes: slice, x: np.ndarray) -> None:
        """The rows of ``x`` added to ``lanes`` in order. The totals advance
        by one add per row; then every row's rounding error, the exact
        s + x - t, is formed at once by TwoSum (Knuth, TAOCP 2, 4.2.2):
        z = t - s, e = (s - (t - z)) + (x - z), and folded into ``comp`` one
        row at a time. Neumaier's branch on |s| >= |x| gives the same error
        on every finite lane; a lane whose total is not finite keeps a
        ``comp`` that ``value`` never reads."""
        T = np.empty((x.shape[0] + 1, x.shape[1]), dtype=x.dtype)
        T[0] = self.total[lanes]
        for r, row in enumerate(x):
            np.add(T[r], row, out=T[r + 1])
        s, t = T[:-1], T[1:]
        z = t - s
        e = t - z
        np.subtract(s, e, out=e)
        np.subtract(x, z, out=z)
        e += z
        comp = self.comp[lanes]
        for row in e:
            comp += row
        self.total[lanes] = T[-1]

    @property
    def value(self):
        """The running total: an array, or a numpy scalar for shape ()."""
        if not self.flat:
            return self.total
        used = min(self.count, self.total.shape[0])
        parts = 2 if self.dtype.kind == "c" else 1
        sums = [_fold(self.total[p:used:parts], self.comp[p:used:parts]) for p in range(parts)]
        return self.dtype.type(complex(*sums) if parts == 2 else sums[0])


def _fold(total: np.ndarray, comp: np.ndarray) -> float:
    """The exactly rounded sum of lane totals and compensations; the IEEE sum
    of the totals where a lane is not finite or the exact sum overflows.

    ``math.fsum`` of finite lanes is finite or raises OverflowError, and of
    lanes with an inf or nan is not finite or raises ValueError (inf - inf).
    """
    try:
        v = math.fsum(memoryview(np.concatenate((total, comp))))  # one float at a time, no list
    except (OverflowError, ValueError):
        v = math.inf
    return v if math.isfinite(v) else float(total.sum())


def ksum(values, axis=None):
    """Compensated sum with a fixed accumulation order (see ``KahanSum``).

    Parameters
    ----------
    values : array_like
        Real or complex. Complex input is accumulated componentwise.
    axis : int or None
        None reduces the flattened array to a scalar across lanes; an integer
        reduces along that axis, stepping through it in ascending index order.

    Returns
    -------
    scalar or ndarray
    """
    a = np.asarray(values)
    a = a.reshape(-1) if axis is None else np.moveaxis(a, axis, 0)
    dtype = a.dtype if a.dtype.kind in "fc" else float
    return KahanSum(a.shape[1:], dtype).add(a).value


@dataclass(frozen=True)
class UniformGrid:
    """Tensor product of uniformly spaced 1-d axes.

    Parameters
    ----------
    axes : tuple of (lo, hi, count)
        Per-axis extent and node count (count >= 2). On a periodic grid the
        nodes are lo + j*h, j < count, with h = (hi-lo)/count; otherwise both
        endpoints are nodes and h = (hi-lo)/(count-1). The float nodes must
        strictly increase: a step below their spacing raises DomainError.
    periodic : bool
        Periodic axes get uniform weights; open axes get trapezoid weights.
    """

    axes: tuple
    periodic: bool = False
    axis_nodes: tuple = field(init=False, repr=False, compare=False)
    axis_weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        axes = tuple(
            (require_real(lo, "axis lo"), require_real(hi, "axis hi"), require_int(count, "axis count", least=2))
            for lo, hi, count in self.axes
        )
        if not axes:
            raise ValidationError("grid needs at least one axis")
        nodes, weights = [], []
        for ax, (lo, hi, count) in enumerate(axes):
            if not (hi > lo):
                raise ValidationError(f"axis extent [{lo}, {hi}] is empty")
            h = (hi - lo) / (count if self.periodic else count - 1)
            if not np.isfinite(h):  # hi - lo overflowed, and the step with it
                raise DomainError(f"axis {ax}: extent hi - lo of [{lo}, {hi}] is {hi - lo}, not finite")
            nodes.append(lo + h * np.arange(count))
            # a step below the float spacing rounds distinct exact nodes
            # (numerics._exact_axes) onto one float
            if not np.all(np.diff(nodes[-1]) > 0):
                raise DomainError(f"axis {ax}: step {h} of [{lo}, {hi}] is below the float spacing, nodes coincide")
            w = np.full(count, h)
            if not self.periodic:
                w[0] = w[-1] = h / 2  # trapezoid endpoints carry half weight
            weights.append(w)
            # the box volume is the product of the axis lengths, so each axis
            # is checked alone; a nan sum fails the check
            if not abs(ksum(w) - (hi - lo)) <= _VOLUME_RTOL * (hi - lo):
                raise ValidationError("quadrature weights do not sum to the box volume")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "axis_nodes", tuple(nodes))
        object.__setattr__(self, "axis_weights", tuple(weights))

    # -- shape ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(count for _, _, count in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple:
        if self.periodic:
            return tuple((hi - lo) / count for lo, hi, count in self.axes)
        return tuple((hi - lo) / (count - 1) for lo, hi, count in self.axes)

    # -- nodes and weights --------------------------------------------------

    @property
    def nodes(self) -> np.ndarray:
        """All nodes, shape (size, dim), row-major over the axes."""
        mesh = np.meshgrid(*self.axis_nodes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    @property
    def weights(self) -> np.ndarray:
        """Product quadrature weights aligned with ``nodes``."""
        w = self.axis_weights[0]
        for wa in self.axis_weights[1:]:
            w = np.multiply.outer(w, wa)
        return w.reshape(-1)

    # -- constructors -------------------------------------------------------

    @classmethod
    def box(cls, lo, hi, count, dim=1) -> "UniformGrid":
        """Open box [lo, hi]^dim with ``count`` nodes per axis."""
        return cls(tuple((lo, hi, count) for _ in range(dim)))

    @classmethod
    def torus(cls, count, dim=1) -> "UniformGrid":
        """Periodic grid on [0, 1)^dim."""
        return cls(tuple((0.0, 1.0, count) for _ in range(dim)), periodic=True)


@dataclass(frozen=True)
class LatticeWindow:
    """Centered cube {-radius..radius}^dim in lexicographic node order."""

    dim: int
    radius: int

    def __post_init__(self):
        require_int(self.dim, "lattice dimension", least=1)
        require_int(self.radius, "window radius", least=0)

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def shape(self) -> tuple:
        return (self.side,) * self.dim

    @property
    def size(self) -> int:
        return self.side**self.dim

    @property
    def weights(self) -> np.ndarray:
        """Unit weights: lattice sums are plain sums."""
        return np.ones(self.size)

    @property
    def nodes(self) -> np.ndarray:
        """All integer points, shape (size, dim), first axis slowest."""
        rng = range(-self.radius, self.radius + 1)
        return np.array(list(itertools.product(rng, repeat=self.dim)), dtype=float)

    def min_xi_count(self) -> int:
        """Nodes per xi-axis for exact quadrature of window bigrams.

        Products of two window exponentials have frequencies up to 2*(2N+1)-2
        per axis; a periodic grid with at least 2*(2N+1) nodes kills every
        nonzero one exactly.
        """
        return 2 * self.side

    def check_grid(self, grid, what: str) -> None:
        """The Z^n-T^n pairing rule: ``grid`` is periodic on [0, 1)^n (the nodes k/N
        ``numerics._dft`` reads) with at least ``min_xi_count()`` nodes per axis.
        ``what`` names the node count; ``LatticeWindow.check_grid(space, grid, what)``
        also rejects a space that is not a window."""
        if not isinstance(self, LatticeWindow):
            raise ValidationError(f"{what}: the grid pairs with a LatticeWindow, not a {type(self).__name__}")
        if not getattr(grid, "periodic", False) or any((lo, hi) != (0.0, 1.0) for lo, hi, _ in grid.axes):
            raise ValidationError(f"{what}: the grid must be periodic and span [0, 1) on every axis")
        if grid.dim != self.dim:
            raise ShapeError(f"{what}: grid dim {grid.dim} != window dim {self.dim}")
        need = self.min_xi_count()
        for _, _, count in grid.axes:
            if count < need:
                raise TruncationError(f"{what} = {count} below the exactness threshold {need}")


def _check_pairing(source, target) -> None:
    """The pairing rule wherever a window meets another domain, as a symbol's
    (space, freq) or a transform's (source, target): a window as source pairs
    with a "lattice xi_count", a window as target with a "torus x_count"."""
    if isinstance(source, LatticeWindow):
        source.check_grid(target, "lattice xi_count")
    elif isinstance(target, LatticeWindow):
        target.check_grid(source, "torus x_count")


def require_same_grid(a, b, what: str) -> None:
    """Reject two different domains: grids compare by axes and periodicity,
    lattice windows by (dim, radius), group quadratures by identity."""
    if a != b:
        raise GridMismatchError(f"{what}: grids differ ({getattr(a, 'axes', a)} vs {getattr(b, 'axes', b)})")


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a function on a domain with ``size`` and ``weights``.

    The one sampled-function type of every setting. The domain is one of:

    * a :class:`UniformGrid` (boxes in R^n, the periodic torus);
    * a :class:`LatticeWindow` (Z^n; unit weights, so sums stay plain sums);
    * a ``group.GroupQuadrature`` or ``homog.ClassIIrrepTable`` (Haar nodes on G or G/K).

    values are stored flat, aligned with the domain's nodes.
    """

    grid: UniformGrid | LatticeWindow | GroupQuadrature
    values: np.ndarray

    def __post_init__(self):
        v = complex_samples(np.reshape(self.values, -1), (self.grid.size,), "field")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SampledSymbol:
    """Complex samples a(x, xi) on a space times its dual group: boxes for
    R^n, a :class:`LatticeWindow` times the periodic [0, 1)^n grid for Z^n,
    and the reverse for the torus. Rows are ``space`` nodes, columns ``freq``
    nodes. A window side is checked against the other by the pairing rule
    (``LatticeWindow.check_grid``), so no aliasing Z^n-T^n pair is built."""

    space: UniformGrid | LatticeWindow
    freq: UniformGrid | LatticeWindow
    values: np.ndarray

    def __post_init__(self):
        _check_pairing(self.space, self.freq)
        if self.space.dim != self.freq.dim:
            raise ShapeError(f"space dim {self.space.dim} != frequency dim {self.freq.dim}")
        v = complex_samples(self.values, (self.space.size, self.freq.size), "symbol")
        object.__setattr__(self, "values", v)


# -- interpolation ----------------------------------------------------------


def _axis_stencil(grid: UniformGrid, axis: int, coords: np.ndarray):
    """4-point Lagrange stencil data for one axis.

    Returns (start, weights, inside) where ``start`` is the first
    stencil index (clipped to the grid), ``weights`` has shape (m, 4), and
    ``inside`` flags points within the axis extent (plus a spacing-relative
    slack so that nodes reproduced by float arithmetic stay inside).
    """
    lo, hi, count = grid.axes[axis]
    h = grid.spacing[axis]
    t = (coords - lo) / h
    inside = (coords >= lo - 1e-9 * h) & (coords <= hi + 1e-9 * h)
    i0 = np.floor(t).astype(int)
    if count >= 4:
        start = np.clip(i0 - 1, 0, count - 4)
        u = t - start
        offs = np.arange(4)
        weights = np.ones((t.shape[0], 4))
        for k in range(4):
            for m in range(4):
                if m != k:
                    weights[:, k] *= (u - offs[m]) / (k - m)
    else:
        # tiny axes fall back to a linear stencil
        start = np.clip(i0, 0, count - 2)
        u = t - start
        weights = np.stack([1.0 - u, u], axis=-1)
    return start, weights, inside


def interpolate(field_values: np.ndarray, grid: UniformGrid, points: np.ndarray, cols=None) -> np.ndarray:
    """Evaluate grid samples at off-grid points.

    Tensor-product 4-point Lagrange (cubic) interpolation per axis, exact at
    grid nodes. Points outside the box evaluate to zero, so fields must decay
    at the edge for the result to be meaningful (see ``require_edge_decay``).

    Parameters
    ----------
    field_values : ndarray
        Flat samples aligned with ``grid.nodes``; with ``cols``, a
        (grid.size, K) table whose rows are aligned with ``grid.nodes``.
    grid : UniformGrid
    points : ndarray, shape (m, dim)
    cols : ndarray of int, shape (m,), optional
        Point i reads column ``cols[i]`` of the table, so each point gathers
        one value per stencil node however wide the table is.

    Returns
    -------
    ndarray, shape (m,)
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ShapeError(f"points have shape {pts.shape}, expected (m, {grid.dim}) on the grid")
    vals = np.asarray(field_values)
    dtype = np.result_type(vals.dtype, float)
    width = 1 if cols is None else vals.shape[-1]
    if cols is not None:
        cols = np.asarray(cols)
        if vals.shape != (grid.size, width) or cols.shape != pts.shape[:1]:
            raise ShapeError(f"a {vals.shape} table read at {cols.shape} columns for {pts.shape[0]} points")
        if cols.size and not (0 <= cols.min() and cols.max() < width):
            raise ValidationError(f"column indices outside the table's {width} columns")
    flat_vals = vals.reshape(grid.size * width).astype(dtype, copy=False)

    starts, weights, inside = [], [], np.ones(pts.shape[0], dtype=bool)
    for ax in range(grid.dim):
        s, w, ins = _axis_stencil(grid, ax, pts[:, ax])
        starts.append(s)
        weights.append(w)
        inside &= ins

    out = np.zeros(pts.shape[0], dtype=complex)
    # One gather buffer reused for every stencil point; mode="clip" keeps
    # np.take from buffering a second copy (the indices are in range anyway).
    term = np.empty(out.shape, dtype=dtype)
    stencil_sizes = [w.shape[1] for w in weights]
    for combo in itertools.product(*(range(n) for n in stencil_sizes)):
        idx = tuple(starts[ax] + combo[ax] for ax in range(grid.dim))
        w = weights[0][:, combo[0]]
        for ax in range(1, grid.dim):
            w = w * weights[ax][:, combo[ax]]
        flat = np.ravel_multi_index(idx, grid.shape)
        if cols is not None:
            flat = flat * width + cols
        np.take(flat_vals, flat, out=term, mode="clip")
        term *= w
        out += term
    if not np.all(inside):
        out[~inside] = 0.0
    return out


def require_edge_decay(field_values: np.ndarray, grid: UniformGrid, what: str) -> None:
    """Check that samples are at most ``_EDGE_RTOL`` of their peak on the
    boundary slab of the box.

    Shift/zero-extension constructions assume the field's support, inflated by
    the shifts in play, stays inside the box. A field that is still large at
    the boundary breaks that; the first offending node is named.
    """
    vals = np.abs(np.asarray(field_values))
    trailing = vals.shape[1:]
    vals = vals.reshape(grid.shape + trailing)
    peak = vals.max()
    if peak == 0.0:
        return
    for ax in range(grid.dim):
        for side, label in ((0, "low"), (-1, "high")):
            slab = np.take(vals, side, axis=ax)
            worst = float(slab.max())
            if worst > _EDGE_RTOL * peak:
                node = grid.axes[ax][0] if side == 0 else grid.axes[ax][1]
                raise TruncationError(
                    f"{what}: field is {worst:.3e} at the {label} edge of axis "
                    f"{ax} (node {node:g}), above {_EDGE_RTOL:.1e} of its peak "
                    f"{peak:.3e}; enlarge the box"
                )


def complex_samples(values, shape: tuple, what: str) -> np.ndarray:
    """values as a complex array of exactly ``shape`` with finite entries;
    the one sample validator behind every field, sequence, symbol, kernel
    and representation block."""
    v = np.asarray(values, dtype=complex)
    if v.shape != shape:
        raise ShapeError(f"{what} has shape {v.shape}, expected {shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} contains non-finite samples")
    return v


def require_int(value, name: str, least=None) -> int:
    """An integer parameter, as given: bools, floats (even 3.0) and strings
    raise ValidationError, so "radius": 3.9 is an error rather than radius 3.
    A value below ``least`` raises DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} = {value} below its minimum {least}")
    return int(value)


def require_real(value, name: str, lo=-np.inf, hi=np.inf, include_lo=True, include_hi=True) -> float:
    """A finite real parameter in the interval from ``lo`` to ``hi``, as a
    float: bools and strings (even "3") raise ValidationError; a non-finite
    value, or one outside the interval (each end closed unless its
    ``include_*`` is False), raises DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    lb, rb = "[" if include_lo else "(", "]" if include_hi else ")"
    if not (math.isfinite(v) and (v >= lo if include_lo else v > lo) and (v <= hi if include_hi else v < hi)):
        raise DomainError(f"{name} = {value!r} is not a finite number in {lb}{lo}, {hi}{rb}")
    return v
