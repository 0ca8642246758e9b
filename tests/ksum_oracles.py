"""Oracles of the compensated sums, shared by the bit-for-bit tests.

``NeumaierLanes`` is the flat ``KahanSum`` as one Neumaier step per lane row:
the rounding error of s + x is (s - t) + x where |s| >= |x|, else
(x - t) + s. ``row_block_mixed_norm`` is ``mixed_norm`` with the xi-inner
norm reduced block of rows by block of rows, each block one ``ksum`` along
its columns, and every flat sum taken by ``NeumaierLanes``. These are the
compensated sums before the flat lanes took whole rows of TwoSum at once and
the xi-inner norm stepped over the columns; the package must keep their bits.
"""

import numpy as np

from nucfio.grids import KahanSum, ksum
from nucfio.numerics import _row_blocks


class NeumaierLanes(KahanSum):
    """A ``KahanSum`` whose flat lanes take one Neumaier step per lane row."""

    def _add_lanes(self, block) -> "NeumaierLanes":
        x = np.ascontiguousarray(np.asarray(block), dtype=self.dtype).reshape(-1).view(self.total.dtype)
        width, n = self.total.shape[0], x.shape[0]
        lane = self.count % width
        self.count += n
        i = 0
        while i < n:
            k = min(width - lane, n - i)
            s, y = self.total[lane : lane + k], x[i : i + k]
            t = s + y
            self.comp[lane : lane + k] += np.where(np.abs(s) >= np.abs(y), (s - t) + y, (y - t) + s)
            self.total[lane : lane + k] = t
            i, lane = i + k, 0
        return self


def neumaier_ksum(values):
    """The flat ``ksum`` of ``values`` by ``NeumaierLanes``."""
    a = np.asarray(values).reshape(-1)
    return NeumaierLanes((), a.dtype if a.dtype.kind in "fc" else float).add(a).value


def row_block_mixed_norm(symbol, inner: str, p_inner: float, p_outer: float) -> float:
    """``mixed_norm`` read 256 rows at a time: the x-inner norm carries one
    column sum across the blocks, the xi-inner norm sums each block's rows
    along the columns by one ``ksum(..., axis=1)``."""
    vals = np.asarray(symbol.values)
    nx = vals.shape[0]
    wx, wxi = symbol.space.weights, symbol.freq.weights
    if inner == "x":
        acc = KahanSum((vals.shape[1],), float)
        for rows in _row_blocks(nx):
            acc.add(wx[rows, None] * np.abs(vals[rows]) ** p_inner)
        t = acc.value ** (1.0 / p_inner)
        return float(neumaier_ksum(wxi * t**p_outer)) ** (1.0 / p_outer)
    t = np.empty(nx)
    for rows in _row_blocks(nx):
        t[rows] = ksum(wxi[None, :] * np.abs(vals[rows]) ** p_inner, axis=1)
    t **= 1.0 / p_inner
    return float(neumaier_ksum(wx * t**p_outer)) ** (1.0 / p_outer)
