import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nucfio.errors import DomainError, GridMismatchError, NumericError, ShapeError, ValidationError, ZeroNormError
from nucfio.families import hermite_function
from nucfio.grids import LatticeWindow, SampledField, SampledSymbol, UniformGrid, ksum
from nucfio.numerics import (
    _ROOTS_BITS,
    _exact_axes,
    _fft_sizes,
    _openblas_threads,
    _roots,
    _smooth_length,
    characters,
    dense_eigenvalues,
    dft_forward,
    dft_inverse,
    hausdorff_young_ratio,
    lp_norm,
    matrix_trace,
    mixed_norm,
)
from transform_oracles import character_sum, fft_bound, smooth_length

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def line():
    return UniformGrid.box(-8.0, 8.0, 257, 1)


def test_dft_gaussian_fixed_point(line):
    # [DERIVED] exp(-pi x^2) is invariant under the unitary transform
    x = line.nodes[:, 0]
    f = SampledField(line, np.exp(-np.pi * x**2).astype(complex))
    fhat = dft_forward(f, line)
    assert np.abs(fhat.values - f.values).max() < 1e-12


def test_dft_roundtrip(line):
    rng = np.random.default_rng(1)
    x = line.nodes[:, 0]
    vals = (rng.standard_normal(3) @ np.array([np.exp(-((x - c) ** 2)) for c in (-1.0, 0.0, 1.0)])).astype(complex)
    f = SampledField(line, vals)
    back = dft_inverse(dft_forward(f, line), line)
    assert np.abs(back.values - vals).max() < 1e-10


def _torus_count(src, dst):
    """The torus count N of a window-torus pair, else None."""
    for window, torus in ((src, dst), (dst, src)):
        if isinstance(window, LatticeWindow):
            return torus.shape[0]
    return None


def _exact_nodes(domain):
    """Per axis, the nodes as exact Fractions: lo + m (hi - lo)/steps from
    the float ends, or the window's integers."""
    if isinstance(domain, LatticeWindow):
        return [[Fraction(v) for v in range(-domain.radius, domain.radius + 1)]] * domain.dim
    axes = []
    for lo, hi, count in domain.axes:
        h = (Fraction(hi) - Fraction(lo)) / (count if domain.periodic else count - 1)
        axes.append([Fraction(lo) + m * h for m in range(count)])
    return axes


def _integer_phases(src, dst):
    """(k, M) with x_p.xi_j = k_pj / M exactly for every node pair: per axis
    x = u/d and xi = t/d' over the least common denominators of the axis'
    nodes, M the least common multiple of the d d', and k the
    (src.size, dst.size) table of sums of u t M/(d d') in Python ints."""
    m = np.unravel_index(np.arange(src.size), src.shape)
    j = np.unravel_index(np.arange(dst.size), dst.shape)
    numerators = []
    for x, xi in zip(_exact_nodes(src), _exact_nodes(dst)):
        d, dp = (math.lcm(*(v.denominator for v in nodes)) for nodes in (x, xi))
        numerators.append(([int(v * d) for v in x], [int(v * dp) for v in xi], d * dp))
    M = math.lcm(*(dd for _, _, dd in numerators))
    k = np.zeros((src.size, dst.size), dtype=object)
    for (u, t, dd), ma, ja in zip(numerators, m, j):
        k += np.multiply.outer(np.array(u, dtype=object)[ma], np.array(t, dtype=object)[ja]) * (M // dd)
    return k, M


def _exact_roots(src, dst, sign):
    """e^{sign*2*pi*i x.xi} for every node pair, (src.size, dst.size): the
    exp of the exact fraction of a turn k/M of ``_integer_phases``."""
    k, M = _integer_phases(src, dst)
    return np.exp(sign * 2j * np.pi * (k % M).astype(float) / M)


def _fsum_transform(W, src, dst, sign):
    """sum_m W_m e^{sign*2*pi*i x_m.xi_j} with the ``_exact_roots``, each
    real product summed by ``math.fsum``; W of shape (src.size, k)."""
    E = _exact_roots(src, dst, sign)
    out = np.empty((dst.size, W.shape[1]), dtype=complex)
    for j in range(dst.size):
        for c in range(W.shape[1]):
            w, e = W[:, c], E[:, j]
            re = math.fsum(np.concatenate([w.real * e.real, -(w.imag * e.imag)]))
            im = math.fsum(np.concatenate([w.real * e.imag, w.imag * e.real]))
            out[j, c] = complex(re, im)
    return out


def assert_transform_matches(got, weighted, src, dst, sign):
    """``got`` within C_FFT's bound of ``character_sum(weighted, ...)``, the
    compensated sum over a character table that every pair here gathers
    from exact roots of unity."""
    want = character_sum(weighted, src, dst, sign)
    assert np.all(np.abs(got - want) <= fft_bound(src, dst, weighted))


# quantize's grids at the benchmark's resolution: the x grid, step 1/20, its
# difference lattice (step 1/20) and its shift grid (step 1/10)
_TAU_GRID = UniformGrid.box(-5.0, 5.0, 201)
_DIFFERENCE_LATTICE = UniformGrid.box(-10.0, 10.0, 401)
_SHIFT_GRID = UniformGrid.box(-10.0, 10.0, 201)

_PAIRS = {
    # every pair's character table is roots of unity (spacings 1/64 and
    # 3/256: M = 2^14); the dyadic box pair, the tau grid's pairs and every
    # window-torus pair are commensurate and take the FFT on every axis, the
    # others the chirp-z transform
    "line_1025": (UniformGrid.box(-8.0, 8.0, 1025), UniformGrid.box(-6.0, 6.0, 1025)),
    "box_dim2": (UniformGrid.box(-2.0, 2.0, 9, 2), UniformGrid.box(-3.0, 3.0, 11, 2)),
    "box_dim2_dyadic": (UniformGrid.box(-2.0, 2.0, 9, 2), UniformGrid.box(-4.0, 4.0, 17, 2)),
    "window_to_torus": (LatticeWindow(2, 2), UniformGrid.torus(10, 2)),
    "window_to_torus_dyadic": (LatticeWindow(2, 2), UniformGrid.torus(16, 2)),
    "torus_to_window": (UniformGrid.torus(24), LatticeWindow(1, 5)),
    # 1027 columns in one chirp-z transform
    "many_columns": (UniformGrid.box(-1.0, 1.0, 33), UniformGrid.box(-2.0, 2.0, 40)),
    # steps 1/20 against 1/20 and 1/10: commensurate, although the float
    # nodes are not whole multiples of the float step
    "tau_grid_to_difference_lattice": (_TAU_GRID, _DIFFERENCE_LATTICE),
    "tau_grid_to_shift_grid": (_TAU_GRID, _SHIFT_GRID),
}


@pytest.mark.parametrize(
    "pair, ks",
    [(name, (1027,) if name == "many_columns" else (1, 3, 4)) for name in _PAIRS],
    ids=list(_PAIRS),
)
def test_batched_transform_matches_one_column_calls(pair, ks):
    # the FFT and the chirp-z transform take each column along its own
    # lines, so each column keeps the bits of its own transform, within the
    # FFT bound of the character sum
    src, dst = _PAIRS[pair]
    commensurate = all(_fft_sizes(src, dst))
    assert commensurate == (pair.endswith("_dyadic") or pair.startswith("tau_grid") or _torus_count(src, dst) is not None)
    rng = np.random.default_rng(len(pair))
    for k in ks:
        V = rng.standard_normal((src.size, k)) + 1j * rng.standard_normal((src.size, k))
        V[::7, 0] = -0.0
        fields = tuple(SampledField(src, V[:, c]) for c in range(k))
        for transform, sign in ((dft_forward, -1.0), (dft_inverse, 1.0)):
            out = transform(fields, dst)
            assert len(out) == k and all(f.grid == dst for f in out)
            for c in range(k):
                assert_transform_matches(out[c].values, src.weights * V[:, c], src, dst, sign)
                assert np.array_equal(transform(fields[c], dst).values, out[c].values)


_FFT_PAIRS = {
    # (source, target, N per axis, None where the axis takes the chirp-z
    # transform); n < N pads, n = N neither pads nor folds, n > N folds the
    # source onto N nodes
    "dim1_pad": (UniformGrid.box(-2.0, 2.0, 33), UniformGrid.box(-4.0, 4.0, 65), (64,)),
    "dim1_equal": (UniformGrid.torus(32), LatticeWindow(1, 7), (32,)),
    "dim1_fold": (UniformGrid.box(-8.0, 8.0, 129), UniformGrid.box(-2.0, 2.0, 5), (8,)),
    "dim2_pad": (LatticeWindow(2, 2), UniformGrid.torus(16, 2), (16, 16)),
    "dim2_equal": (UniformGrid.torus(16, 2), LatticeWindow(2, 3), (16, 16)),
    "dim2_fold": (UniformGrid.box(-2.0, 2.0, 17, 2), UniformGrid.box(-1.0, 1.0, 3, 2), (4, 4)),
    # window-torus pairs at counts that are not powers of two, both ways
    "window_to_torus_14": (LatticeWindow(1, 3), UniformGrid.torus(14), (14,)),
    "torus_34_to_window": (UniformGrid.torus(34), LatticeWindow(1, 8), (34,)),
    "window_to_torus_49": (LatticeWindow(1, 11), UniformGrid.torus(49), (49,)),
    "torus_49_to_window": (UniformGrid.torus(49), LatticeWindow(1, 11), (49,)),
    "window_to_torus_100": (LatticeWindow(1, 20), UniformGrid.torus(100), (100,)),
    "dim2_torus_14_to_window": (UniformGrid.torus(14, 2), LatticeWindow(2, 3), (14, 14)),
    # quantize's frequency sums (pad to 400, fold onto 200) and shift sum (fold)
    "tau_grid_to_difference_lattice": (_TAU_GRID, _DIFFERENCE_LATTICE, (400,)),
    "tau_grid_to_shift_grid": (_TAU_GRID, _SHIFT_GRID, (200,)),
    "shift_grid_to_tau_grid": (_SHIFT_GRID, _TAU_GRID, (200,)),
    # chirp-z: gaussian_rank1's box, step 12/511 with lo/h = -255.5, onto
    # itself (h h' = 144/511^2, phases mod 2 * 511^2, above the roots' cap)
    "gaussian_rank1": (UniformGrid.box(-6.0, 6.0, 512), UniformGrid.box(-6.0, 6.0, 512), (None,)),
    # criterion 3's grid, step 5/128, onto its difference lattice: whole
    # steps, but h h' = 25/16384 is no unit fraction (phases mod 2^15)
    "criterion3": (UniformGrid.box(-5.0, 5.0, 257), UniformGrid.box(-10.0, 10.0, 513), (None,)),
    # step 4/333 at lo/h = -499.5 against 1/128 (phases mod 2 * 42624)
    "line_1000": (UniformGrid.box(-6.0, 6.0, 1000), UniformGrid.box(-4.0, 4.0, 1025), (None,)),
    # one commensurate axis (steps 1/4 and 1/4: N = 16) and one chirp-z
    # axis (steps 1/4 and 3/5), in both orders
    "dim2_fft_then_chirp": (
        UniformGrid(((-2.0, 2.0, 17), (-1.0, 1.0, 9))),
        UniformGrid(((-4.0, 4.0, 33), (-3.0, 3.0, 11))),
        (16, None),
    ),
    "dim2_chirp_then_fft": (
        UniformGrid(((-1.0, 1.0, 9), (-2.0, 2.0, 17))),
        UniformGrid(((-3.0, 3.0, 11), (-4.0, 4.0, 33))),
        (None, 16),
    ),
    # the float ends +-0.3 are exact ratios over 2^54: phases mod about
    # 2^110, reduced in Python ints, each factor one exp
    "dim2_above_int64": (UniformGrid.box(-2.0, 2.0, 9, 2), UniformGrid.box(-0.3, 0.3, 25, 2), (None, None)),
    # commensurate (steps 1/16 and 1/8192), but N = 131072 exceeds both
    # 2^16 and the grids' sizes: the length cap sends the axis to chirp-z
    "fft_length_cap": (UniformGrid.box(-8.0, 8.0, 257), UniformGrid.box(-1 / 64, 1 / 64, 257), (None,)),
}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("pair", list(_FFT_PAIRS))
def test_fft_transform_matches_an_exact_root_fsum(pair, sign):
    # every column within C_FFT's bound of the exact-root sum, and
    # bit-identical to its own one-column transform; the pairs read at most
    # 0.37 of the bound
    src, dst, sizes = _FFT_PAIRS[pair]
    assert _fft_sizes(src, dst) == sizes
    rng = np.random.default_rng(43)
    V = rng.standard_normal((src.size, 2)) + 1j * rng.standard_normal((src.size, 2))
    V[::5, 0] = complex(-0.0, 0.0)
    V[1::5, 0] = complex(0.0, -0.0)
    V[::3, 1] = complex(-0.0, -0.0)
    transform = dft_forward if sign < 0 else dft_inverse
    fields = tuple(SampledField(src, v) for v in V.T)
    got = np.stack([f.values for f in transform(fields, dst)], axis=1)
    W = src.weights[:, None] * V
    assert np.all(np.abs(got - _fsum_transform(W, src, dst, sign)) <= fft_bound(src, dst, W))
    for c, f in enumerate(fields):
        assert np.array_equal(transform(f, dst).values, got[:, c])


def test_chirp_z_length_is_the_least_five_smooth_one():
    # the tests' bound reads the length by trial division; criterion 3's pair
    # needs 769 and takes 800, gaussian_rank1's needs 1023 and keeps 1024
    assert [_smooth_length(m) for m in range(1, 5000)] == [smooth_length(m) for m in range(1, 5000)]
    assert (_smooth_length(769), _smooth_length(1023), _smooth_length(2024)) == (800, 1024, 2025)


@pytest.mark.parametrize("dim", [1, 2])
def test_radius_zero_window_transforms_against_a_torus(dim):
    # a window's step is 1 by definition, so its single node per axis pairs
    # with the torus' 1/2 step at N = 2 both ways
    window, torus = LatticeWindow(dim, 0), UniformGrid.torus(2, dim)
    assert _fft_sizes(window, torus) == _fft_sizes(torus, window) == (2,) * dim
    f = SampledField(window, np.array([2.0 - 1.0j]))
    assert np.array_equal(dft_forward(f, torus).values, np.full(torus.size, 2.0 - 1.0j))
    g = SampledField(torus, np.arange(1.0, torus.size + 1.0) + 0.5j)
    assert np.array_equal(dft_inverse(g, window).values, [ksum(torus.weights * g.values)])


def test_exact_axes_are_exact_ratios_of_the_axis_ends():
    # the tau grid's float nodes -5 + 0.05 m are not 0.05 (-100 + m) bit for
    # bit, but its exact node m is (-100 + m)/20
    grid = _TAU_GRID
    h = grid.spacing[0]
    assert not np.array_equal(grid.axis_nodes[0], h * (-100 + np.arange(201)))
    assert _exact_axes(grid) == [(-100, 1, 20)]
    assert _exact_axes(_DIFFERENCE_LATTICE) == [(-200, 1, 20)]
    assert _exact_axes(_SHIFT_GRID) == [(-100, 1, 10)]
    # gaussian_rank1's box: node m is (-3066 + 12 m)/511, so lo/h = -255.5
    # is no whole number of steps and the pair takes the chirp-z transform
    box = UniformGrid.box(-6.0, 6.0, 512)
    assert _exact_axes(box) == [(-3066, 12, 511)]
    assert _fft_sizes(box, box) == (None,)
    assert _exact_axes(UniformGrid(((-6.0, 6.0, 512), (-2.0, 2.0, 9)))) == [(-3066, 12, 511), (-4, 1, 2)]
    assert _exact_axes(UniformGrid.box(-1.0, 1.0, 4)) == [(-3, 2, 3)]
    # windows, [0, 1) tori and boxes with dyadic steps h = S/D: node m at
    # (A + m) h with the float nodes exact, so u0 = A S
    assert _exact_axes(LatticeWindow(2, 3)) == [(-3, 1, 1)] * 2
    assert _exact_axes(LatticeWindow(1, 0)) == [(0, 1, 1)]
    assert _exact_axes(UniformGrid.torus(14, 2)) == [(0, 1, 14)] * 2
    for grid in (UniformGrid.box(-8.0, 8.0, 1025), UniformGrid.box(-2.0, 2.0, 17, 2), UniformGrid.box(-6.0, 6.0, 1025)):
        h = grid.spacing[0]
        S, D = h.as_integer_ratio()
        assert np.array_equal(grid.axis_nodes[0], h * (round(grid.axes[0][0] / h) + np.arange(grid.shape[0])))
        assert _exact_axes(grid) == [(round(lo / h) * S, S, D) for lo, _, _ in grid.axes]


_ABOVE_CAP = {
    # spacing 1/512 on both sides needs M = 2^18 roots, above the
    # 2^_ROOTS_BITS cap
    "line_above_cap": (UniformGrid.box(-1.0, 1.0, 1025), UniformGrid.box(-1.0, 1.0, 1025)),
    # gaussian_rank1's box, step 12/511, against itself: M = 511^2
    "gaussian_rank1": (UniformGrid.box(-6.0, 6.0, 512), UniformGrid.box(-6.0, 6.0, 512)),
    # the float ends +-0.3 are exact ratios over 2^54: M far above the cap
    "box_dim2": (UniformGrid.box(-2.0, 2.0, 9, 2), UniformGrid.box(-0.3, 0.3, 25, 2)),
}

_DYADIC = {
    "line_1025": (UniformGrid.box(-8.0, 8.0, 1025), UniformGrid.box(-4.0, 4.0, 1025)),
    "box_dim2": (UniformGrid.box(-4.0, 4.0, 33, 2), UniformGrid.box(-2.0, 2.0, 17, 2)),
    "window_torus_32": (LatticeWindow(2, 5), UniformGrid.torus(32, 2)),
    "torus_16_window": (UniformGrid.torus(16, 2), LatticeWindow(2, 3)),
    # steps 1/4 and 1 against 1 and 1/4: M = 4 per axis, where the dyadic
    # gather took 2^(2+2) roots
    "mixed_axes": (UniformGrid(((-4.0, 4.0, 33), (-1.0, 1.0, 3))), UniformGrid(((-1.0, 1.0, 3), (-4.0, 4.0, 33)))),
}

_EXACT = {
    **_DYADIC,
    "box_dim2_steps_1_2_and_3_5": (UniformGrid.box(-2.0, 2.0, 9, 2), UniformGrid.box(-3.0, 3.0, 11, 2)),  # M = 10
    "line_1000": (UniformGrid.box(-6.0, 6.0, 1000), UniformGrid.box(-4.0, 4.0, 1025)),  # M = 42624
    "torus_20": (LatticeWindow(1, 4), UniformGrid.torus(20)),
    "torus_42": (UniformGrid.torus(42), LatticeWindow(1, 10)),
    "tau_grid": (_TAU_GRID, _TAU_GRID),  # M = 400
    "step_2_3": (UniformGrid.box(-1.0, 1.0, 4), UniformGrid.box(-1.0, 1.0, 4)),  # M = 9
    # nodes near 2^62 against a 32-node torus: every phase is a whole turn;
    # against 30 nodes an int64 product that wrapped would be off mod 30
    # (the numerators are reduced mod M before any int64 product)
    "near_2_62": (UniformGrid.box(2.0**62, 2.0**62 + 2.0**52, 3), UniformGrid.torus(32)),
    "near_2_62_torus_30": (UniformGrid.box(2.0**62, 2.0**62 + 2.0**52, 3), UniformGrid.torus(30)),
}


def _dyadic_gather(rows, cols, sign):
    """The dyadic table that the exact phases replaced, inlined: with every
    row node a/2^s and column node b/2^t (s, t least), the M = 2^(s+t)-th
    roots of unity (first quadrant evaluated, the rest reflected, quarter
    turns set) gathered at (sign a.b) mod M."""
    s, t = (next(b for b in range(_ROOTS_BITS + 1) if np.all(v * 2.0**b % 1 == 0)) for v in (rows, cols))
    M = 2 ** (s + t)
    n = max(M, 4)
    k = np.arange(n // 4 + 1)
    quadrant = np.exp(2j * np.pi * k / n)
    R = np.empty(n, dtype=complex)
    R[n // 2 - k] = -np.conj(quadrant)
    R[k] = quadrant
    R[n // 2 :] = -R[: n // 2]
    R[:: n // 4] = (1.0, 1j, -1.0, -1j)
    a = np.mod(sign * rows * 2.0**s, M).astype(np.int64)
    b = np.mod(cols * 2.0**t, M).astype(np.int64)
    return R[:: n // M].take((a @ b.T) & (M - 1))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("pair", list(_ABOVE_CAP))
def test_characters_off_dyadic_grids_are_the_exp_table(pair, sign):
    # above the cap of the roots table, the exp of the float nodes' products
    src, dst = _ABOVE_CAP[pair]
    rows, cols = src.nodes, dst.nodes
    assert np.array_equal(characters(src, dst, sign), np.exp(sign * 2j * np.pi * (rows @ cols.T)))
    part = characters(src, dst, sign, slice(3, 40))
    assert np.array_equal(part, np.exp(sign * 2j * np.pi * (rows[3:40] @ cols.T)))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("pair", list(_DYADIC))
def test_characters_on_dyadic_grids_are_roots_of_unity(pair, sign):
    # every x.xi is an exact dyadic rational, so theta below has only the
    # 2*pi rounding; the table is within 4 eps (1 + |theta|) of exp and
    # exactly 1, i, -1 or -i where x.xi is a multiple of 1/4; and it has the
    # bits of the dyadic gather
    src, dst = _DYADIC[pair]
    rows, cols = src.nodes, dst.nodes
    E = characters(src, dst, sign)
    assert np.array_equal(E, _dyadic_gather(rows, cols, sign))
    dot = rows @ cols.T
    theta = sign * 2.0 * np.pi * dot
    assert np.all(np.abs(E - np.exp(1j * theta)) <= 4 * np.finfo(float).eps * (1.0 + np.abs(theta)))
    quarter = np.mod(4.0 * dot, 1.0) == 0.0
    turns = np.mod(sign * 4.0 * dot[quarter], 4.0).astype(int)
    assert quarter.sum() >= rows.shape[0]
    assert np.array_equal(E[quarter], np.array([1.0, 1j, -1.0, -1j])[turns])
    assert not np.array_equal(E, np.exp(sign * 2j * np.pi * dot))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("pair", list(_EXACT))
def test_characters_are_roots_of_unity_at_exact_integer_phases(pair, sign):
    # x.xi = k/M exactly, k formed in Python ints from the exact nodes: the
    # table is within 4 eps (1 + 2 pi k/M) of e^{2 pi i k/M} for k reduced
    # mod M, and exactly 1, i, -1 or -i where 4k is a multiple of M
    src, dst = _EXACT[pair]
    k, M = _integer_phases(src, dst)
    assert M <= 2**_ROOTS_BITS
    k = (int(sign) * k) % M
    theta = 2.0 * np.pi * k.astype(float) / M
    E = characters(src, dst, sign)
    assert np.all(np.abs(E - np.exp(1j * theta)) <= 4 * np.finfo(float).eps * (1.0 + theta))
    quarter = (4 * k) % M == 0
    assert quarter.any()
    assert np.array_equal(E[quarter], np.array([1.0, 1j, -1.0, -1j])[(4 * k[quarter] // M).astype(int)])
    rows = slice(1, None, 2)
    assert np.array_equal(characters(src, dst, sign, rows), E[rows])
    if pair == "near_2_62":
        assert np.array_equal(E, np.ones(E.shape))
    # a sign other than +-1 names no root of unity: the exp table
    want = np.exp(0.5 * sign * 2j * np.pi * (src.nodes @ dst.nodes.T))
    assert np.array_equal(characters(src, dst, 0.5 * sign), want)


def test_roots_table_is_cached_read_only_and_symmetric():
    for M in (1, 2, 4, 8, 9, 10, 42, 64, 400, 42624, 2**_ROOTS_BITS):
        R, k = _roots(M), np.arange(M)
        assert _roots(M) is R and R.shape == (M,) and not R.flags.writeable
        with pytest.raises(ValueError):
            R[0] = 2.0
        assert np.array_equal(R[(M - k) % M], np.conj(R))
        quarters = [q for q in range(4) if q * M % 4 == 0]
        assert np.array_equal(R[[q * M // 4 for q in quarters]], np.array([1.0, 1j, -1.0, -1j])[quarters])
        assert np.all(np.abs(R - np.exp(2j * np.pi * k / M)) <= 4 * np.finfo(float).eps * (1.0 + 2.0 * np.pi * k / M))
    # the tables nest: a gather at k (M'/M) of the M'-th roots is the M-th
    # roots' entry k bit for bit, whichever M' a pair of grids names
    for M in (1, 2, 4, 9, 64, 400, 2**15):
        assert np.array_equal(_roots(2 * M)[::2], _roots(M))


def test_batched_transform_needs_fields_on_one_grid(line):
    f = SampledField(line, np.ones(line.size))
    with pytest.raises(GridMismatchError, match="transformed fields"):
        dft_forward((f, SampledField(UniformGrid.box(-8.0, 8.0, 129), np.ones(129))), line)
    with pytest.raises(ValidationError, match="at least one field"):
        dft_inverse((), line)


def test_transform_needs_a_target_grid_of_the_field_dim(line):
    # no window on either side, so the pairing rule passes and the
    # transform's own dimension check is the one that raises
    plane = UniformGrid.box(-4, 4, 9, dim=2)
    f = SampledField(line, np.ones(line.size))
    for transform in (dft_forward, dft_inverse):
        with pytest.raises(ShapeError, match="target grid dim 2 != field dim 1"):
            transform(f, plane)
        with pytest.raises(ShapeError, match="target grid dim 1 != field dim 2"):
            transform((SampledField(plane, np.ones(plane.size)),), line)


def test_hermite_functions_are_transform_eigenvectors(line):
    # [DERIVED] k-th function maps to (-i)^k times itself
    for k in range(4):
        psi = SampledField(line, hermite_function(k, line.nodes[:, 0]).astype(complex))
        fhat = dft_forward(psi, line)
        assert np.abs(fhat.values - (-1j) ** k * psi.values).max() < 1e-10


def test_plancherel(line):
    rng = np.random.default_rng(2)
    x = line.nodes[:, 0]
    vals = ((rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(-np.pi * (x - 0.3) ** 2))
    f = SampledField(line, vals)
    assert lp_norm(dft_forward(f, line), 2.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-10)


def test_lp_norm_closed_form():
    g = UniformGrid.box(-10.0, 10.0, 801, 1)
    x = g.nodes[:, 0]
    f = SampledField(g, np.exp(-np.pi * x**2).astype(complex))
    # [DERIVED] ||exp(-pi x^2)||_p = p^(-1/(2p))
    for p in (1.0, 2.0, 3.0):
        assert lp_norm(f, p) == pytest.approx(p ** (-1.0 / (2.0 * p)), rel=1e-8)
    assert lp_norm(f, np.inf) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        lp_norm(f, 0.5)


def test_mixed_norm_separable_factorizes():
    gx = UniformGrid.box(-6.0, 6.0, 129, 1)
    gxi = UniformGrid.box(-6.0, 6.0, 161, 1)
    u = np.exp(-np.pi * gx.nodes[:, 0] ** 2)
    v = np.exp(-np.pi * gxi.nodes[:, 0] ** 2 / 2.0)

    class Sym:
        space, freq = gx, gxi
        values = np.outer(u, v).astype(complex)

    # [DERIVED] tensor products factor into one norm per variable
    want = lp_norm(SampledField(gx, u.astype(complex)), 3.0) * lp_norm(
        SampledField(gxi, v.astype(complex)), 2.0
    )
    assert mixed_norm(Sym(), "x", 3.0, 2.0) == pytest.approx(want, rel=1e-12)
    assert mixed_norm(Sym(), "xi", 2.0, 3.0) == pytest.approx(want, rel=1e-12)


def test_mixed_norm_streams_rows_with_whole_array_bits():
    # the whole-array formulas the row-blocked norms replaced; 1025 rows
    # span five row blocks, the last a single row
    g, xi = UniformGrid.box(-8.0, 8.0, 1025), UniformGrid.box(-4.0, 4.0, 300)
    rng = np.random.default_rng(41)
    a = SampledSymbol(g, xi, rng.standard_normal((g.size, xi.size)) + 1j * rng.standard_normal((g.size, xi.size)))
    vals, wx, wxi = np.abs(a.values), g.weights, xi.weights
    for p_in, p_out in ((2.0, 2.0), (3.0, 1.5), (1.0, 4.0)):
        t = ksum(wx[:, None] * vals**p_in, axis=0) ** (1.0 / p_in)
        assert mixed_norm(a, "x", p_in, p_out) == float(ksum(wxi * t**p_out)) ** (1.0 / p_out)
        t = ksum(wxi[None, :] * vals**p_in, axis=1) ** (1.0 / p_in)
        assert mixed_norm(a, "xi", p_in, p_out) == float(ksum(wx * t**p_out)) ** (1.0 / p_out)


def test_hausdorff_young_ratio_bounds(line):
    x = line.nodes[:, 0]
    f = SampledField(line, np.exp(-np.pi * (x - 0.5) ** 2).astype(complex))
    # [DERIVED] centered Gaussians meet the bound with equality at p = 2
    assert hausdorff_young_ratio(f, 2.0) == pytest.approx(1.0, abs=1e-10)
    assert hausdorff_young_ratio(f, 1.0) <= 1.0 + 1e-12
    assert hausdorff_young_ratio(f, 1.5) <= 1.0 + 1e-12
    with pytest.raises(DomainError):
        hausdorff_young_ratio(f, 2.5)
    with pytest.raises(ZeroNormError):
        hausdorff_young_ratio(SampledField(line, np.zeros(257, dtype=complex)), 2.0)


def test_dense_eigenvalues_order_and_checks():
    # [TRIVIAL] spectrum of diag, sorted by modulus then angle
    M = np.diag([1.0 + 0.0j, -3.0 + 0.0j, 0.5j])
    ev = dense_eigenvalues(M)
    assert np.allclose(ev, [-3.0, 1.0, 0.5j])
    with pytest.raises(ShapeError):
        dense_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        dense_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_dense_eigenvalues_take_strided_input():
    # a transposed matrix and a column slice have a strided last axis; the
    # finiteness check reads them as they are, and eigvals does not depend on
    # the layout, so both give the bits of their contiguous copies
    rng = np.random.default_rng(45)
    A = rng.standard_normal((9, 12)) + 1j * rng.standard_normal((9, 12))
    for M in (A[:, :9].T, A[:, ::4][:3, :3], A[:, 2:11]):
        assert not M.flags.c_contiguous
        assert np.array_equal(dense_eigenvalues(M), dense_eigenvalues(np.ascontiguousarray(M)))
    with pytest.raises(ValidationError):
        dense_eigenvalues(np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex).T)


# A seeded 300 x 300 complex spectrum in a fresh process: the digest of its
# bytes, and the OpenBLAS thread count before and after the call.
_SPECTRUM_AT_THREADS = """
import hashlib
import numpy as np
from nucfio import numerics
rng = np.random.default_rng(2024)
A = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
get = numerics._openblas_threads()[0]
before = get()
ev = numerics.dense_eigenvalues(A)
print(hashlib.sha256(ev.tobytes()).hexdigest(), before, get())
"""


def _spectrum_at_threads(threads: int) -> tuple:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _SPECTRUM_AT_THREADS]
    out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True, timeout=300)
    digest, before, after = out.stdout.split()
    return digest, int(before), int(after)


def test_dense_eigenvalues_are_identical_across_blas_threads():
    # zgeev's blocked updates round by thread count; the spectrum pins OpenBLAS
    # to one thread for the call and then restores the caller's count
    if _openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS thread symbols not found")
    one, two = (_spectrum_at_threads(n) for n in (1, 2))
    if two[1] < 2:
        pytest.skip("OpenBLAS runs one thread on this machine")
    assert one[0] == two[0]
    assert (one[1:], two[1:]) == ((1, 1), (2, 2))


def test_matrix_trace():
    M = np.arange(9.0).reshape(3, 3) + 1j
    assert matrix_trace(M) == pytest.approx(12.0 + 3j)


_SYMBOL = SampledSymbol(UniformGrid.box(-1.0, 1.0, 5), UniformGrid.box(-1.0, 1.0, 5), np.ones((5, 5), dtype=complex))
# a symbol's fields with values that do not fit its grids (SampledSymbol itself rejects them)
_MISSHAPEN = SimpleNamespace(space=_SYMBOL.space, freq=_SYMBOL.freq, values=np.ones((5, 4)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: mixed_norm(_SYMBOL, "y", 2.0, 2.0), ValidationError, "inner must be 'x' or 'xi', got 'y'"),
        (lambda: mixed_norm(_MISSHAPEN, "x", 2.0, 2.0), ShapeError, r"symbol values \(5, 4\) != grid sizes \(5, 5\)"),
        (lambda: matrix_trace(np.zeros((2, 3))), ShapeError, r"matrix must be square 2-d, got shape \(2, 3\)"),
    ],
    ids=["mixed_norm_inner_y", "mixed_norm_shape", "matrix_trace_2x3"],
)
def test_malformed_numerics_input_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_an_eigenvalue_solver_failure_is_a_numeric_error(monkeypatch):
    def diverges(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", diverges)
    with pytest.raises(NumericError, match=r"failed to converge within the LAPACK cap of 30\*n = 90 iterations"):
        dense_eigenvalues(np.eye(3))
