import functools
import math
import tracemalloc

import numpy as np
import pytest

from nucfio.errors import (
    DomainError,
    GridMismatchError,
    ShapeError,
    TruncationError,
    ValidationError,
)
from nucfio.grids import (
    KahanSum,
    LatticeWindow,
    SampledField,
    SampledSymbol,
    UniformGrid,
    interpolate,
    ksum,
    require_edge_decay,
    require_same_grid,
)
from nucfio.numerics import dft_forward, dft_inverse


def test_box_weights_sum_to_volume():
    g = UniformGrid.box(-2.0, 3.0, 11, 2)
    # [TRIVIAL] trapezoid weights on a box reproduce its volume
    assert abs(float(g.weights.sum()) - 25.0) < 1e-12
    assert g.shape == (11, 11)
    assert g.size == 121


def test_torus_weights_are_uniform():
    g = UniformGrid.torus(8, 1)
    assert g.periodic
    assert np.allclose(g.weights, 1.0 / 8.0)
    # periodic nodes exclude the right endpoint
    assert g.nodes[-1, 0] == pytest.approx(7.0 / 8.0)


def test_nodes_are_row_major():
    g = UniformGrid.box(0.0, 1.0, 3, 2)
    # [TRIVIAL] second axis varies fastest
    assert np.allclose(g.nodes[0], [0.0, 0.0])
    assert np.allclose(g.nodes[1], [0.0, 0.5])
    assert np.allclose(g.nodes[3], [0.5, 0.0])


def test_grid_rejects_bad_axes():
    with pytest.raises(ValidationError):
        UniformGrid(((1.0, 0.0, 4),))  # lo >= hi
    with pytest.raises(ValidationError):
        UniformGrid(((0.0, 1.0, 1),))  # fewer than 2 nodes


def test_ksum_matches_fsum_on_adversarial_input():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(2000) * 10.0 ** rng.integers(-8, 8, size=2000)
    assert float(ksum(vals)) == pytest.approx(math.fsum(vals), rel=1e-15)


def test_ksum_axis_and_complex():
    a = np.arange(12.0).reshape(3, 4) + 1j
    out = ksum(a, axis=0)
    assert out.shape == (4,)
    assert np.allclose(out, a.sum(axis=0))


def _adversarial(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)


@pytest.mark.parametrize(
    "values, axis",
    [
        (_adversarial(2000), None),
        (_adversarial(2000) + 1j * _adversarial(2000, 1), None),
        (_adversarial(2000).reshape(40, 50), 1),
        ((_adversarial(2000) - 1j * _adversarial(2000, 2)).reshape(20, 10, 10), 0),
    ],
    ids=["real_flat", "complex_flat", "real_axis1", "complex_axis0"],
)
def test_kahan_sum_in_blocks_matches_one_ksum(values, axis):
    # the cancellation-heavy input of the fsum test, fed at random split
    # points (repeated points give empty blocks): the same bits as one call
    want = ksum(values, axis=axis)
    a = values.reshape(-1) if axis is None else np.moveaxis(values, axis, 0)
    rng = np.random.default_rng(3)
    for _ in range(3):
        cuts = np.sort(rng.integers(0, a.shape[0] + 1, size=5))
        acc = KahanSum(a.shape[1:], a.dtype)
        for block in np.split(a, cuts):
            acc.add(block)
        got = acc.value
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _lane_sensitive(n, lanes):
    """Zeros, and in each of ``lanes`` the terms 2**53, 1, 2**-60 one lane row
    of 1024 apart. The lane's compensation rounds 1 + 2**-60 to 1, so the fold
    meets a tie and rounds to even; a 2**-60 dealt to another lane survives
    and breaks the tie. The sum's bits show whether every term kept its lane."""
    v = np.zeros(n)
    for lane in lanes:
        v[lane + 1024 * np.arange(3)] = [2.0**53, 1.0, 2.0**-60]
    return v


def test_lane_sensitive_input_tells_lanes_apart():
    v = _lane_sensitive(3500, (0, 1, 1000, 1023))
    assert ksum(v) == 2.0**55  # 4 * (2**53 + 1) is a tie, rounded to even
    v[[3048, 3049]] = v[[3049, 3048]]  # one 2**-60 moves to the next lane
    assert ksum(v) == 2.0**55 + 8.0


@pytest.mark.parametrize(
    "values",
    [
        _adversarial(3500),
        _adversarial(3500, 4) - 1j * _adversarial(3500, 5),
        _lane_sensitive(3500, (0, 1, 1000, 1023)),
        _lane_sensitive(3500, (0, 1, 1000, 1023)) - 1j * _lane_sensitive(3500, (5, 6, 700, 1022)),
    ],
    ids=["real_adversarial", "complex_adversarial", "real_lane_sensitive", "complex_lane_sensitive"],
)
def test_flat_kahan_sum_resumes_across_lane_wraps(values):
    # more than three lane rows of 1024, cut off the row boundaries (a cut
    # inside a row, blocks longer than a row, repeated cuts for empty blocks)
    want = ksum(values)
    for cuts in ([0, 1, 1023, 1023, 1025, 2047, 3073], [700, 700, 2900, 3500], [1024, 1500, 2048, 2048, 3499]):
        acc = KahanSum((), values.dtype)
        for block in np.split(values, cuts):
            acc.add(block)
        got = acc.value
        assert type(got) is type(want)
        assert got.tobytes() == want.tobytes()


def test_flat_kahan_sum_rejects_a_complex_block_into_a_real_total():
    # a real lane would keep only the real part
    with pytest.raises(ValidationError, match="complex block"):
        KahanSum((), float).add(np.array([1.0 + 1.0j]))


_BIG = np.finfo(float).max


@pytest.mark.parametrize(
    "values, want",
    [
        ([np.inf, 1.0], np.inf),
        ([1.0, np.nan], np.nan),
        ([np.inf, -np.inf], np.nan),
        ([_BIG, _BIG], np.inf),
        ([-_BIG, -_BIG, _BIG], -np.inf),  # the exact sum is finite, but the fold overflows
        ([complex(np.inf, 1.0), complex(2.0, 2.0)], complex(np.inf, 3.0)),
        ([complex(1.0, np.nan)], complex(1.0, np.nan)),
        ([complex(np.inf, -np.inf), complex(-np.inf, 1.0)], complex(np.nan, -np.inf)),
        ([complex(_BIG, -_BIG)] * 2, complex(np.inf, -np.inf)),
    ],
    ids=[
        "inf",
        "nan",
        "inf_minus_inf",
        "overflow",
        "intermediate_overflow",
        "complex_inf",
        "complex_nan",
        "complex_inf_minus_inf",
        "complex_overflow",
    ],
)
def test_flat_ksum_of_non_finite_or_overflowing_values_is_the_ieee_sum(values, want):
    # math.fsum of the lanes raises or returns nan on these; the sum gives the IEEE values
    values = np.asarray(values)
    with np.errstate(over="ignore", invalid="ignore"):
        got = ksum(values)
    assert type(got) is values.dtype.type
    assert np.array_equal(got, want, equal_nan=True)


def test_interpolate_exact_on_cubics():
    # 4-point Lagrange rule reproduces polynomials of degree <= 3 exactly
    g = UniformGrid.box(-1.0, 1.0, 21, 1)
    x = g.nodes[:, 0]
    vals = (x**3 - 2.0 * x**2 + 0.5).astype(complex)
    pts = np.linspace(-0.95, 0.95, 57)[:, None]
    got = interpolate(vals, g, pts)
    want = pts[:, 0] ** 3 - 2.0 * pts[:, 0] ** 2 + 0.5
    assert np.abs(got - want).max() < 1e-13


def test_interpolate_zero_outside_box():
    g = UniformGrid.box(0.0, 1.0, 9, 1)
    vals = np.ones(9, dtype=complex)
    got = interpolate(vals, g, np.array([[2.0], [-0.5]]))
    assert np.all(got == 0.0)


@pytest.mark.parametrize("counts", [(2,), (3,), (2, 3)], ids=["two_nodes", "three_nodes", "two_by_three"])
def test_interpolate_is_linear_on_axes_below_four_nodes(counts):
    # axes too short for the cubic stencil fall back to a linear one, which
    # reproduces affine data exactly and reads zero outside the box
    g = UniformGrid(tuple((-1.0, 2.0, n) for n in counts))
    slope = np.array([2.0 - 1.0j, -3.0 + 0.5j])[: len(counts)]
    vals = 0.5 + g.nodes @ slope
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.0, 2.0, size=(40, len(counts)))
    assert np.abs(interpolate(vals, g, pts) - (0.5 + pts @ slope)).max() < 1e-14
    outside = np.full((2, len(counts)), 0.5)
    outside[0, 0], outside[1, -1] = -1.5, 2.5
    assert np.all(interpolate(vals, g, outside) == 0.0)


def test_sampled_field_validation():
    g = UniformGrid.box(0.0, 1.0, 4, 1)
    with pytest.raises(ShapeError):
        SampledField(g, np.zeros(5))
    with pytest.raises(ValidationError):
        SampledField(g, np.array([1.0, np.inf, 0.0, 0.0]))


def test_require_same_grid():
    a = UniformGrid.box(0.0, 1.0, 4, 1)
    b = UniformGrid.box(0.0, 2.0, 4, 1)
    require_same_grid(a, UniformGrid.box(0.0, 1.0, 4, 1), "ctx")
    with pytest.raises(GridMismatchError):
        require_same_grid(a, b, "ctx")


def test_edge_decay_flags_non_decaying_samples():
    g = UniformGrid.box(-1.0, 1.0, 33, 1)
    ok = np.exp(-40.0 * g.nodes[:, 0] ** 2).astype(complex)
    require_edge_decay(ok, g, "field")
    bad = np.ones(33, dtype=complex)
    with pytest.raises(TruncationError) as err:
        require_edge_decay(bad, g, "field")
    assert "axis" in str(err.value)


def test_require_real_bounds():
    from nucfio.grids import require_real

    require_real(0.5, "tau", 0.0, 1.0, include_lo=False)
    with pytest.raises(DomainError):
        require_real(0.0, "tau", 0.0, 1.0, include_lo=False)


def test_interpolate_column_gather_peak_does_not_grow_with_table_width():
    # each point reads one column, so the peak is a few point-sized arrays
    # (the output, one reused gather buffer, the stencils), never points x columns
    g = UniformGrid.box(-5.0, 5.0, 201, 1)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5.0, 5.0, size=(2000, 1))
    peaks = []
    for width in (3, 201):
        vals = rng.standard_normal((g.size, width)) + 1j * rng.standard_normal((g.size, width))
        cols = rng.integers(0, width, size=2000)
        tracemalloc.start()
        try:
            out = interpolate(vals, g, pts, cols)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert out.shape == (2000,)
    # equal up to interpreter bookkeeping; a (points, width) buffer would be 6.4 MB
    assert abs(peaks[1] - peaks[0]) < 0.05 * peaks[0]
    assert peaks[1] <= 8 * out.nbytes


def test_grid_construction_does_not_form_the_product_weights():
    # the volume is checked axis by axis; the product weights of 10^6 nodes
    # would be 8 MB before any caller could judge the grid's size
    tracemalloc.start()
    try:
        UniformGrid.torus(100, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- the Z^n-T^n pairing rule where a window meets a grid ----------------------


@pytest.mark.parametrize("window_side", ["space", "freq"])
def test_an_aliasing_symbol_is_refused_at_construction(window_side):
    # a cutoff-3 window needs 2 * 7 = 14 torus nodes; on 4 the lattice
    # identity, built unchecked, traced to 7 through the R^n entry point
    window, torus = LatticeWindow(1, 3), UniformGrid.torus(4)
    space, freq, what = (window, torus, "lattice xi") if window_side == "space" else (torus, window, "torus x")
    with pytest.raises(TruncationError, match=f"{what}_count = 4 below the exactness threshold 14"):
        SampledSymbol(space, freq, np.ones((space.size, freq.size)))


def test_the_transform_refuses_an_aliasing_pair():
    window, torus = LatticeWindow(1, 3), UniformGrid.torus(4)
    on_window = SampledField(window, np.ones(window.size))
    on_torus = SampledField(torus, np.ones(torus.size))
    calls = [
        (lambda: dft_forward(on_window, torus), "lattice xi_count"),
        (lambda: dft_inverse(on_window, torus), "lattice xi_count"),
        (lambda: dft_forward(on_torus, window), "torus x_count"),
    ]
    for call, what in calls:
        with pytest.raises(TruncationError, match=f"{what} = 4 below the exactness threshold 14"):
            call()



@functools.cache
def _coercion_cases():
    """(site, call) pairs: each feeds one scalar parameter a value that a
    truncating int() or float() would accept (2.5, 2.0, True, "2" where an
    integer is due; "2", True, nan or inf where a real is due), or that a bare
    comparison would meet with a TypeError. Values a site refused already
    through its range check (True as a node count of at least 2, say) are
    left out, so every case is one that used to slip through."""
    from nucfio.cli import run_scenario
    from nucfio.euclid import decay_norms, lidskii_exponent
    from nucfio.families import gaussian_profile, hermite_function, random_gaussian_mix
    from nucfio.group import (
        class_i_mask,
        identity_phase,
        s3_quadrature,
        su2_haar_quadrature,
        su2_irrep_table,
        su2_schur_error,
        wigner_matrix,
    )
    from nucfio.homog import (
        ClassIIrrepTable,
        dual_lp_norm,
        homog_mixed_norm,
        su3_dim,
        su3_haar_quadrature,
        table_from_su2,
    )
    from nucfio.nuclear import RankOneSequence, holder_conjugate
    from nucfio.numerics import hausdorff_young_ratio, lp_norm, mixed_norm
    from nucfio.quantize import tau_apply, tau_convert, weyl_symbol_from_decomposition

    grid = UniformGrid.box(-5.0, 5.0, 9)
    f = SampledField(grid, np.exp(-np.pi * grid.nodes[:, 0] ** 2))
    sym = SampledSymbol(grid, grid, np.outer(f.values, f.values))
    d = RankOneSequence(((f, f),), 2.0, 2.0, 1.0)
    quad = su2_haar_quadrature(2, 2, 4)
    table = table_from_su2(quad, 1)
    cfg = {"setting": "homog", "instance": "torus", "cutoff": 1, "x_count": 8}
    rng = np.random.default_rng(0)
    integers = {
        "UniformGrid count": (lambda v: UniformGrid.box(-6.0, 6.0, v), [64.9, 2.5, 2.0, "2"]),
        "su2_irrep_table twoL": (lambda v: su2_irrep_table(quad, v), [2.0, True]),
        "su2_schur_error max_twoL": (lambda v: su2_schur_error(quad, v), [3.0, True, "3"]),
        "wigner_matrix twoL": (lambda v: wigner_matrix(v, 0.1, 0.2, 0.3), [2.0, True]),
        "GroupQuadrature.irrep label": (quad.irrep, [2.0, True]),
        "identity_phase cutoff_twoL": (lambda v: identity_phase(quad, v), [1.0, True]),
        "su2_haar_quadrature n_alpha": (lambda v: su2_haar_quadrature(v, 2, 2), [3.7, 2.5, 2.0, "2"]),
        "s3_quadrature resolution": (s3_quadrature, [8.9, 4.5, 4.0, "4"]),
        "su3_dim a": (lambda v: su3_dim(v, 0), [1.5, 2.5, 2.0, True, "2"]),
        "su3_haar_quadrature resolution": (lambda v: su3_haar_quadrature(v, 5), [7.9, 2.5, 2.0, "2"]),
        "su3_haar_quadrature phi_count": (lambda v: su3_haar_quadrature(7, v), [5.5, 3.0, "3"]),
        "table_from_su2 cutoff_twoL": (lambda v: table_from_su2(quad, v), [2.9, 2.0, True, "2"]),
        "ClassIIrrepTable k_inv": (
            lambda v: ClassIIrrepTable(table.weights, table.matrices, {0: 1, 1: v}),
            [1.5, 1.0, True, "1"],
        ),
        "class_i_mask k": (lambda v: class_i_mask(table.matrices[1], v), [1.5, 1.0, True, "1"]),
        "hermite_function k": (lambda v: hermite_function(v, grid.nodes[:, 0]), [2.5, 2.0, True, "2"]),
        "random_gaussian_mix terms": (lambda v: random_gaussian_mix(grid, rng, v), [2.5, 2.0, True, "2"]),
    }
    reals = {
        "UniformGrid lo": (lambda v: UniformGrid.box(v, 6.0, 5), ["-6", True, -np.inf]),
        "UniformGrid hi": (lambda v: UniformGrid.box(-6.0, v, 5), ["2", True, np.inf]),
        "wigner_matrix angle": (lambda v: wigner_matrix(1, v, 0.2, 0.3), ["0.5", True]),
        "holder_conjugate p": (holder_conjugate, ["2", True]),
        "lidskii_exponent p": (lidskii_exponent, ["2", True]),
        "hausdorff_young_ratio p": (lambda v: hausdorff_young_ratio(f, v), ["2", True]),
        "lp_norm p": (lambda v: lp_norm(f, v), ["2", True]),
        "mixed_norm p_inner": (lambda v: mixed_norm(sym, "x", v, 2.0), ["2", True]),
        "RankOneSequence p1": (lambda v: RankOneSequence(d.terms, v, 2.0, 1.0), ["2", True]),
        "RankOneSequence r": (lambda v: RankOneSequence(d.terms, 2.0, 2.0, v), ["0.5", True]),
        "decay_norms p1": (lambda v: decay_norms(sym, v, 2.0), ["2"]),
        "decay_norms p2": (lambda v: decay_norms(sym, 2.0, v), ["2", True]),
        "homog_mixed_norm p1": (lambda v: homog_mixed_norm(identity_phase(quad, 1), v, 2.0), ["2", True]),
        "dual_lp_norm p": (lambda v: dual_lp_norm({0: np.ones((1, 1))}, table, v), ["2", True]),
        "gaussian_profile center": (lambda v: gaussian_profile(grid.nodes[:, 0], v, 1.0), ["0", True, np.nan]),
        "gaussian_profile width": (lambda v: gaussian_profile(grid.nodes[:, 0], 0.0, v), ["1", True, np.nan]),
        "tau_apply tau": (lambda v: tau_apply(sym, v, f), ["0.5", True]),
        "weyl_symbol_from_decomposition tau": (lambda v: weyl_symbol_from_decomposition(d, v), ["0.5", True]),
        "tau_convert tau_prime": (lambda v: tau_convert(sym, 0.5, v), ["0.5", True]),
        "run_scenario tolerance": (lambda v: run_scenario(cfg, "verify", v), ["1", True]),
    }
    return {f"{site}={value!r}": (call, value) for site, (call, values) in (integers | reals).items() for value in values}


@pytest.mark.parametrize("case", sorted(_coercion_cases()))
def test_library_parameters_are_never_coerced(case):
    # each value raises ValidationError (DomainError for nan and inf), never
    # a TypeError from a bare comparison and never a truncated result
    call, value = _coercion_cases()[case]
    with pytest.raises(ValidationError):
        call(value)
