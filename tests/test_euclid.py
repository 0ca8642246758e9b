import tracemalloc

import numpy as np
import pytest

from nucfio.errors import DomainError, ShapeError, ValidationError
from nucfio.euclid import (
    PhaseSpec,
    _cis,
    decay_norms,
    fio_apply,
    lidskii_exponent,
    lidskii_report,
    nuclear_trace_euclid,
    symbol_from_decomposition,
)
from nucfio.grids import SampledField, SampledSymbol, UniformGrid, ksum
from nucfio.nuclear import (
    RankOneSequence,
    apply_kernel,
    delgado_trace,
    kernel_from_decomposition,
)


@pytest.fixture
def grid():
    return UniformGrid.box(-6.0, 6.0, 257, 1)


def gaussian(grid, c, w=1.0, amp=1.0 + 0.0j):
    x = grid.nodes[:, 0]
    return SampledField(grid, amp * np.exp(-np.pi * ((x - c) / w) ** 2))


def rank_one(grid, rng, terms=2):
    pairs = tuple(
        (
            gaussian(grid, rng.uniform(-1, 1), rng.uniform(0.8, 1.4), 1.0 + 0.5j * rng.standard_normal()),
            gaussian(grid, rng.uniform(-1, 1), rng.uniform(0.8, 1.4)),
        )
        for _ in range(terms)
    )
    return RankOneSequence(pairs, 2.0, 2.0, 1.0)


def test_identity_symbol_reproduces_input(grid):
    # phi = 2 pi x.xi with a = 1 is the inverse transform of the transform
    a = SampledSymbol(grid, grid, np.ones((grid.size, grid.size), dtype=complex))
    f = gaussian(grid, 0.4, 1.2)
    out = fio_apply(PhaseSpec.linear(), a, f)
    assert np.abs(out.values - f.values).max() < 1e-10


def test_synthesized_symbol_reproduces_kernel_action(grid):
    rng = np.random.default_rng(7)
    d = rank_one(grid, rng)
    a = symbol_from_decomposition(PhaseSpec.linear(), d)
    f = gaussian(grid, -0.2, 1.1)
    via_symbol = fio_apply(PhaseSpec.linear(), a, f).values
    via_kernel = apply_kernel(kernel_from_decomposition(d), f).values
    assert np.abs(via_symbol - via_kernel).max() < 1e-8


def test_nuclear_trace_equals_delgado_linear_phase(grid):
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = rank_one(grid, rng, terms=3)
        a = symbol_from_decomposition(PhaseSpec.linear(), d)
        tr = nuclear_trace_euclid(PhaseSpec.linear(), a)
        assert tr == pytest.approx(delgado_trace(d), abs=1e-10)


def test_sampled_phase_matches_linear(grid):
    # a sampled table holding 2 pi x.xi must agree with the closed form
    rng = np.random.default_rng(13)
    d = rank_one(grid, rng)
    table = 2.0 * np.pi * (grid.nodes @ grid.nodes.T)
    sampled = PhaseSpec("sampled", table)
    a_lin = symbol_from_decomposition(PhaseSpec.linear(), d)
    a_smp = symbol_from_decomposition(sampled, d)
    assert np.abs(a_lin.values - a_smp.values).max() < 1e-12
    tr_lin = nuclear_trace_euclid(PhaseSpec.linear(), a_lin)
    tr_smp = nuclear_trace_euclid(sampled, a_smp)
    assert tr_smp == pytest.approx(tr_lin, abs=1e-10)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: PhaseSpec("quadratic"), ValidationError, r"phase kind 'quadratic' not in \('linear', 'sampled'\)"),
        (lambda: PhaseSpec("sampled", np.zeros(5)), ShapeError, "must be a 2-d table"),
        (lambda: PhaseSpec("sampled", [[0.0, np.nan]]), ValidationError, "non-finite entries"),
        (lambda: PhaseSpec("linear", np.zeros((2, 2))), ValidationError, "carries no sample table"),
        (
            lambda: PhaseSpec("sampled", np.zeros((3, 4))).table(np.zeros((5, 1)), np.zeros((4, 1))),
            ShapeError,
            r"sampled phase table \(3, 4\) != \(5, 4\)",
        ),
    ],
    ids=["unknown_kind", "one_d_table", "nan_entry", "linear_with_table", "table_shape"],
)
def test_phase_spec_rejects_bad_input(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_undersampled_phase_is_rejected():
    # coarse grid with a strongly shifted phase: the residual oscillation
    # 2 pi s.xi advances too fast per node, so the 8-per-period rule fires
    g = UniformGrid.box(-6.0, 6.0, 17, 1)
    a = SampledSymbol(g, g, np.ones((17, 17), dtype=complex))
    table = 2.0 * np.pi * ((g.nodes + 2.0) @ g.nodes.T)
    with pytest.raises(ValidationError, match="density"):
        nuclear_trace_euclid(PhaseSpec("sampled", table), a)


def test_density_check_pairs_rows_across_row_blocks():
    # 300 rows span two row blocks of the check; the only step above the
    # bound is between rows 255 and 256, one on each side of the boundary
    g = UniformGrid.box(-5.0, 5.0, 300, 1)
    xi = UniformGrid.box(-1.0, 1.0, 32, 1)
    a = SampledSymbol(g, xi, np.ones((g.size, xi.size), dtype=complex))
    table = 2.0 * np.pi * (g.nodes @ xi.nodes.T)
    table[256:] += 1.0
    with pytest.raises(ValidationError, match=r"advances 1\.000 rad per node step on axis 0,"):
        nuclear_trace_euclid(PhaseSpec("sampled", table), a)


def test_density_check_skips_line_ends_in_dim_two():
    # 20 x 20 rows in two row blocks; the residual 0.5 * (second index)
    # steps by 0.5 along axis 1 and jumps 9.5 between flat rows that end
    # one line and start the next, which are not neighbours on any axis
    g = UniformGrid.box(-1.0, 1.0, 20, 2)
    xi = UniformGrid.box(-1.0, 1.0, 4, 2)
    a = SampledSymbol(g, xi, np.ones((g.size, xi.size), dtype=complex))
    second = np.tile(np.arange(20.0), 20)
    table = 2.0 * np.pi * (g.nodes @ xi.nodes.T) + 0.5 * second[:, None]
    nuclear_trace_euclid(PhaseSpec("sampled", table), a)
    table[second == 19] += 0.5
    with pytest.raises(ValidationError, match=r"advances 1\.000 rad per node step on axis 1,"):
        nuclear_trace_euclid(PhaseSpec("sampled", table), a)


def test_sampled_trace_peak_memory_is_row_blocked():
    # the density check reads the phase in the trace's row blocks: at
    # n = n_xi = 1025 a full-table check allocated 32 MB, the trace 12 MB
    g = UniformGrid.box(-8.0, 8.0, 1025, 1)
    a = SampledSymbol(g, g, np.ones((g.size, g.size), dtype=complex))
    phase = PhaseSpec("sampled", 2.0 * np.pi * ((g.nodes + 0.25) @ g.nodes.T))
    tracemalloc.start()
    try:
        nuclear_trace_euclid(phase, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_rank_four_synthesis_peak_memory():
    # the transform is one FFT of the four factors on this dyadic box, and
    # the synthesis sums the four outer products per row block: the 16.8 MB
    # symbol plus row-block temporaries. The bound is the 34.0 MB that a
    # (n, _CHUNK // 4, 4) product block and four full-size np.outer
    # temporaries took; per-term transforms took 50.6 MB
    g = UniformGrid.box(-8.0, 8.0, 1025, 1)
    d = rank_one(g, np.random.default_rng(23), terms=4)
    tracemalloc.start()
    try:
        symbol_from_decomposition(PhaseSpec.linear(), d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34_000_000


def test_decay_norms_peak_memory_is_row_blocked():
    # both norms read the symbol _ROW_CHUNK rows at a time; reading it whole
    # took 25.3 MB above the symbol at this size, the row blocks 4.3 MB
    g = UniformGrid.box(-8.0, 8.0, 1025, 1)
    a = SampledSymbol(g, g, np.full((g.size, g.size), 1.0 + 1.0j))
    tracemalloc.start()
    try:
        decay_norms(a, 2.0, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_trace_is_phase_independent_after_synthesis(grid):
    # [DERIVED] synthesis divides the phase back out, so the trace of the
    # synthesized operator equals the kernel trace for any admissible phase
    rng = np.random.default_rng(17)
    s = 3.0 * grid.spacing[0]
    d = rank_one(grid, rng)
    table = 2.0 * np.pi * ((grid.nodes + s) @ grid.nodes.T)
    phase = PhaseSpec("sampled", table)
    a = symbol_from_decomposition(phase, d)
    tr = nuclear_trace_euclid(phase, a)
    assert tr == pytest.approx(delgado_trace(d), abs=1e-10)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sampled_phase_factor_is_the_exp_bit_for_bit(sign):
    # cos and sin in one complex buffer give np.exp's bits, the signs of
    # zero parts included: theta = -0.0 and +0.0 sit among the entries
    rng = np.random.default_rng(29)
    t = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-3, 4, 500), [0.0, -0.0, np.pi, -np.pi]])
    t[::7] = -0.0
    t[1::7] = 0.0
    t = t.reshape(24, -1)
    want = np.exp(sign * 1j * t)
    assert np.array_equal(_cis(t, sign).view(np.int64), want.view(np.int64))
    if sign > 0:
        assert np.array_equal(_cis(t).view(np.int64), np.exp(1j * t).view(np.int64))


def test_trace_is_one_compensated_pass_over_the_integrand():
    # 300 rows span two row blocks of the trace body; the blocks feed one
    # running Kahan sum in the symbol's flat order, so the trace is ksum of
    # the whole integrand bit for bit, with no per-block partial sums
    g = UniformGrid.box(-5.0, 5.0, 300, 1)
    xi = UniformGrid.box(-4.0, 4.0, 64, 1)
    kernel = 2.0 * np.pi * (g.nodes @ xi.nodes.T)
    table = kernel + 0.5 * np.sin(g.nodes) * np.cos(xi.nodes.T)
    rng = np.random.default_rng(19)
    values = rng.standard_normal((g.size, xi.size)) + 1j * rng.standard_normal((g.size, xi.size))
    w = g.weights[:, None] * xi.weights[None, :]
    want = complex(ksum(np.exp(1j * (table - kernel)) * values * w))
    got = nuclear_trace_euclid(PhaseSpec("sampled", table), SampledSymbol(g, xi, values))
    assert (got.real, got.imag) == (want.real, want.imag)


def test_decay_norms_requires_p1_at_least_two(grid):
    a = SampledSymbol(grid, grid, np.ones((grid.size, grid.size), dtype=complex))
    with pytest.raises(DomainError):
        decay_norms(a, 1.5, 2.0)


def test_lidskii_exponent_values():
    # [PAPER] 1/r = 1 + |1/p - 1/2|
    assert lidskii_exponent(2.0) == pytest.approx(1.0)
    assert lidskii_exponent(1.0) == pytest.approx(2.0 / 3.0)
    assert lidskii_exponent(4.0) == pytest.approx(0.8)


def test_lidskii_report_trace_identities(grid):
    rng = np.random.default_rng(23)
    d = rank_one(grid, rng)
    rep = lidskii_report(PhaseSpec.linear(), d, 2.0)
    assert rep.setting == "euclid"
    assert rep.discrepancy_trace_vs_matrix < 1e-10
    assert rep.discrepancy_trace_vs_eigensum < 1e-10
    assert rep.quasinorm_bound is not None
    assert rep.mixed_norm_x_first is not None
    # trace magnitude never exceeds the nuclear bound at r = 1
    assert abs(rep.nuclear_trace) <= rep.quasinorm_bound + 1e-9
