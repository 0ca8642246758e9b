import numpy as np
import pytest

from nucfio.errors import DomainError, GridMismatchError, ValidationError
from nucfio.grids import LatticeWindow, SampledField, UniformGrid
from nucfio.group import su2_haar_quadrature
from nucfio.nuclear import (
    RankOneSequence,
    apply_kernel,
    delgado_trace,
    holder_conjugate,
    kernel_from_decomposition,
    kernel_matrix,
    r_quasinorm_bound,
)


@pytest.fixture
def grid():
    return UniformGrid.box(-6.0, 6.0, 241, 1)


def gaussian(grid, c, w=1.0, amp=1.0 + 0.0j):
    x = grid.nodes[:, 0]
    return SampledField(grid, amp * np.exp(-np.pi * ((x - c) / w) ** 2))


def test_holder_conjugate():
    assert holder_conjugate(2.0) == 2.0
    assert holder_conjugate(1.0) == np.inf
    assert holder_conjugate(4.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(DomainError):
        holder_conjugate(0.9)


def test_delgado_trace_closed_form(grid):
    # [DERIVED] int exp(-pi x^2)^2 dx = 1/sqrt(2); two equal terms double it
    h = gaussian(grid, 0.0)
    d = RankOneSequence(((h, h), (h, h)), 2.0, 2.0, 1.0)
    assert delgado_trace(d) == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-12)


def test_delgado_requires_shared_grid(grid):
    # mixed-grid factor pairs are legal (rectangular kernels), but the
    # diagonal pairing is not defined across grids
    other = UniformGrid.box(-6.0, 6.0, 240, 1)
    h = gaussian(grid, 0.0)
    g = gaussian(other, 0.0)
    d = RankOneSequence(((h, g),), 2.0, 2.0, 1.0)
    with pytest.raises(GridMismatchError):
        delgado_trace(d)


def test_quasinorm_closed_form(grid):
    # [DERIVED] single Gaussian pair at p1 = p2 = 2, r = 1:
    # ||g||_2 ||h||_2 = 2^(-1/2)
    h = gaussian(grid, 0.0)
    d = RankOneSequence(((h, h),), 2.0, 2.0, 1.0)
    assert r_quasinorm_bound(d) == pytest.approx(2.0**-0.5, rel=1e-10)
    # [DERIVED] r = 1/2: (2 * (2^(-1/2))^(1/2))^2 = 2 sqrt(2)
    d2 = RankOneSequence(((h, h), (h, h)), 2.0, 2.0, 0.5)
    assert r_quasinorm_bound(d2) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-10)


def test_quasinorm_uses_sup_for_p1_one(grid):
    # p1 = 1 pairs with the sup norm on the g factor
    h = gaussian(grid, 0.0, amp=2.0)
    d = RankOneSequence(((h, h),), 1.0, 2.0, 1.0)
    want = 2.0 * (4.0 / np.sqrt(2.0)) ** 0.5
    assert r_quasinorm_bound(d) == pytest.approx(want, rel=1e-10)


def test_rank_one_sequence_validation(grid):
    h = gaussian(grid, 0.0)
    with pytest.raises(DomainError):
        RankOneSequence(((h, h),), 0.5, 2.0, 1.0)
    with pytest.raises(DomainError):
        RankOneSequence(((h, h),), 2.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        RankOneSequence(((h, h),), 2.0, 2.0, 1.5)


def test_rank_one_sequence_domains():
    # one container for every domain kind: factors must be fields, and the
    # h (and g) factors must share one domain, compared as that kind compares
    w, quad = LatticeWindow(1, 2), su2_haar_quadrature(4, 4, 8)
    ones = SampledField(w, np.ones(w.size))
    with pytest.raises(ValidationError):
        RankOneSequence(((np.ones(w.size), ones),), 2.0, 2.0, 1.0)
    other = SampledField(LatticeWindow(1, 2), np.ones(w.size))
    assert RankOneSequence(((ones, ones), (other, other)), 2.0, 2.0, 1.0).rank == 2
    with pytest.raises(GridMismatchError):
        RankOneSequence(((ones, ones), (SampledField(LatticeWindow(1, 3), np.ones(7)), ones)), 2.0, 2.0, 1.0)
    twin = su2_haar_quadrature(4, 4, 8)  # the same nodes in another object
    f, f_twin = SampledField(quad, np.ones(quad.size)), SampledField(twin, np.ones(twin.size))
    with pytest.raises(GridMismatchError):
        RankOneSequence(((f, f), (f_twin, f)), 2.0, 2.0, 1.0)


def test_kernel_apply_matches_inner_products(grid):
    # K(x, y) = sum_k h_k(x) g_k(y), so Kf(x) = sum_k <f, conj(g_k)> h_k(x)
    rng = np.random.default_rng(3)
    terms = tuple(
        (gaussian(grid, rng.uniform(-1, 1)), gaussian(grid, rng.uniform(-1, 1)))
        for _ in range(3)
    )
    d = RankOneSequence(terms, 2.0, 2.0, 1.0)
    K = kernel_from_decomposition(d)
    f = gaussian(grid, 0.3, w=1.4)
    got = apply_kernel(K, f).values
    want = np.zeros_like(got)
    for h, g in terms:
        want += h.values * float((grid.weights * (g.values * f.values)).sum().real)
    assert np.abs(got - want).max() < 1e-12


def test_kernel_matrix_trace_equals_delgado(grid):
    h = gaussian(grid, 0.2)
    g = gaussian(grid, -0.1)
    d = RankOneSequence(((h, g),), 2.0, 2.0, 1.0)
    M = kernel_matrix(kernel_from_decomposition(d))
    assert np.trace(M) == pytest.approx(delgado_trace(d), abs=1e-12)


def test_an_empty_decomposition_is_rejected():
    with pytest.raises(ValidationError, match="decomposition needs at least one term"):
        RankOneSequence((), 2.0, 2.0, 1.0)
