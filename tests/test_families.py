import numpy as np
import pytest

from nucfio.errors import ValidationError
from nucfio.families import (
    euclid_field,
    group_field,
    hermite_function,
    lattice_sequence,
    spec_needs_rng,
)
from nucfio.grids import LatticeWindow, UniformGrid
from nucfio.group import su2_haar_quadrature


@pytest.fixture
def grid():
    return UniformGrid.box(-8.0, 8.0, 513, 1)


def test_hermite_orthonormal(grid):
    x = grid.nodes[:, 0]
    # [DERIVED] the first few functions are orthonormal under the grid measure
    F = np.array([hermite_function(k, x) for k in range(4)])
    G = (F * grid.weights) @ F.T
    assert np.abs(G - np.eye(4)).max() < 1e-10


def test_delta_family_has_unit_mass(grid):
    f = euclid_field(grid, {"family": "delta", "node": 100}, None)
    assert float((grid.weights * f.values).sum().real) == pytest.approx(1.0)
    assert np.count_nonzero(f.values) == 1


def test_trigpoly_family(grid):
    # coeffs -1..1: 2 e^{-2 pi i x} + 1 + [0, 0.5] e^{2 pi i x}
    spec = {"family": "trigpoly", "coeffs": [2.0, 1.0, [0.0, 0.5]]}
    f = euclid_field(grid, spec, None)
    x = grid.nodes[:, 0]
    want = 2.0 * np.exp(-2j * np.pi * x) + 1.0 + 0.5j * np.exp(2j * np.pi * x)
    assert np.abs(f.values - want).max() < 1e-14


def test_random_mix_requires_rng(grid):
    with pytest.raises(ValidationError):
        euclid_field(grid, {"family": "random_mix"}, None)
    rng = np.random.default_rng(0)
    f = euclid_field(grid, {"family": "random_mix"}, rng)
    assert f.grid is grid
    assert np.abs(f.values).max() > 0


def test_spec_needs_rng():
    assert spec_needs_rng({"family": "random_mix"})
    assert not spec_needs_rng({"family": "gaussian"})


def test_unknown_family_rejected(grid):
    with pytest.raises(ValidationError):
        euclid_field(grid, {"family": "nope"}, None)
    w = LatticeWindow(1, 2)
    with pytest.raises(ValidationError):
        lattice_sequence(w, {"family": "nope"}, None)


def test_lattice_delta(grid):
    w = LatticeWindow(1, 2)
    f = lattice_sequence(w, {"family": "delta", "at": [1]}, None)
    # window points run -2..2, so lattice site 1 is index 3
    want = np.zeros(5, dtype=complex)
    want[3] = 1.0
    assert np.array_equal(f.values, want)


def test_lattice_delta_takes_one_coordinate_per_axis():
    w = LatticeWindow(2, 1)
    f = lattice_sequence(w, {"family": "delta", "at": [1, 0]}, None)
    hit = np.flatnonzero(f.values)
    assert hit.size == 1 and w.nodes[hit[0]].tolist() == [1.0, 0.0]
    # a point with too few or too many coordinates, or a bare integer, is
    # never broadcast over the axes
    for at in ([1], 1, [1, 0, 0], []):
        with pytest.raises(ValidationError, match="at must be a list of 2 coordinates"):
            lattice_sequence(w, {"family": "delta", "at": at}, None)


@pytest.mark.parametrize(
    "build",
    [
        lambda spec: euclid_field(UniformGrid.box(-4.0, 4.0, 9, 2), spec, None),
        lambda spec: lattice_sequence(LatticeWindow(2, 2), spec, None),
    ],
    ids=["grid", "window"],
)
def test_gaussian_center_takes_one_coordinate_per_axis_or_one_scalar(build):
    def field(center):
        return build({"family": "gaussian", "center": center, "width": 1.5}).values

    pts = build({"family": "constant"}).grid.nodes
    want = np.exp(-np.pi * ((pts[:, 0] - 0.1) / 1.5) ** 2) * np.exp(-np.pi * ((pts[:, 1] - 0.2) / 1.5) ** 2)
    assert np.allclose(field([0.1, 0.2]), want, rtol=1e-14, atol=0.0)
    # a scalar center applies to every axis
    assert np.array_equal(field(0.1), field([0.1, 0.1]))
    for center in ([0.1], [0.1, 0.2, 0.3]):
        with pytest.raises(ValidationError, match="center must be a list of 2 coordinates"):
            field(center)


def test_random_bandlimited_needs_rng():
    # so a seedless su2 config is rejected before its quadrature is built
    assert spec_needs_rng({"family": "random_bandlimited"})
    assert not spec_needs_rng({"family": ["random_mix"]})


def test_group_random_bandlimited_without_a_generator_is_a_validation_error():
    # not an AttributeError from rng.standard_normal on None
    quad = su2_haar_quadrature(4, 4, 8)
    with pytest.raises(ValidationError, match="random_bandlimited family needs a seeded generator"):
        group_field(quad, {"family": "random_bandlimited"}, 1)


@pytest.mark.parametrize("key, index", [("i", -1), ("i", 2), ("j", 3)])
def test_group_matrix_entry_index_is_bounded_by_twoL(key, index):
    quad = su2_haar_quadrature(4, 4, 8)
    with pytest.raises(ValidationError, match=rf"^matrix_entry\.{key} = {index} outside 0\.\.1 \(twoL\)$"):
        group_field(quad, {"family": "matrix_entry", "twoL": 1, key: index}, 1)


def test_a_family_rejects_keys_it_does_not_read(grid):
    with pytest.raises(ValidationError, match=r"unknown keys \['widht'\]"):
        euclid_field(grid, {"family": "gaussian", "widht": 3.0}, None)
    with pytest.raises(ValidationError, match=r"unknown keys \['node'\]"):
        lattice_sequence(LatticeWindow(1, 2), {"family": "delta", "node": 1}, None)



_PLANE, _FIVE, _WINDOW = UniformGrid.box(-4.0, 4.0, 9, 2), UniformGrid.box(-1.0, 1.0, 5), LatticeWindow(1, 2)


@pytest.mark.parametrize(
    "build, domain, spec, message",
    [
        (euclid_field, _PLANE, {"family": "hermite"}, "hermite family is one-dimensional"),
        (euclid_field, _PLANE, {"family": "trigpoly"}, "trigpoly family is one-dimensional"),
        (euclid_field, _FIVE, {"family": "delta", "node": 5}, r"delta node 5 outside \[0, 5\)"),
        (euclid_field, _FIVE, {"family": "delta", "node": -1}, r"delta node -1 outside \[0, 5\)"),
        (euclid_field, _FIVE, {"family": "trigpoly", "coeffs": [1.0, 2.0]}, r"odd coefficient count \(-K\.\.K\)"),
        (lattice_sequence, _WINDOW, {"family": "delta", "at": [3]}, r"delta point \[3\.0\] outside the window"),
        (lattice_sequence, _WINDOW, {"family": "random_mix"}, "random_mix family needs a seeded generator"),
    ],
    ids=["hermite_2d", "trigpoly_2d", "delta_node_above", "delta_node_below", "trigpoly_even", "window_delta_outside",
         "window_random_mix_without_rng"],
)
def test_a_spec_its_domain_cannot_take_is_a_validation_error(build, domain, spec, message):
    with pytest.raises(ValidationError, match=message):
        build(domain, spec, None)
