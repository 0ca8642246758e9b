"""The low-rank Lidskii route against the dense n x n oracle.

lidskii_report takes its eigenvalues from the k x k compression of the
rank-k quadrature matrix and its matrix trace from the kernel diagonal; the
dense kernel matrix and its full spectrum stay here as the reference for
n <= DEFAULT_NODE_CAP.
"""

import json

import numpy as np
import pytest

from nucfio import euclid, families
from nucfio.cli import run_main
from nucfio.errors import ShapeError
from nucfio.euclid import PhaseSpec, lidskii_report
from nucfio.grids import UniformGrid
from nucfio.nuclear import DEFAULT_NODE_CAP, RankOneSequence, kernel_from_decomposition, kernel_matrix
from nucfio.numerics import dense_eigenvalues, factored_eigenvalues, matrix_trace


def random_decomposition(grid, rank, seed):
    rng = np.random.default_rng(seed)
    spec = {"family": "random_mix"}
    terms = tuple(
        (families.euclid_field(grid, spec, rng), families.euclid_field(grid, spec, rng)) for _ in range(rank)
    )
    return RankOneSequence(terms, 2.0, 2.0, 1.0)


def assert_same_nonzero_spectrum(got, dense, rank):
    # each compression eigenvalue matches a distinct dense one, relative to
    # the spectral radius; the dense tail is roundoff
    scale = np.abs(dense[0])
    unmatched = list(dense[:rank])
    for z in got[:rank]:
        i = int(np.argmin(np.abs(np.asarray(unmatched) - z)))
        assert abs(unmatched.pop(i) - z) <= 1e-12 * scale


@pytest.mark.parametrize("rank", [1, 4])
@pytest.mark.parametrize("kind", ["linear", "sampled"])
def test_report_matches_dense_oracle(rank, kind):
    grid = UniformGrid.box(-8.0, 8.0, 513, 1)
    d = random_decomposition(grid, rank, seed=rank)
    if kind == "linear":
        phase = PhaseSpec.linear()
    else:
        shift = 3.0 * grid.spacing[0]
        phase = PhaseSpec("sampled", 2.0 * np.pi * ((grid.nodes + shift) @ grid.nodes.T))
    rep = lidskii_report(phase, d, 2.0)
    M = kernel_matrix(kernel_from_decomposition(d))
    dense = dense_eigenvalues(M)
    assert len(rep.eigenvalues) == grid.size
    assert np.all(rep.eigenvalues[rank:] == 0)
    assert np.all(np.abs(rep.eigenvalues[:rank]) > 0)
    assert_same_nonzero_spectrum(rep.eigenvalues, dense, rank)
    # the diagonal route reproduces the dense matrix trace bit for bit
    assert rep.matrix_trace == matrix_trace(M)


def test_factored_eigenvalues_compression_and_fallback():
    rng = np.random.default_rng(5)
    for n, k in ((40, 3), (4, 4), (3, 5)):
        H = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        GW = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        got = factored_eigenvalues(H, GW)
        dense = dense_eigenvalues(H @ GW.T)
        rank = min(n, k)
        assert len(got) == n
        assert np.all(got[rank:] == 0)
        assert_same_nonzero_spectrum(got, dense, rank)
    with pytest.raises(ShapeError):
        factored_eigenvalues(np.ones((4, 2)), np.ones((4, 3)))


@pytest.mark.parametrize(
    "grid_count, xi_count", [(DEFAULT_NODE_CAP + 1, None), (65, 5000)], ids=["x_grid", "xi_grid"]
)
def test_node_cap_is_checked_before_symbol_synthesis(tmp_path, monkeypatch, capsys, grid_count, xi_count):
    # the dense symbol is n x n_xi, so both grids are capped; xi defaults to the x grid
    n = max(grid_count, xi_count or 0)
    gaussian = {"family": "gaussian", "center": 0.0, "width": 1.0}
    cfg = {
        "setting": "euclid",
        "grid": {"lo": -8.0, "hi": 8.0, "count": grid_count},
        "decomposition": {"terms": [{"h": gaussian, "g": gaussian}]},
    }
    if xi_count is not None:
        cfg["xi_grid"] = {"lo": -8.0, "hi": 8.0, "count": xi_count}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def must_not_run(*args, **kwargs):
        pytest.fail("symbol synthesized before the node cap was checked")

    monkeypatch.setattr(euclid, "symbol_from_decomposition", must_not_run)
    assert run_main(["trace", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"{'x' if xi_count is None else 'xi'} grid has {n} nodes, above the cap {DEFAULT_NODE_CAP}" in capsys.readouterr().err
