import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nucfio.errors import DomainError, ShapeError, ValidationError, ZeroNormError
from nucfio.families import hermite_function
from nucfio.grids import SampledField, UniformGrid
from nucfio.numerics import (
    _openblas_threads,
    dense_eigenvalues,
    dft_forward,
    dft_inverse,
    hausdorff_young_ratio,
    lp_norm,
    matrix_trace,
    mixed_norm,
)

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
