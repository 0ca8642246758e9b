"""End-to-end acceptance checks.

Each criterion prints one pass/fail line on the live terminal (bypassing
capture) and asserts its stated tolerances and time budget.
"""

import json
import time

import numpy as np
import pytest

from nucfio.families import euclid_field, lattice_sequence, random_gaussian_mix
from nucfio.grids import LatticeWindow, SampledField, SampledSymbol, UniformGrid
from nucfio.euclid import PhaseSpec, decay_norms, lidskii_report, symbol_from_decomposition
from nucfio.group import (
    GroupPhase,
    GroupSymbol,
    class_i_mask,
    euler_from_su2,
    group_nuclear_trace,
    identity_phase,
    s3_quadrature,
    su2_haar_quadrature,
    su2_irrep_table,
    wigner_matrix,
)
from nucfio.homog import (
    homog_nuclear_trace,
    su3_fundamental_batch,
    su3_haar_quadrature,
    su3_mass,
    su3_schur_error,
    table_from_su2,
)
from nucfio.lattice import (
    lattice_matrix,
    lattice_nuclear_trace,
    lattice_symbol_from_decomposition,
)
from nucfio.nuclear import (
    RankOneSequence,
    apply_kernel,
    holder_conjugate,
    kernel_from_decomposition,
)
from nucfio.numerics import dense_eigenvalues, hausdorff_young_ratio, lp_norm, matrix_trace, mixed_norm
from nucfio.quantize import tau_apply, tau_convert, weyl_symbol_from_decomposition, wigner


def _emit(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _gauss(grid, c=0.0, w=1.0, amp=1.0 + 0.0j):
    x = grid.nodes[:, 0]
    return SampledField(grid, amp * np.exp(-np.pi * ((x - c) / w) ** 2))


def test_criterion_1_euclid_rank_one_traces(capsys):
    t0 = time.perf_counter()
    grid = UniformGrid.box(-6.0, 6.0, 512, 1)
    h = _gauss(grid)
    d = RankOneSequence(((h, h),), 2.0, 2.0, 1.0)
    rep = lidskii_report(PhaseSpec.linear(), d, 2.0)
    elapsed = time.perf_counter() - t0
    # [DERIVED] int exp(-2 pi x^2) dx = 2^(-1/2)
    ok = (
        abs(rep.nuclear_trace - 2.0**-0.5) < 1e-8
        and rep.discrepancy_trace_vs_matrix < 1e-8
        and rep.discrepancy_trace_vs_eigensum < 1e-8
        and elapsed < 5.0
    )
    _emit(capsys, 1, "euclidean rank-one trace identities", ok)


def test_criterion_2_lattice_decompositions(capsys):
    t0 = time.perf_counter()
    w = LatticeWindow(1, 4)
    xi = UniformGrid.torus(32, 1)
    phase = PhaseSpec.linear()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        pairs = []
        direct = 0.0 + 0.0j
        for _k in range(3):
            hv = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
            gv = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
            pairs.append((SampledField(w, hv), SampledField(w, gv)))
            direct += (hv * gv).sum()
        d = RankOneSequence(tuple(pairs), 2.0, 2.0, 1.0)
        a = lattice_symbol_from_decomposition(phase, d, xi)
        M = lattice_matrix(phase, a)
        worst = max(
            worst,
            abs(lattice_nuclear_trace(phase, a) - direct),
            abs(matrix_trace(M) - direct),
            abs(dense_eigenvalues(M).sum() - direct),
        )
    ident = SampledSymbol(w, xi, np.ones((w.size, xi.size), dtype=complex))
    exact = lattice_nuclear_trace(phase, ident) == complex(w.size)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and exact and elapsed < 10.0
    _emit(capsys, 2, "lattice decomposition traces and exact identity", ok)


def test_criterion_3_quantization_equivalence(capsys):
    t0 = time.perf_counter()
    grid = UniformGrid.box(-5.0, 5.0, 257, 1)
    h = _gauss(grid, 0.4, 1.0, 1.0 + 0.3j)
    g = _gauss(grid, -0.2, 1.2)
    d = RankOneSequence(((h, g),), 2.0, 2.0, 1.0)
    probe = _gauss(grid, 0.3, 1.1)
    want = apply_kernel(kernel_from_decomposition(d), probe).values
    scale = float(np.abs(want).max())
    worst_gap = 0.0
    for tau in (0.25, 0.5, 0.75, 1.0):
        sym = weyl_symbol_from_decomposition(d, tau)
        got = tau_apply(sym, tau, probe).values
        worst_gap = max(worst_gap, float(np.abs(got - want).max()) / scale)
    s0 = weyl_symbol_from_decomposition(d, 0.5)
    back = tau_convert(tau_convert(s0, 0.5, 1.0), 1.0, 0.5)
    roundtrip = float(np.abs(back.values - s0.values).max() / np.abs(s0.values).max())
    # [DERIVED] W(g0, g0) peaks at the origin with value sqrt(2)
    g0 = _gauss(grid)
    W = wigner(g0, g0)
    i = int(np.abs(W.values).argmax())
    ix, ixi = np.unravel_index(i, (grid.size, grid.size))
    peak_ok = (
        grid.nodes[ix, 0] == 0.0
        and grid.nodes[ixi, 0] == 0.0
        and abs(W.values[ix, ixi] - np.sqrt(2.0)) < 1e-5
    )
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-4 and roundtrip < 1e-4 and peak_ok and elapsed < 30.0
    _emit(capsys, 3, "ordering-parameter equivalence and phase-space peak", ok)


def test_criterion_4_norm_bounds_over_corpus(capsys):
    rng = np.random.default_rng(2024)
    grid = UniformGrid.box(-6.0, 6.0, 257, 1)
    phase = PhaseSpec.linear()
    ok = True
    # 25 euclidean draws -> 50 factor functions
    for _ in range(25):
        p1 = float(rng.choice([2.0, 3.0, 4.0]))
        p2 = float(rng.uniform(1.0, 4.0))
        terms = tuple(
            (
                euclid_field(grid, {"family": "random_mix"}, rng),
                euclid_field(grid, {"family": "random_mix"}, rng),
            )
            for _k in range(int(rng.integers(1, 4)))
        )
        d = RankOneSequence(terms, p1, p2, 1.0)
        a = symbol_from_decomposition(phase, d)
        nx, nxi = decay_norms(a, p1, p2)
        bound = sum(lp_norm(h, p2) * lp_norm(g, holder_conjugate(p1)) for h, g in terms)
        ok = ok and nx <= bound + 1e-6 and nxi <= bound + 1e-6
    # transform-norm ratio stays below 1 across the corpus
    for _ in range(50):
        f = euclid_field(grid, {"family": "random_mix"}, rng)
        for p in (1.0, 1.5, 2.0):
            ok = ok and hausdorff_young_ratio(f, p) <= 1.0 + 1e-6
    # lattice corpus: integer-exact quadrature makes the slack 1e-8
    w = LatticeWindow(1, 4)
    xi = UniformGrid.torus(32, 1)
    for _ in range(25):
        p1 = float(rng.choice([2.0, 4.0]))
        p2 = float(rng.uniform(1.0, 4.0))
        terms = tuple(
            (
                lattice_sequence(w, {"family": "random_mix"}, rng),
                lattice_sequence(w, {"family": "random_mix"}, rng),
            )
            for _k in range(int(rng.integers(1, 4)))
        )
        d = RankOneSequence(terms, p1, p2, 1.0)
        a = lattice_symbol_from_decomposition(PhaseSpec.linear(), d, xi)
        nf, xf = mixed_norm(a, "x", p2, p1), mixed_norm(a, "xi", p1, p2)
        bound = sum(
            lp_norm(h, p2) * lp_norm(g, holder_conjugate(p1)) for h, g in terms
        )
        ok = ok and nf <= bound + 1e-8 and xf <= bound + 1e-8
    _emit(capsys, 4, "mixed-norm and transform-norm bounds over random corpus", ok)


def test_criterion_5_su2_suite(capsys):
    t0 = time.perf_counter()
    quad = su2_haar_quadrature(16, 16, 32)
    ok = abs(float(quad.weights.sum()) - 1.0) < 1e-10

    for twoL in range(5):  # spins through 2
        T = su2_irrep_table(quad, twoL)
        defect = np.abs(np.einsum("nij,nkj->nik", T, T.conj()) - np.eye(twoL + 1)).max()
        ok = ok and defect < 1e-10

    pairs = [
        ((0.7, 0.9, 1.3), (2.1, 2.4, 3.7)),
        ((5.9, 0.2, 9.1), (1.0, 3.0, 0.5)),
        ((3.3, 1.6, 7.7), (4.4, 2.8, 11.0)),
    ]
    for e1, e2 in pairs:
        e12 = euler_from_su2(wigner_matrix(1, *e1) @ wigner_matrix(1, *e2))
        for twoL in range(5):
            gap = np.abs(
                wigner_matrix(twoL, *e12)
                - wigner_matrix(twoL, *e1) @ wigner_matrix(twoL, *e2)
            ).max()
            ok = ok and gap < 1e-8

    for tA in range(4):  # spins through 3/2
        TA = su2_irrep_table(quad, tA)
        for tB in range(4):
            TB = su2_irrep_table(quad, tB)
            G = np.einsum("n,nij,nkl->ijkl", quad.weights, TA, TB.conj())
            if tA == tB:
                dd = tA + 1
                G = G - np.einsum("ik,jl->ijkl", np.eye(dd), np.eye(dd)) / dd
            ok = ok and np.abs(G).max() < 1e-6

    cutoff = 2
    blocks = {
        t: np.broadcast_to(np.eye(t + 1, dtype=complex), (quad.size, t + 1, t + 1)).copy()
        for t in range(cutoff + 1)
    }
    tr = group_nuclear_trace(identity_phase(quad, cutoff), GroupSymbol(quad, blocks))
    ok = ok and abs(tr - 14.0) < 1e-6  # [DERIVED] 1 + 4 + 9

    s3 = s3_quadrature(48)
    ok = ok and abs(s3.raw_mass - 4.0 * np.pi**2) < 1e-4

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _emit(capsys, 5, "rotation-group suite", ok)


def test_criterion_6_homogeneous_degeneration(capsys):
    quad = su2_haar_quadrature(16, 16, 32)
    cutoff = 2
    table = table_from_su2(quad, cutoff)
    blocks_a = {
        t: np.broadcast_to(np.eye(t + 1, dtype=complex), (quad.size, t + 1, t + 1)).copy()
        for t in table.labels
    }
    th = homog_nuclear_trace(
        GroupPhase(table, table.matrices),
        GroupSymbol(table, blocks_a),
    )
    tg = group_nuclear_trace(identity_phase(quad, cutoff), GroupSymbol(quad, blocks_a))
    bitwise = th == tg
    ok = bitwise and abs(th - tg) < 1e-10 and abs(th - 14.0) < 1e-6

    rng = np.random.default_rng(7)
    B = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
    masked = class_i_mask(B, 3)
    ok = ok and np.array_equal(class_i_mask(masked, 3), masked)
    ok = ok and np.all(masked[:, 3:, :] == 0.0) and np.all(masked[:, :, 3:] == 0.0)
    _emit(capsys, 6, "homogeneous-space degeneration and invariant mask", ok)


def test_criterion_7_su3_haar(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ang = np.empty((10000, 8))
    ang[:, :3] = rng.uniform(0.0, np.pi / 2.0, (10000, 3))
    ang[:, 3:] = rng.uniform(0.0, 2.0 * np.pi, (10000, 5))
    U = su3_fundamental_batch(ang)
    unit = float(np.abs(np.einsum("nij,nkj->nik", U, U.conj()) - np.eye(3)).max())
    det = float(np.abs(np.linalg.det(U) - 1.0).max())
    quad = su3_haar_quadrature(16, 5)
    mass_gap = abs(su3_mass(quad) - 1.0)
    schur = su3_schur_error(quad)
    elapsed = time.perf_counter() - t0
    ok = unit < 1e-10 and det < 1e-10 and mass_gap < 1e-6 and schur < 1e-3 and elapsed < 120.0
    _emit(capsys, 7, "special-unitary-3 parametrization and Haar checks", ok)


def test_criterion_8_eigenvalue_summability(capsys):
    grid = UniformGrid.box(-6.0, 6.0, 257, 1)
    rng = np.random.default_rng(31)
    terms = tuple(
        (
            SampledField(grid, random_gaussian_mix(grid, rng)),
            SampledField(grid, random_gaussian_mix(grid, rng)),
        )
        for _ in range(3)
    )
    ok = True
    for p in (2.0, 4.0):
        d = RankOneSequence(terms, 2.0, 2.0, 1.0)
        rep = lidskii_report(PhaseSpec.linear(), d, p)
        # [PAPER] 1/r = 1 + |1/p - 1/2| puts the trace inside the
        # eigenvalue-series radius: the two must agree
        ok = ok and rep.discrepancy_trace_vs_eigensum < 1e-6
        ok = ok and rep.discrepancy_trace_vs_matrix < 1e-6
        ok = ok and rep.quasinorm_bound is not None
    _emit(capsys, 8, "trace equals eigenvalue sum at p in {2, 4}", ok)


def test_criterion_9_deterministic_reports(capsys, tmp_path):
    from nucfio.cli import run_main

    cfg = {
        "setting": "euclid",
        "seed": 17,
        "grid": {"lo": -5.0, "hi": 5.0, "count": 129},
        "decomposition": {
            "terms": [
                {"h": {"family": "random_mix"}, "g": {"family": "random_mix"}},
                {"h": {"family": "gaussian"}, "g": {"family": "random_mix"}},
            ]
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for run_dir in ("r1", "r2"):
        out = tmp_path / run_dir
        assert run_main(["trace", "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        rep.pop("runtime_ms")
        blobs.append(json.dumps(rep, sort_keys=False))
    ok = blobs[0] == blobs[1]
    _emit(capsys, 9, "byte-identical reports under a fixed seed", ok)
