import csv
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nucfio.cli import run_main, run_scenario
from nucfio.errors import NumericError, ValidationError
from nucfio.report import TraceReport

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = SRC / "nucfio" / "scenarios"

PINNED_ORDER = [
    "setting",
    "nuclear_trace",
    "matrix_trace",
    "eigenvalues",
    "quasinorm_bound",
    "mixed_norm_x_first",
    "mixed_norm_xi_first",
    "discrepancy_trace_vs_matrix",
    "discrepancy_trace_vs_eigensum",
    "runtime_ms",
]


def run(tmp_path, verb, cfg, fmt=None, tolerance=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    argv = [verb, "--config", str(path), "--out", str(tmp_path)]
    if fmt:
        argv += ["--format", fmt]
    if tolerance is not None:
        argv += ["--tolerance", str(tolerance)]
    return run_main(argv)


def euclid_cfg():
    return {
        "setting": "euclid",
        "grid": {"lo": -5.0, "hi": 5.0, "count": 129},
        "decomposition": {
            "terms": [
                {
                    "h": {"family": "gaussian", "center": 0.0, "width": 1.0},
                    "g": {"family": "gaussian", "center": 0.2, "width": 1.1},
                }
            ]
        },
    }


def test_bundled_scenarios_run(tmp_path, capsys):
    for name in ("gaussian_rank1.json", "lattice_identity.json", "su2_identity_L1.json"):
        code = run_main(
            ["trace", "--config", str(SCENARIOS / name), "--out", str(tmp_path / name[:-5])]
        )
        assert code == 0, name
        assert (tmp_path / name[:-5] / "report.json").exists()


def test_lattice_identity_trace_is_exact(tmp_path):
    assert run_main(
        ["trace", "--config", str(SCENARIOS / "lattice_identity.json"), "--out", str(tmp_path)]
    ) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    # [DERIVED] window radius 3: trace exactly 7
    assert rep["nuclear_trace"] == {"re": 7.0, "im": 0.0}
    assert rep["matrix_trace"] == {"re": 7.0, "im": 0.0}


def test_report_field_order_is_pinned(tmp_path):
    assert run(tmp_path, "trace", euclid_cfg()) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert list(rep)[: len(PINNED_ORDER)] == PINNED_ORDER


def test_non_applicable_fields_are_null(tmp_path):
    cfg = {
        "setting": "lattice",
        "radius": 2,
        "xi_count": 32,
        "symbol": {"family": "constant", "value": 1.0},
    }
    assert run(tmp_path, "trace", cfg) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["quasinorm_bound"] is None  # no decomposition given
    assert rep["mixed_norm_x_first"] is not None


def test_spectrum_csv_shape(tmp_path):
    assert run(tmp_path, "spectrum", euclid_cfg(), fmt="csv") == 0
    with (tmp_path / "spectrum.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "re", "im", "modulus"]
    assert len(rows) == 130  # header + one eigenvalue per node
    top = complex(float(rows[1][1]), float(rows[1][2]))
    assert abs(top) == pytest.approx(float(rows[1][3]))


def test_unknown_key_is_exit_2(tmp_path, capsys):
    cfg = euclid_cfg()
    cfg["extra"] = 1
    assert run(tmp_path, "trace", cfg) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_missing_seed_is_exit_2(tmp_path, capsys):
    cfg = euclid_cfg()
    cfg["decomposition"]["terms"][0]["h"] = {"family": "random_mix"}
    assert run(tmp_path, "trace", cfg) == 2
    assert "seed" in capsys.readouterr().err


def test_bad_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_main(["trace", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_a_config_path_naming_a_directory_is_exit_2(tmp_path, capsys):
    assert run_main(["trace", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert f"error: cannot read config {tmp_path}" in capsys.readouterr().err


def test_run_scenario_rejects_an_unknown_verb():
    with pytest.raises(ValidationError, match="unknown verb 'bogus'"):
        run_scenario(euclid_cfg(), "bogus")


def test_verify_passes_and_breach_is_exit_3(tmp_path, capsys):
    assert run(tmp_path, "verify", euclid_cfg()) == 0
    out = capsys.readouterr().out
    assert "pass trace_vs_matrix" in out
    # a rank-2 random mix: its route gaps sit at roundoff, about 1.8e-15
    cfg = euclid_cfg()
    cfg["seed"] = 5
    cfg["decomposition"]["terms"] = [{"h": {"family": "random_mix"}, "g": {"family": "random_mix"}}] * 2
    assert run(tmp_path, "verify", cfg, tolerance=1e-30) == 3
    assert "FAIL" in capsys.readouterr().out


def test_seeded_rerun_is_byte_identical(tmp_path):
    cfg = euclid_cfg()
    cfg["seed"] = 5
    cfg["decomposition"]["terms"][0]["h"] = {"family": "random_mix"}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        d.mkdir()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_main(["trace", "--config", str(path), "--out", str(d)]) == 0
    r1 = json.loads((d1 / "report.json").read_text())
    r2 = json.loads((d2 / "report.json").read_text())
    r1.pop("runtime_ms"), r2.pop("runtime_ms")
    assert json.dumps(r1) == json.dumps(r2)


def test_quantize_verb_reports_gaps(tmp_path):
    cfg = euclid_cfg()
    cfg["grid"]["count"] = 257  # interpolation error scales like h^4
    cfg["taus"] = [0.5, 1.0]
    assert run(tmp_path, "quantize", cfg) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["tau_action_gaps"]["0.5"] < 1e-4
    assert rep["tau_action_gaps"]["1"] < 1e-12
    assert rep["tau_roundtrip_gap"] < 1e-4


def test_wigner_verb_reports_peak(tmp_path):
    assert run(tmp_path, "wigner", euclid_cfg()) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["wigner_peak"]["re"] > 1.0  # near sqrt(2) for a unit Gaussian
    assert abs(rep["wigner_peak_xi"]) < 1e-12


def test_haar_check_su3_small(tmp_path, capsys):
    cfg = {"setting": "su3", "resolution": 6, "samples": 500, "seed": 1}
    code = run(tmp_path, "haar-check", cfg, tolerance=1e-2)
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert set(rep["checks"]) == {
        "haar_mass",
        "schur_orthogonality",
        "sampled_unitarity",
        "sampled_determinant",
    }


@pytest.mark.parametrize(
    "verb, cfg",
    [
        ("trace", {"setting": "lattice", "radius": 3.9, "symbol": {"family": "constant"}}),
        ("trace", {"setting": "lattice", "radius": 3, "xi_count": 32.5, "symbol": {"family": "constant"}}),
        ("trace", {"setting": "torus", "cutoff": 2.7, "symbol": {"family": "constant"}}),
        ("trace", {**euclid_cfg(), "seed": True}),
        ("haar-check", {"setting": "su3", "resolution": 4, "samples": 10, "seed": 1.5}),
        # no runner reads these seeds; run_scenario checks every seed once
        ("trace", {"setting": "homog", "instance": "torus", "cutoff": 1, "x_count": 8, "seed": "x"}),
        ("haar-check", {"setting": "su2", "quadrature": {"n_alpha": 4, "n_beta": 4, "n_gamma": 8}, "seed": [1]}),
        ("trace", {**euclid_cfg(), "seed": None}),
    ],
    ids=["radius", "xi_count", "cutoff", "bool_seed", "su3_seed", "homog_seed", "su2_haar_seed", "null_seed"],
)
def test_non_integer_config_values_are_exit_2(tmp_path, capsys, verb, cfg):
    # integer keys are never truncated or coerced: 3.9 is not radius 3
    assert run(tmp_path, verb, cfg) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, extra", [("lattice", {"radius": 2}), ("torus", {"cutoff": 2}), ("su2", {"cutoff_twoL": 1})]
)
def test_decomposition_and_symbol_together_are_exit_2(tmp_path, capsys, setting, extra):
    constant = {"family": "constant"}
    cfg = {
        "setting": setting,
        **extra,
        "symbol": {"family": "constant", "value": 5.0},
        "decomposition": {"terms": [{"h": constant, "g": constant}]},
    }
    assert run(tmp_path, "trace", cfg) == 2
    assert "not both" in capsys.readouterr().err


def test_bad_su2_symbol_is_exit_2_before_the_operator_is_built(tmp_path, capsys, monkeypatch):
    # the identity operator's tables and per-node SVD come after the key check
    def built(*args):
        raise AssertionError("identity operator built for a rejected config")

    monkeypatch.setattr("nucfio.cli.identity_phase", built)
    assert run(tmp_path, "trace", {"setting": "su2", "cutoff_twoL": 1, "symbol": "zero"}) == 2
    assert "su2 config needs 'decomposition' or symbol 'identity'" in capsys.readouterr().err


@pytest.mark.parametrize("key, index", [("i", -1), ("i", 2), ("j", 2)])
def test_matrix_entry_index_out_of_range_is_exit_2(tmp_path, capsys, key, index):
    # a negative index would wrap to the last row; twoL + 1 is past the table
    entry = {"family": "matrix_entry", "twoL": 1, key: index}
    cfg = {
        "setting": "su2",
        "cutoff_twoL": 1,
        "decomposition": {"terms": [{"h": entry, "g": {"family": "constant"}}]},
    }
    assert run(tmp_path, "trace", cfg) == 2
    assert f".{key} = {index} outside 0..1" in capsys.readouterr().err


def su2_decomposition_cfg():
    return {
        "setting": "su2",
        "seed": 3,
        "cutoff_twoL": 1,
        "quadrature": {"n_alpha": 8, "n_beta": 8, "n_gamma": 16},
        "decomposition": {
            "terms": [
                {
                    "h": {"family": "matrix_entry", "twoL": 1, "i": 0, "j": 1},
                    "g": {"family": "random_bandlimited"},
                }
            ]
        },
    }


def test_su2_verify_checks_the_operator_routes(tmp_path):
    # verify builds the operator and checks its trace against the matrix
    # and the eigenvalue sum, as in every other trace setting
    assert run(tmp_path, "trace", su2_decomposition_cfg()) == 0
    traced = json.loads((tmp_path / "report.json").read_text())
    assert run(tmp_path, "verify", su2_decomposition_cfg()) == 0
    verified = json.loads((tmp_path / "report.json").read_text())
    assert verified["nuclear_trace"] == traced["nuclear_trace"]
    assert verified["nuclear_trace"] != {"re": 0.0, "im": 0.0}
    assert set(verified["checks"]) == {"trace_vs_matrix", "trace_vs_eigensum"}


def test_su2_haar_check_rejects_operator_keys(tmp_path, capsys):
    # haar-check runs the quadrature checks only, so an operator is an unknown key
    cfg = su2_decomposition_cfg()
    del cfg["seed"]
    assert run(tmp_path, "haar-check", cfg) == 2
    assert "unknown keys ['decomposition']" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff, code", [(5, 0), (7, 3)])
def test_su2_haar_check_schur_range_follows_the_cutoff(tmp_path, capsys, cutoff, code):
    # Schur orthogonality is checked up to max(3, cutoff_twoL): the default
    # 16 x 16 x 32 rule's defect is 6.2e-9 at twoL <= 5 and 3.3e-5 at <= 7
    assert run(tmp_path, "haar-check", {"setting": "su2", "cutoff_twoL": cutoff, "s3_resolution": 8}) == code
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    failed = {name for name, check in checks.items() if not check["pass"]}
    assert failed == (set() if code == 0 else {"schur_orthogonality"})
    if code:
        assert "FAIL schur_orthogonality" in capsys.readouterr().out


@pytest.mark.parametrize(
    "verb, cfg",
    [
        ("trace", {**euclid_cfg(), "p": True}),
        ("trace", {"setting": "lattice", "radius": 2, "p": "3", "symbol": {"family": "constant"}}),
        ("trace", {"setting": "lattice", "radius": 2, "symbol": {"family": "constant", "value": True}}),
        ("trace", {**euclid_cfg(), "grid": {"lo": "-6", "hi": 6.0, "count": 65}}),
        ("quantize", {**euclid_cfg(), "taus": 0.5}),
    ],
    ids=["bool_p", "string_p", "bool_value", "string_lo", "scalar_taus"],
)
def test_non_real_config_values_are_exit_2(tmp_path, capsys, verb, cfg):
    # real keys are never coerced: "3" is not 3.0 and true is not 1.0
    assert run(tmp_path, verb, cfg) == 2
    assert "real number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg",
    [
        {"setting": "torus", "cutoff": 2, "p": 3.0, "symbol": {"family": "constant"}},
        {
            "setting": "su2",
            "cutoff_twoL": 1,
            "p": 3.0,
            "quadrature": {"n_alpha": 4, "n_beta": 4, "n_gamma": 8},
        },
    ],
    ids=["torus", "su2"],
)
def test_unread_p_key_is_exit_2(tmp_path, capsys, cfg):
    # torus and su2 read no exponent, so "p" is rejected rather than ignored
    assert run(tmp_path, "trace", cfg) == 2
    assert "unknown keys ['p']" in capsys.readouterr().err


def test_grid_whose_extent_overflows_is_exit_2(tmp_path, capsys):
    # rejected at the grid, before any field is sampled on its inf nodes
    assert run(tmp_path, "trace", {**euclid_cfg(), "grid": {"lo": -1e308, "hi": 1e308, "count": 3}}) == 2
    assert "axis 0: extent hi - lo of [-1e+308, 1e+308] is inf" in capsys.readouterr().err


def test_lattice_p_next_to_a_decomposition_is_exit_2(tmp_path, capsys):
    # a decomposition carries its own p1 and p2, so "p" would be ignored
    constant = {"family": "constant"}
    cfg = {
        "setting": "lattice",
        "radius": 2,
        "p": 3.0,
        "decomposition": {"terms": [{"h": constant, "g": constant}]},
    }
    assert run(tmp_path, "trace", cfg) == 2
    assert "lattice key 'p'" in capsys.readouterr().err
    del cfg["p"]
    assert run(tmp_path, "trace", cfg) == 0


def test_euclid_decomposition_r_is_exit_2(tmp_path, capsys):
    # euclid takes the summability order r from "p", so a decomposition's "r"
    # would be ignored
    cfg = euclid_cfg()
    cfg["decomposition"]["r"] = 0.5
    assert run(tmp_path, "trace", cfg) == 2
    assert "follows from 'p'" in capsys.readouterr().err
    del cfg["decomposition"]["r"]
    assert run(tmp_path, "trace", cfg) == 0


def test_memory_error_is_exit_2(tmp_path, capsys, monkeypatch):
    def too_large(cfg, verb, tolerance=None):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr("nucfio.cli.run_scenario", too_large)
    assert run(tmp_path, "trace", euclid_cfg()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: problem too large for available memory")
    assert "8.00 TiB" in err
    assert not (tmp_path / "report.json").exists()


def test_numeric_error_is_exit_3(tmp_path, capsys, monkeypatch):
    def diverges(cfg, verb, tolerance=None):
        raise NumericError("eigenvalue QR iteration failed to converge")

    monkeypatch.setattr("nucfio.cli.run_scenario", diverges)
    assert run(tmp_path, "trace", euclid_cfg()) == 3
    assert capsys.readouterr().err == "numeric error: eigenvalue QR iteration failed to converge\n"
    assert not (tmp_path / "report.json").exists()


def _report_at_threads(tmp_path, cfg_path, threads, verb="spectrum"):
    out = tmp_path / f"threads{threads}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "nucfio._main", verb, "--config", str(cfg_path), "--out", str(out)]
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=600)
    rep = json.loads((out / "report.json").read_text())
    rep.pop("runtime_ms")
    return json.dumps(rep)


_RANK4_SPECTRUM = {
    "setting": "euclid",
    "seed": 11,
    "grid": {"lo": -8.0, "hi": 8.0, "count": 1025},
    "decomposition": {"terms": [{"h": {"family": "random_mix"}, "g": {"family": "random_mix"}}] * 4},
}


@pytest.mark.parametrize(
    "verb, cfg",
    [
        ("spectrum", json.loads((SCENARIOS / "gaussian_rank1.json").read_text())),
        ("spectrum", _RANK4_SPECTRUM),
        ("quantize", {**euclid_cfg(), "taus": [0.25, 0.5, 1.0]}),
        ("wigner", euclid_cfg()),
    ],
    ids=["gaussian_rank1", "rank4_random_mix", "quantize_taus", "wigner"],
)
def test_euclid_report_is_identical_across_blas_threads(tmp_path, verb, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    one, two = (_report_at_threads(tmp_path, path, n, verb) for n in (1, 2))
    assert one == two


_MIX = {"family": "random_mix"}
_BANDLIMITED = {"family": "random_bandlimited"}
_MIX_DIM2 = {"seed": 3, "dim": 2, "decomposition": {"terms": [{"h": _MIX, "g": _MIX}] * 2}}


@pytest.mark.parametrize(
    "cfg",
    [
        {"setting": "lattice", "radius": 5, **_MIX_DIM2},
        {"setting": "torus", "cutoff": 3, "x_count": 16, **_MIX_DIM2},
        # counts that are not powers of two take the FFT too
        {"setting": "lattice", "radius": 5, "xi_count": 24, **_MIX_DIM2},
        {"setting": "torus", "cutoff": 3, "x_count": 14, **_MIX_DIM2},
        json.loads((SCENARIOS / "su2_identity_L1.json").read_text()),
        {"setting": "homog", "instance": "su2", "quadrature": {"n_alpha": 8, "n_beta": 8, "n_gamma": 16}},
        {"setting": "homog", "instance": "torus", "cutoff": 2, "x_count": 16},
        {
            "setting": "su2",
            "seed": 4,
            "cutoff_twoL": 2,
            "quadrature": {"n_alpha": 8, "n_beta": 8, "n_gamma": 16},
            "decomposition": {"terms": [{"h": _BANDLIMITED, "g": _BANDLIMITED}]},
        },
    ],
    ids=[
        "lattice_dim2",
        "torus_dim2",
        "lattice_dim2_xi24",
        "torus_dim2_x14",
        "su2_identity_L1",
        "homog_su2",
        "homog_torus",
        "su2_random_bandlimited",
    ],
)
def test_compact_spectrum_is_identical_across_blas_threads(tmp_path, cfg):
    # zgeev's blocked updates round by thread count unless the spectrum pins
    # OpenBLAS to one thread; the lattice case differs in its last bits without.
    # The random su2 symbol's matrix is far from the identity, so a reordered
    # operator matrix would show in its spectrum.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    one, two = (_report_at_threads(tmp_path, path, n) for n in (1, 2))
    assert one == two


@pytest.mark.parametrize(
    "cfg",
    [
        {"setting": "su2", "quadrature": {"n_alpha": 12, "n_beta": 12, "n_gamma": 24}, "s3_resolution": 8},
        {"setting": "su3", "seed": 5, "resolution": 8, "phi_count": 5, "samples": 500},
    ],
    ids=["su2", "su3"],
)
def test_haar_check_report_is_identical_across_blas_threads(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    one, two = (_report_at_threads(tmp_path, path, n, "haar-check") for n in (1, 2))
    assert "schur_orthogonality" in one
    assert one == two


@functools.cache
def _openblas_threads_at(threads: int) -> int:
    """The OpenBLAS thread count of a fresh process at OPENBLAS_NUM_THREADS
    = ``threads``; 1 where numpy's bundled OpenBLAS symbols are not found."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "from nucfio import numerics; t = numerics._openblas_threads(); print(t[0]() if t else 1)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=300)
    return int(out.stdout)


_MEDIUM_SU2_QUAD = {"n_alpha": 12, "n_beta": 12, "n_gamma": 24}


@pytest.mark.parametrize(
    "verb, cfg",
    [
        (
            "trace",
            {
                "setting": "su2",
                "seed": 7,
                "quadrature": _MEDIUM_SU2_QUAD,
                "cutoff_twoL": 3,
                "decomposition": {"terms": [{"h": _BANDLIMITED, "g": _BANDLIMITED}] * 2},
            },
        ),
        ("verify", {"setting": "homog", "instance": "su2", "quadrature": _MEDIUM_SU2_QUAD, "cutoff_twoL": 2}),
    ],
    ids=["su2_decomposition_trace", "homog_su2_verify"],
)
def test_compact_trace_and_verify_are_identical_across_blas_threads(tmp_path, verb, cfg):
    # every compact route, the phase check's Gram certificate among them, and
    # every verify check must give the same report bytes at 1 and 2 threads
    if _openblas_threads_at(2) < 2:
        pytest.skip("OpenBLAS runs one thread on this machine")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    one, two = (_report_at_threads(tmp_path, path, n, verb) for n in (1, 2))
    assert one == two


_SMALL_SU2_QUAD = {"n_alpha": 8, "n_beta": 8, "n_gamma": 16}
_HOMOG = {
    "su2": {"setting": "homog", "instance": "su2", "quadrature": _SMALL_SU2_QUAD, "cutoff_twoL": 1},
    "torus": {"setting": "homog", "instance": "torus", "cutoff": 2, "x_count": 16},
}


def test_homog_torus_below_the_exactness_threshold_is_exit_2(tmp_path, capsys):
    # four nodes alias the cutoff-3 frequency cube, so the "identity" matrix
    # would have eigenvalues 2, 2, 2, 1, 0, 0, 0; the torus setting rejects
    # the same grid
    for setting in ({"setting": "homog", "instance": "torus"}, {"setting": "torus", "symbol": {"family": "constant"}}):
        assert run(tmp_path, "verify", {**setting, "cutoff": 3, "x_count": 4}) == 2
        assert "x_count = 4 below the exactness threshold 14" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance, key, value",
    [
        ("su2", "dim", 1),
        ("su2", "cutoff", 2),
        ("su2", "x_count", 32),
        ("torus", "quadrature", _SMALL_SU2_QUAD),
        ("torus", "cutoff_twoL", 1),
    ],
    ids=["su2_dim", "su2_cutoff", "su2_x_count", "torus_quadrature", "torus_cutoff_twoL"],
)
def test_unread_homog_key_is_exit_2(tmp_path, capsys, instance, key, value):
    # each homog instance reads its own keys; the other instance's are rejected
    assert run(tmp_path, "trace", {**_HOMOG[instance], key: value}) == 2
    assert f"unknown keys ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("instance", ["su2", "torus"])
def test_homog_verify_adds_its_checks_to_the_route_checks(tmp_path, instance):
    assert run(tmp_path, "verify", _HOMOG[instance]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert list(rep["checks"]) == [
        "trace_vs_matrix",
        "trace_vs_eigensum",
        "degeneration_gap",
        "mask_idempotence",
        "mask_support",
    ]
    assert all(check["pass"] for check in rep["checks"].values())


@pytest.mark.parametrize(
    "instance, nodes, ks", [("su2", 8 * 8 * 16, {1, 2}), ("torus", 16, {1})], ids=["su2", "torus"]
)
def test_homog_mask_checks_read_the_runs_own_blocks(tmp_path, monkeypatch, instance, nodes, ks):
    # the masks run on each label's (nodes, d, d) symbol blocks at the
    # table's k_inv (d for K = {e}), not on a fixed random batch
    from nucfio import cli

    mask, seen = cli.class_i_mask, []

    def spy(blocks, k):
        seen.append((blocks.shape, k))
        return mask(blocks, k)

    monkeypatch.setattr(cli, "class_i_mask", spy)
    assert run(tmp_path, "verify", _HOMOG[instance]) == 0
    assert {k for _, k in seen} == ks
    assert all(shape == (nodes, k, k) for shape, k in seen)


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"setting": "su2", "cutoff_twoL": -1, "quadrature": _SMALL_SU2_QUAD}, "cutoff_twoL = -1 below its minimum 0"),
        ({"setting": "su2", "s3_resolution": 3, "quadrature": _SMALL_SU2_QUAD}, "s3_resolution = 3 below its minimum 4"),
        ({"setting": "su3", "resolution": 4, "samples": 0, "seed": 1}, "samples = 0 below its minimum 1"),
        ({"setting": "su3", "resolution": 4, "samples": -1, "seed": 1}, "samples = -1 below its minimum 1"),
    ],
    ids=["su2_cutoff", "s3_resolution", "su3_zero_samples", "su3_negative_samples"],
)
def test_haar_check_range_errors_name_the_key(tmp_path, capsys, cfg, message):
    assert run(tmp_path, "haar-check", cfg) == 2
    assert message in capsys.readouterr().err


_CONSTANT = {"family": "constant"}
_TINY_TORUS = {"setting": "torus", "cutoff": 1, "x_count": 8}


def _one_term(h, g=_CONSTANT):
    return {"terms": [{"h": h, "g": g}]}


@pytest.mark.parametrize(
    "cfg",
    [
        {**euclid_cfg(), "decomposition": {"terms": 5}},
        {"setting": ["x"]},
        {"setting": {"k": 1}},
        {"setting": "lattice", "radius": 2, "symbol": {"family": ["constant"]}},
        {"setting": "su2", "cutoff_twoL": 1, "decomposition": _one_term({"family": ["constant"]})},
        {**euclid_cfg(), "decomposition": _one_term({"family": {"k": 1}})},
        {**_TINY_TORUS, "decomposition": _one_term({"family": "trigpoly", "coeffs": 3})},
        {**_TINY_TORUS, "decomposition": _one_term({"family": "trigpoly", "coeffs": True})},
    ],
    ids=["int_terms", "list_setting", "object_setting", "list_lattice_family", "list_su2_family",
         "object_euclid_family", "int_coeffs", "bool_coeffs"],
)
def test_wrongly_typed_config_values_are_exit_2(tmp_path, capsys, cfg):
    # each of these once escaped as an uncaught TypeError (exit 1)
    assert run(tmp_path, "trace", cfg) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "cfg, message",
    [
        (
            {**euclid_cfg(), "decomposition": _one_term({"family": "gaussian", "widht": 3.0})},
            "field family 'gaussian': unknown keys ['widht']",
        ),
        (
            {"setting": "lattice", "radius": 2, "decomposition": _one_term({"family": "constant", "valeu": 3.0})},
            "sequence family 'constant': unknown keys ['valeu']",
        ),
        ({**euclid_cfg(), "phase": {"kind": "linear", "shift": 0.5}}, "linear phase: unknown keys ['shift']"),
        (
            {"setting": "su2", "cutoff_twoL": 1, "decomposition": _one_term({"family": "constant", "twoL": 1})},
            "group field family 'constant': unknown keys ['twoL']",
        ),
        # the keys are per family and domain: a grid delta reads "node", a
        # window delta "at", and only a grid random_mix reads "terms"
        (
            {**euclid_cfg(), "decomposition": _one_term({"family": "delta", "at": [0]})},
            "field family 'delta': unknown keys ['at']",
        ),
        (
            {"setting": "lattice", "seed": 1, "radius": 2, "decomposition": _one_term({"family": "random_mix", "terms": 2})},
            "sequence family 'random_mix': unknown keys ['terms']",
        ),
    ],
    ids=["euclid_widht", "lattice_valeu", "linear_shift", "su2_constant_twoL", "grid_delta_at", "window_random_mix_terms"],
)
def test_keys_a_family_or_phase_would_ignore_are_exit_2(tmp_path, capsys, cfg, message):
    assert run(tmp_path, "trace", cfg) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"setting": "lattice"}, "config: missing required keys ['radius']"),
        (
            {"setting": "lattice", "radius": 2, "phase": {"kind": "sampled"}, "symbol": _CONSTANT},
            "lattice configs support the linear phase only",
        ),
        (
            {**_TINY_TORUS, "phase": {"kind": "sampled"}, "symbol": _CONSTANT},
            "torus configs support the linear phase only",
        ),
        ({**euclid_cfg(), "phase": {"kind": "quadratic"}}, "phase kind 'quadratic' not in ('linear', 'sampled')"),
        ({"setting": "lattice", "radius": 2}, "lattice config needs 'decomposition' or 'symbol'"),
        (_TINY_TORUS, "torus config needs 'decomposition' or 'symbol'"),
    ],
    ids=["lattice_without_radius", "lattice_sampled_phase", "torus_sampled_phase", "euclid_quadratic_phase",
         "lattice_without_operator", "torus_without_operator"],
)
def test_a_config_without_a_runnable_operator_is_exit_2(tmp_path, capsys, cfg, message):
    assert run(tmp_path, "trace", cfg) == 2
    assert message in capsys.readouterr().err


def test_a_point_with_the_wrong_number_of_coordinates_is_exit_2(tmp_path, capsys):
    # a 2-d window's delta at [1] once landed silently at site (1, 1)
    cfg = {"setting": "lattice", "dim": 2, "radius": 2, "decomposition": _one_term({"family": "delta", "at": [1]})}
    assert run(tmp_path, "trace", cfg) == 2
    assert "at must be a list of 2 coordinates, one per axis, got [1]" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("verb", ["wigner", "quantize"])
def test_euclid_only_verbs_outside_euclid_are_exit_2(tmp_path, capsys, verb):
    # as haar-check outside su2 and su3: no plain trace without the verb's fields
    code = run_main([verb, "--config", str(SCENARIOS / "lattice_identity.json"), "--out", str(tmp_path)])
    assert code == 2
    assert f"{verb} supports setting 'euclid' only" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


_SU2_TINY = {"setting": "su2", "cutoff_twoL": 1, "quadrature": {"n_alpha": 4, "n_beta": 4, "n_gamma": 8}}


def test_su2_constant_reads_a_complex_pair(tmp_path):
    # as the euclid, torus and lattice constant families: [re, im] is re + i im
    assert run(tmp_path, "trace", {**_SU2_TINY, "decomposition": _one_term({"family": "constant"})}) == 0
    one = json.loads((tmp_path / "report.json").read_text())["nuclear_trace"]
    cfg = {**_SU2_TINY, "decomposition": _one_term({"family": "constant", "value": [1, 2]})}
    assert run(tmp_path, "trace", cfg) == 0
    pair = json.loads((tmp_path / "report.json").read_text())["nuclear_trace"]
    assert complex(pair["re"], pair["im"]) == pytest.approx((1 + 2j) * complex(one["re"], one["im"]), rel=1e-13)


@pytest.mark.parametrize(
    "value, message",
    [("1", "got '1'"), (True, "got True"), (float("nan"), "value = nan"), ([1, "2"], "got '2'")],
    ids=["string", "bool", "nan", "string_part"],
)
def test_su2_constant_rejects_a_non_real_value(tmp_path, capsys, value, message):
    cfg = {**_SU2_TINY, "decomposition": _one_term({"family": "constant", "value": value})}
    assert run(tmp_path, "trace", cfg) == 2
    assert message in capsys.readouterr().err


def test_seedless_su2_random_bandlimited_is_exit_2(tmp_path, capsys):
    cfg = {"setting": "su2", "cutoff_twoL": 1, "decomposition": _one_term({"family": "random_bandlimited"})}
    assert run(tmp_path, "trace", cfg) == 2
    assert "no integer 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, key, value",
    [
        ("trace", "probe", {"family": "gaussian", "widht": 1.0}),
        ("trace", "taus", "not a list"),
        ("spectrum", "taus", [0.5]),
        ("verify", "probe", {"family": "gaussian"}),
        ("wigner", "taus", [0.5]),
    ],
    ids=["trace_probe", "trace_taus", "spectrum_taus", "verify_probe", "wigner_taus"],
)
def test_quantize_keys_under_other_verbs_are_exit_2(tmp_path, capsys, verb, key, value):
    # only quantize reads "taus" and "probe"; elsewhere they would go unchecked
    assert run(tmp_path, verb, {**euclid_cfg(), key: value}) == 2
    assert f"euclid keys ['{key}'] apply to the quantize verb only" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_tolerance_replaces_every_nonzero_tolerance(tmp_path):
    # the mask checks are exact by construction and keep their 0
    assert run(tmp_path, "verify", _HOMOG["torus"], tolerance=0.5) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    tolerances = {name: check["tolerance"] for name, check in rep["checks"].items()}
    assert tolerances == {
        "trace_vs_matrix": 0.5,
        "trace_vs_eigensum": 0.5,
        "degeneration_gap": 0.5,
        "mask_idempotence": 0.0,
        "mask_support": 0.0,
    }


def test_runtime_ms_times_the_whole_scenario_in_every_verb(tmp_path):
    cfg = {"setting": "su3", "resolution": 4, "samples": 10, "seed": 1}
    run(tmp_path, "haar-check", cfg)
    assert json.loads((tmp_path / "report.json").read_text())["runtime_ms"] > 0.0


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_non_finite_or_negative_tolerance_is_exit_2(tmp_path, capsys, tolerance):
    assert run(tmp_path, "verify", _HOMOG["torus"], tolerance=tolerance) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_one_pass_rule_for_printout_payload_and_exit(tmp_path, capsys, monkeypatch):
    # a NaN check value is no pass: FAIL, "pass": false and exit 3 together
    checks = [("finite", 0.5, 1.0), ("nan_value", float("nan"), 1.0)]

    def fake(cfg, verb, tolerance=None):
        return TraceReport("su3", 0.0, 0.0, np.zeros(0, dtype=complex)), checks

    monkeypatch.setattr("nucfio.cli.run_scenario", fake)
    assert run(tmp_path, "haar-check", {"setting": "su3"}) == 3
    out = capsys.readouterr().out
    assert "pass finite" in out and "FAIL nan_value" in out
    payload = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert payload["finite"]["pass"] is True and payload["nan_value"]["pass"] is False


@pytest.mark.parametrize(
    "verb, option",
    [
        ("trace", ["--format", "csv"]),
        ("verify", ["--format", "json"]),
        ("trace", ["--tolerance", "1e-3"]),
        ("spectrum", ["--tolerance", "1e-3"]),
        ("quantize", ["--tolerance", "1e-3"]),
    ],
    ids=["trace_format", "verify_format", "trace_tolerance", "spectrum_tolerance", "quantize_tolerance"],
)
def test_option_on_a_verb_that_ignores_it_is_exit_2(tmp_path, capsys, verb, option):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(euclid_cfg()))
    with pytest.raises(SystemExit) as exc:
        run_main([verb, "--config", str(path), "--out", str(tmp_path), *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("terms", [-2, 0])
def test_random_mix_without_terms_is_exit_2(tmp_path, capsys, terms):
    # a mixture of no Gaussians is the zero field, whose trace 0 would
    # otherwise be reported as a result
    cfg = {**euclid_cfg(), "seed": 1, "decomposition": _one_term({"family": "random_mix", "terms": terms})}
    assert run(tmp_path, "trace", cfg) == 2
    assert f"terms = {terms} below its minimum 1" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["trace", "verify", "spectrum", "quantize", "wigner"])
def test_su3_outside_haar_check_is_exit_2(tmp_path, capsys, verb):
    # su3 has a config of its own, so the message names the verb, not a missing key
    assert run(tmp_path, verb, {"setting": "su3", "resolution": 4, "samples": 10, "seed": 1}) == 2
    assert f"setting 'su3' runs under haar-check only, not {verb!r}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "verb, cfg, products",
    [
        # the ClassIIrrepTable check of table_from_su2's three tables
        ("trace", {"setting": "homog", "instance": "su2", "cutoff_twoL": 2}, 3),
        # table_unitarity
        ("haar-check", {"setting": "su2", "cutoff_twoL": 2}, 3),
        ("trace", {"setting": "su2", "cutoff_twoL": 3}, 0),
        ("trace", {"setting": "su2", "cutoff_twoL": 3, "seed": 1, "decomposition": _one_term(_BANDLIMITED)}, 0),
    ],
    ids=["homog_su2", "su2_haar_check", "su2_identity", "su2_decomposition"],
)
def test_each_cached_table_is_proven_unitary_once(monkeypatch, verb, cfg, products):
    # a U U* (or Gram U* U) product over the 8192 nodes of the default rule is
    # formed at most once per table, by a check that reports it or a table
    # that proves it; a phase over the domain's own tables forms none
    formed, einsum = [], np.einsum

    def counted(subscripts, *operands, **kwargs):
        if subscripts in ("nij,nkj->nik", "nki,nkj->nij") and operands[0].shape[0] == 16 * 16 * 32:
            formed.append(operands[0].shape)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    run_scenario(cfg, verb)
    assert len(formed) == products
