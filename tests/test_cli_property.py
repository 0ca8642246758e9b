"""Property tests: a malformed config is rejected with exit 2, never a crash.

Each case starts from a tiny valid config for one entry of the CLI's scenario
table, run under a verb that reads every key the config carries.
"""

import contextlib
import copy
import io
import json

import pytest

from nucfio.cli import run_main

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_QUAD = {"n_alpha": 6, "n_beta": 6, "n_gamma": 12}
_GAUSS = {"family": "gaussian", "center": 0.0, "width": 1.0}
_CONST = {"family": "constant", "value": 1.0}

BASES = {
    "euclid": ("quantize", {
        "setting": "euclid",
        "grid": {"lo": -5.0, "hi": 5.0, "count": 49, "dim": 1},
        "xi_grid": {"lo": -4.0, "hi": 4.0, "count": 33},
        "phase": {"kind": "linear"},
        "p": 2.0,
        "taus": [0.5],
        "probe": {"family": "gaussian", "center": 0.3, "width": 1.1},
        "decomposition": {"terms": [{"h": _GAUSS, "g": {"family": "gaussian", "center": 0.2, "width": 1.1}}]},
    }),
    "euclid-sampled": ("verify", {
        "setting": "euclid",
        "seed": 1,
        "grid": {"lo": -3.0, "hi": 3.0, "count": 97},
        "phase": {"kind": "sampled", "family": "shifted_linear", "shift": 0.1},
        "decomposition": {
            "p1": 2.0,
            "p2": 2.0,
            "terms": [
                {"h": _GAUSS, "g": {"family": "delta", "node": 40}},
                {"h": {"family": "hermite", "k": 1}, "g": {"family": "random_mix", "terms": 1}},
            ],
        },
    }),
    "lattice": ("verify", {
        "setting": "lattice",
        "seed": 1,
        "dim": 1,
        "radius": 1,
        "xi_count": 8,
        "phase": {"kind": "linear"},
        "decomposition": {
            "terms": [
                {"h": {"family": "random_mix"}, "g": {"family": "delta", "at": [0]}},
                {"h": _GAUSS, "g": _CONST},
            ]
        },
    }),
    "lattice-symbol": ("trace", {"setting": "lattice", "radius": 1, "p": 2.0, "symbol": _CONST}),
    "torus": ("verify", {
        "setting": "torus",
        "dim": 1,
        "cutoff": 1,
        "x_count": 8,
        "phase": {"kind": "linear"},
        "decomposition": {
            "terms": [{"h": {"family": "trigpoly", "coeffs": [0.5, 1.0, [0.0, 0.5]]}, "g": {"family": "delta", "node": 2}}]
        },
    }),
    "torus-symbol": ("trace", {"setting": "torus", "cutoff": 1, "x_count": 6, "symbol": _CONST}),
    "su2": ("verify", {
        "setting": "su2",
        "seed": 1,
        "cutoff_twoL": 1,
        "quadrature": {"n_alpha": 8, "n_beta": 8, "n_gamma": 16},
        "decomposition": {
            "r": 1.0,
            "terms": [
                {"h": {"family": "matrix_entry", "twoL": 1, "i": 0, "j": 1}, "g": {"family": "random_bandlimited"}},
                {"h": _CONST, "g": _CONST},
            ]
        },
    }),
    "su2-identity": ("verify", {"setting": "su2", "cutoff_twoL": 1, "symbol": "identity", "quadrature": _QUAD}),
    "su2-checks": ("haar-check", {
        "setting": "su2",
        "seed": 1,
        "cutoff_twoL": 1,
        "s3_resolution": 16,
        "quadrature": {"n_alpha": 12, "n_beta": 12, "n_gamma": 24},
    }),
    "homog-su2": ("verify", {
        "setting": "homog", "instance": "su2", "seed": 1, "cutoff_twoL": 1, "p1": 2.0, "p2": 2.0, "quadrature": _QUAD,
    }),
    "homog-torus": ("verify", {
        "setting": "homog", "instance": "torus", "seed": 1, "dim": 1, "cutoff": 1, "x_count": 6, "p1": 2.0, "p2": 2.0,
    }),
    "su3": ("haar-check", {"setting": "su3", "seed": 1, "resolution": 8, "phi_count": 5, "samples": 4}),
}

# values that are each the wrong type somewhere: a bool, a string, a list, an
# object, and a float where an integer is read
_ODD_VALUES = (True, "x", [1], {"k": 1}, 1.5)


def _paths(node, path=()):
    """The path of every value in a JSON document, the root's () first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _at(cfg, path):
    for step in path:
        cfg = cfg[step]
    return cfg


def _replaced(cfg, path, value):
    if not path:
        return value
    cfg = copy.deepcopy(cfg)
    node = cfg
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return cfg


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """run(verb, cfg) -> (exit code, stderr) of the CLI on a config document."""
    out = tmp_path_factory.mktemp("property")
    path = out / "cfg.json"

    def run_cli(verb, cfg):
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_main([verb, "--config", str(path), "--out", str(out)])
        return code, err.getvalue()

    return run_cli


_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("name", sorted(BASES))
def test_every_base_config_runs(run, name):
    verb, cfg = BASES[name]
    assert run(verb, cfg) == (0, "")


@st.composite
def with_unknown_key(draw):
    verb, cfg = BASES[draw(st.sampled_from(sorted(BASES)))]
    objects = [p for p in _paths(cfg) if isinstance(_at(cfg, p), dict)]
    path = draw(st.sampled_from(objects))
    key = draw(st.sampled_from(("extra", "widht", "valeu")))
    return verb, _replaced(cfg, path, {**_at(cfg, path), key: 1.0})


@st.composite
def with_odd_value(draw):
    verb, cfg = BASES[draw(st.sampled_from(sorted(BASES)))]
    path = draw(st.sampled_from(list(_paths(cfg))))
    return verb, _replaced(cfg, path, draw(st.sampled_from(_ODD_VALUES)))


@_SETTINGS
@given(with_unknown_key())
def test_an_unknown_key_anywhere_is_exit_2(run, case):
    code, err = run(*case)
    assert code == 2
    assert "unknown keys" in err


@_SETTINGS
@given(with_odd_value())
def test_an_odd_value_anywhere_never_crashes(run, case):
    # 0 where the value is still valid, 3 where a check fails, 2 otherwise;
    # an uncaught exception (exit 1 from the command line) fails the test
    code, _ = run(*case)
    assert code in (0, 2, 3)
