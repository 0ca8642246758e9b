"""Seeded scenario configs for the four benchmark workloads.

Each workload is a fixed list of scenarios whose problem sizes never depend
on the seed; the seed only draws the random coefficients, centers, widths and
shifts. That keeps timings comparable across seeds while a second seed still
gives inputs that were not seen while a change was written. Configs carry
only keys that nucfio reads.

A scenario is a dict with ``name``, ``verb``, ``config`` (the JSON handed to
``nucfio.cli``) and ``gate`` (what ``gate.check`` verifies in its report).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

_SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "nucfio" / "scenarios"


def _bundled(name: str) -> dict:
    return json.loads((_SCENARIO_DIR / f"{name}.json").read_text())


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _gaussian(rng: random.Random, center: float | None = None, width: float | None = None) -> dict:
    return {
        "family": "gaussian",
        "center": rng.uniform(-0.5, 0.5) if center is None else center,
        "width": rng.uniform(0.9, 1.3) if width is None else width,
    }


def _scenario(name: str, verb: str, config: dict, **gate) -> dict:
    return {"name": name, "verb": verb, "config": config, "gate": gate}


# -- euclid-spectrum ----------------------------------------------------------


def _spectrum(rng: random.Random, name: str, sampled: bool) -> dict:
    cfg = {
        "setting": "euclid",
        "seed": _seed(rng),
        "grid": {"lo": -8.0, "hi": 8.0, "count": 1025},
        "decomposition": {
            "terms": [{"h": {"family": "random_mix"}, "g": {"family": "random_mix"}} for _ in range(4)]
        },
    }
    if sampled:
        cfg["phase"] = {"kind": "sampled", "family": "shifted_linear", "shift": rng.uniform(-1.0, 1.0)}
    return _scenario(name, "spectrum", cfg, kind="routes")


def _euclid(rng: random.Random):
    warmup = _spectrum(rng, "warmup", sampled=False)
    timed = [
        _scenario("gaussian_rank1", "trace", _bundled("gaussian_rank1"), kind="routes", closed_form=2**-0.5),
        _spectrum(rng, "spectrum_linear", sampled=False),
        _spectrum(rng, "spectrum_shifted", sampled=True),
    ]
    return warmup, timed


# -- tau-orderings ------------------------------------------------------------

_TAU_GRID = {"lo": -5.0, "hi": 5.0, "count": 201}


def _tau(rng: random.Random):
    def quantize(name):
        # Criterion 3's widths: the interpolation error, and with it the tau
        # gaps' agreement digits, would otherwise swing with the seed.
        cfg = {
            "setting": "euclid",
            "grid": dict(_TAU_GRID),
            "decomposition": {"terms": [{"h": _gaussian(rng, width=1.0), "g": _gaussian(rng, width=1.2)}]},
        }
        return _scenario(name, "quantize", cfg, kind="tau")

    # wigner uses the first term only; a unit Gaussian there peaks at sqrt(2).
    unit = _gaussian(rng, center=0.0, width=1.0)
    wig = {
        "setting": "euclid",
        "grid": dict(_TAU_GRID),
        "decomposition": {"terms": [{"h": unit, "g": unit}, {"h": _gaussian(rng), "g": _gaussian(rng)}]},
    }
    return quantize("warmup"), [quantize("quantize"), _scenario("wigner", "wigner", wig, kind="wigner")]


# -- compact-duals ------------------------------------------------------------

_SU2_QUAD = {"n_alpha": 16, "n_beta": 16, "n_gamma": 32}


def _trigpoly(rng: random.Random, degree: int) -> dict:
    coeffs = [[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)] for _ in range(2 * degree + 1)]
    return {"family": "trigpoly", "coeffs": coeffs}


def _su2_decomposition(rng: random.Random, name: str) -> dict:
    cfg = {
        "setting": "su2",
        "seed": _seed(rng),
        "quadrature": dict(_SU2_QUAD),
        "cutoff_twoL": 3,
        "decomposition": {
            "terms": [{"h": {"family": "random_bandlimited"}, "g": {"family": "random_bandlimited"}}]
        },
    }
    return _scenario(name, "trace", cfg, kind="routes")


def _compact(rng: random.Random):
    warmup = _su2_decomposition(rng, "warmup")
    lattice_dec = {
        "setting": "lattice",
        "seed": _seed(rng),
        "dim": 2,
        "radius": 5,
        "xi_count": 32,
        "decomposition": {
            "terms": [{"h": {"family": "random_mix"}, "g": {"family": "random_mix"}} for _ in range(2)]
        },
    }
    lattice_const = {
        "setting": "lattice",
        "dim": 2,
        "radius": 5,
        "xi_count": 32,
        "symbol": {"family": "constant", "value": 1.0},
    }
    torus_dec = {
        "setting": "torus",
        "cutoff": 8,
        "x_count": 64,
        "decomposition": {"terms": [{"h": _trigpoly(rng, 3), "g": _trigpoly(rng, 3)} for _ in range(2)]},
    }
    torus_const = {
        "setting": "torus",
        "dim": 2,
        "cutoff": 4,
        "x_count": 32,
        "symbol": {"family": "constant", "value": 1.0},
    }
    timed = [
        _scenario("lattice_identity", "trace", _bundled("lattice_identity"), kind="routes", exact=7.0),
        _scenario("su2_identity_L1", "trace", _bundled("su2_identity_L1"), kind="routes"),
        _su2_decomposition(rng, "su2_decomposition"),
        _scenario(
            "homog_su2", "verify",
            {"setting": "homog", "instance": "su2", "quadrature": dict(_SU2_QUAD), "cutoff_twoL": 2},
            kind="verify",
        ),
        _scenario(
            "homog_torus", "verify",
            {"setting": "homog", "instance": "torus", "dim": 1, "cutoff": 3, "x_count": 32},
            kind="verify",
        ),
        _scenario("lattice_decomposition", "verify", lattice_dec, kind="verify"),
        _scenario("lattice_constant", "trace", lattice_const, kind="routes", exact=float(11**2)),
        _scenario("torus_decomposition", "verify", torus_dec, kind="verify"),
        _scenario("torus_constant", "trace", torus_const, kind="routes", exact=float(9**2)),
    ]
    return warmup, timed


# -- haar-sweep ---------------------------------------------------------------


def _haar(rng: random.Random):
    su2 = {"setting": "su2", "quadrature": dict(_SU2_QUAD), "s3_resolution": 48}
    su3 = {"setting": "su3", "seed": _seed(rng), "resolution": 8, "phi_count": 5, "samples": 10000}
    warmup = _scenario("warmup", "haar-check", dict(su2), kind="haar")
    return warmup, [
        _scenario("su2_haar", "haar-check", su2, kind="haar"),
        _scenario("su3_haar", "haar-check", su3, kind="haar"),
    ]


_BUILDERS = {
    "euclid-spectrum": _euclid,
    "tau-orderings": _tau,
    "compact-duals": _compact,
    "haar-sweep": _haar,
}
WORKLOADS = tuple(_BUILDERS)


def plan(workload: str, seed: int):
    """(warm-up scenario, timed scenarios) for one workload and seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{int(seed)}"))


__all__ = ["WORKLOADS", "plan"]
