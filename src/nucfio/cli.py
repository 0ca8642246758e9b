"""Command-line runner: JSON scenario configs in, trace reports out.

Verbs: trace, spectrum, wigner, quantize, verify, haar-check.
Every verb reads --config (a strict JSON scenario: unknown keys are errors),
writes report.json under --out, and prints a one-line summary. Only spectrum
takes --format (csv also writes spectrum.csv), and only verify and haar-check
take --tolerance (finite, >= 0; it replaces every nonzero check tolerance).
A check passes when value <= tolerance, one rule for the printed status, the
report's "pass" field and the exit code. Exit codes: 0 success, 2 invalid
input or config, 3 numeric failure or tolerance breach.

Reports are byte-identical across reruns of the same config apart from the
runtime_ms field, the wall time of the whole scenario; all randomness flows
through the config's integer seed, which is mandatory whenever a random
family appears.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import NumericError, ValidationError
from .grids import LatticeWindow, SampledSymbol, UniformGrid, ksum, require_int, require_real
from .numerics import dense_eigenvalues, matrix_trace, mixed_norm
from .nuclear import RankOneSequence, delgado_trace, r_quasinorm_bound
from .euclid import PhaseSpec, lidskii_report, nuclear_trace_euclid
from .quantize import tau_apply, tau_convert, weyl_symbol_from_decomposition, wigner
from .lattice import lattice_matrix, lattice_nuclear_trace, lattice_symbol_from_decomposition
from .group import (
    GroupPhase,
    GroupSymbol,
    class_i_mask,
    group_matrix,
    group_nuclear_trace,
    group_symbol_from_decomposition,
    identity_phase,
    s3_raw_mass,
    su2_haar_quadrature,
    su2_irrep_table,
    su2_schur_error,
    torus_matrix,
    torus_nuclear_trace,
    torus_symbol_from_decomposition,
    unitarity_defect,
    _wigner_matrices,
    euler_from_su2,
)
from .homog import (
    homog_mixed_norm,
    homog_nuclear_trace,
    su3_fundamental_batch,
    su3_haar_quadrature,
    su3_mass,
    su3_schur_error,
    table_from_su2,
    table_from_torus,
)
from . import families
from .report import TraceReport, _c

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3

_VERBS = ("trace", "spectrum", "wigner", "quantize", "verify", "haar-check")

# -- config plumbing ----------------------------------------------------------


def _check_keys(cfg: dict, where: str, required: tuple, optional: tuple) -> None:
    if not isinstance(cfg, dict):
        raise ValidationError(f"{where}: expected an object, got {type(cfg).__name__}")
    unknown = sorted(set(cfg) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ValidationError(f"{where}: missing required keys {missing}")


def _int(spec: dict, key: str, default=None, least=None) -> int:
    """Integer config value of at least ``least`` (a required key when no default is given)."""
    return require_int(spec.get(key, default), key, least)


def _real(spec: dict, key: str, default=None) -> float:
    """Real config value (a required key when no default is given)."""
    return require_real(spec.get(key, default), key)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be an object")
    return cfg


def _collect_family_specs(cfg) -> list:
    found = []
    if isinstance(cfg, dict):
        if "family" in cfg:
            found.append(cfg)
        for v in cfg.values():
            found.extend(_collect_family_specs(v))
    elif isinstance(cfg, list):
        for v in cfg:
            found.extend(_collect_family_specs(v))
    return found


def _rng_for(cfg: dict) -> np.random.Generator | None:
    needs = any(families.spec_needs_rng(s) for s in _collect_family_specs(cfg))
    seed = cfg.get("seed")
    if needs and seed is None:
        raise ValidationError("config uses a random family but carries no integer 'seed'")
    return None if seed is None else np.random.default_rng(seed)


def _grid_from(spec: dict, where: str) -> UniformGrid:
    _check_keys(spec, where, ("count",), ("lo", "hi", "dim"))
    dim = _int(spec, "dim", 1)
    count = _int(spec, "count")
    return UniformGrid.box(_real(spec, "lo", -6.0), _real(spec, "hi", 6.0), count, dim)


def _decomposition(spec: dict, factor) -> RankOneSequence:
    """Parse a decomposition spec; factor(spec) turns one h or g spec into a
    SampledField."""
    _check_keys(spec, "decomposition", ("terms",), ("p1", "p2", "r"))
    if not isinstance(spec["terms"], list):
        raise ValidationError(f"decomposition.terms must be a list, got {spec['terms']!r}")
    terms = []
    for i, t in enumerate(spec["terms"]):
        _check_keys(t, f"decomposition.terms[{i}]", ("h", "g"), ())
        terms.append((factor(t["h"]), factor(t["g"])))
    p1, p2, r = _real(spec, "p1", 2.0), _real(spec, "p2", 2.0), _real(spec, "r", 1.0)
    return RankOneSequence(tuple(terms), p1, p2, r)


def _phase(cfg: dict, setting: str, x_grid=None, xi_grid=None) -> PhaseSpec:
    """The config's phase: linear, or for euclid only a sampled family on the grids."""
    spec = cfg.get("phase", {"kind": "linear"})
    euclid = setting == "euclid"
    _check_keys(spec, "phase", ("kind",), ("family", "shift") if euclid else ())
    if spec["kind"] == "linear":
        _check_keys(spec, "linear phase", ("kind",), ())
        return PhaseSpec.linear()
    if not euclid:
        raise ValidationError(f"{setting} configs support the linear phase only")
    if spec["kind"] != "sampled":
        raise ValidationError(f"phase kind {spec['kind']!r} not in ('linear', 'sampled')")
    fam = spec.get("family", "shifted_linear")
    if fam == "shifted_linear":
        table = 2.0 * np.pi * ((x_grid.nodes + _real(spec, "shift", 0.0)) @ xi_grid.nodes.T)
        return PhaseSpec("sampled", table)
    raise ValidationError(f"unknown sampled phase family {fam!r}")


def _constant_symbol(cfg: dict, setting: str, shape: tuple) -> np.ndarray:
    spec = cfg["symbol"]
    _check_keys(spec, "symbol", ("family",), ("value",))
    if spec["family"] != "constant":
        raise ValidationError(f"direct {setting} symbols support the constant family only")
    return np.full(shape, complex(_real(spec, "value", 1.0)), dtype=complex)


def _one_operator_source(cfg: dict) -> None:
    if "decomposition" in cfg and "symbol" in cfg:
        raise ValidationError("give either 'decomposition' or 'symbol', not both")


def _matrix_report(setting: str, nuclear: complex, M: np.ndarray, **fields) -> TraceReport:
    """Report of a trace checked against the matrix M and its spectrum."""
    return TraceReport(
        setting=setting,
        nuclear_trace=nuclear,
        matrix_trace=matrix_trace(M),
        eigenvalues=dense_eigenvalues(M),
        **fields,
    )


# -- euclid -------------------------------------------------------------------


def _run_euclid(cfg: dict, verb: str) -> tuple:
    unread = sorted({"taus", "probe"} & set(cfg)) if verb != "quantize" else []
    if unread:
        raise ValidationError(f"euclid keys {unread} apply to the quantize verb only, not {verb!r}")
    rng = _rng_for(cfg)
    grid = _grid_from(cfg["grid"], "grid")
    xi_grid = _grid_from(cfg["xi_grid"], "xi_grid") if "xi_grid" in cfg else UniformGrid(grid.axes)
    phase = _phase(cfg, "euclid", grid, xi_grid)
    d = _decomposition(cfg["decomposition"], lambda spec: families.euclid_field(grid, spec, rng))
    if "r" in cfg["decomposition"]:
        raise ValidationError("euclid reads no 'decomposition.r': r follows from 'p', 1/r = 1 + |1/p - 1/2|")
    report = lidskii_report(phase, d, _real(cfg, "p", 2.0), xi_grid)
    if verb == "wigner":
        h1, g1 = d.terms[0]
        W = wigner(h1, g1, xi_grid)
        peak_flat = int(np.abs(W.values).argmax())
        ix, ixi = np.unravel_index(peak_flat, (grid.size, xi_grid.size))
        report.extras.update(
            {
                "wigner_peak": _c(W.values[ix, ixi]),
                "wigner_peak_x": float(grid.nodes[ix, 0]),
                "wigner_peak_xi": float(xi_grid.nodes[ixi, 0]),
                # the Weyl symbol's phase-space integral, the trace <h, g> of the kernel h(x) conj(g(y))
                "wigner_integral": _c(nuclear_trace_euclid(PhaseSpec.linear(), W)),
            }
        )
    elif verb == "quantize":
        taus = cfg.get("taus", [0.25, 0.5, 0.75, 1.0])
        if not isinstance(taus, list):
            raise ValidationError(f"taus must be a list of real numbers, got {taus!r}")
        taus = [require_real(tau, "taus") for tau in taus]
        probe_spec = cfg.get("probe", {"family": "gaussian", "center": 0.3, "width": 1.1})
        probe = families.euclid_field(grid, probe_spec, rng)
        # the kernel's action sum_k h_k <w g_k, probe>, without the dense n x n kernel
        wf = grid.weights * probe.values
        want = np.zeros(grid.size, dtype=complex)
        for h, g in d.terms:
            want += h.values * complex(ksum(g.values * wf))
        scale = float(np.abs(want).max()) or 1.0
        gaps = {}
        for i, tau in enumerate(taus):
            sym = weyl_symbol_from_decomposition(d, tau, xi_grid)
            if i == 0:
                sym0 = sym  # the round trip below starts from this symbol
            got = tau_apply(sym, tau, probe).values
            gaps[f"{tau:g}"] = float(np.abs(got - want).max() / scale)
        report.extras["tau_action_gaps"] = gaps
        if len(taus) >= 2:
            t0, t1 = taus[0], taus[1]
            back = tau_convert(tau_convert(sym0, t0, t1), t1, t0)
            denom = float(np.abs(sym0.values).max()) or 1.0
            report.extras["tau_roundtrip_gap"] = float(
                np.abs(back.values - sym0.values).max() / denom
            )
    return report, []


# -- lattice and torus --------------------------------------------------------


def _abelian_operator(cfg: dict, setting: str, space, freq, factor, synthesize) -> tuple:
    """(symbol, decomposition or None) of a lattice or torus config."""
    _one_operator_source(cfg)
    if "decomposition" in cfg:
        d = _decomposition(cfg["decomposition"], factor)
        return synthesize(d), d
    if "symbol" in cfg:
        return SampledSymbol(space, freq, _constant_symbol(cfg, setting, (space.size, freq.size))), None
    raise ValidationError(f"{setting} config needs 'decomposition' or 'symbol'")


def _run_lattice(cfg: dict, verb: str) -> tuple:
    if "p" in cfg and "decomposition" in cfg:
        raise ValidationError(
            "lattice key 'p' applies to a direct 'symbol' only; a "
            "'decomposition' sets its norm exponents with its own 'p1' and 'p2'"
        )
    rng = _rng_for(cfg)
    window = LatticeWindow(_int(cfg, "dim", 1), _int(cfg, "radius"))
    xi_grid = UniformGrid.torus(_int(cfg, "xi_count", max(32, window.min_xi_count())), window.dim)
    window.check_grid(xi_grid, "xi_count")
    phase = _phase(cfg, "lattice")
    a, d = _abelian_operator(
        cfg, "lattice", window, xi_grid,
        lambda spec: families.lattice_sequence(window, spec, rng),
        lambda d: lattice_symbol_from_decomposition(phase, d, xi_grid),
    )
    p1, p2 = (_real(cfg, "p", 2.0),) * 2 if d is None else (d.p1, d.p2)
    return _matrix_report(
        "lattice", lattice_nuclear_trace(phase, a), lattice_matrix(phase, a),
        quasinorm_bound=None if d is None else r_quasinorm_bound(d),
        mixed_norm_x_first=mixed_norm(a, "x", p2, p1), mixed_norm_xi_first=mixed_norm(a, "xi", p1, p2),
    ), []


def _torus_grid(cfg: dict, cutoff: int) -> tuple:
    """(x grid, frequency window) of a torus config, the grid checked against the window."""
    window = LatticeWindow(_int(cfg, "dim", 1), cutoff)
    x_grid = UniformGrid.torus(_int(cfg, "x_count", 32), window.dim)
    window.check_grid(x_grid, "x_count")
    return x_grid, window


def _run_torus(cfg: dict, verb: str) -> tuple:
    rng = _rng_for(cfg)
    cutoff = _int(cfg, "cutoff", least=0)
    x_grid, window = _torus_grid(cfg, cutoff)
    phase = _phase(cfg, "torus")
    a, d = _abelian_operator(
        cfg, "torus", x_grid, window,
        lambda spec: families.euclid_field(x_grid, spec, rng),
        lambda d: torus_symbol_from_decomposition(phase, d, cutoff, x_grid),
    )
    return _matrix_report(
        "torus", torus_nuclear_trace(phase, a), torus_matrix(phase, a),
        quasinorm_bound=None if d is None else r_quasinorm_bound(d),
    ), []


# -- su2 and homog --------------------------------------------------------------


def _su2_quad(cfg: dict):
    qspec = cfg.get("quadrature", {})
    _check_keys(qspec, "quadrature", (), ("n_alpha", "n_beta", "n_gamma"))
    return su2_haar_quadrature(**qspec)


def _identity_symbol(domain, tables: dict) -> GroupSymbol:
    """a = 1 on a quadrature or a class-I table: per label of ``tables`` (label -> (N, d, d)), a read-only eye view."""
    blocks = {label: np.broadcast_to(np.eye(T.shape[-1], dtype=complex), T.shape) for label, T in tables.items()}
    return GroupSymbol(domain, blocks)


def _su2_identity(quad, cutoff: int) -> tuple:
    """(Phi, a) of the identity operator on SU(2): Phi(x, l) = t_l(x), a = 1 (read-only views)."""
    Phi = identity_phase(quad, cutoff)
    return Phi, _identity_symbol(quad, Phi.blocks)


def _run_su2(cfg: dict, verb: str) -> tuple:
    _one_operator_source(cfg)
    if cfg.get("symbol", "identity") != "identity":
        raise ValidationError("su2 config needs 'decomposition' or symbol 'identity'")
    rng = _rng_for(cfg)
    quad = _su2_quad(cfg)
    cutoff = _int(cfg, "cutoff_twoL", least=0)
    quasinorm = None
    extras = {}
    if "decomposition" in cfg:
        Phi = identity_phase(quad, cutoff)
        d = _decomposition(cfg["decomposition"], lambda spec: families.group_field(quad, spec, cutoff, rng))
        a = group_symbol_from_decomposition(Phi, d)
        quasinorm = r_quasinorm_bound(d)
        extras["delgado_trace"] = _c(delgado_trace(d))
    else:
        Phi, a = _su2_identity(quad, cutoff)
    nuclear = group_nuclear_trace(Phi, a)
    M = group_matrix(Phi, a)
    return _matrix_report("su2", nuclear, M, quasinorm_bound=quasinorm, extras=extras), []


def _run_homog(cfg: dict, verb: str) -> tuple:
    """The identity operator on G/K with K = {e}, traced through the class-I
    table and through the group (su2) or torus route it degenerates to."""
    instance = cfg["instance"]
    p1, p2 = _real(cfg, "p1", 2.0), _real(cfg, "p2", 2.0)
    if instance == "su2":
        quad = _su2_quad(cfg)
        cutoff = _int(cfg, "cutoff_twoL", 2, least=0)
        table = table_from_su2(quad, cutoff)
        Phi_g, a_g = _su2_identity(quad, cutoff)
        route, reference = "group_trace", group_nuclear_trace(Phi_g, a_g)
        M = group_matrix(Phi_g, a_g)
    else:
        cutoff = _int(cfg, "cutoff", 2, least=0)
        x_grid, window = _torus_grid(cfg, cutoff)
        table = table_from_torus(x_grid, cutoff)
        a_t = SampledSymbol(x_grid, window, np.ones((x_grid.size, window.size), dtype=complex))
        route, reference = "torus_trace", torus_nuclear_trace(PhaseSpec.linear(), a_t)
        M = torus_matrix(PhaseSpec.linear(), a_t)
    Phi_h = GroupPhase(table, table.matrices)
    a_h = _identity_symbol(table, table.matrices)
    nuclear = homog_nuclear_trace(Phi_h, a_h)
    extras = {
        route: _c(reference),
        "degeneration_gap": abs(nuclear - reference),
        "mixed_norm_dual": homog_mixed_norm(a_h, p1, p2),
    }
    checks = []
    if verb == "verify":
        # the class-I mask on this run's own blocks, exact with tolerance 0; outside
        # a K = {e} block (k = d) the slices are empty, hence initial=0.0
        idempotence = support = 0.0
        for label, k in table.k_inv.items():
            masked = class_i_mask(a_h.blocks[label], k)
            idempotence = max(idempotence, float(np.abs(class_i_mask(masked, k) - masked).max()))
            outside = np.abs(masked[:, k:, :]).max(initial=0.0) + np.abs(masked[:, :, k:]).max(initial=0.0)
            support = max(support, float(outside))
        degeneration = ("degeneration_gap", extras["degeneration_gap"], 1e-10)
        checks = [degeneration, ("mask_idempotence", idempotence, 0.0), ("mask_support", support, 0.0)]
    return _matrix_report("homog", nuclear, M, extras=extras), checks


# -- haar-check and verify ----------------------------------------------------


def _su2_haar_checks(cfg: dict, verb: str) -> tuple:
    cutoff = _int(cfg, "cutoff_twoL", 2, least=0)
    quad = _su2_quad(cfg)
    checks = []
    wsum = abs(float(ksum(quad.weights)) - 1.0)
    checks.append(("haar_weight_sum", wsum, 1e-10))

    defect = max(unitarity_defect(su2_irrep_table(quad, t)) for t in range(cutoff + 1))
    checks.append(("table_unitarity", defect, 1e-10))

    # Schur orthogonality over every spin pair up to max(3, cutoff_twoL)
    checks.append(("schur_orthogonality", su2_schur_error(quad, max(3, cutoff)), 1e-6))

    # composition D(U1 U2) = D(U1) D(U2) on deterministic angle pairs
    pairs = [
        ((0.7, 0.9, 1.3), (2.1, 2.4, 3.7)),
        ((5.9, 0.2, 9.1), (1.0, 3.0, 0.5)),
        ((3.3, 1.6, 7.7), (4.4, 2.8, 11.0)),
    ]
    # (U1, U2, U1 U2) per pair, each spin's matrices in one batch
    U = _wigner_matrices(1, np.array(pairs).reshape(-1, 3)).reshape(-1, 2, 2, 2)
    angles = np.array([(*pair, euler_from_su2(u1 @ u2)) for pair, (u1, u2) in zip(pairs, U)]).reshape(-1, 3)
    comp = 0.0
    for twoL in range(0, 5):
        D = _wigner_matrices(twoL, angles).reshape(len(pairs), 3, twoL + 1, twoL + 1)
        comp = max(comp, float(np.abs(D[:, 2] - D[:, 0] @ D[:, 1]).max()))
    checks.append(("composition", comp, 1e-8))

    # identity-operator trace = sum of squared dimensions
    Phi, a = _su2_identity(quad, cutoff)
    expected = float(sum((t + 1) ** 2 for t in range(cutoff + 1)))
    trace_gap = abs(group_nuclear_trace(Phi, a) - expected)
    checks.append(("identity_trace", trace_gap, 1e-6))

    s3_mass = s3_raw_mass(_int(cfg, "s3_resolution", 48, least=4))
    checks.append(("s3_raw_mass", abs(s3_mass - 4.0 * np.pi**2), 1e-4))
    return TraceReport("su2", 0.0, 0.0, np.zeros(0, dtype=complex)), checks


def _su3_checks(cfg: dict, verb: str) -> tuple:
    samples = _int(cfg, "samples", 10000, least=1)
    rng = np.random.default_rng(_int(cfg, "seed", 0))
    quad = su3_haar_quadrature(**{key: cfg[key] for key in ("resolution", "phi_count") if key in cfg})
    checks = [
        ("haar_mass", abs(su3_mass(quad) - 1.0), 1e-6),
        ("schur_orthogonality", su3_schur_error(quad), 1e-3),
    ]
    angles = np.empty((samples, 8))
    angles[:, :3] = rng.uniform(0.0, np.pi / 2.0, size=(samples, 3))
    angles[:, 3:] = rng.uniform(0.0, 2.0 * np.pi, size=(samples, 5))
    U = su3_fundamental_batch(angles)
    det = float(np.abs(np.linalg.det(U) - 1.0).max())
    checks.append(("sampled_unitarity", unitarity_defect(U), 1e-10))
    checks.append(("sampled_determinant", det, 1e-10))
    return TraceReport("su3", 0.0, 0.0, np.zeros(0, dtype=complex)), checks


# Every scenario: name -> (required keys, optional keys, runner), where every
# config also needs a "setting" and may carry a "seed". A runner takes (cfg,
# verb) and returns (report, checks). su2 under haar-check runs the quadrature
# checks instead of a trace, and each homog instance reads its own keys.
_SCENARIOS = {
    "euclid": (("grid", "decomposition"), ("xi_grid", "phase", "p", "taus", "probe"), _run_euclid),
    "lattice": (("radius",), ("dim", "xi_count", "phase", "decomposition", "symbol", "p"), _run_lattice),
    "torus": (("cutoff",), ("dim", "x_count", "phase", "decomposition", "symbol"), _run_torus),
    "su2": (("cutoff_twoL",), ("quadrature", "symbol", "decomposition"), _run_su2),
    "su2-checks": ((), ("quadrature", "cutoff_twoL", "s3_resolution"), _su2_haar_checks),
    "homog-su2": (("instance",), ("quadrature", "cutoff_twoL", "p1", "p2"), _run_homog),
    "homog-torus": (("instance",), ("dim", "cutoff", "x_count", "p1", "p2"), _run_homog),
    "su3": ((), ("resolution", "phi_count", "samples"), _su3_checks),
}
_TRACE_SETTINGS = ("euclid", "homog", "lattice", "su2", "torus")


def _scenario(cfg: dict, verb: str) -> tuple:
    """The table entry for a config's setting (and homog instance) under a verb."""
    if verb not in _VERBS:
        raise ValidationError(f"unknown verb {verb!r}")
    setting = cfg.get("setting")
    if verb == "haar-check":
        if setting not in ("su2", "su3"):
            raise ValidationError("haar-check supports settings 'su2' and 'su3'")
        return _SCENARIOS["su2-checks" if setting == "su2" else "su3"]
    if setting == "su3":
        raise ValidationError(f"setting 'su3' runs under haar-check only, not {verb!r}")
    if setting not in _TRACE_SETTINGS:
        raise ValidationError(
            f"setting {setting!r} not in {list(_TRACE_SETTINGS)} (config needs a 'setting')"
        )
    if verb in ("wigner", "quantize") and setting != "euclid":
        raise ValidationError(f"{verb} supports setting 'euclid' only")
    name = f"homog-{cfg.get('instance')}" if setting == "homog" else setting
    if name not in _SCENARIOS:
        raise ValidationError(f"homog instance {cfg.get('instance')!r} not in ('su2', 'torus')")
    return _SCENARIOS[name]


# -- output -------------------------------------------------------------------


def _write_report(payload: dict, out_dir: str) -> Path:
    path = Path(out_dir) / "report.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _write_spectrum_csv(eigenvalues, out_dir: str) -> Path:
    path = Path(out_dir) / "spectrum.csv"  # in the directory _write_report made
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "re", "im", "modulus"])
        for i, z in enumerate(np.asarray(eigenvalues, dtype=complex)):
            w.writerow([i, repr(float(z.real)), repr(float(z.imag)), repr(float(abs(z)))])
    return path


def _checks_payload(checks: list) -> dict:
    """Value, tolerance and verdict per check, under the one pass rule value <= tolerance."""
    return {
        name: {"value": float(value), "tolerance": float(tol), "pass": bool(value <= tol)}
        for name, value, tol in checks
    }


# -- driver -------------------------------------------------------------------


def run_scenario(cfg: dict, verb: str, tolerance: float | None = None):
    """Execute one verb against a parsed config; returns (report, checks).

    A given tolerance replaces every nonzero check tolerance (the exact checks
    keep their 0); runtime_ms is the wall time of the whole scenario."""
    t0 = time.perf_counter()
    if tolerance is not None:
        tolerance = require_real(tolerance, "tolerance", 0.0)
    required, optional, runner = _scenario(cfg, verb)
    _check_keys(cfg, "config", ("setting", *required), ("seed", *optional))
    if "seed" in cfg:
        require_int(cfg["seed"], "seed")
    report, checks = runner(cfg, verb)
    if verb == "verify":
        # the route checks lead; a runner's own verify checks (homog's) follow
        checks = [
            ("trace_vs_matrix", report.discrepancy_trace_vs_matrix, 1e-8),
            ("trace_vs_eigensum", report.discrepancy_trace_vs_eigensum, 1e-8),
        ] + checks
    if tolerance is not None:
        checks = [(name, value, tolerance if tol else tol) for name, value, tol in checks]
    report.runtime_ms = (time.perf_counter() - t0) * 1e3
    return report, checks


def run_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nucfio",
        description="Nuclear-trace computations for Fourier integral operators.",
    )
    parser.set_defaults(format="json", tolerance=None)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        sp = sub.add_parser(verb)
        sp.add_argument("--config", required=True, help="path to a JSON scenario")
        sp.add_argument("--out", default=".", help="output directory (default: cwd)")
        if verb == "spectrum":
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        if verb in ("verify", "haar-check"):
            sp.add_argument("--tolerance", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        report, checks = run_scenario(cfg, args.verb, args.tolerance)
        payload = report.to_payload()
        results = _checks_payload(checks)
        if results:
            payload["checks"] = results
        path = _write_report(payload, args.out)
        written = [str(path)]
        if args.format == "csv":
            written.append(str(_write_spectrum_csv(report.eigenvalues, args.out)))
        for name, check in results.items():
            status = "pass" if check["pass"] else "FAIL"
            print(f"{status} {name}: {check['value']:.3e} (tolerance {check['tolerance']:.3e})")
        tr = report.nuclear_trace
        print(
            f"{args.verb} {report.setting}: nuclear_trace = {tr.real:.12g}"
            f"{tr.imag:+.12g}i -> {', '.join(written)}"
        )
        if not all(check["pass"] for check in results.values()):
            return EXIT_NUMERIC
        return EXIT_OK
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: problem too large for available memory{detail}", file=sys.stderr)
        return EXIT_INVALID
