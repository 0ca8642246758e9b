"""Correctness gate and agreement digits for one scenario's report.

The ``trace`` and ``quantize`` verbs exit 0 without checking anything, so
the benchmark checks every report itself, outside the timed section:

* routes: |nuclear - matrix|, |nuclear - sum(eigenvalues)| and, where the
  report carries one, |nuclear - delgado| are at most 1e-8, recomputed from
  the report's values rather than read from its discrepancy fields; a
  closed-form trace is matched within 1e-8 and an exact trace (constant
  symbols, whose trace is the cardinality) bit for bit;
* tau: every tau action gap and the round-trip gap are at most 1e-4;
* wigner: the Gaussian Wigner peak sits at the origin within 1e-5 of sqrt(2);
* verify: every check in the report passes and a degeneration gap is 0.0;
* haar: the verb exits 0, which it does only when its checks pass.

Eigenvalue counts are deliberately not checked: the spectrum route may
legitimately change how many eigenvalues a report lists.

Agreement digits are -log10(gap / scale), capped at 16. Route gaps are
scaled by max(1, |nuclear_trace|), tau gaps are already relative, and haar
check values are used raw.
"""

from __future__ import annotations

import hashlib
import json
import math

ROUTE_TOL = 1e-8
TAU_TOL = 1e-4
WIGNER_TOL = 1e-5
MAX_DIGITS = 16.0


def digits(gap: float, scale: float = 1.0) -> float:
    """Correct digits of a gap relative to ``scale``, capped at MAX_DIGITS."""
    if gap == 0.0:
        return MAX_DIGITS
    if not math.isfinite(gap):
        return -MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(gap / scale))


def _complex(z: dict) -> complex:
    return complex(z["re"], z["im"])


def _route_gaps(report: dict, gate: dict) -> dict:
    """Gaps between the routes, recomputed from the report's own values."""
    tr = _complex(report["nuclear_trace"])
    eig = report["eigenvalues"]
    eigensum = complex(math.fsum(z["re"] for z in eig), math.fsum(z["im"] for z in eig))
    gaps = {
        "trace_vs_matrix": abs(tr - _complex(report["matrix_trace"])),
        "trace_vs_eigensum": abs(tr - eigensum),
    }
    if "delgado_trace" in report:
        gaps["trace_vs_delgado"] = abs(tr - _complex(report["delgado_trace"]))
    expected = gate.get("closed_form", gate.get("exact"))
    if expected is not None:
        gaps["trace_vs_expected"] = abs(tr - expected)
    return gaps


def check(scenario: dict, report: dict | None, exit_code: int | None) -> tuple:
    """(failures, agreement digits) for one run of ``scenario``.

    ``failures`` lists what went wrong (empty when the run passes);
    ``report`` is the parsed report.json, or None when none was written.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], -MAX_DIGITS
    if report is None:
        return ["no report written"], -MAX_DIGITS
    gate = scenario["gate"]
    kind = gate["kind"]
    failures = []
    quality = []  # digits of every checked quantity

    if kind == "haar":
        quality = [digits(c["value"]) for c in report.get("checks", {}).values()]
        return failures, min(quality, default=MAX_DIGITS)

    tr = _complex(report["nuclear_trace"])
    scale = max(1.0, abs(tr))
    for name, gap in _route_gaps(report, gate).items():
        quality.append(digits(gap, scale))
        if not gap <= ROUTE_TOL:
            failures.append(f"{name} = {gap:.3e} > {ROUTE_TOL:g}")
    if "exact" in gate and tr != complex(gate["exact"]):
        failures.append(f"trace {tr!r} != exact {gate['exact']!r}")

    if kind == "tau":
        gaps = dict(report["tau_action_gaps"])
        gaps["roundtrip"] = report["tau_roundtrip_gap"]
        for tau, gap in gaps.items():
            quality.append(digits(gap))
            if not gap <= TAU_TOL:
                failures.append(f"tau gap {tau} = {gap:.3e} > {TAU_TOL:g}")
    elif kind == "wigner":
        peak = _complex(report["wigner_peak"])
        gap = abs(peak - math.sqrt(2.0))
        quality.append(digits(gap, math.sqrt(2.0)))
        at_origin = report["wigner_peak_x"] == 0.0 and report["wigner_peak_xi"] == 0.0
        if not (at_origin and gap <= WIGNER_TOL):
            failures.append(f"wigner peak {peak!r} at ({report['wigner_peak_x']}, {report['wigner_peak_xi']})")
    elif kind == "verify":
        failures += [f"check {n} failed" for n, c in report.get("checks", {}).items() if not c["pass"]]
        if "degeneration_gap" in report:
            gap = report["degeneration_gap"]
            quality.append(digits(gap, scale))
            if gap != 0.0:
                failures.append(f"degeneration_gap = {gap!r} != 0.0")
    return failures, min(quality)


def report_sha256(report: dict) -> str:
    """sha256 of a report with its runtime_ms removed: equal across runs
    exactly when the computed content is byte-identical."""
    stable = {k: v for k, v in report.items() if k != "runtime_ms"}
    return hashlib.sha256(json.dumps(stable, indent=2).encode()).hexdigest()
