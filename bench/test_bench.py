"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(trace):
    proc = _bench("--workload", "haar-sweep", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, details, summary = proc.stdout.splitlines()
    summary, details = json.loads(summary), json.loads(details)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in summary["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    # the untraced worker never runs through the wrappers; the traced one does
    assert details["wrapped"][0] == 0
    if trace:
        assert details["wrapped"][1] > 0


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "haar-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_changes_values_not_sizes():
    for name in workloads.WORKLOADS:
        a, b = workloads.plan(name, 1), workloads.plan(name, 2)
        assert a == workloads.plan(name, 1)
        assert [s["name"] for s in a[1]] == [s["name"] for s in b[1]]
        if name != "haar-sweep":  # the su2 haar check has nothing random
            assert a != b


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Real reports from the cheapest gated scenarios, keyed by name."""
    sys.path.insert(0, str(ROOT / "src"))
    from nucfio.cli import run_main

    out = tmp_path_factory.mktemp("reports")
    _, compact = workloads.plan("compact-duals", 1)
    _, euclid = workloads.plan("euclid-spectrum", 1)
    picked = {s["name"]: s for s in compact + euclid}
    found = {}
    for name in ("gaussian_rank1", "lattice_identity", "homog_torus"):
        sc = picked[name]
        cfg = out / f"{name}.json"
        cfg.write_text(json.dumps(sc["config"]))
        assert run_main([sc["verb"], "--config", str(cfg), "--out", str(out / name)]) == 0
        found[name] = (sc, json.loads((out / name / "report.json").read_text()))
    return found


@pytest.mark.parametrize("name", ["gaussian_rank1", "lattice_identity", "homog_torus"])
def test_gate_passes_real_reports_and_fires_on_perturbed_trace(reports, name):
    sc, report = reports[name]
    failures, digits = gate.check(sc, report, 0)
    assert failures == [] and digits > 8
    bad = copy.deepcopy(report)
    bad["nuclear_trace"]["re"] += 1e-6
    failures, digits = gate.check(sc, bad, 0)
    assert failures and digits < 7


def test_gate_fires_on_tau_gap_and_exit_code():
    sc = {"gate": {"kind": "tau"}}
    report = {
        "nuclear_trace": {"re": 1.0, "im": 0.0},
        "matrix_trace": {"re": 1.0, "im": 0.0},
        "eigenvalues": [{"re": 0.25, "im": 0.5}, {"re": 0.75, "im": -0.5}],
        "tau_action_gaps": {"0.5": 1e-5},
        "tau_roundtrip_gap": 22.9,
    }
    assert gate.check(sc, report, 0)[0] == ["tau gap roundtrip = 2.290e+01 > 0.0001"]
    assert gate.check(sc, report, 3)[0] == ["exit code 3"]


def test_self_times_subtract_children():
    # a(0..10) contains b(1..4) which contains c(2..3); d(5..6) is a's child
    trace = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("d", 5.0, 6.0, 0)]
    assert spans.self_times(trace) == [6.0, 2.0, 1.0, 1.0]
