"""nucfio benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload euclid-spectrum --seed 1 --seconds 20 --trace 0

Each workload (see workloads.py) is a fixed list of scenarios whose inputs
come from the seed. Every measurement runs in fresh worker processes
(worker.py) that import nucfio from ``src/``, run one untimed warm-up
scenario and then timed passes over all scenarios until their share of
``--seconds`` is spent. BLAS and OpenMP are pinned to one thread. Every
report is gated for correctness outside the timed section (gate.py).

Times are reported in reference seconds (calib.py): the host's speed
drifts, so each worker times a fixed reference kernel between its timed
scenarios and after its set-up, and scales its times by the kernel's
nominal over its measured time. Host seconds appear in the details line.

--trace 0 prints the end-to-end metrics:
  setup_s           median, over several fresh processes, of the time from
                    interpreter start until nucfio.cli is imported and the
                    configs are generated, in reference seconds;
  wall_s            time to run every scenario once, reports written, in
                    reference seconds: the mean time of a timed pass;
  peak_rss_mb       median ru_maxrss of the measuring workers;
  agreement_digits  minimum over every checked quantity of
                    -log10(gap / scale), capped at 16;
  pass_frac         share of attempted scenarios that exited 0 and passed
                    the gate (1 - failed_frac).
--trace 1 runs an untraced and a traced worker on the same inputs and prints
the per-layer metrics of spans.py, per pass.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics; the line before it holds provenance and per-scenario details
(timings, exit codes, report hashes without runtime_ms).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5  # set-up-only processes per untraced run, besides the worker
TIME_LIMIT = 170.0  # seconds; a run must end within 180


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _parse(argv):
    p = argparse.ArgumentParser(description="nucfio benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="seconds of timed passes per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(args, out: Path, deadline: float, budget: float = 0.0, trace=False, setup_only=False) -> dict:
    """Run one worker process to completion and return its result.json."""
    out.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", str(out),
        "--budget", repr(budget),
    ]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)],
            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((out / "result.json").read_text())


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(args, worker: dict) -> dict:
    return {
        "python": platform.python_version(),
        **worker["provenance"],
        "threads": {var: _env()[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _scenario_details(workers) -> dict:
    """Per scenario: median seconds, exit codes, gate failures, digits and
    the distinct report hashes seen across passes and processes."""
    details = {}
    for w in workers:
        for r in w["runs"]:
            d = details.setdefault(r["name"], {"seconds": [], "exit": set(), "failures": [], "sha256": set()})
            d["seconds"].append(r["seconds"])
            d["exit"].add(r["exit"])
            d["failures"] += r["failures"]
            d["digits"] = r["digits"]
            d["sha256"].add(r["sha256"])
    return {
        name: {
            "median_s": statistics.median(d["seconds"]),
            "runs": len(d["seconds"]),
            "exit": sorted(d["exit"], key=str),
            "failures": d["failures"][:3],
            "digits": d["digits"],
            "sha256": sorted(d["sha256"], key=str),
        }
        for name, d in details.items()
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _wall(worker: dict, host: bool = False) -> float:
    """Mean time of one pass over every scenario, in reference seconds
    (or in host seconds)."""
    seconds = sum(worker["passes"]) / len(worker["passes"])
    return seconds if host else seconds * worker["speed"]


def run(args) -> tuple:
    """Measure one workload; returns (summary line, details line)."""
    if not (ROOT / "src" / "nucfio" / "cli.py").is_file():
        raise BenchError(f"no nucfio sources under {ROOT / 'src'}")
    start = time.monotonic()
    deadline = start + TIME_LIMIT
    out = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    probes = []
    try:
        if args.trace:
            untraced = _spawn(args, out / "untraced", deadline, args.seconds / 2)
            traced = _spawn(args, out / "traced", deadline, args.seconds / 2, trace=True)
            trace_doc = json.loads((out / "traced" / "spans.json").read_text())
            workers = [untraced, traced]
        else:
            probes = [_spawn(args, out / f"probe{i}", deadline, setup_only=True) for i in range(SETUP_PROBES)]
            workers = [_spawn(args, out / "worker", deadline, args.seconds)]
    finally:
        shutil.rmtree(out, ignore_errors=True)

    runs = [r for w in workers for r in w["runs"]]
    attempted = len(runs)
    failed = sum(1 for r in runs if r["failures"])
    # the untraced measurement must never run through the wrappers
    clean = workers[0]["wrapped"] == 0 and (not args.trace or workers[1]["wrapped"] > 0)
    if args.trace:
        import spans

        layer = spans.layer_metrics(
            trace_doc["spans"], trace_doc["counts"], len(traced["passes"]), sum(traced["passes"]), _wall(traced) / _wall(untraced)
        )
        # span times are host seconds
        layer.update({name: value * traced["speed"] for name, value in layer.items() if name.endswith(".s")})
        metrics = {name: _metric(value, spans.unit(name)) for name, value in layer.items()}
    else:
        worker = workers[0]
        metrics = {
            "setup_s": _metric(statistics.median([p["setup_ref_s"] for p in probes] + [worker["setup_ref_s"]]), "s"),
            "wall_s": _metric(_wall(worker), "s"),
            "peak_rss_mb": _metric(worker["peak_rss_mb"], "MB"),
            "agreement_digits": _metric(min(r["digits"] for r in runs), "digits"),
            "pass_frac": _metric((attempted - failed) / attempted, "fraction"),
        }
    summary = {
        "correct": failed == 0 and clean,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "provenance": _provenance(args, workers[0]),
        "elapsed_s": time.monotonic() - start,
        "passes": [w["passes"] for w in workers],
        "host_wall_s": [_wall(w, host=True) for w in workers],
        "host_setup_s": [w["setup_s"] for w in probes + workers],
        "wrapped": [w["wrapped"] for w in workers],
        "scenarios": _scenario_details(workers),
    }
    return summary, details


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        summary, details = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
