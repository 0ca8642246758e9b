"""One benchmark process: set up, warm up, then run timed passes.

A pass sends every scenario of the workload through ``nucfio.cli.run_main``
in this process, one after another (a closed loop with one client). Each
report is gated and hashed after its scenario's timer stops. Before the
first timed scenario and after each one the worker times the reference
kernel of calib.py; its mean gives the factor that converts the worker's
host seconds into reference seconds. Set-up time is converted with the
kernel's time right after set-up. The worker
writes its measurements to ``<out>/result.json`` and, when traced, its spans
to ``<out>/spans.json``. ``run.py`` starts workers; run one by hand as

    python3 bench/worker.py --workload haar-sweep --seed 1 --out .bench_out/w \\
        --budget 5 --spawned 0
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_CAL_RUNS = 5  # calibration runs that convert set-up time


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for configs, reports and results")
    p.add_argument("--budget", type=float, required=True, help="seconds of timed passes")
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started this process")
    p.add_argument("--trace", action="store_true", help="wrap nucfio's public functions and record spans")
    p.add_argument("--setup-only", action="store_true", help="exit once set-up is measured")
    return p.parse_args(argv)


def _wrapped(namespaces) -> int:
    """Bindings in ``namespaces`` that are benchmark wrappers. The marker is
    spans.MARK, spelled out so that untraced workers never import spans."""
    return sum(hasattr(v, "_bench_span") for ns in namespaces for v in list(vars(ns).values()))


def _provenance(np) -> dict:
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass  # numpy too old to report its build configuration
    return {"numpy": np.__version__, "blas": blas}


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc
except AttributeError:
    _malloc_trim = None


def _run_one(cli, scenario, cfg_path: Path, out: Path):
    """Run one scenario; returns (seconds, exit code or None if it raised, error)."""
    argv = [scenario["verb"], "--config", str(cfg_path), "--out", str(out)]
    start = time.perf_counter()
    try:
        code, error = cli.run_main(argv), None
    except Exception:  # a scenario that raises is counted as failed
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    # Hand freed heap pages back, as the end of a CLI process would, so that
    # peak RSS reflects each scenario's own allocations and not the heap
    # layout earlier scenarios left behind.
    if _malloc_trim is not None:
        _malloc_trim(0)
    return seconds, code, error


def main(argv=None) -> int:
    args = _parse(argv)
    out = Path(args.out)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import nucfio.cli as cli

    import gate
    import workloads

    warmup, scenarios = workloads.plan(args.workload, args.seed)
    cfg_dir = out / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    cfg_paths = {}
    for sc in [warmup, *scenarios]:
        cfg_paths[sc["name"]] = cfg_dir / f"{sc['name']}.json"
        cfg_paths[sc["name"]].write_text(json.dumps(sc["config"], indent=2))
    setup_s = time.monotonic() - args.spawned
    import calib

    setup_cal = calib.measure(SETUP_CAL_RUNS)
    result = {
        "setup_s": setup_s,
        "setup_ref_s": calib.to_ref(setup_s, setup_cal),
        "provenance": _provenance(np),
    }
    if args.setup_only:
        (out / "result.json").write_text(json.dumps(result))
        return 0

    _run_one(cli, warmup, cfg_paths["warmup"], out / "reports" / "warmup")

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("nucfio.")]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, modules)

    passes, runs = [], []
    start = time.perf_counter()
    cal = [calib.measure()]
    while True:
        total, pass_start = 0.0, time.perf_counter()
        for sc in scenarios:
            rep_dir = out / "reports" / sc["name"]
            seconds, code, error = _run_one(cli, sc, cfg_paths[sc["name"]], rep_dir)
            cal.append(calib.measure())
            total += seconds
            report = json.loads((rep_dir / "report.json").read_text()) if code == 0 else None
            failures, digits = gate.check(sc, report, code)
            runs.append(
                {
                    "name": sc["name"],
                    "seconds": seconds,
                    "exit": code,
                    "failures": failures + ([error] if error else []),
                    "digits": digits,
                    "sha256": gate.report_sha256(report) if report is not None else None,
                }
            )
        passes.append(total)
        now = time.perf_counter()
        # stop before a pass like the last one would overrun the budget
        if now - start + (now - pass_start) > args.budget:
            break

    result.update(
        passes=passes,
        runs=runs,
        cal=cal,
        speed=calib.to_ref(1.0, statistics.fmean(cal)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        wrapped=_wrapped([*modules, cli.TraceReport]),
    )
    if tracer is not None:
        (out / "spans.json").write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
