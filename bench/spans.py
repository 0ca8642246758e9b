"""Out-of-package tracing: wrap nucfio's public functions, record spans.

Only the traced worker imports this module. ``install`` replaces each
function named in LAYERS by a wrapper in every ``nucfio.*`` namespace that
binds it (the modules use ``from .x import f``, so ``ksum`` alone is bound in
about ten of them). Spans are kept in memory as (name, start, end, parent)
and written out when the worker ends; ``layer_metrics`` turns them into the
per-layer metrics.

The layer names are the stage names the package's own instrumentation is
expected to adopt.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# Per-layer metric prefix -> the functions, as "module:qualname", whose self
# time it sums.
LAYERS = {
    "grids.ksum": ("grids:ksum",),
    "grids.interpolate": ("grids:interpolate",),
    "families.field_synthesis": ("families:euclid_field", "families:lattice_sequence"),
    "numerics.transform": ("numerics:dft_forward", "numerics:dft_inverse"),
    "numerics.spectrum": ("numerics:dense_eigenvalues",),
    "numerics.mixed_norm": ("numerics:mixed_norm",),
    "nuclear.kernel_matrix": ("nuclear:kernel_from_decomposition", "nuclear:kernel_matrix"),
    "nuclear.delgado_trace": ("nuclear:delgado_trace",),
    "euclid.symbol_synthesis": ("euclid:symbol_from_decomposition",),
    "euclid.phase_space_trace": ("euclid:nuclear_trace_euclid",),
    "euclid.decay_norms": ("euclid:decay_norms",),
    "quantize.tau_symbol": ("quantize:weyl_symbol_from_decomposition",),
    "quantize.tau_apply": ("quantize:tau_apply",),
    "quantize.tau_convert": ("quantize:tau_convert",),
    "quantize.wigner": ("quantize:wigner",),
    "lattice.symbol_synthesis": ("lattice:lattice_symbol_from_decomposition",),
    "lattice.dual_trace": ("lattice:lattice_nuclear_trace",),
    "lattice.operator_matrix": ("lattice:lattice_matrix",),
    "group.quadrature": ("group:su2_haar_quadrature", "group:s3_quadrature"),
    "group.irrep_tables": ("group:su2_irrep_table",),
    "group.phase_check": ("group:identity_phase",),
    "group.symbol_synthesis": ("group:group_symbol_from_decomposition",),
    "group.dual_trace": ("group:group_nuclear_trace",),
    "group.operator_matrix": ("group:group_matrix", "group:group_fio_apply"),
    "group.torus": (
        "group:torus_symbol_from_decomposition",
        "group:torus_nuclear_trace",
        "group:torus_matrix",
    ),
    "homog.tables": ("homog:table_from_su2", "homog:table_from_torus"),
    "homog.dual_trace": ("homog:homog_nuclear_trace",),
    "homog.haar_sweep": ("homog:su3_mass", "homog:su3_schur_error"),
    "cli.run_scenario": ("cli:run_scenario",),
    # run_main's self time: config loading, payload building, file write.
    "cli.io": ("cli:run_main",),
    "report.payload": ("report:TraceReport.to_payload",),
}

# Call counts: metric -> functions whose spans it counts.
CALLS = {
    "grids.ksum.calls": ("grids:ksum",),
    "numerics.transform.calls": ("numerics:dft_forward", "numerics:dft_inverse"),
    "group.irrep_tables.calls": ("group:su2_irrep_table",),
    "group.operator_matrix.applies": ("group:group_fio_apply",),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work counts, computed from array sizes at the call boundary:
# function -> (metric, f(args, kwargs, result) -> amount).
SIZES = {
    "grids:ksum": ("grids.ksum.elements", lambda a, k, r: np.size(_arg(a, k, 0, "values"))),
    "grids:interpolate": ("grids.interpolate.points", lambda a, k, r: np.shape(r)[0]),
    "numerics:dense_eigenvalues": ("numerics.spectrum.n3", lambda a, k, r: len(r) ** 3),
    "nuclear:kernel_from_decomposition": ("nuclear.kernel_matrix.bytes", lambda a, k, r: r.values.nbytes),
    "nuclear:kernel_matrix": ("nuclear.kernel_matrix.bytes", lambda a, k, r: r.nbytes),
    "lattice:lattice_matrix": ("lattice.operator_matrix.columns", lambda a, k, r: r.shape[1]),
    "group:su2_haar_quadrature": ("group.quadrature.nodes", lambda a, k, r: r.size),
    "group:s3_quadrature": ("group.quadrature.nodes", lambda a, k, r: r.size),
    "homog:su3_mass": ("homog.haar_sweep.nodes", lambda a, k, r: _arg(a, k, 0, "quad").size),
    "homog:su3_schur_error": ("homog.haar_sweep.nodes", lambda a, k, r: _arg(a, k, 0, "quad").size),
}


def _table_cached(args, kwargs) -> bool:
    """Whether su2_irrep_table's table is already cached on the quadrature."""
    quad, two_l = _arg(args, kwargs, 0, "quad"), _arg(args, kwargs, 1, "twoL")
    return ("table", int(two_l)) in quad._cache


PER_LAYER = (
    [f"{layer}.s" for layer in LAYERS]
    + list(CALLS)
    + sorted({metric for metric, _ in SIZES.values()})
    + ["group.irrep_tables.hit_ratio", "trace.overhead_frac", "trace.coverage"]
)

MARK = "_bench_span"  # attribute set on every wrapper


class Tracer:
    """Records one span per wrapped call while a worker runs."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = dict.fromkeys(sorted({m for m, _ in SIZES.values()}), 0)
        self.counts["group.irrep_tables.hits"] = 0
        self._stack = []

    def wrap(self, name: str, fn):
        size = SIZES.get(name)
        cached = _table_cached if name == "group:su2_irrep_table" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cached is not None and cached(args, kwargs):
                self.counts["group.irrep_tables.hits"] += 1
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent)
                self._stack.pop()
            if size is not None:
                self.counts[size[0]] += int(size[1](args, kwargs, result))
            return result

        setattr(wrapper, MARK, name)
        return wrapper


def _resolve(key: str):
    module_name, qualname = key.split(":")
    owner = importlib.import_module(f"nucfio.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer, modules) -> int:
    """Wrap every LAYERS function wherever ``modules`` bind it; returns the
    number of bindings replaced."""
    replaced = 0
    for key in (k for keys in LAYERS.values() for k in keys):
        owner, attr = _resolve(key)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(key, original)
        for namespace in [owner, *modules]:
            for name, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, name, wrapper)
                    replaced += 1
    return replaced


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts: dict, passes: int, traced_s: float, slowdown: float) -> dict:
    """Per-layer metrics per timed pass, from one traced worker's spans.

    ``traced_s`` is the traced worker's total time in its ``passes`` passes;
    ``slowdown`` is its wall time over that of an untraced worker on the
    same inputs.
    """
    own = self_times(spans)
    by_name, calls = {}, {}
    for (name, *_), t in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
    out = {}
    for layer, keys in LAYERS.items():
        out[f"{layer}.s"] = sum(by_name.get(k, 0.0) for k in keys) / passes
    for metric, keys in CALLS.items():
        out[metric] = sum(calls.get(k, 0) for k in keys) / passes
    for metric, value in counts.items():
        out[metric] = value / passes
    tables = calls.get("group:su2_irrep_table", 0)
    out["group.irrep_tables.hit_ratio"] = counts["group.irrep_tables.hits"] / tables if tables else 0.0
    out["trace.overhead_frac"] = slowdown - 1.0
    # top-level spans partition the covered time, so all self times sum to it
    out["trace.coverage"] = sum(own) / traced_s
    return {name: out[name] for name in PER_LAYER}


def unit(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(("_ratio", "_frac", ".coverage")):
        return "fraction"
    return "count"
