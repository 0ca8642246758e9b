"""The public names other code relies on resolve.

Every name in a module's ``__all__`` must exist, and every function the
benchmark's traced worker wraps (``bench/spans.py``, as "module:qualname")
must exist, so deleting or renaming one fails here rather than in a traced
benchmark run. Each public object has one public name, every name the
demos import from the package resolves, and every demo runs.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nucfio

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", nucfio._SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nucfio.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_traced_functions_resolve():
    spans = load_spans()
    keys = {k for group in [*spans.LAYERS.values(), *spans.CALLS.values()] for k in group}
    missing = []
    for key in sorted(keys | set(spans.SIZES)):
        try:
            owner, attr = spans._resolve(key)
        except (AttributeError, ImportError):
            missing.append(key)
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(key)
    assert missing == []


def test_traced_functions_are_distinct_objects():
    # the traced worker books each function's time under its own layer; two
    # names bound to one object would book one layer's time under both
    spans = load_spans()
    keys = [k for group in spans.LAYERS.values() for k in group]
    objects = {}
    for key in keys:
        owner, attr = spans._resolve(key)
        objects.setdefault(id(getattr(owner, attr)), []).append(key)
    shared = [names for names in objects.values() if len(names) > 1]
    assert shared == []


def test_each_public_object_has_one_public_name():
    names = {}
    for name in nucfio._SUBMODULES:
        module = importlib.import_module(f"nucfio.{name}")
        for attr in getattr(module, "__all__", ()):
            names.setdefault(id(getattr(module, attr)), []).append(f"{name}.{attr}")
    shared = [group for group in names.values() if len(group) > 1]
    assert shared == []


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_resolve(demo):
    # parsed, not run: a renamed or deleted name fails here in milliseconds
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nucfio":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []


@pytest.mark.parametrize(
    "demo",
    [
        "01_euclidean_trace.py",
        "02_quantizations.py",
        "03_lattice_operator.py",
        "04_rotation_group.py",
        "05_homogeneous_space.py",
        "06_cli_pipeline.py",
    ],
)
def test_compact_demo_runs(demo, tmp_path):
    # run, not parsed: a changed call signature fails here, which the import
    # check above cannot see; each takes under about a second (03 runs the
    # lattice's grid check, 06 the CLI)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def _fft_references(tree) -> int:
    """How often a parsed module names numpy's FFT: ``np.fft`` or
    ``numpy.fft`` attributes and imports of ``numpy.fft`` or of ``fft`` from
    numpy."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            count += isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        elif isinstance(node, ast.Import):
            count += sum(a.name.startswith("numpy.fft") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            count += node.module.startswith("numpy.fft") or any(a.name == "fft" for a in node.names)
    return count


def test_only_numerics_calls_the_fft():
    # one transform for R^n, Z^n and T^n: every FFT of the package runs in
    # numerics, so a second private transform elsewhere fails here
    users = {p.name for p in (ROOT / "src" / "nucfio").glob("*.py") if _fft_references(ast.parse(p.read_text()))}
    assert users == {"numerics.py"}


def _names(tree) -> set:
    """Every identifier a parsed module defines, reads, imports or lists as a
    string (``__all__``): names, attributes, definitions, import aliases and
    string constants that are identifiers."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name.split(".")[-1], node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_only_numerics_names_the_transform_plan():
    # ``numerics._dft`` is the one transform entry: which axes take an FFT
    # and which a chirp-z transform is decided, and carried out, in numerics
    # alone, so a caller that plans or runs a transform itself fails here
    plan = {
        "_fft_sizes", "_fft_sum", "_wrap", "_chirp", "_chirp_axis",
        "_smooth_length", "_exact_axes", "_numerators", "_roots",
    }
    users = {p.name for p in (ROOT / "src" / "nucfio").rglob("*.py") if plan & _names(ast.parse(p.read_text()))}
    assert users == {"numerics.py"}


def test_no_module_names_the_character_sum():
    # every uniform grid pair is an FFT or a chirp-z transform; the
    # compensated character sum is the tests' oracle only
    users = {p.name for p in (ROOT / "src" / "nucfio").rglob("*.py") if "character_sum" in _names(ast.parse(p.read_text()))}
    assert users == set()
