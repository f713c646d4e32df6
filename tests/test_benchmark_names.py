"""The names the benchmark harness in perfbench/ takes from spherelab must
resolve: the tracer wraps each TRACED function by name and fails on a missing
one, and run.py and probes.py call the library directly. The files are only
read here, never changed."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _tracer().TRACED])
def test_every_traced_name_resolves(module, attr):
    if module.split(".")[0] == "scipy" and importlib.util.find_spec("scipy") is None:
        pytest.skip("scipy is not installed")
    assert callable(getattr(importlib.import_module(module), attr))


def _spherelab_names(path: Path):
    """(dotted spherelab name, line) for each name the file imports from
    spherelab, and each attribute it reads off such a name."""
    tree = ast.parse(path.read_text())
    bound, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "spherelab":
                    bound[(alias.asname or alias.name).split(".")[0]] = "spherelab"
                    used.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spherelab":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                used.append((f"{node.module}.{alias.name}", node.lineno))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            used.append((".".join([bound[node.id]] + chain[::-1]), node.lineno))
    return used


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            try:
                obj = importlib.import_module(".".join(parts[:i + 1]))
                continue
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("name", ["run.py", "probes.py"])
def test_every_spherelab_name_the_harness_uses_resolves(name):
    used = _spherelab_names(PERFBENCH / name)
    assert used
    missing = [f"{dotted} (line {line})" for dotted, line in used if not _resolves(dotted)]
    assert not missing, f"perfbench/{name} uses names spherelab lacks: {missing}"


def test_the_unit_code_and_the_artifact_checks_resolve():
    # run.py starts each unit interpreter with "from spherelab.cli import main"
    # and reads each comparison artifact's rows, meta and mismatches().
    assert "from spherelab.cli import main" in (PERFBENCH / "run.py").read_text()
    assert callable(importlib.import_module("spherelab.cli").main)
    report = importlib.import_module("spherelab.lrmodel").ComparisonReport(meta={})
    assert report.rows == [] and report.meta == {} and report.mismatches() == []
