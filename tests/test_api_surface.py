"""Every top-level function and class of spherelab, and every method of
those classes, must be reached by the program or by its documented surface:
the rest of src/, the README, the benchmark harness (perfbench/*.py) or the
acceptance suite. A name that only other tests reach is library API kept for
them alone; it stays only when TEST_REFERENCES names the test that compares
against it, so test-only API cannot grow back unnoticed."""

import ast
import collections
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spherelab"

# Reference routes that tests compare a kernel against: module.name -> that test.
TEST_REFERENCES = {
    "ga3.tilted_point": "tests/test_hardy.py::test_hardy_point_matches_kernel_tilted_product",
    "hardy_kernel.jacobian":
        "tests/test_hardy.py::test_jacobian_matches_a_complex_step_of_the_reference",
    "mcsim.LambdaStream.sample_block":
        "tests/test_mcsim.py::test_orientation_sum_matches_the_sample_block_route",
    "qmref.general_state": "tests/test_qmref.py::test_batched_kernel_matches_kronecker_reference",
}


def _references(path: Path) -> list:
    """(identifier, line) for every name, attribute, imported name and
    identifier-like string constant in a Python file; a name inside a
    function that one of its parameters binds is the parameter's."""
    out = []

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            params = params | {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                                a.vararg, a.kwarg] if p}
        if isinstance(node, ast.Name) and node.id not in params:
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.split(".")[-1], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.append((node.value, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(ast.parse(path.read_text()), frozenset())
    return out


def _definitions():
    """(module file, name, first line, last line) of each top-level def and
    class of spherelab and of each method of those classes, named
    Class.method; dunder hooks left out."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                yield path, node.name, node.lineno, node.end_lineno
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    yield path, f"{node.name}.{method.name}", method.lineno, method.end_lineno


@functools.cache
def _unreached() -> tuple:
    surface = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    used = {name for path in surface for name, _ in _references(path)}
    readme = (ROOT / "README.md").read_text()
    src_refs = collections.defaultdict(list)  # name -> (file, line) of each use
    for path in SRC.glob("*.py"):
        for name, line in _references(path):
            src_refs[name].append((path, line))
    unreached = []
    for path, qualname, first, last in _definitions():
        name = qualname.split(".")[-1]
        in_src = any(other != path or not first <= line <= last for other, line in src_refs[name])
        if not (in_src or name in used or re.search(rf"\b{name}\b", readme)):
            unreached.append(f"{path.stem}.{qualname}")
    return tuple(unreached)


def test_every_library_name_is_reached_outside_the_tests():
    unreached = [name for name in _unreached() if name not in TEST_REFERENCES]
    assert not unreached, f"spherelab names that only tests reach: {unreached}"


@pytest.mark.parametrize("name", sorted(TEST_REFERENCES))
def test_each_test_reference_is_test_only_and_its_test_exists(name):
    assert name in _unreached(), f"{name} is reached by the program"
    file, test = TEST_REFERENCES[name].split("::")
    text = (ROOT / file).read_text()
    node = next((node for node in ast.parse(text).body
                 if isinstance(node, ast.FunctionDef) and node.name == test), None)
    assert node is not None, f"{TEST_REFERENCES[name]} does not exist"
    assert re.search(rf"\b{name.split('.')[-1]}\b", ast.get_source_segment(text, node))
