"""Every top-level function and class of spherelab, and every method of
those classes, must be reached by the program or by its documented surface:
the rest of src/, the README, the benchmark harness (perfbench/*.py) or the
acceptance suite. A method is reached only through an attribute reference
(`.name`), since a bare identifier of the same name is some other binding, and
not through an attribute read off a module (`np.linalg.norm`); a method that
overrides a base-class method is a hook the base class calls, and
is exempt. A name that only other tests reach is library API kept for them
alone; it stays only when TEST_REFERENCES names the test that compares against
it, so test-only API cannot grow back unnoticed."""

import ast
import collections
import functools
import importlib
import importlib.util
import inspect
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
    "qmref.SpinObservable.matrix":
        "tests/test_qmref.py::test_batched_kernel_matches_kronecker_reference",
}


@functools.cache
def _module(dotted: str):
    """The module of a dotted name, or None when it names no module that imports."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        return None


def _imported(tree: ast.Module) -> dict:
    """name -> the dotted name it is bound to, for each name a file's imports bind."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]  # `import x.y` binds x
                bound[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), "spherelab")
            bound.update({a.asname or a.name: f"{base}.{a.name}" for a in node.names})
    return bound


def _references(path: Path) -> list:
    """(identifier, line, is_attribute) for every name, attribute, imported
    name and identifier-like string constant in a Python file; a name inside a
    function that one of its parameters binds is the parameter's, and an
    attribute read off a module, found by importing what the file imports, is
    no attribute reference."""
    out = []
    tree = ast.parse(path.read_text())
    bound = _imported(tree)

    def module_of(node, params):
        """The module that an expression names, or None."""
        value = None
        if isinstance(node, ast.Name) and node.id in bound and node.id not in params:
            value = _module(bound[node.id])
        elif isinstance(node, ast.Attribute):
            value = getattr(module_of(node.value, params), node.attr, None)
        return value if inspect.ismodule(value) else None

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            params = params | {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                                a.vararg, a.kwarg] if p}
        if isinstance(node, ast.Name) and node.id not in params:
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, module_of(node.value, params) is None))
        elif isinstance(node, ast.alias):
            out.append((node.name.split(".")[-1], node.lineno, False))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.append((node.value, node.lineno, False))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, frozenset())
    return out


def _overrides(path: Path, cls: str, method: str) -> bool:
    """Whether spherelab.<module>.<cls>.<method> overrides a base-class method."""
    klass = getattr(importlib.import_module(f"spherelab.{path.stem}"), cls)
    return any(method in vars(base) for base in klass.__mro__[1:])


def _definitions():
    """(module file, name, first line, last line, is_method) of each
    top-level def and class of spherelab and of each method of those classes,
    named Class.method; dunder hooks and base-class overrides left out."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                yield path, node.name, node.lineno, node.end_lineno, False
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
                        and not _overrides(path, node.name, method.name)):
                    yield path, f"{node.name}.{method.name}", method.lineno, method.end_lineno, True


@functools.cache
def _unreached() -> tuple:
    surface = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    used = collections.defaultdict(set)  # name -> {is_attribute} of its uses
    for path in surface:
        for name, _, attr in _references(path):
            used[name].add(attr)
    readme = (ROOT / "README.md").read_text()
    src_refs = collections.defaultdict(list)  # name -> (file, line, is_attribute) of each use
    for path in SRC.glob("*.py"):
        for name, line, attr in _references(path):
            src_refs[name].append((path, line, attr))
    unreached = []
    for path, qualname, first, last, method in _definitions():
        name = qualname.split(".")[-1]
        in_src = any((other != path or not first <= line <= last) and (attr or not method)
                     for other, line, attr in src_refs[name])
        in_surface = any(attr or not method for attr in used[name])
        in_readme = re.search((r"\." if method else r"\b") + rf"{name}\b", readme)
        if not (in_src or in_surface or in_readme):
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
