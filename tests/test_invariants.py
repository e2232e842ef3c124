"""Source-level invariants of the package: exact arithmetic only and no
runtime dependencies.

Every module under src/l2lab is parsed and walked: no float literal and
no ``float(...)`` call may appear, ``math`` may only supply the exact
integer routines ``gcd`` and ``isqrt``, and imports are limited to the
package itself and a fixed set of standard-library modules.  The
``[project].dependencies`` list of pyproject.toml must stay empty.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "l2lab").glob("*.py"))
STDLIB = {"argparse", "fractions", "itertools", "json", "math", "os", "random",
          "re", "sys", "time"}
MATH_NAMES = {"gcd", "isqrt"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), \
                "%s:%d float literal" % (path.name, node.lineno)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "float", "%s:%d float() call" % (path.name, node.lineno)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_math_only_for_exact_integer_routines(path):
    for node in ast.walk(_tree(path)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "math"):
            assert node.attr in MATH_NAMES, "%s:%d math.%s" % (path.name, node.lineno,
                                                               node.attr)
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            assert {a.name for a in node.names} <= MATH_NAMES, path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_package_or_allowed_stdlib(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            tops = {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                continue
            tops = {node.module.split(".")[0]}
        else:
            continue
        assert tops <= STDLIB | {"l2lab"}, "%s:%d imports %s" % (
            path.name, node.lineno, sorted(tops - STDLIB - {"l2lab"}))


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
