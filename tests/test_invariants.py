"""Source-level invariants of the package: exact arithmetic only, no
element listing and no runtime dependencies.

Every module under src/l2lab is parsed and walked: no float literal and
no ``float(...)`` call may appear, ``math`` may only supply the exact
integer routines ``gcd`` and ``isqrt``, and imports are limited to the
package itself and a fixed set of standard-library modules.  No code
calls an attribute named ``elements`` outside the bodies of the two
listing methods the tests use as oracles.  ``classify.py`` and
``report.py`` never name ``GFElem``, ``vsub`` or ``vec_key``: the vector
representation of an algebra lives in ``finitealg`` and ``exact`` alone.
No module names ``Ideal``: an ideal is an ``exact.Echelon``, with no
wrapper class around it.  No module names ``localize``: a localization
is an interval of S itself (``classify.local_base``), not a second
algebra.  ``Subalgebra.__init__`` takes no ``check`` parameter: the
constructor trusts its caller, and ``_closure_span`` makes the one
closure check of an analysis.
The ``[project].dependencies`` list of pyproject.toml must stay empty.

The benchmark's tracer (``perfbench/tracing.py``, only read here) names
its targets by string: every ``EXTRA_TARGETS`` entry, every ``CHECKS``
name and every function behind a per-layer metric of BENCHMARK.json
must be a function the tracer wraps, or the trace crashes or reads 0.
"""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "l2lab").glob("*.py"))
STDLIB = {"argparse", "fractions", "itertools", "json", "math", "os", "random",
          "re", "sys", "time"}
MATH_NAMES = {"gcd", "isqrt"}
# (module, class, method): the element listings kept for test oracles
LISTINGS = {("finitealg.py", "FiniteAlgebra", "elements"),
            ("finitealg.py", "Subalgebra", "elements")}


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


def test_listing_methods_found():
    found = {(path.name, cls.name, fn.name) for path in SOURCES
             for cls in _tree(path).body if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    assert LISTINGS <= found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_element_listing(path):
    tree = _tree(path)
    exempt = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if (path.name, cls.name, getattr(fn, "name", None)) in LISTINGS
              for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "elements"):
            assert id(node) in exempt, "%s:%d calls .elements()" % (path.name,
                                                                    node.lineno)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_vector_representation_stays_in_finitealg_and_exact(path):
    banned = {"Ideal", "localize"}
    if path.name in ("classify.py", "report.py"):
        banned |= {"GFElem", "vsub", "vec_key"}
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names = {node.name}
        else:
            continue
        assert not names & banned, "%s:%d names %s" % (
            path.name, node.lineno, sorted(names & banned))


def test_subalgebra_constructor_has_no_check():
    tree = _tree(ROOT / "src" / "l2lab" / "finitealg.py")
    init = next(fn for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "Subalgebra"
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__")
    args = init.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == [
        "self", "ambient", "basis"]
    assert args.vararg is None and args.kwarg is None


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402


def _resolve(layer, path):
    owner = importlib.import_module("l2lab." + layer)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _traced(name):
    """True iff the tracer wraps the l2lab function called ``name``."""
    layer, _, path = name.partition(".")
    if (layer, path) in tracing.EXTRA_TARGETS:
        return True
    if layer not in tracing.LAYERS or "." in path or path.startswith("_"):
        return False
    fn = getattr(importlib.import_module("l2lab." + layer), path, None)
    return (inspect.isfunction(fn) and fn.__module__ == "l2lab." + layer
            and not inspect.isgeneratorfunction(fn)
            and path not in tracing.LEAF_HELPERS.get(layer, ()))


@pytest.mark.parametrize("layer, path", tracing.EXTRA_TARGETS,
                         ids=[".".join(t) for t in tracing.EXTRA_TARGETS])
def test_extra_trace_targets_resolve(layer, path):
    assert callable(_resolve(layer, path))


@pytest.mark.parametrize("name", sorted(tracing.CHECKS))
def test_checks_are_traced_functions(name):
    assert _traced(name)


# Per-layer metrics of functions that the resultant-free Trager norm
# removed; they read 0 until BENCHMARK.json drops them.
GONE_FROM_POLY = ["poly.interpolate", "poly.resultant_monic"]


def test_per_layer_metrics_name_traced_functions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"].rpartition(".")[0] for m in bench["per_layer"]
             if m["name"] not in tracing.COUNT_NAMES}
    names = {n for n in names if n.partition(".")[0] in tracing.LAYERS}
    assert "principal.FactorSystem" in names
    assert [n for n in sorted(names) if not _traced(n)] == GONE_FROM_POLY
