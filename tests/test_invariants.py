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

``src`` holds only what production runs: every module-level function
and class, every method and every attribute a method stores on ``self``
is reached from ``cli.main``, from code that runs on import, or from a
name the benchmark resolves.  A helper that only the tests call lives in
the tests; once the benchmark stops naming a function, this test puts
it out of ``src`` too.

Each module is core or belongs to one engine, and no core module imports
an engine when it is imported: an engine loads at the call that first
needs it.  Fresh processes confirm it: ``import l2lab.cli`` loads no
engine, a polynomial loads the field engine alone, an algebra document
the algebra engine alone.  ``from l2lab import *`` binds exactly
``l2lab.__all__``, each name the object its defining module holds.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
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


def _per_layer_functions():
    """The l2lab functions behind the per-layer metrics of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"].rpartition(".")[0] for m in bench["per_layer"]
             if m["name"] not in tracing.COUNT_NAMES}
    return {n for n in names if n.partition(".")[0] in tracing.LAYERS}


def test_per_layer_metrics_name_traced_functions():
    names = _per_layer_functions()
    assert "principal.FactorSystem" in names
    assert [n for n in sorted(names) if not _traced(n)] == GONE_FROM_POLY


def _reads(nodes):
    """(names, attributes) the code under ``nodes`` loads."""
    names, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def _definitions():
    """Each definition of src/l2lab by qualified name ("finitealg.adjoin",
    "finitealg.Subalgebra.dim"), with the nodes it runs once reached, and
    the module-level statements that run on import.  Imports are not
    reads: an export of ``l2lab`` counts only if production reaches it."""
    defs, on_import = {}, []
    for path in SOURCES:
        for stmt in _tree(path).body:
            name = "%s.%s" % (path.stem, getattr(stmt, "name", ""))
            if isinstance(stmt, ast.FunctionDef):
                defs[name] = [stmt]
            elif isinstance(stmt, ast.ClassDef):
                methods = [f for f in stmt.body if isinstance(f, ast.FunctionDef)]
                defs[name] = stmt.bases + stmt.decorator_list + [
                    s for s in stmt.body if s not in methods]
                for fn in methods:
                    defs["%s.%s" % (name, fn.name)] = [fn]
                    for node in ast.walk(fn):
                        if (isinstance(node, ast.Attribute)
                                and isinstance(node.ctx, ast.Store)
                                and getattr(node.value, "id", None) == "self"):
                            defs.setdefault("%s.%s" % (name, node.attr), [])
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                on_import.append(stmt)
    return defs, on_import


def _called_by_base(module, owner, member):
    """Whether ``member`` of class ``owner`` overrides an attribute of a
    base class outside l2lab (``argparse.ArgumentParser.error``), which
    that base then calls."""
    cls = getattr(importlib.import_module("l2lab." + module), owner)
    return any(hasattr(base, member) for base in cls.__mro__[1:]
               if not base.__module__.startswith("l2lab"))


def _unreached(roots):
    """The definitions that no path from ``roots`` or import-time code
    reads.  A module-level name is reached by a load of its name or of an
    attribute of that name; a member, once its class is, by an attribute
    load, or by its class alone if it is a dunder or overrides a base
    outside l2lab."""
    defs, on_import = _definitions()
    names, attrs = _reads(on_import)
    reached = set()
    grew = True
    while grew:
        grew = False
        for name, nodes in defs.items():
            if name in reached:
                continue
            module, _, path = name.partition(".")
            owner, _, member = path.rpartition(".")
            if owner:
                hit = "%s.%s" % (module, owner) in reached and (
                    name in roots or member in attrs
                    or (member.startswith("__") and member.endswith("__"))
                    or _called_by_base(module, owner, member))
            else:
                hit = name in roots or member in names or member in attrs
            if hit:
                reached.add(name)
                more_names, more_attrs = _reads(nodes)
                names |= more_names
                attrs |= more_attrs
                grew = True
    return sorted(set(defs) - reached)


def test_src_holds_only_what_production_reaches():
    # the import system calls the package's __getattr__ for each export
    roots = {"cli.main", "__init__.__getattr__"} | _per_layer_functions() | set(tracing.CHECKS)
    roots |= {"%s.%s" % target for target in tracing.EXTRA_TARGETS}
    assert _unreached(roots) == []


# ---------------------------------------------------------------------------
# Layering: the core loads no engine

CORE = {"__init__", "errors", "caps", "exact", "lattice", "parsing", "poly", "report", "cli"}
FIELD_ENGINE = {"numberfield", "principal", "fieldlattice", "intpoly"}
ALGEBRA_ENGINE = {"finitealg", "classify", "algdoc"}
ENGINES = FIELD_ENGINE | ALGEBRA_ENGINE


def test_every_module_is_core_or_engine():
    assert {path.stem for path in SOURCES} == CORE | ENGINES
    assert not CORE & ENGINES


def _import_time_imports(tree):
    """The import statements that run when the module is imported: all
    but those inside function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _l2lab_modules(node):
    """The l2lab modules an import statement names."""
    if isinstance(node, ast.Import):
        dotted = [a.name for a in node.names]
    elif node.level:
        base = "l2lab." + node.module if node.module else "l2lab"
        dotted = [base] + ["%s.%s" % (base, a.name) for a in node.names]
    else:
        dotted = [node.module] + ["%s.%s" % (node.module, a.name) for a in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("l2lab.")}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem in CORE],
                         ids=lambda p: p.name)
def test_core_imports_no_engine_on_import(path):
    for node in _import_time_imports(_tree(path)):
        named = _l2lab_modules(node) & ENGINES
        assert not named, "%s:%d imports %s" % (path.name, node.lineno, sorted(named))


PROBE = """
import contextlib, io, json, sys
import l2lab.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert l2lab.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m[6:] for m in sys.modules if m.startswith("l2lab."))))
"""


def _loaded(argv, stdin=None):
    """The l2lab modules one fresh process has loaded after ``cli.main``
    ran on ``argv`` (after ``import l2lab.cli`` alone when it is empty)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_bare_cli_import_loads_no_engine():
    assert not _loaded([]) & ENGINES


def test_field_input_loads_only_the_field_engine():
    loaded = _loaded(["classify", "--json", "X^4-2"])
    assert FIELD_ENGINE <= loaded and not loaded & ALGEBRA_ENGINE


def test_algebra_input_loads_only_the_algebra_engine():
    doc = json.dumps({"q": 2, "quotient": "F2[X,Y]/(X^2,Y^2)", "R": ["X+Y"]})
    loaded = _loaded(["classify", "--json", "--algebra", "-"], doc)
    assert ALGEBRA_ENGINE <= loaded and not loaded & FIELD_ENGINE


# ---------------------------------------------------------------------------
# The package's exports, loaded on first use

def test_star_import_binds_exactly_all():
    import l2lab
    namespace = {}
    exec("from l2lab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(l2lab.__all__)


def test_exports_are_their_defining_modules_objects():
    import l2lab
    for name in l2lab.__all__:
        value = getattr(l2lab, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_unknown_attribute_is_named():
    import l2lab
    with pytest.raises(AttributeError, match="'nope'"):
        l2lab.nope
