"""Outside-in tracing of the l2lab layers.

Run as a script, this is the l2lab command line with spans:

    python perfbench/tracing.py SPANS_OUT INPUT_ID classify --json ...

It imports every l2lab module, wraps every binding of each target
function in every loaded `l2lab.*` namespace (so `classify.maximal_ideals`
and `principal.factor_over_number_field` are traced as well as the
definitions), runs `l2lab.cli.main`, and at exit writes the spans it kept
in memory to SPANS_OUT.  Each span is `[name, start, end, parent, input]`,
with `parent` the index of the enclosing span (-1 at the top) and times
from `time.perf_counter` in seconds; the counts gathered at the same
boundaries are written beside them.

Imported by the benchmark, `summarize` derives per-function calls, busy
and self time, and the named counts, from such files.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

LAYERS = ("parsing", "poly", "exact", "numberfield", "principal",
          "fieldlattice", "finitealg", "classify", "report", "cli")

# Public functions left unwrapped: vector and row-space helpers called
# 10^5 times per input, whose spans would cost more than the work they
# time.  Their time shows as self time of the traced caller.
LEAF_HELPERS = {
    "exact": {"in_row_space", "row_space_basis", "is_prime"},
    "finitealg": {"vadd", "vsub", "vscale", "vec_key", "echelon", "in_span",
                  "coords_in_span"},
    "numberfield": {"nf_str", "poly_str"},
}

# Entry points that are classes or methods: (module, attribute path).
# A class is traced through its __init__ under the class name.
EXTRA_TARGETS = [
    ("principal", "FactorSystem"),
    ("poly", "Factorization.verify"),
    ("finitealg", "FiniteAlgebra.elements"),
    ("finitealg", "Subalgebra.elements"),
]

CHECKS = {"poly.Factorization.verify",
          "fieldlattice.verify_minpoly_product_identity",
          "classify.check_length_two_predicates"}


def _gaussian_binomial(c, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (c - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _count_enumeration(args, result, counts):
    R, S = args[0], args[1]
    c = S.dim - R.dim
    q = S.field.q
    counts["finitealg.enumerate_subalgebras.candidates"] += sum(
        _gaussian_binomial(c, k, q) for k in range(c + 1))
    counts["finitealg.enumerate_subalgebras.nodes"] += len(result.nodes)


def _count_elements(args, result, counts):
    counts["finitealg.elements_listed"] += len(result)


def _count_field_nodes(args, result, counts):
    counts["fieldlattice.nodes"] += len(result)


COUNTERS = {
    "finitealg.enumerate_subalgebras": _count_enumeration,
    "finitealg.FiniteAlgebra.elements": _count_elements,
    "finitealg.Subalgebra.elements": _count_elements,
    "fieldlattice.build_lattice": _count_field_nodes,
}

COUNT_NAMES = ("finitealg.enumerate_subalgebras.candidates",
               "finitealg.enumerate_subalgebras.nodes",
               "finitealg.elements_listed", "fieldlattice.nodes")


class Tracer:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if counter is not None:
                counter(args, result, counts)
            return result

        return traced

    def install(self):
        """Wrap every target; returns the traced names."""
        import l2lab
        for info in pkgutil.iter_modules(l2lab.__path__):
            importlib.import_module("l2lab." + info.name)
        names, wrappers = [], {}
        for layer in LAYERS:
            mod = sys.modules["l2lab." + layer]
            for attr, fn in sorted(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)
                        and attr not in LEAF_HELPERS.get(layer, ())):
                    names.append("%s.%s" % (layer, attr))
                    wrappers[fn] = self.wrap(names[-1], fn)
        for name, mod in list(sys.modules.items()):
            if name == "l2lab" or name.startswith("l2lab."):
                for key, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(mod, key, wrappers[value])
        for layer, path in EXTRA_TARGETS:
            owner = sys.modules["l2lab." + layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if inspect.isclass(getattr(owner, attr)):
                owner, attr = getattr(owner, attr), "__init__"
            name = "%s.%s" % (layer, path)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            names.append(name)
        return names

    def dump(self, path, input_id, names):
        spans = [list(s) + [input_id] for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"input": input_id, "targets": names, "spans": spans,
                       "counts": self.counts}, fh)


def summarize(records):
    """Per-function calls/busy_s/self_s, check vs compute, and counts.

    `records` are the dumped files of one pass.  Busy time counts only the
    outermost span of a name, so recursion is not counted twice; self
    time is a span's duration minus that of its direct children.
    """
    stats = {}
    counts = dict.fromkeys(COUNT_NAMES, 0)
    check = main = 0.0
    names = set()
    for rec in records:
        names.update(rec["targets"])
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += (end - start) - child_time[i]
            outer = _ancestors(spans, i)
            if name not in outer:
                st["busy_s"] += end - start
            if name in CHECKS and not CHECKS.intersection(outer):
                check += end - start
            if name == "cli.main" and parent == -1:
                main += end - start
        for key, value in rec["counts"].items():
            counts[key] += value
    for name in names:
        stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    return stats, counts, check, main - check


def _ancestors(spans, i):
    out = set()
    parent = spans[i][3]
    while parent >= 0:
        out.add(spans[parent][0])
        parent = spans[parent][3]
    return out


def main(argv):
    spans_out, input_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    names = tracer.install()
    from l2lab import cli
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.dump(spans_out, input_id, names)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
