"""Contract fuzz test of ``table`` and ``product`` algebra documents.

Random base sizes q (prime powers, other integers, huge values and
non-integers), random table shapes and entries (indices, strings,
nesting), random product factor names (valid, not a power of q, of huge
degree, with over-long digit strings) and random R specs go through the
in-process command line with ``L2LAB_CAP=64``.  Every document must end
in exit 0, 1 or 2: a consistency failure (exit 3) or an escaping
exception breaks the contract.  Quotient documents and the polynomial
grammar are left out here.

While a document runs, the address space of the test process is capped
about 1 GB above its current size, so a document that makes the program
build huge tables fails the test with a MemoryError instead of using up
the machine's memory.
"""

import contextlib
import json
import os
import resource
from unittest import mock

from hypothesis import given, settings, strategies as st

from l2lab import cli
from l2lab.parsing import MAX_DIGITS

JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
              st.floats(allow_nan=True, allow_infinity=True)),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)

OTHER_Q = st.one_of(st.integers(-2, 100),
                    st.sampled_from([2 ** 61 - 1, 2 ** 64, 10 ** 40]), JUNK)


@contextlib.contextmanager
def _memory_headroom(extra=1 << 30):
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:         # no /proc: run without the cap
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _diagonal(d):
    # F_q^d: e_i * e_j = [i == j] e_i
    return [[[int(t == i == j) for t in range(d)] for j in range(d)]
            for i in range(d)]


def _truncated(d):
    # F_q[x]/(x^d): e_i * e_j = e_(i+j), zero from degree d on
    return [[[int(t == i + j) for t in range(d)] for j in range(d)]
            for i in range(d)]


@st.composite
def table_docs(draw):
    # three in four documents have a small prime-power q
    q = draw(st.sampled_from([2, 3, 4]) if draw(st.integers(0, 3)) else OTHER_Q)
    d = draw(st.one_of(st.integers(1, 3), st.integers(0, 4)))
    index = st.integers(0, q - 1) if type(q) is int and 2 <= q <= 16 else st.integers(0, 3)
    vector = st.one_of(st.lists(index, min_size=d, max_size=d), JUNK)
    row = st.one_of(st.lists(vector, min_size=d, max_size=d), JUNK)
    kind = draw(st.sampled_from(["diagonal", "truncated", "random", "junk"]))
    if kind == "diagonal":
        table, unit = _diagonal(d), [1] * d
    elif kind == "truncated":
        table, unit = _truncated(d), [int(t == 0) for t in range(d)]
    elif kind == "random":
        table = draw(st.lists(row, min_size=d, max_size=d))
        unit = draw(vector)
    else:
        table, unit = draw(JUNK), draw(JUNK)
    if kind in ("diagonal", "truncated") and d and draw(st.integers(0, 3)) == 0:
        # one entry of a valid table replaced by an arbitrary value
        i, j, t = (draw(st.integers(0, d - 1)) for _ in range(3))
        table[i][j][t] = draw(st.one_of(index, JUNK))
    doc = {"q": q, "table": {"unit": unit, "table": table}}
    coords = st.lists(st.one_of(index.map(str), st.text(max_size=2)), min_size=0,
                      max_size=d + 1).map(lambda cs: "(%s)" % ",".join(cs))
    R = draw(st.one_of(st.just(None), st.sampled_from(["diagonal", "prime"]),
                       st.lists(coords, max_size=2), st.text(max_size=6), JUNK))
    if R is not None:
        doc["R"] = R
    return doc


def _length_exit_code(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "alg.json"
    path.write_text(json.dumps(doc))
    with mock.patch.dict(os.environ, {"L2LAB_CAP": "64"}), _memory_headroom():
        return cli.main(["length", "--algebra", str(path)])


@settings(max_examples=200, deadline=None)
@given(doc=table_docs())
def test_table_documents_keep_the_exit_code_contract(tmp_path_factory, doc):
    assert _length_exit_code(tmp_path_factory, doc) in (0, 1, 2), doc


@st.composite
def factor_names(draw, q):
    kind = draw(st.sampled_from(["valid", "non-power", "huge", "long", "junk"]))
    if kind == "valid":
        return "F%d" % q ** draw(st.integers(1, 4))
    if kind == "non-power":
        return "F%d" % draw(st.integers(0, 100))
    if kind == "huge":
        return "F%d" % q ** draw(st.integers(5, 3000))
    if kind == "long":
        return "F" + "1" * draw(st.integers(MAX_DIGITS - 2, 4 * MAX_DIGITS))
    return draw(st.one_of(st.text(max_size=4), JUNK))


@st.composite
def product_docs(draw):
    q = draw(st.sampled_from([2, 3, 4]) if draw(st.integers(0, 3)) else OTHER_Q)
    base = q if type(q) is int and 2 <= q <= 16 else 2
    factors = draw(st.one_of(st.lists(factor_names(base), max_size=4), JUNK))
    doc = {"q": q, "product": factors}
    R = draw(st.one_of(st.just(None), st.sampled_from(["diagonal", "(1,0)", "(u,0)"]),
                       st.lists(st.sampled_from(["(1,0)", "(u,1)", "(u^2,u)", "(1)"]),
                                max_size=2), JUNK))
    if R is not None:
        doc["R"] = R
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=product_docs())
def test_product_documents_keep_the_exit_code_contract(tmp_path_factory, doc):
    assert _length_exit_code(tmp_path_factory, doc) in (0, 1, 2), doc
