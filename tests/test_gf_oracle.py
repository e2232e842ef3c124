"""The index-tuple algebra engine against the ``GFElem`` route it replaced.

Algebra vectors are tuples of element indices, multiplied by
``FiniteAlgebra.mul`` and reduced by the echelon core through
``SmallField.ops``.  The oracle route keeps vectors as tuples of
``GFElem``:

* ``gf_mul`` is the multiplication the engine used before, which
  converts each operand to indices, reads the sparse structure
  constants and converts the product back; ``table_mul`` sums
  u_i v_j e_i e_j over the table with ``GFElem`` operators alone;
* the same ``exact`` echelon core runs on ``GFElem`` vectors through
  ``exact.Ops(F.one)``, the generic-operator protocol;
* ``gf_enumerate`` builds [R, S] by adjunction on ``GFElem`` vectors
  only.

On F_8, F_9, F_4 x F_4 and seeded random algebras over F_2, F_3 and F_4
the routes must agree, entries mapped by ``GFElem.i``: products, echelon
rows and pivots, residues, coordinates, projections, combinations,
extensions, intersections, kernels and solutions, and the node keys of
``enumerate_subalgebras`` in their order.

A quotient presentation is parsed into {monomial: index} dicts and
completed on indices; ``gfelem`` keeps the parser semantics and the
Buchberger completion on ``GFElem`` coefficients.  On seeded random
presentations over F_2, F_3, F_4 and F_9 (1-3 generators, monomial and
binomial relations, inconsistent and infinite ones among them), on the
quotient documents of ``perfbench/corpus.py`` and README, and on random
relation texts, both routes must give the same relation dicts, table,
unit, names and normal-form vectors, or the same ``ValueError``.
"""

import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

from l2lab import algdoc, exact
from l2lab.errors import ParseError
from l2lab.exact import Echelon, Ops, intersection
from l2lab.finitealg import (enumerate_subalgebras, prime_algebra, product_algebra,
                             quotient_algebra, small_field)
from l2lab.parsing import parse_algebra

import gfelem
from test_finitealg import field_algebra
from test_structure import _random_algebra

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import corpus  # noqa: E402


def gf(F, v):
    """The index vector v over the SmallField F as GFElem entries."""
    return tuple(gfelem.gf(F.q).elems[c] for c in v)


def idx(v):
    return tuple(c.i for c in v)


def gf_mul(A, u, v):
    """u*v for GFElem vectors, read off the sparse structure constants on
    field-element indices (the engine's multiplication before vectors
    were index tuples)."""
    F = A.field
    add, mul = F.add_t, F.mul_t
    out = [0] * A.dim
    vs = [(j, b.i) for j, b in enumerate(v) if b.i]
    for a, row in zip(u, A.terms):
        if not a.i:
            continue
        ma = mul[a.i]
        for j, b in vs:
            mc = mul[ma[b]]
            for k, t in row[j]:
                out[k] = add[out[k]][mc[t]]
    return tuple(map(gfelem.gf(F.q).elems.__getitem__, out))


def table_mul(A, u, v):
    """u*v = sum u_i v_j (e_i e_j), by GFElem operators on the table."""
    F = gfelem.gf(A.field.q)
    out = [F.zero] * A.dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out = [x + a * b * F.elems[c] for x, c in zip(out, A.table[i][j])]
    return tuple(out)


def gf_adjoin(A, T, s):
    """T[s] for an Echelon T of GFElem vectors (``finitealg.adjoin``)."""
    span, power = T, s
    while not span.contains(power):
        span = span.extend([gf_mul(A, t, power) for t in T])
        power = gf_mul(A, power, s)
    return span


def gf_enumerate(A, R):
    """The node keys of [R, A] by adjunction on GFElem vectors, sorted."""
    F = gfelem.gf(A.field.q)
    ops = Ops(F.one)
    bottom = Echelon([gf(A.field, r) for r in R.basis], ops)
    found, todo = {bottom}, [bottom]
    while todo:
        T = todo.pop()
        free = [j for j in range(A.dim) if j not in T.pivots]
        for point in itertools.product(F.elems, repeat=len(free)):
            if not any(point) or next(c for c in point if c) != F.one:
                continue
            s = [F.zero] * A.dim
            for j, c in zip(free, point):
                s[j] = c
            U = gf_adjoin(A, T, tuple(s))
            if U not in found:
                found.add(U)
                todo.append(U)
    return sorted((len(U), tuple(idx(row) for row in U)) for U in found)


def _cases():
    F4, F8, F9 = (small_field(q) for q in (4, 8, 9))
    named = [
        ("f8", product_algebra(F8, [1, 2]), None),
        ("f8[x]/x^3", quotient_algebra(F8, ["x"], [{(3,): 1}]), None),
        ("f9", product_algebra(F9, [1, 2]), None),
        ("f9[x]/(x^3+x^2+x+1)", field_algebra(F9, (1, 1, 1, 1)), None),
        ("f4xf4", product_algebra(F4, [1, 1]), None),
        ("f4xf16", product_algebra(F4, [1, 2]), None),
    ]
    S, R = parse_algebra({"q": 2, "product": ["F4", "F4"], "R": ["(1,0)"]})
    named.append(("f4xf4-crosswise", S, R))
    for ident, S, R in named:
        yield pytest.param(S, R, id=ident)
    rng = random.Random(1616)
    for n in range(24):
        R, S = _random_algebra(rng, {2: 5, 3: 4, 4: 3})
        yield pytest.param(S, R, id="random-%d-F%d" % (n, S.field.q))


CASES = list(_cases())


def _random_vectors(rng, A, count):
    q = A.field.q
    return [tuple(rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(A.dim))
            for _ in range(count)]


@pytest.mark.parametrize("S,R", CASES)
def test_products_match_the_gf_route(S, R):
    F = S.field
    rng = random.Random(S.dim * 101 + F.q)
    basis = [S.basis_vector(i) for i in range(S.dim)]
    pairs = [(u, v) for u in basis for v in basis]
    pairs += list(zip(_random_vectors(rng, S, 40), _random_vectors(rng, S, 40)))
    for u, v in pairs:
        product = S.mul(u, v)
        assert all(type(c) is int and 0 <= c < F.q for c in product)
        assert product == idx(gf_mul(S, gf(F, u), gf(F, v))) \
            == idx(table_mul(S, gf(F, u), gf(F, v)))


@pytest.mark.parametrize("S,R", CASES)
def test_echelon_core_matches_the_gf_route(S, R):
    F = S.field
    ops = Ops(gfelem.gf(F.q).one)
    rng = random.Random(S.dim * 103 + F.q)
    for _ in range(12):
        vs = _random_vectors(rng, S, rng.randrange(S.dim + 2))
        more = _random_vectors(rng, S, rng.randrange(3))
        E, G = S.span(vs), Echelon([gf(F, v) for v in vs], ops)
        assert tuple(E) == tuple(idx(row) for row in G) and E.pivots == G.pivots
        grown, ggrown = E.extend(more), G.extend([gf(F, v) for v in more])
        assert tuple(grown) == tuple(idx(row) for row in ggrown)
        assert grown.pivots == ggrown.pivots
        other = S.span(_random_vectors(rng, S, rng.randrange(S.dim + 1)))
        gother = Echelon([gf(F, v) for v in other], ops)
        assert tuple(intersection(E, other)) == \
            tuple(idx(row) for row in intersection(G, gother))
        for v in _random_vectors(rng, S, 6) + list(grown):
            w = gf(F, v)
            assert tuple(E.residue(v)) == idx(G.residue(w))
            assert E.project(v) == idx(G.project(w))
            cs, gcs = E.coords(v), G.coords(w)
            assert (cs is None) == (gcs is None)
            if cs is not None:
                assert cs == idx(gcs)
            if cs:
                assert E.combine(cs) == idx(G.combine(gcs)) == tuple(v)
        rows = [list(v) for v in vs] or [[0] * S.dim]
        grows = [list(gf(F, v)) for v in rows]
        assert [tuple(k) for k in exact.kernel(rows, S.dim, F.ops)] == \
            [idx(k) for k in exact.kernel(grows, S.dim, ops)]


@pytest.mark.parametrize("S,R", CASES)
def test_enumeration_matches_the_gf_route(S, R):
    R = R if R is not None else prime_algebra(S)
    lat = enumerate_subalgebras(R, S)
    keys = [T.key() for T in lat.nodes]
    assert keys == gf_enumerate(S, R)
    assert all(type(c) is int for T in lat.nodes for row in T.basis for c in row)


# ---------------------------------------------------------------------------
# Quotient presentations: the completion on indices against GFElem

def _complete(F, varnames, rels):
    """The algebra of both routes, or the message of their ValueError."""
    G = gfelem.gf(F.q)
    routes = []
    for build, field, relations in ((quotient_algebra, F, rels),
                                    (gfelem.quotient_algebra, G,
                                     [gfelem.to_gf(G, r) for r in rels])):
        try:
            routes.append(build(field, varnames, relations))
        except ValueError as e:
            routes.append(str(e))
    return routes


def _assert_same_quotient(F, varnames, rels, rng):
    """Both routes agree on ``rels``; returns "finite", "inconsistent" or
    "infinite"."""
    S, O = _complete(F, varnames, rels)
    if isinstance(O, str):
        assert S == O, (F, varnames, rels)
        return "inconsistent" if "inconsistent" in O else "infinite"
    assert (S.table, S.unit, S.names) == (O.table, O.unit, O.names), (F, varnames, rels)
    G = gfelem.gf(F.q)
    for _ in range(6):
        f = _random_poly(rng, F.q, len(varnames), 4, 4)
        assert S.mp_to_vector(f) == O.mp_to_vector(gfelem.to_gf(G, f))
    return "finite"


def _random_mono(rng, nvars, degree):
    mono = [0] * nvars
    for _ in range(degree):
        mono[rng.randrange(nvars)] += 1
    return tuple(mono)


def _random_poly(rng, q, nvars, terms, degree):
    return {_random_mono(rng, nvars, rng.randrange(degree + 1)): rng.randrange(1, q)
            for _ in range(rng.randrange(1, terms + 1))}


def _random_presentation(rng, q):
    """1-3 generators; a pure power of each, most of the time, alone or
    with a second term, and up to two monomial or binomial relations
    more; now and then a unit relation."""
    nvars = rng.randrange(1, 4)
    rels = []
    for v in range(nvars):
        if rng.random() < 0.9:
            e = rng.randrange(1, 4)
            rel = {tuple(e if j == v else 0 for j in range(nvars)): rng.randrange(1, q)}
            if rng.random() < 0.5:
                rel[_random_mono(rng, nvars, rng.randrange(e + 1))] = rng.randrange(1, q)
            rels.append(rel)
    for _ in range(rng.randrange(3)):
        rels.append({_random_mono(rng, nvars, rng.randrange(1, 4)): rng.randrange(1, q)
                     for _ in range(rng.randrange(1, 3))})
    if rng.random() < 0.1:
        rels.append({(0,) * nvars: rng.randrange(q)})      # 0 is dropped
    return ["XYZ"[v] for v in range(nvars)], rels


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_completion_matches_the_gf_route(q, monkeypatch):
    monkeypatch.setenv("L2LAB_CAP", str(10 ** 40))
    F = small_field(q)
    rng = random.Random(2400 + q)
    kinds = [_assert_same_quotient(F, *_random_presentation(rng, q), rng)
             for _ in range(80)]
    # the deterministic edge cases: 1 in I by a constant, or through X
    for varnames, rels in [(["X"], [{(0,): 1}]),
                           (["X"], [{(1,): 1, (0,): 1}, {(2,): 1}]),
                           (["X", "Y"], [{(2, 0): 1}]),
                           (["X", "Y"], [{(1, 1): 1, (0, 0): 1}, {(2, 0): 1}]),
                           (["X"], [{(1,): 1, (0,): 0}])]:
        kinds.append(_assert_same_quotient(F, varnames, rels, rng))
    assert {"finite", "inconsistent", "infinite"} <= set(kinds)
    assert kinds.count("finite") >= 40


def _readme_quotients():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [line for line in text.splitlines()
            if line.startswith('{"q"') and '"quotient"' in line]


QUOTIENT_DOCUMENTS = ([pytest.param(doc, id=ident) for ident, doc, _, _ in corpus.ALG_LOCAL]
                      + [pytest.param(line, id="readme-%d" % i)
                         for i, line in enumerate(_readme_quotients())])


def _assert_same_document(doc, rng):
    """``parse_algebra`` on a quotient document against its GFElem route:
    relation and generator dicts, the algebra and R's generator vectors,
    or the same error message."""
    F = small_field(doc["q"])
    G = gfelem.gf(doc["q"])
    m = algdoc._QUOTIENT.match(doc["quotient"])
    varnames = [v.strip() for v in m.group(2).split(",") if v.strip()]
    texts = algdoc._split_top_commas(m.group(3)) + algdoc._gen_list(doc.get("R"))
    rels = []
    for text in texts:
        try:
            ours = algdoc.parse_relation(text, F, varnames)
        except ParseError as e:
            with pytest.raises(ParseError, match="^%s$" % re.escape(str(e))):
                gfelem.parse_relation(text, G, varnames)
            return "parse error"
        assert ours == {k: c.i for k, c in gfelem.parse_relation(text, G, varnames).items()}
        rels.append(ours)
    nrels = len(algdoc._split_top_commas(m.group(3)))
    try:
        S, R = parse_algebra(doc)
    except ParseError as e:
        assert _complete(F, varnames, rels[:nrels]) == [str(e), str(e)]
        return "refused"
    O = gfelem.quotient_algebra(G, varnames, [gfelem.to_gf(G, r) for r in rels[:nrels]])
    assert (S.table, S.unit, S.names) == (O.table, O.unit, O.names)
    gens = [O.mp_to_vector(gfelem.to_gf(G, r)) for r in rels[nrels:]]
    assert [S.mp_to_vector(r) for r in rels[nrels:]] == gens
    assert all(R.member(g) for g in gens)
    return _assert_same_quotient(F, varnames, rels[:nrels], rng)


@pytest.mark.parametrize("doc", QUOTIENT_DOCUMENTS)
def test_quotient_documents_match_the_gf_route(doc):
    doc = json.loads(doc) if isinstance(doc, str) else doc
    assert _assert_same_document(doc, random.Random(7)) == "finite"


def _random_relation_text(rng, varnames, depth=0):
    """A random expression of the relation grammar: sums, products,
    quotients by constants, powers, unary signs and parentheses."""
    pick = rng.randrange(8 if depth < 3 else 2)
    if pick == 0:
        return str(rng.randrange(12))
    if pick == 1:
        return rng.choice(varnames)
    a = _random_relation_text(rng, varnames, depth + 1)
    if pick == 2:
        return "(%s)^%d" % (a, rng.randrange(4))
    if pick == 3:
        return "-%s" % a
    if pick == 4:
        return "%s / %d" % (a, rng.randrange(4))
    b = _random_relation_text(rng, varnames, depth + 1)
    return "(%s %s %s)" % (a, "+-*"[pick - 5], b)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_random_relation_texts_match_the_gf_route(q, monkeypatch):
    monkeypatch.setenv("L2LAB_CAP", str(10 ** 40))
    rng = random.Random(2450 + q)
    kinds = []
    for _ in range(60):
        varnames = ["X", "Y", "Z"][:rng.randrange(1, 4)]
        rels = ["%s^%d" % (v, rng.randrange(1, 4)) for v in varnames if rng.random() < 0.9]
        rels += [_random_relation_text(rng, varnames) for _ in range(rng.randrange(1, 3))]
        gens = [_random_relation_text(rng, varnames) for _ in range(rng.randrange(2))]
        doc = {"q": q, "quotient": "F%d[%s]/(%s)" % (q, ",".join(varnames), ", ".join(rels)),
               "R": gens}
        kinds.append(_assert_same_document(doc, rng))
    assert kinds.count("finite") >= 10 and "parse error" in kinds
