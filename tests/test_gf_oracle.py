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
"""

import itertools
import random

import pytest

from l2lab import exact
from l2lab.exact import Echelon, Ops, intersection
from l2lab.finitealg import (enumerate_subalgebras, prime_algebra, product_algebra,
                             quotient_algebra, small_field)
from l2lab.parsing import parse_algebra
from l2lab.poly import Poly

from test_finitealg import field_algebra
from test_structure import _random_algebra


def gf(F, v):
    return tuple(F.elems[c] for c in v)


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
    return tuple(map(F.elems.__getitem__, out))


def table_mul(A, u, v):
    """u*v = sum u_i v_j (e_i e_j), by GFElem operators on the table."""
    F = A.field
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
    F = A.field
    ops = Ops(F.one)
    bottom = Echelon([gf(F, r) for r in R.basis], ops)
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
        ("f8[x]/x^3", quotient_algebra(F8, ["x"], [{(3,): F8.one}]), None),
        ("f9", product_algebra(F9, [1, 2]), None),
        ("f9[x]/(x^3+x^2+x+1)", field_algebra(F9, Poly.from_ints(F9, [1, 1, 1, 1])), None),
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
    ops = Ops(F.one)
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
        rhs = _random_vectors(rng, S, 1)[0][:len(rows)]
        x, gx = exact.solve(rows, rhs, F.ops), exact.solve(grows, gf(F, rhs), ops)
        assert (x is None and gx is None) or tuple(x) == idx(gx)


@pytest.mark.parametrize("S,R", CASES)
def test_enumeration_matches_the_gf_route(S, R):
    R = R if R is not None else prime_algebra(S)
    lat = enumerate_subalgebras(R, S)
    keys = [T.key() for T in lat.nodes]
    assert keys == gf_enumerate(S, R)
    assert all(type(c) is int for T in lat.nodes for row in T.basis for c in row)
