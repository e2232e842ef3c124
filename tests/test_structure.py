"""The structure a subalgebra keeps (nilradical, primitive idempotents,
maximal ideals), its radicals and the conductor of a pair, against the
element-scan and quotient routes they replaced.

The structure oracle copies each subalgebra into an algebra of its own
(local coordinates), scans that for nilpotents, takes the quotient by
the nilradical, splits it by its primitive idempotents and lifts the
kernels back.  The radical oracles scan T for the r with r^(dim T) in I
and take the nilradical of the quotient algebra T/I.  The conductor
oracle transplants each covering edge lo < hi into hi's own coordinates.
All of them run on every lattice node and covering edge of the named
benchmark algebras of at most 2^5 elements and of seeded random algebras
over F_2, F_3, F_4, F_8 and F_9.
"""

import collections
import random
import sys
from pathlib import Path

import pytest

from l2lab import exact, finitealg
from l2lab.classify import analyze_extension, classify_extension
from l2lab.exact import Echelon
from l2lab.finitealg import (FiniteAlgebra, Subalgebra, algebra_on_subspace,
                             conductor, crucial_ideal, enumerate_subalgebras,
                             field_algebra, maximal_ideals, msupp, nilradical,
                             prime_algebra, primitive_idempotents, product_algebra,
                             quotient_algebra, radical, small_field, vec_key,
                             whole_algebra)
from l2lab.parsing import parse_algebra
from l2lab.poly import Poly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402


# ---------------------------------------------------------------------------
# Oracles: the element-scan and quotient routes, in local coordinates.

def is_nilpotent(A, v):
    w = v
    e = 1
    while e <= A.dim:
        w = A.mul(w, w)
        e *= 2
    return not any(w)


def subspace_complement(A, basis):
    """(project, lift, free) for the quotient vector space A / span(basis).

    Quotient coordinates are the non-pivot positions ``free`` of the
    echelon form; ``lift`` puts them back with zeros at the pivots.
    """
    red = Echelon(basis)
    free = [j for j in range(A.dim) if j not in red.pivots]

    def lift(qv):
        v = [A.field.zero] * A.dim
        for c, j in zip(qv, free):
            v[j] = c
        return tuple(v)

    return red.project, lift, free


def quotient_by_ideal(A, ideal_basis):
    """(Q, project, lift): Q = A / ideal, on complement coordinates."""
    project, lift, free = subspace_complement(A, ideal_basis)
    table = [[project(A.mul(A.basis_vector(i), A.basis_vector(j))) for j in free]
             for i in free]
    Q = FiniteAlgebra(A.field, table, project(A.unit), [A.names[j] for j in free],
                      check=False)
    return Q, project, lift


def _nilradical_by_scan(A):
    return Echelon([v for v in A.elements() if is_nilpotent(A, v)])


def _primitive_idempotents_by_scan(A):
    idems = [v for v in A.elements() if any(v) and A.mul(v, v) == v]
    return [e for e in idems if not any(f != e and A.mul(e, f) == f for f in idems)]


def _maximal_ideals_by_quotient(A):
    """Max(A) for an algebra: nilradical, then the kernels of the
    primitive idempotents of A/nil(A), lifted back."""
    nil = _nilradical_by_scan(A)
    Q, _, lift = quotient_by_ideal(A, nil)
    out = []
    for e in _primitive_idempotents_by_scan(Q):
        prods = [Q.mul(Q.basis_vector(j), e) for j in range(Q.dim)]
        rows = [[prods[j][c] for j in range(Q.dim)] for c in range(Q.dim)]
        kern = exact.kernel(rows, Q.dim, A.field.one)
        out.append(Echelon(list(nil) + [lift(v) for v in kern]))
    return nil, out


def oracle_structure(T):
    """(nilradical, primitive idempotents, maximal ideals) of T by the old
    route, lifted to ambient coordinates."""
    A = T.ambient
    alg, lift, _ = algebra_on_subspace(A, T.basis, A.unit)
    nil, maxes = _maximal_ideals_by_quotient(alg)
    prim = tuple(sorted((lift(e) for e in _primitive_idempotents_by_scan(alg)), key=vec_key))
    maxes = sorted(Echelon([lift(b) for b in M]) for M in maxes)
    return Echelon([lift(b) for b in nil]), prim, maxes


def radical_by_scan(T, I):
    """{r in T : r^(dim T) in I}."""
    A = T.ambient
    I = Echelon(I)
    return Echelon([r for r in T.elements() if I.contains(A.power(r, T.dim))])


def radical_by_quotient(T, I):
    """sqrt(I) in T as the preimage of the nilradical of T/I, with T
    copied into its own coordinates."""
    alg, lift, project = algebra_on_subspace(T.ambient, T.basis, T.ambient.unit)
    local_ideal = [project(b) for b in I]
    Q, _, qlift = quotient_by_ideal(alg, local_ideal)
    return Echelon([lift(qlift(v)) for v in _nilradical_by_scan(Q)]
                   + [lift(v) for v in local_ideal])


def _conductor_of_algebra(R, S):
    """(R : S) for R inside the whole algebra S, on S's coordinates."""
    project, _, free = subspace_complement(S, R.basis)
    basis = [S.basis_vector(i) for i in range(S.dim)]
    rows = []
    for j in range(S.dim):
        prods = [project(S.mul(basis[c], basis[j])) for c in range(S.dim)]
        rows += [[prods[c][t] for c in range(S.dim)] for t in range(len(free))]
    return Echelon(exact.kernel(rows, S.dim, S.field.one))


def oracle_conductor(lo, hi):
    """(lo : hi) with the pair transplanted into hi's own coordinates."""
    A = hi.ambient
    hi_alg, lift, project = algebra_on_subspace(A, hi.basis, A.unit)
    lo_in_hi = Subalgebra.from_generators(hi_alg, [project(b) for b in lo.basis])
    return Echelon([lift(b) for b in _conductor_of_algebra(lo_in_hi, hi_alg)])


def check_radical(T, I):
    rad = radical(T, I)
    assert rad == radical_by_scan(T, I) == radical_by_quotient(T, I)
    return rad


def check_lattice(R, S):
    """Compare structure, radicals and conductors on every node and
    covering edge."""
    lat = enumerate_subalgebras(R, S)
    for T in lat.nodes:
        nil, prim, maxes = oracle_structure(T)
        assert nilradical(T) == nil
        assert primitive_idempotents(T) == prim
        assert sorted(M.basis for M in maximal_ideals(T)) == maxes
        keys = [M.key() for M in maximal_ideals(T)]
        assert keys == sorted(keys)
        # the primitive idempotents are orthogonal and sum to 1
        total = prim[0]
        for i, e in enumerate(prim):
            assert all(not any(S.mul(e, f)) for f in prim[i + 1:])
            if i:
                total = tuple(a + b for a, b in zip(total, e))
        assert total == S.unit
        assert check_radical(T, ()) == nil
        for M in maximal_ideals(T):
            assert check_radical(T, M.basis) == M.basis
    for i, j in lat.covers:
        lo, hi = lat.nodes[i], lat.nodes[j]
        cond = conductor(lo, hi)
        assert cond.basis == oracle_conductor(lo, hi)
        check_radical(lo, cond.basis)
        check_radical(hi, cond.basis)
    return len(lat)


# ---------------------------------------------------------------------------

def _small_named_documents():
    out = []
    for ident, doc, _, _ in corpus.ALG_SPLIT + corpus.ALG_LOCAL:
        S, R = parse_algebra(doc)
        if S.size <= 2 ** 5:
            out.append(pytest.param(S, R, id=ident))
    return out


@pytest.mark.parametrize("S,R", _small_named_documents())
def test_structure_matches_oracle_on_named_algebras(S, R):
    assert check_lattice(R, S) >= 2


def _random_algebra(rng, maxdims):
    """A random algebra S over F_q, q drawn from ``maxdims`` (q -> largest
    dimension), and a random subalgebra R < S."""
    q = rng.choice(sorted(maxdims))
    F = small_field(q)
    maxdim = maxdims[q]
    kind = rng.randrange(3)
    if kind == 0:
        degrees = [rng.choice([1, 1, 2]) for _ in range(rng.randrange(1, 4))]
        while sum(degrees) > maxdim:
            degrees.pop()
        S = product_algebra(F, degrees or [1])
    elif kind == 1:
        # F_q[x]/(f) for a random monic f: split, inert and ramified parts
        d = rng.randrange(2, maxdim + 1)
        f = Poly(F, [F.element(rng.randrange(q)) for _ in range(d)] + [F.one])
        S = field_algebra(F, f)
    else:
        a = rng.randrange(1, maxdim)
        S = quotient_algebra(F, ["x", "y"],
                             [{(a, 0): F.one}, {(1, 1): F.one}, {(0, 2): F.one}])
    gens = [tuple(F.element(rng.randrange(q)) for _ in range(S.dim))
            for _ in range(rng.randrange(0, 3))]
    R = Subalgebra.from_generators(S, gens)
    return (prime_algebra(S) if R.is_whole() else R), S


def test_structure_matches_oracle_on_random_algebras():
    rng = random.Random(6062)
    qs = collections.Counter()
    for _ in range(60):
        R, S = _random_algebra(rng, {2: 5, 3: 4, 4: 3})
        check_lattice(R, S)
        qs[S.field.q] += 1
    assert set(qs) == {2, 3, 4}


def test_structure_matches_oracle_over_f8_and_f9():
    """Splitting raises b - c to the power q - 1 for all q values of c:
    over F_8 and F_9 that is 8 or 9 values and powers 7 and 8."""
    rng = random.Random(89)
    qs = collections.Counter()
    for _ in range(16):
        R, S = _random_algebra(rng, {8: 2, 9: 2})
        check_lattice(R, S)
        qs[S.field.q] += 1
    assert set(qs) == {8, 9}
    for q in (8, 9):
        S, R = parse_algebra({"q": q, "product": ["F%d" % q, "F%d" % q ** 2],
                              "R": "diagonal"})
        assert check_lattice(R, S) == 3
        assert len(primitive_idempotents(whole_algebra(S))) == 2


def test_structure_lists_no_elements(monkeypatch):
    """Structure, radicals, support and crucial ideal are linear algebra:
    they run with element listing switched off."""
    F2 = small_field(2)
    S5 = product_algebra(F2, [1] * 5)
    S7 = product_algebra(F2, [1] * 7)
    S, R = parse_algebra({"q": 8, "product": ["F8", "F64"], "R": "diagonal"})
    lattices = [enumerate_subalgebras(prime_algebra(S5), S5).nodes,
                [prime_algebra(S7), whole_algebra(S7)],
                enumerate_subalgebras(R, S).nodes]

    def refuse(*args, **kwargs):
        raise AssertionError("element listing in the structure layer")

    monkeypatch.setattr(FiniteAlgebra, "elements", refuse)
    monkeypatch.setattr(Subalgebra, "elements", refuse)
    for nodes in lattices:
        for T in nodes:
            nil, prim, maxes = T.structure()
            assert radical(T, ()) == nil
            assert len(prim) == len(maxes)
        # the bottom is a field, so its zero ideal is the crucial ideal
        bottom, top = nodes[0], nodes[-1]
        cond = conductor(bottom, top)
        crucial = crucial_ideal(bottom, cond, msupp(bottom, top, cond))
        assert crucial == maximal_ideals(bottom)[0] and crucial.dim == 0
    assert len(primitive_idempotents(whole_algebra(S7))) == 7


def test_structure_computed_once_per_node(monkeypatch):
    S = product_algebra(small_field(2), [1, 1, 1, 1])
    compute = finitealg.subalgebra_structure
    calls = collections.Counter()

    def counting(T):
        if T.ambient is S:
            calls[T.key()] += 1
        return compute(T)

    monkeypatch.setattr(finitealg, "subalgebra_structure", counting)
    a = analyze_extension(prime_algebra(S), S)
    classify_extension(a)
    keys = [n.key() for n in a.lattice.nodes]
    assert len(keys) == 15                     # Bell number B4
    assert set(calls) <= set(keys)
    ends = (a.R.key(), a.whole.key())
    assert all(calls[k] <= (2 if k in ends else 1) for k in keys)
    assert sum(calls.values()) <= len(keys) + 2
