"""The structure a subalgebra keeps (nilradical, primitive idempotents,
maximal ideals), its radicals and the conductor of a pair, against the
element-scan and quotient routes they replaced.

The structure oracle copies each subalgebra into an algebra of its own
(local coordinates), scans that for nilpotents, takes the quotient by
the nilradical, splits it by its primitive idempotents and lifts the
kernels back.  The radical oracles scan T for the r with r^(dim T) in I
and take the nilradical of the quotient algebra T/I.  The conductor
oracles transplant each covering edge lo < hi into hi's own coordinates,
and take the kernel over all of hi instead of over lo alone; the second
also runs on (R : S).
The closure oracles are the pointwise definitions, run to a fixpoint
over the elements of T: the seminormalization adjoins every b with
b^2, b^3 inside, the t-closure every b with some r inside such that
b^2 - rb and b^3 - rb^2 are inside.  All of them run on every lattice
node and covering edge (the closures of every node in the top, and of
every covering edge) of the named benchmark algebras of at most 2^5
elements and of seeded random algebras over F_2, F_3, F_4, F_8 and F_9.

The lattice itself is checked against the candidate scan it replaced:
every echelon basis of a subspace of S/R, lifted back over R and kept
when closed under multiplication.  On the same inputs every adjunction
T[s] the enumeration can make (every node T, every point s of the
projective space of S/T) is checked against the multiplicative closure
``closure_by_products`` and against ``Subalgebra.from_generators``;
F2^6 and F2[X]/(X^8) are checked against the scan alone.

The conductors, radicals and Berlekamp kernels, which ``_kernel_over``
eliminates right to left and hands on reduced, are checked against the
left-to-right route they replaced (``exact.kernel``, ``combine``, then
one more reduction) in rows and pivots, on every node and covering edge
of the named benchmark algebras and of seeded random algebras over F_2,
F_3 and F_4.

The subintegral questions that read R[s] once per point of S/R (simple,
co-pointwise, Cor 3.132's subcases (2) and (3)) are checked against the
element scans they replaced: every x of S, every x outside R, every
generator y in N with R[y] = S.
"""

import collections
import itertools
import random
import sys
from pathlib import Path

import pytest

from l2lab import exact, finitealg
from l2lab.classify import (analyze_extension, classify_extension, ideal_MS,
                            is_copointwise_minimal)
from l2lab.finitealg import (FiniteAlgebra, Subalgebra, adjoin, algebra_on_subspace,
                             conductor, crucial_ideal, enumerate_subalgebras,
                             irreducible_over, is_simple_extension,
                             maximal_ideals, maximal_ideals_over, msupp, nilradical,
                             prime_algebra, primitive_idempotents, product_algebra,
                             quotient_algebra, radical, seminormalize, small_field,
                             t_close)
from l2lab.parsing import parse_algebra
from l2lab.poly import Poly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402
from test_finitealg import field_algebra, whole_algebra  # noqa: E402
from test_lattice import hasse_by_pairs  # noqa: E402


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
    red = A.span(basis)
    free = [j for j in range(A.dim) if j not in red.pivots]

    def lift(qv):
        v = [0] * A.dim
        for c, j in zip(qv, free):
            v[j] = c
        return tuple(v)

    return red.project, lift, free


def quotient_by_ideal(A, ideal_basis):
    """(Q, project, lift): Q = A / ideal, on complement coordinates."""
    project, lift, free = subspace_complement(A, ideal_basis)
    table = [[project(A.mul(A.basis_vector(i), A.basis_vector(j))) for j in free]
             for i in free]
    Q = FiniteAlgebra(A.field, table, project(A.unit), [A.names[j] for j in free])
    return Q, project, lift


def _nilradical_by_scan(A):
    return A.span([v for v in A.elements() if is_nilpotent(A, v)])


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
        kern = exact.kernel(rows, Q.dim, A.field.ops)
        out.append(A.span(list(nil) + [lift(v) for v in kern]))
    return nil, out


def oracle_structure(T):
    """(nilradical, primitive idempotents, maximal ideals) of T by the old
    route, lifted to ambient coordinates."""
    A = T.ambient
    alg, lift, _ = algebra_on_subspace(A, T.basis, A.unit)
    nil, maxes = _maximal_ideals_by_quotient(alg)
    prim = tuple(sorted(lift(e) for e in _primitive_idempotents_by_scan(alg)))
    maxes = sorted(A.span([lift(b) for b in M]) for M in maxes)
    return A.span([lift(b) for b in nil]), prim, maxes


def radical_by_scan(T, I):
    """{r in T : r^(dim T) in I}."""
    A = T.ambient
    I = A.span(I)
    return A.span([r for r in T.elements() if I.contains(A.power(r, T.dim))])


def radical_by_quotient(T, I):
    """sqrt(I) in T as the preimage of the nilradical of T/I, with T
    copied into its own coordinates."""
    alg, lift, project = algebra_on_subspace(T.ambient, T.basis, T.ambient.unit)
    local_ideal = [project(b) for b in I]
    Q, _, qlift = quotient_by_ideal(alg, local_ideal)
    return T.ambient.span([lift(qlift(v)) for v in _nilradical_by_scan(Q)]
                          + [lift(v) for v in local_ideal])


def _conductor_of_algebra(R, S):
    """(R : S) for R inside the whole algebra S, on S's coordinates."""
    project, _, free = subspace_complement(S, R.basis)
    basis = [S.basis_vector(i) for i in range(S.dim)]
    rows = []
    for j in range(S.dim):
        prods = [project(S.mul(basis[c], basis[j])) for c in range(S.dim)]
        rows += [[prods[c][t] for c in range(S.dim)] for t in range(len(free))]
    return S.span(exact.kernel(rows, S.dim, S.field.ops))


def conductor_by_full_kernel(lo, hi):
    """(lo : hi) as the kernel of a |-> (a*h mod lo)_h over all of hi,
    h running over every row of hi's basis, checked to lie in lo."""
    A = hi.ambient

    def image(a):
        return tuple(c for h in hi.basis for c in lo.basis.project(A.mul(a, h)))

    cond = A.span(finitealg._kernel_over(hi, image))
    assert all(lo.member(b) for b in cond)
    return cond


def oracle_conductor(lo, hi):
    """(lo : hi) with the pair transplanted into hi's own coordinates."""
    A = hi.ambient
    hi_alg, lift, project = algebra_on_subspace(A, hi.basis, A.unit)
    lo_in_hi = Subalgebra.from_generators(hi_alg, [project(b) for b in lo.basis])
    return A.span([lift(b) for b in _conductor_of_algebra(lo_in_hi, hi_alg)])


def seminormalize_by_scan(R, T):
    """Smallest P >= R inside T that is seminormal in T: adjoin every b
    of T with b^2, b^3 in P, to a fixpoint."""
    A = T.ambient
    P = R
    elems = T.elements()
    while True:
        adjoin = []
        for b in elems:
            if P.member(b):
                continue
            b2 = A.mul(b, b)
            if P.member(b2) and P.member(A.mul(b2, b)):
                adjoin.append(b)
        if not adjoin:
            return P
        P = Subalgebra.from_generators(A, list(P.basis) + adjoin)


def t_close_by_scan(R, T):
    """Smallest U >= R inside T that is t-closed in T: adjoin every b of
    T admitting r in U with b^2 - r*b and b^3 - r*b^2 in U, to a
    fixpoint."""
    A = T.ambient
    sub = A.field.ops.sub
    U = R
    elems = T.elements()
    while True:
        adjoin = []
        uelems = U.elements()
        for b in elems:
            if U.member(b):
                continue
            b2 = A.mul(b, b)
            b3 = A.mul(b2, b)
            for r in uelems:
                if U.member(sub(b2, 1, A.mul(r, b))) and U.member(sub(b3, 1, A.mul(r, b2))):
                    adjoin.append(b)
                    break
        if not adjoin:
            return U
        U = Subalgebra.from_generators(A, list(U.basis) + adjoin)


def generators_by_scan(R, S):
    """Every x of S with R[x] = S."""
    return [x for x in S.elements() if not R.member(x) and adjoin(R, x).is_whole()]


def copointwise_by_scan(a):
    """R[x] < S is minimal for every x outside R, with each R[x] looked up
    in the lattice."""
    index = {n.key(): i for i, n in enumerate(a.lattice.nodes)}
    top = 1 << (len(a.lattice) - 1)
    for x in a.S.elements():
        if not a.R.member(x):
            T = adjoin(a.R, x)
            if T.is_whole() or a.lattice.up[index[T.key()]] != top:
                return False
    return True


def cor_3_132_by_scan(a):
    """Subcases (2) and (3) of Cor 3.132: whether some y in N with
    R[y] = S has y^2 outside R and M + F*y^2 = MS = M + N^2 < N with
    M*N^2 in M, and whether some has y^2 in R and
    dim(M + M*y) - dim M = [R/M : F].  Both are false when (R:S) = M."""
    S, R, M = a.S, a.R, a.crucial
    if a.conductor == M:
        return False, False
    N, = maximal_ideals_over(a.whole, M)
    n2 = S.span([S.mul(x, y) for x in N for y in N])
    ms = ideal_MS(a)
    sub2 = sub3 = False
    for y in generators_by_scan(R, S):
        if not N.contains(y):
            continue
        y2 = S.mul(y, y)
        if not R.member(y2):
            sub2 = sub2 or (ms == S.span(list(M) + list(n2))
                            and ms == S.span(list(M) + [y2])
                            and len(ms) < N.dim
                            and all(M.contains(S.mul(x, v)) for x in M for v in n2))
        else:
            my = S.span(list(M) + [S.mul(x, y) for x in M])
            sub3 = sub3 or len(my) - M.dim == R.dim - M.dim
    return sub2, sub3


def _gaussian_binomial(c, k, q):
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (c - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_by_candidates(R, S):
    """The lattice [R, S] by scanning every subspace of S/R: the echelon
    bases on R's non-pivot columns, lifted back and filtered by
    multiplicative closure (a sum of Gaussian binomials of them)."""
    F = S.field
    c = S.dim - R.dim
    assert sum(_gaussian_binomial(c, k, F.q) for k in range(c + 1)) <= 10 ** 5
    free = [j for j in range(S.dim) if j not in R.basis.pivots]
    found = []
    for k in range(c + 1):
        for piv in itertools.combinations(range(c), k):
            free_pos = [(r_i, col) for r_i, pc in enumerate(piv)
                        for col in range(pc + 1, c) if col not in piv]
            for fill in itertools.product(range(F.q), repeat=len(free_pos)):
                rows = [[0] * S.dim for _ in range(k)]
                for r_i, pc in enumerate(piv):
                    rows[r_i][free[pc]] = 1
                for (r_i, col), val in zip(free_pos, fill):
                    rows[r_i][free[col]] = val
                T = Subalgebra(S, list(R.basis) + rows)
                if T.is_closed():
                    found.append(T)
    found.sort(key=lambda T: T.key())
    return hasse_by_pairs(found, Subalgebra.contains_sub)


def closure_by_products(S, gens):
    """The subalgebra generated by gens, as the span of 1 and gens
    closed under the products of pairs of its basis, to a fixpoint."""
    basis = S.span([S.unit] + list(gens))
    while True:
        grown = S.span(list(basis) + [S.mul(basis[i], basis[j])
                                       for i in range(len(basis))
                                       for j in range(i, len(basis))])
        if len(grown) == len(basis):
            return Subalgebra(S, basis)
        basis = grown


def projective_points(T):
    """One lift per point of the projective space of S/T: a vector on T's
    non-pivot columns whose first nonzero entry is 1."""
    S = T.ambient
    F = S.field
    free = [j for j in range(S.dim) if j not in T.basis.pivots]
    for point in itertools.product(range(F.q), repeat=len(free)):
        if any(point) and next(c for c in point if c) == 1:
            s = [0] * S.dim
            for j, c in zip(free, point):
                s[j] = c
            yield tuple(s)


def check_enumeration(R, S, adjunctions=True):
    """The adjunction lattice equals the candidate scan: the same node
    keys in the same order, the same inclusions, covers and length; with
    ``adjunctions``, also every T[s] against the multiplicative closure."""
    lat = enumerate_subalgebras(R, S)
    oracle = enumerate_by_candidates(R, S)
    assert [T.key() for T in lat.nodes] == [T.key() for T in oracle.nodes]
    assert lat.up == oracle.up
    assert lat.covers == oracle.covers and lat.length == oracle.length
    if adjunctions:
        for T in lat.nodes:
            for s in projective_points(T):
                gens = list(T.basis) + [s]
                assert adjoin(T, s) == closure_by_products(S, gens) == \
                    Subalgebra.from_generators(S, gens)
    return lat


def check_closures(R, T):
    assert seminormalize(R, T) == seminormalize_by_scan(R, T)
    assert t_close(R, T) == t_close_by_scan(R, T)


def check_radical(T, I):
    rad = radical(T, I)
    assert rad == radical_by_scan(T, I) == radical_by_quotient(T, I)
    return rad


def check_lattice(R, S):
    """Compare structure, radicals, conductors and closures on every node
    and covering edge (closures of every node in the top, and of every
    covering edge), after checking the lattice against the candidate
    scan."""
    lat = check_enumeration(R, S)
    top = lat.nodes[-1]
    for T in lat.nodes:
        check_closures(T, top)
        nil, prim, maxes = oracle_structure(T)
        assert nilradical(T) == nil
        assert primitive_idempotents(T) == prim
        assert sorted(maximal_ideals(T)) == maxes
        keys = [(M.dim, M) for M in maximal_ideals(T)]
        assert keys == sorted(keys)
        # the primitive idempotents are orthogonal and sum to 1
        ops = S.field.ops
        total = prim[0]
        for i, e in enumerate(prim):
            assert all(not any(S.mul(e, f)) for f in prim[i + 1:])
            if i:
                total = tuple(ops.sub(total, ops.neg(1), e))
        assert total == S.unit
        assert check_radical(T, ()) == nil
        for M in maximal_ideals(T):
            assert check_radical(T, M) == M
    bottom = lat.nodes[0]
    assert conductor(bottom, top) == conductor_by_full_kernel(bottom, top)
    for i, j in lat.covers:
        lo, hi = lat.nodes[i], lat.nodes[j]
        cond = conductor(lo, hi)
        assert cond == oracle_conductor(lo, hi) == conductor_by_full_kernel(lo, hi)
        check_radical(lo, cond)
        check_radical(hi, cond)
        check_closures(lo, hi)
    return len(lat)


# ---------------------------------------------------------------------------

def _small_named_documents():
    out = []
    for ident, doc, _, _ in corpus.ALG_SPLIT + corpus.ALG_LOCAL:
        S, R = parse_algebra(doc)
        if S.field.q ** S.dim <= 2 ** 5:
            out.append(pytest.param(S, R, id=ident))
    return out


@pytest.mark.parametrize("S,R", _small_named_documents())
def test_structure_matches_oracle_on_named_algebras(S, R):
    assert check_lattice(R, S) >= 2


@pytest.mark.parametrize("ident", ["f2^6", "f2[x]/x^8"])
def test_enumeration_matches_candidate_scan_on_large_named(ident):
    doc = {i: d for i, d, _, _ in corpus.ALG_SPLIT + corpus.ALG_LOCAL}[ident]
    S, R = parse_algebra(doc)
    lat = check_enumeration(R, S, adjunctions=False)
    assert (len(lat), lat.length) == {"f2^6": (203, 5), "f2[x]/x^8": (110, 7)}[ident]


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
    gens = [tuple(rng.randrange(q) for _ in range(S.dim))
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
    """Structure, radicals, closures, support and crucial ideal are
    linear algebra: they run with element listing switched off."""
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
        bottom, top = nodes[0], nodes[-1]
        for T in nodes:
            nil, prim, maxes = T.structure()
            assert radical(T, ()) == nil
            assert len(prim) == len(maxes)
            # the tops are reduced, so every node is seminormal in them
            assert seminormalize(T, top) == T
            assert t_close(T, top).contains_sub(T)
        # the bottom is a field, so its zero ideal is the crucial ideal
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


# ---------------------------------------------------------------------------
# The reduced kernel.  ``_kernel_over`` eliminates right to left and carries
# its coordinate basis into ambient coordinates with no second reduction;
# the left-to-right route it replaced is the oracle.

def kernel_left_to_right(T, image):
    """{x in T : image(x) = 0} by the old route: ``exact.kernel`` on the
    columns in order, each vector combined over ``T.basis``, and the
    combinations reduced again by ``span``."""
    A = T.ambient
    cols = [image(b) for b in T.basis]
    rows = [[col[t] for col in cols] for t in range(len(cols[0]))]
    return A.span([T.basis.combine(x) for x in exact.kernel(rows, T.dim, A.field.ops)])


def assert_same_echelon(got, want):
    assert isinstance(got, exact.Echelon)
    assert got == want and got.pivots == want.pivots


def check_reduced_kernels(lat):
    """The Berlekamp kernel and the nilradical of every node, and the
    conductor of every covering edge and of the bottom in the top with
    its radicals in both ends, against ``kernel_left_to_right``.  The
    oracle's radical raises to q^(dim T), a larger power than the one
    ``radical`` picks, with the same kernel; its conductor reduces a*h
    by lo for every row h of hi, not only the rows off lo's pivots."""
    A = lat.nodes[0].ambient
    q, ops = A.field.q, A.field.ops

    def radical_by_oracle(T, I):
        return kernel_left_to_right(T, lambda b: I.project(A.power(b, q ** T.dim)))

    def berlekamp(x):
        return tuple(ops.sub(A.power(x, q), 1, x))

    for T in lat.nodes:
        assert_same_echelon(finitealg._kernel_over(T, berlekamp),
                            kernel_left_to_right(T, berlekamp))
        assert_same_echelon(radical(T, ()), radical_by_oracle(T, A.span(())))
    for i, j in sorted(lat.covers) + [(0, len(lat) - 1)]:
        lo, hi = lat.nodes[i], lat.nodes[j]
        cond = conductor(lo, hi)
        assert_same_echelon(cond, kernel_left_to_right(
            lo, lambda a: tuple(c for h in hi.basis for c in lo.basis.project(A.mul(a, h)))))
        for T in (lo, hi):
            assert_same_echelon(radical(T, cond), radical_by_oracle(T, cond))


@pytest.mark.parametrize("ident,doc", [pytest.param(i, d, id=i) for i, d, _, _
                                       in corpus.ALG_SPLIT + corpus.ALG_LOCAL])
def test_reduced_kernels_match_the_left_to_right_route_on_named(ident, doc):
    S, R = parse_algebra(doc)
    check_reduced_kernels(enumerate_subalgebras(R, S))


def test_reduced_kernels_match_the_left_to_right_route_on_random():
    rng = random.Random(4733)
    qs = collections.Counter()
    for _ in range(40):
        R, S = _random_algebra(rng, {2: 5, 3: 4, 4: 3})
        check_reduced_kernels(enumerate_subalgebras(R, S))
        qs[S.field.q] += 1
    assert set(qs) == {2, 3, 4}


def test_conductor_and_radical_reduce_once(monkeypatch):
    """``conductor(lo, hi)``, and ``radical(T, I)`` for an Echelon I, run
    one ``exact.rref``: the kernel's.  Neither reduces its result again,
    and a span of an Echelon is the Echelon itself."""
    S, R = parse_algebra({"q": 2, "quotient": "F2[X,Y]/(X^3,Y^2)", "R": "diagonal"})
    lat = enumerate_subalgebras(R, S)
    rref = exact.rref
    calls = []

    def counting(rows, ops):
        calls.append(len(rows))
        return rref(rows, ops)

    monkeypatch.setattr(exact, "rref", counting)
    for i, j in lat.covers:
        lo, hi = lat.nodes[i], lat.nodes[j]
        calls.clear()
        cond = conductor(lo, hi)
        assert len(calls) == 1
        for T in (lo, hi):
            calls.clear()
            radical(T, cond)
            assert len(calls) == 1
        calls.clear()
        assert S.span(cond) is cond and Subalgebra(S, hi.basis).basis is hi.basis
        assert calls == []


def _cor_3_132_details(verdict):
    return next((p["details"] for p in verdict["predicates"]
                 if p["name"] == "Cor 3.132: simple subintegral criterion"), None)


def check_point_walks(R, S):
    """Simple, co-pointwise and Cor 3.132's subcase flags against the
    element scans; returns the Cor 3.132 details, or None when the
    generator subcases are not reached."""
    a = analyze_extension(R, S)
    verdict = classify_extension(a)
    generators = generators_by_scan(R, S)
    points = is_simple_extension(a.lattice)
    assert bool(points) == bool(generators)
    # one point per class c*x + R of generators
    assert len(points) * (S.field.q - 1) * S.field.q ** R.dim == len(generators)
    assert all(adjoin(R, s).is_whole() for s in points)
    assert is_copointwise_minimal(a) == copointwise_by_scan(a)
    details = _cor_3_132_details(verdict)
    if details is None or a.conductor == a.crucial:
        return None
    subcases = details["subcases"]
    assert (subcases[2], subcases[3]) == cor_3_132_by_scan(a)
    return details


def _random_local_extension(rng):
    """R < S over F_2, F_3 or F_4, S local: F_q[x]/(x^n),
    F_q[x,y]/(x^a, x*y, y^b), or F_q[u,x]/(m(u), x^n) with m the
    irreducible quadratic; R is generated by up to two random elements."""
    q = rng.choice([2, 3, 4])
    F = small_field(q)
    maxdim = {2: 7, 3: 5, 4: 4}[q]
    kind = rng.choice([0, 0, 1, 2])
    if kind == 0:
        S = quotient_algebra(F, ["x"], [{(rng.randrange(3, maxdim + 1),): F.one}])
    elif kind == 1:
        a = rng.randrange(2, maxdim)
        b = rng.randrange(1, maxdim - a + 1)
        S = quotient_algebra(F, ["x", "y"],
                             [{(a, 0): F.one}, {(1, 1): F.one}, {(0, b + 1): F.one}])
    else:
        m = irreducible_over(F, 2)
        S = quotient_algebra(F, ["u", "x"],
                             [{(i, 0): c for i, c in enumerate(m.cs) if c},
                              {(0, rng.randrange(2, maxdim // 2 + 1)): F.one}])
    # leaving out x keeps R = S from being the rule (in F_q[x]/(x^n), any
    # element with an x term generates S)
    skip = {"x"} if kind == 0 or rng.randrange(2) else set()
    gens = [tuple(0 if name in skip else rng.randrange(q) for name in S.names)
            for _ in range(rng.randrange(1, 3))]
    R = Subalgebra.from_generators(S, gens)
    return (prime_algebra(S) if R.is_whole() else R), S


def test_point_walks_match_element_scans_on_random_local_extensions():
    rng = random.Random(3132)
    qs = collections.Counter()
    flags = set()
    for _ in range(120):
        R, S = _random_local_extension(rng)
        assert S.field.q ** S.dim <= 4096
        details = check_point_walks(R, S)
        if details is not None:
            qs[S.field.q] += 1
            flags.update((k, v) for k, v in details["subcases"].items() if k > 1)
    # the generator subcases were reached over every field, and each
    # flag was seen both ways
    assert set(qs) == {2, 3, 4}
    assert flags == {(k, v) for k in (2, 3) for v in (False, True)}


@pytest.mark.parametrize("doc,subcases", [
    ({"q": 3, "quotient": "F3[X]/(X^4)", "R": ["X^2"]}, {1: False, 2: True, 3: True}),
    ({"q": 3, "quotient": "F3[X]/(X^5)", "R": ["X^2"]}, {1: False, 2: True, 3: True}),
    # characteristic 2: 2*y_s*M vanishes
    ({"q": 2, "quotient": "F2[X]/(X^5)", "R": ["X^2"]}, None),
    ({"q": 4, "quotient": "F4[X]/(X^4)", "R": ["X^2"]}, None),
], ids=["f3[x]/x^4", "f3[x]/x^5", "f2[x]/x^5", "f4[x]/x^4"])
def test_point_walks_match_element_scans_on_named(doc, subcases):
    S, R = parse_algebra(doc)
    details = check_point_walks(R, S)
    assert details is not None
    if subcases is not None:
        assert details["subcases"] == subcases


@pytest.mark.parametrize("doc", [
    {"q": 3, "quotient": "F3[X,Y]/(X^2,X*Y,Y^2)", "R": "diagonal"},
    {"q": 2, "quotient": "F2[X]/(X^8)", "R": "diagonal"},
    {"q": 3, "quotient": "F3[X]/(X^4)", "R": ["X^2"]},
], ids=["f3-copointwise", "f2[x]/x^8", "f3[x]/x^4-over-x^2"])
def test_classify_lists_no_elements(doc, monkeypatch):
    """The whole analysis and verdict, the subintegral point walks
    included, run with element listing switched off."""
    S, R = parse_algebra(doc)

    def refuse(*args, **kwargs):
        raise AssertionError("element listing in the analysis")

    monkeypatch.setattr(FiniteAlgebra, "elements", refuse)
    monkeypatch.setattr(Subalgebra, "elements", refuse)
    verdict = classify_extension(analyze_extension(R, S))
    assert "simple" in verdict
