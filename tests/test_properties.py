"""Cross-cutting property suites.

The field-side properties run on every worked polynomial; the
algebra-side properties run on the worked models plus fifty seeded
random small algebras.  Dual-path agreement (theorem predicate versus
brute-force chain length) is enforced inside classify_extension, which
raises ConsistencyError on any disagreement, so simply driving it over
the corpus is the test.
"""

import random

import pytest

from l2lab.poly import QQ, Poly, factor_mod_p
from l2lab.numberfield import intersect_subfields, make_field
from l2lab.principal import compute_principal_subfields, index_set_I
from l2lab.fieldlattice import (build_lattice, is_length_two, is_minimal_extension,
                                verify_minpoly_product_identity)
from l2lab.classify import analyze_extension, classify_extension, cover_types
from l2lab.finitealg import (Subalgebra, prime_algebra, product_algebra,
                             quotient_algebra, small_field, whole_algebra)

FIELD_POLYS = [
    [-2, 0, 1],                  # X^2 - 2
    [1, -3, 0, 1],               # X^3 - 3X + 1
    [-2, 0, 0, 1],               # X^3 - 2
    [-2, 0, 0, 0, 1],            # X^4 - 2
    [1, 0, -10, 0, 1],           # X^4 - 10X^2 + 1
    [1, 0, 0, 0, 1],             # X^4 + 1
    [1, 1, 1, 1, 1],             # Phi_5
    [108, 0, 0, 0, 0, 0, 1],     # X^6 + 108
]


@pytest.mark.parametrize("coeffs", FIELD_POLYS)
def test_field_property_suite(coeffs):
    f = Poly.from_ints(QQ, coeffs)
    L = make_field(f)
    ps = compute_principal_subfields(L)
    lat = build_lattice(ps)

    # factorization re-multiplies (FactorSystem asserts it; re-check)
    xlin = Poly(L, [-L.gen(), L.one])
    prod = xlin
    for g in ps.system.factors:
        prod = prod * g
    assert prod == f.map_coeffs(L, L.from_rational)

    # every E_beta is proper and their intersection is Q
    assert all(not e.is_full() for e in ps.E)
    if ps.E:
        inter = ps.E[0]
        for e in ps.E[1:]:
            inter = intersect_subfields(inter, e)
        assert inter.dim == 1

    # Gamma(beta) inside I(E_beta)
    for b, e in enumerate(ps.E):
        assert set(ps.gamma[b]) <= index_set_I(e, ps.system)

    # product identity f_K = (X - x) prod_{I(K)} f_alpha on every node
    assert verify_minpoly_product_identity(ps, lat)

    # dual-path agreement: predicate equals chain length (asserted inside)
    l2, info = is_length_two(ps, lat)
    assert l2 == (lat.length == 2)
    is_minimal_extension(ps, lat)

    # cardinality formulas when length 2
    if l2:
        assert len(lat) == info["predicted_count"]


# --- randomized finite algebras ---------------------------------------------

def _random_algebra(rng):
    q = rng.choice([2, 2, 2, 3])
    F = small_field(q)
    kind = rng.randrange(3)
    if kind == 0:
        nfac = rng.randrange(2, 4)
        degrees = [rng.choice([1, 1, 2]) for _ in range(nfac)]
        while sum(degrees) > 4:
            degrees.pop()
        S = product_algebra(F, degrees if degrees else [1])
    elif kind == 1:
        e1 = rng.choice([2, 2, 3])
        rels = [{(e1, 0): F.one}, {(1, 1): F.one}, {(0, 2): F.one}]
        S = quotient_algebra(F, ["x", "y"], rels)
    else:
        e1 = rng.choice([2, 3, 4])
        rels = [{(e1,): F.one}] if rng.random() < 0.5 else \
            [{(e1,): F.one, (1,): F.one}]
        S = quotient_algebra(F, ["x"], rels)
    if S.dim > 5 or S.size > 256:
        return None
    gens = []
    for _ in range(rng.randrange(0, 3)):
        v = tuple(F.element(rng.randrange(F.q)) for _ in range(S.dim))
        gens.append(v)
    R = Subalgebra.from_generators(S, gens)
    if R.is_whole():
        R = prime_algebra(S)
    if R.is_whole():
        return None
    return R, S


def test_fifty_random_algebras():
    rng = random.Random(20260808)
    seen_cases = set()
    produced = 0
    while produced < 50:
        made = _random_algebra(rng)
        if made is None:
            continue
        R, S = made
        produced += 1
        a = analyze_extension(R, S)
        # classify_extension raises ConsistencyError if any theorem
        # predicate disagrees with the brute-force lattice
        verdict = classify_extension(a)
        seen_cases.add(verdict["case"])

        # canonical decomposition ordering
        P, T = a.seminormalization, a.t_closure
        assert P.contains_sub(R) and T.contains_sub(P)
        assert whole_algebra(S).contains_sub(T)

        # dual-path agreement for length 2
        mids = range(1, len(a.lattice.nodes) - 1)
        pair = all((0, i) in a.lattice.covers and
                   (i, len(a.lattice.nodes) - 1) in a.lattice.covers
                   for i in mids) and not a.is_minimal and not a.is_trivial
        assert pair == (a.length == 2) or a.is_minimal or a.is_trivial

        # support bound when length 2
        if a.length == 2:
            assert len(a.support) <= 2
    # the random family must exercise several distinct outcomes
    assert len(seen_cases) >= 4


def test_chain_types_consistent_on_random_sample():
    # Prop-3.5-style check: subintegral extensions have all-ramified
    # maximal chains, seminormal infra-integral all-decomposed, t-closed
    # all-inert.
    rng = random.Random(77)
    checked = 0
    while checked < 12:
        made = _random_algebra(rng)
        if made is None:
            continue
        R, S = made
        a = analyze_extension(R, S)
        if a.is_trivial:
            continue
        checked += 1
        types = set(cover_types(a).values())
        P, T = a.seminormalization, a.t_closure
        if P.is_whole():
            assert types == {"ramified"} or a.lattice.nodes[0].is_whole()
        elif P == R and T.is_whole():
            assert types == {"decomposed"}
        elif T == R:
            assert types == {"inert"}


def test_mod_p_factor_multiplicative_property():
    # unit * prod(factor^mult) == input, across random inputs
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        dom = small_field(p)
        f = Poly.from_ints(dom, [rng.randrange(p) for _ in range(rng.randrange(2, 8))])
        if f.is_zero:
            continue
        assert factor_mod_p(f).expand() == f
