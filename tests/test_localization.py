"""Localization read inside S, against the second-algebra route.

For M in MSupp(S/R) and e the primitive idempotent of R outside M,
``classify.local_base`` gives R + (1-e)S, and [R + (1-e)S, S] stands for
[R_M, S_M].  The oracle ``localize`` builds S_M as its own algebra eS
(unit e, by ``algebra_on_subspace``) and R_M in it by adjunction from
the images of R's basis.  On every input with a two-element support among
the golden named and random inputs, two more documents and seeded
random products of fields, the two lattices must have the same size and
length, and ``is_locally_minimal`` must agree with the oracle's
minimality.  ``is_locally_minimal`` reads each interval off the lattice
of [R, S]; enumerating [R + (1-e)S, S] anew is its oracle, and the
analysis enumerates once.
"""

import json
import random

import pytest

from l2lab import classify
from l2lab.classify import (analyze_extension, classify_extension, is_locally_minimal,
                            local_base)
from l2lab.errors import ConsistencyError
from l2lab.finitealg import (Subalgebra, algebra_on_subspace, conductor,
                             enumerate_subalgebras, msupp, prime_algebra,
                             primitive_idempotents, product_algebra, small_field)
from l2lab.parsing import parse_algebra
from test_finitealg import whole_algebra

from test_golden_reports import NAMED, RANDOM


def localize(R, T, M):
    """(T_M, R_M): T_M is the algebra e*T with unit e, for the primitive
    idempotent e of R outside M, and R_M is generated in it by the images
    of R's basis."""
    A = R.ambient
    e = next((e for e in primitive_idempotents(R) if not M.contains(e)), None)
    if e is None:
        raise ConsistencyError("no primitive idempotent outside M")
    TM, _, tproject = algebra_on_subspace(A, [A.mul(e, b) for b in T.basis], e)
    rbasis = [tproject(A.mul(e, b)) for b in R.basis]
    RM = Subalgebra.from_generators(TM, [v for v in rbasis if v is not None])
    return TM, RM


def _documents():
    docs = [(inp.id, json.loads(inp.stdin)) for inp in NAMED + RANDOM if inp.stdin]
    docs += [("F9xF3xF3", {"q": 3, "product": ["F9", "F3", "F3"], "R": ["(1,0,0)"]}),
             ("F2[X,Y]/(X^2+X,Y^3)",
              {"q": 2, "quotient": "F2[X,Y]/(X^2+X,Y^3)", "R": ["X"]})]
    return docs


def _random_products(seed, count=12):
    """Products of two to four fields F_(q^k), k <= 2, over q in {2, 3},
    with R generated by one or two random vectors."""
    rng = random.Random("localization:%d" % seed)
    out = []
    for _ in range(count):
        F = small_field(rng.choice([2, 3]))
        S = product_algebra(F, [rng.choice([1, 1, 2]) for _ in range(rng.randrange(2, 5))])
        gens = [tuple(rng.randrange(F.q) for _ in range(S.dim))
                for _ in range(rng.randrange(1, 3))]
        out.append((S, Subalgebra.from_generators(S, gens)))
    return out


def _two_element_supports():
    cases = [(ident,) + parse_algebra(doc) for ident, doc in _documents()]
    cases += [("random-product-%d-%d" % (seed, i), S, R)
              for seed in range(1, 11) for i, (S, R) in enumerate(_random_products(seed))]
    found = []
    for ident, S, R in cases:
        W = whole_algebra(S)
        if len(msupp(R, W, conductor(R, W))) == 2:
            found.append((ident, analyze_extension(R, S)))
    return found


TWO_SUPPORTS = _two_element_supports()


def test_two_element_supports_found():
    # f4xf4-crosswise is the one named input with a two-element support;
    # none of the golden random extensions has one
    ids = [ident for ident, _ in TWO_SUPPORTS]
    assert {"f4xf4-crosswise", "F9xF3xF3", "F2[X,Y]/(X^2+X,Y^3)"} <= set(ids)
    assert sum(i.startswith("random-product-") for i in ids) >= 5


@pytest.mark.parametrize("ident, a", TWO_SUPPORTS, ids=[i for i, _ in TWO_SUPPORTS])
def test_interval_matches_localized_algebra(ident, a):
    minimal = []
    for M in a.support:
        lat = enumerate_subalgebras(local_base(a, M), a.S)
        SM, RM = localize(a.R, a.whole, M)
        oracle = enumerate_subalgebras(RM, SM)
        assert (len(lat), lat.length) == (len(oracle), oracle.length), ident
        minimal.append(len(oracle) == 2)
    assert is_locally_minimal(a) == all(minimal)


def locally_minimal_by_enumeration(a):
    """Whether each [``local_base(a, M)``, S] has two nodes, enumerated
    anew rather than read off the lattice of [R, S]."""
    return all(len(enumerate_subalgebras(local_base(a, M), a.S)) == 2 for M in a.support)


@pytest.mark.parametrize("seed", range(1, 11))
def test_lattice_read_matches_enumeration(seed):
    # seeded products whose R has two primitive idempotents, so that
    # each M of the support has one outside it
    cases = [analyze_extension(R, S) for S, R in _random_products(seed)
             if len(primitive_idempotents(R)) == 2]
    assert cases
    for a in cases:
        assert is_locally_minimal(a) == locally_minimal_by_enumeration(a)


def test_both_verdicts_met():
    verdicts = {is_locally_minimal(a) for _, a in TWO_SUPPORTS}
    assert verdicts == {True, False}


def test_one_enumeration_per_analysis(monkeypatch):
    calls = []
    enumerate_ = classify.enumerate_subalgebras

    def counted(R, S):
        calls.append(R)
        return enumerate_(R, S)

    monkeypatch.setattr(classify, "enumerate_subalgebras", counted)
    for ident, a in TWO_SUPPORTS:
        del calls[:]
        classify_extension(analyze_extension(a.R, a.S))
        assert calls == [a.R], ident


def test_local_base_must_be_a_node(monkeypatch):
    # the prime ring does not contain R, which has two idempotents
    _, a = TWO_SUPPORTS[0]
    monkeypatch.setattr(classify, "local_base", lambda a, M: prime_algebra(a.S))
    with pytest.raises(ConsistencyError, match="local base is not a node of the lattice"):
        is_locally_minimal(a)
