"""Differential tests of the exact span core.

``exact.Echelon`` (membership, span containment, coordinates,
complement projection, linear combination, extension by new vectors) and ``exact.intersection``
are checked on seeded random subspaces: over F_2, F_3 and F_4, on
vectors of element indices reduced with ``SmallField.ops``, against
brute-force enumeration of every linear combination computed on the
field's tables; and over Q against recombination and rank counts.
"""

import itertools
import random
from fractions import Fraction

import pytest

from l2lab.exact import QQ_OPS, Echelon, intersection, rref
from l2lab.finitealg import small_field

# (q, ambient dimension): at most 256 vectors per space
FIELDS = [(2, 5), (3, 4), (4, 4)]
TRIALS = 25


def _lin(F, coeffs, vectors, n):
    """sum c_i v_i, read entry by entry off the field's tables."""
    out = [0] * n
    for c, v in zip(coeffs, vectors):
        out = [F.add_t[a][F.mul_t[c][b]] for a, b in zip(out, v)]
    return tuple(out)


def _add(F, u, v):
    return tuple(F.add_t[a][b] for a, b in zip(u, v))


def _span_keys(F, vectors, n):
    return {_lin(F, cs, vectors, n)
            for cs in itertools.product(range(F.q), repeat=len(vectors))}


def _random_gens(rng, F, n):
    """0..n random vectors, sometimes with a zero or a repeated one."""
    els = range(F.q)
    gens = [tuple(rng.choice(els) for _ in range(n)) for _ in range(rng.randrange(n + 1))]
    if gens and rng.random() < 0.3:
        gens.append(rng.choice(gens))
    if rng.random() < 0.2:
        gens.append((0,) * n)
    return gens


def _cases(q, n, seed):
    F = small_field(q)
    rng = random.Random(seed * 1000 + q)
    space = [tuple(t) for t in itertools.product(range(F.q), repeat=n)]
    for _ in range(TRIALS):
        yield F, rng, space, _random_gens(rng, F, n)


@pytest.mark.parametrize("q,n", FIELDS)
def test_echelon_shape(q, n):
    for F, _, _, gens in _cases(q, n, 1):
        E = Echelon(gens, F.ops)
        assert len(E.pivots) == len(E) and list(E.pivots) == sorted(set(E.pivots))
        for i, row in enumerate(E):
            assert [row[p] for p in E.pivots] == [int(j == i) for j in range(len(E))]
            assert not any(row[:E.pivots[i]])
        assert Echelon(list(E), F.ops) == E


@pytest.mark.parametrize("q,n", FIELDS)
def test_membership_and_coords_match_enumeration(q, n):
    for F, _, space, gens in _cases(q, n, 2):
        E = Echelon(gens, F.ops)
        inside = _span_keys(F, gens, n)
        assert len(inside) == q ** len(E)
        for v in space:
            cs = E.coords(v)
            assert E.contains(v) == (v in inside) == (cs is not None)
            if cs is not None:
                assert len(cs) == len(E)
                assert _lin(F, cs, E, n) == v
                if E:
                    assert E.combine(cs) == v


@pytest.mark.parametrize("q,n", FIELDS)
def test_span_containment_matches_enumeration(q, n):
    """``contains_span`` against element sets, on random pairs and on
    subspaces of each space (half of them spanned by its elements)."""
    for F, rng, space, gens in _cases(q, n, 6):
        E = Echelon(gens, F.ops)
        inside = _span_keys(F, gens, n)
        members = [v for v in space if v in inside]
        for sub_gens in (_random_gens(rng, F, n),
                         [rng.choice(members) for _ in range(rng.randrange(n + 1))]):
            sub = Echelon(sub_gens, F.ops)
            assert E.contains_span(sub) == (_span_keys(F, sub_gens, n) <= inside)
        assert E.contains_span(E) and E.contains_span(Echelon((), F.ops))


@pytest.mark.parametrize("q,n", FIELDS)
def test_projection_kernel_is_the_span(q, n):
    for F, rng, space, gens in _cases(q, n, 3):
        E = Echelon(gens, F.ops)
        inside = _span_keys(F, gens, n)
        zero = (0,) * (n - len(E))
        images = set()
        for v in space:
            p = E.project(v)
            assert len(p) == n - len(E)
            assert (p == zero) == (v in inside)
            images.add(p)
        assert len(images) == q ** (n - len(E))
        for _ in range(20):
            u, v = rng.choice(space), rng.choice(space)
            uv = _add(F, u, v)
            assert E.project(uv) == _add(F, E.project(u), E.project(v))


@pytest.mark.parametrize("q,n", FIELDS)
def test_extend_is_the_echelon_of_the_union(q, n):
    for F, rng, _, gens in _cases(q, n, 5):
        E = Echelon(gens, F.ops)
        more = _random_gens(rng, F, n)
        if gens and rng.random() < 0.5:
            more.append(rng.choice(gens))       # a vector already inside
        grown = E.extend(more)
        assert grown == Echelon(gens + more, F.ops)
        assert grown.pivots == Echelon(gens + more, F.ops).pivots


@pytest.mark.parametrize("q,n", FIELDS)
def test_intersection_matches_set_intersection(q, n):
    for F, rng, _, gens in _cases(q, n, 4):
        other = _random_gens(rng, F, n)
        if gens and rng.random() < 0.5:
            other.append(rng.choice(gens))      # force a shared vector
        A, B = Echelon(gens, F.ops), Echelon(other, F.ops)
        meet = intersection(A, B)
        assert meet == intersection(B, A)
        assert _span_keys(F, list(meet), n) == (_span_keys(F, gens, n)
                                                & _span_keys(F, other, n))


# ---------------------------------------------------------------------------
# Over Q

def _qvec(rng, n):
    return tuple(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n))


def _qcomb(coeffs, vectors, n):
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def _qspan(rng, n, k, shared=()):
    """k random vectors plus the shared ones and one dependent combination."""
    gens = [_qvec(rng, n) for _ in range(k)] + list(shared)
    if gens:
        gens.append(_qcomb([Fraction(rng.randrange(-3, 4)) for _ in gens], gens, n))
    return gens


def test_rational_membership_and_coords_by_recombination():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 7)
        gens = _qspan(rng, n, rng.randrange(n + 1))
        E = Echelon(gens, QQ_OPS)
        assert len(E) == len(rref(gens, QQ_OPS)[1])
        for _ in range(6):
            w = _qcomb([Fraction(rng.randrange(-4, 5)) for _ in gens], gens, n)
            cs = E.coords(w)
            assert E.contains(w) and cs is not None
            assert _qcomb(cs, E, n) == w
            v = _qvec(rng, n)
            grows = len(rref(gens + [v], QQ_OPS)[1]) > len(E)
            assert E.contains(v) != grows
            assert (E.coords(v) is None) == grows
            assert (not any(E.project(v))) != grows
            assert E.project(v) == E.project(tuple(a + b for a, b in zip(v, w)))


def test_rational_extend_is_the_echelon_of_the_union():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 7)
        gens = _qspan(rng, n, rng.randrange(n + 1))
        more = _qspan(rng, n, rng.randrange(n + 1), gens[:1])
        grown = Echelon(gens, QQ_OPS).extend(more)
        assert grown == Echelon(gens + more, QQ_OPS)
        assert grown.pivots == Echelon(gens + more, QQ_OPS).pivots


def test_rational_intersection_dimension_and_containment():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(1, 7)
        shared = [_qvec(rng, n) for _ in range(rng.randrange(n // 2 + 1))]
        A = Echelon(_qspan(rng, n, rng.randrange(n // 2 + 1), shared), QQ_OPS)
        B = Echelon(_qspan(rng, n, rng.randrange(n // 2 + 1), shared), QQ_OPS)
        meet = intersection(A, B)
        assert all(A.contains(v) and B.contains(v) for v in meet)
        assert all(meet.contains(v) for v in shared)
        assert len(meet) == len(A) + len(B) - len(Echelon(list(A) + list(B), QQ_OPS))
