"""Differential tests of the exact span core.

``exact.Echelon`` (membership, coordinates, complement projection,
linear combination) and ``exact.intersection`` are checked on seeded
random subspaces: over F_2, F_3 and F_4 against brute-force enumeration
of every linear combination, and over Q against recombination and
rank counts.
"""

import itertools
import random
from fractions import Fraction

import pytest

from l2lab.exact import Echelon, intersection, rref
from l2lab.finitealg import small_field

# (q, ambient dimension): at most 256 vectors per space
FIELDS = [(2, 5), (3, 4), (4, 4)]
TRIALS = 25


def _key(v):
    return tuple(c.i for c in v)


def _lin(F, coeffs, vectors, n):
    """sum c_i v_i, by plain field arithmetic."""
    out = [F.zero] * n
    for c, v in zip(coeffs, vectors):
        out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def _span_keys(F, vectors, n):
    return {_key(_lin(F, cs, vectors, n))
            for cs in itertools.product(F.elements(), repeat=len(vectors))}


def _random_gens(rng, F, n):
    """0..n random vectors, sometimes with a zero or a repeated one."""
    els = F.elements()
    gens = [tuple(rng.choice(els) for _ in range(n)) for _ in range(rng.randrange(n + 1))]
    if gens and rng.random() < 0.3:
        gens.append(rng.choice(gens))
    if rng.random() < 0.2:
        gens.append((F.zero,) * n)
    return gens


def _cases(q, n, seed):
    F = small_field(q)
    rng = random.Random(seed * 1000 + q)
    space = [tuple(t) for t in itertools.product(F.elements(), repeat=n)]
    for _ in range(TRIALS):
        yield F, rng, space, _random_gens(rng, F, n)


@pytest.mark.parametrize("q,n", FIELDS)
def test_echelon_shape(q, n):
    for F, _, _, gens in _cases(q, n, 1):
        E = Echelon(gens)
        assert len(E.pivots) == len(E) and list(E.pivots) == sorted(set(E.pivots))
        for i, row in enumerate(E):
            assert [row[p] for p in E.pivots] == [F.one if j == i else F.zero
                                                 for j in range(len(E))]
            assert not any(row[:E.pivots[i]])
        assert Echelon(list(E)) == E


@pytest.mark.parametrize("q,n", FIELDS)
def test_membership_and_coords_match_enumeration(q, n):
    for F, _, space, gens in _cases(q, n, 2):
        E = Echelon(gens)
        inside = _span_keys(F, gens, n)
        assert len(inside) == q ** len(E)
        for v in space:
            cs = E.coords(v)
            assert E.contains(v) == (_key(v) in inside) == (cs is not None)
            if cs is not None:
                assert len(cs) == len(E)
                assert _lin(F, cs, E, n) == v
                if E:
                    assert E.combine(cs) == v


@pytest.mark.parametrize("q,n", FIELDS)
def test_projection_kernel_is_the_span(q, n):
    for F, rng, space, gens in _cases(q, n, 3):
        E = Echelon(gens)
        inside = _span_keys(F, gens, n)
        zero = (F.zero,) * (n - len(E))
        images = set()
        for v in space:
            p = E.project(v)
            assert len(p) == n - len(E)
            assert (p == zero) == (_key(v) in inside)
            images.add(_key(p))
        assert len(images) == q ** (n - len(E))
        for _ in range(20):
            u, v = rng.choice(space), rng.choice(space)
            uv = tuple(a + b for a, b in zip(u, v))
            assert E.project(uv) == tuple(a + b for a, b in zip(E.project(u), E.project(v)))


@pytest.mark.parametrize("q,n", FIELDS)
def test_intersection_matches_set_intersection(q, n):
    for F, rng, _, gens in _cases(q, n, 4):
        other = _random_gens(rng, F, n)
        if gens and rng.random() < 0.5:
            other.append(rng.choice(gens))      # force a shared vector
        A, B = Echelon(gens), Echelon(other)
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
        E = Echelon(gens)
        assert len(E) == len(rref(gens)[1])
        for _ in range(6):
            w = _qcomb([Fraction(rng.randrange(-4, 5)) for _ in gens], gens, n)
            cs = E.coords(w)
            assert E.contains(w) and cs is not None
            assert _qcomb(cs, E, n) == w
            v = _qvec(rng, n)
            grows = len(rref(gens + [v])[1]) > len(E)
            assert E.contains(v) != grows
            assert (E.coords(v) is None) == grows
            assert (not any(E.project(v))) != grows
            assert E.project(v) == E.project(tuple(a + b for a, b in zip(v, w)))


def test_rational_intersection_dimension_and_containment():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(1, 7)
        shared = [_qvec(rng, n) for _ in range(rng.randrange(n // 2 + 1))]
        A = Echelon(_qspan(rng, n, rng.randrange(n // 2 + 1), shared))
        B = Echelon(_qspan(rng, n, rng.randrange(n // 2 + 1), shared))
        meet = intersection(A, B)
        assert all(A.contains(v) and B.contains(v) for v in meet)
        assert all(meet.contains(v) for v in shared)
        assert len(meet) == len(A) + len(B) - len(Echelon(list(A) + list(B)))
