import random
from fractions import Fraction

import pytest

from l2lab import exact
from l2lab.poly import QQ, Poly
from l2lab.numberfield import (NFElement, NumberField, Subfield, intersect_subfields,
                               make_field, poly_str, prime_subfield, subfield_of_span,
                               whole_field)


def nf_inverse(a):
    """a^(-1) in L = Q[x]/(f), by extended Euclid on a's coordinate
    polynomial and f: s*a + t*f = 1.  The oracle for the tests that need
    an inverse; production never divides by an element of L."""
    if not a:
        raise ZeroDivisionError("inverse of zero")
    L = a.field
    r0, r1 = Poly(QQ, a.coords), L.defining
    s0, s1 = Poly.const(QQ, Fraction(1)), Poly(QQ, [])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    assert r0.degree == 0, "defining polynomial is not irreducible"
    s = s0.mul_scalar(Fraction(1) / r0.cs[0])
    return L.element(list(s.cs) + [0] * (L.n - len(s.cs)))


def subfield_generated(L, gens):
    """Smallest subfield of L containing Q and the given elements.

    Adjoins pairwise products and re-echelonizes until the dimension
    stabilizes; terminates in at most n rounds since the dimension
    strictly increases.
    """
    span = exact.Echelon([L.one.coords] + [g.coords for g in gens], exact.QQ_OPS)
    while True:
        rows = list(span)
        prods = list(span)
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                prods.append(L.mul(rows[i], rows[j]))
        grown = exact.Echelon(prods, exact.QQ_OPS)
        if len(grown) == len(span):
            break
        span = grown
    return subfield_of_span(L, span)


def Q(*ints):
    return Poly(QQ, map(Fraction, ints))


@pytest.fixture(scope="module")
def L4():
    return make_field(Q(-2, 0, 0, 0, 1))      # Q[x]/(X^4 - 2)


@pytest.fixture(scope="module")
def L2():
    return make_field(Q(-2, 0, 1))            # Q[x]/(X^2 - 2)


def test_make_field_degree(L4):
    assert L4.n == 4


def test_make_field_rejects_reducible():
    with pytest.raises(ValueError, match="not a field"):
        make_field(Q(-1, 0, 1))


def test_make_field_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        make_field(Q(1, 0, 2))


def test_make_field_degree_six():
    L = make_field(Q(108, 0, 0, 0, 0, 0, 1))
    assert L.n == 6


def test_nf_mul_sqrt2(L2):
    x = L2.gen()
    assert x * x == L2.from_rational(2)


def test_nf_mul_identity(L4):
    a = L4.element([1, 2, 3, 4])
    assert a * L4.one == a


def test_nf_mul_power_reduction(L4):
    x = L4.gen()
    assert x * (x * x * x) == L4.from_rational(2)


def test_nf_inverse(L4):
    rng = random.Random(4)
    for _ in range(10):
        a = L4.element([rng.randrange(-3, 4) for _ in range(4)])
        if not a:
            continue
        assert a * nf_inverse(a) == L4.one


def test_nf_element_is_only_a_coefficient():
    # L's arithmetic never divides: no element has an inverse
    assert not hasattr(NFElement, "inverse")
    assert not hasattr(NFElement, "__truediv__")
    assert not any(hasattr(NumberField, name) for name in ("from_poly", "from_int", "_mul"))
    assert "span" not in Subfield.__slots__


def test_mul_on_coordinate_tuples(L4):
    # (1 + x)(1 - x + x^2 - x^3) = 1 - x^4 = -1 in Q[x]/(x^4 - 2)
    assert L4.mul((1, 1, 0, 0), (1, -1, 1, -1)) == (-1, 0, 0, 0)
    assert L4.gen_powers == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                             (2, 0, 0, 0)]


def test_min_poly_of_sqrt2_subfield(L4):
    x = L4.gen()
    K = subfield_generated(L4, [x * x])
    assert K.dim == 2
    # X^2 - x^2
    expect = Poly(L4, [-(x * x), L4.zero, L4.one])
    assert K.min_poly == expect


def test_min_poly_of_whole_field(L4):
    W = whole_field(L4)
    assert W.min_poly == Poly(L4, [-L4.gen(), L4.one])


def test_min_poly_of_prime_field(L4):
    K = prime_subfield(L4)
    assert K.min_poly == L4.defining.map_coeffs(L4, L4.from_rational)


def test_subfield_generated_empty_is_Q(L4):
    K = subfield_generated(L4, [])
    assert K.dim == 1


def test_subfield_generated_whole(L4):
    assert subfield_generated(L4, [L4.gen()]).is_full()


def test_intersection_idempotent(L4):
    K = subfield_generated(L4, [L4.gen() * L4.gen()])
    assert intersect_subfields(K, K) == K


def test_intersection_with_whole(L4):
    K = subfield_generated(L4, [L4.gen() * L4.gen()])
    assert intersect_subfields(K, whole_field(L4)) == K


def test_intersection_of_distinct_quadratics_is_Q():
    # inside Q(sqrt2 + sqrt3): Q(sqrt3) meet Q(sqrt2) = Q
    L = make_field(Q(1, 0, -10, 0, 1))
    x = L.gen()
    x3 = x * x * x
    half = L.from_rational(Fraction(-1, 2))
    sqrt2 = (x3 - x * L.from_rational(9)) * half
    sqrt3 = (x3 - x * L.from_rational(11)) * half
    assert sqrt2 * sqrt2 == L.from_rational(2)
    assert sqrt3 * sqrt3 == L.from_rational(3)
    A = subfield_generated(L, [sqrt2])
    B = subfield_generated(L, [sqrt3])
    assert A.dim == B.dim == 2 and A != B
    assert intersect_subfields(A, B).dim == 1


def test_K_equals_K_of_its_min_poly(L4):
    # K = subfield generated by the coefficients of f_K
    for K in [prime_subfield(L4),
              subfield_generated(L4, [L4.gen() * L4.gen()]),
              whole_field(L4)]:
        regen = subfield_generated(L4, list(K.min_poly.cs))
        assert regen == K


def test_min_poly_divides_defining(L4):
    f_over_L = L4.defining.map_coeffs(L4, L4.from_rational)
    for K in [prime_subfield(L4),
              subfield_generated(L4, [L4.gen() * L4.gen()]),
              whole_field(L4)]:
        assert (f_over_L % K.min_poly).is_zero
        assert K.min_poly.degree * K.dim == L4.n


@pytest.mark.parametrize("coeffs,separable", [
    ([-2, 0, 0, 0, 1], True),        # X^4 - 2
    ([0, 0, 1], False),              # X^2
    ([1, 0, -10, 0, 1], True),       # X^4 - 10 X^2 + 1
    ([4, 0, -4, 0, 1], False),       # (X^2 - 2)^2
])
def test_make_field_reads_separability_off_the_factorization(coeffs, separable):
    f = Q(*coeffs)
    if separable:
        assert make_field(f).defining == f
    else:
        with pytest.raises(ValueError, match="separable required"):
            make_field(f)


def test_poly_str_roundtrippable_forms():
    assert poly_str(Q(-2, 0, 0, 0, 1)) == "X^4 - 2"
    assert poly_str(Q(1, 0, -10, 0, 1)) == "X^4 - 10*X^2 + 1"
    assert poly_str(Q()) == "0"
    assert poly_str(Q(0, -1)) == "-X"
