import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from l2lab import exact
from l2lab.poly import Poly
from l2lab.numberfield import (NumberField, Subfield, intersect_subfields, make_field,
                               poly_str, subfield_of_span, whole_field)
from l2lab.parsing import parse_polynomial
import nfelem
from nfelem import lift, nf, nf_inverse, over_L, prime_subfield

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402


def subfield_generated(L, gens):
    """Smallest subfield of L containing Q and the given elements.

    Adjoins pairwise products and re-echelonizes until the dimension
    stabilizes; terminates in at most n rounds since the dimension
    strictly increases.
    """
    span = exact.Echelon([L.gen_powers[0]] + [g.coords for g in gens], exact.QQ_OPS)
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
    return Poly(map(Fraction, ints))


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
    x = nf(L2).gen()
    assert x * x == nf(L2).from_rational(2)


def test_nf_mul_identity(L4):
    a = nf(L4).element([1, 2, 3, 4])
    assert a * nf(L4).one == a


def test_nf_mul_power_reduction(L4):
    x = nf(L4).gen()
    assert x * (x * x * x) == nf(L4).from_rational(2)


def test_nf_inverse(L4):
    rng = random.Random(4)
    for _ in range(10):
        a = nf(L4).element([rng.randrange(-3, 4) for _ in range(4)])
        if not a:
            continue
        assert a * nf_inverse(a) == nf(L4).one


def test_number_field_keeps_no_element_objects():
    # L's arithmetic is on coordinate tuples, and no element is inverted
    assert not any(hasattr(NumberField, name) for name in (
        "from_poly", "from_int", "_mul", "zero", "one", "gen", "from_rational", "element"))
    assert "span" not in Subfield.__slots__


def test_mul_on_coordinate_tuples(L4):
    # (1 + x)(1 - x + x^2 - x^3) = 1 - x^4 = -1 in Q[x]/(x^4 - 2)
    assert L4.mul((1, 1, 0, 0), (1, -1, 1, -1)) == (-1, 0, 0, 0)
    assert L4.gen_powers == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                             (2, 0, 0, 0)]


@pytest.mark.parametrize("text", [f for _, f, _, _ in corpus.FIELDS])
def test_tuple_arithmetic_matches_the_oracle(text):
    # product, remainder by a monic and value at x on coordinate-tuple
    # lists, against Poly over nf(L) on seeded random polynomials
    L = make_field(parse_polynomial(text))
    rng = random.Random("tuples:" + text)

    def random_poly(degree):
        return [tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(L.n))
                for _ in range(degree + 1)]

    for _ in range(20):
        a, b = random_poly(rng.randrange(-1, 7)), random_poly(rng.randrange(-1, 4))
        m = random_poly(rng.randrange(0, 4)) + [L.gen_powers[0]]
        A, B, M = over_L(L, a), over_L(L, b), over_L(L, m)
        assert over_L(L, L.poly_mul(a, b)) == A * B
        rem = L.poly_rem(a, m)
        assert len(rem) == len(m) - 1 and over_L(L, rem) == A % M
        assert L.poly_at_x(a) == A.evaluate(nf(L).gen()).coords


def test_min_poly_of_sqrt2_subfield(L4):
    F = nf(L4)
    x = F.gen()
    K = subfield_generated(L4, [x * x])
    assert K.dim == 2
    # X^2 - x^2
    assert over_L(L4, K.min_poly) == nfelem.Poly(nf(L4), [-(x * x), F.zero, F.one])


def test_min_poly_of_whole_field(L4):
    W = whole_field(L4)
    assert over_L(L4, W.min_poly) == nfelem.Poly(nf(L4), [-nf(L4).gen(), nf(L4).one])


def test_min_poly_of_prime_field(L4):
    K = prime_subfield(L4)
    assert over_L(L4, K.min_poly) == lift(L4, L4.defining)


def test_subfield_generated_empty_is_Q(L4):
    K = subfield_generated(L4, [])
    assert K.dim == 1


def test_subfield_generated_whole(L4):
    assert subfield_generated(L4, [nf(L4).gen()]).is_full()


def test_intersection_idempotent(L4):
    K = subfield_generated(L4, [nf(L4).gen() * nf(L4).gen()])
    assert intersect_subfields(K, K) == K


def test_intersection_with_whole(L4):
    K = subfield_generated(L4, [nf(L4).gen() * nf(L4).gen()])
    assert intersect_subfields(K, whole_field(L4)) == K


def test_intersection_of_distinct_quadratics_is_Q():
    # inside Q(sqrt2 + sqrt3): Q(sqrt3) meet Q(sqrt2) = Q
    L = make_field(Q(1, 0, -10, 0, 1))
    F = nf(L)
    x = F.gen()
    x3 = x * x * x
    half = F.from_rational(Fraction(-1, 2))
    sqrt2 = (x3 - x * F.from_rational(9)) * half
    sqrt3 = (x3 - x * F.from_rational(11)) * half
    assert sqrt2 * sqrt2 == F.from_rational(2)
    assert sqrt3 * sqrt3 == F.from_rational(3)
    A = subfield_generated(L, [sqrt2])
    B = subfield_generated(L, [sqrt3])
    assert A.dim == B.dim == 2 and A != B
    assert intersect_subfields(A, B).dim == 1


def test_K_equals_K_of_its_min_poly(L4):
    # K = subfield generated by the coefficients of f_K
    x = nf(L4).gen()
    for K in [prime_subfield(L4), subfield_generated(L4, [x * x]), whole_field(L4)]:
        regen = subfield_generated(L4, list(over_L(L4, K.min_poly).cs))
        assert regen == K


def test_min_poly_divides_defining(L4):
    f_over_L = lift(L4, L4.defining)
    x = nf(L4).gen()
    for K in [prime_subfield(L4), subfield_generated(L4, [x * x]), whole_field(L4)]:
        assert (f_over_L % over_L(L4, K.min_poly)).is_zero
        assert (len(K.min_poly) - 1) * K.dim == L4.n


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
