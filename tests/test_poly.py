import itertools
import random
from fractions import Fraction

import pytest

from l2lab.exact import next_prime
from l2lab.finitealg import small_field
from l2lab.poly import (QQ, Poly, factor_mod_p, factor_over_Q,
                        factor_over_number_field, interpolate, is_separable,
                        poly_gcd, resultant_monic)


def Q(*ints):
    return Poly.from_ints(QQ, list(ints))


# --- gcd and separability -------------------------------------------------

def test_gcd_basic():
    assert poly_gcd(Q(-1, 0, 1), Q(-1, 1)) == Q(-1, 1)          # (X^2-1, X-1)


def test_gcd_idempotent_monic():
    f = Q(2, 4, 2)
    assert poly_gcd(f, f) == Q(1, 2, 1)


def test_gcd_certifies_squarefree():
    f = Q(-2, 0, 0, 0, 1)
    assert poly_gcd(f, f.derivative()) == Q(1)


def test_gcd_both_zero():
    with pytest.raises(ValueError):
        poly_gcd(Q(), Q())


@pytest.mark.parametrize("coeffs,expected", [
    ([-2, 0, 0, 0, 1], True),        # X^4 - 2
    ([0, 0, 1], False),              # X^2
    ([1, 0, -10, 0, 1], True),       # X^4 - 10 X^2 + 1
])
def test_is_separable(coeffs, expected):
    assert is_separable(Q(*coeffs)) is expected


# --- factorization over prime fields --------------------------------------

def _brute_force_irreducibles(p, maxdeg):
    """All monic irreducibles of degree <= maxdeg over F_p, by trial
    division against every lower-degree monic polynomial."""
    dom = small_field(p)
    by_degree = {0: [Poly.from_ints(dom, [1])]}
    monics = {}
    for d in range(1, maxdeg + 1):
        monics[d] = [Poly.from_ints(dom, list(tail) + [1])
                     for tail in itertools.product(range(p), repeat=d)]
    irred = {}
    for d in range(1, maxdeg + 1):
        irred[d] = []
        for f in monics[d]:
            divisible = False
            for e in range(1, d):
                for g in irred.get(e, []):
                    if (f % g).is_zero:
                        divisible = True
                        break
                if divisible:
                    break
            if not divisible:
                irred[d].append(f)
    return irred


def test_factor_x2_plus_1_mod_5_exhaustive():
    dom = small_field(5)
    f = Poly.from_ints(dom, [1, 0, 1])
    roots = [r for r in range(5) if (r * r + 1) % 5 == 0]
    assert sorted(roots) == [2, 3]
    fac = factor_mod_p(f)
    expect = sorted([Poly.from_ints(dom, [5 - r, 1]) for r in roots],
                    key=lambda g: g.sort_key())
    assert [g for g, m in fac.factors] == expect
    assert all(m == 1 for _, m in fac.factors)


def test_factor_x2_plus_1_mod_3_irreducible():
    dom = small_field(3)
    f = Poly.from_ints(dom, [1, 0, 1])
    assert all((r * r + 1) % 3 != 0 for r in range(3))
    fac = factor_mod_p(f)
    assert len(fac.factors) == 1 and fac.factors[0] == (f, 1)


def test_factor_x_mod_7():
    dom = small_field(7)
    f = Poly.x(dom)
    fac = factor_mod_p(f)
    assert fac.factors == [(f, 1)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_mod_p_recovers_known_products(p):
    irred = _brute_force_irreducibles(p, 3)
    pool = irred[1] + irred[2] + irred[3]
    rng = random.Random(p * 101)
    for _ in range(12):
        chosen = {}
        for _ in range(rng.randrange(1, 4)):
            g = pool[rng.randrange(len(pool))]
            chosen[g.cs] = (g, chosen.get(g.cs, (g, 0))[1] + rng.randrange(1, 3))
        f = Poly.from_ints(small_field(p), [1])
        for g, m in chosen.values():
            for _ in range(m):
                f = f * g
        fac = factor_mod_p(f)
        assert fac.expand() == f
        assert sorted((g.cs, m) for g, m in fac.factors) == \
            sorted((g.cs, m) for g, m in chosen.values())


def test_factor_mod_p_pth_power():
    dom = small_field(2)
    g = Poly.from_ints(dom, [1, 1])          # X + 1
    f = g * g * g * g                         # (X+1)^4, derivative 0
    fac = factor_mod_p(f)
    assert fac.factors == [(g, 4)]


def test_factor_mod_p_refuses_non_prime_field():
    F4 = small_field(4)
    with pytest.raises(ValueError, match="prime field"):
        factor_mod_p(Poly.from_ints(F4, [1, 1, 1]))


# --- factorization over Q --------------------------------------------------

def test_factor_over_Q_x4_minus_2_irreducible():
    fac = factor_over_Q(Q(-2, 0, 0, 0, 1))
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_factor_over_Q_difference_of_squares():
    fac = factor_over_Q(Q(-1, 0, 1))
    assert [(g, m) for g, m in fac.factors] == [(Q(-1, 1), 1), (Q(1, 1), 1)]


def test_factor_over_Q_biquadratic_irreducible():
    fac = factor_over_Q(Q(1, 0, -10, 0, 1))
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_factor_over_Q_multiplicities_and_unit():
    f = Q(-1, 1) * Q(-1, 1) * Q(2, 1) * Q(2, 1) * Q(2, 1)
    f = f.mul_scalar(Fraction(3, 2))
    fac = factor_over_Q(f)
    assert fac.unit == Fraction(3, 2)
    assert sorted((g.cs, m) for g, m in fac.factors) == \
        [(Q(-1, 1).cs, 2), (Q(2, 1).cs, 3)]
    assert fac.expand() == f


def test_factor_over_Q_rational_coefficients():
    f = Q(1, 2).mul_scalar(Fraction(1, 3)) * Q(-5, 0, 1)
    fac = factor_over_Q(f)
    assert fac.expand() == f


def test_factor_over_Q_cyclotomic_product():
    # X^6 - 1 = (X-1)(X+1)(X^2+X+1)(X^2-X+1)
    fac = factor_over_Q(Q(-1, 0, 0, 0, 0, 0, 1))
    degs = sorted(g.degree for g, _ in fac.factors)
    assert degs == [1, 1, 2, 2]
    assert fac.expand() == Q(-1, 0, 0, 0, 0, 0, 1)


def test_factor_over_Q_large_irreducible():
    # Eisenstein at 3: X^8 + 3X + 3
    f = Q(3, 3, 0, 0, 0, 0, 0, 0, 1)
    fac = factor_over_Q(f)
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_factor_over_Q_refines_mod_good_prime():
    rng = random.Random(5)
    f = Q(-1, 1) * Q(1, 1, 1) * Q(3, 0, 1)
    fac = factor_over_Q(f)
    p = 1
    while True:
        p = next_prime(p + rng.randrange(0, 10))
        dom = small_field(p)
        fp = f.map_coeffs(dom, lambda c: dom.from_int(c.numerator)
                          * dom.from_int(c.denominator) ** (p - 2))
        if fp.degree == f.degree and poly_gcd(fp, fp.derivative()).degree == 0:
            break
    for g, _ in fac.factors:
        gp = g.map_coeffs(dom, lambda c: dom.from_int(c.numerator)
                          * dom.from_int(c.denominator) ** (p - 2))
        assert (fp % gp).is_zero


# --- resultants and interpolation ------------------------------------------

def test_resultant_is_product_over_roots():
    rng = random.Random(3)
    for _ in range(15):
        roots = [Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 4))]
        a = Q(1)
        for r in roots:
            a = a * Poly(QQ, [-r, Fraction(1)])
        b = Q(*[rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))])
        if b.is_zero:
            continue
        expected = Fraction(1)
        for r in roots:
            expected *= b.evaluate(r)
        assert resultant_monic(a, b) == expected


def test_interpolation_roundtrip():
    rng = random.Random(11)
    for _ in range(10):
        f = Q(*[rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
        xs = [Fraction(i) for i in range(f.degree + 2)]
        ys = [f.evaluate(x) for x in xs]
        assert interpolate(QQ, xs, ys) == f


# --- factorization over number fields --------------------------------------

def test_trager_x4_minus_2():
    from l2lab.numberfield import make_field
    L = make_field(Q(-2, 0, 0, 0, 1))
    fL = L.defining.map_coeffs(L, L.from_rational)
    fac = factor_over_number_field(fL, L)
    x = L.gen()
    expect = {
        Poly(L, [-x, L.one]).cs,                      # X - x
        Poly(L, [x, L.one]).cs,                       # X + x
        Poly(L, [x * x, L.zero, L.one]).cs,           # X^2 + x^2
    }
    assert {g.cs for g, _ in fac.factors} == expect
    assert fac.expand() == fL


def test_trager_biquadratic_has_inverse_root_factor():
    from l2lab.numberfield import make_field
    L = make_field(Q(1, 0, -10, 0, 1))
    fL = L.defining.map_coeffs(L, L.from_rational)
    fac = factor_over_number_field(fL, L)
    xinv = L.gen().inverse()
    assert Poly(L, [-xinv, L.one]).cs in {g.cs for g, _ in fac.factors}
    assert sum(g.degree for g, _ in fac.factors) == 4
    assert len(fac.factors) == 4


def test_trager_linear_input():
    from l2lab.numberfield import make_field
    L = make_field(Q(-2, 0, 1))
    f = Poly(L, [L.gen(), L.one])
    fac = factor_over_number_field(f, L)
    assert fac.factors == [(f, 1)]


def test_trager_rejects_non_squarefree():
    from l2lab.numberfield import make_field
    L = make_field(Q(-2, 0, 1))
    f = Poly(L, [L.gen(), L.one])
    with pytest.raises(ValueError, match="squarefree"):
        factor_over_number_field(f * f, L)


def test_trager_composite_input_over_biquadratic():
    # (X^2-2)(X^2-3) splits into four linear factors over Q(sqrt2+sqrt3)
    from l2lab.numberfield import make_field
    L = make_field(Q(1, 0, -10, 0, 1))
    f = (Q(-2, 0, 1) * Q(-3, 0, 1)).map_coeffs(L, L.from_rational)
    fac = factor_over_number_field(f, L)
    assert sorted(g.degree for g, _ in fac.factors) == [1, 1, 1, 1]
    assert fac.expand() == f


def test_trager_keeps_irreducible():
    from l2lab.numberfield import make_field
    L = make_field(Q(-2, 0, 1))
    g = Q(1, 0, 1).map_coeffs(L, L.from_rational)   # X^2 + 1 over a real field
    fac = factor_over_number_field(g, L)
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_trager_non_monic_unit():
    from l2lab.numberfield import make_field
    L = make_field(Q(-2, 0, 1))
    h = Q(1, 0, 1).map_coeffs(L, L.from_rational).mul_scalar(L.from_int(3))
    fac = factor_over_number_field(h, L)
    assert fac.unit == L.from_int(3) and fac.expand() == h


def test_trager_nontrivial_shift_needed():
    # Over Q(sqrt2), X^2 - 2 = (X - x)(X + x): the zero shift has a
    # repeated norm root, so the shift search must move past s = 0.
    from l2lab.numberfield import make_field
    L = make_field(Q(-2, 0, 1))
    x = L.gen()
    f = Poly(L, [L.from_int(-2), L.zero, L.one])
    fac = factor_over_number_field(f, L)
    assert {g.cs for g, _ in fac.factors} == \
        {Poly(L, [-x, L.one]).cs, Poly(L, [x, L.one]).cs}


# --- prime choice for Berlekamp-Zassenhaus ---------------------------------

@pytest.mark.parametrize("text", ["X^4-2", "X^4-10*X^2+1", "X^3-3*X+1",
                                  "X^6+108", "X^6-2", "X^8-2"])
def test_trager_norm_distinct_degree_counts(text, monkeypatch):
    # factor_over_Q ranks candidate primes by distinct-degree counts; on
    # each Trager norm those counts must equal the full factor counts, so
    # the prime it keeps is the one the full factorizations would pick.
    from l2lab import poly
    from l2lab.numberfield import make_field
    from l2lab.parsing import parse_polynomial

    L = make_field(parse_polynomial(text))
    norms = []
    real = poly._factor_squarefree_monic_int

    def spy(G):
        norms.append(list(G))
        return real(G)

    monkeypatch.setattr(poly, "_factor_squarefree_monic_int", spy)
    factor_over_number_field(L.defining.map_coeffs(L, L.from_rational), L)
    assert norms
    for G in norms:
        scanned = itertools.islice(poly._squarefree_primes(G), poly._BZ_PRIME_TRIES)
        for p, gp in scanned:
            count = poly._factor_count(poly._pddf(gp, p))
            assert count == len(factor_mod_p(Poly.from_ints(small_field(p), G)).factors)
