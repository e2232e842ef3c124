"""Differential tests of the factoring routines against sympy.

sympy serves only as an independent oracle here; l2lab never imports it.
"""

import math
import random
from fractions import Fraction

import pytest

from l2lab import intpoly
from l2lab.numberfield import make_field
from l2lab.parsing import parse_polynomial
from l2lab.poly import Poly, factor_mod_p, factor_over_Q

from gfelem import gf
import nfelem

sympy = pytest.importorskip("sympy")
from sympy.polys.specialpolys import swinnerton_dyer_poly  # noqa: E402
x = sympy.Symbol("x")
y = sympy.Symbol("y")

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _expr(ints):
    return sum(c * x ** i for i, c in enumerate(ints))


def _sympy_mod_p(ints, p):
    """sympy's factorization mod p as sorted (monic coefficients, mult)."""
    _, facs = sympy.Poly(_expr(ints), x, modulus=p).factor_list()
    out = []
    for g, m in facs:
        cs = [int(c) % p for c in reversed(g.all_coeffs())]
        inv = pow(cs[-1], -1, p)
        out.append((tuple(c * inv % p for c in cs), m))
    return sorted(out)


def _random_mod_p_input(rng, p):
    """A product of random pieces of total degree <= 40, with repeated
    factors and, where it fits, a p-th power."""
    F = gf(p)
    f = nfelem.Poly(F, [F.element(rng.randrange(1, p))])
    while f.degree < 40:
        d = rng.randrange(1, 7)
        piece = nfelem.Poly(F, map(F.element, [rng.randrange(p) for _ in range(d)] + [1]))
        mult = rng.choice([1, 1, 2, 3, p])
        if f.degree + d * mult > 40:
            break
        for _ in range(mult):
            f = f * piece
        if rng.random() < 0.3:
            break
    return [c.i for c in f.cs]


@pytest.mark.parametrize("p", PRIMES)
def test_factor_mod_p_matches_sympy(p):
    rng = random.Random(1000 + p)
    inputs = [_random_mod_p_input(rng, p) for _ in range(5)]
    # dense random polynomials, degree up to 40
    for _ in range(2):
        n = rng.randrange(1, 41)
        inputs.append([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)])
    for ints in inputs:
        f = [c % p for c in ints]
        while f and not f[-1]:
            f.pop()
        if len(f) < 2:
            continue
        unit, factors = factor_mod_p(ints, p)
        ours = sorted((tuple(g), m) for g, m in factors)
        assert ours == _sympy_mod_p(ints, p), (p, ints)
        assert unit == f[-1]
        assert [g for g, _ in factors] == sorted((g for g, _ in factors),
                                                 key=lambda g: (len(g), g))


def _random_irreducible(rng):
    while True:
        d = rng.randrange(1, 6)
        ints = [rng.randrange(-9, 10) for _ in range(d)] + [rng.choice([1, 1, 2, -3])]
        if sympy.Poly(_expr(ints), x).is_irreducible:
            return ints


@pytest.mark.parametrize("seed", range(6))
def test_factor_over_Q_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(4):
        f = Poly([Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))])
        for _ in range(rng.randrange(1, 5)):
            g = Poly(map(Fraction, _random_irreducible(rng)))
            for _ in range(rng.choice([1, 1, 2])):
                f = f * g
        _assert_factor_over_Q_matches_sympy(f)


def _assert_factor_over_Q_matches_sympy(f):
    fac = factor_over_Q(f)
    _, facs = sympy.factor_list(_rational_expr(f, x), x)
    expect = []
    for g, m in facs:
        cs = [Fraction(int(c)) for c in reversed(sympy.Poly(g, x).all_coeffs())]
        expect.append((tuple(c / cs[-1] for c in cs), m))
    assert sorted((g.cs, m) for g, m in fac.factors) == sorted(expect)
    assert fac.unit == f.lc
    return fac


@pytest.mark.parametrize("n", [3, 4, 5])
def test_swinnerton_dyer_irreducible(n):
    # S_n, irreducible of degree 2^n, has at least 2^(n-1) factors modulo
    # every prime, so the subset search must reject every subset of up to
    # half of them
    sd = sympy.Poly(swinnerton_dyer_poly(n, x), x)
    f = Poly([Fraction(int(c)) for c in reversed(sd.all_coeffs())])
    fac = _assert_factor_over_Q_matches_sympy(f)
    assert fac.factors == [(f, 1)]


def _rational_expr(f, var):
    return sum(sympy.Rational(c.numerator, c.denominator) * var ** i
               for i, c in enumerate(f.cs))


@pytest.mark.parametrize("text", ["X^4-2", "X^3-X/3+5/7", "X^6+108"])
def test_trager_norm_matches_sympy_resultant(text):
    # the norm N comes as the monic integer list d^D N(X/d), d the lcm
    # of the denominators of L's defining polynomial
    L = make_field(parse_polynomial(text))
    d = math.lcm(*(c.denominator for c in L.defining.cs))
    F = [int(c * d ** (L.n - i)) for i, c in enumerate(L.defining.cs)]
    for s in range(3):
        M = intpoly._norm_with_shift(F, F, s)
        res = sympy.resultant(_rational_expr(L.defining, y),
                              _rational_expr(L.defining, x - s * y), y)
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(res, x).all_coeffs())]
        D = len(cs) - 1
        assert M == [c * d ** (D - i) for i, c in enumerate(cs)], s
