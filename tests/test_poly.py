import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from l2lab import caps, intpoly, numberfield, poly
from l2lab.cli import main
from l2lab.errors import CapExceeded, ConsistencyError
from l2lab.exact import next_prime
from l2lab.numberfield import NumberField, make_field
from l2lab.parsing import parse_polynomial
from l2lab.poly import (Poly, factor_mod_p, factor_over_Q, factor_over_number_field,
                        poly_gcd)

import nfelem
from gfelem import gf
from nfelem import QQ, lift, nf, nf_inverse, over_L


def shift(f, c):
    """Taylor shift: the polynomial f(X + c), f a ``nfelem.Poly``."""
    dom = f.dom
    acc = nfelem.Poly(dom, [])
    xpc = nfelem.Poly(dom, [c, dom.one])
    for a in reversed(f.cs):
        acc = acc * xpc + nfelem.Poly.const(dom, a)
    return acc


def Q(*ints):
    return Poly(map(Fraction, ints))


def expand_over_L(L, unit, factors):
    """unit * prod(h^m) over L, on ``nfelem.Poly``, for
    ``factor_over_number_field``'s result."""
    acc = nfelem.Poly(nf(L), [nf(L).from_rational(unit)])
    for h, m in factors:
        for _ in range(m):
            acc = acc * over_L(L, h)
    return acc


def denominator_lcm(*gs):
    """The lcm of the denominators of the rational polynomials gs."""
    return math.lcm(*(c.denominator for g in gs for c in g.cs))


def scaled(g, d):
    """d^m g(X/d) as an int list, for monic g over Q of degree m (a
    ``Poly`` or a ``nfelem.Poly``) whose scaling by d is integral."""
    m = len(g.cs) - 1
    out = [c * d ** (m - i) for i, c in enumerate(g.cs)]
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out]


def unscaled(G, d):
    """The monic g in Q[X] with scaled(g, d) = G."""
    k = len(G) - 1
    return Poly(Fraction(c, d ** (k - i)) for i, c in enumerate(G))


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


# --- factorization over prime fields --------------------------------------

def _brute_force_irreducibles(p, maxdeg):
    """All monic irreducibles of degree <= maxdeg over F_p, by trial
    division against every lower-degree monic polynomial, as ``Poly``
    over ``gf(p)``, each degree's list in the order of its coefficients."""
    dom = gf(p)
    monics = {}
    for d in range(1, maxdeg + 1):
        monics[d] = [nfelem.Poly(dom, map(dom.element, list(tail) + [1]))
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


def _ints(f):
    return [c.i for c in f.cs]


def test_factor_x2_plus_1_mod_5_exhaustive():
    roots = [r for r in range(5) if (r * r + 1) % 5 == 0]
    assert sorted(roots) == [2, 3]
    unit, factors = factor_mod_p([1, 0, 1], 5)
    assert unit == 1
    assert factors == sorted(([5 - r, 1], 1) for r in roots)


def test_factor_x2_plus_1_mod_3_irreducible():
    assert all((r * r + 1) % 3 != 0 for r in range(3))
    assert factor_mod_p([1, 0, 1], 3) == (1, [([1, 0, 1], 1)])


def test_factor_x_mod_7():
    assert factor_mod_p([0, 1], 7) == (1, [([0, 1], 1)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_mod_p_recovers_known_products(p):
    irred = _brute_force_irreducibles(p, 3)
    pool = irred[1] + irred[2] + irred[3]
    rng = random.Random(p * 101)
    dom = gf(p)
    for _ in range(12):
        chosen = {}
        for _ in range(rng.randrange(1, 4)):
            g = pool[rng.randrange(len(pool))]
            chosen[g.cs] = (g, chosen.get(g.cs, (g, 0))[1] + rng.randrange(1, 3))
        f = nfelem.Poly(dom, [dom.one])
        for g, m in chosen.values():
            for _ in range(m):
                f = f * g
        unit, factors = factor_mod_p(_ints(f), p)
        product = nfelem.Poly(dom, [dom.element(unit)])
        for g, m in factors:
            for _ in range(m):
                product = product * nfelem.Poly(dom, map(dom.element, g))
        assert product == f
        assert sorted((tuple(g), m) for g, m in factors) == \
            sorted((tuple(_ints(g)), m) for g, m in chosen.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_mod_p_matches_the_poly_oracle_up_to_degree_4(p):
    """Every monic polynomial of degree <= 4 over F_p, and a non-monic
    multiple of it, against the products of the brute-force irreducibles
    on ``Poly``: each is reached once, by its own factorization."""
    irred = _brute_force_irreducibles(p, 4)
    pool = [g for d in sorted(irred) for g in irred[d]]
    dom = gf(p)
    expect = {}

    def extend(start, f, chosen):
        key = tuple(_ints(f))
        assert key not in expect
        expect[key] = [(_ints(pool[k]), chosen.count(k)) for k in sorted(set(chosen))]
        for k in range(start, len(pool)):
            if f.degree + pool[k].degree <= 4:
                extend(k, f * pool[k], chosen + [k])

    extend(0, nfelem.Poly(dom, [dom.one]), [])
    assert len(expect) == sum(p ** d for d in range(5))
    for key, factors in expect.items():
        assert factor_mod_p(list(key), p) == (1, factors)
        unit = len(key) % (p - 1) + 1 if p > 2 else 1
        assert factor_mod_p([unit * c for c in key], p) == (unit, factors)


def test_factor_mod_p_pth_power():
    # (X + 1)^4 = X^4 + 1 over F_2, derivative 0
    assert factor_mod_p([1, 0, 0, 0, 1], 2) == (1, [([1, 1], 4)])


def test_factor_mod_p_refuses_non_prime_field():
    for p in (4, 1, 0, 9):
        with pytest.raises(ValueError, match="needs a prime p"):
            factor_mod_p([1, 1, 1], p)


def test_factor_mod_p_refuses_zero():
    for f in ([], [0, 0], [5, 10], [7]):
        with pytest.raises(ValueError, match="zero polynomial"):
            factor_mod_p(f, 5 if f != [7] else 7)


def test_factor_mod_p_reduces_its_input():
    # coefficients are integers, reduced mod p first; a constant is a unit
    assert factor_mod_p([-1, 5, 6], 5) == (1, [([1, 1], 1), ([4, 1], 1)])
    assert factor_mod_p([13], 5) == (3, [])


def test_factor_mod_p_checks_its_product(monkeypatch):
    # (X + 1)(X + 2)(X + 3) over F_7, its first irreducible factor split
    # off with the constant term one too high
    real = intpoly._psplit

    def corrupted(ddf, p):
        hs = real(ddf, p)
        hs[0] = [(hs[0][0] + 1) % p] + hs[0][1:]
        return hs

    monkeypatch.setattr(intpoly, "_psplit", corrupted)
    with pytest.raises(ConsistencyError,
                       match="^factorization does not re-multiply to its input$"):
        factor_mod_p([6, 11, 6, 1], 7)


def test_factor_mod_p_checks_for_repeated_factors(monkeypatch):
    monkeypatch.setattr(intpoly, "_psquarefree", lambda f, p: [([0, 1], 1), ([0, 1], 1)])
    with pytest.raises(ConsistencyError, match="repeated factor"):
        factor_mod_p([0, 0, 1], 2)            # X^2, given as X * X


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
        dom = gf(p)

        def mod_p(g):
            return nfelem.Poly(dom, [dom.from_int(c.numerator)
                                     * dom.from_int(c.denominator) ** (p - 2) for c in g.cs])

        fp = mod_p(f)
        if fp.degree == f.degree and poly_gcd(fp, fp.derivative()).degree == 0:
            break
    for g, _ in fac.factors:
        assert (fp % mod_p(g)).is_zero


# --- the evaluation/interpolation norm: the oracle of the composed sum -----

def resultant_monic(a, b):
    """prod of b over the roots of a, for monic a (counting multiplicity).

    Equals Res(a, b) since a is monic.  Computed by the Euclidean
    recurrence, entirely in the coefficient field.
    """
    dom = a.dom
    if a.degree == 0:
        return dom.one
    r = b % a
    if r.is_zero:
        return dom.zero
    if r.degree == 0:
        return r.cs[0] ** a.degree
    c = r.lc
    sign = dom.one if (a.degree * r.degree) % 2 == 0 else -dom.one
    return (c ** a.degree) * sign * resultant_monic(r.monic(), a)


def interpolate(dom, xs, ys):
    """The unique polynomial of degree < len(xs) through the given points.

    Newton divided differences; all arithmetic exact in the domain.
    """
    n = len(xs)
    dd = list(ys)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    acc = nfelem.Poly(dom, [])
    basis = nfelem.Poly.const(dom, dom.one)
    for k in range(n):
        acc = acc + basis.mul_scalar(dd[k])
        basis = basis * nfelem.Poly(dom, [-xs[k], dom.one])
    return acc


def norm_by_evaluation(f, L, s):
    """Res_y(fL(y), f(X - s*y)) in Q[X] for monic f in L[X], a
    ``nfelem.Poly`` over ``nf(L)``: the norm evaluated at
    deg(fL) * deg(f) + 1 rational points, one resultant over Q each, and
    interpolated."""
    fL = nfelem.Poly(QQ, L.defining.cs)
    D = fL.degree * f.degree
    coeff_reps = [nfelem.Poly(QQ, c.coords) for c in f.cs]
    xs = []
    ys = []
    c = 0
    while len(xs) <= D:
        for point in ([Fraction(0)] if c == 0 else [Fraction(c), Fraction(-c)]):
            if len(xs) > D:
                break
            # G(y) = sum_i A_i(y) * (point - s*y)^i
            base = nfelem.Poly(QQ, [point, Fraction(-s)])
            acc = nfelem.Poly(QQ, [])
            power = nfelem.Poly.const(QQ, Fraction(1))
            for rep in coeff_reps:
                acc = acc + power * rep
                power = power * base
            xs.append(point)
            ys.append(resultant_monic(fL, acc))
        c += 1
    return interpolate(QQ, xs, ys)


def test_resultant_is_product_over_roots():
    rng = random.Random(3)
    for _ in range(15):
        roots = [Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 4))]
        a = nfelem.Poly(QQ, [Fraction(1)])
        for r in roots:
            a = a * nfelem.Poly(QQ, [-r, Fraction(1)])
        b = nfelem.Poly(QQ, map(Fraction, [rng.randrange(-4, 5)
                                           for _ in range(rng.randrange(1, 5))]))
        if b.is_zero:
            continue
        expected = Fraction(1)
        for r in roots:
            expected *= b.evaluate(r)
        assert resultant_monic(a, b) == expected


def test_interpolation_roundtrip():
    rng = random.Random(11)
    for _ in range(10):
        f = nfelem.Poly(QQ, map(Fraction, [rng.randrange(-5, 6)
                                           for _ in range(rng.randrange(1, 6))]))
        xs = [Fraction(i) for i in range(f.degree + 2)]
        ys = [f.evaluate(x) for x in xs]
        assert interpolate(QQ, xs, ys) == f


def _assert_norms_agree(f, L):
    # the norm comes scaled by the lcm d of the denominators of f and fL
    fL = lift(L, f)
    d = denominator_lcm(f, L.defining)
    F, FL = scaled(f, d), scaled(L.defining, d)
    for s in range(4):
        assert intpoly._norm_with_shift(F, FL, s) == scaled(norm_by_evaluation(fL, L, s), d), s


# the fields of the benchmark's ``fields`` workload
FIELDS = ["X^4-2", "X^4-10*X^2+1", "X^3-3*X+1", "X^6+108", "X^6-2", "X^8-2"]
NORM_FIELDS = FIELDS + ["X^2-1/2", "X^3-X/3+5/7"]


@pytest.mark.parametrize("text", NORM_FIELDS)
def test_composed_sum_norm_matches_evaluation(text):
    L = make_field(parse_polynomial(text))
    _assert_norms_agree(L.defining, L)


def test_composed_sum_norm_of_other_polynomial():
    # (X^2-2)(X^2-3) over Q(sqrt2+sqrt3)
    _assert_norms_agree(Q(-2, 0, 1) * Q(-3, 0, 1), make_field(Q(1, 0, -10, 0, 1)))


def _random_monic(rng, degree):
    cs = [Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3, 4, 6]))
          for _ in range(degree)]
    return Poly(cs + [Fraction(1)])


def test_composed_sum_norm_random_pairs():
    # The norm is Res_y(fL(y), f(X - s*y)) for any monic fL, so the
    # random fL need not be irreducible.
    rng = random.Random(20)
    for _ in range(20):
        fL = _random_monic(rng, rng.randrange(1, 6))
        f = _random_monic(rng, rng.randrange(1, 6))
        _assert_norms_agree(f, NumberField(fL))


def test_norm_newton_division_must_be_exact():
    # no monic integer quadratic has power sums p1 = 1, p2 = 0
    with pytest.raises(ConsistencyError, match="not integral"):
        intpoly._from_power_sums([2, 1, 0])


# --- the modular squarefree certificate -------------------------------------

PHI11 = Poly([Fraction(1)] * 11)


def test_certificate_on_phi11_norms():
    F = scaled(PHI11, 1)
    assert intpoly._certified_squarefree(intpoly._norm_with_shift(F, F, 2))
    power = Q(1)
    for _ in range(10):
        power = power * PHI11
    assert intpoly._norm_with_shift(F, F, 0) == scaled(power, 1)
    assert intpoly._certified_squarefree(scaled(power, 1)) is False


def test_certificate_never_holds_with_a_square_factor():
    rng = random.Random(31)
    for _ in range(40):
        g = _random_monic(rng, rng.randrange(0, 5))
        h = _random_monic(rng, rng.randrange(1, 4))
        f = g * h * h
        assert intpoly._certified_squarefree(scaled(f, denominator_lcm(f))) is False


@pytest.mark.parametrize("text", NORM_FIELDS)
def test_certificate_holds_on_squarefree_trager_norms(text):
    L = make_field(parse_polynomial(text))
    F = scaled(L.defining, denominator_lcm(L.defining))
    M = intpoly._norm_with_shift(F, F, 3)
    N = Poly(map(Fraction, M))
    assert poly_gcd(N, N.derivative()).degree == 0
    assert intpoly._certified_squarefree(M)


# --- factorization over number fields --------------------------------------

def test_trager_x4_minus_2():
    L = make_field(Q(-2, 0, 0, 0, 1))
    unit, factors = factor_over_number_field(L.defining, L)
    F = nf(L)
    x = F.gen()
    expect = {
        nfelem.Poly(F, [-x, F.one]),                  # X - x
        nfelem.Poly(F, [x, F.one]),                   # X + x
        nfelem.Poly(F, [x * x, F.zero, F.one]),       # X^2 + x^2
    }
    assert {over_L(L, g) for g, _ in factors} == expect
    assert expand_over_L(L, unit, factors) == lift(L, L.defining)


def test_trager_biquadratic_has_inverse_root_factor():
    L = make_field(Q(1, 0, -10, 0, 1))
    _, factors = factor_over_number_field(L.defining, L)
    xinv = nf_inverse(nf(L).gen())
    assert nfelem.Poly(nf(L), [-xinv, nf(L).one]) in {over_L(L, g) for g, _ in factors}
    assert sum(len(g) - 1 for g, _ in factors) == 4
    assert len(factors) == 4


def test_trager_linear_input():
    # the unit is rational, and each factor a list of coordinate tuples
    L = make_field(Q(-2, 0, 1))
    assert factor_over_number_field(Q(3, 2), L) == (2, [([(Fraction(3, 2), 0), (1, 0)], 1)])


def test_trager_constant_input():
    L = make_field(Q(-2, 0, 1))
    assert factor_over_number_field(Q(5), L) == (5, [])


def test_trager_rejects_non_squarefree():
    L = make_field(Q(-2, 0, 1))
    for f in (Q(3, 1), Q(-2, 0, 1)):
        with pytest.raises(ValueError, match="squarefree required"):
            factor_over_number_field(f * f, L)


def test_trager_composite_input_over_biquadratic():
    # (X^2-2)(X^2-3) splits into four linear factors over Q(sqrt2+sqrt3)
    L = make_field(Q(1, 0, -10, 0, 1))
    f = Q(-2, 0, 1) * Q(-3, 0, 1)
    unit, factors = factor_over_number_field(f, L)
    assert sorted(len(g) - 1 for g, _ in factors) == [1, 1, 1, 1]
    assert expand_over_L(L, unit, factors) == lift(L, f)


def test_trager_keeps_irreducible():
    L = make_field(Q(-2, 0, 1))
    g = Q(1, 0, 1)                                  # X^2 + 1 over a real field
    _, factors = factor_over_number_field(g, L)
    assert len(factors) == 1 and factors[0][1] == 1


def test_trager_non_monic_unit():
    L = make_field(Q(-2, 0, 1))
    h = Q(3, 0, 3)
    unit, factors = factor_over_number_field(h, L)
    assert unit == 3 and expand_over_L(L, unit, factors) == lift(L, h)


def test_trager_nontrivial_shift_needed():
    # Over Q(sqrt2), X^2 - 2 = (X - x)(X + x): the zero shift has a
    # repeated norm root, so the shift search must move past s = 0.
    L = make_field(Q(-2, 0, 1))
    x = nf(L).gen()
    _, factors = factor_over_number_field(Q(-2, 0, 1), L)
    assert {over_L(L, g) for g, _ in factors} == \
        {nfelem.Poly(nf(L), [-x, nf(L).one]), nfelem.Poly(nf(L), [x, nf(L).one])}


def test_trager_requires_rational_coefficients():
    # a polynomial over L is refused, even one whose coefficients are
    # rational: as coordinate tuples or as a Poly over nf(L)
    L = make_field(Q(-2, 0, 1))
    one, x = L.gen_powers[:2]
    for f in ([one, x, one], [one, (0, 0), one], lift(L, Q(1, 0, 1))):
        with pytest.raises(ValueError, match="rational coefficients"):
            factor_over_number_field(f, L)


def test_trager_norm_degree_cap(monkeypatch):
    monkeypatch.setattr(caps, "NORM_DEGREE_CAP", 15)
    L = make_field(Q(-2, 0, 0, 0, 1))
    with pytest.raises(CapExceeded, match="Trager norm needs degree 16, cap is 15"):
        factor_over_number_field(L.defining, L)


def test_factor_over_Q_skips_yun_when_certified(monkeypatch):
    def refuse(f):
        raise AssertionError("Yun's decomposition should not run")

    monkeypatch.setattr(intpoly, "_yun_squarefree_Q", refuse)
    f = Q(-1, 1) * Q(1, 1, 1) * Q(3, 0, 1)
    assert factor_over_Q(f).expand() == f
    monkeypatch.undo()
    assert factor_over_Q(f * Q(-1, 1)).factors[0][1] == 2


def test_factor_over_Q_checks_its_product(monkeypatch, capsys):
    # each irreducible factor over Z comes back with its constant term one
    # too high; make_field factors the defining polynomial first, so the
    # command line exits 3
    real = intpoly._factor_squarefree_monic_int

    def corrupted(G):
        return [[H[0] + 1] + H[1:] for H in real(G)]

    monkeypatch.setattr(intpoly, "_factor_squarefree_monic_int", corrupted)
    message = "factorization does not re-multiply to its input"
    with pytest.raises(ConsistencyError, match="^%s$" % message):
        factor_over_Q(Q(-1, 1) * Q(1, 1, 1))
    assert main(["classify", "--json", "X^4-2"]) == 3
    assert message in capsys.readouterr().err


def test_factor_over_Q_checks_for_repeated_factors(monkeypatch):
    # Yun's parts come back with each multiplicity spelled out as repeats
    real = intpoly._yun_squarefree_Q
    monkeypatch.setattr(intpoly, "_yun_squarefree_Q", lambda f: [
        (g, 1) for g, m in real(f) for _ in range(m)])
    with pytest.raises(ConsistencyError, match="^repeated factor in factorization$"):
        factor_over_Q(Q(-1, 1) * Q(-1, 1) * Q(2, 1))


# --- prime choice for Berlekamp-Zassenhaus ---------------------------------

@pytest.mark.parametrize("text", FIELDS)
def test_trager_norm_distinct_degree_counts(text, monkeypatch):
    # factor_over_Q ranks candidate primes by distinct-degree counts; on
    # each Trager norm those counts must equal the full factor counts, so
    # the prime it keeps is the one the full factorizations would pick.
    L = make_field(parse_polynomial(text))
    norms = []
    real = intpoly._factor_squarefree_monic_int

    def spy(G):
        norms.append(list(G))
        return real(G)

    monkeypatch.setattr(intpoly, "_factor_squarefree_monic_int", spy)
    factor_over_number_field(L.defining, L)
    assert norms
    for G in norms:
        scanned = itertools.islice(intpoly._squarefree_primes(G), intpoly._BZ_PRIME_TRIES)
        for p, gp in scanned:
            count = intpoly._factor_count(intpoly._pddf(gp, p))
            assert count == len(factor_mod_p(G, p)[1])


# --- Berlekamp-Zassenhaus: linear lifting and the unfiltered subset search --
#
# The slow paths production replaced, kept as oracles: they must give the
# same lifts and the same factor lists on what production feeds them.

def hensel_pair_linear(f, g, h, s, t, p, K):
    """Lift f = g*h from mod p to mod p^K (g, h monic, s*g + t*h = 1 mod p),
    one p-adic digit per step with the one Bezout pair mod p."""
    m = p
    while m < p ** K:
        # e = (f - g*h) / m  (exact over Z), then everything mod p
        diff = intpoly._zsub(f, intpoly._zmul(g, h))
        e = intpoly._zmod([c // m for c in diff], p)
        q, w = intpoly._pdivmod(intpoly._zmul(s, e), intpoly._zmod(h, p), p)
        u = intpoly._zmod(intpoly._zadd(intpoly._zmul(t, e), intpoly._zmul(q, g)), p)
        g = intpoly._zmod(intpoly._zadd(g, [c * m for c in u]), m * p)
        h = intpoly._zmod(intpoly._zadd(h, [c * m for c in w]), m * p)
        m *= p
    return g, h


def _zdivmod(a, b):
    """``intpoly._zdivmod_monic`` with a bound no quotient coefficient
    reaches: each step subtracts at most |c| * max|b| from an entry, so no
    entry passes max|a| * (1 + max|b|)^len(a)."""
    return intpoly._zdivmod_monic(a, b, max(map(abs, a)) * (1 + max(map(abs, b))) ** len(a))


def recombine_by_trial_division(G, lifted, pK):
    """Zassenhaus subset search that trial-divides by every subset's
    product whose constant term passes the divisibility test."""
    out = []
    live = list(range(len(lifted)))
    s = 1
    tc = G[0]
    while 2 * s <= len(live):
        found = False
        for combo in itertools.combinations(live, s):
            cand = [1]
            for i in combo:
                cand = intpoly._zmod(intpoly._zmul(cand, lifted[i]), pK)
            cand = intpoly._zsym(cand, pK)
            if tc != 0 and cand[0] != 0 and tc % cand[0] != 0:
                continue
            q, r = _zdivmod(G, cand)
            if not r:
                out.append(cand)
                G = q
                tc = G[0] if G else 0
                live = [i for i in live if i not in combo]
                found = True
                break
        if not found:
            s += 1
    if len(G) - 1 > 0:
        out.append(G)
    return out


def _record(monkeypatch, name):
    """Wrap intpoly.<name>; the list it returns fills with (args, result)."""
    calls = []
    real = getattr(intpoly, name)

    def spy(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(intpoly, name, spy)
    return calls


def _bz_calls(monkeypatch, text):
    """The Hensel and recombination calls made while factoring the
    polynomial ``text`` over its own field."""
    lifts = _record(monkeypatch, "_hensel_pair")
    recombinations = _record(monkeypatch, "_recombine")
    L = make_field(parse_polynomial(text))
    factor_over_number_field(L.defining, L)
    monkeypatch.undo()
    return lifts, recombinations


def _assert_matches_oracles(lifts, recombinations):
    for args, result in lifts:
        assert hensel_pair_linear(*args) == result
    for args, result in recombinations:
        assert recombine_by_trial_division(*args) == result


@pytest.mark.parametrize("text", FIELDS)
def test_bz_matches_slow_paths_on_fields_norms(text, monkeypatch):
    lifts, recombinations = _bz_calls(monkeypatch, text)
    assert lifts and recombinations
    _assert_matches_oracles(lifts, recombinations)


SHIFTED_SPLITTERS = [[1, 0, -10, 0, 1], [1, 0, 0, 0, 1], [4, 0, 0, 0, 1], [1, 1, 1, 1, 1]]


def _random_monic_product(rng):
    """A squarefree monic integer product of at least 8 factors, degree
    <= 40: random small ones and shifts of quartics that split modulo
    every prime (X^4-10X^2+1, X^4+1) or often (X^4+4, Phi_5).  At seed
    44 each product takes at most 9 draws; a certificate that never holds
    fails after 100."""
    for _ in range(100):
        f = Q(1)
        count = 0
        while True:
            if rng.random() < 0.4:
                g = nfelem.Poly(QQ, map(Fraction, rng.choice(SHIFTED_SPLITTERS)))
                g = Poly(shift(g, Fraction(rng.randrange(-3, 4))).cs)
            else:
                d = rng.randrange(1, 4)
                g = Q(*([rng.randrange(-9, 10) for _ in range(d)] + [1]))
            if f.degree + g.degree > 40:
                break
            f = f * g
            count += 1
        # squarefree mod a prime proves squarefree; Euclid over Q on
        # degree 40 would take seconds
        if count >= 8 and intpoly._certified_squarefree(scaled(f, 1)):
            return f
    raise AssertionError("no certified squarefree product of 8 factors in 100 draws")


def test_prime_search_on_a_square_ends_with_exit_3():
    """With the squarefree certificate forced to hold on (X^2-2)^2, no
    prime keeps the input squarefree; the search stops once the primes
    that failed multiply past the discriminant bound, and the run exits 3
    naming the stage, in a process that is killed if it hangs."""
    code = ("import sys; from l2lab import cli, intpoly; "
            "intpoly._certified_squarefree = lambda g: True; "
            "sys.exit(cli.main(['classify', 'X^4-4*X^2+4']))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert proc.returncode == 3
    assert "mod-p factoring" in proc.stderr and "so it is not squarefree" in proc.stderr


def test_bz_matches_slow_paths_on_random_products(monkeypatch):
    rng = random.Random(44)
    lifts = _record(monkeypatch, "_hensel_pair")
    recombinations = _record(monkeypatch, "_recombine")
    for _ in range(10):
        f = _random_monic_product(rng)
        del lifts[:], recombinations[:]
        fac = factor_over_Q(f)
        assert fac.expand() == f
        (G, lifted, pK), factors = recombinations[0]
        assert len(recombinations) == 1 and len(lifted) >= 8
        assert len(lifts) == len(lifted) - 1
        _assert_matches_oracles(lifts, recombinations)


def _symmetric(c, m):
    c %= m
    return c - m if c > m // 2 else c


@pytest.mark.parametrize("text", FIELDS)
def test_trace_pretest_keeps_every_true_factor(text, monkeypatch):
    _, recombinations = _bz_calls(monkeypatch, text)
    for (G, lifted, pK), factors in recombinations:
        n = len(G) - 1
        rho = 1 + max(abs(c) for c in G[:n])
        for F in factors:
            # F's modular factors: a lifted factor divides F mod p^K
            # exactly when it is one of them
            subset = [g for g in lifted if not intpoly._pdivmod(F, g, pK)[1]]
            product = [1]
            for g in subset:
                product = intpoly._zmod(intpoly._zmul(product, g), pK)
            assert product == intpoly._zmod(F, pK)
            if len(subset) == len(lifted):
                continue
            m = len(F) - 1
            t = _symmetric(sum(g[-2] for g in subset), pK)
            assert t == F[m - 1] and abs(t) <= m * rho < pK // 2


def test_trace_pretest_saves_trial_divisions(monkeypatch):
    _, recombinations = _bz_calls(monkeypatch, "X^6-2")
    divisions = _record(monkeypatch, "_zdivmod_monic")
    counts = []
    for recombine in (intpoly._recombine, recombine_by_trial_division):
        del divisions[:]
        for args, result in recombinations:
            assert recombine(*args) == result
        counts.append(len(divisions))
    assert counts[0] < counts[1]


def test_trager_skips_only_shifts_that_cannot_work(monkeypatch):
    norms = _record(monkeypatch, "_norm_with_shift")
    for text in FIELDS:
        L = make_field(parse_polynomial(text))
        # the shifts the search skips for L's own defining polynomial
        F = scaled(L.defining, 1)
        for s in (0, 1):
            N = Poly(map(Fraction, intpoly._norm_with_shift(F, F, s)))
            assert poly_gcd(N, N.derivative()).degree > 0, (text, s)
        del norms[:]
        factor_over_number_field(L.defining, L)
        (_, _, first), _ = norms[0]
        assert first == 2, text
    # any other polynomial starts the search at shift 0
    L = make_field(Q(1, 0, -10, 0, 1))
    del norms[:]
    factor_over_number_field(Q(-2, 0, 1) * Q(-3, 0, 1), L)
    (_, _, first), _ = norms[0]
    assert first == 0


def test_early_stop_keeps_every_true_factor_of_fields_norms(monkeypatch):
    # a true factor's quotient never exceeds the Mignotte bound, so the
    # bounded division accepts every factor the recombination found
    for text in FIELDS:
        _, recombinations = _bz_calls(monkeypatch, text)
        assert recombinations
        for (G, _, _), factors in recombinations:
            bound = intpoly._mignotte_bound(G)
            for F in factors[:-1]:
                assert intpoly._zdivmod_monic(G, F, bound) == _zdivmod(G, F)
                assert not _zdivmod(G, F)[1]


def test_early_stop_rejects_a_quotient_over_the_bound():
    G = [-2, 0, 0, 0, 1]                      # X^4 - 2
    bound = intpoly._mignotte_bound(G)
    assert intpoly._zdivmod_monic(G, [bound + 1, 1], bound) is None
    assert _zdivmod(G, [bound + 1, 1])[1]


# --- packed powering: the schoolbook route is the oracle -------------------

def ppowmod_schoolbook(a, e, m, p):
    """a**e reduced modulo m over F_p, by binary exponentiation on
    schoolbook products and remainders."""
    result = intpoly._prem([1], m, p)
    base = intpoly._prem(a, m, p)
    while e:
        if e & 1:
            result = intpoly._prem(intpoly._zmul(result, base), m, p)
        e >>= 1
        if e:
            base = intpoly._prem(intpoly._zmul(base, base), m, p)
    return result


POWERING_PRIMES = [2, 3, 5, 47, 2 ** 31 - 1, 2 ** 61 - 1]


def _powering_inputs():
    """(a, e, m, p): random moduli of degree 1-300, monic or not, and the
    slot extremes (every coefficient p - 1), with a zero, reduced or of
    degree above m's, and e in 0, 1, 2, p, (p^d - 1)/2.  The schoolbook
    oracle takes seconds per long exponent at degree 300 with a 61-bit p,
    so above degree 64 the long exponents run only for p <= 47."""
    rng = random.Random(2609)
    for p in POWERING_PRIMES:
        for n in (1, 2, 3, 5, 17, 64, rng.randrange(65, 300), 300):
            m = [rng.randrange(p) for _ in range(n)] + [rng.choice([1, rng.randrange(1, p)])]
            exponents = [0, 1, 2]
            if n <= 64 or p <= 47:
                exponents += [p, (p ** rng.randrange(1, 4) - 1) // 2]
            for e in exponents:
                for a in ([], [rng.randrange(p) for _ in range(n)],
                          [rng.randrange(p) for _ in range(2 * n + 3)]):
                    yield a, e, m, p
                yield [p - 1] * n, e, [p - 1] * (n + 1), p
                yield [p - 1] * n, e, [p - 1] * n + [1], p


@pytest.fixture(scope="module")
def powering_cases():
    return [(a, e, m, p, ppowmod_schoolbook(a, e, m, p)) for a, e, m, p in _powering_inputs()]


def _packed_mismatches(cases):
    """The cases the packed route gets wrong, a raised error included."""
    bad = []
    for a, e, m, p, expected in cases:
        try:
            got = intpoly._PackedModulus(m, p).pow(a, e)
        except (OverflowError, ValueError) as exc:
            got = exc
        if got != expected:
            bad.append((a, e, m, p, got))
    return bad


def test_packed_powering_matches_schoolbook(powering_cases):
    assert len(powering_cases) > 1000
    assert _packed_mismatches(powering_cases) == []


def test_packed_powering_handles_degree_0_and_1():
    assert intpoly._PackedModulus([3], 5).pow([1, 2, 3], 7) == []
    assert intpoly._PackedModulus([3], 5).pow([1], 0) == []
    # X = -2/3 = 1 modulo 3X + 2 over F_5
    assert intpoly._PackedModulus([2, 3], 5).pow([0, 1], 5) == [1]
    assert intpoly._PackedModulus([2, 3], 5).pow([4], 3) == [4]


def test_packed_powering_fault_narrow_slots_is_caught(powering_cases, monkeypatch):
    """One byte below the width bound, a slot overflows on most inputs
    (OFF is the widest) and packing raises: the bound is needed, and the
    differential inputs reach it."""
    real = intpoly._slot_width
    monkeypatch.setattr(intpoly, "_slot_width", lambda n, p: real(n, p) - 8)
    bad = _packed_mismatches(powering_cases)
    assert len(bad) > len(powering_cases) // 2


def test_packed_powering_fault_no_offset_is_caught(powering_cases, monkeypatch):
    real = intpoly._PackedModulus.__init__

    def no_offset(self, m, p):
        real(self, m, p)
        self.off = 0

    monkeypatch.setattr(intpoly._PackedModulus, "__init__", no_offset)
    assert _packed_mismatches(powering_cases)


def _record_powering(monkeypatch, texts):
    """(a, e, m, p, result) of each packed powering made while factoring
    the defining polynomial of each field in ``texts`` over itself."""
    calls = []
    real = intpoly._PackedModulus.pow

    def spy(self, a, e):
        result = real(self, a, e)
        calls.append((a, e, self.m, self.p, result))
        return result

    monkeypatch.setattr(intpoly._PackedModulus, "pow", spy)
    for text in texts:
        L = make_field(parse_polynomial(text))
        factor_over_number_field(L.defining, L)
    monkeypatch.undo()
    return calls


def test_packed_powering_matches_schoolbook_on_fields_norms(monkeypatch):
    calls = _record_powering(monkeypatch, FIELDS + ["X^16-2"])
    assert len(calls) > 250 and max(len(m) for _, _, m, _, _ in calls) > 200
    assert [c for c in calls if ppowmod_schoolbook(*c[:4]) != c[4]] == []


@pytest.mark.parametrize("d", range(2, 8))
def test_equal_degree_splitting_mod_2(d):
    """Characteristic 2 splits by the packed trace: the product of every
    monic irreducible of degree d over F_2 splits into them."""
    irreducibles = sorted(_ints(g) for g in _brute_force_irreducibles(2, d)[d])
    g = [1]
    for h in irreducibles:
        g = intpoly._zmod(intpoly._zmul(g, h), 2)
    rng = random.Random(d)
    assert sorted(intpoly._pedf(g, d, 2, rng), key=lambda h: (len(h), h)) == \
        sorted(irreducibles, key=lambda h: (len(h), h))


# --- the modular gcd over L: Euclid over L is the oracle ---------------------

def monic_over_L(a):
    """a times the inverse of its leading coefficient."""
    inv = nf_inverse(a.lc)
    return nfelem.Poly(a.dom, [c * inv for c in a.cs])


def gcd_over_L(a, b):
    """Monic gcd over L by Euclid, each divisor made monic first."""
    while not b.is_zero:
        b = monic_over_L(b)
        a, b = b, a % b
    return monic_over_L(a)


def gcds_by_euclid(f, norms, s, d, L):
    """gcd(f, N(X + s*x)) over L for each N, by Euclid on Fraction
    coordinates after an exact Taylor shift over L; f is in Q[X], and
    each N comes as its int list scaled by d."""
    sx = nf(L).gen() * nf(L).from_rational(s)
    return [gcd_over_L(lift(L, f), shift(lift(L, unscaled(N, d)), sx)) for N in norms]


def _factor_recording_gcds(monkeypatch, f, L):
    """factor_over_number_field(f, L), and the (args, result) of its
    modular gcd call."""
    calls = _record(monkeypatch, "_gcds_over_L")
    fac = factor_over_number_field(f, L)
    monkeypatch.undo()
    assert len(calls) == 1
    return fac, calls[0]


@pytest.mark.parametrize("text", NORM_FIELDS)
def test_modular_gcd_matches_euclid_on_fields(text, monkeypatch):
    L = make_field(parse_polynomial(text))
    (_, factors), ((_, _, norms, s, d, _), hs) = _factor_recording_gcds(monkeypatch,
                                                                         L.defining, L)
    assert [over_L(L, h) for h in hs] == gcds_by_euclid(L.defining, norms, s, d, L)
    assert len(hs) == len(norms) and sorted(hs) == sorted(g for g, _ in factors)


def test_modular_gcd_matches_euclid_on_phi11(monkeypatch):
    # Euclid over L takes seconds per norm factor here, so one is checked
    # against it; the others against the factors X - x^k that Phi11 has
    L = NumberField(PHI11)
    _, ((_, _, norms, s, d, _), hs) = _factor_recording_gcds(monkeypatch, PHI11, L)
    assert len(norms) == 10
    assert [over_L(L, h) for h in hs[:1]] == gcds_by_euclid(PHI11, norms[:1], s, d, L)
    assert sorted(hs) == sorted([tuple(-c for c in L.gen_powers[k]), L.gen_powers[0]]
                                for k in range(1, 11))


def test_modular_gcd_matches_euclid_on_random_fields(monkeypatch):
    rng = random.Random(1995)
    done = 0
    while done < 12:
        fL = _random_monic(rng, rng.randrange(2, 7))
        fac = factor_over_Q(fL)
        if len(fac.factors) != 1 or fac.factors[0][1] != 1:
            continue
        L = NumberField(fL)
        fq = _random_monic(rng, rng.randrange(2, 5))
        if poly_gcd(fq, fq.derivative()).degree:
            continue
        (unit, factors), ((_, _, norms, s, d, _), hs) = _factor_recording_gcds(monkeypatch,
                                                                              fq, L)
        assert [over_L(L, h) for h in hs] == gcds_by_euclid(fq, norms, s, d, L)
        assert expand_over_L(L, unit, factors) == lift(L, fq)
        done += 1


def _feed_primes(monkeypatch, first):
    """The modular gcd tries the primes ``first``, then its own."""
    real = intpoly._gcd_primes

    def primes():
        yield from first
        yield from real()

    monkeypatch.setattr(intpoly, "_gcd_primes", primes)


@pytest.mark.parametrize("text,bad", [
    ("X^2-1/2", {2: "denominator"}),
    ("X^3-X/3+5/7", {3: "denominator", 7: "denominator", 11: "not squarefree",
                     5: "not a unit", 2: "unlucky"}),
    ("X^4-2", {2: "not squarefree", 5: "unlucky", 13: "unlucky"}),
    ("X^4-10*X^2+1", {3: "not squarefree", 5: "not a unit", 19: "not a unit"}),
])
def test_modular_gcd_skips_bad_primes(text, bad, monkeypatch):
    L = make_field(parse_polynomial(text))
    expected = factor_over_number_field(L.defining, L)
    _feed_primes(monkeypatch, list(bad))
    tried = _record(monkeypatch, "_gcds_mod_p")
    assert factor_over_number_field(L.defining, L) == expected
    seen = {args[4]: result for args, result in tried}
    m = L.n
    for p, why in bad.items():
        if why in ("denominator", "not squarefree"):
            assert p not in seen, (p, why)
        elif why == "not a unit":
            assert seen[p] is None, p
        else:
            assert sum(len(h) - 1 for h in seen[p]) > m, p
    assert all(p > 2 ** 25 for p, hs in seen.items() if hs and p not in bad)


def test_modular_gcds_that_disagree_contradict_trager(monkeypatch, capsys):
    # 13 and 17 keep X^3 - X/3 + 5/7 squarefree, 13 alone cannot recover
    # the coordinate -1/3, and the images mod 17 come out in reverse
    # order: the two primes' degree vectors, [1, 2] and [2, 1], disagree.
    # No other prime is tried, so a missing check fails at once.
    text = "X^3-X/3+5/7"
    real = intpoly._gcds_mod_p

    def reversed_mod_17(fq, norms, s, fp, p):
        hs = real(fq, norms, s, fp, p)
        return hs[::-1] if p == 17 else hs

    monkeypatch.setattr(intpoly, "_gcd_primes", lambda: iter([13, 17]))
    monkeypatch.setattr(intpoly, "_gcds_mod_p", reversed_mod_17)
    tried = _record(monkeypatch, "_gcds_mod_p")
    message = "modular gcds over L contradict Trager's theorem"
    L = make_field(parse_polynomial(text))
    with pytest.raises(ConsistencyError, match="^%s$" % message):
        factor_over_number_field(L.defining, L)
    assert [[len(h) - 1 for h in hs] for _, hs in tried] == [[1, 2], [2, 1]]
    assert main(["classify", "--json", text]) == 3
    assert message in capsys.readouterr().err


def test_modular_gcd_combines_several_small_primes(monkeypatch):
    # the factors of X^6+108 have coordinates up to 12, which primes
    # below 300 recover only together
    L = make_field(parse_polynomial("X^6+108"))
    expected = factor_over_number_field(L.defining, L)
    small, p = [], 1
    while p < 300:
        p = next_prime(p)
        small.append(p)
    _feed_primes(monkeypatch, small)
    tried = _record(monkeypatch, "_gcds_mod_p")
    assert factor_over_number_field(L.defining, L) == expected
    used = [args[4] for args, hs in tried if hs and sum(len(h) - 1 for h in hs) == L.n]
    assert len(used) > 1 and all(p in small for p in used)


def test_no_gcd_or_shift_over_L_after_the_squarefree_check(monkeypatch):
    calls = []
    real_gcd = poly.poly_gcd

    def gcd_spy(a, b):
        calls.append(isinstance(a, Poly) and isinstance(b, Poly))
        return real_gcd(a, b)

    for module in (poly, intpoly):
        monkeypatch.setattr(module, "poly_gcd", gcd_spy)
    for text in FIELDS:
        L = make_field(parse_polynomial(text))
        del calls[:]
        factor_over_number_field(L.defining, L)
        # squarefreeness is decided over Q, and every gcd over L is modular
        assert all(calls), text


# --- Trager's norm as one integer list --------------------------------------

RATIONAL_FIELDS = ["X^4-X^2/7+3/11", "X^5-X/3-1/2", "X^6+X/1234567891011+1"]


@pytest.mark.parametrize("text", FIELDS + RATIONAL_FIELDS)
def test_norm_stays_one_integer_list(text, monkeypatch, capsys):
    """Through ``classify``: the norm of each shift tried is certified
    squarefree once; the accepted one reaches the factoring over Z as the
    very list ``_norm_with_shift`` made, and is factored once; no Poly is
    built from it, scaled or not, and nothing of its degree is rescaled;
    and factor_over_Q runs once, for make_field."""
    norms = _record(monkeypatch, "_norm_with_shift")
    certified = _record(monkeypatch, "_certified_squarefree")
    factored = _record(monkeypatch, "_factor_squarefree_monic_int")
    scalings = _record(monkeypatch, "_scale_monic")
    built = []
    real_init = Poly.__init__

    def init(self, coeffs):
        real_init(self, coeffs)
        built.append(self.cs)

    monkeypatch.setattr(Poly, "__init__", init)
    over_Q = []
    for module in (poly, numberfield):
        def counted(f, real=module.factor_over_Q, name=module.__name__):
            over_Q.append(name)
            return real(f)
        monkeypatch.setattr(module, "factor_over_Q", counted)
    assert main(["classify", "--json", text]) == 0
    monkeypatch.setattr(Poly, "__init__", real_init)
    capsys.readouterr()
    assert over_Q == ["l2lab.numberfield"]
    for _, G in norms:
        assert sum(args[0] is G for args, _ in certified) == 1
    M = norms[-1][1]
    assert [args[0] for args, _ in factored if args[0] == M] == [M]
    assert factored[-1][0][0] is M
    d = denominator_lcm(parse_polynomial(text))
    assert tuple(M) not in built and unscaled(M, d).cs not in built
    assert all(args[0].degree < len(M) - 1 for args, _ in scalings)


def test_large_denominator_takes_several_gcd_primes(monkeypatch):
    # d = 1234567891011 makes the coordinates of the factors over L too
    # large for one prime's rational reconstruction
    L = make_field(parse_polynomial("X^6+X/1234567891011+1"))
    tried = _record(monkeypatch, "_gcds_mod_p")
    factor_over_number_field(L.defining, L)
    assert len([hs for _, hs in tried if hs and sum(len(h) - 1 for h in hs) == L.n]) > 1


def test_corrupted_norm_factor_ends_with_exit_3():
    """One factor over Z of the accepted norm comes back with its
    constant term one too high.  The norm's re-multiplication stops the
    run with exit 3 before the modular gcd over L, which would look for
    factors multiplying back to f for ever, in a process that is killed
    if it hangs."""
    code = textwrap.dedent("""
        import sys
        from l2lab import cli, intpoly
        norm, factor = intpoly._norm_with_shift, intpoly._factor_squarefree_monic_int
        made = []

        def norm_spy(*args):
            made.append(norm(*args))
            return made[-1]

        def corrupted(G):
            hs = factor(G)
            if made and G is made[-1]:
                hs[0] = [hs[0][0] + 1] + hs[0][1:]
            return hs

        intpoly._norm_with_shift, intpoly._factor_squarefree_monic_int = norm_spy, corrupted
        sys.exit(cli.main(["classify", "X^4-X^2/7+3/11"]))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 3
    assert "factorization does not re-multiply to its input" in proc.stderr
