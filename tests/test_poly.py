import itertools
import random
from fractions import Fraction

import pytest

from l2lab import caps, intpoly, poly
from l2lab.errors import CapExceeded, ConsistencyError
from l2lab.exact import next_prime
from l2lab.finitealg import small_field
from l2lab.numberfield import NumberField, make_field
from l2lab.parsing import parse_polynomial
from l2lab.poly import (QQ, Poly, factor_mod_p, factor_over_Q,
                        factor_over_number_field, poly_gcd)


def shift(f, c):
    """Taylor shift: the polynomial f(X + c)."""
    dom = f.dom
    acc = Poly(dom, [])
    xpc = Poly(dom, [c, dom.one])
    for a in reversed(f.cs):
        acc = acc * xpc + Poly.const(dom, a)
    return acc


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
    acc = Poly(dom, [])
    basis = Poly.const(dom, dom.one)
    for k in range(n):
        acc = acc + basis.mul_scalar(dd[k])
        basis = basis * Poly(dom, [-xs[k], dom.one])
    return acc


def norm_by_evaluation(f, L, s):
    """Res_y(fL(y), f(X - s*y)) in Q[X] for monic f in L[X]: the norm
    evaluated at deg(fL) * deg(f) + 1 rational points, one resultant
    over Q each, and interpolated."""
    fL = L.defining
    D = fL.degree * f.degree
    coeff_reps = [Poly(QQ, c.coords) for c in f.cs]
    xs = []
    ys = []
    c = 0
    while len(xs) <= D:
        for point in ([Fraction(0)] if c == 0 else [Fraction(c), Fraction(-c)]):
            if len(xs) > D:
                break
            # G(y) = sum_i A_i(y) * (point - s*y)^i
            base = Poly(QQ, [point, Fraction(-s)])
            acc = Poly(QQ, [])
            power = Poly.const(QQ, Fraction(1))
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


def _assert_norms_agree(f, L):
    fL = f.map_coeffs(L, L.from_rational)
    for s in range(4):
        assert intpoly._norm_with_shift(f, L, s) == norm_by_evaluation(fL, L, s), s


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
    return Poly(QQ, cs + [Fraction(1)])


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

PHI11 = Poly(QQ, [Fraction(1)] * 11)


def test_certificate_on_phi11_norms():
    L = NumberField(PHI11)
    assert intpoly._certified_squarefree(intpoly._norm_with_shift(PHI11, L, 2))
    power = Q(1)
    for _ in range(10):
        power = power * PHI11
    assert intpoly._norm_with_shift(PHI11, L, 0) == power
    assert intpoly._certified_squarefree(power) is False


def test_certificate_never_holds_with_a_square_factor():
    rng = random.Random(31)
    for _ in range(40):
        g = _random_monic(rng, rng.randrange(0, 5))
        h = _random_monic(rng, rng.randrange(1, 4))
        assert intpoly._certified_squarefree(g * h * h) is False


@pytest.mark.parametrize("text", NORM_FIELDS)
def test_certificate_holds_on_squarefree_trager_norms(text):
    L = make_field(parse_polynomial(text))
    N = intpoly._norm_with_shift(L.defining, L, 3)
    assert poly_gcd(N, N.derivative()).degree == 0
    assert intpoly._certified_squarefree(N)


# --- factorization over number fields --------------------------------------

def test_trager_x4_minus_2():
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
    L = make_field(Q(1, 0, -10, 0, 1))
    fL = L.defining.map_coeffs(L, L.from_rational)
    fac = factor_over_number_field(fL, L)
    xinv = L.gen().inverse()
    assert Poly(L, [-xinv, L.one]).cs in {g.cs for g, _ in fac.factors}
    assert sum(g.degree for g, _ in fac.factors) == 4
    assert len(fac.factors) == 4


def test_trager_linear_input():
    L = make_field(Q(-2, 0, 1))
    f = Poly(L, [L.gen(), L.one])
    fac = factor_over_number_field(f, L)
    assert fac.factors == [(f, 1)]


def test_trager_rejects_non_squarefree():
    L = make_field(Q(-2, 0, 1))
    f = Poly(L, [L.gen(), L.one])
    with pytest.raises(ValueError, match="squarefree"):
        factor_over_number_field(f * f, L)


def test_trager_composite_input_over_biquadratic():
    # (X^2-2)(X^2-3) splits into four linear factors over Q(sqrt2+sqrt3)
    L = make_field(Q(1, 0, -10, 0, 1))
    f = (Q(-2, 0, 1) * Q(-3, 0, 1)).map_coeffs(L, L.from_rational)
    fac = factor_over_number_field(f, L)
    assert sorted(g.degree for g, _ in fac.factors) == [1, 1, 1, 1]
    assert fac.expand() == f


def test_trager_keeps_irreducible():
    L = make_field(Q(-2, 0, 1))
    g = Q(1, 0, 1).map_coeffs(L, L.from_rational)   # X^2 + 1 over a real field
    fac = factor_over_number_field(g, L)
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_trager_non_monic_unit():
    L = make_field(Q(-2, 0, 1))
    h = Q(1, 0, 1).map_coeffs(L, L.from_rational).mul_scalar(L.from_int(3))
    fac = factor_over_number_field(h, L)
    assert fac.unit == L.from_int(3) and fac.expand() == h


def test_trager_nontrivial_shift_needed():
    # Over Q(sqrt2), X^2 - 2 = (X - x)(X + x): the zero shift has a
    # repeated norm root, so the shift search must move past s = 0.
    L = make_field(Q(-2, 0, 1))
    x = L.gen()
    f = Poly(L, [L.from_int(-2), L.zero, L.one])
    fac = factor_over_number_field(f, L)
    assert {g.cs for g, _ in fac.factors} == \
        {Poly(L, [-x, L.one]).cs, Poly(L, [x, L.one]).cs}


def test_trager_requires_rational_coefficients():
    # x^2 + 1 (= 3) is squarefree over Q(sqrt2) but not rational
    L = make_field(Q(-2, 0, 1))
    x = L.gen()
    f = Poly(L, [L.one, x, L.one])
    with pytest.raises(ValueError, match="rational coefficients"):
        factor_over_number_field(f, L)


def test_trager_norm_degree_cap(monkeypatch):
    monkeypatch.setattr(caps, "NORM_DEGREE_CAP", 15)
    L = make_field(Q(-2, 0, 0, 0, 1))
    with pytest.raises(CapExceeded, match="Trager norm needs degree 16, cap is 15"):
        factor_over_number_field(L.defining.map_coeffs(L, L.from_rational), L)


def test_factor_over_Q_skips_yun_when_certified(monkeypatch):
    def refuse(f):
        raise AssertionError("Yun's decomposition should not run")

    monkeypatch.setattr(intpoly, "_yun_squarefree_Q", refuse)
    f = Q(-1, 1) * Q(1, 1, 1) * Q(3, 0, 1)
    assert factor_over_Q(f).expand() == f
    monkeypatch.undo()
    assert factor_over_Q(f * Q(-1, 1)).factors[0][1] == 2


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
    factor_over_number_field(L.defining.map_coeffs(L, L.from_rational), L)
    assert norms
    for G in norms:
        scanned = itertools.islice(intpoly._squarefree_primes(G), intpoly._BZ_PRIME_TRIES)
        for p, gp in scanned:
            count = intpoly._factor_count(intpoly._pddf(gp, p))
            assert count == len(factor_mod_p(Poly.from_ints(small_field(p), G)).factors)


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
            q, r = intpoly._zdivmod_monic(G, cand)
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
    factor_over_number_field(L.defining.map_coeffs(L, L.from_rational), L)
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
    every prime (X^4-10X^2+1, X^4+1) or often (X^4+4, Phi_5)."""
    while True:
        f = Q(1)
        count = 0
        while True:
            if rng.random() < 0.4:
                g = shift(Q(*rng.choice(SHIFTED_SPLITTERS)), Fraction(rng.randrange(-3, 4)))
            else:
                d = rng.randrange(1, 4)
                g = Q(*([rng.randrange(-9, 10) for _ in range(d)] + [1]))
            if f.degree + g.degree > 40:
                break
            f = f * g
            count += 1
        # squarefree mod a prime proves squarefree; Euclid over Q on
        # degree 40 would take seconds
        if count >= 8 and intpoly._certified_squarefree(f):
            return f


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
        for s in (0, 1):
            N = intpoly._norm_with_shift(L.defining, L, s)
            assert poly_gcd(N, N.derivative()).degree > 0, (text, s)
        del norms[:]
        factor_over_number_field(L.defining.map_coeffs(L, L.from_rational), L)
        (_, _, first), _ = norms[0]
        assert first == 2, text
    # any other polynomial starts the search at shift 0
    L = make_field(Q(1, 0, -10, 0, 1))
    del norms[:]
    factor_over_number_field((Q(-2, 0, 1) * Q(-3, 0, 1)).map_coeffs(L, L.from_rational), L)
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
                assert intpoly._zdivmod_monic(G, F, bound) == intpoly._zdivmod_monic(G, F)
                assert not intpoly._zdivmod_monic(G, F)[1]


def test_early_stop_rejects_a_quotient_over_the_bound():
    G = [-2, 0, 0, 0, 1]                      # X^4 - 2
    bound = intpoly._mignotte_bound(G)
    assert intpoly._zdivmod_monic(G, [bound + 1, 1], bound) is None
    assert intpoly._zdivmod_monic(G, [bound + 1, 1])[1]


# --- the modular gcd over L: Euclid over L is the oracle ---------------------

def gcds_by_euclid(f, norms, s, L):
    """gcd(f, N(X + s*x)) for each N, by Euclid on Fraction coordinates
    after an exact Taylor shift over L."""
    sx = L.gen().scale(Fraction(s))
    return [poly_gcd(f, shift(N.map_coeffs(L, L.from_rational), sx)) for N in norms]


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
    fL = L.defining.map_coeffs(L, L.from_rational)
    fac, ((_, norms, s, _), hs) = _factor_recording_gcds(monkeypatch, fL, L)
    assert hs == gcds_by_euclid(fL, norms, s, L)
    assert len(hs) == len(norms) and {h.cs for h in hs} == {g.cs for g, _ in fac}


def test_modular_gcd_matches_euclid_on_phi11(monkeypatch):
    # Euclid over L takes seconds per norm factor here, so one is checked
    # against it; the others against the factors X - x^k that Phi11 has
    L = NumberField(PHI11)
    fL = PHI11.map_coeffs(L, L.from_rational)
    fac, ((_, norms, s, _), hs) = _factor_recording_gcds(monkeypatch, fL, L)
    assert len(norms) == 10
    assert hs[:1] == gcds_by_euclid(fL, norms[:1], s, L)
    x = L.gen()
    assert {h.cs for h in hs} == {Poly(L, [-(x ** k), L.one]).cs for k in range(1, 11)}


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
        f = fq.map_coeffs(L, L.from_rational)
        fac, ((_, norms, s, _), hs) = _factor_recording_gcds(monkeypatch, f, L)
        assert hs == gcds_by_euclid(f, norms, s, L)
        assert fac.expand() == f
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
    fL = L.defining.map_coeffs(L, L.from_rational)
    expected = factor_over_number_field(fL, L).factors
    _feed_primes(monkeypatch, list(bad))
    tried = _record(monkeypatch, "_gcds_mod_p")
    assert factor_over_number_field(fL, L).factors == expected
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


def test_modular_gcd_combines_several_small_primes(monkeypatch):
    # the factors of X^6+108 have coordinates up to 12, which primes
    # below 300 recover only together
    L = make_field(parse_polynomial("X^6+108"))
    fL = L.defining.map_coeffs(L, L.from_rational)
    expected = factor_over_number_field(fL, L).factors
    small, p = [], 1
    while p < 300:
        p = next_prime(p)
        small.append(p)
    _feed_primes(monkeypatch, small)
    tried = _record(monkeypatch, "_gcds_mod_p")
    assert factor_over_number_field(fL, L).factors == expected
    used = [args[4] for args, hs in tried if hs and sum(len(h) - 1 for h in hs) == L.n]
    assert len(used) > 1 and all(p in small for p in used)


def test_no_gcd_or_shift_over_L_after_the_squarefree_check(monkeypatch):
    calls = []
    real_gcd = poly.poly_gcd

    def gcd_spy(a, b):
        calls.append(("gcd", a.dom))
        return real_gcd(a, b)

    for module in (poly, intpoly):
        monkeypatch.setattr(module, "poly_gcd", gcd_spy)
    for text in FIELDS:
        L = make_field(parse_polynomial(text))
        del calls[:]
        factor_over_number_field(L.defining.map_coeffs(L, L.from_rational), L)
        assert [c for c in calls if c[1] is not QQ] == [("gcd", L)], text
