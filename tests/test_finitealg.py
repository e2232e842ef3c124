import itertools

import pytest

from l2lab.errors import CapExceeded
from l2lab import poly
from l2lab.poly import Poly, factor_mod_p
from l2lab.finitealg import (Subalgebra, classify_minimal_type, conductor,
                             crucial_ideal, enumerate_subalgebras, field_algebra,
                             maximal_ideals, msupp,
                             prime_algebra, product_algebra, quotient_algebra,
                             seminormalize, small_field, t_close, whole_algebra)


F2 = small_field(2)
F3 = small_field(3)
F4 = small_field(4)


def first_irreducible(p, n):
    dom = small_field(p)
    for tail in itertools.product(range(p), repeat=n):
        f = Poly.from_ints(dom, list(tail) + [1])
        fac = factor_mod_p(f)
        if len(fac.factors) == 1 and fac.factors[0][1] == 1:
            return f


def gf_tower(p, n):
    S = field_algebra(small_field(p), first_irreducible(p, n))
    return prime_algebra(S), S


def copointwise_model(F):
    S = quotient_algebra(F, ["X", "Y"],
                         [{(2, 0): F.one}, {(1, 1): F.one}, {(0, 2): F.one}])
    return prime_algebra(S), S


def spir_model():
    # R = F2[t]/(t^2) inside S = R[Y]/(Y^2 - Y)
    S = quotient_algebra(F2, ["t", "y"],
                         [{(2, 0): F2.one}, {(0, 2): F2.one, (0, 1): F2.one}])
    R = Subalgebra.from_generators(S, [S.basis_vector(S.names.index("t"))])
    return R, S


def test_small_field_f4_arithmetic():
    u = F4.element(2)
    assert u * u == u + F4.one          # u^2 = u + 1
    assert u ** 3 == F4.one
    for a in F4.elements():
        for b in F4.elements():
            assert a * b == b * a
            if b:
                assert (a / b) * b == a


def test_small_field_f9():
    F9 = small_field(9)
    assert F9.q == 9 and F9.p == 3 and F9.k == 2
    nonzero = [a for a in F9.elements() if a]
    for a in nonzero:
        assert a ** 8 == F9.one


@pytest.mark.parametrize("p,kmax", [(2, 7), (3, 4), (5, 3), (7, 2)])
def test_small_field_modulus_matches_factoring_oracle(p, kmax, monkeypatch):
    monkeypatch.setenv("L2LAB_CAP", str((p ** kmax) ** 2))
    for k in range(2, kmax + 1):
        expect = [c.i for c in first_irreducible(p, k).cs[:k]]
        assert small_field(p ** k).modpoly == expect


def test_prime_field_axioms():
    F7 = small_field(7)
    elems = F7.elements()
    for a in elems:
        for b in elems:
            assert (a + b) - b == a
            assert a * b == b * a
            if b:
                assert (a / b) * b == a
    assert F7.element(3) ** 6 == F7.one


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_small_field_tables_match_int_list_layer(q):
    """Every table entry against F_p[u]/(m) on plain coefficient lists."""
    F = small_field(q)
    p, k = F.p, F.k
    m = F.modpoly + [1]

    def coeffs(i):
        return [i // p ** t % p for t in range(k)]

    def index(cs):
        return sum(c * p ** t for t, c in enumerate(cs))

    assert F.inv_t[0] is None
    for a in range(q):
        A = coeffs(a)
        assert F.neg_t[a] == index([-c % p for c in A])
        if a:
            assert poly._prem(poly._zmul(A, coeffs(F.inv_t[a])), m, p) == [1]
        for b in range(q):
            B = coeffs(b)
            assert F.add_t[a][b] == index([(x + y) % p for x, y in zip(A, B)])
            assert F.mul_t[a][b] == index(poly._prem(poly._zmul(A, B), m, p))


def test_small_field_rejects_non_prime_power():
    for q in (6, 12, 1):
        with pytest.raises(ValueError, match="%d is not a prime power" % q):
            small_field(q)


def test_maximal_ideals_product_of_fields():
    S = product_algebra(F2, [1, 1])
    assert len(maximal_ideals(whole_algebra(S))) == 2


def test_maximal_ideals_local():
    S = quotient_algebra(F2, ["X"], [{(2,): F2.one}])
    ms = maximal_ideals(whole_algebra(S))
    assert len(ms) == 1 and ms[0].dim == 1


def test_maximal_ideals_f2_times_f4():
    S = product_algebra(F2, [1, 2])
    assert len(maximal_ideals(whole_algebra(S))) == 2


def test_conductor_diagonal_in_product_is_zero():
    S = product_algebra(F2, [1, 1])
    R = prime_algebra(S)
    assert conductor(R, whole_algebra(S)).dim == 0


def test_conductor_spir_example_zero_but_M_nonzero():
    R, S = spir_model()
    T = whole_algebra(S)
    C = conductor(R, T)
    assert C.dim == 0
    M = crucial_ideal(R, C, msupp(R, T, C))
    assert M is not None and M.dim == 1


def test_conductor_of_equal_rings_is_unit_ideal():
    S = product_algebra(F2, [1, 1])
    R = whole_algebra(S)
    assert conductor(R, R).dim == S.dim


def test_crucial_ideal_field_base():
    S = product_algebra(F2, [2])
    R, T = prime_algebra(S), whole_algebra(S)
    C = conductor(R, T)
    M = crucial_ideal(R, C, msupp(R, T, C))
    assert M is not None and M.dim == 0


def test_crucial_ideal_two_element_support_is_none():
    S = product_algebra(F2, [2, 2])
    R = Subalgebra.from_generators(S, [S.basis_vector(0)])
    T = whole_algebra(S)
    C = conductor(R, T)
    assert crucial_ideal(R, C, msupp(R, T, C)) is None
    assert len(msupp(R, T, C)) == 2


@pytest.mark.parametrize("build,expected", [
    (lambda: (prime_algebra(product_algebra(F2, [2])), product_algebra(F2, [2])), "inert"),
    (lambda: (prime_algebra(product_algebra(F2, [1, 1])), product_algebra(F2, [1, 1])), "decomposed"),
])
def test_classify_minimal_types_semisimple(build, expected):
    S = build()[1]
    R = prime_algebra(S)
    assert classify_minimal_type(R, S) == expected


def test_classify_minimal_ramified():
    S = quotient_algebra(F2, ["X"], [{(2,): F2.one}])
    assert classify_minimal_type(prime_algebra(S), S) == "ramified"


def test_classify_not_minimal():
    S = product_algebra(F2, [1, 1, 1])
    assert classify_minimal_type(prime_algebra(S), S) == "not-minimal"


def test_seminormalize_ramified_goes_up():
    S = quotient_algebra(F2, ["X"], [{(2,): F2.one}])
    assert seminormalize(prime_algebra(S), S).is_whole()


def test_seminormalize_decomposed_stays():
    S = product_algebra(F2, [1, 1])
    R = prime_algebra(S)
    assert seminormalize(R, S) == R


def test_seminormalize_spir_example():
    R, S = spir_model()
    P = seminormalize(R, S)
    assert P.dim == 3
    ty = S.mul(S.basis_vector(S.names.index("t")), S.basis_vector(S.names.index("y")))
    assert P.member(ty)
    assert not P.is_whole()


def test_t_close_decomposed_goes_up():
    S = product_algebra(F2, [1, 1])
    assert t_close(prime_algebra(S), S).is_whole()


def test_t_close_inert_stays():
    S = product_algebra(F2, [2])
    R = prime_algebra(S)
    assert t_close(R, S) == R


def test_t_close_f2_in_f2xf4():
    S = product_algebra(F2, [1, 2])
    T = t_close(prime_algebra(S), S)
    assert T.dim == 2
    # F2 x F2 inside F2 x F4: spanned by the two unit idempotents
    assert T.member(S.basis_vector(0)) and T.member(S.basis_vector(1))


def test_enumerate_bell_number():
    S = product_algebra(F2, [1, 1, 1])
    lat = enumerate_subalgebras(prime_algebra(S), S)
    assert len(lat) == 5 and lat.length == 2


def test_enumerate_copointwise_counts():
    for F, expected in [(F2, 5), (F3, 6)]:
        R, S = copointwise_model(F)
        lat = enumerate_subalgebras(R, S)
        assert len(lat) == expected and lat.length == 2


def test_enumerate_y_cubed():
    S = quotient_algebra(F2, ["Y"], [{(3,): F2.one}])
    R = prime_algebra(S)
    lat = enumerate_subalgebras(R, S)
    assert len(lat) == 3 and lat.length == 2
    # middle node is R + N^2 = span{1, y^2}
    mid = lat.nodes[1]
    y2 = S.basis_vector(S.names.index("Y^2"))
    assert mid.dim == 2 and mid.member(y2)


def test_enumerate_towers_divisor_lattice():
    for (p, n, expected) in [(2, 4, 3), (2, 6, 4), (3, 4, 3)]:
        R, S = gf_tower(p, n)
        lat = enumerate_subalgebras(R, S)
        assert len(lat) == expected
        assert lat.length == 2
        divisors = sorted(d for d in range(1, n + 1) if n % d == 0)
        assert sorted(node.dim for node in lat.nodes) == divisors


def test_quotient_algebra_names_and_dim():
    S = quotient_algebra(F2, ["t", "y"],
                         [{(2, 0): F2.one}, {(0, 2): F2.one, (0, 1): F2.one}])
    assert S.dim == 4
    assert set(S.names) == {"1", "t", "y", "t*y"}


def test_quotient_algebra_buchberger_reduction():
    # relations t^2, t*y^2, t*y + y^2, y^3 collapse to a 4-dim algebra
    S = quotient_algebra(F2, ["t", "y"],
                         [{(2, 0): F2.one}, {(1, 2): F2.one},
                          {(1, 1): F2.one, (0, 2): F2.one}, {(0, 3): F2.one}])
    assert S.dim == 4


def test_quotient_algebra_inconsistent():
    with pytest.raises(ValueError, match="inconsistent"):
        quotient_algebra(F2, ["X"], [{(0,): F2.one}])


def test_quotient_algebra_infinite():
    with pytest.raises(ValueError, match="finite"):
        quotient_algebra(F2, ["X", "Y"], [{(2, 0): F2.one}])


def test_product_algebra_over_prime_power_base():
    # F4-algebra F4 x F16
    S = product_algebra(F4, [1, 2])
    assert S.dim == 3 and S.field.q == 4
    assert len(maximal_ideals(whole_algebra(S))) == 2


def test_caps_respected(monkeypatch):
    monkeypatch.setenv("L2LAB_CAP", "8")
    with pytest.raises(CapExceeded):
        product_algebra(F2, [2, 2])   # 2^4 = 16 > 8


def test_subalgebra_rejects_non_closed():
    # span{1, y} in F2[Y]/(Y^3) misses y^2
    S3 = quotient_algebra(F2, ["Y"], [{(3,): F2.one}])
    y = S3.basis_vector(1)
    with pytest.raises(ValueError, match="closed"):
        Subalgebra(S3, [S3.unit, y], check=True)


def test_subalgebra_must_contain_unit():
    S = product_algebra(F2, [1, 1])
    e1 = S.basis_vector(0)
    with pytest.raises(ValueError, match="contain 1"):
        Subalgebra(S, [e1], check=True)
