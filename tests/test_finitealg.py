import itertools

import pytest

from l2lab.errors import CapExceeded, ConsistencyError
from l2lab import caps, finitealg, intpoly
from l2lab.lattice import from_edges
from l2lab.exact import prime_factors
from l2lab.poly import factor_mod_p, poly_gcd
from l2lab.finitealg import (FiniteAlgebra, Subalgebra, _power_table, conductor,
                             crucial_ideal, enumerate_subalgebras, field_extension,
                             maximal_ideals, msupp,
                             prime_algebra, product_algebra, quotient_algebra,
                             seminormalize, small_field, t_close)

from gfelem import gf
from nfelem import Poly


F2 = small_field(2)
F3 = small_field(3)
F4 = small_field(4)


def whole_algebra(S):
    return Subalgebra(S, [S.basis_vector(i) for i in range(S.dim)])


def field_algebra(F, m):
    """F_q[X]/(m) for a monic m over F_q, given by the indices of its
    coefficients (constant first), as an F_q-algebra of dim deg m."""
    dim = len(m) - 1
    unit = tuple(int(t == 0) for t in range(dim))
    names = ["1"] + ["x" if i == 1 else "x^%d" % i for i in range(1, dim)]
    return FiniteAlgebra(F, _power_table(F, m), unit, names)


def modulus(A):
    """The m of an algebra A = F_q[u]/(m) of ``field_extension``, k >= 2,
    as coefficient indices (constant first): u^k = u * u^(k-1) is minus
    m's lower part."""
    k = A.dim
    return tuple(A.field.neg_t[c] for c in A.table[1][k - 1]) + (1,)


def classify_minimal_type(R, S):
    """Type of a minimal extension, or 'not-minimal', by enumeration."""
    lat = finitealg.enumerate_subalgebras(R, S)
    if len(lat) != 2:
        return "not-minimal"
    return finitealg._minimal_type_of_pair(R, lat.nodes[-1])


def first_irreducible(p, n):
    for tail in itertools.product(range(p), repeat=n):
        f = list(tail) + [1]
        _, factors = factor_mod_p(f, p)
        if len(factors) == 1 and factors[0][1] == 1:
            return tuple(f)


def gf_tower(p, n):
    S = field_algebra(small_field(p), first_irreducible(p, n))
    return prime_algebra(S), S


def copointwise_model(F):
    S = quotient_algebra(F, ["X", "Y"],
                         [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}])
    return prime_algebra(S), S


def spir_model():
    # R = F2[t]/(t^2) inside S = R[Y]/(Y^2 - Y)
    S = quotient_algebra(F2, ["t", "y"],
                         [{(2, 0): 1}, {(0, 2): 1, (0, 1): 1}])
    R = Subalgebra.from_generators(S, [S.basis_vector(S.names.index("t"))])
    return R, S


def test_small_field_f4_arithmetic():
    G4 = gf(4)
    u = G4.element(2)
    assert u * u == u + G4.one          # u^2 = u + 1
    assert u ** 3 == G4.one
    for a in G4.elems:
        for b in G4.elems:
            assert a * b == b * a
            if b:
                assert (a / b) * b == a


def test_small_field_f9():
    F9 = small_field(9)
    assert F9.q == 9 and F9.p == 3 and F9.k == 2
    G9 = gf(9)
    nonzero = [a for a in G9.elems if a]
    for a in nonzero:
        assert a ** 8 == G9.one


@pytest.mark.parametrize("p,kmax", [(2, 7), (3, 4), (5, 3), (7, 2)])
def test_small_field_modulus_matches_factoring_oracle(p, kmax, monkeypatch):
    monkeypatch.setenv("L2LAB_CAP", str((p ** kmax) ** 2))
    for k in range(2, kmax + 1):
        expect = first_irreducible(p, k)
        F = gf(p ** k)
        u = F.elems[p]          # the residue of W in F_p[W]/(m)
        assert sum((F.elems[c] * u ** t for t, c in enumerate(expect[:k])),
                   u ** k) == F.zero


def test_prime_field_axioms():
    F7 = gf(7)
    elems = F7.elems
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
    m = list(modulus(field_extension(small_field(p), k)))

    def coeffs(i):
        return [i // p ** t % p for t in range(k)]

    def index(cs):
        return sum(c * p ** t for t, c in enumerate(cs))

    assert F.inv_t[0] is None
    for a in range(q):
        A = coeffs(a)
        assert F.neg_t[a] == index([-c % p for c in A])
        if a:
            assert intpoly._prem(intpoly._zmul(A, coeffs(F.inv_t[a])), m, p) == [1]
        for b in range(q):
            B = coeffs(b)
            assert F.add_t[a][b] == index([(x + y) % p for x, y in zip(A, B)])
            assert F.mul_t[a][b] == index(intpoly._prem(intpoly._zmul(A, B), m, p))


def _pow_mod(a, e, m):
    """a^e mod m on ``Poly``, by binary exponentiation."""
    result = Poly.const(a.dom, a.dom.one) % m
    base = a % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result


def rabin_irreducible(f, F):
    """Rabin's test on ``Poly`` over F = F_q: monic f of degree k is
    irreducible iff X^(q^k) = X mod f and gcd(X^(q^(k/l)) - X, f) = 1 for
    each prime l dividing k."""
    k = f.degree
    x = Poly.x(F)
    if _pow_mod(x, F.q ** k, f) != x % f:
        return False
    for ell in set(prime_factors(k)):
        g = _pow_mod(x, F.q ** (k // ell), f) - x
        if g.is_zero or poly_gcd(g, f).degree != 0:
            return False
    return True


def lex_least_irreducible(F, k):
    """The first monic f = c_0 + ... + c_(k-1) X^(k-1) + X^k with c_0 != 0,
    in the lexicographic order of (c_0, ..., c_(k-1)), that passes
    ``rabin_irreducible``, as coefficient indices."""
    G = gf(F.q)
    for tail in itertools.product(range(F.q), repeat=k):
        if tail[0] == 0:
            continue
        f = Poly(G, [G.element(c) for c in tail] + [G.one])
        if rabin_irreducible(f, G):
            return tuple(c.i for c in f.cs)


def poly_power_table(F, m):
    """Entry (i, j): the coefficient indices of X^(i+j) mod m, on Poly."""
    G = gf(F.q)
    f = Poly(G, [G.elems[c] for c in m])
    k = f.degree
    powers = [_pow_mod(Poly.x(G), t, f) for t in range(2 * k - 1)]
    return [[tuple(powers[i + j].coeff(t).i for t in range(k)) for j in range(k)]
            for i in range(k)]


@pytest.mark.parametrize("q", [q for q in range(2, 65)
                               if len(set(prime_factors(q))) == 1])
def test_extension_search_matches_poly_rabin_test(q):
    """The search's m, and its table, for every k >= 2 with q^k <= 4096,
    against Rabin's test and the power table on ``Poly``."""
    F = small_field(q)
    k = 2
    while q ** k <= 4096:
        A = field_extension(F, k)
        m = lex_least_irreducible(F, k)
        assert modulus(A) == m and A.table == tuple(
            tuple(row) for row in poly_power_table(F, m)), (q, k)
        k += 1
    assert field_extension(F, 1).table == (((1,),),)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 8), (2, 12), (3, 6), (4, 5)])
def test_extension_checks_the_axioms_once(monkeypatch, q, k):
    """Rabin's test runs on unchecked candidates; the axioms are checked
    once, on the algebra returned."""
    checked, check = [], FiniteAlgebra._check_axioms
    monkeypatch.setattr(FiniteAlgebra, "_check_axioms",
                        lambda A: checked.append(A) or check(A))
    A = field_extension(small_field(q), k)
    assert checked == [A]


def test_power_table_of_reducible_moduli():
    """Shift-and-subtract against ``Poly`` on every monic m of degree
    <= 3 over F_2, F_3 and F_4, reducible ones included."""
    for F in (F2, F3, F4):
        for k in (1, 2, 3):
            for tail in itertools.product(range(F.q), repeat=k):
                m = tail + (1,)
                assert _power_table(F, m) == poly_power_table(F, m), (F, m)


def test_small_field_elements_are_indices():
    # no object form of an element: only the tables on range(q)
    for q in (2, 4, 9):
        F = small_field(q)
        for name in ("elems", "zero", "one", "from_int", "element"):
            assert not hasattr(F, name), (q, name)
        assert len(F.add_t) == len(F.mul_t) == len(F.neg_t) == len(F.inv_t) == q


def test_small_field_rejects_non_prime_power():
    for q in (6, 12, 1):
        with pytest.raises(ValueError, match="%d is not a prime power" % q):
            small_field(q)


def test_maximal_ideals_product_of_fields():
    S = product_algebra(F2, [1, 1])
    assert len(maximal_ideals(whole_algebra(S))) == 2


def test_maximal_ideals_local():
    S = quotient_algebra(F2, ["X"], [{(2,): 1}])
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
    S = quotient_algebra(F2, ["X"], [{(2,): 1}])
    assert classify_minimal_type(prime_algebra(S), S) == "ramified"


def test_classify_not_minimal():
    S = product_algebra(F2, [1, 1, 1])
    assert classify_minimal_type(prime_algebra(S), S) == "not-minimal"


def test_seminormalize_ramified_goes_up():
    S = quotient_algebra(F2, ["X"], [{(2,): 1}])
    assert seminormalize(prime_algebra(S), whole_algebra(S)).is_whole()


def test_seminormalize_decomposed_stays():
    S = product_algebra(F2, [1, 1])
    R = prime_algebra(S)
    assert seminormalize(R, whole_algebra(S)) == R


def test_seminormalize_spir_example():
    R, S = spir_model()
    P = seminormalize(R, whole_algebra(S))
    assert P.dim == 3
    ty = S.mul(S.basis_vector(S.names.index("t")), S.basis_vector(S.names.index("y")))
    assert P.member(ty)
    assert not P.is_whole()


def test_t_close_decomposed_goes_up():
    S = product_algebra(F2, [1, 1])
    assert t_close(prime_algebra(S), whole_algebra(S)).is_whole()


def test_t_close_inert_stays():
    S = product_algebra(F2, [2])
    R = prime_algebra(S)
    assert t_close(R, whole_algebra(S)) == R


def test_t_close_f2_in_f2xf4():
    S = product_algebra(F2, [1, 2])
    T = t_close(prime_algebra(S), whole_algebra(S))
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
    S = quotient_algebra(F2, ["Y"], [{(3,): 1}])
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
                         [{(2, 0): 1}, {(0, 2): 1, (0, 1): 1}])
    assert S.dim == 4
    assert set(S.names) == {"1", "t", "y", "t*y"}


def test_quotient_algebra_buchberger_reduction():
    # relations t^2, t*y^2, t*y + y^2, y^3 collapse to a 4-dim algebra
    S = quotient_algebra(F2, ["t", "y"],
                         [{(2, 0): 1}, {(1, 2): 1},
                          {(1, 1): 1, (0, 2): 1}, {(0, 3): 1}])
    assert S.dim == 4


def test_quotient_algebra_inconsistent():
    with pytest.raises(ValueError, match="inconsistent"):
        quotient_algebra(F2, ["X"], [{(0,): 1}])


def test_quotient_algebra_infinite():
    with pytest.raises(ValueError, match="finite"):
        quotient_algebra(F2, ["X", "Y"], [{(2, 0): 1}])


def test_product_algebra_over_prime_power_base():
    # F4-algebra F4 x F16
    S = product_algebra(F4, [1, 2])
    assert S.dim == 3 and S.field.q == 4
    assert len(maximal_ideals(whole_algebra(S))) == 2


def test_caps_respected(monkeypatch):
    monkeypatch.setenv("L2LAB_CAP", "8")
    with pytest.raises(CapExceeded):
        product_algebra(F2, [2, 2])   # 2^4 = 16 > 8


def test_enumeration_caps_fire_before_the_walk(monkeypatch):
    # F2^5 over F2: the element cap is checked before any node is walked,
    # and the candidate cap before each node's points are: the bottom's 15
    # points fit a cap of 15, the 7 of the next node do not
    S = product_algebra(F2, [1] * 5)
    R = prime_algebra(S)
    walked, adjunctions = [], finitealg.adjunctions
    monkeypatch.setattr(finitealg, "adjunctions", lambda T: walked.append(T) or adjunctions(T))
    monkeypatch.setenv("L2LAB_CAP", "16")
    with pytest.raises(CapExceeded, match=r"subalgebra enumeration needs at least 2\^5"):
        enumerate_subalgebras(R, S)
    assert walked == []
    monkeypatch.delenv("L2LAB_CAP")
    monkeypatch.setattr(caps, "CANDIDATE_CAP", 15)
    with pytest.raises(CapExceeded, match="needs at least 22 adjunctions, cap is 15"):
        enumerate_subalgebras(R, S)
    assert walked == [R]


def test_subalgebra_rejects_non_closed():
    # span{1, y} in F2[Y]/(Y^3) misses y^2; span{1, y^2} is closed
    S3 = quotient_algebra(F2, ["Y"], [{(3,): 1}])
    y, y2 = S3.basis_vector(1), S3.basis_vector(2)
    assert not Subalgebra(S3, [S3.unit, y]).is_closed()
    assert Subalgebra(S3, [S3.unit, y2]).is_closed()


def test_subalgebra_must_contain_unit():
    # span{e1} in F2 x F2 is closed but misses 1 = e1 + e2
    S = product_algebra(F2, [1, 1])
    e1 = S.basis_vector(0)
    T = Subalgebra(S, [e1])
    assert T.is_closed() and not T.member(S.unit)
    assert Subalgebra(S, [S.unit, e1]).member(S.unit)


# ---------------------------------------------------------------------------
# Every ideal comparison behind a ConsistencyError fires: each test below
# falsifies one input of msupp, crucial_ideal or _minimal_type_of_pair and
# asserts the message.  The false inputs are built from the package's own
# ideals, so the tests do not depend on how an ideal is represented.

def test_msupp_checks_the_conductor_route_against_localization(monkeypatch):
    R, S = spir_model()
    T = whole_algebra(S)
    C = conductor(R, T)
    over = finitealg.maximal_ideals_over
    monkeypatch.setattr(finitealg, "maximal_ideals_over", lambda T, I: over(T, I)[:-1])
    with pytest.raises(ConsistencyError, match="support by conductor disagrees "
                                               "with localization"):
        msupp(R, T, C)


def _f2xf4_over_f2xf2():
    """F2 x F2 < F2 x F4: one-element support, the maximal ideal F2 x 0."""
    S = product_algebra(F2, [1, 2])
    R = Subalgebra.from_generators(S, [S.basis_vector(0)])
    T = whole_algebra(S)
    return R, T, conductor(R, T)


def test_crucial_ideal_checks_the_support():
    R, T, C = _f2xf4_over_f2xf2()
    support = msupp(R, T, C)
    assert crucial_ideal(R, C, support) == support[0]
    other = [N for N in maximal_ideals(R) if N != support[0]]
    assert len(other) == 1
    with pytest.raises(ConsistencyError, match="crucial ideal disagrees with the support"):
        crucial_ideal(R, C, other)


def test_crucial_ideal_checks_a_one_element_support():
    S = product_algebra(F2, [2, 2])
    R = Subalgebra.from_generators(S, [S.basis_vector(0)])
    T = whole_algebra(S)
    C = conductor(R, T)
    support = msupp(R, T, C)
    assert len(support) == 2
    with pytest.raises(ConsistencyError, match="one-element support but "
                                               r"sqrt\(R:S\) not maximal"):
        crucial_ideal(R, C, support[:1])


def _pair(S, gens=()):
    return Subalgebra.from_generators(S, list(gens)), whole_algebra(S)


def test_minimal_type_checks_the_conductor_is_maximal(monkeypatch):
    lo, hi = _pair(product_algebra(F2, [2]))
    assert finitealg._minimal_type_of_pair(lo, hi) == "inert"
    monkeypatch.setattr(finitealg, "conductor", lambda lo, hi: conductor(hi, hi))
    with pytest.raises(ConsistencyError, match="conductor of a minimal extension "
                                               "is not maximal in R"):
        finitealg._minimal_type_of_pair(lo, hi)


def test_minimal_type_checks_the_decomposed_residue_maps(monkeypatch):
    lo, hi = _pair(product_algebra(F2, [1, 1]))
    assert finitealg._minimal_type_of_pair(lo, hi) == "decomposed"
    over = finitealg.maximal_ideals_over
    monkeypatch.setattr(finitealg, "maximal_ideals_over",
                        lambda T, I: [over(T, I)[0], conductor(hi, hi)])
    with pytest.raises(ConsistencyError, match="decomposed residue map is not "
                                               "an isomorphism"):
        finitealg._minimal_type_of_pair(lo, hi)


def test_minimal_type_checks_the_number_of_ideals_over_the_conductor(monkeypatch):
    lo, hi = _pair(product_algebra(F2, [1, 1]))
    monkeypatch.setattr(finitealg, "maximal_ideals_over", lambda T, I: [])
    with pytest.raises(ConsistencyError, match=r"\|V\(M\)\| not in \{1, 2\}"):
        finitealg._minimal_type_of_pair(lo, hi)


def test_minimal_type_checks_the_inert_residue_field_grows(monkeypatch):
    # an equal pair F4 = F4 with the zero ideal as its conductor passes
    # every check up to the residue fields, which are the same
    T = whole_algebra(product_algebra(F2, [2]))
    monkeypatch.setattr(finitealg, "conductor", lambda lo, hi: maximal_ideals(lo)[0])
    with pytest.raises(ConsistencyError, match="inert case without residue field growth"):
        finitealg._minimal_type_of_pair(T, T)


def test_minimal_type_checks_the_ramified_square(monkeypatch):
    S = quotient_algebra(F2, ["X"], [{(2,): 1}])
    lo, hi = _pair(S)
    assert finitealg._minimal_type_of_pair(lo, hi) == "ramified"
    monkeypatch.setattr(finitealg, "maximal_ideals_over", lambda T, I: [conductor(hi, hi)])
    with pytest.raises(ConsistencyError, match="ramified case: N\\^2 not inside M"):
        finitealg._minimal_type_of_pair(lo, hi)


def test_minimal_type_checks_the_ramified_residue_map(monkeypatch):
    # F2 + F2 x^2 < F2[X]/(X^3) is ramified at M = (x^2), N = (x, x^2);
    # the zero ideal in N's place squares into M but has the wrong size
    S = quotient_algebra(F2, ["X"], [{(3,): 1}])
    lo, hi = _pair(S, [S.basis_vector(2)])
    assert finitealg._minimal_type_of_pair(lo, hi) == "ramified"
    zero = maximal_ideals(prime_algebra(S))[0]
    assert zero.dim == 0
    monkeypatch.setattr(finitealg, "maximal_ideals_over", lambda T, I: [zero])
    with pytest.raises(ConsistencyError, match="ramified residue map is not "
                                               "an isomorphism"):
        finitealg._minimal_type_of_pair(lo, hi)


def test_minimal_type_checks_the_ramified_degree(monkeypatch):
    # F2 < F2[X,Y]/(X^2, XY, Y^2) has length 2; taken for minimal, its
    # conductor 0 and N = (x, y) pass every check but [S/M : R/M] = 3
    S = quotient_algebra(F2, ["X", "Y"], [{(2, 0): 1}, {(1, 1): 1},
                                          {(0, 2): 1}])
    assert classify_minimal_type(prime_algebra(S), S) == "not-minimal"
    monkeypatch.setattr(finitealg, "enumerate_subalgebras",
                        lambda R, S: from_edges([R, whole_algebra(S)], [0b10, 0]))
    with pytest.raises(ConsistencyError, match=r"ramified case: \[S/M : R/M\] != 2"):
        classify_minimal_type(prime_algebra(S), S)


def test_closure_span_checks_the_span_is_a_subalgebra(monkeypatch):
    # F2 < F2[Y]/(Y^3): with only y taken for the nilradical, the
    # seminormalization's span {1, y} misses y^2
    S = quotient_algebra(F2, ["Y"], [{(3,): 1}])
    R, T = prime_algebra(S), whole_algebra(S)
    assert seminormalize(R, T).is_whole()
    y = S.basis_vector(S.names.index("Y"))
    monkeypatch.setattr(finitealg, "nilradical", lambda T: S.span([y]))
    with pytest.raises(ConsistencyError, match="seminormalization span is not "
                                               "a subalgebra"):
        seminormalize(R, T)
    with pytest.raises(ConsistencyError, match="t-closure span is not a subalgebra"):
        t_close(R, T)
