from fractions import Fraction

import pytest

from l2lab.poly import Poly
from l2lab.numberfield import make_field
from l2lab.principal import compute_principal_subfields, principal_subfield_of_factor
from test_fieldlattice_oracle import index_set_I
from test_numberfield import subfield_generated
from nfelem import nf, over_L


def Q(*ints):
    return Poly(map(Fraction, ints))


@pytest.fixture(scope="module")
def ps4():
    return compute_principal_subfields(make_field(Q(-2, 0, 0, 0, 1)))


@pytest.fixture(scope="module")
def ps_biquad():
    return compute_principal_subfields(make_field(Q(1, 0, -10, 0, 1)))


@pytest.fixture(scope="module")
def ps6():
    return compute_principal_subfields(make_field(Q(108, 0, 0, 0, 0, 0, 1)))


def test_factor_system_shape(ps4):
    sysf = ps4.system
    assert sysf.r == 2
    assert sorted(len(g) - 1 for g in sysf.factors) == [1, 2]


def test_principal_subfield_of_linear_factor(ps4):
    L = ps4.field
    x = nf(L).gen()
    lin = next(g for g in ps4.system.factors if len(g) == 2)     # X + x
    sub = principal_subfield_of_factor(L, lin)
    assert sub == subfield_generated(L, [x * x])                 # Q(sqrt 2)


def test_principal_subfield_of_quadratic_factor_is_Q(ps4):
    L = ps4.field
    quad = next(g for g in ps4.system.factors if len(g) == 3)    # X^2 + x^2
    sub = principal_subfield_of_factor(L, quad)
    assert sub.dim == 1


def test_principal_subfield_rejects_non_factor(ps4):
    L = ps4.field
    one = L.gen_powers[0]
    with pytest.raises(ValueError, match="not a factor"):
        principal_subfield_of_factor(L, [one, one])             # X + 1


def test_principal_subfield_rejects_non_monic_factor(ps4):
    # a polynomial over L is divided only by a monic polynomial
    L = ps4.field
    quad = next(g for g in ps4.system.factors if len(g) == 3)
    with pytest.raises(ValueError, match="factor must be monic"):
        principal_subfield_of_factor(L, [tuple(2 * c for c in a) for a in quad])


def test_principal_subfield_rejects_the_linear_factor(ps4):
    # X - x divides f and is monic, but its principal subfield would be L
    L = ps4.field
    with pytest.raises(ValueError, match="factor vanishes at x"):
        principal_subfield_of_factor(L, [tuple(-c for c in L.gen_powers[1]),
                                         L.gen_powers[0]])


def test_dedup_x4_minus_2(ps4):
    assert ps4.t == 2
    assert sorted(e.dim for e in ps4.E) == [1, 2]


def test_dedup_biquadratic(ps_biquad):
    assert ps_biquad.t == 3
    assert all(e.dim == 2 for e in ps_biquad.E)       # none equals Q


def test_dedup_degree_six(ps6):
    assert ps6.t == 4
    assert sorted(e.dim for e in ps6.E) == [2, 3, 3, 3]


def test_index_set_of_bottom_is_everything(ps4):
    from nfelem import prime_subfield
    k = prime_subfield(ps4.field)
    assert index_set_I(k, ps4.system) == {0, 1}


def test_index_set_of_top_is_empty(ps4):
    from l2lab.numberfield import whole_field
    assert index_set_I(whole_field(ps4.field), ps4.system) == set()


def test_index_set_of_sqrt2(ps4):
    L = ps4.field
    E1 = subfield_generated(L, [nf(L).gen() * nf(L).gen()])
    lin_idx = next(i for i, g in enumerate(ps4.system.factors) if len(g) == 2)
    assert index_set_I(E1, ps4.system) == {lin_idx}


def test_gamma_subset_of_I_with_strictness(ps4):
    # For X^4 - 2 the subfield Q has Gamma strictly inside I.
    for b, e in enumerate(ps4.E):
        gamma = set(ps4.gamma[b])
        I = index_set_I(e, ps4.system)
        assert gamma <= I
        if e.dim == 1:
            assert gamma < I


def test_m_beta_product_identity(ps4, ps_biquad, ps6):
    # m_beta = (X - x) * prod of the f_alpha whose Phi-image contains E_beta
    for ps in (ps4, ps_biquad, ps6):
        L = ps.field
        xlin = over_L(L, ps.system.linear)
        for b, e in enumerate(ps.E):
            prod = xlin
            for a in range(ps.system.r):
                phi_sub = ps.E[ps.phi[a]]
                if phi_sub.basis.contains_span(e.basis):
                    prod = prod * over_L(L, ps.system.factors[a])
            assert prod == over_L(L, ps.m[b])


def K_g_of_product(alpha, sys):
    """Subfield generated by the coefficients of (X - x) * f_alpha."""
    L = sys.field
    g = over_L(L, sys.linear) * over_L(L, sys.factors[alpha])
    return subfield_generated(L, list(g.cs))


def test_K_g_of_product_x4_minus_2(ps4):
    L = ps4.field
    lin_idx = next(i for i, g in enumerate(ps4.system.factors) if len(g) == 2)
    quad_idx = 1 - lin_idx
    K1 = K_g_of_product(lin_idx, ps4.system)
    assert K1 == subfield_generated(L, [nf(L).gen() * nf(L).gen()])
    K2 = K_g_of_product(quad_idx, ps4.system)
    assert K2.is_full()


def test_K_g_equals_phi_when_proper(ps_biquad):
    # Lemma: K_alpha = Phi(f_alpha) whenever K_alpha is a proper subfield.
    for a in range(ps_biquad.system.r):
        K = K_g_of_product(a, ps_biquad.system)
        if not K.is_full():
            assert K == ps_biquad.E[ps_biquad.phi[a]]


def test_K_g_maximality_when_proper(ps4, ps_biquad, ps6):
    # A proper K_g is maximal: nothing strictly between it and L among
    # the computed subfields.
    for ps in (ps4, ps_biquad, ps6):
        proper = [K_g_of_product(a, ps.system) for a in range(ps.system.r)]
        proper = [K for K in proper if not K.is_full()]
        for K in proper:
            for e in ps.E:
                if e != K and e.basis.contains_span(K.basis):
                    assert e.is_full()


def test_K_g_whole_field_count_degree_six(ps6):
    # exactly two of the five quadratic products (X-x)f_alpha generate L
    fulls = sum(1 for a in range(ps6.system.r)
                if K_g_of_product(a, ps6.system).is_full())
    assert fulls == 2


def test_intersection_of_all_E_is_Q(ps6):
    from l2lab.numberfield import intersect_subfields
    inter = ps6.E[0]
    for e in ps6.E[1:]:
        inter = intersect_subfields(inter, e)
    assert inter.dim == 1


def test_factor_count_matches_r_plus_one(ps4, ps_biquad, ps6):
    for ps in (ps4, ps_biquad, ps6):
        assert len(ps.system.factors) == ps.system.r
        assert len({tuple(g) for g in ps.system.factors}) == ps.system.r
