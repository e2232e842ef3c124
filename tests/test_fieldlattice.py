import pytest

from l2lab.poly import QQ, Poly
from l2lab.numberfield import make_field
from l2lab.principal import compute_principal_subfields, index_set_I
from l2lab.fieldlattice import (build_lattice, galois_length_two_check, is_length_two,
                                is_minimal_extension, verify_minpoly_product_identity)


def Q(*ints):
    return Poly.from_ints(QQ, list(ints))


def pipeline(*ints):
    ps = compute_principal_subfields(make_field(Q(*ints)))
    lat = build_lattice(ps)
    return ps, lat


@pytest.fixture(scope="module")
def quartic():
    return pipeline(-2, 0, 0, 0, 1)


@pytest.fixture(scope="module")
def biquad():
    return pipeline(1, 0, -10, 0, 1)


@pytest.fixture(scope="module")
def sextic():
    return pipeline(108, 0, 0, 0, 0, 0, 1)


def test_lattice_sizes(quartic, biquad, sextic):
    assert len(quartic[1]) == 3
    assert len(biquad[1]) == 5
    assert len(sextic[1]) == 6


def test_biquad_is_a_diamond(biquad):
    ps, lat = biquad
    dims = [n.dim for n in lat.nodes]
    assert dims == [1, 2, 2, 2, 4]
    assert lat.covers == {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}


def test_lengths(quartic, biquad, sextic):
    assert quartic[1].length == 2
    assert biquad[1].length == 2
    assert sextic[1].length == 2


def test_minimal_cyclic_cubic():
    # brute-force confirmation: every principal subfield collapses to Q
    ps, lat = pipeline(1, -3, 0, 1)
    assert all(sub.dim == 1 for sub in ps.L_alpha)
    assert is_minimal_extension(ps, lat)
    assert lat.length == 1


def test_minimal_quadratic():
    ps, lat = pipeline(-2, 0, 1)
    assert is_minimal_extension(ps, lat)


def test_not_minimal(quartic):
    assert not is_minimal_extension(*quartic)


def test_is_length_two_cases(quartic, biquad):
    ok, info = is_length_two(*quartic)
    assert ok and info["k_in_E"] and info["predicted_count"] == 3
    ok, info = is_length_two(*biquad)
    assert ok and not info["k_in_E"] and info["predicted_count"] == 5


def test_is_length_two_false_when_minimal():
    ps, lat = pipeline(-2, 0, 1)
    ok, info = is_length_two(ps, lat)
    assert not ok and info == {"t": 1}


def test_galois_sextic(sextic):
    ps, lat = sextic
    rep = galois_length_two_check(lat, ps)
    assert rep["degree_primes"] == [2, 3]
    assert rep["two_prime_degree"] and rep["length"] == 2
    assert rep["count_observed"] == 6 and rep["bound_ok"]


def test_galois_biquad(biquad):
    ps, lat = biquad
    rep = galois_length_two_check(lat, ps)
    assert rep["count_observed"] == 5 and rep["bound_n_plus_1"] == 5
    assert rep["bound_ok"]


def test_galois_prime_degree_not_two_prime():
    ps, lat = pipeline(-2, 0, 1)
    rep = galois_length_two_check(lat, ps)
    assert rep["two_prime_degree"] is False


def test_not_galois_rejected():
    ps, lat = pipeline(-2, 0, 0, 0, 1)   # X^4 - 2 does not split over L
    with pytest.raises(ValueError, match="not Galois"):
        galois_length_two_check(lat, ps)


def test_minpoly_product_identity(quartic, biquad, sextic):
    for ps, lat in (quartic, biquad, sextic):
        assert verify_minpoly_product_identity(ps, lat)


def test_theorem_2_1_on_cover_dag(quartic, biquad, sextic):
    # length 2 <=> every strictly intermediate node covers bottom and is
    # covered by top
    for ps, lat in (quartic, biquad, sextic):
        mids = range(1, len(lat.nodes) - 1)
        pair = all((0, i) in lat.covers and (i, len(lat.nodes) - 1) in lat.covers
                   for i in mids)
        assert pair == (lat.length == 2)


def test_cardinality_formulas(quartic, biquad):
    for ps, lat in (quartic, biquad):
        ok, info = is_length_two(ps, lat)
        assert ok
        k_in_E = info["k_in_E"]
        assert len(lat) == (ps.t + 1 if k_in_E else ps.t + 2)


def test_count_bound_for_simple_length_two(quartic, biquad, sextic):
    # |[k,L]| <= n + 1 for these simple length-2 extensions
    for ps, lat in (quartic, biquad, sextic):
        assert len(lat) <= ps.field.n + 1


def test_prop_4_253_consistency(biquad, sextic, quartic):
    # if every E_beta is covered by L then I(E_beta) = Gamma(beta)
    for ps, lat in (biquad, sextic, quartic):
        key_to_idx = {n.key(): i for i, n in enumerate(lat.nodes)}
        top = len(lat.nodes) - 1
        all_covered = all((key_to_idx[e.key()], top) in lat.covers for e in ps.E)
        if all_covered:
            for b, e in enumerate(ps.E):
                assert set(ps.gamma[b]) == index_set_I(e, ps.system)


def test_degree_six_nonnormal():
    # Q(2^(1/6)): the quadratic and cubic radical subfields, and Q itself
    # is principal (the factor with both primitive-sixth-root conjugates
    # pins every coefficient).
    ps, lat = pipeline(-2, 0, 0, 0, 0, 0, 1)
    assert ps.t == 3
    assert sorted(e.dim for e in ps.E) == [1, 2, 3]
    assert len(lat) == 4 and lat.length == 2
    ok, info = is_length_two(ps, lat)
    assert ok and info["k_in_E"] and info["predicted_count"] == 4


def test_cyclotomic_five():
    # Q(zeta_5), cyclic of degree 4: k is principal, count 3
    ps, lat = pipeline(1, 1, 1, 1, 1)
    ok, info = is_length_two(ps, lat)
    assert ok and info["k_in_E"] and len(lat) == 3
    rep = galois_length_two_check(lat, ps)
    assert rep["abelian_count_witnessed"]


def test_eighth_cyclotomic():
    # X^4 + 1: three quadratic subfields, count 5
    ps, lat = pipeline(1, 0, 0, 0, 1)
    assert ps.t == 3 and len(lat) == 5 and lat.length == 2
