"""The number-field checks: each is forced to disagree once, and each
field-side fact is computed once.

Every kept check of the field path is made to fail by patching one of
its inputs, and must reach the command line as a ``ConsistencyError``
with exit code 3.  The spies on ``NumberField.poly_rem`` and
``poly_mul`` check that every divisor over L is monic, and count the
divisions of f over L, the subfields built from spans and the span
intersections of a pass over the benchmark fields (the order facts come
from the lattice's up-sets), and the products over L per
``FactorSystem``.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from l2lab import exact, fieldlattice, lattice, numberfield, principal, report
from l2lab.cli import main
from l2lab.numberfield import NumberField, make_field, whole_field
from l2lab.parsing import parse_polynomial
from l2lab.poly import Factorization, Poly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

FIELDS = [f for _, f, _, _ in corpus.FIELDS]
PHI11 = "+".join("X^%d" % i for i in range(10, 0, -1)) + "+1"
BIQUADRATIC = "X^4-10*X^2+1"       # t = 3, k not among the E_beta


def failure(capsys, f):
    code = main(["classify", "--json", f])
    return code, capsys.readouterr().err


def test_unforced_checks_pass(capsys):
    assert failure(capsys, BIQUADRATIC) == (0, "")


def test_linear_factor_is_required(monkeypatch, capsys):
    factor = principal.factor_over_number_field

    def without_linear(f, L):
        unit, factors = factor(f, L)
        xlin = [tuple(-c for c in L.gen_powers[1]), L.gen_powers[0]]
        return unit, [gm for gm in factors if gm[0] != xlin]

    monkeypatch.setattr(principal, "factor_over_number_field", without_linear)
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "factor X - x missing from factorization over L" in err


def test_principal_subfield_is_proper(monkeypatch, capsys):
    monkeypatch.setattr(principal, "principal_subfield_of_factor",
                        lambda L, f_alpha: whole_field(L))
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "a principal subfield equals L" in err


def test_principal_subfields_meet_in_k(monkeypatch, capsys):
    # every factor gets the first factor's principal subfield, a proper
    # quadratic one, so the E_beta meet in it, above k
    of_factor = principal.principal_subfield_of_factor
    first = []

    def first_factors_subfield(L, f_alpha):
        first.append(first[0] if first else of_factor(L, f_alpha))
        return first[-1]

    monkeypatch.setattr(principal, "principal_subfield_of_factor", first_factors_subfield)
    code, err = failure(capsys, BIQUADRATIC)
    assert code == 3 and "intersection of principal subfields is not k" in err


def test_principal_subfield_inside_its_factors_field(monkeypatch, capsys):
    # The second factor gets the first factor's subfield, so E_1 is not
    # inside the principal subfield of the second factor, and f_2 does not
    # divide f_{E_1}: the product identity at E_1 is the check that
    # catches it.
    of_factor = principal.principal_subfield_of_factor
    seen = []

    def first_factors_subfield(L, f_alpha):
        seen.append(of_factor(L, f_alpha))
        return seen[0 if len(seen) == 2 else -1]

    monkeypatch.setattr(principal, "principal_subfield_of_factor", first_factors_subfield)
    code, err = failure(capsys, BIQUADRATIC)
    assert len(seen) == 3
    assert code == 3 and "product identity fails for a lattice node" in err


def test_subfield_dimension_divides_the_degree(monkeypatch, capsys):
    # span{1, x, x^2} of Q(2^(1/4)) is no subfield; with the closure
    # check skipped, its dimension 3, which does not divide 4, is caught
    # before the minimal polynomial is solved for: the span's own
    # reduction is the only one
    rref, reductions = exact.rref, []

    def counted_rref(rows, ops):
        reductions.append(len(rows))
        return rref(rows, ops)

    def three_dimensional(L, f_alpha):
        monkeypatch.setattr(exact, "rref", counted_rref)
        return numberfield.subfield_from_subspace(L, L.gen_powers[1:3])

    monkeypatch.setattr(numberfield, "_check_subspace_is_subfield", lambda L, span: None)
    monkeypatch.setattr(principal, "principal_subfield_of_factor", three_dimensional)
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "deg(f_K) * dim(K) != n" in err
    assert reductions == [3]


@pytest.mark.parametrize("node, flip", [(1, 1 << 2), (0, 1 << 1)],
                         ids=["I(E_beta)", "I(K) of a meet"])
def test_product_identity(node, flip, monkeypatch, capsys):
    # The biquadratic lattice is k < E_1, E_2, E_3 < L, with k the meet of
    # the E_beta.  One inclusion is made wrong after the lattice is built:
    # E_1 inside E_2 adds Gamma(2) to I(E_1); k outside E_1 drops Gamma(1)
    # from I(k).
    build_lattice = fieldlattice.build_lattice

    def one_inclusion_wrong(ps):
        lat = build_lattice(ps)
        lat.up[node] ^= flip
        return lat

    monkeypatch.setattr(fieldlattice, "build_lattice", one_inclusion_wrong)
    code, err = failure(capsys, BIQUADRATIC)
    assert code == 3 and "product identity fails for a lattice node" in err


def test_predicted_count_is_checked(monkeypatch, capsys):
    is_length_two = fieldlattice.is_length_two

    def miscounted(ps, lat):
        verdict, info = is_length_two(ps, lat)
        info["predicted_count"] += 1
        return verdict, info

    monkeypatch.setattr(fieldlattice, "is_length_two", miscounted)
    code, err = failure(capsys, BIQUADRATIC)
    assert code == 3 and "predicted 6 != observed 5" in err


def test_factors_over_L_are_squarefree(monkeypatch, capsys):
    factor = principal.factor_over_number_field

    def with_a_square(f, L):
        unit, factors = factor(f, L)
        return unit, [(factors[0][0], 2)] + factors[1:]

    monkeypatch.setattr(principal, "factor_over_number_field", with_a_square)
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "defining polynomial not squarefree over L" in err


def test_subfield_contains_1(monkeypatch, capsys):
    # every meet of two subfields comes out as span{x}
    def span_of_x(A, B):
        x = [Fraction(int(i == 1)) for i in range(len(A[0]))]
        return exact.Echelon([x], exact.QQ_OPS)

    monkeypatch.setattr(fieldlattice, "intersection", span_of_x)
    code, err = failure(capsys, BIQUADRATIC)
    assert code == 3 and "subspace does not contain 1" in err


def test_subfield_is_closed_under_multiplication(monkeypatch, capsys):
    # the kernel of each principal subfield's map comes out as span{x},
    # and span{1, x} of Q(2^(1/4)) does not hold x^2
    monkeypatch.setattr(exact, "kernel", lambda rows, n, ops: [
        [Fraction(int(i == 1)) for i in range(n)]])
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "subspace is not closed under multiplication" in err


def test_minimal_polynomial_kills_x(monkeypatch, capsys):
    # L's table of powers has x^n one off, so the minimal polynomial of x
    # over k, solved from it, does not vanish at x
    init = NumberField.__init__

    def wrong_top_power(self, defining):
        init(self, defining)
        self.gen_powers[-1] = tuple(c + (i == 0) for i, c in enumerate(self.gen_powers[-1]))

    monkeypatch.setattr(NumberField, "__init__", wrong_top_power)
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "minimal polynomial does not kill x" in err


def test_t_is_1_iff_two_nodes(monkeypatch, capsys):
    # Q(2^(1/3)) is minimal, t = 1; the principal subfield set lists its
    # one E_beta twice
    real = principal.PrincipalSubfieldSet
    monkeypatch.setattr(principal, "PrincipalSubfieldSet",
                        lambda system, E, phi, gamma: real(system, E + E, phi, gamma))
    code, err = failure(capsys, "X^3-2")
    assert code == 3 and "t = 1 disagrees with the two-node lattice test" in err


def test_length_two_predicate_matches_chain_length(monkeypatch, capsys):
    # the biquadratic lattice is built with its longest chain one too long
    from_edges = lattice.from_edges

    def one_too_long(nodes, gen):
        lat = from_edges(nodes, gen)
        lat.length += 1
        return lat

    monkeypatch.setattr(lattice, "from_edges", one_too_long)
    code, err = failure(capsys, BIQUADRATIC)
    assert code == 3 and "length-2 predicate disagrees with chain length" in err


def test_galois_of_two_prime_degree_has_length_2(monkeypatch, capsys):
    # the cyclic cubic field, of length 1, is given the degree 3 = 3 * 3
    monkeypatch.setattr(fieldlattice, "prime_factors", lambda n: [n, n])
    code, err = failure(capsys, "X^3-3*X+1")
    assert code == 3 and "Galois of two-prime degree must have length 2" in err


# ---------------------------------------------------------------------------
# Each fact once

def test_every_division_over_L_is_by_a_monic(monkeypatch):
    # no element of L is inverted: each polynomial over L is divided only
    # by a monic polynomial, on the benchmark fields and Phi_11
    rem, divisors = NumberField.poly_rem, []

    def spy(L, a, b):
        divisors.append(b[-1] == L.gen_powers[0])
        return rem(L, a, b)

    monkeypatch.setattr(NumberField, "poly_rem", spy)
    for f in FIELDS + [PHI11]:
        report.field_report(parse_polynomial(f), f)
    assert divisors and all(divisors)


def test_order_facts_come_from_the_lattice(monkeypatch):
    # Per pass over the benchmark fields, the only divisions of f over L
    # are principal_subfield_of_factor's f_alpha | f (one per factor), the
    # only span intersections are build_lattice's, and the subfields
    # built from spans are the L_alpha and its new meets.
    rem, of_span, intersection = (NumberField.poly_rem, numberfield.subfield_of_span,
                                  exact.intersection)
    build = fieldlattice.build_lattice
    inside, calls = [], {"divides": 0, "of_span": 0, "inside": 0, "outside": 0}

    def counted_rem(L, a, b):
        calls["divides"] += len(a) == L.n + 1
        return rem(L, a, b)

    def counted_of_span(L, span):
        calls["of_span"] += 1
        return of_span(L, span)

    def counted_intersection(A, B):
        calls["inside" if inside else "outside"] += 1
        return intersection(A, B)

    def build_lattice(ps):
        inside.append(ps)
        try:
            return build(ps)
        finally:
            inside.pop()

    monkeypatch.setattr(NumberField, "poly_rem", counted_rem)
    for module in (numberfield, fieldlattice):
        monkeypatch.setattr(module, "subfield_of_span", counted_of_span)
    for module in (exact, fieldlattice):
        monkeypatch.setattr(module, "intersection", counted_intersection)
    monkeypatch.setattr(fieldlattice, "build_lattice", build_lattice)
    r = 0
    for f in FIELDS:
        rep = report.field_report(parse_polynomial(f), f)
        r += len(rep["witnesses"]["factors_over_L"])
    assert calls["divides"] == r == 19
    # One L_alpha per factor, then each node that is neither an E_beta
    # nor L.  k is built only as such a meet, in the biquadratic field and
    # X^6+108; in the other 4 fields it is an E_beta, built once.
    assert calls["of_span"] == r + 2 == 21
    assert calls["outside"] == 0 and calls["inside"] > 0


def test_one_product_over_L_per_factor_system(monkeypatch):
    mul, expand = NumberField.poly_mul, Factorization.expand
    products, expanded = [], []

    def counted_mul(L, a, b):
        products.append(L)
        return mul(L, a, b)

    def counted_expand(fac):
        expanded.append(all(isinstance(g, Poly) for g, _ in fac.factors))
        return expand(fac)

    monkeypatch.setattr(NumberField, "poly_mul", counted_mul)
    monkeypatch.setattr(Factorization, "expand", counted_expand)
    for f in FIELDS:
        L = make_field(parse_polynomial(f))
        products.clear()
        expanded.clear()
        sysf = principal.FactorSystem(L)
        assert sum(K is L for K in products) == sysf.r + 1, f
        assert all(expanded), f
