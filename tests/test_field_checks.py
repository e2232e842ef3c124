"""The number-field checks: each is forced to disagree once, and each
field-side fact is computed once.

Every kept check of the field path is made to fail by patching one of
its inputs, and must reach the command line as a ``ConsistencyError``
with exit code 3.  The spies count the divisions over L, the subfields
built from spans and the span intersections of a pass over the benchmark
fields (the order facts come from the lattice's up-sets), and the
products over L per ``FactorSystem``.
"""

import sys
from pathlib import Path

import pytest

from l2lab import exact, fieldlattice, numberfield, principal, report
from l2lab.cli import main
from l2lab.numberfield import NumberField, make_field, whole_field
from l2lab.parsing import parse_polynomial
from l2lab.poly import Factorization, Poly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

FIELDS = [f for _, f, _, _ in corpus.FIELDS]
BIQUADRATIC = "X^4-10*X^2+1"       # t = 3, k not among the E_beta


def failure(capsys, f):
    code = main(["classify", "--json", f])
    return code, capsys.readouterr().err


def test_unforced_checks_pass(capsys):
    assert failure(capsys, BIQUADRATIC) == (0, "")


def test_linear_factor_is_required(monkeypatch, capsys):
    factor = principal.factor_over_number_field

    def without_linear(f, L):
        fac = factor(f, L)
        xlin = Poly(L, [-L.gen(), L.one])
        return Factorization(L, fac.unit, [gm for gm in fac.factors if gm[0] != xlin])

    monkeypatch.setattr(principal, "factor_over_number_field", without_linear)
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "factor X - x missing from factorization over L" in err


def test_principal_subfield_is_proper(monkeypatch, capsys):
    monkeypatch.setattr(principal, "principal_subfield_of_factor",
                        lambda L, f_alpha: whole_field(L))
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "a principal subfield equals L" in err


def test_principal_subfields_meet_in_k(monkeypatch, capsys):
    monkeypatch.setattr(fieldlattice, "meet", lambda lat, idx: len(lat) - 1)
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


# ---------------------------------------------------------------------------
# Each fact once

def test_order_facts_come_from_the_lattice(monkeypatch):
    # Per pass over the benchmark fields, the only divisions over L are
    # principal_subfield_of_factor's f_alpha | f (one per factor), the
    # only span intersections are build_lattice's, and the subfields
    # built from spans are its new meets plus the E_beta and k.
    divides, of_span, intersection = (Poly.divides, numberfield.subfield_of_span,
                                      exact.intersection)
    build = fieldlattice.build_lattice
    inside, calls = [], {"divides": 0, "of_span": 0, "inside": 0, "outside": 0}

    def counted_divides(a, b):
        calls["divides"] += isinstance(a.dom, NumberField)
        return divides(a, b)

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

    monkeypatch.setattr(Poly, "divides", counted_divides)
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
    assert calls["of_span"] == 25
    assert calls["outside"] == 0 and calls["inside"] > 0


def test_one_product_over_L_per_factor_system(monkeypatch):
    mul, expand = Poly.__mul__, Factorization.expand
    products, expanded = [], []

    def counted_mul(a, b):
        products.append(a.dom)
        return mul(a, b)

    def counted_expand(fac):
        expanded.append(fac.dom)
        return expand(fac)

    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(Factorization, "expand", counted_expand)
    for f in FIELDS:
        L = make_field(parse_polynomial(f))
        products.clear()
        expanded.clear()
        sysf = principal.FactorSystem(L)
        assert sum(dom is L for dom in products) == sysf.r + 1, f
        assert not any(dom is L for dom in expanded), f
