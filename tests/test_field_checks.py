"""The number-field checks: each is forced to disagree once, and each
field-side fact is computed once.

Every kept check of the field path is made to fail by patching one of
its inputs, and must reach the command line as a ``ConsistencyError``
with exit code 3.  The spies count ``I(K)`` per lattice node and the
products over L per ``FactorSystem``.
"""

import sys
from pathlib import Path

import pytest

from l2lab import fieldlattice, principal, report
from l2lab.cli import main
from l2lab.numberfield import NFElement, make_field, whole_field
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
    monkeypatch.setattr(principal, "intersect_subfields", lambda A, B: A)
    code, err = failure(capsys, BIQUADRATIC)
    assert code == 3 and "intersection of principal subfields is not k" in err


def test_gamma_inside_I(monkeypatch, capsys):
    monkeypatch.setattr(principal, "index_set_I", lambda K, sys: set())
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "Gamma(beta) not contained in I(E_beta)" in err


def test_pullback_membership(monkeypatch, capsys):
    # g + x lies in no proper subfield, so no f_alpha kills g(X) - g(x)
    monkeypatch.setattr(principal, "NFElement",
                        lambda L, coords: NFElement(L, coords) + L.gen())
    code, err = failure(capsys, "X^4-2")
    assert code == 3 and "pullback membership failed" in err


@pytest.mark.parametrize("module", [principal, fieldlattice],
                         ids=["I(E_beta)", "I(K) of a meet"])
def test_product_identity(module, monkeypatch, capsys):
    # principal's I(E_beta) keeps Gamma(beta) inside it, but the product
    # over every factor is f_K for K = k only; on the biquadratic field k
    # is a meet, whose I(K) fieldlattice computes.
    if module is principal:
        monkeypatch.setattr(module, "index_set_I", lambda K, sys: set(range(sys.r)))
    else:
        monkeypatch.setattr(module, "index_set_I", lambda K, sys: set())
    code, err = failure(capsys, BIQUADRATIC)
    assert code == 3 and "product identity fails for a lattice node" in err


def test_predicted_count_is_checked(monkeypatch, capsys):
    is_length_two = report.is_length_two

    def miscounted(ps, lat):
        verdict, info = is_length_two(ps, lat)
        info["predicted_count"] += 1
        return verdict, info

    monkeypatch.setattr(report, "is_length_two", miscounted)
    code, err = failure(capsys, BIQUADRATIC)
    assert code == 3 and "predicted 6 != observed 5" in err


# ---------------------------------------------------------------------------
# Each fact once

def test_one_I_per_node_below_L(monkeypatch):
    index_set_I = principal.index_set_I
    keys = []

    def counted(K, sys):
        keys.append(K.key())
        return index_set_I(K, sys)

    monkeypatch.setattr(principal, "index_set_I", counted)
    monkeypatch.setattr(fieldlattice, "index_set_I", counted)
    total = 0
    for f in FIELDS:
        keys.clear()
        rep = report.field_report(parse_polynomial(f))
        assert len(keys) == len(set(keys)) == rep["count_observed"] - 1, f
        total += len(keys)
    assert total == 18


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
