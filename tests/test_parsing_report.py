import json
import os
from fractions import Fraction

import pytest

from l2lab.algdoc import parse_relation
from l2lab.errors import ParseError
from l2lab.finitealg import small_field
from l2lab.parsing import MAX_POWER, parse_algebra, parse_polynomial
from l2lab.poly import QQ, Poly
from l2lab.numberfield import poly_str
from l2lab.report import (algebra_report, field_report, lattice_to_dot,
                          report_to_json, report_to_text)


def Q(*ints):
    return Poly.from_ints(QQ, list(ints))


# --- polynomial parser ------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("X^4 - 2", Q(-2, 0, 0, 0, 1)),
    ("X^4 - 10*X^2 + 1", Q(1, 0, -10, 0, 1)),
    ("3/2", Poly(QQ, [Fraction(3, 2)])),
    ("-X", Q(0, -1)),
    ("  X ^ 2+ 1 ", Q(1, 0, 1)),
    ("(X - 1)*(X + 1)", Q(-1, 0, 1)),
    ("X/2 + 1", Poly(QQ, [Fraction(1), Fraction(1, 2)])),
    ("2*X**3", Q(0, 0, 0, 2)),
])
def test_parse_polynomial(text, expected):
    assert parse_polynomial(text) == expected


def test_parser_printer_roundtrip():
    for f in [Q(-2, 0, 0, 0, 1), Q(1, 0, -10, 0, 1), Q(108, 0, 0, 0, 0, 0, 1),
              Q(0, -1), Poly(QQ, [Fraction(3, 2), Fraction(-1, 3)])]:
        assert parse_polynomial(poly_str(f)) == f


@pytest.mark.parametrize("bad", ["X +", "X^", "2 {", "Y + 1", "X^Y", "", "1/0",
                                 "X / (X+1)"])
def test_parse_polynomial_errors(bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad)


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="position 4"):
        parse_polynomial("X + $")
    with pytest.raises(ParseError, match="position 9: unexpected end of input"):
        parse_polynomial("X^2 - 2 +")


def test_power_limit():
    assert parse_polynomial("(X + 1)^%d" % MAX_POWER).degree == MAX_POWER
    for text in ["X^%d" % (MAX_POWER + 1), "1^100000000",
                 "(X^2 + 1)^%d" % (MAX_POWER // 2 + 1)]:
        with pytest.raises(ParseError, match="limited to %d" % MAX_POWER):
            parse_polynomial(text)
    F = small_field(2)
    with pytest.raises(ParseError, match="limited to %d" % MAX_POWER):
        parse_relation("(X*Y + 1)^%d" % (MAX_POWER // 2 + 1), F, ["X", "Y"])
    assert len(parse_relation("(X*Y)^%d" % (MAX_POWER // 2), F, ["X", "Y"])) == 1


# --- algebra documents -------------------------------------------------------

def test_parse_algebra_quotient():
    S, R = parse_algebra({"q": 2, "quotient": "F2[X,Y]/(X^2, X*Y, Y^2)", "R": "[1]"})
    assert S.dim == 3 and R.dim == 1


def test_parse_algebra_product_diagonal():
    S, R = parse_algebra({"q": 2, "product": ["F2", "F2", "F2"], "R": "diagonal"})
    assert S.dim == 3 and R.dim == 1


def test_parse_algebra_quotient_y3():
    S, R = parse_algebra({"q": 2, "quotient": "F2[Y]/(Y^3)", "R": "[1]"})
    assert S.dim == 3 and R.dim == 1


def test_parse_algebra_product_tuple_generators():
    S, R = parse_algebra({"q": 2, "product": ["F4", "F4"], "R": ["(1,0)"]})
    assert S.dim == 4 and R.dim == 2


def test_parse_algebra_product_field_element_generator():
    S, R = parse_algebra({"q": 2, "product": ["F2", "F4"], "R": ["(0,u)"]})
    assert R.dim == 3           # u generates the F4 component, 1 adds e1+e2


def test_parse_algebra_quotient_generators():
    S, R = parse_algebra({"q": 2, "quotient": "F2[T,Y]/(T^2, Y^2 + Y)", "R": ["T"]})
    assert S.dim == 4 and R.dim == 2


def test_parse_algebra_table():
    # F2 x F2 given explicitly: e0*e0 = e0, e1*e1 = e1, e0*e1 = 0
    doc = {"q": 2,
           "table": {"unit": [1, 1],
                     "table": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
           "R": "diagonal"}
    S, R = parse_algebra(doc)
    assert S.dim == 2 and R.dim == 1


@pytest.mark.parametrize("doc,msg", [
    ({}, "missing the base"),
    ({"q": 6, "product": ["F6"]}, "prime power"),
    ({"q": 2, "product": ["F2"], "quotient": "F2[X]/(X^2)"}, "exactly one"),
    ({"q": 2, "product": ["F3"]}, "power of q"),
    ({"q": 2, "quotient": "F4[X]/(X^2)"}, "does not match"),
    ({"q": 2, "quotient": "junk"}, "quotient must look like"),
    ({"q": 2, "product": ["F4", "F4"], "R": ["(1,0,0)"]}, "components"),
    ({"q": 2, "table": {"unit": [1], "table": [[[1, 1]]]}}, "length-1"),
    ({"q": 2, "quotient": "F2[X]/(X^2 + Q)"}, "unknown generator"),
])
def test_parse_algebra_errors(doc, msg):
    with pytest.raises(ParseError, match=msg):
        parse_algebra(doc)


def test_parse_algebra_non_associative_table():
    # basis {1, a, b} with a*a = b, a*b = a, b*b = 0:
    # (a*a)*b = 0 but a*(a*b) = b
    doc = {"q": 2,
           "table": {"unit": [1, 0, 0],
                     "table": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                               [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
                               [[0, 0, 1], [0, 1, 0], [0, 0, 0]]]}}
    with pytest.raises(ParseError, match="associative"):
        parse_algebra(doc)


# --- reports -----------------------------------------------------------------

def _load_schema():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "docs", "report.schema.json")) as fh:
        return json.load(fh)


def _check_schema(obj, schema):
    """Minimal JSON-schema checker for the subset this project uses."""
    if "enum" in schema:
        assert obj in schema["enum"], (obj, schema["enum"])
        return
    ts = schema.get("type")
    if ts:
        types = ts if isinstance(ts, list) else [ts]
        pymap = {"object": dict, "array": list, "string": str,
                 "integer": int, "number": (int, float),
                 "boolean": bool, "null": type(None)}
        assert any(isinstance(obj, pymap[t]) and not
                   (t == "integer" and isinstance(obj, bool)) for t in types), \
            (obj, types)
    if isinstance(obj, dict):
        for req in schema.get("required", []):
            assert req in obj, "missing field %s" % req
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                _check_schema(obj[key], sub)
    if isinstance(obj, list) and "items" in schema:
        for item in obj:
            _check_schema(item, schema["items"])
    if isinstance(obj, (int, float)) and "minimum" in schema:
        assert obj >= schema["minimum"]


def test_field_report_validates_against_schema():
    rep = field_report(Q(-2, 0, 0, 0, 1), "X^4 - 2")
    payload = json.loads(report_to_json(rep))
    _check_schema(payload, _load_schema())
    assert payload["case"] == "(8d)" and payload["t"] == 2


def test_algebra_report_validates_against_schema():
    S, R = parse_algebra({"q": 2, "product": ["F2", "F2", "F2"], "R": "diagonal"})
    rep, _ = algebra_report(S, R, "prop314")
    payload = json.loads(report_to_json(rep))
    _check_schema(payload, _load_schema())
    assert payload["case"] == "(7)" and payload["count_observed"] == 5


def test_text_report_mentions_key_facts():
    rep = field_report(Q(-2, 0, 0, 0, 1), "X^4 - 2")
    text = report_to_text(rep)
    assert "case       : (8d)" in text
    assert "observed 3, predicted 3" in text


def test_dot_output_is_wellformed_and_matches_order():
    rep = field_report(Q(1, 0, -10, 0, 1), "X^4 - 10*X^2 + 1")
    dot = lattice_to_dot(rep["lattice"], rep["input"])
    assert dot.startswith("digraph")
    assert dot.count("->") == len(rep["lattice"]["covers"])
    # transitive closure of the DOT edges equals the inclusion order
    edges = set()
    for line in dot.splitlines():
        line = line.strip()
        if "->" in line:
            a, b = line.rstrip(";").split("->")
            edges.add((int(a.strip()[1:]), int(b.strip()[1:])))
    n = len(rep["lattice"]["nodes"])
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (i, j) in list(closure):
            for (j2, k) in list(closure):
                if j == j2 and (i, k) not in closure:
                    closure.add((i, k))
                    changed = True
    dims = [nd["dim"] for nd in rep["lattice"]["nodes"]]
    # bottom below everything, everything below top, mids incomparable
    assert all((0, i) in closure for i in range(1, n))
    assert all((i, n - 1) in closure for i in range(n - 1))
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if i != j:
                assert (i, j) not in closure
    assert dims[0] == 1 and dims[-1] == 4
