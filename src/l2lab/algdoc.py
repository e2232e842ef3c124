"""Algebra documents: the JSON presentations of ``S`` (a quotient
Fq[X,...]/(relations), a product of fields or a structure table) and
the generators of ``R``, read into (S, R).

Part of the finite-algebra engine: ``parsing.parse_algebra`` loads this
module on its call, so reading a polynomial never loads the engine.
Relations and generators are parsed by the polynomial grammar of
``parsing``, with multivariate semantics over F_q: {monomial: index}
dicts, the form the Groebner completion of ``finitealg`` takes.  A
parse error names the relation or generator it is in.
"""

import json
import re

from .caps import check_elements
from .errors import ParseError
from .finitealg import (FiniteAlgebra, Subalgebra, _mp_combine, product_algebra,
                        quotient_algebra, small_field)
from .parsing import _check_power, _ExprParser, _int_literal


class _MPolySemantics:
    """Builds multivariate {exponent tuple: element index} dicts over F_q."""

    def __init__(self, F, varnames):
        self.F = F
        self.vars = {v: i for i, v in enumerate(varnames)}
        self.nvars = len(varnames)
        self.one = (0,) * self.nvars      # the monomial 1

    def const(self, n):
        n %= self.F.p
        return {self.one: n} if n else {}

    def var(self, name, pos):
        if name in self.vars:
            i = self.vars[name]
        else:
            matches = [i for v, i in self.vars.items() if v.lower() == name.lower()]
            if not matches:
                raise ParseError("syntax error at position %d: unknown generator %r"
                                 % (pos, name))
            i = matches[0]
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return {mono: 1}

    def add(self, a, b):
        return _mp_combine(self.F, a, b, 1, self.one)

    def sub(self, a, b):
        return _mp_combine(self.F, a, b, self.F.neg_t[1], self.one)

    def neg(self, a):
        return _mp_combine(self.F, {}, a, self.F.neg_t[1], self.one)

    def mul(self, a, b):
        out = {}
        for mono, c in b.items():
            out = _mp_combine(self.F, out, a, c, mono)
        return out

    def div(self, a, b, pos):
        if set(b) - {self.one}:
            raise ParseError("division by a non-constant at position %d" % pos)
        if not b:
            raise ParseError("division by zero at position %d" % pos)
        return _mp_combine(self.F, {}, a, self.F.inv_t[b[self.one]], self.one)

    def pow(self, a, e, pos):
        _check_power(e, max(map(sum, a), default=0), pos)
        out = {self.one: 1}
        for _ in range(e):
            out = self.mul(out, a)
        return out


def parse_relation(text, F, varnames):
    return _ExprParser(text, _MPolySemantics(F, varnames)).parse()


def _parse_part(text, F, varnames, where):
    """``parse_relation`` of one part of a document, a parse error
    prefixed with which part it is and its text."""
    try:
        return parse_relation(text, F, varnames)
    except ParseError as e:
        raise ParseError("%s %s: %s" % (where, json.dumps(text), e))


_QUOTIENT = re.compile(r"^\s*F(\d+)\s*\[([^\]]*)\]\s*/\s*\((.*)\)\s*$", re.S)


def _split_top_commas(text):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def algebra_from_document(doc):
    """(S, R) from an algebra document, as ``parsing.parse_algebra``
    documents it."""
    if not isinstance(doc, dict):
        raise ParseError("algebra document must be a JSON object")
    _known_keys(doc, ("q", "quotient", "product", "table", "R"), "algebra document")
    if "q" not in doc:
        raise ParseError("algebra document is missing the base size q")
    q = doc["q"]
    if type(q) is not int:
        raise ParseError("q must be an integer prime power")
    try:
        F = small_field(q)
    except ValueError as e:
        raise ParseError(str(e))
    forms = [k for k in ("quotient", "product", "table") if k in doc]
    if len(forms) != 1:
        raise ParseError("algebra document needs exactly one of quotient, "
                         "product or table")
    if forms[0] == "quotient":
        S, varnames = _algebra_from_quotient(F, q, doc["quotient"])
        R = _subring_from_generators_quotient(S, F, varnames, doc.get("R", "diagonal"))
    elif forms[0] == "product":
        S, blocks = _algebra_from_product(F, q, doc["product"])
        R = _subring_from_generators_product(S, F, blocks, doc.get("R", "diagonal"))
    else:
        S = _algebra_from_table(F, doc["table"])
        R = _subring_from_table_generators(S, F, doc.get("R", "diagonal"))
    return S, R


def _known_keys(spec, keys, where):
    unknown = [k for k in spec if k not in keys]
    if unknown:
        raise ParseError("unknown key %r in the %s (allowed: %s)"
                         % (unknown[0], where, ", ".join(keys)))


def _algebra_from_quotient(F, q, text):
    if not isinstance(text, str):
        raise ParseError("quotient presentation must be a string")
    m = _QUOTIENT.match(text)
    if not m:
        raise ParseError("quotient must look like Fq[X,Y]/(rel, rel, ...)")
    if _int_literal(m.group(1), "in the quotient base") != q:
        raise ParseError("quotient base F%s does not match q = %d" % (m.group(1), q))
    varnames = [v.strip() for v in m.group(2).split(",") if v.strip()]
    if not varnames:
        raise ParseError("quotient presentation declares no generators")
    twice = sorted({v for v in varnames if varnames.count(v) > 1})
    if twice:
        raise ParseError("quotient presentation declares generator %s twice" % twice[0])
    rel_texts = _split_top_commas(m.group(3))
    rels = [_parse_part(t, F, varnames, "relation %d" % i)
            for i, t in enumerate(rel_texts, 1)]
    try:
        S = quotient_algebra(F, varnames, rels)
    except ValueError as e:
        raise ParseError(str(e))
    return S, varnames


def _algebra_from_product(F, q, factors):
    if not isinstance(factors, list) or not factors:
        raise ParseError("product must be a non-empty list of field names")
    degrees = []
    for name in factors:
        m = re.match(r"^\s*F(\d+)\s*$", str(name))
        if not m:
            raise ParseError("product factor %r is not of the form F<size>" % name)
        size = _int_literal(m.group(1), "in product factor F<size>")
        k = 0
        s = 1
        while s < size:
            s *= q
            k += 1
        if s != size or k == 0:
            raise ParseError("product factor %r is not a power of q = %d" % (name, q))
        degrees.append(k)
        # |S| so far, checked per factor so that neither the irreducible
        # search nor this power runs on a size past the cap
        check_elements(q, sum(degrees), "product algebra construction")
    S = product_algebra(F, degrees)
    blocks = []
    off = 0
    for k in degrees:
        blocks.append((off, k))
        off += k
    return S, blocks


def _element(F, c):
    """The element index c: a JSON integer (not a bool) in [0, q)."""
    if type(c) is not int or not 0 <= c < F.q:
        raise ParseError("field elements are integer indices in [0, %d), got %r"
                         % (F.q, c))
    return c


def _algebra_from_table(F, spec):
    if not isinstance(spec, dict) or "table" not in spec or "unit" not in spec:
        raise ParseError("table presentation needs unit and table entries")
    _known_keys(spec, ("unit", "table", "names"), "table presentation")
    table = spec["table"]
    if not isinstance(table, list) or not table:
        raise ParseError("table must be a non-empty list of rows")
    d = len(table)

    def vec(entry):
        if not isinstance(entry, list) or len(entry) != d:
            raise ParseError("table entries must be length-%d vectors" % d)
        return tuple(_element(F, c) for c in entry)

    rows = []
    for row in table:
        if not isinstance(row, list) or len(row) != d:
            raise ParseError("table must be %d x %d" % (d, d))
        rows.append([vec(e) for e in row])
    unit = vec(spec["unit"])
    names = spec.get("names")
    if names is not None and not (isinstance(names, list) and len(names) == d
                                  and all(isinstance(n, str) for n in names)):
        raise ParseError("names must be a list of %d strings" % d)
    try:
        return FiniteAlgebra(F, rows, unit, names)
    except ValueError as e:
        raise ParseError("invalid table: %s" % e)


def _gen_list(spec):
    if spec is None or spec == "diagonal" or spec == "prime":
        return []
    if isinstance(spec, str):
        body = spec.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        return _split_top_commas(body)
    if isinstance(spec, list):
        for i, s in enumerate(spec, 1):
            if not isinstance(s, str):
                raise ParseError("R generator %d must be a JSON string, got %s"
                                 % (i, json.dumps(s)))
        return spec
    raise ParseError("R must be \"diagonal\" or a list of generators")


def _subring_from_generators_quotient(S, F, varnames, spec):
    gens = []
    for i, text in enumerate(_gen_list(spec), 1):
        mp = _parse_part(text, F, varnames, "R generator %d" % i)
        gens.append(S.mp_to_vector(mp))
    return Subalgebra.from_generators(S, gens)


def _subring_from_generators_product(S, F, blocks, spec):
    gens = []
    for i, text in enumerate(_gen_list(spec), 1):
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ParseError("product-algebra generators are tuples like (1,0) "
                             "or (u,0); got %r" % text)
        comps = _split_top_commas(body[1:-1])
        if len(comps) != len(blocks):
            raise ParseError("generator %r has %d components, product has %d"
                             % (text, len(comps), len(blocks)))
        v = [0] * S.dim
        for j, (comp, (off, k)) in enumerate(zip(comps, blocks), 1):
            mp = _parse_part(comp, F, ["u"], "R generator %d component %d" % (i, j))
            for mono, c in mp.items():
                # the coefficient of u^e, times u^e reduced by the
                # factor's defining polynomial, added on the factor's
                # coordinates
                red = _reduce_power(S, off, k, mono[0])
                v[off:off + k] = F.ops.sub(v[off:off + k], F.ops.neg(c), red)
        gens.append(tuple(v))
    return Subalgebra.from_generators(S, gens)


def _reduce_power(S, off, k, e):
    """u^e in the factor at ``off`` of dimension k, on its k coordinates:
    the power in the algebra itself, times the factor's unit so that
    u^0 is that unit (u is the unit itself when k = 1)."""
    u = S.basis_vector(off + 1) if k > 1 else S.basis_vector(off)
    return S.mul(S.basis_vector(off), S.power(u, e))[off:off + k]


def _subring_from_table_generators(S, F, spec):
    gens = []
    for text in _gen_list(spec):
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        comps = _split_top_commas(body)
        if len(comps) != S.dim:
            raise ParseError("table-algebra generators need %d coordinates" % S.dim)
        gens.append(tuple(_element(F, _int_literal(c, "in a generator")
                                   if re.fullmatch("[0-9]+", c) else c)
                          for c in comps))
    return Subalgebra.from_generators(S, gens)
