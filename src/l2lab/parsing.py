"""Input parsers: polynomial text and finite-algebra documents.

The polynomial grammar: integer or rational coefficients, a single
variable X, operators + - * / ^ with unary minus, parentheses,
whitespace insensitive.  The same tokenizer drives the multivariate
relation parser used by algebra presentations.
"""

import re
from fractions import Fraction

from .caps import check_elements
from .errors import ParseError
from .poly import Poly, QQ
from .finitealg import (FiniteAlgebra, Subalgebra, _mp_add_term, _mp_combine,
                        _mp_mul_term, product_algebra, quotient_algebra,
                        small_field)

# Largest exponent, and largest degree a power may expand to.  Powers are
# expanded by repeated multiplication, so this is checked first.
MAX_POWER = 256

# Longest integer literal, in decimal digits.  Longer digit strings are
# refused before int() converts them.
MAX_DIGITS = 1000

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()])|(\S))")


def _check_power(e, degree, pos):
    if e < 0:
        raise ParseError("negative exponent at position %d" % pos)
    if max(e, e * degree) > MAX_POWER:
        raise ParseError("power too large at position %d: exponent and resulting "
                         "degree are limited to %d" % (pos, MAX_POWER))


def _int_literal(digits, where):
    if len(digits) > MAX_DIGITS:
        raise ParseError("integer literal %s has %d digits, the limit is %d"
                         % (where, len(digits), MAX_DIGITS))
    return int(digits)


def _unexpected(kind, val, pos):
    what = "end of input" if kind == "end" else repr(val)
    return ParseError("syntax error at position %d: unexpected %s" % (pos, what))


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        num, name, op, bad = m.groups()
        tokpos = m.start(1) if num else m.start(2) if name else m.start(3) if op else m.start(4)
        if bad:
            raise _unexpected("char", bad, tokpos)
        if num:
            out.append(("num", _int_literal(num, "at position %d" % tokpos), tokpos))
        elif name:
            out.append(("name", name, tokpos))
        else:
            out.append(("op", "^" if op == "**" else op, tokpos))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _ExprParser:
    """Recursive descent over +, -, *, /, ^ with the usual precedence.

    The semantics object supplies: const(int), var(name, pos),
    add(a, b), sub(a, b), mul(a, b), div(a, b, pos), neg(a),
    pow(a, int, pos).
    """

    def __init__(self, text, sem):
        self.toks = _tokenize(text)
        self.i = 0
        self.sem = sem
        self.text = text

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError("syntax error at position %d: expected %r" % (pos, op))

    def parse(self):
        v = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise _unexpected(kind, val, pos)
        return v

    def expr(self):
        v = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                v = self.sem.add(v, rhs) if val == "+" else self.sem.sub(v, rhs)
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                v = self.sem.mul(v, rhs) if val == "*" else self.sem.div(v, rhs, pos)
            else:
                return v

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return self.sem.neg(self.factor())
        if kind == "op" and val == "+":
            self.take()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind2, val2, pos2 = self.take()
            neg = False
            if kind2 == "op" and val2 == "-":
                neg = True
                kind2, val2, pos2 = self.take()
            if kind2 != "num":
                raise ParseError("syntax error at position %d: exponent must be "
                                 "an integer" % pos2)
            return self.sem.pow(base, -val2 if neg else val2, pos2)
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return self.sem.const(val)
        if kind == "name":
            return self.sem.var(val, pos)
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        raise _unexpected(kind, val, pos)


class _QPolySemantics:
    """Builds a univariate Poly over Q in the variable X."""

    def const(self, n):
        return Poly(QQ, [Fraction(n)])

    def var(self, name, pos):
        if name != "X":
            raise ParseError("syntax error at position %d: unknown variable %r "
                             "(the polynomial variable is X)" % (pos, name))
        return Poly.x(QQ)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b, pos):
        if b.degree > 0:
            raise ParseError("non-rational coefficient: division by a "
                             "non-constant at position %d" % pos)
        if b.is_zero:
            raise ParseError("division by zero at position %d" % pos)
        return a.mul_scalar(Fraction(1) / b.cs[0])

    def pow(self, a, e, pos):
        _check_power(e, a.degree, pos)
        out = Poly(QQ, [Fraction(1)])
        for _ in range(e):
            out = out * a
        return out


def parse_polynomial(text):
    """Parse rational-coefficient polynomial text in X."""
    if not text.strip():
        raise ParseError("syntax error at position 0: empty input")
    return _ExprParser(text, _QPolySemantics()).parse()


class _MPolySemantics:
    """Builds multivariate {exponent tuple: GFElem} dicts over F_q."""

    def __init__(self, F, varnames):
        self.F = F
        self.vars = {v: i for i, v in enumerate(varnames)}
        self.nvars = len(varnames)

    def _c(self, elem):
        return {(0,) * self.nvars: elem} if elem else {}

    def const(self, n):
        return self._c(self.F.from_int(n))

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
        return {mono: self.F.one}

    def add(self, a, b):
        return _mp_combine(a, b, self.F.one)

    def sub(self, a, b):
        return _mp_combine(a, b, -self.F.one)

    def neg(self, a):
        return _mp_mul_term(a, (0,) * self.nvars, -self.F.one)

    def mul(self, a, b):
        out = {}
        for mono, c in b.items():
            for m, t in _mp_mul_term(a, mono, c).items():
                _mp_add_term(out, m, t)
        return out

    def div(self, a, b, pos):
        if set(b) - {(0,) * self.nvars}:
            raise ParseError("division by a non-constant at position %d" % pos)
        if not b:
            raise ParseError("division by zero at position %d" % pos)
        return _mp_mul_term(a, (0,) * self.nvars, self.F.one / b[(0,) * self.nvars])

    def pow(self, a, e, pos):
        _check_power(e, max(map(sum, a), default=0), pos)
        out = self._c(self.F.one)
        for _ in range(e):
            out = self.mul(out, a)
        return out


def parse_relation(text, F, varnames):
    return _ExprParser(text, _MPolySemantics(F, varnames)).parse()


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


def parse_algebra(doc):
    """Build (S, R) from an algebra document (already-decoded JSON dict).

    Keys: q (prime power), exactly one of quotient / product / table,
    and R (either "diagonal" or a list of generator expressions).
    """
    if not isinstance(doc, dict):
        raise ParseError("algebra document must be a JSON object")
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
    rel_texts = _split_top_commas(m.group(3))
    rels = [parse_relation(t, F, varnames) for t in rel_texts]
    try:
        S = quotient_algebra(F, varnames, rels)
    except ValueError as e:
        raise ParseError(str(e))
    S.varnames = varnames
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
        check_elements(q ** sum(degrees), "product algebra construction")
    S = product_algebra(F, degrees)
    blocks = []
    off = 0
    for k in degrees:
        blocks.append((off, k))
        off += k
    return S, blocks


def _element(F, c):
    """The element with index c: a JSON integer (not a bool) in [0, q)."""
    if type(c) is not int or not 0 <= c < F.q:
        raise ParseError("field elements are integer indices in [0, %d), got %r"
                         % (F.q, c))
    return F.element(c)


def _algebra_from_table(F, spec):
    if not isinstance(spec, dict) or "table" not in spec or "unit" not in spec:
        raise ParseError("table presentation needs unit and table entries")
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
        return [str(s) for s in spec]
    raise ParseError("R must be \"diagonal\" or a list of generators")


def _subring_from_generators_quotient(S, F, varnames, spec):
    gens = []
    for text in _gen_list(spec):
        mp = parse_relation(text, F, varnames)
        gens.append(S.mp_to_vector(mp))
    return Subalgebra.from_generators(S, gens)


def _subring_from_generators_product(S, F, blocks, spec):
    gens = []
    for text in _gen_list(spec):
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ParseError("product-algebra generators are tuples like (1,0) "
                             "or (u,0); got %r" % text)
        comps = _split_top_commas(body[1:-1])
        if len(comps) != len(blocks):
            raise ParseError("generator %r has %d components, product has %d"
                             % (text, len(comps), len(blocks)))
        v = [F.zero] * S.dim
        for comp, (off, k) in zip(comps, blocks):
            mp = parse_relation(comp, F, ["u"])
            for mono, c in mp.items():
                e = mono[0]
                if e >= k:
                    # reduce u^e by the factor's defining polynomial
                    red = _reduce_power(F, S, off, k, e)
                    for t in range(k):
                        v[off + t] = v[off + t] + c * red[t]
                else:
                    v[off + e] = v[off + e] + c
        gens.append(tuple(v))
    return Subalgebra.from_generators(S, gens)


def _reduce_power(F, S, off, k, e):
    # multiply out u^e inside the factor via the algebra itself
    u = S.basis_vector(off + 1) if k > 1 else S.basis_vector(off)
    acc = S.basis_vector(off)
    for _ in range(e):
        acc = S.mul(acc, u)
    return [acc[off + t] for t in range(k)]


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
