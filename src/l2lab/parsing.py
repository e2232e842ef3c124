"""Input parsers: polynomial text and finite-algebra documents.

The polynomial grammar: integer or rational coefficients, a single
variable X, operators + - * / ^ with unary minus, parentheses,
whitespace insensitive.  The same tokenizer drives the multivariate
relation parser used by algebra presentations.  Algebra documents are
read by ``algdoc``, part of the finite-algebra engine, which
``parse_algebra`` loads on its call, so parsing a polynomial never
loads that engine.
"""

import re
from fractions import Fraction

from .errors import ParseError
from .poly import Poly, QQ

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


def parse_algebra(doc):
    """Build (S, R) from an algebra document (already-decoded JSON dict).

    Keys: q (prime power), exactly one of quotient / product / table,
    and R (either "diagonal" or a list of generator expressions); any
    other key is refused.
    """
    from .algdoc import algebra_from_document
    return algebra_from_document(doc)
