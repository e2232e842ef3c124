"""F_q elements as objects: the oracle of the index arithmetic.

``l2lab`` keeps an element of F_q as its index in ``range(q)`` and reads
``small_field(q)``'s tables.  Here an element is a ``GFElem`` with its
own ``+ - * / **`` on the same tables, and ``gf(q)`` is the field of
them: a domain of ``nfelem.Poly``, and the ``one`` of ``exact.Ops``.

The Groebner completion of a quotient presentation is kept here as the
engine ran it on ``GFElem`` coefficients (``buchberger``,
``normal_form`` and ``quotient_algebra``), with the relation semantics
that fed it (``MPolySemantics``, ``parse_relation``), so the tests can
hold the completion on indices against it.
"""

import functools

from l2lab.finitealg import (FiniteAlgebra, _deglex_key, _mono_div, _mono_divides,
                             _mono_mul, _mono_name, _mp_lead, small_field)
from l2lab.errors import ConsistencyError, ParseError
from l2lab.parsing import _check_power, _ExprParser


class GFElem:
    __slots__ = ("field", "i")

    def __init__(self, field, i):
        self.field = field
        self.i = i

    def __add__(self, other):
        return self.field.elems[self.field.add_t[self.i][other.i]]

    def __sub__(self, other):
        F = self.field
        return F.elems[F.add_t[self.i][F.neg_t[other.i]]]

    def __neg__(self):
        return self.field.elems[self.field.neg_t[self.i]]

    def __mul__(self, other):
        return self.field.elems[self.field.mul_t[self.i][other.i]]

    def __truediv__(self, other):
        if other.i == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.field.q)
        F = self.field
        return F.elems[F.mul_t[self.i][F.inv_t[other.i]]]

    def __pow__(self, e):
        acc = self.field.one
        base = self
        for bit in bin(e)[2:]:
            acc = acc * acc
            if bit == "1":
                acc = acc * base
        return acc

    def __eq__(self, other):
        return isinstance(other, GFElem) and self.i == other.i and self.field is other.field

    def __hash__(self):
        return hash((self.field.q, self.i))

    def __bool__(self):
        return self.i != 0

    def __repr__(self):
        return self.field.tables.elem_name(self.i)


class GF:
    """F_q as ``GFElem`` objects over ``small_field(q)``'s tables."""

    def __init__(self, q):
        F = small_field(q)
        self.tables = F
        self.p, self.k, self.q = F.p, F.k, F.q
        self.add_t, self.mul_t, self.neg_t, self.inv_t = F.add_t, F.mul_t, F.neg_t, F.inv_t
        self.elems = tuple(GFElem(self, i) for i in range(q))
        self.zero, self.one = self.elems[0], self.elems[1]

    def from_int(self, n):
        return self.elems[n % self.p]

    def element(self, i):
        return self.elems[i % self.q]

    def __repr__(self):
        return "GF(%d)" % self.q


@functools.lru_cache(maxsize=None)
def gf(q):
    return GF(q)


def to_gf(F, poly):
    """An index dict {monomial: index} as a GFElem dict over F = gf(q)."""
    return {m: F.elems[c] for m, c in poly.items()}


# ---------------------------------------------------------------------------
# The Groebner completion on GFElem coefficients

def _add_term(f, mono, c):
    if mono in f:
        s = f[mono] + c
        if s:
            f[mono] = s
        else:
            del f[mono]
    elif c:
        f[mono] = c


def _combine(f, g, c):
    """f + c*g, functional."""
    out = dict(f)
    for mono, gc in g.items():
        _add_term(out, mono, gc * c)
    return out


def _mul_term(f, mono, c):
    return {_mono_mul(m, mono): fc * c for m, fc in f.items()}


def normal_form(f, basis):
    rem = {}
    work = dict(f)
    while work:
        m = _mp_lead(work)
        c = work[m]
        for g in basis:
            lm = _mp_lead(g)
            if _mono_divides(lm, m):
                factor = _mono_div(m, lm)
                work = _combine(work, _mul_term(g, factor, c / g[lm]), -(c / c))
                break
        else:
            del work[m]
            rem[m] = c
    return rem


def buchberger(gens, nvars, F):
    G = []
    for g in gens:
        g = {m: c for m, c in g.items() if c}
        if g:
            lc = g[_mp_lead(g)]
            G.append({m: c / lc for m, c in g.items()})
    if any(_mp_lead(g) == (0,) * nvars for g in G):
        raise ValueError("inconsistent relations: 1 lies in the ideal")
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        i, j = pairs.pop(0)
        lmi, lmj = _mp_lead(G[i]), _mp_lead(G[j])
        lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
        if lcm == _mono_mul(lmi, lmj):
            continue  # coprime leads
        si = _mul_term(G[i], _mono_div(lcm, lmi), F.one)
        sj = _mul_term(G[j], _mono_div(lcm, lmj), F.one)
        s = _combine(si, sj, -F.one)
        r = normal_form(s, G)
        if r:
            lm = _mp_lead(r)
            if lm == (0,) * nvars:
                raise ValueError("inconsistent relations: 1 lies in the ideal")
            lc = r[lm]
            r = {m: c / lc for m, c in r.items()}
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append(r)
    return G


def quotient_algebra(F, varnames, relations):
    """F_q[vars]/(relations) for GFElem relations over F = gf(q), as the
    engine built it on GFElem: a FiniteAlgebra over ``small_field(q)``
    whose ``mp_to_vector`` takes GFElem dicts."""
    nvars = len(varnames)
    G = buchberger(relations, nvars, F)
    leads = [_mp_lead(g) for g in G]
    for v in range(nvars):
        if not any(lm[v] and sum(lm) == lm[v] for lm in leads):
            raise ValueError("quotient is not finite-dimensional "
                             "(no pure power of %s in the ideal)" % varnames[v])
    standard, layer = [], {(0,) * nvars}
    while layer:
        standard += layer
        layer = {up for m in layer for up in (m[:v] + (m[v] + 1,) + m[v + 1:]
                                              for v in range(nvars))
                 if not any(_mono_divides(lm, up) for lm in leads)}
    standard.sort(key=_deglex_key)
    index = {m: i for i, m in enumerate(standard)}
    dim = len(standard)

    def nf_vector(f):
        r = normal_form(f, G)
        out = [0] * dim
        for m, c in r.items():
            if m not in index:
                raise ConsistencyError("normal form contains a non-standard monomial")
            out[index[m]] = c.i
        return tuple(out)

    table = []
    for a in standard:
        row = []
        for b in standard:
            row.append(nf_vector({_mono_mul(a, b): F.one}))
        table.append(row)
    unit = nf_vector({(0,) * nvars: F.one})
    names = [_mono_name(m, varnames) for m in standard]
    alg = FiniteAlgebra(F.tables, table, unit, names)
    alg.mp_to_vector = nf_vector
    return alg


# ---------------------------------------------------------------------------
# The relation parser's semantics on GFElem coefficients

class MPolySemantics:
    """Builds multivariate {exponent tuple: GFElem} dicts over F = gf(q)."""

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
        return _combine(a, b, self.F.one)

    def sub(self, a, b):
        return _combine(a, b, -self.F.one)

    def neg(self, a):
        return _mul_term(a, (0,) * self.nvars, -self.F.one)

    def mul(self, a, b):
        out = {}
        for mono, c in b.items():
            for m, t in _mul_term(a, mono, c).items():
                _add_term(out, m, t)
        return out

    def div(self, a, b, pos):
        if set(b) - {(0,) * self.nvars}:
            raise ParseError("division by a non-constant at position %d" % pos)
        if not b:
            raise ParseError("division by zero at position %d" % pos)
        return _mul_term(a, (0,) * self.nvars, self.F.one / b[(0,) * self.nvars])

    def pow(self, a, e, pos):
        _check_power(e, max(map(sum, a), default=0), pos)
        out = self._c(self.F.one)
        for _ in range(e):
            out = self.mul(out, a)
        return out


def parse_relation(text, F, varnames):
    return _ExprParser(text, MPolySemantics(F, varnames)).parse()
