"""Number-field elements, and polynomials over any domain, as objects:
the oracle of the tuple arithmetic.

``l2lab`` keeps an element of L = Q[x]/(f) as its coordinate tuple and a
polynomial over L as a list of them; ``NumberField.poly_mul``,
``poly_rem`` and ``poly_at_x`` are its only arithmetic on them, and its
``Poly`` is over Q only.  Here an element of L is an ``NFElement`` with
its own ring operations, ``nf(L)`` is the domain of them, and ``Poly``
is the polynomial class over any domain (``QQ``, ``nf(L)`` or a
``gfelem.gf(q)``) that the engine once kept, with Euclid's division.
``nf_inverse`` inverts an element, which the engine never does, and
``prime_subfield`` builds k = Q as a checked subfield, which the engine
only reaches as the meet of the principal subfields.
"""

import functools
from fractions import Fraction

from l2lab.numberfield import subfield_from_subspace


class RationalField:
    """Domain descriptor for Q."""

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class NFElement:
    """An element of L with ring operations: the coefficient of a
    ``Poly`` over ``nf(L)``."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)

    def __add__(self, other):
        return NFElement(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return NFElement(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return NFElement(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        return NFElement(self.field, self.field.L.mul(self.coords, other.coords))

    def __eq__(self, other):
        return isinstance(other, NFElement) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        from l2lab.numberfield import nf_str
        return nf_str(self.coords)


class NF:
    """L = ``NumberField`` as the domain of ``NFElement`` objects."""

    def __init__(self, L):
        self.L = L
        self.n = L.n
        self.zero = NFElement(self, (Fraction(0),) * L.n)
        self.one = NFElement(self, L.gen_powers[0])

    def gen(self):
        return NFElement(self, self.L.gen_powers[1])

    def from_rational(self, q):
        return NFElement(self, [Fraction(q) * c for c in self.L.gen_powers[0]])

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.n:
            raise ValueError("expected %d coordinates" % self.n)
        return NFElement(self, coords)

    def __repr__(self):
        return "nf(%r)" % self.L


@functools.lru_cache(maxsize=None)
def nf(L):
    return NF(L)


def nf_inverse(a):
    """a^(-1) in L = Q[x]/(f), by extended Euclid on a's coordinate
    polynomial and f: s*a + t*f = 1."""
    if not a:
        raise ZeroDivisionError("inverse of zero")
    F = a.field
    r0, r1 = Poly(QQ, a.coords), Poly(QQ, F.L.defining.cs)
    s0, s1 = Poly.const(QQ, Fraction(1)), Poly(QQ, [])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    assert r0.degree == 0, "defining polynomial is not irreducible"
    s = s0.mul_scalar(Fraction(1) / r0.cs[0])
    return F.element(list(s.cs) + [0] * (F.n - len(s.cs)))


class Poly:
    """Dense univariate polynomial over a field domain."""

    __slots__ = ("dom", "cs")

    def __init__(self, dom, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.dom = dom
        self.cs = tuple(cs)

    @classmethod
    def x(cls, dom):
        return cls(dom, [dom.zero, dom.one])

    @classmethod
    def const(cls, dom, c):
        return cls(dom, [c])

    @property
    def degree(self):
        return len(self.cs) - 1

    @property
    def lc(self):
        if not self.cs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.cs[-1]

    @property
    def is_zero(self):
        return not self.cs

    def coeff(self, i):
        return self.cs[i] if i < len(self.cs) else self.dom.zero

    def __bool__(self):
        return bool(self.cs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.cs == other.cs and self.dom == other.dom

    def __hash__(self):
        return hash(self.cs)

    def __neg__(self):
        return Poly(self.dom, [-c for c in self.cs])

    def __add__(self, other):
        a, b = self.cs, other.cs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.dom, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.cs, other.cs
        if not a or not b:
            return Poly(self.dom, [])
        out = [self.dom.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return Poly(self.dom, out)

    def mul_scalar(self, c):
        return Poly(self.dom, [a * c for a in self.cs])

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.dom.zero] * max(0, self.degree - other.degree + 1)
        r = list(self.cs)
        one = self.dom.one
        inv = None if other.lc == one else one / other.lc
        d = other.degree
        while len(r) - 1 >= d and any(r):
            while r and not r[-1]:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            c = r[-1] if inv is None else r[-1] * inv
            q[k] = c
            for i, oc in enumerate(other.cs):
                r[k + i] = r[k + i] - c * oc
            r.pop()
        return Poly(self.dom, q), Poly(self.dom, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def divides(self, other):
        """True if self divides other exactly."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self):
        if self.is_zero:
            return self
        if self.lc == self.dom.one:
            return self
        inv = self.dom.one / self.lc
        return self.mul_scalar(inv)

    def derivative(self):
        return Poly(self.dom, [self.cs[i] * self.dom.from_int(i)
                               for i in range(1, len(self.cs))])

    def evaluate(self, c):
        acc = self.dom.zero
        for a in reversed(self.cs):
            acc = acc * c + a
        return acc

    def map_coeffs(self, dom2, fn):
        return Poly(dom2, [fn(c) for c in self.cs])

    def __repr__(self):
        return "Poly(%r, %r)" % (self.dom, list(self.cs))


def over_L(L, h):
    """The polynomial over L held as the coordinate-tuple list h, as a
    ``Poly`` over ``nf(L)``."""
    return Poly(nf(L), [NFElement(nf(L), c) for c in h])


def lift(L, f):
    """A ``l2lab.poly.Poly`` over Q as a ``Poly`` over ``nf(L)``."""
    return Poly(nf(L), [nf(L).from_rational(c) for c in f.cs])


def prime_subfield(L):
    """k = Q inside L: the span of 1, its closure checked and its
    minimal polynomial found by ``subfield_from_subspace``."""
    return subfield_from_subspace(L, [])
