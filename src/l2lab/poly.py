"""Dense univariate polynomial arithmetic and exact factorization.

Polynomials are immutable coefficient tuples, lowest degree first, over a
coefficient field described by a small domain object (``QQ``, a finite
field ``small_field(q)``, or a number field).  The factorization entry points are:

* ``factor_mod_p``        -- Cantor-Zassenhaus over a prime field,
* ``factor_over_Q``       -- Berlekamp-Zassenhaus (squarefree decomposition,
                             modular factorization, quadratic Hensel
                             lifting, subset recombination behind a trace
                             pre-test) over the rationals,
* ``factor_over_number_field`` -- Trager's norm method over Q[x]/(f), for
                             polynomials with rational coefficients; the
                             norm is a composed sum of integer power sums,
                             and each gcd over L is taken modulo primes.

Each entry point converts its input to integer coefficient lists and
runs the modular work in ``intpoly``, which it imports on its first
call: the finite-algebra engine uses ``Poly`` and ``poly_gcd`` alone and
never loads that kernel.  ``factor_mod_p`` is a thin facade over it for
``Poly`` inputs over ``small_field(p)``.

A factorization over Q or F_p is re-multiplied and compared with its
input, and over L the modular gcd's product is that comparison; a
mismatch raises ``ConsistencyError``.
"""

from fractions import Fraction

from .caps import check_norm_degree
from .errors import ConsistencyError


class RationalField:
    """Domain descriptor for Q."""

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


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
    def from_ints(cls, dom, ints):
        return cls(dom, [dom.from_int(n) for n in ints])

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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

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

    def pow_mod(self, e, m):
        """self**e reduced modulo m, by binary exponentiation."""
        result = Poly.const(self.dom, self.dom.one) % m
        base = self % m
        while e:
            if e & 1:
                result = (result * base) % m
            base = (base * base) % m
            e >>= 1
        return result

    def sort_key(self):
        return (self.degree, tuple(_coeff_key(c) for c in self.cs))

    def __repr__(self):
        return "Poly(%r, %r)" % (self.dom, list(self.cs))


def _coeff_key(c):
    if isinstance(c, Fraction):
        return (c.numerator, c.denominator)
    coords = getattr(c, "coords", None)
    if coords is not None:
        return tuple((q.numerator, q.denominator) for q in coords)
    return c


def poly_gcd(a, b):
    """Monic greatest common divisor by the Euclidean algorithm."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


class Factorization:
    """unit * prod(factor^multiplicity), factors monic irreducible."""

    def __init__(self, dom, unit, factors):
        self.dom = dom
        self.unit = unit
        self.factors = sorted(factors, key=lambda fm: fm[0].sort_key())

    def expand(self):
        acc = Poly.const(self.dom, self.unit)
        for g, m in self.factors:
            for _ in range(m):
                acc = acc * g
        return acc

    def verify(self, f):
        if self.expand() != f:
            raise ConsistencyError("factorization does not re-multiply to its input")
        seen = set()
        for g, m in self.factors:
            if g.cs in seen:
                raise ConsistencyError("repeated factor in factorization")
            seen.add(g.cs)
        return self

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def __repr__(self):
        return "Factorization(unit=%r, factors=%r)" % (self.unit, self.factors)


def factor_mod_p(f):
    """Complete factorization over a prime field ``small_field(p)``."""
    dom = f.dom
    if dom.k != 1:
        raise ValueError("factor_mod_p needs a prime field, not %r" % dom)
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return Factorization(dom, f.cs[0], []).verify(f)
    from .intpoly import _pddf, _pmonic, _psplit, _psquarefree
    p = dom.p
    monic = _pmonic([c.i for c in f.cs], p)
    parts = [(Poly.from_ints(dom, h), m)
             for u, m in _psquarefree(monic, p)
             for h in _psplit(_pddf(u, p), p)]
    return Factorization(dom, f.lc, parts).verify(f)


def factor_over_Q(f):
    """Complete factorization into monic irreducibles over Q, times a unit."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.dom is not QQ:
        raise ValueError("factor_over_Q requires rational coefficients")
    if f.degree == 0:
        return Factorization(QQ, f.cs[0], []).verify(f)
    from .intpoly import (_certified_squarefree, _denominator_lcm,
                          _factor_squarefree_monic_int, _scale_monic, _yun_squarefree_Q)
    unit = f.lc
    monic = f.monic()
    if _certified_squarefree(monic):
        parts = [(monic, 1)]
    else:
        parts = _yun_squarefree_Q(monic)
    factors = []
    for g, mult in parts:
        # Clear denominators while keeping the polynomial monic:
        # substitute X -> X/d and rescale, factor over Z, undo.
        d = _denominator_lcm(g.cs)
        for H in _factor_squarefree_monic_int(_scale_monic(g, d)):
            k = len(H) - 1
            back = Poly(QQ, [Fraction(H[i] * d ** i, d ** k) for i in range(k + 1)])
            factors.append((back, mult))
    return Factorization(QQ, unit, factors).verify(f)


def factor_over_number_field(f, L):
    """Factor a squarefree f in L[X] into monic irreducibles over L.

    f of degree at least 2 must have rational coefficients.  The factors
    are not multiplied out again: the modular gcd's product is monic f.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree >= 1:
        g = poly_gcd(f, f.derivative())
        if g.degree != 0:
            raise ValueError("squarefree required")
    unit = f.lc if f.cs else L.one
    fm = f.monic()
    if f.degree <= 1:
        facs = [(fm, 1)] if f.degree == 1 else []
        return Factorization(L, unit, facs)
    if any(any(c.coords[1:]) for c in fm.cs):
        raise ValueError("factoring over a number field requires rational "
                         "coefficients from degree 2 on")
    check_norm_degree(L.n * f.degree)
    from .intpoly import _certified_squarefree, _gcds_over_L, _norm_with_shift
    fq = Poly(QQ, [c.coords[0] for c in fm.cs])
    # For f = fL the shift-0 norm is fL^n, and the shift-1 norm has the
    # roots x_i + x_j = x_j + x_i, repeated: neither is squarefree.
    s = 2 if fq == L.defining else 0
    while True:
        N = _norm_with_shift(fq, L, s)
        if _certified_squarefree(N) or poly_gcd(N, N.derivative()).degree == 0:
            break
        s += 1
    norms = [Ni for Ni, _ in factor_over_Q(N).factors]
    hs = _gcds_over_L(fq, norms, s, L)
    return Factorization(L, unit, [(h, 1) for h in hs])
