"""Dense univariate polynomial arithmetic and exact factorization.

A ``Poly`` is an immutable tuple of ``Fraction`` coefficients, lowest
degree first: a polynomial over Q.  A polynomial over a number field L is
a list of coordinate tuples, with its arithmetic on ``NumberField``.  The
factorization entry points are:

* ``factor_mod_p``        -- Cantor-Zassenhaus over a prime field, on
                             integer coefficient lists,
* ``factor_over_Q``       -- Berlekamp-Zassenhaus (squarefree decomposition,
                             modular factorization, quadratic Hensel
                             lifting, subset recombination behind a trace
                             pre-test) over the rationals,
* ``factor_over_number_field`` -- Trager's norm method: a polynomial
                             over Q factored over L = Q[x]/(f); the norm
                             is a composed sum of integer power sums, and
                             each gcd over L is taken modulo primes.

Each entry point converts its input to integer coefficient lists and
runs the modular work in ``intpoly``, which it imports on its first
call; ``factor_mod_p`` is a thin facade over it, taking and returning
int lists.  Over L, Trager's norm is one monic integer list from its
composed sum to its factors over Z; it never becomes a ``Poly``.  The
finite-algebra engine uses nothing here: it builds F_(q^k) on structure
constants.

A factorization over Q or F_p, and the norm's over Z, is re-multiplied
and compared with its input, and over L the modular gcd's product is
that comparison; a mismatch raises ``ConsistencyError``.  Every gcd and
every squarefree test runs over Q, so no element of L is inverted.
"""

from fractions import Fraction

from .caps import check_norm_degree
from .errors import ConsistencyError
from .exact import is_prime


class Poly:
    """Dense univariate polynomial over Q, with ``Fraction`` coefficients."""

    __slots__ = ("cs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.cs = tuple(cs)

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

    def __bool__(self):
        return bool(self.cs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.cs == other.cs

    def __hash__(self):
        return hash(self.cs)

    def __neg__(self):
        return Poly([-c for c in self.cs])

    def __add__(self, other):
        a, b = self.cs, other.cs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.cs, other.cs
        if not a or not b:
            return Poly([])
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return Poly(out)

    def mul_scalar(self, c):
        return Poly([a * c for a in self.cs])

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.cs)
        inv = None if other.lc == 1 else 1 / other.lc
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
        return Poly(q), Poly(r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero or self.lc == 1:
            return self
        return self.mul_scalar(1 / self.lc)

    def derivative(self):
        return Poly([self.cs[i] * i for i in range(1, len(self.cs))])

    def sort_key(self):
        return (self.degree, tuple((c.numerator, c.denominator) for c in self.cs))

    def __repr__(self):
        return "Poly(%r)" % list(self.cs)


def poly_gcd(a, b):
    """Monic greatest common divisor by the Euclidean algorithm."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


class Factorization:
    """unit * prod(factor^multiplicity), factors monic irreducible."""

    def __init__(self, unit, factors):
        self.unit = unit
        self.factors = sorted(factors, key=lambda fm: fm[0].sort_key())

    def expand(self):
        acc = Poly([self.unit])
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

    def __repr__(self):
        return "Factorization(unit=%r, factors=%r)" % (self.unit, self.factors)


def factor_mod_p(coeffs, p):
    """Complete factorization over F_p of the integer coefficients
    ``coeffs``, lowest degree first: ``(unit, factors)``, the unit in
    [0, p) and the factors monic int lists with their multiplicities,
    sorted by (degree, coefficients)."""
    if not is_prime(p):
        raise ValueError("factor_mod_p needs a prime p, not %r" % p)
    from .intpoly import _pddf, _pmonic, _psplit, _psquarefree, _zmod, _zprod
    f = _zmod(coeffs, p)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    parts = [(h, m) for u, m in _psquarefree(_pmonic(f, p), p)
             for h in _psplit(_pddf(u, p), p)]
    parts.sort(key=lambda hm: (len(hm[0]), hm[0]))
    if _zprod([[f[-1]]] + [h for h, m in parts for _ in range(m)], p) != f:
        raise ConsistencyError("factorization does not re-multiply to its input")
    if len({tuple(h) for h, _ in parts}) != len(parts):
        raise ConsistencyError("repeated factor in factorization")
    return f[-1], parts


def factor_over_Q(f):
    """Complete factorization into monic irreducibles over Q, times a unit."""
    if not isinstance(f, Poly):
        raise ValueError("factor_over_Q requires rational coefficients")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return Factorization(f.cs[0], []).verify(f)
    from .intpoly import (_certified_squarefree, _denominator_lcm,
                          _factor_squarefree_monic_int, _scale_monic, _yun_squarefree_Q)
    monic = f.monic()
    # Clear denominators while keeping the polynomial monic: substitute
    # X -> X/d and rescale, factor over Z, undo.  The squarefree parts
    # divide monic f, so d scales each of them to Z[X] too.
    d = _denominator_lcm(monic.cs)
    G = _scale_monic(monic, d)
    if _certified_squarefree(G):
        parts = [(G, 1)]
    else:
        parts = [(_scale_monic(g, d), mult) for g, mult in _yun_squarefree_Q(monic)]
    factors = [(Poly([Fraction(c, d ** (len(H) - 1 - i)) for i, c in enumerate(H)]), mult)
               for part, mult in parts for H in _factor_squarefree_monic_int(part)]
    return Factorization(f.lc, factors).verify(f)


def factor_over_number_field(f, L):
    """Factor a squarefree f in Q[X] into monic irreducibles over L:
    ``(unit, [(h, 1), ...])``, the unit f's leading coefficient and each
    h a list of coordinate tuples, lowest degree first, the factors
    sorted by degree, then coordinates.

    The factors over L are not multiplied out again, as the modular gcd's
    product is monic f; the norm's factors over Z are.
    """
    if not isinstance(f, Poly):
        raise ValueError("factor_over_number_field requires rational coefficients")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return f.lc, []
    from .intpoly import (_denominator_lcm, _factor_squarefree_monic_int, _gcds_over_L,
                          _norm_with_shift, _scale_monic, _zprod)
    fm = f.monic()
    d = _denominator_lcm(fm.cs + L.defining.cs)
    F, FL = _scale_monic(fm, d), _scale_monic(L.defining, d)
    if not _squarefree(F):
        raise ValueError("squarefree required")
    check_norm_degree(L.n * f.degree)
    # For f = fL the shift-0 norm is fL^n, and the shift-1 norm has the
    # roots x_i + x_j = x_j + x_i, repeated: neither is squarefree.
    s = 2 if F == FL else 0
    while True:
        M = _norm_with_shift(F, FL, s)
        if _squarefree(M):
            break
        s += 1
    norms = _factor_squarefree_monic_int(M)
    if _zprod(norms) != M:
        raise ConsistencyError("factorization does not re-multiply to its input")
    hs = sorted(_gcds_over_L(F, FL, norms, s, d, L),
                key=lambda h: (len(h), [[(q.numerator, q.denominator) for q in c] for c in h]))
    return f.lc, [(h, 1) for h in hs]


def _squarefree(G):
    """Whether the monic integer polynomial G is squarefree: a prime
    certifies it, or the exact gcd with G' over Q decides."""
    from .intpoly import _certified_squarefree
    if _certified_squarefree(G):
        return True
    g = Poly(map(Fraction, G))
    return poly_gcd(g, g.derivative()).degree == 0
