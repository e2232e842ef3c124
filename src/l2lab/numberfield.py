"""Number fields L = Q[x]/(f) and their subfields as rational subspaces.

Elements are coordinate tuples in the power basis {1, x, ..., x^(n-1)},
multiplied by ``NumberField.mul``; ``NFElement`` wraps a tuple only as
the coefficient type of a ``Poly`` over L, which is never divided but by
a monic polynomial, so no element is inverted.  A subfield is the
reduced echelon basis of its coordinate subspace together with the
minimal polynomial of x over it.  Echelon bases are canonical
(first-nonzero pivoting), so subfield equality is plain data equality.
"""

from fractions import Fraction

from . import exact
from .errors import ConsistencyError
from .poly import Poly, factor_over_Q


class NFElement:
    """A coefficient of a ``Poly`` over L: ring operations only."""

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
        return NFElement(self.field, self.field.mul(self.coords, other.coords))

    def __eq__(self, other):
        return isinstance(other, NFElement) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return nf_str(self.coords)


def nf_str(coords):
    """The element with coordinate tuple ``coords`` as text in x."""
    terms = []
    for i, c in enumerate(coords):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mono = "x" if i == 1 else "x^%d" % i
            if c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append("-" + mono)
            else:
                terms.append("%s*%s" % (c, mono))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


class NumberField:
    """L = Q[x]/(f) for a monic irreducible separable f."""

    def __init__(self, defining):
        self.defining = defining
        self.n = defining.degree
        # reduction table: coordinates of x^n, ..., x^(2n-2)
        red = []
        cur = [-c for c in defining.cs[:-1]]
        red.append(tuple(cur))
        for _ in range(self.n - 2):
            cur = [Fraction(0)] + cur
            top = cur.pop()
            if top:
                cur = [a + top * b for a, b in zip(cur, red[0])]
            red.append(tuple(cur))
        self._red = red
        # coordinates of x^0, ..., x^n
        self.gen_powers = [tuple(Fraction(int(i == k)) for i in range(self.n))
                           for k in range(self.n)] + red[:1]
        self.zero = NFElement(self, (Fraction(0),) * self.n)
        self.one = NFElement(self, self.gen_powers[0])

    def gen(self):
        return NFElement(self, self.gen_powers[1])

    def from_rational(self, q):
        return NFElement(self, [Fraction(q) * c for c in self.gen_powers[0]])

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.n:
            raise ValueError("expected %d coordinates" % self.n)
        return NFElement(self, coords)

    def mul(self, u, v):
        """The product of the elements with coordinate tuples u and v."""
        n = self.n
        prod = [Fraction(0)] * (2 * n - 1)
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if vj:
                    prod[i + j] += ui * vj
        out = prod[:n]
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                for i, b in enumerate(self._red[k - n]):
                    out[i] += c * b
        return tuple(out)

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField)
                                 and self.defining == other.defining)

    def __hash__(self):
        return hash(self.defining.cs)

    def __repr__(self):
        return "NumberField(x: %s = 0, degree %d)" % (poly_str(self.defining), self.n)


def poly_str(f):
    """Canonical text form, printable and re-parsable."""
    if f.is_zero:
        return "0"
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if not c:
            continue
        if i == 0:
            body = _coeff_str(c)
        else:
            mono = "X" if i == 1 else "X^%d" % i
            if _is_unit_coeff(c, 1):
                body = mono
            elif _is_unit_coeff(c, -1):
                body = "-" + mono
            else:
                body = "%s*%s" % (_coeff_str(c), mono)
        terms.append(body)
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _is_unit_coeff(c, sign):
    cs = c.coords if isinstance(c, NFElement) else (c,)
    return cs[0] == sign and not any(cs[1:])


def _coeff_str(c):
    if isinstance(c, NFElement):
        return "(" + nf_str(c.coords) + ")"
    return str(c)


def make_field(f):
    """Construct Q[x]/(f), certifying f monic, separable and irreducible."""
    if f.is_zero or f.degree < 1:
        raise ValueError("defining polynomial must have degree >= 1")
    if f.lc != 1:
        raise ValueError("defining polynomial must be monic")
    fac = factor_over_Q(f)
    if any(m > 1 for _, m in fac.factors):
        raise ValueError("separable required")
    if len(fac.factors) != 1:
        raise ValueError("not a field: defining polynomial is reducible")
    return NumberField(f)


class Subfield:
    """An intermediate field k <= K <= L: the Echelon basis of its
    coordinate vectors and the min poly of x."""

    __slots__ = ("ambient", "basis", "min_poly")

    def __init__(self, ambient, basis, min_poly):
        self.ambient = ambient
        self.basis = basis
        self.min_poly = min_poly

    @property
    def dim(self):
        return len(self.basis)

    def key(self):
        return (self.dim, self.basis)

    def is_full(self):
        return self.dim == self.ambient.n

    def __eq__(self, other):
        return (isinstance(other, Subfield) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return "Subfield(dim %d: %s)" % (self.dim, ", ".join(nf_str(b) for b in self.basis))

    def describe(self):
        gens = [nf_str(b) for b in self.basis if b != self.ambient.one.coords]
        if self.is_full():
            return "L"
        if not gens:
            return "Q"
        return "Q(" + ", ".join(gens) + ")"


def _check_subspace_is_subfield(L, span):
    if not span.contains(L.one.coords):
        raise ConsistencyError("subspace does not contain 1")
    rows = list(span)
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            if not span.contains(L.mul(rows[i], rows[j])):
                raise ConsistencyError("subspace is not closed under multiplication")


def subfield_from_subspace(L, vectors):
    """The Q-span of the coordinate vectors and 1, as a Subfield.

    The multiplicative closure is asserted, not imposed.
    """
    return subfield_of_span(L, exact.Echelon(list(vectors) + [L.one.coords], exact.QQ_OPS))


def subfield_of_span(L, span):
    """The Subfield with Echelon span ``span``: its multiplicative
    closure asserted and the min poly of x found."""
    _check_subspace_is_subfield(L, span)
    return Subfield(L, span, min_poly_over_basis(L, span))


def min_poly_over_basis(L, span):
    """Monic minimal polynomial of x over the subfield with Echelon span.

    For a subfield K of dimension k, the min poly has degree d = n/k, and
    the products b_j * x^i (b_j the basis of K, i < d) are a Q-basis of
    L; one exact solve writes x^d over them, with rational weights: pure
    linear algebra, independent of any factorization of the defining
    polynomial.  A k that does not divide n, or products of lower rank,
    mean the span is no subfield.
    """
    n = L.n
    k = len(span)
    if n % k:
        raise ConsistencyError("deg(f_K) * dim(K) != n")
    d = n // k
    pows = L.gen_powers
    cols = [L.mul(b, pows[i]) for i in range(d) for b in span]
    rows = [[col[c] for col in cols] + [pows[d][c]] for c in range(n)]
    red, pivots = exact.rref(rows, exact.QQ_OPS)
    if pivots != list(range(n)):
        raise ConsistencyError("deg(f_K) * dim(K) != n")
    sol = [row[n] for row in red]
    coeffs = [NFElement(L, span.combine(sol[i * k:(i + 1) * k])) for i in range(d)]
    mp = Poly(L, [-c for c in coeffs] + [L.one])
    if mp.evaluate(L.gen()):
        raise ConsistencyError("minimal polynomial does not kill x")
    return mp


def intersect_subfields(A, B):
    """Exact subspace intersection of two subfields of the same field."""
    if A.ambient != B.ambient:
        raise ValueError("subfields of different ambient fields")
    return subfield_of_span(A.ambient, exact.intersection(A.basis, B.basis))


def whole_field(L):
    return Subfield(L, exact.Echelon(L.gen_powers[:L.n], exact.QQ_OPS),
                    Poly(L, [-L.gen(), L.one]))


def prime_subfield(L):
    return subfield_from_subspace(L, [])
