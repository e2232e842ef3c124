"""Number fields L = Q[x]/(f) and their subfields as rational subspaces.

An element is its coordinate tuple in the power basis {1, x, ..., x^(n-1)},
and a polynomial over L is a list of such tuples, lowest degree first.
``NumberField`` multiplies elements and polynomials, divides a
polynomial by a monic one and evaluates one at x; nothing divides by an
element, so none is inverted.  A subfield is the reduced echelon basis
of its coordinate subspace together with the minimal polynomial of x
over it.  Echelon bases are canonical (first-nonzero pivoting), so
subfield equality is plain data equality.
"""

from fractions import Fraction

from . import exact
from .errors import ConsistencyError
from .poly import Poly, factor_over_Q


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
    return _join_terms(terms)


def _join_terms(terms):
    """The sum of the signed terms as text; "0" when there are none."""
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

    def poly_mul(self, a, b):
        """The product of the polynomials a and b over L."""
        out = [(Fraction(0),) * self.n] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] = tuple(s + t for s, t in zip(out[i + j], self.mul(u, v)))
        return out

    def poly_rem(self, a, b):
        """The remainder of the polynomial a by the monic b over L: all
        deg b of its coefficients, zeros included."""
        d = len(b) - 1
        r = list(a) + [(Fraction(0),) * self.n] * (d - len(a))
        for k in range(len(r) - 1 - d, -1, -1):
            c = r[k + d]
            if any(c):
                for i in range(d):
                    r[k + i] = tuple(s - t for s, t in zip(r[k + i], self.mul(c, b[i])))
        return r[:d]

    def poly_at_x(self, a):
        """The value at x of the polynomial a over L, by Horner."""
        acc = (Fraction(0),) * self.n
        for c in reversed(a):
            acc = tuple(s + t for s, t in zip(self.mul(acc, self.gen_powers[1]), c))
        return acc

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField)
                                 and self.defining == other.defining)

    def __hash__(self):
        return hash(self.defining.cs)

    def __repr__(self):
        return "NumberField(x: %s = 0, degree %d)" % (poly_str(self.defining), self.n)


def poly_str(f):
    """Canonical text form, printable and re-parsable, of a ``Poly`` over
    Q or of a polynomial over L, whose coefficients print parenthesized."""
    if isinstance(f, Poly):
        cs = [(c, str(c)) for c in f.cs]
    else:
        cs = [(None if any(c[1:]) else c[0], "(" + nf_str(c) + ")") for c in f]
    terms = []
    for i in range(len(cs) - 1, -1, -1):
        value, text = cs[i]
        if value == 0:
            continue
        if i == 0:
            terms.append(text)
            continue
        mono = "X" if i == 1 else "X^%d" % i
        terms.append(mono if value == 1 else "-" + mono if value == -1
                     else "%s*%s" % (text, mono))
    return _join_terms(terms)


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
        gens = [nf_str(b) for b in self.basis if b != self.ambient.gen_powers[0]]
        if self.is_full():
            return "L"
        if not gens:
            return "Q"
        return "Q(" + ", ".join(gens) + ")"


def _check_subspace_is_subfield(L, span):
    if not span.contains(L.gen_powers[0]):
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
    return subfield_of_span(L, exact.Echelon(list(vectors) + [L.gen_powers[0]], exact.QQ_OPS))


def subfield_of_span(L, span):
    """The Subfield with Echelon span ``span``: its multiplicative
    closure asserted and the min poly of x found."""
    _check_subspace_is_subfield(L, span)
    return Subfield(L, span, min_poly_over_basis(L, span))


def min_poly_over_basis(L, span):
    """Monic minimal polynomial of x over the subfield with Echelon span.

    For a subfield K of dimension k, the min poly has degree d = n/k, and
    the products b_j * x^i (b_j the basis of K, i < d) are a Q-basis of
    L; one row reduction writes x^d over them, with rational weights: pure
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
    mp = [tuple(-c for c in span.combine(sol[i * k:(i + 1) * k])) for i in range(d)]
    mp.append(pows[0])
    if any(L.poly_at_x(mp)):
        raise ConsistencyError("minimal polynomial does not kill x")
    return mp


def intersect_subfields(A, B):
    """Exact subspace intersection of two subfields of the same field."""
    if A.ambient != B.ambient:
        raise ValueError("subfields of different ambient fields")
    return subfield_of_span(A.ambient, exact.intersection(A.basis, B.basis))


def whole_field(L):
    one, x = L.gen_powers[:2]
    return Subfield(L, exact.Echelon(L.gen_powers[:L.n], exact.QQ_OPS),
                    [tuple(-c for c in x), one])
