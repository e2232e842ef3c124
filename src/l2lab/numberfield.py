"""Number fields L = Q[x]/(f) and their subfields as rational subspaces.

Elements are coordinate vectors in the power basis {1, x, ..., x^(n-1)};
a subfield is stored as the reduced echelon basis of its coordinate
subspace together with the minimal polynomial of x over it.  Echelon
bases are canonical (first-nonzero pivoting), so subfield equality is
plain data equality.
"""

from fractions import Fraction

from . import exact
from .errors import ConsistencyError
from .poly import QQ, Poly, factor_over_Q, is_separable


class NFElement:
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
        return self.field._mul(self, other)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e):
        acc = self.field.one
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def scale(self, q):
        return NFElement(self.field, [a * q for a in self.coords])

    def inverse(self):
        if not any(self.coords):
            raise ZeroDivisionError("inverse of zero")
        a = Poly(QQ, self.coords)
        f = self.field.defining
        # extended Euclid: s*a + t*f = 1
        r0, r1 = a, f
        s0, s1 = Poly.const(QQ, Fraction(1)), Poly(QQ, [])
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise ConsistencyError("defining polynomial is not irreducible")
        s = s0.mul_scalar(Fraction(1) / r0.cs[0])
        return self.field.from_poly(s)

    def __eq__(self, other):
        return isinstance(other, NFElement) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return nf_str(self)


def nf_str(e, var="x"):
    terms = []
    for i, c in enumerate(e.coords):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mono = var if i == 1 else "%s^%d" % (var, i)
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

    characteristic = 0

    def __init__(self, defining):
        self.defining = defining
        self.n = defining.degree
        self.zero = NFElement(self, (Fraction(0),) * self.n)
        self.one = NFElement(self, (Fraction(1),) + (Fraction(0),) * (self.n - 1))
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
        g = [Fraction(0)] * self.n
        if self.n > 1:
            g[1] = Fraction(1)
        else:
            g[0] = -defining.cs[0]
        self._gen = NFElement(self, g)
        pows = [self.one]
        for _ in range(self.n):
            pows.append(pows[-1] * self._gen)
        self.gen_powers = pows

    def gen(self):
        return self._gen

    def from_int(self, k):
        return self.one.scale(Fraction(k))

    def from_rational(self, q):
        return self.one.scale(Fraction(q))

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.n:
            raise ValueError("expected %d coordinates" % self.n)
        return NFElement(self, coords)

    def from_poly(self, p):
        # reduce degree by degree with x^n = -(lower part of f)
        cs = list(p.cs)
        while len(cs) > self.n:
            top = cs.pop()
            if top:
                k = len(cs) - self.n
                for i, b in enumerate(self._red[0]):
                    cs[k + i] = cs[k + i] + top * b
        cs += [Fraction(0)] * (self.n - len(cs))
        return NFElement(self, cs)

    def _mul(self, a, b):
        n = self.n
        prod = [Fraction(0)] * (2 * n - 1)
        for i, ai in enumerate(a.coords):
            if not ai:
                continue
            for j, bj in enumerate(b.coords):
                if bj:
                    prod[i + j] += ai * bj
        out = prod[:n]
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                for i, b in enumerate(self._red[k - n]):
                    out[i] += c * b
        return NFElement(self, out)

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField)
                                 and self.defining == other.defining)

    def __hash__(self):
        return hash(self.defining.cs)

    def __repr__(self):
        return "NumberField(x: %s = 0, degree %d)" % (poly_str(self.defining), self.n)


def poly_str(f, var="X"):
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
            mono = var if i == 1 else "%s^%d" % (var, i)
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
    if isinstance(c, NFElement):
        return c == (c.field.one if sign == 1 else -c.field.one)
    return c == sign


def _coeff_str(c):
    if isinstance(c, NFElement):
        return "(" + nf_str(c) + ")"
    return str(c)


def make_field(f):
    """Construct Q[x]/(f), certifying f monic, separable and irreducible."""
    if f.is_zero or f.degree < 1:
        raise ValueError("defining polynomial must have degree >= 1")
    if f.lc != 1:
        raise ValueError("defining polynomial must be monic")
    if not is_separable(f):
        raise ValueError("separable required")
    fac = factor_over_Q(f)
    if len(fac.factors) != 1 or fac.factors[0][1] != 1:
        raise ValueError("not a field: defining polynomial is reducible")
    return NumberField(f)


class Subfield:
    """An intermediate field k <= K <= L: the Echelon span of its
    coordinate vectors, the same rows as elements, and the min poly of x."""

    __slots__ = ("ambient", "span", "basis", "min_poly")

    def __init__(self, ambient, span, min_poly):
        self.ambient = ambient
        self.span = span
        self.basis = tuple(NFElement(ambient, row) for row in span)
        self.min_poly = min_poly

    @property
    def dim(self):
        return len(self.span)

    def key(self):
        return (self.dim, self.span)

    def contains(self, elem):
        return self.span.contains(elem.coords)

    def contains_subfield(self, other):
        return all(self.contains(b) for b in other.basis)

    def is_full(self):
        return self.dim == self.ambient.n

    def is_prime_field(self):
        return self.dim == 1

    def __eq__(self, other):
        return (isinstance(other, Subfield) and self.ambient == other.ambient
                and self.span == other.span)

    def __hash__(self):
        return hash(self.span)

    def __repr__(self):
        return "Subfield(dim %d: %s)" % (self.dim, ", ".join(nf_str(b) for b in self.basis))

    def describe(self):
        gens = [nf_str(b) for b in self.basis if b.coords != self.ambient.one.coords]
        if self.is_full():
            return "L"
        if not gens:
            return "Q"
        return "Q(" + ", ".join(gens) + ")"


def _check_subspace_is_subfield(L, span):
    if not span.contains(L.one.coords):
        raise ConsistencyError("subspace does not contain 1")
    basis = [NFElement(L, row) for row in span]
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            if not span.contains((basis[i] * basis[j]).coords):
                raise ConsistencyError("subspace is not closed under multiplication")
    if L.n % max(1, len(basis)) != 0:
        raise ConsistencyError("subfield dimension does not divide the field degree")


def subfield_from_subspace(L, vectors, check=True):
    """The Q-span of the coordinate vectors and 1, as a Subfield.

    With check=True the multiplicative closure is asserted, not imposed.
    """
    return _subfield(L, exact.Echelon(list(vectors) + [L.one.coords]), check)


def _subfield(L, span, check):
    if check:
        _check_subspace_is_subfield(L, span)
    return Subfield(L, span, min_poly_over_basis(L, span))


def min_poly_over_basis(L, span):
    """Monic minimal polynomial of x over the subfield with Echelon span.

    Finds the least d such that x^d is a combination of b_j * x^i
    (i < d) with rational weights: pure linear algebra, independent of
    any factorization of the defining polynomial.
    """
    n = L.n
    k = len(span)
    basis = [NFElement(L, row) for row in span]
    pows = L.gen_powers
    cols = []
    for d in range(1, n + 1):
        for b in basis:
            cols.append((b * pows[d - 1]).coords)
        rows = [[col[c] for col in cols] for c in range(n)]
        rhs = list(pows[d].coords)
        sol = exact.solve(rows, rhs, Fraction(1))
        if sol is None:
            continue
        coeffs = [NFElement(L, span.combine(sol[i * k:(i + 1) * k])) for i in range(d)]
        mp = Poly(L, [-c for c in coeffs] + [L.one])
        if d * k != n:
            raise ConsistencyError("deg(f_K) * dim(K) != n")
        if mp.evaluate(L.gen()):
            raise ConsistencyError("minimal polynomial does not kill x")
        return mp
    raise ConsistencyError("no minimal polynomial found")


def subfield_generated(L, gens):
    """Smallest subfield of L containing Q and the given elements.

    Adjoins pairwise products and re-echelonizes until the dimension
    stabilizes; terminates in at most n rounds since the dimension
    strictly increases.
    """
    span = exact.Echelon([L.one.coords] + [g.coords for g in gens])
    while True:
        basis = [NFElement(L, row) for row in span]
        prods = list(span)
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                prods.append((basis[i] * basis[j]).coords)
        grown = exact.Echelon(prods)
        if len(grown) == len(span):
            break
        span = grown
    return _subfield(L, span, check=True)


def intersect_subfields(A, B):
    """Exact subspace intersection of two subfields of the same field."""
    if A.ambient != B.ambient:
        raise ValueError("subfields of different ambient fields")
    return _subfield(A.ambient, exact.intersection(A.span, B.span), check=True)


def whole_field(L):
    span = exact.Echelon([[Fraction(1 if i == j else 0) for i in range(L.n)]
                          for j in range(L.n)])
    return Subfield(L, span, Poly(L, [-L.gen(), L.one]))


def prime_subfield(L):
    return subfield_from_subspace(L, [], check=True)
