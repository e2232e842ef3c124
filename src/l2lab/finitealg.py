"""Finite commutative algebras over F_q as structure-constant tables.

An algebra is a dimension, a symmetric d x d table of coordinate
vectors and a unit vector.  A subalgebra keeps an echelon basis over
F_q; an ideal is one, an ``exact.Echelon`` in ambient coordinates,
compared with ``==`` and tested with ``contains``.  Everything an
analysis needs -- maximal ideals, conductor, crucial ideal,
seminormalization, t-closure, the subalgebra lattice -- lives here; the
theorem-level classification sits in classify.py and uses these as its
oracles.

A vector is a tuple of ``int`` element indices in ``range(q)``, in
``SmallField``'s numbering (0 is the zero, 1 the one).  All arithmetic
on entries reads the field's lookup tables: ``FiniteAlgebra.mul`` reads
a sparse list of the nonzero structure constants, and every
``exact.Echelon`` here is reduced with ``SmallField.ops``, the field
protocol on indices.  Plain ``+ - *`` on entries would compute over Z,
so none is applied to them.  ``GFElem`` is only the element type of
``Poly`` over F_q (field tables, irreducibles, the Groebner completion
of a quotient presentation); the builders below turn its coefficients
into indices once, where they hand on a table, a unit or a vector.

Structure is linear algebra, not an element scan: x |-> x^q is
F_q-linear, so a radical sqrt(I) is the kernel of x |-> x^(q^k) mod I
and the primitive idempotents split off the fixed space of x |-> x^q
(the Berlekamp subalgebra).  The closure operators are spans of that
structure: the seminormalization of R in T is R + nil(T), the t-closure
is the sum of the e*R over the primitive idempotents e of T, plus nil(T).

The lattice [R, S] is built by adjunction: T[s] is the T-span of the
powers of s, and every node is extended by one s per point of the
projective space of S/T (``adjunctions``).  Only the test oracles list
the elements of an algebra.
"""

import itertools

from . import exact
from .exact import Echelon, prime_factors
from .caps import check_candidates, check_elements
from .errors import ConsistencyError
from .lattice import from_edges
from .poly import Poly, poly_gcd


# ---------------------------------------------------------------------------
# Small finite fields F_q, q = p^k, with full lookup tables.

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

    def __lt__(self, other):
        return self.i < other.i

    def __repr__(self):
        return self.field.elem_name(self.i)


class SmallField:
    """F_q with precomputed arithmetic tables; q = p^k, q small.

    Element i is the residue sum c_t u^t with i = sum c_t p^t; for k > 1
    the tables come from polynomial arithmetic over F_p modulo the
    lex-least monic irreducible of degree k.  ``elems`` are the elements
    as ``GFElem`` (the coefficients of ``Poly``); ``ops`` is the ``exact``
    field protocol on the indices themselves (``IndexOps``).
    """

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.q = p ** k
        if k == 1:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            Fp = small_field(p)
            m = irreducible_over(Fp, k)
            polys = [Poly(Fp, [Fp.element(i // p ** t) for t in range(k)])
                     for i in range(self.q)]
            index = {f.cs: i for i, f in enumerate(polys)}
            add = [[index[(a + b).cs] for b in polys] for a in polys]
            mul = [[index[(a * b % m).cs] for b in polys] for a in polys]
        self.add_t = add
        self.mul_t = mul
        self.neg_t = [add[a].index(0) for a in range(self.q)]
        inv = [None] * self.q
        for a in range(1, self.q):
            inv[a] = mul[a].index(1)
        self.inv_t = inv
        self.elems = tuple(GFElem(self, i) for i in range(self.q))
        self.zero, self.one = self.elems[0], self.elems[1]
        self.ops = IndexOps(self)

    def from_int(self, n):
        return self.elems[n % self.p]

    def element(self, i):
        return self.elems[i % self.q]

    def elem_name(self, i):
        if self.k == 1:
            return str(i)
        p = self.p
        terms = []
        pos = 0
        while i:
            c = i % p
            i //= p
            if c:
                if pos == 0:
                    terms.append(str(c))
                else:
                    mono = "u" if pos == 1 else "u^%d" % pos
                    terms.append(mono if c == 1 else "%d*%s" % (c, mono))
            pos += 1
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("SmallField", self.q))

    def __repr__(self):
        return "F%d" % self.q


class IndexOps:
    """The ``exact`` field protocol on the element indices of a
    SmallField: a row operation looks up one row of ``mul_t``, then one
    ``add_t`` entry per column."""

    zero, one = 0, 1

    def __init__(self, F):
        self.add_t, self.mul_t, self.neg_t, self.inv_t = F.add_t, F.mul_t, F.neg_t, F.inv_t

    def neg(self, c):
        return self.neg_t[c]

    def sub(self, v, c, row):
        add = self.add_t
        mc = self.mul_t[self.neg_t[c]]
        return [add[a][mc[b]] for a, b in zip(v, row)]

    def div(self, v, c):
        mc = self.mul_t[self.inv_t[c]]
        return [mc[a] for a in v]


_small_fields = {}


def small_field(q):
    check_elements(q, 2, "F_%d arithmetic tables" % q)
    if q not in _small_fields:
        ps = prime_factors(q)
        if not ps or ps.count(ps[0]) != len(ps):
            raise ValueError("%d is not a prime power" % q)
        _small_fields[q] = SmallField(ps[0], len(ps))
    return _small_fields[q]


def irreducible_over(Fq, k):
    """Lex-least monic irreducible of degree k over an arbitrary SmallField."""
    if k == 1:
        return Poly(Fq, [Fq.one, Fq.one])  # X + 1
    for tail in itertools.product(range(Fq.q), repeat=k):
        if tail[0] == 0:
            continue
        f = Poly(Fq, [Fq.element(c) for c in tail] + [Fq.one])
        if f.degree != k:
            continue
        if _is_irreducible_gf(f, Fq):
            return f
    raise ConsistencyError("no irreducible polynomial found")


def _is_irreducible_gf(f, Fq):
    k = f.degree
    x = Poly.x(Fq)
    h = x.pow_mod(Fq.q ** k, f)
    if h != x % f:
        return False
    for ell in set(prime_factors(k)):
        g = x.pow_mod(Fq.q ** (k // ell), f) - x
        if g.is_zero or poly_gcd(g, f).degree != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Algebras

class FiniteAlgebra:
    """Commutative unital F_q-algebra by structure constants."""

    def __init__(self, field, table, unit, names=None):
        self.field = field
        self.dim = len(table)
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.unit = tuple(unit)
        self.names = list(names) if names else ["e%d" % i for i in range(self.dim)]
        # terms[i][j]: the nonzero structure constants (k, c_ijk)
        self.terms = [[tuple((k, c) for k, c in enumerate(v) if c) for v in row]
                      for row in self.table]
        check_elements(field.q, self.dim, "algebra construction")
        self._check_axioms()

    def _check_axioms(self):
        d = self.dim
        for i in range(d):
            for j in range(i, d):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError("multiplication table is not commutative")
        basis = [self.basis_vector(i) for i in range(d)]
        for i in range(d):
            if self.mul(self.unit, basis[i]) != basis[i]:
                raise ValueError("unit does not act as identity")
        for i in range(d):
            for j in range(i, d):
                for k in range(j, d):
                    left = self.mul(self.mul(basis[i], basis[j]), basis[k])
                    right = self.mul(basis[i], self.mul(basis[j], basis[k]))
                    if left != right:
                        raise ValueError("multiplication table is not associative")

    def basis_vector(self, i):
        return tuple(int(j == i) for j in range(self.dim))

    def span(self, vectors):
        """The Echelon of ``vectors`` over the field of the algebra; an
        Echelon is returned as it is, not reduced again."""
        if isinstance(vectors, Echelon):
            return vectors
        return Echelon(vectors, self.field.ops)

    def mul(self, u, v):
        """u*v, read off the sparse structure constants."""
        F = self.field
        add, mul = F.add_t, F.mul_t
        out = [0] * self.dim
        vs = [(j, b) for j, b in enumerate(v) if b]
        for a, row in zip(u, self.terms):
            if not a:
                continue
            ma = mul[a]
            for j, b in vs:
                mc = mul[ma[b]]
                for k, t in row[j]:
                    out[k] = add[out[k]][mc[t]]
        return tuple(out)

    def power(self, v, e):
        """v^e by squaring, with no product by 1 and no square past the
        top bit of e."""
        acc = None
        while e:
            if e & 1:
                acc = v if acc is None else self.mul(acc, v)
            e >>= 1
            if e:
                v = self.mul(v, v)
        return self.unit if acc is None else acc

    def elements(self, what="element enumeration"):
        check_elements(self.field.q, self.dim, what)
        return list(itertools.product(range(self.field.q), repeat=self.dim))

    def element_str(self, v):
        terms = []
        for c, name in zip(v, self.names):
            if not c:
                continue
            cn = self.field.elem_name(c)
            if cn == "1":
                terms.append(name)
            elif name == "1":
                terms.append(cn)
            else:
                terms.append("%s*%s" % (cn if "+" not in cn else "(%s)" % cn, name))
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return "FiniteAlgebra(F%d, dim %d)" % (self.field.q, self.dim)


def _power_table(F, m):
    """Structure constants of F[u]/(m) on the basis 1, u, ..., u^(k-1):
    entry (i, j) is the coefficient vector of u^(i+j) mod m."""
    k = m.degree
    x = Poly.x(F)
    powers = []
    r = Poly.const(F, F.one)
    for _ in range(2 * k - 1):
        powers.append(tuple(r.coeff(t).i for t in range(k)))
        r = r * x % m
    return [[powers[i + j] for j in range(k)] for i in range(k)]


def product_algebra(F, factor_degrees):
    """Direct product of fields F_{q^k}, each realized as F_q[W]/(m_k)."""
    dim = sum(factor_degrees)
    zero = (0,) * dim
    table = [[zero] * dim for _ in range(dim)]
    unit = list(zero)
    names = []
    off = 0
    for s, k in enumerate(factor_degrees, start=1):
        block = _power_table(F, irreducible_over(F, k))
        for i in range(k):
            for j in range(k):
                table[off + i][off + j] = zero[:off] + block[i][j] + zero[off + k:]
        unit[off] = 1
        names += ["e%d" % s] + ["u%d" % s if j == 1 else "u%d^%d" % (s, j)
                                for j in range(1, k)]
        off += k
    return FiniteAlgebra(F, table, unit, names)


# ---------------------------------------------------------------------------
# Multivariate quotient presentations F_q[X_1..X_m]/(relations), via a
# small Buchberger completion under degree-lexicographic order.

def _deglex_key(mono):
    return (sum(mono), mono)


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def _mp_lead(f):
    return max(f, key=_deglex_key)


def _mp_add_term(f, mono, c):
    if mono in f:
        s = f[mono] + c
        if s:
            f[mono] = s
        else:
            del f[mono]
    elif c:
        f[mono] = c


def _mp_combine(f, g, c):
    """f + c*g, functional."""
    out = dict(f)
    for mono, gc in g.items():
        _mp_add_term(out, mono, gc * c)
    return out


def _mp_mul_term(f, mono, c):
    return {_mono_mul(m, mono): fc * c for m, fc in f.items()}


def _mp_normal_form(f, basis):
    rem = {}
    work = dict(f)
    while work:
        m = _mp_lead(work)
        c = work[m]
        for g in basis:
            lm = _mp_lead(g)
            if _mono_divides(lm, m):
                factor = _mono_div(m, lm)
                work = _mp_combine(work, _mp_mul_term(g, factor, c / g[lm]),
                                   -(c / c))
                break
        else:
            del work[m]
            rem[m] = c
    return rem


def _buchberger(gens, nvars, F):
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
        si = _mp_mul_term(G[i], _mono_div(lcm, lmi), F.one)
        sj = _mp_mul_term(G[j], _mono_div(lcm, lmj), F.one)
        s = _mp_combine(si, sj, -F.one)
        r = _mp_normal_form(s, G)
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
    """F_q[vars]/(relations) as a finite algebra; errors if not finite.

    The standard monomials (no lead monomial divides them) are closed
    under division, so they are listed degree by degree from 1, and the
    element cap fires as soon as q^(monomials listed) passes it.
    """
    nvars = len(varnames)
    G = _buchberger(relations, nvars, F)
    leads = [_mp_lead(g) for g in G]
    for v in range(nvars):
        if not any(lm[v] and sum(lm) == lm[v] for lm in leads):
            raise ValueError("quotient is not finite-dimensional "
                             "(no pure power of %s in the ideal)" % varnames[v])
    standard, layer = [], {(0,) * nvars}
    while layer:
        standard += layer
        check_elements(F.q, len(standard), "quotient algebra construction")
        layer = {up for m in layer for up in (m[:v] + (m[v] + 1,) + m[v + 1:]
                                              for v in range(nvars))
                 if not any(_mono_divides(lm, up) for lm in leads)}
    standard.sort(key=_deglex_key)
    index = {m: i for i, m in enumerate(standard)}
    dim = len(standard)

    def nf_vector(f):
        r = _mp_normal_form(f, G)
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
    alg = FiniteAlgebra(F, table, unit, names)
    alg.mp_to_vector = nf_vector
    return alg


def _mono_name(mono, varnames):
    parts = []
    for v, e in zip(varnames, mono):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append("%s^%d" % (v, e))
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# Subalgebras

class Subalgebra:
    """Unital subalgebra of a FiniteAlgebra, as an echelon basis.  The
    constructor trusts its caller that the span holds 1 and is closed
    under multiplication (``member``, ``is_closed``).

    Its nilradical, primitive idempotents and maximal ideals are computed
    on first request (``structure``) and kept, in ambient coordinates.
    """

    def __init__(self, ambient, basis):
        self.ambient = ambient
        self.basis = ambient.span(basis)
        self._structure = None

    @classmethod
    def from_generators(cls, ambient, gens):
        """The subalgebra generated by gens: the prime ring with each
        generator adjoined in turn (``adjoin``)."""
        T = prime_algebra(ambient)
        for g in gens:
            T = adjoin(T, g)
        return T

    @property
    def dim(self):
        return len(self.basis)

    def member(self, v):
        return self.basis.contains(v)

    def is_closed(self):
        """Whether every product of two basis vectors lies in the span."""
        b = self.basis
        return all(self.member(self.ambient.mul(b[i], b[j]))
                   for i in range(len(b)) for j in range(i, len(b)))

    def contains_sub(self, other):
        return self.basis.contains_span(other.basis)

    def key(self):
        return (self.dim, self.basis)

    def elements(self, what="subalgebra element enumeration"):
        check_elements(self.ambient.field.q, self.dim, what)
        coords = itertools.product(range(self.ambient.field.q), repeat=self.dim)
        return [self.basis.combine(coeffs) for coeffs in coords]

    def is_whole(self):
        return self.dim == self.ambient.dim

    def structure(self):
        """(nilradical, primitive idempotents, maximal ideals), computed
        once by ``subalgebra_structure``."""
        if self._structure is None:
            self._structure = subalgebra_structure(self)
        return self._structure

    def __eq__(self, other):
        return (isinstance(other, Subalgebra) and self.ambient is other.ambient
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Subalgebra(dim %d: %s)" % (
            self.dim, "; ".join(self.ambient.element_str(b) for b in self.basis))


def prime_algebra(S):
    return Subalgebra(S, [S.unit])


def algebra_on_subspace(A, basis, unit_vec):
    """The subspace as an algebra in its own basis, with unit ``unit_vec``.
    No analysis builds a second algebra (a localization is an interval
    of the ambient one, ``classify.local_base``); the test oracles use
    this.

    Returns (algebra, lift, project): lift maps local coordinate vectors
    to ambient vectors, project the other way (None if outside).
    """
    basis = A.span(basis)
    table = []
    for a in basis:
        row = [basis.coords(A.mul(a, b)) for b in basis]
        if any(p is None for p in row):
            raise ValueError("subspace is not closed under multiplication")
        table.append(row)
    unit = basis.coords(unit_vec)
    if unit is None:
        raise ValueError("unit does not lie in the subspace")
    names = ["[%s]" % A.element_str(b) for b in basis]
    alg = FiniteAlgebra(A.field, table, unit, names)
    return alg, basis.combine, basis.coords


# ---------------------------------------------------------------------------
# Structure: radicals, primitive idempotents, maximal ideals, conductors,
# each the kernel of an F_q-linear map on a subalgebra

def _kernel_over(T, image):
    """The Echelon of {x in T : image(x) = 0} in ambient coordinates, for
    an F_q-linear ``image`` given by its values on ``T.basis``
    (equal-length tuples).

    The kernel is eliminated right to left: with the columns reversed,
    each vector ``exact.kernel`` gives is 1 at its own free column, 0 at
    the other free columns and 0 after its own.  Reversed back, each is
    1 at its first nonzero entry, its free column, and 0 at the others:
    a reduced echelon basis of coordinates, which ``Echelon.subspace``
    carries into ambient coordinates with no second reduction."""
    cols = [image(b) for b in reversed(T.basis)]
    rows = [[col[t] for col in cols] for t in range(len(cols[0]))]
    kern = exact.kernel(rows, T.dim, T.ambient.field.ops)
    return T.basis.subspace([x[::-1] for x in reversed(kern)])


def radical(T, I):
    """sqrt(I) in T, for an ideal I of T given by an Echelon in ambient
    coordinates (``T.basis.subspace(())`` for the zero ideal) or by an
    ambient basis, reduced here, as an Echelon in ambient coordinates.

    x |-> x^e is F_q-linear for e = q^k, and a nilpotent of T/I has
    index at most dim T, so with q^k >= dim T the radical is the kernel
    of x |-> x^e mod I.
    """
    A = T.ambient
    e = A.field.q
    while e < T.dim:
        e *= A.field.q
    I = A.span(I)
    return _kernel_over(T, lambda b: I.project(A.power(b, e)))


def subalgebra_structure(T):
    """Nilradical, primitive idempotents and maximal ideals of T, in
    ambient coordinates, by linear algebra.

    The Berlekamp subalgebra B = {b : b^q = b} is a copy of F_q^m, one
    factor per primitive idempotent.  For b in B and c in F_q,
    1 - (b - c)^(q-1) is the idempotent where b takes the value c, so
    splitting 1 by these over a basis of B yields the primitive
    idempotents.  T is a product of local rings, one per primitive
    idempotent e, so its maximal ideals are the M_e = (1 - e)T + nil(T).
    Read them through ``T.structure()``, which computes this once per
    subalgebra.
    """
    A = T.ambient
    q, sub = A.field.q, A.field.ops.sub
    nil = radical(T, T.basis.subspace(()))
    prim = [A.unit]
    for b in _kernel_over(T, lambda x: sub(A.power(x, q), 1, x)):
        splits = [sub(A.unit, 1, A.power(sub(b, c, A.unit), q - 1)) for c in range(q)]
        prim = [f for e in prim for f in (A.mul(e, s) for s in splits) if any(f)]
    prim = tuple(sorted(prim))
    maxes = tuple(sorted((A.span(list(nil) + [A.mul(sub(A.unit, 1, e), b) for b in T.basis])
                          for e in prim), key=lambda M: (M.dim, M)))
    return nil, prim, maxes


def nilradical(T):
    """Echelon basis of the nilpotents of T (its Jacobson radical)."""
    return T.structure()[0]


def primitive_idempotents(T):
    """The minimal nonzero idempotents of T, as a sorted tuple."""
    return T.structure()[1]


def maximal_ideals(T):
    """The maximal ideals of T, as a tuple of Echelons sorted by
    (dimension, rows)."""
    return T.structure()[2]


def maximal_ideals_over(T, I):
    """V(I): the maximal ideals of T that contain the span I (an
    ``Echelon`` in ambient coordinates), in the order of
    ``maximal_ideals``."""
    return [N for N in maximal_ideals(T) if N.contains_span(I)]


def conductor(lo, hi):
    """(lo : hi) = {a in hi : a*hi is contained in lo}, the largest ideal
    of hi inside lo, for subalgebras lo <= hi of one algebra.

    As 1 lies in hi, the conductor lies in lo, and for a in lo,
    a*lo <= lo already.  The rows h of hi's echelon basis whose pivots
    are not pivots of lo span hi modulo lo (lo's pivots are pivots of hi,
    and a vector of lo vanishing on them is zero), so the conductor is
    the kernel of a |-> (a*h mod lo)_h over the basis of lo alone.  The
    residue of a*h by lo lies in hi and vanishes on lo's pivots, so it is
    zero exactly when its entries on the other pivots of hi are.  The
    result is ``_kernel_over``'s Echelon, reduced once.
    """
    A = hi.ambient
    free = [p for p in hi.basis.pivots if p not in lo.basis.pivots]
    extra = [h for h, p in zip(hi.basis, hi.basis.pivots) if p in free]

    def image(a):
        out = []
        for h in extra:
            r = lo.basis.residue(A.mul(a, h))
            out.extend(r[p] for p in free)
        return tuple(out)

    return _kernel_over(lo, image)


def msupp(R, T, cond):
    """MSupp(T/R): maximal ideals of R containing the conductor
    ``cond`` = (R:T).

    Cross-checked against the direct localization route: M is in the
    support iff the primitive idempotent of R attached to M moves some
    element of T outside R.
    """
    A = R.ambient
    maxes = maximal_ideals(R)
    via_conductor = maximal_ideals_over(R, cond)
    direct = []
    for e in primitive_idempotents(R):
        if any(not R.member(A.mul(e, b)) for b in T.basis):
            for M in maxes:
                if not M.contains(e):
                    direct.append(M)
                    break
    if sorted(via_conductor) != sorted(direct):
        raise ConsistencyError("support by conductor disagrees with localization")
    return via_conductor


def crucial_ideal(R, cond, support):
    """The crucial maximal ideal of R < T, or None: sqrt(R:T) when it is
    maximal.  ``cond`` and ``support`` are (R:T) and MSupp(T/R), as
    ``conductor`` and ``msupp`` give them; the radical is checked
    against the support."""
    rad = radical(R, cond)
    if rad in maximal_ideals(R):
        if len(support) != 1 or support[0] != rad:
            raise ConsistencyError("crucial ideal disagrees with the support")
        return rad
    if len(support) == 1:
        raise ConsistencyError("one-element support but sqrt(R:S) not maximal")
    return None


# ---------------------------------------------------------------------------
# Closure operators

def _closure_span(T, vectors, what):
    """The subalgebra spanned by ``vectors``, which must contain 1 and be
    closed under multiplication; a failure is a consistency error."""
    U = Subalgebra(T.ambient, vectors)
    if not U.member(T.ambient.unit) or not U.is_closed():
        raise ConsistencyError("%s span is not a subalgebra" % what)
    return U


def seminormalize(R, T):
    """The seminormalization of R in T (R <= T subalgebras of one
    algebra): R + nil(T).

    T is Artinian.  P = R + nil(T) is a ring (nil(T) is an ideal of T),
    nil(P) = nil(T) and P/nil(P) = R/nil(R), so R <= P is subintegral.
    A subintegral R <= P' <= T has P'_red = R_red, so P' = R + nil(P')
    lies in P: P is the largest subintegral subextension (Swan 1980).
    """
    return _closure_span(T, list(R.basis) + list(nilradical(T)), "seminormalization")


def t_close(R, T):
    """The t-closure of R in T (R <= T subalgebras of one algebra):
    the sum of e*R over the primitive idempotents e of T, plus nil(T).

    U = sum_e e*R + nil(T) is a ring, and U_red is the product over e of
    the image of R in the residue field of e*T, so no residue field
    grows and R <= U is infra-integral.  An infra-integral R <= U' <= T
    maps at each e into that same image, so U' lies in U: U is the
    largest infra-integral subextension (Picavet & Picavet-L'Hermitte
    1993).
    """
    A = T.ambient
    vectors = [A.mul(e, r) for e in primitive_idempotents(T) for r in R.basis]
    return _closure_span(T, vectors + list(nilradical(T)), "t-closure")


def adjoin(T, s):
    """T[s], the smallest subalgebra containing T and s: the T-span of
    1, s, s^2, ..., up to the first power already in the span.

    Let V_k be the F_q-span of the t*s^i, t in T and i <= k: a T-module
    containing 1.  If s^(k+1) = sum_i t_i s^i lies in V_k, then
    t*s^(k+1) = sum_i (t t_i) s^i lies in V_k for every t in T, so
    s*V_k <= V_k.  V_k is then closed under multiplication by T and by s,
    hence by every element of V_k, so it is a ring; it contains T and s
    and lies in every ring that does, so V_k = T[s].  The powers stop by
    dim A at the latest, as V_k grows with every power outside it.
    """
    A = T.ambient
    span = T.basis
    power = s
    while not span.contains(power):
        span = span.extend([A.mul(t, power) for t in T.basis])
        power = A.mul(power, s)
    return Subalgebra(A, span)


# ---------------------------------------------------------------------------
# Subalgebra enumeration by adjunction

def _points(q, c):
    """One vector per point of the projective space of F_q^c: those whose
    first nonzero entry is 1."""
    for lead in range(c):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=c - lead - 1):
            yield head + tail


def adjunctions(T):
    """(s, T[s]) for one s per point of the projective space of A/T, A
    the ambient algebra: s is zero on T's pivot columns and 1 at its
    first nonzero free column.  Every T[u] with u outside T is one of
    these, as T[c*u + t] = T[u] for c != 0 and t in T."""
    A = T.ambient
    free = [j for j in range(A.dim) if j not in T.basis.pivots]
    for point in _points(A.field.q, len(free)):
        s = [0] * A.dim
        for j, c in zip(free, point):
            s[j] = c
        s = tuple(s)
        yield s, adjoin(T, s)


def is_simple_extension(lat):
    """The points s of S/R with R[s] = S, for the lattice [R, S] that
    ``enumerate_subalgebras`` built: S is a simple extension of R iff the
    list is not empty, and every x with R[x] = S is c*s + r for one of
    them, c != 0 and r in R."""
    top = len(lat) - 1
    return [s for s, j in lat.points if j == top]


def enumerate_subalgebras(R, S):
    """The lattice of all subalgebras between R and S.

    Every node T is extended by its ``adjunctions``, the T[s] for one s
    per point of the projective space of S/T.  That reaches every
    subalgebra U of [R, S]: U is the end of a chain R = U_0 < U_1 < ...
    with U_(i+1) = U_i[u_i], and U_i[u] is the adjunction of the point
    of u.  The same argument from any node T < U gives a chain of
    adjunction edges T -> T[s] from T to U, so the edges generate the
    order, and ``lattice.from_edges`` builds the diagram from them with
    no pair of nodes compared.  The bottom's walk is kept as the
    lattice's ``points``, (s, index of R[s]).  The candidate cap bounds
    the adjunctions, checked before each node's points are walked.
    """
    check_elements(S.field.q, S.dim, "subalgebra enumeration")
    q = S.field.q
    found = {R.key(): R}
    edges = {}              # id(T) -> ids of the distinct T[s], nodes of found
    points = []             # (s, id of R[s]) over the bottom's points
    todo = [R]
    count = 0
    while todo:
        T = todo.pop()
        count += (q ** (S.dim - T.dim) - 1) // (q - 1)
        check_candidates(count, "subalgebra enumeration")
        children = edges[id(T)] = set()
        for s, U in adjunctions(T):
            node = found.setdefault(U.key(), U)
            if node is U:
                todo.append(U)
            children.add(id(node))
            if T is R:
                points.append((s, id(node)))
    nodes = sorted(found.values(), key=Subalgebra.key)
    position = {id(T): i for i, T in enumerate(nodes)}
    gen = [sum(1 << position[c] for c in edges[id(T)]) for T in nodes]
    lat = from_edges(nodes, gen)
    lat.points = [(s, position[u]) for s, u in points]
    return lat


# ---------------------------------------------------------------------------
# Minimal-extension types (inert / decomposed / ramified)

def _minimal_type_of_pair(lo, hi):
    """Type of a known-minimal lo < hi, subalgebras of one algebra, via
    the conductor and Max(hi)."""
    A = hi.ambient
    M = conductor(lo, hi)
    if M not in maximal_ideals(lo):
        raise ConsistencyError("conductor of a minimal extension is not maximal in R")
    over = maximal_ideals_over(hi, M)
    qdim_RM = lo.dim - M.dim
    if len(over) == 2:
        for N in over:
            if hi.dim - N.dim != qdim_RM:
                raise ConsistencyError("decomposed residue map is not an isomorphism")
        return "decomposed"
    if len(over) != 1:
        raise ConsistencyError("minimal extension with |V(M)| not in {1, 2}")
    N = over[0]
    if N == M:
        if hi.dim - N.dim <= qdim_RM:
            raise ConsistencyError("inert case without residue field growth")
        return "inert"
    # ramified: N^2 <= M < N and [hi/M : lo/M] = 2; N is an ideal of hi,
    # so N^2 is the span of the products of N's basis
    if not all(M.contains(A.mul(N[i], N[j]))
               for i in range(N.dim) for j in range(i, N.dim)):
        raise ConsistencyError("ramified case: N^2 not inside M")
    if hi.dim - N.dim != qdim_RM:
        raise ConsistencyError("ramified residue map is not an isomorphism")
    if (hi.dim - M.dim) != 2 * qdim_RM:
        raise ConsistencyError("ramified case: [S/M : R/M] != 2")
    return "ramified"
