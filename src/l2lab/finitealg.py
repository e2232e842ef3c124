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
so none is applied to them.  An element has this one form everywhere:
the Groebner completion of a quotient presentation keeps its polynomials
as ``{monomial: index}`` dicts on the same tables.

F_(q^k) is built once, as the algebra F_q[u]/(m) on 1, u, ...,
u^(k-1) (``field_extension``), with m found by Rabin's test evaluated
in that algebra: ``SmallField`` reads its multiplication table off it
and ``product_algebra`` its blocks, so nothing here uses ``poly``.

Structure is linear algebra, not an element scan: x |-> x^q is
F_q-linear, so a radical sqrt(I) is the kernel of x |-> x^(q^k) mod I
and the primitive idempotents split off the fixed space of x |-> x^q
(the Berlekamp subalgebra).  That split runs once, on the whole algebra
S; every other subalgebra T reads its structure off S's, with
nil(T) = T & nil(S) and its primitive idempotents the sums of S's over
the blocks of one partition (``subalgebra_structure``).  The closure
operators are spans of that structure: the seminormalization of R in T
is R + nil(T), the t-closure is the sum of the e*R over the primitive
idempotents e of T, plus nil(T).

The lattice [R, S] is ``lattice.closure`` under adjunction: T[s] is the
T-span of the powers of s, and every node is extended by one s per
point of the projective space of S/T (``adjunctions``).  Most T[s] are
read off earlier walks (``enumerate_subalgebras`` proves it): a node
T = T'[g] was first reached from T', whose walk is complete, and gives
V = T'[s] for each point s of S/T.  Then T[s] = V when g lies in V;
otherwise T[s] = V[g], which is V's entry for the point of g in S/V
once V has been walked; otherwise ``adjoin`` computes it.  The walk's
pop order is free for this rule, which needs only that T' is walked
before T, and ``lattice.closure`` takes the largest dimension first, so
more of the V are walked by the time T needs them.  Only the test
oracles list the elements of an algebra.
"""

import itertools

from . import exact
from .exact import Echelon, prime_factors
from .caps import check_candidates, check_elements
from .errors import ConsistencyError
from .lattice import closure


# ---------------------------------------------------------------------------
# Small finite fields F_q, q = p^k, with full lookup tables.

class SmallField:
    """F_q with precomputed arithmetic tables; q = p^k, q small.

    Element i is the residue sum c_t u^t with i = sum c_t p^t: for k > 1
    its base-p digits are its coordinates in the algebra
    ``field_extension(F_p, k)``, whose product gives the table.  The
    elements are the indices themselves: ``add_t``, ``mul_t``, ``neg_t``
    and ``inv_t`` are their arithmetic, and ``ops`` is the ``exact``
    field protocol on them (``IndexOps``).
    """

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.q = p ** k
        if k == 1:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            A = field_extension(small_field(p), k)
            digits = [tuple(i // p ** t % p for t in range(k)) for i in range(self.q)]
            index = {v: i for i, v in enumerate(digits)}
            add = [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in digits]
                   for a in digits]
            mul = [[index[A.mul(a, b)] for b in digits] for a in digits]
        self.add_t = add
        self.mul_t = mul
        self.neg_t = [add[a].index(0) for a in range(self.q)]
        inv = [None] * self.q
        for a in range(1, self.q):
            inv[a] = mul[a].index(1)
        self.inv_t = inv
        self.ops = IndexOps(self)

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


# ---------------------------------------------------------------------------
# Algebras

class FiniteAlgebra:
    """Commutative unital F_q-algebra by structure constants."""

    def __init__(self, field, table, unit, names=None):
        self._read(field, table, unit, names)
        self._check_axioms()

    @classmethod
    def _unchecked(cls, field, table, unit):
        """The algebra of a table whose axioms are not checked: the
        candidate moduli of ``field_extension``, which builds the one it
        returns with the constructor and so checks that one."""
        A = cls.__new__(cls)
        A._read(field, table, unit, None)
        return A

    def _read(self, field, table, unit, names):
        self.field = field
        self.dim = len(table)
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.unit = tuple(unit)
        self.names = list(names) if names else ["e%d" % i for i in range(self.dim)]
        # terms[i][j]: the nonzero structure constants (k, c_ijk)
        self.terms = [[tuple((k, c) for k, c in enumerate(v) if c) for v in row]
                      for row in self.table]
        self._whole = None
        check_elements(field.q, self.dim, "algebra construction")

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

    def whole(self):
        """The algebra as a Subalgebra of itself, made once: the top node
        of every lattice enumerated in it, whose structure every other
        subalgebra reads (``subalgebra_structure``)."""
        if self._whole is None:
            self._whole = Subalgebra(self, [self.basis_vector(i) for i in range(self.dim)])
        return self._whole

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
    """Structure constants of F[u]/(m) on the basis 1, u, ..., u^(k-1),
    for a monic m of degree k given by the indices of its coefficients,
    constant first: entry (i, j) is u^(i+j) mod m.  Each power is the
    last shifted up one place, less its top coefficient times m."""
    k = len(m) - 1
    low = m[:k]
    r = [1] + [0] * (k - 1)
    powers = []
    for _ in range(2 * k - 1):
        powers.append(tuple(r))
        top, r = r[-1], [0] + r[:-1]
        if top:
            r = F.ops.sub(r, top, low)
    return [[powers[i + j] for j in range(k)] for i in range(k)]


def field_extension(F, k):
    """F_(q^k) as the algebra F[u]/(m) on 1, u, ..., u^(k-1), for m the
    first monic irreducible of degree k with a nonzero constant term in
    the lexicographic order of its coefficients, constant term first
    (X + 1 for k = 1).  Each candidate m is tested in its algebra
    ``FiniteAlgebra._unchecked`` (``_is_field``); the algebra returned is
    built again from its table by the constructor, which checks it.
    """
    unit = (1,) + (0,) * (k - 1)
    for tail in itertools.product(range(1, F.q), *[range(F.q)] * (k - 1)):
        table = _power_table(F, tail + (1,))
        if k == 1 or _is_field(FiniteAlgebra._unchecked(F, table, unit)):
            return FiniteAlgebra(F, table, unit)
    raise ConsistencyError("no irreducible polynomial found")


def _is_field(A):
    """Rabin's test on A = F_q[u]/(m), deg m = k >= 2: m is irreducible
    exactly when u^(q^k) = u and, for each prime l dividing k,
    u^(q^(k/l)) - u is a unit, i.e. its multiples span the algebra."""
    F, k = A.field, A.dim
    u = A.basis_vector(1)
    if A.power(u, F.q ** k) != u:
        return False
    basis = [A.basis_vector(i) for i in range(k)]
    for ell in set(prime_factors(k)):
        g = F.ops.sub(A.power(u, F.q ** (k // ell)), F.ops.one, u)
        if A.span([A.mul(g, b) for b in basis]).dim < k:
            return False
    return True


def product_algebra(F, factor_degrees):
    """Direct product of fields F_{q^k}, each the ``field_extension``
    F_q[u]/(m_k)."""
    dim = sum(factor_degrees)
    zero = (0,) * dim
    table = [[zero] * dim for _ in range(dim)]
    unit = list(zero)
    names = []
    off = 0
    for s, k in enumerate(factor_degrees, start=1):
        block = field_extension(F, k).table
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


def _mp_combine(F, f, g, c, mono):
    """f + c * mono * g, functional, for polynomials as {monomial: index}
    dicts over F; a term that cancels is dropped."""
    out = dict(f)
    add, mc = F.add_t, F.mul_t[c]
    for m, gc in g.items():
        m = _mono_mul(m, mono)
        s = add[out.get(m, 0)][mc[gc]]
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mp_normal_form(F, f, basis):
    """The remainder of f on division by the monic polynomials ``basis``."""
    rem = {}
    work = dict(f)
    while work:
        m = _mp_lead(work)
        c = work[m]
        for g in basis:
            lm = _mp_lead(g)
            if _mono_divides(lm, m):
                work = _mp_combine(F, work, g, F.neg_t[c], _mono_div(m, lm))
                break
        else:
            del work[m]
            rem[m] = c
    return rem


def _buchberger(F, gens, nvars):
    one = (0,) * nvars      # the monomial 1

    def monic(g):
        return _mp_combine(F, {}, g, F.inv_t[g[_mp_lead(g)]], one)

    G = [monic(g) for g in ({m: c for m, c in g.items() if c} for g in gens) if g]
    if any(_mp_lead(g) == one for g in G):
        raise ValueError("inconsistent relations: 1 lies in the ideal")
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        i, j = pairs.pop(0)
        lmi, lmj = _mp_lead(G[i]), _mp_lead(G[j])
        lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
        if lcm == _mono_mul(lmi, lmj):
            continue  # coprime leads
        si = _mp_combine(F, {}, G[i], 1, _mono_div(lcm, lmi))
        s = _mp_combine(F, si, G[j], F.neg_t[1], _mono_div(lcm, lmj))
        r = _mp_normal_form(F, s, G)
        if r:
            if _mp_lead(r) == one:
                raise ValueError("inconsistent relations: 1 lies in the ideal")
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append(monic(r))
    return G


def quotient_algebra(F, varnames, relations):
    """F_q[vars]/(relations) as a finite algebra; errors if not finite.
    A relation is a {monomial: index} dict, a monomial the tuple of its
    exponents.

    The standard monomials (no lead monomial divides them) are closed
    under division, so they are listed degree by degree from 1, and the
    element cap fires as soon as q^(monomials listed) passes it.
    """
    nvars = len(varnames)
    G = _buchberger(F, relations, nvars)
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
        out = [0] * dim
        for m, c in _mp_normal_form(F, f, G).items():
            if m not in index:
                raise ConsistencyError("normal form contains a non-standard monomial")
            out[index[m]] = c
        return tuple(out)

    table = [[nf_vector({_mono_mul(a, b): 1}) for b in standard] for a in standard]
    unit = nf_vector({(0,) * nvars: 1})
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

def _reduced_kernel(cols, ops):
    """A reduced echelon basis of {x : sum_i x_i cols[i] = 0}, for
    equal-length tuples ``cols``.

    The kernel is eliminated right to left: with the columns reversed,
    each vector ``exact.kernel`` gives is 1 at its own free column, 0 at
    the other free columns and 0 after its own.  Reversed back, each is
    1 at its first nonzero entry, its free column, and 0 at the others."""
    rows = [[col[t] for col in reversed(cols)] for t in range(len(cols[0]))]
    kern = exact.kernel(rows, len(cols), ops)
    return [x[::-1] for x in reversed(kern)]


def _kernel_over(T, image):
    """The Echelon of {x in T : image(x) = 0} in ambient coordinates, for
    an F_q-linear ``image`` given by its values on ``T.basis``
    (equal-length tuples): ``_reduced_kernel``'s basis of coordinates,
    which ``Echelon.subspace`` carries into ambient coordinates with no
    second reduction."""
    return T.basis.subspace(_reduced_kernel([image(b) for b in T.basis],
                                            T.ambient.field.ops))


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

    The whole algebra S is split by Berlekamp (``berlekamp``), once, on
    ``S.whole()``, the top node of its lattices.  Every other T reads
    its structure off S's: nil(T) = T & nil(S), as an element of T is
    nilpotent in T iff it is in S, and its primitive idempotents are sums
    of S's (``_idempotents_in``).  T is a product of local rings, one per
    primitive idempotent e, so its maximal ideals are the
    M_e = (1 - e)T + nil(T).  Read them through ``T.structure()``, which
    computes this once per subalgebra.
    """
    A = T.ambient
    if T.is_whole():
        nil, prim = berlekamp(T)
    else:
        nil_S, prim_S, _ = A.whole().structure()
        nil = exact.intersection(T.basis, nil_S)
        prim = _idempotents_in(T, prim_S)
    sub = A.field.ops.sub
    maxes = tuple(sorted((A.span(list(nil) + [A.mul(sub(A.unit, 1, e), b) for b in T.basis])
                          for e in prim), key=lambda M: (M.dim, M)))
    return nil, prim, maxes


def berlekamp(T):
    """(nilradical, primitive idempotents) of T on T alone: the nilradical
    is the Frobenius-power ``radical`` of 0, and the Berlekamp subalgebra
    B = {b : b^q = b} is a copy of F_q^m, one factor per primitive
    idempotent.  For b in B and c in F_q, 1 - (b - c)^(q-1) is the
    idempotent where b takes the value c, so splitting 1 by these over a
    basis of B yields the primitive idempotents.  ``subalgebra_structure``
    runs it on the whole algebra only."""
    A = T.ambient
    q, sub = A.field.q, A.field.ops.sub
    nil = radical(T, T.basis.subspace(()))
    prim = [A.unit]
    for b in _kernel_over(T, lambda x: sub(A.power(x, q), 1, x)):
        splits = [sub(A.unit, 1, A.power(sub(b, c, A.unit), q - 1)) for c in range(q)]
        prim = [f for e in prim for f in (A.mul(e, s) for s in splits) if any(f)]
    return nil, tuple(sorted(prim))


def _idempotents_in(T, prim_S):
    """The primitive idempotents of T, from those of the whole algebra,
    e_1 ... e_m, as a sorted tuple.

    x |-> sum x_i e_i embeds F_q^m in S as an algebra, so the x with
    sum x_i e_i in T form a subalgebra of F_q^m: one kernel over the m
    columns e_i mod T.  A subalgebra of F_q^m is the span of the
    indicators of a partition of {1 ... m}, which are its reduced echelon
    basis, and each block's sum of e_i is a primitive idempotent of T.
    Rows that are not 0/1 or do not partition are a consistency error.
    A local S gives (1,) with no kernel."""
    if len(prim_S) == 1:
        return prim_S
    ops = T.ambient.field.ops
    blocks = _reduced_kernel([T.basis.project(e) for e in prim_S], ops)
    if (any(c not in (0, 1) for x in blocks for c in x)
            or [sum(col) for col in zip(*blocks)] != [1] * len(prim_S)):
        raise ConsistencyError("idempotents of a subalgebra do not partition "
                               "the primitive idempotents of S")
    prim = []
    for x in blocks:
        v = [0] * T.ambient.dim
        for c, e in zip(x, prim_S):
            if c:
                v = ops.sub(v, ops.neg(1), e)
        prim.append(tuple(v))
    return tuple(sorted(prim))


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
    """One s per point of the projective space of A/T, A the ambient
    algebra: s is zero on T's pivot columns and 1 at its first nonzero
    free column.  Every T[u] with u outside T is a T[s], as
    T[c*u + t] = T[u] for c != 0 and t in T."""
    A = T.ambient
    free = [j for j in range(A.dim) if j not in T.basis.pivots]
    for point in _points(A.field.q, len(free)):
        s = [0] * A.dim
        for j, c in zip(free, point):
            s[j] = c
        yield tuple(s)


def is_simple_extension(lat):
    """The points s of S/R with R[s] = S, for the lattice [R, S] that
    ``enumerate_subalgebras`` built: S is a simple extension of R iff the
    list is not empty, and every x with R[x] = S is c*s + r for one of
    them, c != 0 and r in R."""
    top = len(lat) - 1
    return [s for s, j in lat.points if j == top]


def enumerate_subalgebras(R, S):
    """The lattice of all subalgebras between R and S.

    ``lattice.closure`` extends every node T by T[s] for each point s of
    the projective space of S/T (``adjunctions``).  Any U in [R, S]
    ends a chain R = U_0 < U_1 < ... with U_(i+1) = U_i[u_i], the
    adjunction of the point of u_i; from any node T < U the same argument
    gives a chain of edges T -> T[s] up to U, so the edges generate the
    order.  ``points`` is the bottom's walk, (s, index of R[s]).  The
    candidate cap bounds the points walked, checked before each node's
    points are walked, whether each T[s] is computed or read.

    The parent-walk rule.  A node T != R was first reached as T = T'[g],
    g a point of S/T'.  ``closure`` pushes T while it walks T' and pops
    it only after that walk is done, so the walk of T' is complete, a
    map s -> T'[s], when T is walked.  T' <= T, so T's pivots include
    those of T', and a point s of S/T (zero on T's pivots, 1 at its
    first nonzero column) is a point of S/T'.  Let V = T'[s], read off
    that map.  As T[s] = T'[g][s] = T'[s][g] = V[g]:
      1. If g lies in V, then T = T'[g] <= V, and V <= T[s] <= V, so
         T[s] = V.  Then V holds T and s, which T does not, so
         dim V > dim T, and g's first nonzero column is a pivot of V;
         when either fails, g is not in V and no residue is taken.
      2. Otherwise T[s] = V[g] = V[r] for r the residue of g mod V,
         scaled to 1 at its first nonzero column, as V[c*g + v] = V[g]
         for c != 0 and v in V.  r is zero on V's pivots, so it is a
         point of S/V, and if V has been walked (V != T, as s is not in
         T; only T's walk is open), T[s] is V's entry for r.
      3. Otherwise T[s] = ``adjoin(T, s)``.
    Each walk maps its points to the one span object ``closure`` keeps
    for each node, and the top node is ``S.whole()``, whose structure
    every other node reads (``subalgebra_structure``).
    """
    check_elements(S.field.q, S.dim, "subalgebra enumeration")
    q, div = S.field.q, S.field.ops.div
    count = 0
    top = S.whole()
    # Spans are keyed by id(): ``closure`` keeps every span handed to it.
    # spans maps each span reached to the one object kept.
    spans = {top.basis: top.basis, R.basis: R.basis}
    walks = {}                  # id(span of T) -> {point s of S/T: span of T[s]}
    origin = {}                 # id(span of T) -> (walk of T', g): T = T'[g]
    points = {}                 # each point met, to the one tuple kept

    def step(T):
        nonlocal count
        count += (q ** (S.dim - T.dim) - 1) // (q - 1)
        check_candidates(count, "subalgebra enumeration")
        walk = walks[id(T.basis)] = {}
        parent_walk, g = origin.get(id(T.basis), (None, None))
        if g is not None:
            lead = next(j for j, c in enumerate(g) if c)
        for s in adjunctions(T):
            s = points.setdefault(s, s)
            U = None
            if g is not None:
                V = parent_walk[s]
                V_walk = walks.get(id(V))
                if V_walk is not None or (len(V) > T.dim and lead in V.pivots):
                    r = V.residue(g)
                    p = next((j for j, c in enumerate(r) if c), None)
                    if p is None:
                        U = V
                    elif V_walk is not None:
                        U = V_walk[tuple(r if r[p] == 1 else div(r, r[p]))]
            if U is None:
                span = adjoin(T, s).basis
                U = spans.setdefault(span, span)
                if U is span:
                    origin[id(U)] = (walk, s)
            walk[s] = U
            yield s, U

    return closure(R, step, lambda span: top if span is top.basis else Subalgebra(S, span))


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
