"""Finite commutative algebras over F_q as structure-constant tables.

An algebra is a dimension, a symmetric d x d table of coordinate
vectors and a unit vector; subalgebras and ideals are echelon bases over
F_q.  Everything an analysis needs -- maximal ideals, conductor, crucial
ideal, seminormalization, t-closure, brute-force subalgebra enumeration
-- lives here; the theorem-level classification sits in classify.py and
uses these as its oracles.

Structure is linear algebra, not an element scan: x |-> x^q is
F_q-linear, so a radical sqrt(I) is the kernel of x |-> x^(q^k) mod I
and the primitive idempotents split off the fixed space of x |-> x^q
(the Berlekamp subalgebra).
"""

import itertools

from . import exact
from .exact import Echelon, prime_factors
from .caps import check_candidates, check_elements
from .errors import ConsistencyError
from .lattice import hasse
from .poly import Poly, poly_gcd


# ---------------------------------------------------------------------------
# Small finite fields F_q, q = p^k, with full lookup tables.

class GFElem:
    __slots__ = ("field", "i")

    def __init__(self, field, i):
        self.field = field
        self.i = i

    def __add__(self, other):
        return GFElem(self.field, self.field.add_t[self.i][other.i])

    def __sub__(self, other):
        return GFElem(self.field, self.field.add_t[self.i][self.field.neg_t[other.i]])

    def __neg__(self):
        return GFElem(self.field, self.field.neg_t[self.i])

    def __mul__(self, other):
        return GFElem(self.field, self.field.mul_t[self.i][other.i])

    def __truediv__(self, other):
        if other.i == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.field.q)
        return GFElem(self.field, self.field.mul_t[self.i][self.field.inv_t[other.i]])

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
    lex-least monic irreducible of degree k.
    """

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.q = p ** k
        self.characteristic = p
        if k == 1:
            self.modpoly = None
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            Fp = small_field(p)
            m = irreducible_over(Fp, k)
            # low coefficients first, without the leading 1
            self.modpoly = [c.i for c in m.cs[:k]]
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
        self.zero = GFElem(self, 0)
        self.one = GFElem(self, 1)

    def from_int(self, n):
        return GFElem(self, n % self.p)

    def element(self, i):
        return GFElem(self, i % self.q)

    def elements(self):
        return [GFElem(self, i) for i in range(self.q)]

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


_small_fields = {}


def small_field(q):
    check_elements(q * q, "F_%d arithmetic tables" % q)
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
# Vectors over F_q are plain tuples of GFElem; subspaces are exact.Echelon.

def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_key(v):
    return tuple(c.i for c in v)


# ---------------------------------------------------------------------------
# Algebras

class FiniteAlgebra:
    """Commutative unital F_q-algebra by structure constants."""

    def __init__(self, field, table, unit, names=None, check=True):
        self.field = field
        self.dim = len(table)
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.unit = tuple(unit)
        self.names = list(names) if names else ["e%d" % i for i in range(self.dim)]
        self.size = field.q ** self.dim
        if check:
            check_elements(self.size, "algebra construction")
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
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.dim))

    def mul(self, u, v):
        F = self.field
        out = [F.zero] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = ui * vj
                row = self.table[i][j]
                for k2, t in enumerate(row):
                    if t:
                        out[k2] = out[k2] + c * t
        return tuple(out)

    def power(self, v, e):
        acc = self.unit
        base = v
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def elements(self, what="element enumeration"):
        check_elements(self.size, what)
        F = self.field
        elems = F.elements()
        return [tuple(t) for t in itertools.product(elems, repeat=self.dim)]

    def element_str(self, v):
        terms = []
        for c, name in zip(v, self.names):
            if not c:
                continue
            cn = repr(c)
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
        powers.append(tuple(r.coeff(t) for t in range(k)))
        r = r * x % m
    return [[powers[i + j] for j in range(k)] for i in range(k)]


def product_algebra(F, factor_degrees):
    """Direct product of fields F_{q^k}, each realized as F_q[W]/(m_k)."""
    dim = sum(factor_degrees)
    zero = (F.zero,) * dim
    table = [[zero] * dim for _ in range(dim)]
    unit = list(zero)
    names = []
    off = 0
    for s, k in enumerate(factor_degrees, start=1):
        block = _power_table(F, irreducible_over(F, k))
        for i in range(k):
            for j in range(k):
                table[off + i][off + j] = zero[:off] + block[i][j] + zero[off + k:]
        unit[off] = F.one
        names += ["e%d" % s] + ["u%d" % s if j == 1 else "u%d^%d" % (s, j)
                                for j in range(1, k)]
        off += k
    return FiniteAlgebra(F, table, unit, names)


def field_algebra(F, defining):
    """F_q[X]/(f) for a monic f over F_q, as an F_q-algebra of dim deg f."""
    dim = defining.degree
    unit = tuple(F.one if t == 0 else F.zero for t in range(dim))
    names = ["1"] + ["x" if i == 1 else "x^%d" % i for i in range(1, dim)]
    return FiniteAlgebra(F, _power_table(F, defining), unit, names)


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
    """F_q[vars]/(relations) as a finite algebra; errors if not finite."""
    nvars = len(varnames)
    G = _buchberger(relations, nvars, F)
    leads = [_mp_lead(g) for g in G]
    bounds = []
    for v in range(nvars):
        pure = [lm[v] for lm in leads
                if all(lm[w] == 0 for w in range(nvars) if w != v) and lm[v] > 0]
        if not pure:
            raise ValueError("quotient is not finite-dimensional "
                             "(no pure power of %s in the ideal)" % varnames[v])
        bounds.append(min(pure))
    standard = []
    for mono in itertools.product(*[range(b) for b in bounds]):
        if not any(_mono_divides(lm, mono) for lm in leads):
            standard.append(mono)
    standard.sort(key=_deglex_key)
    index = {m: i for i, m in enumerate(standard)}
    dim = len(standard)
    check_elements(F.q ** dim, "quotient algebra construction")

    def nf_vector(f):
        r = _mp_normal_form(f, G)
        out = [F.zero] * dim
        for m, c in r.items():
            if m not in index:
                raise ConsistencyError("normal form contains a non-standard monomial")
            out[index[m]] = c
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
    alg.varnames = list(varnames)
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
# Subalgebras and ideals

class Subalgebra:
    """Unital subalgebra of a FiniteAlgebra, as an echelon basis.

    Its nilradical, primitive idempotents and maximal ideals are computed
    on first request (``structure``) and kept, in ambient coordinates.
    """

    def __init__(self, ambient, basis, check=True):
        self.ambient = ambient
        self.basis = Echelon(basis)
        self._structure = None
        if check:
            if not self.member(ambient.unit):
                raise ValueError("subalgebra does not contain 1")
            if not self.is_closed():
                raise ValueError("subalgebra is not closed under multiplication")

    @classmethod
    def from_generators(cls, ambient, gens):
        basis = Echelon([ambient.unit] + list(gens))
        while True:
            prods = list(basis)
            for i in range(len(basis)):
                for j in range(i, len(basis)):
                    prods.append(ambient.mul(basis[i], basis[j]))
            nb = Echelon(prods)
            if len(nb) == len(basis):
                break
            basis = nb
        return cls(ambient, basis, check=False)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def size(self):
        return self.ambient.field.q ** self.dim

    def member(self, v):
        return self.basis.contains(v)

    def is_closed(self):
        """Whether every product of two basis vectors lies in the span."""
        b = self.basis
        return all(self.member(self.ambient.mul(b[i], b[j]))
                   for i in range(len(b)) for j in range(i, len(b)))

    def contains_sub(self, other):
        return all(self.member(b) for b in other.basis)

    def key(self):
        return (self.dim, tuple(vec_key(b) for b in self.basis))

    def elements(self, what="subalgebra element enumeration"):
        check_elements(self.size, what)
        F = self.ambient.field
        return [self.basis.combine(coeffs)
                for coeffs in itertools.product(F.elements(), repeat=self.dim)]

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


def whole_algebra(S):
    return Subalgebra(S, [S.basis_vector(i) for i in range(S.dim)], check=False)


def prime_algebra(S):
    return Subalgebra(S, [S.unit], check=False)


def algebra_on_subspace(A, basis, unit_vec):
    """The subspace as an algebra in its own basis, with unit ``unit_vec``.

    Returns (algebra, lift, project): lift maps local coordinate vectors
    to ambient vectors, project the other way (None if outside).
    """
    basis = Echelon(basis)
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
    alg = FiniteAlgebra(A.field, table, unit, names, check=False)
    return alg, basis.combine, basis.coords


class Ideal:
    """An ideal of a subalgebra, as an echelon basis of ambient
    coordinate vectors."""

    def __init__(self, of, basis):
        self.of = of
        self.basis = Echelon(basis)

    @property
    def dim(self):
        return len(self.basis)

    def member(self, v):
        return self.basis.contains(v)

    def key(self):
        return (self.dim, tuple(vec_key(b) for b in self.basis))

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Ideal(dim %d: %s)" % (
            self.dim, "; ".join(self.of.ambient.element_str(b) for b in self.basis))


def ideal_generated(A, ring_basis, gens):
    """Smallest subspace containing gens and closed under ring_basis-mult."""
    basis = Echelon(gens)
    while True:
        prods = list(basis)
        for b in basis:
            for r in ring_basis:
                prods.append(A.mul(b, r))
        nb = Echelon(prods)
        if len(nb) == len(basis):
            return nb
        basis = nb


# ---------------------------------------------------------------------------
# Structure: radicals, primitive idempotents, maximal ideals, conductors,
# each the kernel of an F_q-linear map on a subalgebra

def _kernel_over(T, image):
    """Ambient basis of {x in T : image(x) = 0} for an F_q-linear
    ``image``, given by its values on ``T.basis`` (equal-length tuples)."""
    cols = [image(b) for b in T.basis]
    rows = [[col[t] for col in cols] for t in range(len(cols[0]))]
    return [T.basis.combine(x)
            for x in exact.kernel(rows, T.dim, T.ambient.field.one)]


def radical(T, I):
    """sqrt(I) in T, for an ideal I of T given by an ambient basis (``()``
    for the zero ideal), as an echelon basis in ambient coordinates.

    x |-> x^e is F_q-linear for e = q^k, and a nilpotent of T/I has
    index at most dim T, so with q^k >= dim T the radical is the kernel
    of x |-> x^e mod I.
    """
    A = T.ambient
    e = A.field.q
    while e < T.dim:
        e *= A.field.q
    I = Echelon(I)
    return Echelon(_kernel_over(T, lambda b: I.project(A.power(b, e))))


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
    F = A.field
    nil = radical(T, ())
    prim = [A.unit]
    for b in _kernel_over(T, lambda x: vsub(A.power(x, F.q), x)):
        splits = [vsub(A.unit, A.power(vsub(b, tuple(c * u for u in A.unit)), F.q - 1))
                  for c in F.elements()]
        prim = [f for e in prim for f in (A.mul(e, s) for s in splits) if any(f)]
    prim = tuple(sorted(prim, key=vec_key))
    maxes = tuple(sorted((Ideal(T, list(nil) + [A.mul(vsub(A.unit, e), b) for b in T.basis])
                          for e in prim), key=Ideal.key))
    return nil, prim, maxes


def nilradical(T):
    """Echelon basis of the nilpotents of T (its Jacobson radical)."""
    return T.structure()[0]


def primitive_idempotents(T):
    """The minimal nonzero idempotents of T, as a sorted tuple."""
    return T.structure()[1]


def maximal_ideals(T):
    """The maximal ideals of T, as a tuple sorted by key."""
    return T.structure()[2]


def conductor(lo, hi):
    """(lo : hi) = {a in hi : a*hi is contained in lo}, the largest ideal
    of hi inside lo, for subalgebras of one algebra: the kernel of
    a |-> (a*h_j mod lo)_j over the basis h of hi."""
    A = hi.ambient

    def image(a):
        return tuple(c for hj in hi.basis for c in lo.basis.project(A.mul(a, hj)))

    cond = Ideal(hi, _kernel_over(hi, image))
    for b in cond.basis:
        if not lo.member(b):
            raise ConsistencyError("conductor is not contained in R")
    return cond


def msupp(R, T, cond):
    """MSupp(T/R): maximal ideals of R containing the conductor
    ``cond`` = (R:T).

    Cross-checked against the direct localization route: M is in the
    support iff the primitive idempotent of R attached to M moves some
    element of T outside R.
    """
    A = R.ambient
    maxes = maximal_ideals(R)
    via_conductor = [M for M in maxes
                     if all(M.member(b) for b in cond.basis)]
    direct = []
    for e in primitive_idempotents(R):
        if any(not R.member(A.mul(e, b)) for b in T.basis):
            for M in maxes:
                if not M.member(e):
                    direct.append(M)
                    break
    if sorted(m.key() for m in via_conductor) != sorted(m.key() for m in direct):
        raise ConsistencyError("support by conductor disagrees with localization")
    return via_conductor


def crucial_ideal(R, cond, support):
    """The crucial maximal ideal of R < T, or None: sqrt(R:T) when it is
    maximal.  ``cond`` and ``support`` are (R:T) and MSupp(T/R), as
    ``conductor`` and ``msupp`` give them; the radical is checked
    against the support."""
    rad = Ideal(R, radical(R, cond.basis))
    hit = [M for M in maximal_ideals(R) if M.key() == rad.key()]
    if hit:
        if len(support) != 1 or support[0].key() != rad.key():
            raise ConsistencyError("crucial ideal disagrees with the support")
        return hit[0]
    if len(support) == 1:
        raise ConsistencyError("one-element support but sqrt(R:S) not maximal")
    return None


def localize(R, T, M):
    """Localization at M in MSupp(T/R) by idempotent splitting.

    Returns (T_M, R_M) where T_M is the algebra e*T with unit e, for the
    primitive idempotent e of R outside M.
    """
    A = R.ambient
    e = next((e for e in primitive_idempotents(R) if not M.member(e)), None)
    if e is None:
        raise ConsistencyError("no primitive idempotent outside M")
    TM, _, tproject = algebra_on_subspace(A, [A.mul(e, b) for b in T.basis], e)
    rbasis = [tproject(A.mul(e, b)) for b in R.basis]
    RM = Subalgebra.from_generators(TM, [v for v in rbasis if v is not None])
    return TM, RM


# ---------------------------------------------------------------------------
# Closure operators

def seminormalize(R, S):
    """Smallest T >= R with T <= S seminormal: adjoin every b with
    b^2, b^3 in T, to a fixpoint."""
    T = R
    elems = S.elements("seminormalization")
    while True:
        adjoin = []
        for b in elems:
            if T.member(b):
                continue
            b2 = S.mul(b, b)
            if T.member(b2) and T.member(S.mul(b2, b)):
                adjoin.append(b)
        if not adjoin:
            return T
        T = Subalgebra.from_generators(S, list(T.basis) + adjoin)


def t_close(R, S):
    """Smallest T >= R with T <= S t-closed: adjoin every b admitting
    r in T with b^2 - r*b in T and b^3 - r*b^2 in T, to a fixpoint."""
    T = R
    elems = S.elements("t-closure")
    while True:
        adjoin = []
        telems = T.elements("t-closure witness scan")
        for b in elems:
            if T.member(b):
                continue
            b2 = S.mul(b, b)
            b3 = S.mul(b2, b)
            for r in telems:
                if T.member(vsub(b2, S.mul(r, b))) and T.member(vsub(b3, S.mul(r, b2))):
                    adjoin.append(b)
                    break
        if not adjoin:
            return T
        T = Subalgebra.from_generators(S, list(T.basis) + adjoin)


def is_simple_extension(R, S):
    """A generator x with S = R[x], or None."""
    if R.is_whole():
        return None
    for b in S.elements("simple-generator search"):
        if R.member(b):
            continue
        T = Subalgebra.from_generators(S, list(R.basis) + [b])
        if T.is_whole():
            return b
    return None


# ---------------------------------------------------------------------------
# Brute-force subalgebra enumeration

def _gaussian_binomial(c, k, q):
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (c - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_subalgebras(R, S):
    """The lattice of all subalgebras between R and S.

    Candidates are the echelon bases of the subspaces of S/R (lifted back
    and filtered by multiplicative closure), so the count is a sum of
    Gaussian binomials; the candidate cap guards it.
    """
    F = S.field
    q = F.q
    c = S.dim - R.dim
    total = sum(_gaussian_binomial(c, k, q) for k in range(c + 1))
    check_candidates(total, "subalgebra enumeration")
    # S/R has coordinates on the non-pivot columns of R's echelon basis
    free = [j for j in range(S.dim) if j not in R.basis.pivots]
    found = []
    for k in range(c + 1):
        for piv in itertools.combinations(range(c), k):
            free_pos = []
            for r_i, pc in enumerate(piv):
                for col in range(pc + 1, c):
                    if col not in piv:
                        free_pos.append((r_i, col))
            for fill in itertools.product(F.elements(), repeat=len(free_pos)):
                rows = [[F.zero] * S.dim for _ in range(k)]
                for r_i, pc in enumerate(piv):
                    rows[r_i][free[pc]] = F.one
                for (r_i, col), val in zip(free_pos, fill):
                    rows[r_i][free[col]] = val
                T = Subalgebra(S, list(R.basis) + rows, check=False)
                if T.is_closed():
                    found.append(T)
    found.sort(key=lambda T: T.key())
    return hasse(found, Subalgebra.contains_sub)


# ---------------------------------------------------------------------------
# Minimal-extension types (inert / decomposed / ramified)

def classify_minimal_type(R, S, lattice=None):
    """Type of a minimal extension, or 'not-minimal' (verified by
    enumeration)."""
    if lattice is None:
        lattice = enumerate_subalgebras(R, S)
    if len(lattice) != 2:
        return "not-minimal"
    return _minimal_type_of_pair(R, whole_algebra(S))


def _minimal_type_of_pair(lo, hi):
    """Type of a known-minimal lo < hi, subalgebras of one algebra, via
    the conductor and Max(hi)."""
    A = hi.ambient
    M = conductor(lo, hi)
    if not any(N.key() == M.key() for N in maximal_ideals(lo)):
        raise ConsistencyError("conductor of a minimal extension is not maximal in R")
    over = [N for N in maximal_ideals(hi) if all(N.member(b) for b in M.basis)]
    qdim_RM = lo.dim - M.dim
    if len(over) == 2:
        for N in over:
            if hi.dim - N.dim != qdim_RM:
                raise ConsistencyError("decomposed residue map is not an isomorphism")
        return "decomposed"
    if len(over) != 1:
        raise ConsistencyError("minimal extension with |V(M)| not in {1, 2}")
    N = over[0]
    if N.key() == M.key():
        if hi.dim - N.dim <= qdim_RM:
            raise ConsistencyError("inert case without residue field growth")
        return "inert"
    # ramified: N^2 <= M < N and [hi/M : lo/M] = 2
    n2 = ideal_generated(A, hi.basis, [A.mul(a, b) for a in N.basis for b in N.basis])
    if not all(M.member(v) for v in n2):
        raise ConsistencyError("ramified case: N^2 not inside M")
    if hi.dim - N.dim != qdim_RM:
        raise ConsistencyError("ramified residue map is not an isomorphism")
    if (hi.dim - M.dim) != 2 * qdim_RM:
        raise ConsistencyError("ramified case: [S/M : R/M] != 2")
    return "ramified"
