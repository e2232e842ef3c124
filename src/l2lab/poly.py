"""Dense univariate polynomial arithmetic and exact factorization.

Polynomials are immutable coefficient tuples, lowest degree first, over a
coefficient field described by a small domain object (``QQ``, a finite
field ``small_field(q)``, or a number field).  The factorization entry points are:

* ``factor_mod_p``        -- Cantor-Zassenhaus over a prime field,
* ``factor_over_Q``       -- Berlekamp-Zassenhaus (squarefree decomposition,
                             modular factorization, Hensel lifting, subset
                             recombination) over the rationals,
* ``factor_over_number_field`` -- Trager's norm method over Q[x]/(f).

All modular work runs in one layer on plain integer coefficient lists,
lowest degree first (entries in [0, p) mod p): squarefree decomposition,
distinct-degree factoring, equal-degree splitting, the Hensel Bezout
pair, Hensel lifting and recombination.  ``factor_mod_p`` is a thin
facade over it for ``Poly`` inputs over ``small_field(p)``; ``factor_over_Q``
calls the layer directly and ranks its candidate primes by
distinct-degree counts, splitting only the prime it keeps.

Every returned factorization is re-multiplied and compared with its input
before being handed back; a mismatch raises ``ConsistencyError``.  The
modular factors of the chosen prime, and their Hensel lifts, are checked
the same way.
"""

import itertools
import math
import random
from fractions import Fraction

from .errors import ConsistencyError
from .exact import next_prime


class RationalField:
    """Domain descriptor for Q."""

    characteristic = 0
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
        inv = self.dom.one / other.lc
        d = other.degree
        while len(r) - 1 >= d and any(r):
            while r and not r[-1]:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            c = r[-1] * inv
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

    def shift(self, c):
        """Taylor shift: the polynomial self(X + c)."""
        dom = self.dom
        acc = Poly(dom, [])
        xpc = Poly(dom, [c, dom.one])
        for a in reversed(self.cs):
            acc = acc * xpc + Poly.const(dom, a)
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


def is_separable(f):
    """True iff gcd(f, f') = 1."""
    if f.is_zero:
        raise ValueError("separability of the zero polynomial is undefined")
    if f.degree == 0:
        return True
    g = poly_gcd(f, f.derivative())
    return g.degree == 0


def resultant_monic(a, b):
    """prod of b over the roots of a, for monic a (counting multiplicity).

    Equals Res(a, b) since a is monic.  Computed by the Euclidean
    recurrence, entirely in the coefficient field.
    """
    dom = a.dom
    if a.degree == 0:
        return dom.one
    r = b % a
    if r.is_zero:
        return dom.zero
    if r.degree == 0:
        return r.cs[0] ** a.degree
    c = r.lc
    sign = dom.one if (a.degree * r.degree) % 2 == 0 else -dom.one
    return (c ** a.degree) * sign * resultant_monic(r.monic(), a)


def interpolate(dom, xs, ys):
    """The unique polynomial of degree < len(xs) through the given points.

    Newton divided differences; all arithmetic exact in the domain.
    """
    n = len(xs)
    dd = list(ys)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    acc = Poly(dom, [])
    basis = Poly.const(dom, dom.one)
    for k in range(n):
        acc = acc + basis.mul_scalar(dd[k])
        basis = basis * Poly(dom, [-xs[k], dom.one])
    return acc


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


# ---------------------------------------------------------------------------
# Integer coefficient lists
#
# The modular factoring, Hensel lifting and recombination code runs on
# plain integer coefficient lists, lowest degree first, with no trailing
# zeros; conversions to and from Poly happen only at the boundaries.

def _ztrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zadd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _ztrim(out)


def _zsub(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _ztrim(out)


def _zmul(a, b):
    if not a or not b:
        return []
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, ai in enumerate(a):
        if ai:
            out[i:i + nb] = [o + ai * bj for o, bj in zip(out[i:i + nb], b)]
    return _ztrim(out)


def _zmod(a, m):
    return _ztrim([c % m for c in a])


# ---------------------------------------------------------------------------
# Cantor-Zassenhaus over F_p, on integer lists with entries in [0, p)
#
# Squarefree decomposition with p-th roots, distinct-degree factoring and
# equal-degree splitting (von zur Gathen & Gerhard, Modern Computer
# Algebra, ch. 14).  The helpers accept any integer entries and return
# entries in [0, p); a product is left unreduced until the remainder
# that follows it, which reduces only what it reads or returns.

def _pdivmod(a, b, p):
    """Quotient and remainder of a by nonzero b over F_p."""
    db = len(b) - 1
    if len(a) <= db:
        return [], _zmod(a, p)
    inv = pow(b[-1], -1, p)
    nb = [-c * inv % p for c in b[:db]]
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] % p
        if c:
            q[k] = c
            r[k:k + db] = [x + c * y for x, y in zip(r[k:k + db], nb)]
    return _zmod([c * inv for c in q], p), _zmod(r[:db], p)


def _prem(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pmonic(a, p):
    inv = pow(a[-1], -1, p)
    return a if inv == 1 else [c * inv % p for c in a]


def _pgcd(a, b, p):
    """Monic gcd over F_p; [] when both are zero."""
    while b:
        a, b = b, _prem(a, b, p)
    return _pmonic(a, p) if a else a


def _ppowmod(a, e, m, p):
    """a**e reduced modulo m over F_p, by binary exponentiation."""
    result = _prem([1], m, p)
    base = _prem(a, m, p)
    while e:
        if e & 1:
            result = _prem(_zmul(result, base), m, p)
        e >>= 1
        if e:
            base = _prem(_zmul(base, base), m, p)
    return result


def _pderiv(a, p):
    return _zmod([i * a[i] for i in range(1, len(a))], p)


def _pbezout(a, b, p):
    """s, t with s*a + t*b = 1 over F_p, for coprime a, b."""
    r0, r1 = a, b
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zmod(_zsub(s0, _zmul(q, s1)), p)
        t0, t1 = t1, _zmod(_zsub(t0, _zmul(q, t1)), p)
    if len(r0) != 1:
        raise ValueError("polynomials are not coprime")
    inv = pow(r0[0], -1, p)
    return _zmod([c * inv for c in s0], p), _zmod([c * inv for c in t0], p)


def _psquarefree(f, p):
    """Squarefree decomposition of monic f: pairwise coprime [(u, m)].

    The loop finds the parts whose multiplicity p does not divide.  What
    is left is c = g(X^p) = g(X)^p, since Frobenius fixes F_p; g takes
    every p-th coefficient of c, and its parts count p times.
    """
    out = []
    c = _pgcd(f, _pderiv(f, p), p)
    w = _pdivmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = _pgcd(w, c, p)
        z = _pdivmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = _pdivmod(c, y, p)[0]
        i += 1
    if len(c) > 1:
        out.extend((u, m * p) for u, m in _psquarefree(c[::p], p))
    return out


def _pddf(u, p):
    """Distinct-degree factoring of monic squarefree u: [(g_d, d)].

    g_d is the product of the irreducible factors of degree d.
    """
    out = []
    h = [0, 1]
    v = u
    d = 0
    while len(v) > 1:
        d += 1
        if 2 * d > len(v) - 1:
            out.append((v, len(v) - 1))
            break
        h = _ppowmod(h, p, v, p)
        g = _pgcd(v, _zmod(_zsub(h, [0, 1]), p), p)
        if len(g) > 1:
            out.append((g, d))
            v = _pdivmod(v, g, p)[0]
            h = _prem(h, v, p)
    return out


def _pedf(g, d, p, rng):
    """Split monic g, a product of distinct irreducibles all of degree d."""
    n = len(g) - 1
    if n == d:
        return [g]
    while True:
        a = _ztrim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        t = _pgcd(g, a, p)
        if 1 < len(t) < len(g):
            break
        if p > 2:
            w = _ppowmod(a, (p ** d - 1) // 2, g, p)
            t = _pgcd(g, _zmod(_zsub(w, [1]), p), p)
        else:
            # the trace a + a^2 + a^4 + ... + a^(2^(d-1)) mod g
            w = _prem(a, g, p)
            tr = w
            for _ in range(d - 1):
                w = _prem(_zmul(w, w), g, p)
                tr = _zadd(tr, w)
            t = _pgcd(g, _zmod(tr, p), p)
        if 1 < len(t) < len(g):
            break
    return _pedf(t, d, p, rng) + _pedf(_pdivmod(g, t, p)[0], d, p, rng)


def _factor_count(ddf):
    """The number of irreducible factors a distinct-degree factoring shows."""
    return sum((len(g) - 1) // d for g, d in ddf)


def _psplit(ddf, p):
    """The irreducible factors of a distinct-degree factoring, sorted."""
    rng = random.Random(0x5EED + p)
    return sorted((h for g, d in ddf for h in _pedf(g, d, p, rng)),
                  key=lambda h: (len(h), h))


def factor_mod_p(f):
    """Complete factorization over a prime field ``small_field(p)``."""
    dom = f.dom
    if dom.k != 1:
        raise ValueError("factor_mod_p needs a prime field, not %r" % dom)
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return Factorization(dom, f.cs[0], []).verify(f)
    p = dom.p
    monic = _pmonic([c.i for c in f.cs], p)
    parts = [(Poly.from_ints(dom, h), m)
             for u, m in _psquarefree(monic, p)
             for h in _psplit(_pddf(u, p), p)]
    return Factorization(dom, f.lc, parts).verify(f)


# ---------------------------------------------------------------------------
# Berlekamp-Zassenhaus over Q

def _zdivmod_monic(a, b):
    """Quotient and remainder by monic b over Z."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        q[k] = c
        if c:
            r[k:k + db] = [x - c * y for x, y in zip(r[k:k + db], b)]
    return _ztrim(q), _ztrim(r[:db])


def _zsym(a, m):
    """Symmetric representative of a mod m, coefficients in (-m/2, m/2]."""
    half = m // 2
    out = []
    for c in a:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _ztrim(out)


def _hensel_pair(f, g, h, s, t, p, K):
    """Lift f = g*h from mod p to mod p^K (g, h monic, s*g + t*h = 1 mod p).

    Linear lifting: one Bezout pair serves every step.
    """
    m = p
    while m < p ** K:
        # e = (f - g*h) / m  (exact over Z), then everything mod p
        diff = _zsub(f, _zmul(g, h))
        e = _zmod([c // m for c in diff], p)
        q, w = _pdivmod(_zmul(s, e), _zmod(h, p), p)
        u = _zmod(_zadd(_zmul(t, e), _zmul(q, g)), p)
        g = _zmod(_zadd(g, [c * m for c in u]), m * p)
        h = _zmod(_zadd(h, [c * m for c in w]), m * p)
        m *= p
    return g, h


def _hensel_multi(f, gs, p, K):
    """Lift monic f = prod(gs) from mod p to mod p^K, recursively by halves."""
    if len(gs) == 1:
        return [_zmod(f, p ** K)]
    mid = len(gs) // 2
    g = [1]
    for a in gs[:mid]:
        g = _zmod(_zmul(g, a), p)
    h = [1]
    for a in gs[mid:]:
        h = _zmod(_zmul(h, a), p)
    s, t = _pbezout(g, h, p)
    G, H = _hensel_pair(_zmod(f, p ** K), g, h, s, t, p, K)
    return _hensel_multi(G, gs[:mid], p, K) + _hensel_multi(H, gs[mid:], p, K)


_BZ_PRIME_TRIES = 8


def _squarefree_primes(G):
    """(p, G mod p) for the primes p, in increasing order, where monic G
    stays squarefree mod p."""
    p = 1
    while True:
        p = next_prime(p)
        gp = _zmod(G, p)
        if len(_pgcd(gp, _pderiv(gp, p), p)) == 1:
            yield p, gp


def _factor_squarefree_monic_int(G):
    """Irreducible monic integer factors of a monic squarefree G in Z[X]."""
    n = len(G) - 1
    if n <= 1:
        return [G]
    # Scan small good primes and keep the one giving the fewest modular
    # factors: the subset search below is exponential in that count.
    # Distinct-degree factoring alone gives the count; only the chosen
    # prime is split into irreducibles.
    best = None
    for p, gp in itertools.islice(_squarefree_primes(G), _BZ_PRIME_TRIES):
        ddf = _pddf(gp, p)
        count = _factor_count(ddf)
        if best is None or count < best[0]:
            best = (count, p, ddf)
        if count == 1:
            break
    count, p, ddf = best
    if count == 1:
        return [G]
    modfactors = _psplit(ddf, p)
    check = [1]
    for g in modfactors:
        check = _zmod(_zmul(check, g), p)
    if check != _zmod(G, p):
        raise ConsistencyError("modular factors do not reproduce the input mod %d" % p)
    # Mignotte bound: coefficients of any monic divisor of G are below
    # 2^(n-1) * ||G||_2; lift until p^K exceeds twice that.
    norm2 = math.isqrt(sum(c * c for c in G)) + 1
    bound = 2 * (2 ** (n - 1)) * norm2 + 1
    K = 1
    while p ** K <= bound:
        K += 1
    pK = p ** K
    lifted = _hensel_multi(_zmod(G, pK), modfactors, p, K)
    check = [1]
    for g in lifted:
        check = _zmod(_zmul(check, g), pK)
    if check != _zmod(G, pK):
        raise ConsistencyError("Hensel lifting failed to reproduce the input")
    return _recombine(G, lifted, pK)


def _recombine(G, lifted, pK):
    """Zassenhaus subset search over the lifted modular factors."""
    out = []
    live = list(range(len(lifted)))
    s = 1
    tc = G[0]
    while 2 * s <= len(live):
        found = False
        for combo in itertools.combinations(live, s):
            cand = [1]
            for i in combo:
                cand = _zmod(_zmul(cand, lifted[i]), pK)
            cand = _zsym(cand, pK)
            if tc != 0 and cand[0] != 0 and tc % cand[0] != 0:
                continue
            q, r = _zdivmod_monic(G, cand)
            if not r:
                out.append(cand)
                G = q
                tc = G[0] if G else 0
                live = [i for i in live if i not in combo]
                found = True
                break
        if not found:
            s += 1
    if len(G) - 1 > 0:
        out.append(G)
    return out


def _yun_squarefree_Q(f):
    """Yun's squarefree decomposition of a monic f over Q: [(g, mult)]."""
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f.exact_div(a)
    c = df.exact_div(a)
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b.exact_div(g)
        c = d.exact_div(g)
        d = c - b.derivative()
        i += 1
    return out


def factor_over_Q(f):
    """Complete factorization into monic irreducibles over Q, times a unit."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.dom is not QQ:
        raise ValueError("factor_over_Q requires rational coefficients")
    if f.degree == 0:
        return Factorization(QQ, f.cs[0], []).verify(f)
    unit = f.lc
    monic = f.monic()
    factors = []
    for g, mult in _yun_squarefree_Q(monic):
        # Clear denominators while keeping the polynomial monic:
        # substitute X -> X/d and rescale, factor over Z, undo.
        m = g.degree
        d = 1
        for c in g.cs:
            d = d * c.denominator // math.gcd(d, c.denominator)
        Gz = [int(g.cs[i] * d ** (m - i)) for i in range(m + 1)]
        for H in _factor_squarefree_monic_int(Gz):
            k = len(H) - 1
            back = Poly(QQ, [Fraction(H[i] * d ** i, d ** k) for i in range(k + 1)])
            factors.append((back, mult))
    return Factorization(QQ, unit, factors).verify(f)


# ---------------------------------------------------------------------------
# Trager's method over a number field L = Q[x]/(fL)

def _norm_with_shift(f, L, s):
    """Res_y(fL(y), f(X - s*y)) in Q[X], by evaluation and interpolation.

    ``f`` is monic over L.  The result is the norm of f(X - s*x), monic
    of degree deg(fL) * deg(f).
    """
    fL = L.defining
    n = fL.degree
    m = f.degree
    D = n * m
    coeff_reps = [Poly(QQ, c.coords) for c in f.cs]
    xs = []
    ys = []
    c = 0
    while len(xs) <= D:
        for point in ([Fraction(0)] if c == 0 else [Fraction(c), Fraction(-c)]):
            if len(xs) > D:
                break
            # G(y) = sum_i A_i(y) * (point - s*y)^i
            base = Poly(QQ, [point, Fraction(-s)])
            acc = Poly(QQ, [])
            power = Poly.const(QQ, Fraction(1))
            for rep in coeff_reps:
                acc = acc + power * rep
                power = power * base
            xs.append(point)
            ys.append(resultant_monic(fL, acc))
        c += 1
    N = interpolate(QQ, xs, ys)
    if N.degree != D or N.lc != 1:
        raise ConsistencyError("norm polynomial has wrong shape")
    return N


def factor_over_number_field(f, L):
    """Factor a squarefree f in L[X] into monic irreducibles over L."""
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
        return Factorization(L, unit, facs).verify(f)
    s = 0
    while True:
        N = _norm_with_shift(fm, L, s)
        if poly_gcd(N, N.derivative()).degree == 0:
            break
        s += 1
    nf = factor_over_Q(N)
    sx = L.gen().scale(Fraction(s)) if s else L.zero
    out = []
    for Ni, _ in nf.factors:
        lifted = Ni.map_coeffs(L, L.from_rational)
        shifted = lifted.shift(sx)
        h = poly_gcd(fm, shifted)
        if h.degree > 0:
            out.append((h.monic(), 1))
    fac = Factorization(L, unit, out)
    fac.verify(f)
    return fac
