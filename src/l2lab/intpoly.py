"""The integer-list kernel of ``poly``'s factoring.

Every modular step of ``factor_mod_p``, ``factor_over_Q`` and
``factor_over_number_field`` runs here, on plain integer coefficient
lists, lowest degree first (entries in [0, p) mod p): squarefree
decomposition, distinct-degree factoring, equal-degree splitting, the
Hensel Bezout pair, Hensel lifting and recombination, Trager's norm and
the modular gcds over L.  The entry points stay in ``poly`` and import
this module on their first call, so a process that never factors never
compiles it.

``factor_over_Q`` ranks its candidate primes by distinct-degree counts,
splitting only the prime it keeps.  Hensel
lifting squares the modulus at each step, lifting the Bezout pair with
the factors.  The subset search adds up the lifted factors'
second-highest coefficients, and multiplies out a subset only when that
trace and the product of constant terms fit a true divisor's bounds; its
trial division stops once a quotient coefficient passes the Mignotte
bound, which no exact quotient can.  A monic integer polynomial that is
squarefree modulo a prime is squarefree over Q; that certificate spares
the exact gcd over Q in Trager's shift search and Yun's decomposition in
``factor_over_Q``, which run only when no prime certifies.  Factoring
L's own defining polynomial, the shift search starts at 2: the norms of
shifts 0 and 1 have repeated roots.

Trager's gcd of f and each norm factor N_i(X + s*x) over L runs in
(F_p[y]/(fL mod p))[X] on the same int lists, for primes where fL stays
squarefree; N_i(X + s*y) is formed by Horner modulo f, so no Taylor
shift over L is made.  The images are combined by CRT and rational
reconstruction.  A result is accepted once there are as many nonconstant
monic factors as the norm has irreducible factors over Q and they
multiply back to f: by Trager's theorem that many factors of f over L
are its irreducible ones, so no trial division is needed.

The modular factors of the chosen prime, and their Hensel lifts, are
re-multiplied and compared with their input, and every division in the
norm's Newton identities must be exact; a mismatch raises
``ConsistencyError``.
"""

import itertools
import math
import random
from fractions import Fraction

from .errors import ConsistencyError
from .exact import next_prime
from .poly import QQ, Poly, poly_gcd


# ---------------------------------------------------------------------------
# Integer coefficient lists
#
# The modular factoring, Hensel lifting and recombination code runs on
# plain integer coefficient lists, lowest degree first, with no trailing
# zeros; conversions to and from Poly happen only at the boundaries.

def _ztrim(a):
    while a and not a[-1]:
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


def _psquarefree_image(a, p):
    """gcd(a, a') = 1 over F_p, for a with a nonzero leading coefficient."""
    return len(_pgcd(a, _pderiv(a, p), p)) == 1


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




# ---------------------------------------------------------------------------
# Berlekamp-Zassenhaus over Q

def _zdivmod_monic(a, b, bound=None):
    """Quotient and remainder by monic b over Z; None as soon as a
    quotient coefficient exceeds ``bound`` in absolute value."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if bound is not None and abs(c) > bound:
            return None
        q[k] = c
        if c:
            r[k:k + db] = [x - c * y for x, y in zip(r[k:k + db], b)]
    return _ztrim(q), _ztrim(r[:db])


def _mignotte_bound(G):
    """2^(n-1) * ||G||_2 rounded up, for G of degree n: no coefficient of
    a monic proper divisor of G exceeds it (Mignotte)."""
    return 2 ** max(len(G) - 2, 0) * (math.isqrt(sum(c * c for c in G)) + 1)


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
    """Lift f = g*h from mod p to mod p^K (g, h monic, s*g + t*h = 1 mod p,
    deg s < deg h, deg t < deg g).

    Quadratic lifting (von zur Gathen & Gerhard, Modern Computer Algebra,
    Alg. 15.10): g, h and the Bezout pair s, t are lifted together, and
    the modulus squares at each step, capped at p^K.  A step from m to M
    with M | m^2 is sound, since its congruences hold mod m^2.  Monic
    factors coprime mod p have unique lifts mod p^K (ibid., Thm. 15.14),
    so the result is the one any lifting gives.  The division by monic h
    is ``_pdivmod`` over Z/M, which needs only h's leading coefficient
    to be a unit.
    """
    pK = p ** K
    m = p
    while m < pK:
        m = min(m * m, pK)
        e = _zmod(_zsub(f, _zmul(g, h)), m)
        q, r = _pdivmod(_zmul(s, e), h, m)
        g = _zmod(_zadd(g, _zadd(_zmul(t, e), _zmul(q, g))), m)
        h = _zmod(_zadd(h, r), m)
        if m < pK:
            b = _zmod(_zsub(_zadd(_zmul(s, g), _zmul(t, h)), [1]), m)
            c, d = _pdivmod(_zmul(s, b), h, m)
            s = _zmod(_zsub(s, d), m)
            t = _zmod(_zsub(t, _zadd(_zmul(t, b), _zmul(c, g))), m)
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
        if _psquarefree_image(gp, p):
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
    # lift until p^K exceeds twice the Mignotte bound
    bound = 2 * _mignotte_bound(G) + 1
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
    """Zassenhaus subset search over the lifted modular factors.

    G is monic of degree n, and pK > 2^n * ||G||_2, so a monic divisor
    of G is the symmetric residue mod pK of the product of its modular
    factors.  Two tests on a subset of total degree m run before its
    factors are multiplied; neither rejects a true divisor F:

    * trace: the coefficient of X^(m-1) in a product of monic factors is
      the sum of theirs, so its symmetric residue t is computed from the
      factors' second-highest coefficients.  F's roots lie within the
      Cauchy bound rho = 1 + max |G_i| (i < n), so |F_(m-1)| <= m*rho.
      A subset leaves at least one factor out, so m <= n - 1.  As
      ||G||_2 >= sqrt(1 + max G_i^2) >= rho / sqrt(2), and
      2^(n-3/2) >= n - 1 for n >= 2,
      2*m*rho <= 2*(n-1)*rho <= 2^(n-1/2) * rho <= 2^n * ||G||_2 < pK.
      So F_(m-1) is its own symmetric residue, t, and a subset with
      |t| > m*rho is no divisor (Abbott, Shoup & Zimmermann, ISSAC 2000).
    * constant term: F(0) divides G(0); when G(0) != 0, F(0) is nonzero
      too.  F(0) is the symmetric residue of the factors' product of
      constant terms.

    Exact division certifies every subset that passes.  It stops as soon
    as a quotient coefficient exceeds the Mignotte bound of G: long
    division finds the quotient's coefficients from the top, and an exact
    quotient is itself a monic proper divisor of G, bound by it too.
    """
    n = len(G) - 1
    rho = 1 + max(abs(c) for c in G[:n])
    bound = _mignotte_bound(G)
    half = pK // 2
    degree = [len(g) - 1 for g in lifted]
    second = [g[-2] for g in lifted]
    const = [g[0] for g in lifted]
    out = []
    live = list(range(len(lifted)))
    s = 1
    tc = G[0]
    while 2 * s <= len(live):
        found = False
        for combo in itertools.combinations(live, s):
            t = sum(second[i] for i in combo) % pK
            # min(t, pK - t) is the absolute value of t's symmetric residue
            if min(t, pK - t) > rho * sum(degree[i] for i in combo):
                continue
            if tc:
                c = 1
                for i in combo:
                    c = c * const[i] % pK
                if c > half:
                    c -= pK
                if c == 0 or tc % c:
                    continue
            cand = [1]
            for i in combo:
                cand = _zmod(_zmul(cand, lifted[i]), pK)
            cand = _zsym(cand, pK)
            division = _zdivmod_monic(G, cand, bound)
            if division and not division[1]:
                out.append(cand)
                G = division[0]
                bound = _mignotte_bound(G)
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


def _denominator_lcm(cs):
    d = 1
    for c in cs:
        d = d * c.denominator // math.gcd(d, c.denominator)
    return d


def _scale_monic(g, d):
    """d^m * g(X/d) as an integer list, for monic g in Q[X] of degree m
    whose denominators all divide d: monic, with roots d times g's."""
    m = g.degree
    return [int(g.cs[i] * d ** (m - i)) for i in range(m + 1)]


_SQUAREFREE_PRIME_TRIES = 5


def _certified_squarefree(g):
    """True if monic g in Q[X], scaled to the monic integer polynomial
    G(X) = d^m g(X/d), is squarefree modulo one of the first few primes
    above 2^16 that do not divide d.

    Reduction mod p keeps a monic G's degree, so a squarefree image means
    p does not divide the discriminant, which is then nonzero: g is
    squarefree over Q.  False proves nothing; an exact gcd must decide.
    Small primes often divide the discriminant of a Trager norm (on the
    benchmark fields the first good prime ranges from 5 to 23), hence the
    large ones.
    """
    d = _denominator_lcm(g.cs)
    G = _scale_monic(g, d)
    p = 1 << 16
    tried = 0
    while tried < _SQUAREFREE_PRIME_TRIES:
        p = next_prime(p)
        if d % p == 0:
            continue
        tried += 1
        if _psquarefree_image(_zmod(G, p), p):
            return True
    return False




# ---------------------------------------------------------------------------
# Trager's method over a number field L = Q[x]/(fL)
#
# For monic f in Q[X] the norm of f(X - s*x) is the composed sum
# prod (X - b - s*a) over the roots b of f and a of fL.  Its power sums
# are binomial convolutions of those of f and fL, so Newton's identities
# give it from the coefficients and back, without resultants (Bostan,
# Flajolet, Salvy & Schost, "Fast computation of special resultants",
# JSC 41, 2006).  Scaling X -> X/d first makes every root an algebraic
# integer, so all of it runs on integers.

def _power_sums(G, count):
    """Power sums p_0, ..., p_count of the roots of monic G in Z[X]."""
    m = len(G) - 1
    e = G[::-1]                 # e[k] is the coefficient of X^(m-k)
    p = [m]
    for k in range(1, count + 1):
        top = min(k - 1, m)
        acc = sum(a * b for a, b in zip(e[1:top + 1], reversed(p[k - top:k])))
        p.append(-(acc + k * e[k] if k <= m else acc))
    return p


def _from_power_sums(P):
    """The monic integer polynomial of degree D = len(P) - 1 whose roots
    have the power sums P[1], ..., P[D].

    Newton's identities divide by k at step k.  The roots are algebraic
    integers, so every division is exact; a remainder means the power
    sums are wrong, a ConsistencyError.
    """
    e = [1]
    for k in range(1, len(P)):
        acc = P[k] + sum(a * b for a, b in zip(e[1:k], reversed(P[1:k])))
        q, r = divmod(-acc, k)
        if r:
            raise ConsistencyError("norm power sums are not integral")
        e.append(q)
    return e[::-1]


def _norm_with_shift(f, L, s):
    """Res_y(fL(y), f(X - s*y)) in Q[X], for monic f in Q[X].

    This is the norm of f(X - s*x) from L[X] to Q[X], monic of degree
    deg(fL) * deg(f), computed as a composed sum on integers.
    """
    fL = L.defining
    D = fL.degree * f.degree
    d = _denominator_lcm(f.cs + fL.cs)
    scaled = [pt * s ** t for t, pt in enumerate(_power_sums(_scale_monic(fL, d), D))]
    q = _power_sums(_scale_monic(f, d), D)
    P = []
    row = [1]                   # the binomials C(k, t), t = 0..k
    for k in range(D + 1):
        P.append(sum(c * a * b for c, a, b in zip(row, scaled, reversed(q[:k + 1]))))
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    M = _from_power_sums(P)
    N = Poly(QQ, [Fraction(c, d ** (D - i)) for i, c in enumerate(M)])
    if N.degree != D or N.lc != 1:
        raise ConsistencyError("norm polynomial has wrong shape")
    return N


# ---------------------------------------------------------------------------
# Trager's gcd over L, modulo primes
#
# h = gcd(f, N_i(X + s*x)) is computed in (F_p[y]/(fL mod p))[X] for
# several primes p, its coordinates are combined by the Chinese remainder
# theorem and recovered as rationals (Encarnacion, "Computing GCDs of
# polynomials over algebraic number fields", JSC 20, 1995).  An element
# of F_p[y]/(fL mod p) is an int list of degree below deg fL, reduced
# mod p; a polynomial over that ring is a list of them, lowest degree
# first, with a nonzero top.

def _qmod(cs, p):
    """Rationals whose denominators p does not divide, as an int list mod p."""
    return _ztrim([c.numerator * pow(c.denominator, -1, p) % p for c in cs])


def _lgcd(a, b, fp, p):
    """Monic gcd of monic a and b by Euclid, each remainder made monic;
    None when a leading coefficient is not a unit."""
    while b:
        if b[-1] != [1]:
            try:
                inv = _pbezout(b[-1], fp, p)[0]
            except ValueError:
                return None
            b = [_prem(_zmul(c, inv), fp, p) for c in b[:-1]] + [[1]]
        r = list(a)
        db = len(b) - 1
        for k in range(len(r) - 1 - db, -1, -1):
            c = r[k + db]
            if c:
                for i in range(db):
                    r[k + i] = _prem(_zsub(r[k + i], _zmul(c, b[i])), fp, p)
        a, b = b, _ztrim(r[:db])
    return a


def _lshift_mod(N, s, fq, fp, p):
    """N(X + s*y) reduced modulo monic fq(X), by Horner: N and fq are int
    lists mod p, and X^m is replaced by -(fq - X^m) at each step."""
    sy = _prem([0, s], fp, p)
    acc = [[]] * (len(fq) - 1)
    for c in reversed(N):
        top = acc[-1]
        acc = [_prem(_zsub(_zadd(u, _zmul(sy, v)), [k * t for t in top]), fp, p)
               for u, v, k in zip([[]] + acc[:-1], acc, fq)]
        acc[0] = _zmod(_zadd(acc[0], [c]), p)
    return _ztrim(acc)


def _gcds_mod_p(fq, norms, s, fp, p):
    """gcd(fq, N(X + s*y)) in (F_p[y]/(fp))[X] for each N in norms, or
    None when a leading coefficient in Euclid is not a unit."""
    fqp = _qmod(fq.cs, p)
    a = [[c] if c else [] for c in fqp]
    out = []
    for N in norms:
        h = _lgcd(a, _lshift_mod(_qmod(N.cs, p), s, fqp, fp, p), fp, p)
        if h is None:
            return None
        out.append(h)
    return out


# Trial division in next_prime costs about 0.5 ms a prime here (3.3 ms
# near 2^31), and one prime already recovers coordinates up to 4096.
_GCD_PRIME_START = 1 << 25


def _gcd_primes():
    """The primes the modular gcd over L tries, in order."""
    p = _GCD_PRIME_START
    while True:
        p = next_prime(p)
        yield p


def _rational_reconstruction(a, m):
    """The fraction u/v with u = a*v mod m and |u|, v <= sqrt(m/2), or None."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _gcds_over_L(fq, norms, s, L):
    """The monic h_i = gcd(f, N_i(X + s*x)) over L, for monic f = fq in
    Q[X] and the irreducible factors N_i of the squarefree norm of
    f(X - s*x).

    A prime p is used only if it divides no denominator of fL, fq or the
    N_i and fL is squarefree mod p.  Then Z_(p)[y]/(fL) is integrally
    closed, so it holds the coefficients of every h_i and of its
    cofactor in N_i(X + s*x), both monic with integral roots; so h_i mod p
    divides both arguments, and the gcd mod p has at least h_i's degree,
    with equality only if it is h_i mod p.  The h_i's degrees add up to
    deg f, so a prime whose gcd degrees add up to more is unlucky and is
    dropped, and every prime kept gives the images of the h_i themselves.
    Their coordinates are combined by CRT and recovered by rational
    reconstruction, until the recovered h_i multiply back to f.

    That product is the certificate: by Trager's theorem f has as many
    irreducible factors over L as the squarefree norm has over Q, so r
    nonconstant monic factors of f whose product is f are its r
    irreducible factors, none repeated as f is squarefree.  Only finitely
    many primes are unlucky or have a leading coefficient that is not a
    unit in Euclid, so the loop ends.
    """
    fL = L.defining
    n, m = L.n, fq.degree
    f = fq.map_coeffs(L, L.from_rational)
    den = _denominator_lcm(fL.cs + fq.cs + tuple(c for N in norms for c in N.cs))
    degrees = None
    M = 1
    for p in _gcd_primes():
        if den % p == 0:
            continue
        fp = _qmod(fL.cs, p)
        if not _psquarefree_image(fp, p):
            continue
        hs = _gcds_mod_p(fq, norms, s, fp, p)
        if hs is None or sum(len(h) - 1 for h in hs) != m:
            continue
        if degrees is None:
            degrees = [len(h) - 1 for h in hs]
            residues = [0] * (m * n)
        if degrees != [len(h) - 1 for h in hs] or 0 in degrees:
            raise ConsistencyError("modular gcds over L contradict Trager's theorem")
        flat = [c for h in hs for a in h[:-1] for c in a + [0] * (n - len(a))]
        u = pow(M, -1, p)
        residues = [a + M * ((b - a) * u % p) for a, b in zip(residues, flat)]
        M *= p
        coords = [_rational_reconstruction(a, M) for a in residues]
        if None in coords:
            continue
        out = []
        for d in degrees:
            cs = [L.element(coords[i * n:(i + 1) * n]) for i in range(d)]
            out.append(Poly(L, cs + [L.one]))
            coords = coords[d * n:]
        prod = Poly.const(L, L.one)
        for h in out:
            prod = prod * h
        if prod == f:
            return out
