"""Principal subfields of a separable extension Q = k < L = Q[x]/(f).

For each irreducible factor f_a of f over L other than X - x, the
principal subfield attached to f_a is the set of g(x), deg g < n, such
that f_a divides g(X) - g(x).  That condition is Q-linear in the
coefficients of g, so each principal subfield is the kernel of an
explicit rational matrix; every intermediate field of k < L is an
intersection of the deduplicated principal subfields E_1, ..., E_t.
"""

import random
from fractions import Fraction

from . import exact
from .errors import ConsistencyError
from .numberfield import (NFElement, intersect_subfields, subfield_from_subspace,
                          subfield_generated)
from .poly import Poly, factor_over_number_field


class FactorSystem:
    """f = (X - x) f_1 ... f_r over L, with the linear factor split off;
    the product is certified by ``factor_over_number_field``'s gcd."""

    def __init__(self, field):
        self.field = field
        self.defining = field.defining
        f_over_L = self.defining.map_coeffs(field, field.from_rational)
        fac = factor_over_number_field(f_over_L, field)
        xlin = Poly(field, [-field.gen(), field.one])
        rest = []
        found = False
        for g, mult in fac.factors:
            if mult != 1:
                raise ConsistencyError("defining polynomial not squarefree over L")
            if g == xlin:
                found = True
            else:
                rest.append(g)
        if not found:
            raise ConsistencyError("factor X - x missing from factorization over L")
        self.factors = rest

    @property
    def r(self):
        return len(self.factors)


def principal_subfield_of_factor(L, f_alpha):
    """The subfield {g(x) : deg g < n, f_alpha | g(X) - g(x)} of L.

    Since {1, x, ..., x^(n-1)} is the power basis, the coefficient vector
    of g equals the coordinate vector of g(x); the subfield is literally
    the kernel of the map g |-> (g(X) - g(x)) mod f_alpha.
    """
    n = L.n
    f_over_L = L.defining.map_coeffs(L, L.from_rational)
    if not f_alpha.divides(f_over_L):
        raise ValueError("not a factor")
    if not f_alpha.evaluate(L.gen()):
        raise ValueError("factor vanishes at x; use a factor other than X - x")
    d = f_alpha.degree
    rems = []
    for j in range(n):
        xj = Poly(L, [L.zero] * j + [L.one])
        rem = (xj - Poly.const(L, L.gen_powers[j])) % f_alpha
        rems.append(rem)
    rows = []
    for t in range(d):
        for c in range(n):
            rows.append([rems[j].coeff(t).coords[c] for j in range(n)])
    return subfield_from_subspace(L, exact.kernel(rows, n, exact.QQ_OPS))


class PrincipalSubfieldSet:
    """The L_alpha, the deduplicated E_1..E_t, Phi, Gamma, m_beta, I(E_beta)."""

    def __init__(self, system, L_alpha, E, phi, gamma):
        self.system = system
        self.L_alpha = L_alpha
        self.E = E
        self.phi = phi            # alpha index -> beta index
        self.gamma = gamma        # beta index -> sorted tuple of alpha indices
        self.m = [e.min_poly for e in E]
        self.I = [index_set_I(e, system) for e in E]   # beta index -> set

    @property
    def t(self):
        return len(self.E)

    @property
    def field(self):
        return self.system.field


def index_set_I(K, sys):
    """{alpha : f_alpha divides the minimal polynomial of x over K}."""
    return set(a for a, f in enumerate(sys.factors) if f.divides(K.min_poly))


def K_g_of_product(alpha, sys):
    """Subfield generated by the coefficients of (X - x) * f_alpha."""
    L = sys.field
    g = Poly(L, [-L.gen(), L.one]) * sys.factors[alpha]
    return subfield_generated(L, list(g.cs))


def compute_principal_subfields(L):
    """Factor f over L, build every L_alpha, deduplicate and cross-check."""
    sys = FactorSystem(L)
    L_alpha = [principal_subfield_of_factor(L, f) for f in sys.factors]
    order = {}
    for sub in L_alpha:
        order.setdefault(sub.key(), sub)
    E = sorted(order.values(), key=lambda s: s.key())
    index_of = {e.key(): b for b, e in enumerate(E)}
    phi = [index_of[sub.key()] for sub in L_alpha]
    gamma = {b: tuple(a for a, pb in enumerate(phi) if pb == b) for b in range(len(E))}
    ps = PrincipalSubfieldSet(sys, L_alpha, E, phi, gamma)
    _check_principal_set(ps)
    return ps


def _check_principal_set(ps):
    for e in ps.E:
        if e.is_full():
            raise ConsistencyError("a principal subfield equals L")
    if ps.E:
        inter = ps.E[0]
        for e in ps.E[1:]:
            inter = intersect_subfields(inter, e)
        if inter.dim != 1:
            raise ConsistencyError("intersection of principal subfields is not k")
    # L_alpha is E_Phi(alpha), so this is f_alpha | f_{L_alpha} for every alpha
    for b in range(ps.t):
        if not set(ps.gamma[b]) <= ps.I[b]:
            raise ConsistencyError("Gamma(beta) not contained in I(E_beta)")
    _pullback_cross_check(ps)


def _pullback_cross_check(ps):
    # One pseudo-random element per E_beta must satisfy the defining
    # congruence of every factor mapped to that subfield.
    L = ps.field
    rng = random.Random(0xE5)
    for b, e in enumerate(ps.E):
        g = NFElement(L, e.span.combine([Fraction(rng.randrange(1, 50)) for _ in e.span]))
        gpoly = Poly(L, [L.from_rational(c) for c in g.coords])
        diff = gpoly - Poly.const(L, g)
        for a in ps.gamma[b]:
            if not (diff % ps.system.factors[a]).is_zero:
                raise ConsistencyError("pullback membership failed for E_beta element")
