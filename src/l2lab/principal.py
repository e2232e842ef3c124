"""Principal subfields of a separable extension Q = k < L = Q[x]/(f).

For each irreducible factor f_a of f over L other than X - x, the
principal subfield attached to f_a is the set of g(x), deg g < n, such
that f_a divides g(X) - g(x).  That condition is Q-linear in the
coefficients of g, so each principal subfield is the kernel of an
explicit rational matrix; every intermediate field of k < L is an
intersection of the deduplicated principal subfields E_1, ..., E_t.
"""

from . import exact
from .errors import ConsistencyError
from .numberfield import subfield_from_subspace
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
    """The E_1..E_t (the L_alpha deduplicated, L_alpha = E_Phi(alpha)),
    Phi, Gamma and m_beta.  The index sets I(K) are read off the lattice
    (``fieldlattice.index_sets``)."""

    def __init__(self, system, E, phi, gamma):
        self.system = system
        self.E = E
        self.phi = phi            # alpha index -> beta index
        self.gamma = gamma        # beta index -> sorted tuple of alpha indices
        self.m = [e.min_poly for e in E]

    @property
    def t(self):
        return len(self.E)

    @property
    def field(self):
        return self.system.field


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
    ps = PrincipalSubfieldSet(sys, E, phi, gamma)
    _check_principal_set(ps)
    return ps


def _check_principal_set(ps):
    # No E_beta is L.  That the E_beta meet in k is checked by
    # build_lattice, and E_beta <= L_alpha for alpha in Gamma(beta) by
    # the product identity at E_beta, which proves f_alpha | f_{E_beta}:
    # for a subfield K, f_alpha | f_K iff K <= L_alpha (van Hoeij,
    # Klueners & Novocin, JSC 52, 2013).
    for e in ps.E:
        if e.is_full():
            raise ConsistencyError("a principal subfield equals L")
