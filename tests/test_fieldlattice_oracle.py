"""The field lattice against a brute-force oracle.

Every subfield K of L = Q[x]/(f) has f_K = (X - x) prod_{j in J} f_j for
a subset J of the factors of f over L, and K is generated by the
coefficients of f_K (van Hoeij, Klueners & Novocin, "Generating
subfields", JSC 52, 2013).  So [Q, L] is the set of
K_J = Q(coeffs of g_J), g_J = (X - x) prod_J f_j, over the 2^r subsets J,
kept when the minimal polynomial of x over K_J is g_J itself.  That
degree is n / dim K_J, so a J with deg g_J not dividing n is skipped
unbuilt.  That set is compared with the intersection closure of
`build_lattice`.

``index_set_I`` finds I(K) = {alpha : f_alpha divides f_K} by division
over L, as the production path did before it read I(K) off the lattice's
up-sets (``fieldlattice.index_sets``); the two are compared on every
proper node of the benchmark fields and the golden fields.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from l2lab.fieldlattice import build_lattice, index_sets
from l2lab.numberfield import make_field
from l2lab.parsing import parse_polynomial
from l2lab.poly import Poly, factor_over_Q
from l2lab.principal import compute_principal_subfields

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402
from test_golden_reports import FIELD_INPUTS  # noqa: E402
from test_numberfield import subfield_generated  # noqa: E402
from nfelem import over_L  # noqa: E402

PHI11 = "+".join("X^%d" % k for k in range(10, 1, -1)) + "+X+1"


def brute_force_nodes(ps):
    """The keys of the K_J whose minimal polynomial of x is g_J."""
    L = ps.field
    factors = ps.system.factors
    keys = set()
    for mask in range(1 << len(factors)):
        J = [f for j, f in enumerate(factors) if mask >> j & 1]
        if L.n % (1 + sum(len(f) - 1 for f in J)):
            continue
        g = over_L(L, ps.system.linear)
        for f in J:
            g = g * over_L(L, f)
        K = subfield_generated(L, list(g.cs))
        if over_L(L, K.min_poly) == g:
            keys.add(K.key())
    return keys


def index_set_I(K, sys):
    """{alpha : f_alpha divides the minimal polynomial of x over K}."""
    L = sys.field
    return set(a for a, f in enumerate(sys.factors)
               if over_L(L, f).divides(over_L(L, K.min_poly)))


def assert_lattice_matches(f):
    ps = compute_principal_subfields(make_field(f))
    lat = build_lattice(ps)
    assert brute_force_nodes(ps) == {K.key() for K in lat.nodes}
    return len(lat)


@pytest.mark.parametrize("text,count", [(f, c) for _, f, c, _ in corpus.FIELDS],
                         ids=[i for i, _, _, _ in corpus.FIELDS])
def test_field_lattice_matches_oracle_on_benchmark_fields(text, count):
    assert assert_lattice_matches(parse_polynomial(text)) == count


def test_field_lattice_matches_oracle_on_phi11():
    # Q(zeta_11) is cyclic of degree 10: r = 9 linear factors, and the
    # subfields Q, Q(sqrt(-11)), the real subfield and L
    assert assert_lattice_matches(parse_polynomial(PHI11)) == 4


def _random_polynomial(rng):
    """A random monic of degree 2 to 5, or p(q(X)) with deg p in {2, 3}
    and q quadratic, which has a subfield whenever it is irreducible."""
    if rng.randrange(2):
        d = rng.randrange(2, 6)
        return Poly(map(Fraction, [rng.randrange(-5, 6) for _ in range(d)] + [1]))
    p = [rng.randrange(-4, 5) for _ in range(rng.choice([2, 3]))] + [1]
    q = Poly(map(Fraction, [rng.randrange(-3, 4), rng.randrange(-2, 3), 1]))
    f = Poly([])
    for c in reversed(p):
        f = f * q + Poly([Fraction(c)])
    return f


def test_field_lattice_matches_oracle_on_random_irreducibles():
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    rng = random.Random(2013)
    sizes = []
    while len(sizes) < 8:
        f = _random_polynomial(rng)
        fac = factor_over_Q(f)
        if len(fac.factors) != 1 or fac.factors[0][1] != 1:
            continue
        expr = sum(int(c) * X ** i for i, c in enumerate(f.cs))
        assert sympy.Poly(expr, X).is_irreducible
        sizes.append(assert_lattice_matches(f))
    assert max(sizes) > 2         # some input has a proper subfield


def test_index_sets_match_division_oracle():
    nodes = 0
    for text in [f for _, f, _, _ in corpus.FIELDS] + FIELD_INPUTS:
        ps = compute_principal_subfields(make_field(parse_polynomial(text)))
        lat = build_lattice(ps)
        for K, I in list(zip(lat.nodes, index_sets(ps, lat)))[:-1]:
            assert set(I) == index_set_I(K, ps.system), (text, K)
            nodes += 1
    assert nodes == 72           # 18 on the benchmark fields, 54 on the golden ones
