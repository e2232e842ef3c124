"""Acceptance criteria, one test per criterion.

All checks are exact (integer counts, exact polynomial identities); each
test prints a single PASS line once its assertions have gone through.
Criteria that name a command line drive the real CLI entry point.
"""

import itertools
import json
import random
from fractions import Fraction

from l2lab.cli import main
from l2lab.poly import Poly, factor_mod_p
from l2lab.numberfield import make_field
from l2lab.principal import compute_principal_subfields
from l2lab.fieldlattice import (build_lattice, is_length_two,
                                is_minimal_extension,
                                verify_minpoly_product_identity)
from l2lab.numberfield import intersect_subfields
from l2lab.parsing import parse_algebra
from l2lab.classify import analyze_extension, classify_extension
from l2lab.finitealg import Subalgebra, prime_algebra, quotient_algebra, small_field
from l2lab.report import algebra_report
from test_fieldlattice_oracle import index_set_I
from nfelem import nf, over_L
import nfelem


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def report_for(doc):
    S, R = parse_algebra(doc)
    rep, a = algebra_report(S, R, json.dumps(doc, sort_keys=True))
    return rep, a


def _passed(n, text):
    print("ACCEPTANCE %2d: PASS - %s" % (n, text))


def test_criterion_1_x4_minus_2(capsys):
    rep = cli_json(capsys, "classify", "X^4 - 2", "--json")
    assert rep["t"] == 2
    assert rep["count_observed"] == 3
    assert rep["length"] == 2
    dims = sorted(e["dim"] for e in rep["witnesses"]["principal_subfields"])
    assert dims == [1, 2]
    # exact factorization over L: (X - x)(X + x)(X^2 + x^2)
    L = make_field(Poly(map(Fraction, [-2, 0, 0, 0, 1])))
    ps = compute_principal_subfields(L)
    F = nf(L)
    x = F.gen()
    expect = {nfelem.Poly(F, [x, F.one]), nfelem.Poly(F, [x * x, F.zero, F.one])}
    assert {over_L(L, g) for g in ps.system.factors} == expect
    _passed(1, "classify \"X^4 - 2\": t=2, E={Q(sqrt2), Q}, count 3, length 2, "
               "factors (X-x)(X+x)(X^2+x^2)")


def test_criterion_2_biquadratic(capsys):
    rep = cli_json(capsys, "classify", "X^4 - 10*X^2 + 1", "--json")
    assert rep["t"] == 3
    assert rep["count_observed"] == 5 == rep["t"] + 2
    assert rep["length"] == 2
    subs = rep["witnesses"]["principal_subfields"]
    assert [e["dim"] for e in subs] == [2, 2, 2]
    L = make_field(Poly(map(Fraction, [1, 0, -10, 0, 1])))
    ps = compute_principal_subfields(L)
    for i in range(3):
        for j in range(i + 1, 3):
            assert intersect_subfields(ps.E[i], ps.E[j]).dim == 1
    lat = rep["lattice"]
    assert sorted(map(tuple, lat["covers"])) == \
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    _passed(2, "classify \"X^4 - 10*X^2 + 1\": t=3, pairwise meets = Q, "
               "count 5 = t+2, diamond Hasse diagram")


def test_criterion_3_x6_plus_108(capsys):
    rep = cli_json(capsys, "classify", "X^6 + 108", "--json")
    assert rep["t"] == 4
    assert rep["count_observed"] == 6
    assert rep["length"] == 2
    g = rep["galois"]
    assert g is not None and g["degree_primes"] == [2, 3]
    assert g["count_observed"] == 6 <= g["bound_n_plus_1"] == 7
    _passed(3, "classify \"X^6 + 108\": t=4, count 6, length 2, Galois "
               "6 = 2*3 with 6 <= 7")


def test_criterion_4_minimal_cubic(capsys):
    code = main(["minimal", "X^3 - 3*X + 1"])
    out = capsys.readouterr().out
    assert code == 0 and "not minimal" not in out
    L = make_field(Poly(map(Fraction, [1, -3, 0, 1])))
    ps = compute_principal_subfields(L)
    assert ps.t == 1
    # brute-force confirmation: every principal subfield collapses to Q
    assert all(sub.dim == 1 for sub in ps.E)
    assert is_minimal_extension(ps, build_lattice(ps))
    _passed(4, "minimal \"X^3 - 3*X + 1\": t=1, minimal (all L_alpha = Q)")


def _first_irreducible(p, n):
    for tail in itertools.product(range(p), repeat=n):
        f = list(tail) + [1]
        _, factors = factor_mod_p(f, p)
        if len(factors) == 1 and factors[0][1] == 1:
            return f


def _poly_text(f):
    terms = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append("X^%d" % i if i > 1 else "X")
        else:
            terms.append("%d*X^%d" % (c, i) if i > 1 else "%d*X" % c)
    return " + ".join(terms)


def test_criterion_5_finite_field_towers():
    expectations = {(2, 4): 3, (2, 6): 4, (3, 4): 3}
    for (p, n), count in expectations.items():
        f = _first_irreducible(p, n)
        doc = {"q": p, "quotient": "F%d[X]/(%s)" % (p, _poly_text(f)),
               "R": "diagonal"}
        rep, a = report_for(doc)
        assert rep["case"] == "(8d)"
        assert rep["count_observed"] == count
        assert rep["length"] == 2
        divisors = sorted(d for d in range(1, n + 1) if n % d == 0)
        assert sorted(nd.dim for nd in a.lattice.nodes) == divisors
    _passed(5, "towers F_p < F_p^n for (2,4),(2,6),(3,4): divisor lattices, "
               "counts 3/4/3, length 2")


def test_criterion_6_bell_number():
    rep, a = report_for({"q": 2, "product": ["F2", "F2", "F2"], "R": "diagonal"})
    assert rep["count_observed"] == 5
    assert rep["length"] == 2
    assert rep["case"] == "(7)"
    assert a.seminormalization == a.R           # seminormal
    assert a.t_closure.is_whole()               # infra-integral
    _passed(6, "F_2 diagonal in F_2^3: 5 subalgebras, length 2, seminormal "
               "infra-integral, case (7)")


def test_criterion_7_copointwise():
    for q, count in [(2, 5), (3, 6)]:
        rep, a = report_for({"q": q,
                             "quotient": "F%d[X,Y]/(X^2, X*Y, Y^2)" % q,
                             "R": "diagonal"})
        assert rep["count_observed"] == count == q + 3
        assert rep["length"] == 2
        assert rep["case"] == "(6)"
        assert a.seminormalization.is_whole()   # subintegral
        pred = next(p for p in rep["predicates"]
                    if p["name"].startswith("Prop 3.81"))
        assert pred["details"]["copointwise"] and not pred["details"]["simple"]
    _passed(7, "F_q < F_q[X,Y]/(X^2,XY,Y^2) for q=2,3: counts 5 and 6 = q+3, "
               "subintegral co-pointwise case (6)")


def test_criterion_8_y_cubed():
    rep, a = report_for({"q": 2, "quotient": "F2[Y]/(Y^3)", "R": "diagonal"})
    assert rep["count_observed"] == 3
    assert rep["length"] == 2
    S = a.S
    y2 = S.basis_vector(S.names.index("Y^2"))
    mid = a.lattice.nodes[1]
    assert mid.dim == 2 and mid.member(y2)      # middle node is R + N^2
    cor = next(p for p in rep["predicates"] if p["name"].startswith("Cor 3.132"))
    assert cor["holds"] and cor["details"]["subcases"][1] is True
    # subcase (1) means: conductor = M, N^2 not inside M, N^3 inside M
    _passed(8, "F_2 < F_2[Y]/(Y^3): lattice {R, R+N^2, S}, length 2, "
               "subcase (1) of the simple-subintegral criterion")


def test_criterion_9_f2xf4_and_nilpotent_model():
    rep, a = report_for({"q": 2, "product": ["F2", "F4"], "R": "diagonal"})
    assert rep["count_observed"] == 3 and rep["length"] == 2
    assert rep["case"] == "(4)"
    T = a.t_closure
    assert T.dim == 2
    assert T.member(a.S.basis_vector(0)) and T.member(a.S.basis_vector(1))
    rep2, a2 = report_for({"q": 2,
                           "quotient": "F2[U,X]/(U^2 + U + 1, X^2)",
                           "R": ["X"]})
    assert rep2["count_observed"] == 3 and rep2["length"] == 2
    cor = next(p for p in rep2["predicates"] if p["name"].startswith("Cor 3.62"))
    assert cor["details"] == {"V(MS)": 1, "L_R(N/M)": 1}
    _passed(9, "F_2 < F_2xF_4: t-closure F_2xF_2, count 3, case (4); "
               "F_4[X]/(X^2) model: count 3, length 2, L_R(N/M) = 1")


def test_criterion_10_spir_model():
    rep, a = report_for({"q": 2, "quotient": "F2[T,Y]/(T^2, Y^2 + Y)",
                         "R": ["T"]})
    assert rep["count_observed"] == 3 and rep["length"] == 2
    assert rep["case"] == "(5)"
    assert a.conductor.dim == 0                 # (R:S) = 0
    assert a.crucial.dim == 1                   # M = Rt != 0
    S = a.S
    ty = S.mul(S.basis_vector(S.names.index("T")),
               S.basis_vector(S.names.index("Y")))
    P = a.seminormalization
    assert P.dim == 3 and P.member(ty)          # +R = R[ty]
    _passed(10, "R = F_2[t]/(t^2) < R[Y]/(Y^2-Y): conductor 0 != M, "
                "seminormalization R[ty], count 3, case (5)")


def test_criterion_11_crosswise():
    rep, a = report_for({"q": 2, "product": ["F4", "F4"], "R": ["(1,0)"]})
    assert rep["count_observed"] == 4 and rep["length"] == 2
    assert rep["case"] == "(1)"
    mids = a.lattice.nodes[1:-1]
    assert len(mids) == 2
    assert not mids[0].contains_sub(mids[1])
    assert not mids[1].contains_sub(mids[0])
    _passed(11, "F_2xF_2 < F_4xF_4: exactly 4 subalgebras, length 2, two "
                "incomparable middle nodes, case (1)")


def test_criterion_12_property_suites():
    # field side, on every field instance above
    for coeffs in [[-2, 0, 0, 0, 1], [1, 0, -10, 0, 1], [108, 0, 0, 0, 0, 0, 1],
                   [1, -3, 0, 1], [-2, 0, 1]]:
        f = Poly(map(Fraction, coeffs))
        L = make_field(f)
        ps = compute_principal_subfields(L)
        lat = build_lattice(ps)
        l2, _ = is_length_two(ps, lat)           # dual path asserted inside
        assert l2 == (lat.length == 2)
        verify_minpoly_product_identity(ps, lat)
        assert all(not e.is_full() for e in ps.E)
        if ps.E:
            inter = ps.E[0]
            for e in ps.E[1:]:
                inter = intersect_subfields(inter, e)
            assert inter.dim == 1
        for b, e in enumerate(ps.E):
            assert set(ps.gamma[b]) <= index_set_I(e, ps.system)

    # algebra side, on every worked instance above plus 50 random ones
    worked = [
        {"q": 2, "product": ["F2", "F2", "F2"], "R": "diagonal"},
        {"q": 2, "product": ["F2", "F4"], "R": "diagonal"},
        {"q": 2, "product": ["F4", "F4"], "R": ["(1,0)"]},
        {"q": 2, "quotient": "F2[X,Y]/(X^2, X*Y, Y^2)", "R": "diagonal"},
        {"q": 3, "quotient": "F3[X,Y]/(X^2, X*Y, Y^2)", "R": "diagonal"},
        {"q": 2, "quotient": "F2[Y]/(Y^3)", "R": "diagonal"},
        {"q": 2, "quotient": "F2[T,Y]/(T^2, Y^2 + Y)", "R": ["T"]},
        {"q": 2, "quotient": "F2[U,X]/(U^2 + U + 1, X^2)", "R": ["X"]},
    ]
    for doc in worked:
        S, R = parse_algebra(doc)
        a = analyze_extension(R, S)
        classify_extension(a)                    # raises on any predicate failure
        assert a.seminormalization.contains_sub(a.R)
        assert a.t_closure.contains_sub(a.seminormalization)
        if a.length == 2:
            assert len(a.support) <= 2
    rng = random.Random(424242)
    produced = 0
    while produced < 50:
        made = _random_small_algebra(rng)
        if made is None:
            continue
        produced += 1
        R, S = made
        a = analyze_extension(R, S)
        classify_extension(a)
        assert a.t_closure.contains_sub(a.seminormalization)
    _passed(12, "property suites: dual-path length, canonical decomposition, "
                "re-multiplication, product identity, meet(E) = k, E != L, "
                "Gamma inside I, on all instances plus 50 random algebras")


def _random_small_algebra(rng):
    from l2lab.finitealg import product_algebra
    q = rng.choice([2, 2, 3])
    F = small_field(q)
    kind = rng.randrange(3)
    if kind == 0:
        degrees = [rng.choice([1, 1, 2]) for _ in range(rng.randrange(2, 4))]
        while sum(degrees) > 4:
            degrees.pop()
        S = product_algebra(F, degrees if degrees else [1])
    elif kind == 1:
        S = quotient_algebra(F, ["x", "y"],
                             [{(rng.choice([2, 3]), 0): 1},
                              {(1, 1): 1}, {(0, 2): 1}])
    else:
        S = quotient_algebra(F, ["x"], [{(rng.choice([2, 3, 4]),): 1}])
    if S.dim > 5 or S.field.q ** S.dim > 256:
        return None
    gens = [tuple(rng.randrange(F.q) for _ in range(S.dim))
            for _ in range(rng.randrange(0, 3))]
    R = Subalgebra.from_generators(S, gens)
    if R.is_whole():
        R = prime_algebra(S)
    if R.is_whole():
        return None
    return R, S
