import itertools
import json

import pytest

import l2lab.classify as classify
from l2lab.cli import main
from l2lab.errors import ConsistencyError
from l2lab.parsing import parse_algebra
from l2lab.poly import Poly, factor_mod_p
from l2lab.classify import (analyze_extension, classify_extension, cover_types,
                            is_copointwise_minimal, module_length_at)
from l2lab.finitealg import (Subalgebra, enumerate_subalgebras, prime_algebra,
                             product_algebra, quotient_algebra, small_field)
from test_finitealg import field_algebra, whole_algebra
from test_localization import localize

F2 = small_field(2)
F3 = small_field(3)


def first_irreducible(p, n):
    dom = small_field(p)
    for tail in itertools.product(range(p), repeat=n):
        f = Poly.from_ints(dom, list(tail) + [1])
        fac = factor_mod_p(f)
        if len(fac.factors) == 1 and fac.factors[0][1] == 1:
            return f


def build_spir():
    S = quotient_algebra(F2, ["t", "y"],
                         [{(2, 0): F2.one}, {(0, 2): F2.one, (0, 1): F2.one}])
    R = Subalgebra.from_generators(S, [S.basis_vector(S.names.index("t"))])
    return R, S


def test_case_7_bell():
    S = product_algebra(F2, [1, 1, 1])
    a = analyze_extension(prime_algebra(S), S)
    v = classify_extension(a)
    assert v["case"] == "(7)"
    assert v["count_observed"] == v["count_predicted"] == 5
    assert v["length"] == 2


def test_case_4_f2_in_f2xf4():
    S = product_algebra(F2, [1, 2])
    a = analyze_extension(prime_algebra(S), S)
    v = classify_extension(a)
    assert v["case"] == "(4)" and v["count_observed"] == 3
    assert a.t_closure.dim == 2


def test_case_4_dobbs_shapiro_nilpotent():
    # S = F4[X]/(X^2) over F2, R = F2 + F2 x
    S = quotient_algebra(F2, ["U", "X"],
                         [{(2, 0): F2.one, (1, 0): F2.one, (0, 0): F2.one},
                          {(0, 2): F2.one}])
    R = Subalgebra.from_generators(S, [S.basis_vector(S.names.index("X"))])
    a = analyze_extension(R, S)
    v = classify_extension(a)
    assert v["case"] == "(4)" and v["count_observed"] == 3 and v["length"] == 2
    cor = next(p for p in v["predicates"] if p["name"].startswith("Cor 3.62"))
    assert cor["applicable"] and cor["holds"]
    assert cor["details"] == {"V(MS)": 1, "L_R(N/M)": 1}


def test_case_5_spir():
    R, S = build_spir()
    a = analyze_extension(R, S)
    v = classify_extension(a)
    assert v["case"] == "(5)"
    assert v["count_observed"] == 3 and v["length"] == 2
    # conductor 0 is strictly below the crucial ideal
    assert a.conductor.dim == 0 and a.crucial.dim == 1
    assert a.seminormalization.dim == 3


def test_case_6_copointwise():
    for F, expected in [(F2, 5), (F3, 6)]:
        S = quotient_algebra(F, ["X", "Y"],
                             [{(2, 0): F.one}, {(1, 1): F.one}, {(0, 2): F.one}])
        a = analyze_extension(prime_algebra(S), S)
        v = classify_extension(a)
        assert v["case"] == "(6)"
        assert v["count_observed"] == v["count_predicted"] == expected
        assert v["copointwise"] and not v["simple"]


def test_case_6_simple_y_cubed():
    S = quotient_algebra(F2, ["Y"], [{(3,): F2.one}])
    a = analyze_extension(prime_algebra(S), S)
    v = classify_extension(a)
    assert v["case"] == "(6)" and v["count_observed"] == 3
    assert v["simple"] and not v["copointwise"]
    cor = next(p for p in v["predicates"] if p["name"].startswith("Cor 3.132"))
    assert cor["applicable"] and cor["holds"]
    assert cor["details"]["subcases"][1] is True
    assert cor["details"]["lattice_is_R_RN2_S"] is True


def test_case_1_crosswise():
    S = product_algebra(F2, [2, 2])
    R = Subalgebra.from_generators(S, [S.basis_vector(0)])
    a = analyze_extension(R, S)
    v = classify_extension(a)
    assert v["case"] == "(1)"
    assert v["count_observed"] == 4 and v["length"] == 2
    assert v["support_size"] == 2 and v["locally_minimal"]
    mids = a.lattice.nodes[1:-1]
    assert len(mids) == 2
    assert not mids[0].contains_sub(mids[1]) and not mids[1].contains_sub(mids[0])


def test_case_8d_towers():
    for (p, n, count) in [(2, 4, 3), (2, 6, 4), (3, 4, 3)]:
        S = field_algebra(small_field(p), first_irreducible(p, n))
        a = analyze_extension(prime_algebra(S), S)
        v = classify_extension(a)
        assert v["case"] == "(8d)"
        assert v["count_observed"] == v["count_predicted"] == count
        assert v["t"] == count - 1
        assert v["residue_degree"] == n


def test_minimal_is_not_length_two():
    S = product_algebra(F2, [2])
    a = analyze_extension(prime_algebra(S), S)
    v = classify_extension(a)
    assert v["minimal"] and v["case"].startswith("not length 2")
    assert v["minimal_type"] == "inert"


def test_dvd_standin_count_4_length_3():
    # SPIR stand-in for the discrete-valuation example: |[R,S]| = 4 with
    # length 3, so conductor != M blocks length 2 at count 4.
    S = quotient_algebra(F2, ["t", "z"],
                         [{(4, 0): F2.one},
                          {(0, 2): F2.one, (0, 1): F2.one},
                          {(3, 1): F2.one}])
    R = Subalgebra.from_generators(S, [S.basis_vector(S.names.index("t"))])
    a = analyze_extension(R, S)
    v = classify_extension(a)
    assert v["count_observed"] == 4
    assert v["length"] == 3
    assert v["case"] == "not length 2"


def test_localize_poset_isomorphism():
    # MSupp = {M}: [R, S] and [R_M, S_M] have equal size and length
    S = product_algebra(F2, [1, 1, 2])
    R = Subalgebra.from_generators(S, [S.basis_vector(0)])
    a = analyze_extension(R, S)
    assert len(a.support) == 1
    SM, RM = localize(R, whole_algebra(S), a.support[0])
    lat_local = enumerate_subalgebras(RM, SM)
    assert len(lat_local) == len(a.lattice)
    assert lat_local.length == a.lattice.length
    # the global predicate battery must agree on the non-local base ring
    v = classify_extension(a)
    assert v["case"] == "(4)" and v["count_observed"] == 3


def test_cover_types_match_prop_3_5():
    # subintegral: every cover ramified
    S = quotient_algebra(F2, ["Y"], [{(3,): F2.one}])
    a = analyze_extension(prime_algebra(S), S)
    assert set(cover_types(a).values()) == {"ramified"}
    # seminormal infra-integral: every cover decomposed
    S = product_algebra(F2, [1, 1, 1])
    a = analyze_extension(prime_algebra(S), S)
    assert set(cover_types(a).values()) == {"decomposed"}
    # t-closed: every cover inert
    S = field_algebra(F2, first_irreducible(2, 4))
    a = analyze_extension(prime_algebra(S), S)
    assert set(cover_types(a).values()) == {"inert"}


def test_crosswise_cover_type_exchange():
    # both chains through the 4-node lattice use the same two types in
    # exchanged order
    S = product_algebra(F2, [2, 2])
    R = Subalgebra.from_generators(S, [S.basis_vector(0)])
    a = analyze_extension(R, S)
    types = cover_types(a)
    bot, top = 0, len(a.lattice.nodes) - 1
    chains = []
    for i in range(len(a.lattice.nodes)):
        if (bot, i) in a.lattice.covers and (i, top) in a.lattice.covers:
            chains.append((types[(bot, i)], types[(i, top)]))
    assert len(chains) == 2
    assert sorted(chains[0]) == sorted(chains[1])


def test_module_length_dobbs_example():
    S = quotient_algebra(F2, ["U", "X"],
                         [{(2, 0): F2.one, (1, 0): F2.one, (0, 0): F2.one},
                          {(0, 2): F2.one}])
    R = Subalgebra.from_generators(S, [S.basis_vector(S.names.index("X"))])
    a = analyze_extension(R, S)
    M = a.crucial
    from l2lab.classify import ideal_MS
    from l2lab.finitealg import maximal_ideals_over
    vns = maximal_ideals_over(a.whole, ideal_MS(a))
    assert len(vns) == 1
    assert module_length_at(a, M, vns[0], M) == 1


def test_copointwise_brute_force_matches_shape():
    S = quotient_algebra(F2, ["X", "Y"],
                         [{(2, 0): F2.one}, {(1, 1): F2.one}, {(0, 2): F2.one}])
    a = analyze_extension(prime_algebra(S), S)
    from l2lab.classify import copointwise_shape_check, ideal_MS
    assert is_copointwise_minimal(a) and copointwise_shape_check(a, ideal_MS(a))


def test_element_scans_run_once_per_analysis(monkeypatch):
    """The one walk down the case list reads each point walk over S/R,
    each local lattice and M*S once, Cor 3.132 included, and the point
    walks read the enumeration's walk of the bottom node."""
    import l2lab.classify as classify
    calls = {}

    def counted(name):
        fn = getattr(classify, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(classify, name, wrapper)

    for name in ("is_locally_minimal", "is_simple_extension",
                 "is_copointwise_minimal", "ideal_MS"):
        counted(name)
    plane = quotient_algebra(F2, ["X", "Y"],
                             [{(2, 0): F2.one}, {(1, 1): F2.one}, {(0, 2): F2.one}])
    cubic = quotient_algebra(F2, ["Y"], [{(3,): F2.one}])
    crosswise = product_algebra(F2, [2, 2])
    bell = product_algebra(F2, [1, 1, 1])
    quartic = quotient_algebra(F3, ["X"], [{(4,): F3.one}])
    over_x2 = Subalgebra.from_generators(quartic, [quartic.basis_vector(2)])
    walks = {"is_simple_extension", "is_copointwise_minimal", "ideal_MS"}
    cases = [(over_x2, quartic, walks),      # Cor 3.132 reads the simple walk
             (prime_algebra(plane), plane, walks),
             (prime_algebra(cubic), cubic, walks),
             (Subalgebra.from_generators(crosswise, [crosswise.basis_vector(0)]), crosswise,
              {"is_locally_minimal"}),
             (prime_algebra(bell), bell, {"ideal_MS"})]
    # the points of S/R themselves are walked once, by the enumeration
    import l2lab.finitealg as finitealg
    walked = []
    adjunctions = finitealg.adjunctions

    def counted_walk(T):
        walked.append(T)
        return adjunctions(T)
    monkeypatch.setattr(finitealg, "adjunctions", counted_walk)
    for R, S, scanned in cases:
        calls.clear()
        walked.clear()
        classify_extension(analyze_extension(R, S))
        assert set(calls) == scanned
        assert all(n == 1 for n in calls.values()), calls
        assert sum(T is R for T in walked) == 1


def test_each_node_structured_and_each_cover_typed_once(monkeypatch):
    """On the named benchmark inputs and one minimal extension, the
    structure of a subalgebra is computed for the lattice nodes of the
    analysis alone, once each, and each cover is typed once: the top node
    is S, and the local lattices of a two-element support are intervals
    of S that need no structure."""
    import l2lab.finitealg as finitealg
    from test_golden_reports import NAMED, _report
    import corpus
    structure, typed, analyses = [], [], []
    subalgebra_structure = finitealg.subalgebra_structure
    minimal_type = classify._minimal_type_of_pair

    def counted_structure(T):
        structure.append(T)
        return subalgebra_structure(T)

    def counted_type(lo, hi):
        typed.append((lo, hi))
        return minimal_type(lo, hi)

    def kept(R, S):
        analyses.append(analyze_extension(R, S))
        return analyses[-1]

    monkeypatch.setattr(finitealg, "subalgebra_structure", counted_structure)
    monkeypatch.setattr(classify, "_minimal_type_of_pair", counted_type)
    monkeypatch.setattr(classify, "analyze_extension", kept)
    minimal = corpus._algebra_input("f2<f4", {"q": 2, "product": ["F4"]})
    for inp in NAMED + [minimal]:
        _report(inp)
    nodes = [id(n) for a in analyses for n in a.lattice.nodes]
    covers = [(id(a.lattice.nodes[i]), id(a.lattice.nodes[j]))
              for a in analyses for i, j in a.lattice.covers]
    assert analyses[-1].count == 2 and len(analyses) == 14
    assert sorted(id(T) for T in structure) == sorted(nodes)
    assert sorted((id(lo), id(hi)) for lo, hi in typed) == sorted(covers)


def test_no_reduction_of_an_empty_span(monkeypatch):
    """When the crucial ideal is 0, M*S, M^2 and the floor of a module
    length span no vectors; ``Echelon`` gives them the zero subspace
    without a reduction, on every named benchmark algebra."""
    import l2lab.exact as exact
    from test_golden_reports import NAMED, _report
    rref = exact.rref
    sizes = []

    def counted_rref(rows, ops):
        rows = list(rows)
        sizes.append(len(rows))
        return rref(rows, ops)

    monkeypatch.setattr(exact, "rref", counted_rref)
    algebras = [inp for inp in NAMED if "--algebra" in inp.argv]
    for inp in algebras:
        _report(inp)
    assert len(algebras) == 13 and sizes
    assert 0 not in sizes


def test_local_base_needs_an_idempotent_outside_M(monkeypatch):
    S = product_algebra(F2, [2, 2])
    a = analyze_extension(Subalgebra.from_generators(S, [S.basis_vector(0)]), S)
    assert len(a.support) == 2
    monkeypatch.setattr(classify, "primitive_idempotents", lambda R: ())
    with pytest.raises(ConsistencyError, match="no primitive idempotent outside M"):
        classify_extension(a)


# ---------------------------------------------------------------------------
# The checks that only their case makes: each is forced to disagree once

Y_CUBED = {"q": 2, "quotient": "F2[Y]/(Y^3)", "R": "diagonal"}
PLANE = {"q": 2, "quotient": "F2[X,Y]/(X^2,X*Y,Y^2)", "R": "diagonal"}
SQUARES = {"q": 2, "quotient": "F2[X,Y]/(X^2,Y^2)", "R": "diagonal"}
F3_COPOINTWISE = {"q": 3, "quotient": "F3[X,Y]/(X^2,X*Y,Y^2)", "R": "diagonal"}
F16 = {"q": 2, "product": ["F16"], "R": "diagonal"}


def classify_doc(doc):
    S, R = parse_algebra(doc)
    return classify_extension(analyze_extension(R, S))


def exit_code(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["classify", "--json", "--algebra", str(path)])
    return code, capsys.readouterr().err


def test_simple_and_copointwise_are_exclusive(monkeypatch):
    assert classify_doc(Y_CUBED)["simple"]
    monkeypatch.setattr(classify, "is_copointwise_minimal", lambda a: True)
    with pytest.raises(ConsistencyError, match="simple and co-pointwise are exclusive"):
        classify_doc(Y_CUBED)


def test_copointwise_count_is_residue_size_plus_three(monkeypatch):
    # F2[X,Y]/(X^2,Y^2) is subintegral and not simple, with 12 nodes
    v = classify_doc(SQUARES)
    assert not v["simple"] and not v["copointwise"] and v["count_observed"] != 5
    monkeypatch.setattr(classify, "is_copointwise_minimal", lambda a: True)
    with pytest.raises(ConsistencyError, match="co-pointwise count formula fails"):
        classify_doc(SQUARES)


def test_copointwise_shape_is_checked(monkeypatch, tmp_path, capsys):
    assert classify_doc(F3_COPOINTWISE)["copointwise"]
    monkeypatch.setattr(classify, "copointwise_shape_check", lambda a, ms: False)
    code, err = exit_code(F3_COPOINTWISE, tmp_path, capsys)
    assert code == 3 and "co-pointwise structural test fails" in err


def test_not_simple_subintegral_copointwise_iff_length_two(monkeypatch):
    v = classify_doc(PLANE)
    assert v["copointwise"] and v["length"] == 2
    monkeypatch.setattr(classify, "is_copointwise_minimal", lambda a: False)
    with pytest.raises(ConsistencyError, match="subintegral case mismatch"):
        classify_doc(PLANE)


def test_t_closed_residue_dimensions_divide(monkeypatch):
    # F2 x F2 < F2 x F16 is t-closed at M = F2 x 0; with the zero ideal
    # in its place, [S/M : F2] = 5 is not a multiple of [R/M : F2] = 2
    S, R = parse_algebra({"q": 2, "product": ["F2", "F16"], "R": ["(1,0)"]})
    a = analyze_extension(R, S)
    assert classify_extension(a)["case"] == "(8d)" and a.crucial.dim == 1
    monkeypatch.setattr(a, "crucial", S.span(()))
    with pytest.raises(ConsistencyError, match="residue extension dimension mismatch"):
        classify_extension(a)


def test_t_closed_count_is_divisor_count(monkeypatch, tmp_path, capsys):
    divisor_count = classify.divisor_count
    monkeypatch.setattr(classify, "divisor_count", lambda n: divisor_count(n) + 1)
    code, err = exit_code(F16, tmp_path, capsys)
    assert code == 3 and "finite-field residue lattice count mismatch" in err


def test_t_closed_length_two_iff_two_prime_factors(monkeypatch):
    assert classify_doc(F16)["case"] == "(8d)"
    monkeypatch.setattr(classify, "prime_factors", lambda n: [n])
    with pytest.raises(ConsistencyError, match="t-closed residue case mismatch"):
        classify_doc(F16)


def test_predicted_count_is_checked_against_the_lattice(monkeypatch, tmp_path, capsys):
    walk = classify.check_length_two_predicates

    def miscounted(a, out):
        checks = walk(a, out)
        out["count_predicted"] += 1
        return checks

    monkeypatch.setattr(classify, "check_length_two_predicates", miscounted)
    code, err = exit_code(PLANE, tmp_path, capsys)
    assert code == 3 and "predicted count 6 != observed 5" in err
