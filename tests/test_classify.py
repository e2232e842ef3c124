import itertools

from l2lab.poly import Poly, factor_mod_p
from l2lab.classify import (analyze_extension, classify_extension, cover_types,
                            is_copointwise_minimal, module_length_at)
from l2lab.finitealg import (Subalgebra, enumerate_subalgebras, field_algebra,
                             localize, prime_algebra, product_algebra,
                             quotient_algebra, small_field, whole_algebra)

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
    from l2lab.classify import v_of_ideal, ideal_MS
    vns = v_of_ideal(a, ideal_MS(a))
    assert len(vns) == 1
    assert module_length_at(a, M, vns[0].basis, M.basis) == 1


def test_copointwise_brute_force_matches_shape():
    S = quotient_algebra(F2, ["X", "Y"],
                         [{(2, 0): F2.one}, {(1, 1): F2.one}, {(0, 2): F2.one}])
    a = analyze_extension(prime_algebra(S), S)
    from l2lab.classify import copointwise_shape_check
    assert is_copointwise_minimal(a) and copointwise_shape_check(a)


def test_element_scans_run_once_per_analysis(monkeypatch):
    """The case dispatcher reuses the predicate battery's element scans."""
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
    cases = [(prime_algebra(plane), plane, {"is_simple_extension", "is_copointwise_minimal",
                                           "ideal_MS"}),
             (prime_algebra(cubic), cubic, {"is_simple_extension", "is_copointwise_minimal",
                                           "ideal_MS"}),
             (Subalgebra.from_generators(crosswise, [crosswise.basis_vector(0)]), crosswise,
              {"is_locally_minimal"}),
             (prime_algebra(bell), bell, {"ideal_MS"})]
    for R, S, scanned in cases:
        calls.clear()
        classify_extension(analyze_extension(R, S))
        assert set(calls) == scanned
        assert all(n == 1 for n in calls.values()), calls
