"""The per-edge fast paths of the lattice battery against the routes they
replaced, and guards that one cover per orbit runs the checked route and
that every cover gets the type that route gives it.

* The lattice builder ``lattice.closure`` (adjunction edges T -> T[s]
  on the algebra side, meets K -> K & E_beta on the field side) against
  ``hasse_by_pairs``, the pairwise builder, on ``up``, ``down``,
  ``covers`` and ``length``.
* The one-pass chain-type flags against the per-node scan: for every
  node k, the covers with both ends in [R, k] and their types.
* ``_minimal_type_of_pair`` against the Ferrand-Olivier counts (J.
  Algebra 16, 1970): a minimal extension is decomposed iff hi has one
  more primitive idempotent than lo, and otherwise inert iff the reduced
  dimension dim - dim nil grows.  The rule skips every consistency check
  of the production route, so it is only a cross-check here.
* ``cover_types``, which types one cover per orbit of the automorphisms
  of S over R, against ``_minimal_type_of_pair`` run on every cover
  (``types_of_every_cover``).

They run on the named benchmark algebras, the benchmark's seeded random
extensions (seeds 1-60, the golden ones), seeded random algebras over
F_2, F_3 and F_4, seeded random products with repeated factors, the six
benchmark fields, the golden fields and Q(sqrt2, sqrt3, sqrt5).  (The
conductor over lo alone is compared with the full kernel over hi on
every covering edge in test_structure.py.)
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import l2lab.classify as classify
import l2lab.fieldlattice as fieldlattice
from l2lab.classify import (_chain_type_flags, analyze_extension, classify_extension,
                            cover_types)
from l2lab.cli import main
from l2lab.errors import ConsistencyError
from l2lab.fieldlattice import build_lattice
from l2lab.finitealg import (Subalgebra, _minimal_type_of_pair, enumerate_subalgebras,
                             prime_algebra, product_algebra, small_field)
from l2lab.numberfield import make_field
from l2lab.parsing import parse_algebra, parse_polynomial
from l2lab.principal import compute_principal_subfields

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402
from test_golden_reports import FIELD_INPUTS  # noqa: E402
from test_lattice import (assert_same_lattice, build, down_sets, hasse_by_pairs,  # noqa: E402
                          nodes_of, random_family)
from test_structure import (_random_algebra, _random_local_extension,  # noqa: E402
                            closure_by_products)

F2_5 = {"q": 2, "product": ["F2"] * 5, "R": "diagonal"}
F2_X8 = {"q": 2, "quotient": "F2[X]/(X^8)", "R": "diagonal"}
F2_7 = {"q": 2, "product": ["F2"] * 7, "R": "diagonal"}
Q235 = "X^8-40*X^6+352*X^4-960*X^2+576"     # Q(sqrt2, sqrt3, sqrt5): 16 nodes, t = 7


def chain_type_flags_by_scan(lat, types):
    """For each node k, the types of the covers with both ends in [R, k]:
    whether one is not ramified, and whether one is neither ramified nor
    decomposed."""
    not_sub, not_infra = [], []
    down = down_sets(lat.up)
    for k in range(len(lat)):
        inside = down[k] | 1 << k
        ets = [t for (i, j), t in types.items() if inside >> i & 1 and inside >> j & 1]
        not_sub.append(not all(t == "ramified" for t in ets))
        not_infra.append(not all(t in ("ramified", "decomposed") for t in ets))
    return not_sub, not_infra


def type_by_counts(lo, hi):
    """The Ferrand-Olivier type of a minimal extension lo < hi from the
    counts of primitive idempotents and the reduced dimensions."""
    nil_lo, prim_lo, _ = lo.structure()
    nil_hi, prim_hi, _ = hi.structure()
    if len(prim_hi) == len(prim_lo) + 1:
        return "decomposed"
    if hi.dim - len(nil_hi) > lo.dim - len(nil_lo):
        return "inert"
    return "ramified"


def types_of_every_cover(a):
    """The oracle of ``cover_types``: every cover typed by
    ``_minimal_type_of_pair``, with all its checks."""
    nodes = a.lattice.nodes
    return {(i, j): _minimal_type_of_pair(nodes[i], nodes[j]) for i, j in a.lattice.covers}


def check_edges(R, S):
    """Lattice builder, chain-type flags and cover types against their
    oracles on [R, S]; returns the set of cover types seen."""
    a = analyze_extension(R, S)
    lat = a.lattice
    assert_same_lattice(lat, hasse_by_pairs(lat.nodes, Subalgebra.contains_sub))
    types = cover_types(a)
    assert types == types_of_every_cover(a)
    assert _chain_type_flags(lat, types) == chain_type_flags_by_scan(lat, types)
    for (i, j), t in types.items():
        assert type_by_counts(lat.nodes[i], lat.nodes[j]) == t
    return set(types.values())


@pytest.mark.parametrize("seed", range(20))
def test_chain_type_flags_match_scan_on_any_types(seed):
    """On algebra lattices the flags of k are already decided by the
    edges into k (a cover of another type below k forces one into k, by
    Prop 3.5), so the propagation from the lower covers is checked here
    on set families with the types drawn at random."""
    rng = random.Random(seed)
    lat = build(nodes_of(random_family(rng)))
    types = {e: rng.choice(["ramified", "ramified", "decomposed", "inert"])
             for e in lat.covers}
    assert _chain_type_flags(lat, types) == chain_type_flags_by_scan(lat, types)


def _named_documents():
    return [pytest.param(doc, id=ident)
            for ident, doc, _, _ in corpus.ALG_SPLIT + corpus.ALG_LOCAL]


@pytest.mark.parametrize("doc", _named_documents())
def test_edges_match_oracles_on_named_algebras(doc):
    S, R = parse_algebra(doc)
    assert check_edges(R, S)


def test_edges_match_oracles_on_benchmark_random_extensions():
    types = set()
    for seed in range(1, 61):
        for inp in corpus.random_extensions(seed):
            S, R = parse_algebra(json.loads(inp.stdin))
            types |= check_edges(R, S)
    assert types == {"decomposed", "inert", "ramified"}


def test_edges_match_oracles_on_random_algebras():
    rng = random.Random(4970)
    qs = set()
    types = set()
    for _ in range(40):
        R, S = _random_algebra(rng, {2: 5, 3: 4, 4: 3})
        types |= check_edges(R, S)
        qs.add(S.field.q)
    for _ in range(30):
        R, S = _random_local_extension(rng)
        types |= check_edges(R, S)
        qs.add(S.field.q)
    assert qs == {2, 3, 4}
    assert types == {"decomposed", "inert", "ramified"}


@pytest.mark.parametrize("ident,f", [(i, f) for i, f, _, _ in corpus.FIELDS]
                         + [("golden", f) for f in FIELD_INPUTS] + [("q235", Q235)])
def test_field_lattice_matches_pairwise_builder(ident, f, monkeypatch):
    """The closure's order against pairwise inclusion; ``points`` lists
    the E_beta in beta order, and each node that is neither an E_beta nor
    L is built by ``subfield_of_span`` exactly once."""
    ps = compute_principal_subfields(make_field(parse_polynomial(f)))
    real, built = fieldlattice.subfield_of_span, []

    def spy(L, span):
        built.append(span)
        return real(L, span)

    monkeypatch.setattr(fieldlattice, "subfield_of_span", spy)
    lat = build_lattice(ps)
    assert_same_lattice(lat, hasse_by_pairs(lat.nodes, lambda b, a: b.basis.contains_span(a.basis)))
    assert [b for b, _ in lat.points] == list(range(ps.t))
    assert [lat.nodes[j].basis for _, j in lat.points] == [e.basis for e in ps.E]
    given = {e.basis for e in ps.E} | {lat.nodes[-1].basis}
    assert sorted(built) == sorted(K.basis for K in lat.nodes if K.basis not in given)


def test_local_lattices_match_pairwise_builder():
    """The lattice of a two-element support, whose intervals
    ``is_locally_minimal`` reads, and its bottom's points."""
    S, R = parse_algebra({"q": 2, "product": ["F4", "F4"], "R": ["(1,0)"]})
    lat = enumerate_subalgebras(R, S)
    assert_same_lattice(lat, hasse_by_pairs(lat.nodes, Subalgebra.contains_sub))
    assert all(lat.nodes[j] == closure_by_products(S, list(R.basis) + [s])
               for s, j in lat.points)


# ---------------------------------------------------------------------------
# One cover typed per orbit, and every cover's type the checked route's

@pytest.mark.parametrize("doc", [F2_5, F2_X8, F2_7], ids=["f2^5", "f2[x]/x^8", "f2^7"])
def test_every_cover_is_typed_by_the_checked_route(doc):
    """The type ``cover_types`` gives each cover, read off its orbit's
    representative, is the one ``_minimal_type_of_pair`` gives on that
    cover itself."""
    S, R = parse_algebra(doc)
    a = analyze_extension(R, S)
    assert cover_types(a) == types_of_every_cover(a)


def random_product(rng, q, degrees):
    """F_q^degrees with the factors in a random order, over a random R
    (the prime ring when the generators drawn give all of S)."""
    degrees = list(degrees)
    rng.shuffle(degrees)
    S = product_algebra(small_field(q), degrees)
    gens = [tuple(rng.randrange(q) for _ in range(S.dim)) for _ in range(rng.randrange(0, 3))]
    R = Subalgebra.from_generators(S, gens)
    return (prime_algebra(S) if R.is_whole() else R), S


@pytest.mark.parametrize("seed", range(8))
def test_cover_types_match_every_cover_on_random_products(seed):
    """Products with repeated factors, where transpositions of basis
    vectors are automorphisms, and a random R that may break them."""
    rng = random.Random("orbits:%d" % seed)
    cases = [(2, [1, 1, 1, 1, 2, 2]), (3, [1, 1, 1, 1])]
    cases += [(q, [rng.choice([1, 1, 2]) for _ in range(rng.randrange(3, 6))])
              for q in (2, 3)]
    for q, degrees in cases:
        while sum(degrees) > (8 if q == 2 else 5):
            degrees.pop()
        R, S = random_product(rng, q, degrees)
        a = analyze_extension(R, S)
        assert cover_types(a) == types_of_every_cover(a)


@pytest.mark.parametrize("n,typed", [(5, 9), (6, 17), (7, 28)])
def test_one_typing_per_orbit_over_the_diagonal(n, typed, monkeypatch):
    """F2^n over F2: the n - 1 transpositions (0 k) generate the
    symmetric group, and the covers fall into 9, 17 and 28 orbits."""
    calls = []

    def counted(lo, hi):
        calls.append((lo.key(), hi.key()))
        return _minimal_type_of_pair(lo, hi)

    monkeypatch.setattr(classify, "_minimal_type_of_pair", counted)
    S, R = parse_algebra({"q": 2, "product": ["F2"] * n, "R": "diagonal"})
    assert classify._transpositions(R, S) == [(0, k) for k in range(1, n)]
    classify_extension(analyze_extension(R, S))
    assert len(calls) == len(set(calls)) == typed


@pytest.mark.parametrize("doc,kept", [
    ({"q": 2, "product": ["F2"] * 6, "R": ["(1,0,0,0,0,0)"]}, [(1, k) for k in range(2, 6)]),
    ({"q": 2, "product": ["F4", "F4"], "R": ["(1,0)"]}, []),
    ({"q": 2, "product": ["F2", "F2", "F4"], "R": "diagonal"}, [(0, 1)]),
], ids=["f2^6-over-e1", "f4xf4-crosswise", "f2xf2xf4"])
def test_only_automorphisms_over_R_are_kept(doc, kept):
    """An R that breaks the symmetry keeps only the transpositions that
    map it into itself, and the types still equal the oracle's."""
    S, R = parse_algebra(doc)
    assert classify._transpositions(R, S) == kept
    a = analyze_extension(R, S)
    assert cover_types(a) == types_of_every_cover(a)


def test_a_node_image_outside_the_lattice_is_a_consistency_error(monkeypatch, capsys,
                                                                 tmp_path):
    """A table check that lets every transposition through: on
    F2[X]/(X^8), trading X and X^2 maps F2[X^2] to a span that is no
    subalgebra, so no node."""
    monkeypatch.setattr(classify, "_respects_table", lambda S, x, y: True)
    S, R = parse_algebra(F2_X8)
    with pytest.raises(ConsistencyError, match="automorphism check.*no node"):
        cover_types(analyze_extension(R, S))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(F2_X8))
    assert main(["classify", "--json", "--algebra", str(path)]) == 3
    assert "automorphism check" in capsys.readouterr().err


def test_a_cover_image_that_is_no_cover_is_a_consistency_error(monkeypatch):
    """A generator that maps each node to the next one in index order
    permutes no covers."""
    S, R = parse_algebra(F2_5)
    a = analyze_extension(R, S)
    nodes = a.lattice.nodes
    following = {n.basis: nodes[(k + 1) % len(nodes)].basis for k, n in enumerate(nodes)}
    monkeypatch.setattr(classify, "_swapped_span", lambda S, span, x, y: following[span])
    with pytest.raises(ConsistencyError, match="automorphism check.*no cover"):
        cover_types(a)


def automorphism_orbit(S, R, lat, cover):
    """The keys of the images of ``cover`` under every permutation of
    S's basis vectors that is an automorphism of S over R, found by
    trying them all."""
    d = S.dim
    out = set()
    for p in itertools.permutations(range(d)):
        def image(v):
            w = [0] * d
            for k, c in enumerate(v):
                w[p[k]] = c
            return tuple(w)
        if (image(S.unit) != S.unit
                or any(S.table[p[i]][p[j]] != image(S.table[i][j])
                       for i in range(d) for j in range(d))
                or not all(R.member(image(r)) for r in R.basis)):
            continue
        out.add(tuple(S.span([image(r) for r in lat.nodes[k].basis]) for k in cover))
    return out


@pytest.mark.parametrize("doc,wrong", [(F2_5, "inert"), (F2_X8, "decomposed")],
                         ids=["f2^5", "f2[x]/x^8"])
def test_one_wrong_cover_type_is_a_consistency_error(doc, wrong, monkeypatch, capsys,
                                                     tmp_path):
    """The representative of the last cover's orbit, the one cover of
    that orbit that is typed, gets the wrong type."""
    S, R = parse_algebra(doc)
    lat = enumerate_subalgebras(R, S)
    orbit = automorphism_orbit(S, R, lat, max(lat.covers))
    hits = []

    def mistyped(lo, hi):
        right = _minimal_type_of_pair(lo, hi)
        assert right != wrong
        if (lo.basis, hi.basis) in orbit:
            hits.append(hi)
            return wrong
        return right

    monkeypatch.setattr(classify, "_minimal_type_of_pair", mistyped)
    with pytest.raises(ConsistencyError, match="Def 3.4"):
        classify_extension(analyze_extension(R, S))
    assert len(hits) == 1
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--json", "--algebra", str(path)]) == 3
    assert "CONSISTENCY" in capsys.readouterr().err
