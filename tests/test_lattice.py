"""The shared Hasse-diagram builder against the definitions, on set families.

``from_edges`` is run on two generating sets per family: the full
up-sets, as the field side passes them, and the covers plus a random
part of the up-sets, which generate the order as the algebra side's
adjunction edges do.  ``hasse_by_pairs``, the pairwise builder it
replaced, is kept here as the oracle; the field and algebra lattices are
compared against it in their own test files.  ``meet`` is checked
against the greatest lower bound found by comparing every node with
every other, on enumerated subalgebra lattices.
"""

import itertools
import random

import pytest

from l2lab.finitealg import enumerate_subalgebras
from l2lab.lattice import Lattice, bits, from_edges, lattice_data, meet
from l2lab.parsing import parse_algebra

FULL = frozenset(range(5))


class SetNode:
    """A subset of {0, ..., 4}, shaped like a lattice node."""

    def __init__(self, elems):
        self.elems = frozenset(elems)
        self.basis = sorted(self.elems)

    @property
    def dim(self):
        return len(self.elems)

    def key(self):
        return (self.dim, tuple(self.basis))


def contains(b, a):
    assert a.dim < b.dim, "hasse_by_pairs asked about a pair it should skip"
    return a.elems <= b.elems


def hasse_by_pairs(nodes, contains):
    """Inclusions, covering pairs and longest chain of nodes sorted by
    key(), asking ``contains(b, a)`` for every pair with a.dim < b.dim."""
    n = len(nodes)
    up = [0] * n
    for i, a in enumerate(nodes):
        for j in range(i + 1, n):
            if a.dim < nodes[j].dim and contains(nodes[j], a):
                up[i] |= 1 << j
    covers = set()
    dist = [0] * n
    for i in range(n):
        above = 0
        for w in bits(up[i]):
            above |= up[w]
        for j in bits(up[i] & ~above):
            covers.add((i, j))
            dist[j] = max(dist[j], dist[i] + 1)
    return Lattice(nodes, up, covers, dist[-1] if nodes else 0)


def down_sets(up):
    """The transpose of ``up``: bit i of ``down[j]`` is set when bit j of
    ``up[i]`` is, that is, when nodes[i] lies strictly inside nodes[j]."""
    down = [0] * len(up)
    for i, above in enumerate(up):
        for j in bits(above):
            down[j] |= 1 << i
    return down


def assert_same_lattice(lat, oracle):
    assert [n.key() for n in lat.nodes] == [n.key() for n in oracle.nodes]
    assert lat.up == oracle.up
    assert lat.covers == oracle.covers and lat.length == oracle.length


def up_sets(nodes):
    return [sum(1 << j for j in range(i + 1, len(nodes)) if a.elems < nodes[j].elems)
            for i, a in enumerate(nodes)]


def sparse_generators(nodes, rng):
    """The covers of each node plus a random part of its up-set."""
    up = up_sets(nodes)
    gen = []
    for i in range(len(nodes)):
        above = 0
        for w in bits(up[i]):
            above |= up[w]
        extra = sum(1 << j for j in bits(above) if rng.random() < 0.3)
        gen.append((up[i] & ~above) | extra)
    return gen


def build(nodes):
    return from_edges(nodes, up_sets(nodes))


def nodes_of(family):
    return sorted((SetNode(s) for s in family), key=SetNode.key)


def naive(nodes):
    """Inclusions, covers (no w strictly between) and the longest chain,
    straight from the definitions."""
    n = len(nodes)
    incl = {(i, j) for i in range(n) for j in range(n)
            if nodes[i].elems < nodes[j].elems}
    covers = {(i, j) for (i, j) in incl
              if not any((i, w) in incl and (w, j) in incl for w in range(n))}

    def longest_from(i):
        return max((1 + longest_from(j) for (a, j) in incl if a == i), default=0)

    return incl, covers, longest_from(0)


def random_family(rng):
    p = rng.choice([0.1, 0.3, 0.6])
    subsets = [frozenset(c) for k in range(1, 5) for c in itertools.combinations(range(5), k)]
    return {frozenset(), FULL} | {s for s in subsets if rng.random() < p}


@pytest.mark.parametrize("seed", range(40))
def test_hasse_matches_definitions(seed):
    rng = random.Random(seed)
    nodes = nodes_of(random_family(rng))
    incl, covers, length = naive(nodes)
    oracle = hasse_by_pairs(nodes, contains)
    for lat in (build(nodes), from_edges(nodes, sparse_generators(nodes, rng)), oracle):
        assert lat.covers == covers
        assert lat.length == length
        assert {(i, j) for i in range(len(nodes)) for j in bits(lat.up[i])} == incl
        down = down_sets(lat.up)
        assert {(i, j) for j in range(len(nodes)) for i in bits(down[j])} == incl
        assert len(lat) == len(nodes)
        assert lat.nodes[0].elems == frozenset() and lat.nodes[-1].elems == FULL
        assert_same_lattice(lat, oracle)


def test_boolean_lattice():
    family = {frozenset(c) for k in range(6) for c in itertools.combinations(range(5), k)}
    lat = build(nodes_of(family))
    assert len(lat) == 32 and lat.length == 5
    assert len(lat.covers) == 5 * 2 ** 4      # each set covered by one fewer element


def test_one_node():
    lat = build(nodes_of([FULL]))
    assert len(lat) == 1 and lat.covers == set() and lat.length == 0
    assert lat.up == [0] and down_sets(lat.up) == [0]


def test_two_nodes():
    lat = build(nodes_of([frozenset(), FULL]))
    assert lat.covers == {(0, 1)} and lat.length == 1
    assert lat.up == [0b10, 0] and down_sets(lat.up) == [0, 0b01]


def test_lattice_data():
    lat = build(nodes_of([frozenset(), {0}, {1}, {0, 1}]))
    data = lattice_data(lat, lambda n: "dim %d" % n.dim, str)
    assert data == {
        "nodes": [{"dim": 0, "label": "dim 0", "basis": []},
                  {"dim": 1, "label": "dim 1", "basis": ["0"]},
                  {"dim": 1, "label": "dim 1", "basis": ["1"]},
                  {"dim": 2, "label": "dim 2", "basis": ["0", "1"]}],
        "covers": [(0, 1), (0, 2), (1, 3), (2, 3)],
        "length": 2,
    }


def glb_by_comparison(nodes, idx):
    """The node below every node of idx that holds every other such node."""
    lower = [i for i, a in enumerate(nodes)
             if all(nodes[j].basis.contains_span(a.basis) for j in idx)]
    greatest = [i for i in lower
                if all(nodes[i].basis.contains_span(nodes[k].basis) for k in lower)]
    assert len(greatest) == 1
    return greatest[0]


@pytest.mark.parametrize("doc", [
    {"q": 2, "product": ["F2"] * 4, "R": "diagonal"},
    {"q": 2, "product": ["F8", "F8"], "R": "diagonal"},
    {"q": 2, "product": ["F4", "F4"], "R": ["(1,0)"]},
    {"q": 2, "quotient": "F2[X,Y]/(X^3,Y^2)", "R": "diagonal"},
    {"q": 3, "quotient": "F3[X,Y]/(X^2,X*Y,Y^2)", "R": "diagonal"},
    {"q": 2, "quotient": "F2[X]/(X^6)", "R": "diagonal"},
], ids=["F2^4", "F8xF8", "F4xF4-crosswise", "F2[X,Y]/(X^3,Y^2)", "F3-copointwise",
        "F2[X]/(X^6)"])
def test_meet_is_the_greatest_lower_bound(doc):
    S, R = parse_algebra(doc)
    lat = enumerate_subalgebras(R, S)
    n = len(lat)
    sets = [[i] for i in range(n)] + [list(c) for c in itertools.combinations(range(n), 2)]
    triples = [list(c) for c in itertools.combinations(range(n), 3)]
    sets += random.Random(n).sample(triples, min(200, len(triples)))
    for idx in sets:
        assert meet(lat, idx) == glb_by_comparison(lat.nodes, idx), idx
    assert meet(lat, range(n)) == 0 and meet(lat, []) == n - 1


def test_meet_without_lower_bound():
    # two incomparable nodes and nothing below them: no meet
    lat = from_edges([SetNode({0}), SetNode({1})], [0, 0])
    assert meet(lat, [0, 1]) is None and meet(lat, [1]) == 1
