"""The shared Hasse-diagram builder against the definitions, on set families."""

import itertools
import random

import pytest

from l2lab.lattice import bits, hasse, lattice_data

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
    assert a.dim < b.dim, "hasse asked about a pair it should skip"
    return a.elems <= b.elems


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
    nodes = nodes_of(random_family(random.Random(seed)))
    lat = hasse(nodes, contains)
    incl, covers, length = naive(nodes)
    assert lat.covers == covers
    assert lat.length == length
    assert {(i, j) for i in range(len(nodes)) for j in bits(lat.up[i])} == incl
    assert {(i, j) for j in range(len(nodes)) for i in bits(lat.down[j])} == incl
    assert len(lat) == len(nodes)
    assert lat.bottom.elems == frozenset() and lat.top.elems == FULL


def test_boolean_lattice():
    family = {frozenset(c) for k in range(6) for c in itertools.combinations(range(5), k)}
    lat = hasse(nodes_of(family), contains)
    assert len(lat) == 32 and lat.length == 5
    assert len(lat.covers) == 5 * 2 ** 4      # each set covered by one fewer element


def test_one_node():
    lat = hasse(nodes_of([FULL]), contains)
    assert len(lat) == 1 and lat.covers == set() and lat.length == 0
    assert lat.up == [0] and lat.down == [0]


def test_two_nodes():
    lat = hasse(nodes_of([frozenset(), FULL]), contains)
    assert lat.covers == {(0, 1)} and lat.length == 1
    assert lat.up == [0b10, 0] and lat.down == [0, 0b01]


def test_lattice_data():
    lat = hasse(nodes_of([frozenset(), {0}, {1}, {0, 1}]), contains)
    data = lattice_data(lat, lambda n: "dim %d" % n.dim, str)
    assert data == {
        "nodes": [{"dim": 0, "label": "dim 0", "basis": []},
                  {"dim": 1, "label": "dim 1", "basis": ["0"]},
                  {"dim": 1, "label": "dim 1", "basis": ["1"]},
                  {"dim": 2, "label": "dim 2", "basis": ["0", "1"]}],
        "covers": [(0, 1), (0, 2), (1, 3), (2, 3)],
        "length": 2,
    }
