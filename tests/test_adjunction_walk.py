"""The parent-walk rule of ``finitealg.enumerate_subalgebras`` against
computing every adjunction.

The enumeration reads most T[s] off the walk of T's parent or of
another node instead of calling ``adjoin``.  A spy on ``closure``
records every (T, s, span) the walk hands it, read or computed, and each
span must be ``adjoin(T, s)`` and the multiplicative closure
``closure_by_products`` of T and s.  Every node is walked once, over
every point of S/T, and every span handed on is the one object the
lattice keeps for its node.  The inputs are the named ``alg-split`` and
``alg-local`` benchmark algebras, F2^7, F2[X]/(X^9), F3[X]/(X^6),
F3 x F9 x F3 and the random extensions of seeds 1-40.  A spy on ``adjoin`` counts the
adjunctions still computed.
"""

import json
import sys
from pathlib import Path

import pytest

from l2lab import finitealg, lattice
from l2lab.finitealg import adjoin, enumerate_subalgebras
from l2lab.parsing import parse_algebra

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402
from test_structure import closure_by_products, projective_points  # noqa: E402

NAMED = {ident: doc for ident, doc, _, _ in corpus.ALG_SPLIT + corpus.ALG_LOCAL}
NAMED.update({
    "f2^7": {"q": 2, "product": ["F2"] * 7, "R": "diagonal"},
    "f2[x]/x^9": {"q": 2, "quotient": "F2[X]/(X^9)", "R": "diagonal"},
    "f3[x]/x^6": {"q": 3, "quotient": "F3[X]/(X^6)", "R": "diagonal"},
    # one T[s] here is read off a walk at a residue that is 2 at its
    # first nonzero column, so it is scaled before it is looked up
    "f3xf9xf3": {"q": 3, "product": ["F3", "F9", "F3"], "R": "diagonal"},
})
RANDOM = {inp.id: json.loads(inp.stdin)
          for seed in range(1, 41) for inp in corpus.random_extensions(seed)}


def walk(monkeypatch, doc):
    """The lattice of a document and every (T, s, span of T[s]) of its
    walk, in the order ``closure`` receives them."""
    S, R = parse_algebra(doc)
    steps = []

    def recording_closure(root, step, make):
        def recorded(T):
            for s, span in step(T):
                steps.append((T, s, span))
                yield s, span
        return lattice.closure(root, recorded, make)

    monkeypatch.setattr(finitealg, "closure", recording_closure)
    return S, enumerate_subalgebras(R, S), steps


@pytest.mark.parametrize("doc", list(NAMED.values()) + list(RANDOM.values()),
                         ids=list(NAMED) + list(RANDOM))
def test_every_walked_adjunction_is_computed_right(monkeypatch, doc):
    S, lat, steps = walk(monkeypatch, doc)
    kept = {id(T.basis) for T in lat.nodes}
    points = {}
    for T, s, span in steps:
        points.setdefault(id(T), []).append(s)
        assert id(span) in kept
        gens = list(T.basis) + [s]
        assert span == adjoin(T, s).basis == closure_by_products(S, gens).basis
    assert set(points) == {id(T) for T in lat.nodes[:-1]}
    for T in lat.nodes[:-1]:
        assert sorted(points[id(T)]) == sorted(projective_points(T))


@pytest.mark.parametrize("ident,parent_calls,bound",
                         [("f2[x]/x^8", 3017, 1000), ("f2^6", 1336, 500)])
def test_parent_walk_cuts_adjunctions(monkeypatch, ident, parent_calls, bound):
    """Computing every T[s] takes one ``adjoin`` per point walked:
    ``parent_calls``.  Reading T[s] off the walks takes fewer than
    ``bound``."""
    calls = []

    def counted(T, s):
        calls.append(s)
        return adjoin(T, s)
    monkeypatch.setattr(finitealg, "adjoin", counted)
    S, lat, steps = walk(monkeypatch, NAMED[ident])
    assert len(steps) == parent_calls
    assert len(calls) < bound
