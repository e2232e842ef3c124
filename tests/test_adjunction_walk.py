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

``lattice.closure`` walks the largest dimension first, and the newest
node among equals, so more T[s] are read off walks already done: the spy
pins the counts this order gives, and the candidate cap still stops F2^9
with the same message.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from l2lab import finitealg, lattice
from l2lab.errors import CapExceeded
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


def count_adjoin(monkeypatch):
    """The list that records each ``adjoin`` the enumeration calls."""
    calls = []

    def counted(T, s):
        calls.append(s)
        return adjoin(T, s)
    monkeypatch.setattr(finitealg, "adjoin", counted)
    return calls


@pytest.mark.parametrize("ident,parent_calls,bound",
                         [("f2[x]/x^8", 3017, 1000), ("f2^6", 1336, 500)])
def test_parent_walk_cuts_adjunctions(monkeypatch, ident, parent_calls, bound):
    """Computing every T[s] takes one ``adjoin`` per point walked:
    ``parent_calls``.  Reading T[s] off the walks takes fewer than
    ``bound``."""
    calls = count_adjoin(monkeypatch)
    S, lat, steps = walk(monkeypatch, NAMED[ident])
    assert len(steps) == parent_calls
    assert len(calls) < bound


@pytest.mark.parametrize("ident,bound", [("f2[x]/x^8", 400), ("f2[x]/x^9", 700)])
def test_largest_dimension_first_cuts_adjunctions(monkeypatch, ident, bound):
    """Walked last in, first out, F2[X]/(X^8) and F2[X]/(X^9) took 714
    and 2,149 ``adjoin`` calls: many V = T'[s] were not walked yet when
    T needed them.  The largest dimension first takes 294 and 619."""
    calls = count_adjoin(monkeypatch)
    walk(monkeypatch, NAMED[ident])
    assert len(calls) < bound


@pytest.mark.parametrize("ident,count", [("f2^6", 300), ("f2^7", 1573)])
def test_newest_first_among_equal_dimensions(monkeypatch, ident, count):
    """Among nodes of one dimension the newest is walked first.  The
    oldest first takes 535 and 2,713 calls here, and 14,243 on F2^8
    against 8,855."""
    calls = count_adjoin(monkeypatch)
    walk(monkeypatch, NAMED[ident])
    assert len(calls) == count


def test_walk_order_keeps_the_candidate_cap_message(monkeypatch):
    monkeypatch.delenv("L2LAB_CAP", raising=False)
    S, R = parse_algebra({"q": 2, "product": ["F2"] * 9, "R": "diagonal"})
    message = "subalgebra enumeration needs at least 100006 adjunctions, cap is 100000"
    with pytest.raises(CapExceeded, match=re.escape(message)):
        enumerate_subalgebras(R, S)
