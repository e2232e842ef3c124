"""The poset [R, S] of intermediate rings, shared by both engines.

``closure`` builds it for both: a worklist from one ring under a step
map (T -> T[s] on the algebra side, K -> K & E_beta on the field side)
whose pairs generate the order, handed to ``from_edges`` as bitsets.
The worklist pops the largest dimension first, and the newest node among
equals.  Any pop order gives the same lattice: a node is pushed while
the node that first reaches it is walked, so it is popped after that
walk is complete (the one property the algebra side's reuse of walks
needs), and ``from_edges`` reads the nodes in ``key()`` order, not in
pop order.  This order lets an adjunction walk find more of the larger
nodes it reads already walked.
Nodes are sorted by ``key()``, dimension first, so a node can only lie
inside a later one and index order is topological.  Strict inclusion
is kept as int bitsets: bit j of ``up[i]`` is set when nodes[i] is a
proper subring of nodes[j].  ``meet`` reads greatest lower bounds off
the up-sets.
"""


class Lattice:
    def __init__(self, nodes, up, covers, length):
        self.nodes = nodes          # sorted by key(): bottom first, top last
        self.up = up
        self.covers = covers        # set of (i, j): nodes[i] covered by nodes[j]
        self.length = length        # edges on the longest chain, bottom to top
        self.points = None          # the root's walk, set by closure

    def __len__(self):
        return len(self.nodes)


def bits(x):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def from_edges(nodes, gen):
    """Inclusions, covering pairs and longest chain of nodes sorted by
    key(), from generating bitsets: ``gen[i]`` holds only nodes after i,
    and the nodes above i are those of gen[i] and the nodes above them.

    ``up`` is filled from the top.  A cover i < j lies in every
    generating set of i, so the covers of i are the j in gen[i] outside
    the up-sets of gen[i]; the longest chain is counted along them.
    """
    n = len(nodes)
    up = [0] * n
    height = [0] * n
    covers = set()
    for i in reversed(range(n)):
        above = 0
        for j in bits(gen[i]):
            above |= up[j]
        up[i] = gen[i] | above
        for j in bits(gen[i] & ~above):
            covers.add((i, j))
            height[i] = max(height[i], height[j] + 1)
    return Lattice(nodes, up, covers, height[0] if nodes else 0)


def closure(root, step, make):
    """The lattice of the nodes reached from ``root`` by ``step``.

    ``step(T)`` yields (label, span) pairs, each span that of a node
    comparable with T; ``make(span)`` builds the node when its span, as
    ``key()`` (len(span), span), is new.  The caller must make the pairs
    (T, node) generate the order: of two comparable nodes, one is
    reached from the other by a chain of pairs.  Each pair but (T, T) is
    an edge from the node earlier in key order to the later; ``points``
    is the root's walk, (label, index of the node).  Nodes are walked
    largest dimension first, newest first among equals, from one stack
    per dimension.
    """
    found = {root.key(): root}
    pairs, points = set(), []
    todo = {}                   # dimension -> the nodes queued at it, newest last
    T = root
    while T is not None:
        for label, span in step(T):
            key = (len(span), span)
            node = found.get(key)
            if node is None:
                node = found[key] = make(span)
                todo.setdefault(key[0], []).append(node)
            if node is not T:
                pairs.add((id(T), id(node)))
            if T is root:
                points.append((label, id(node)))
        T = None
        if todo:
            dim = max(todo)
            T = todo[dim].pop()
            if not todo[dim]:
                del todo[dim]
    nodes = sorted(found.values(), key=lambda T: T.key())
    position = {id(T): i for i, T in enumerate(nodes)}
    gen = [0] * len(nodes)
    for a, b in pairs:
        i, j = sorted((position[a], position[b]))
        gen[i] |= 1 << j
    lat = from_edges(nodes, gen)
    lat.points = [(label, position[u]) for label, u in points]
    return lat


def meet(lat, idx):
    """The greatest node below every node of ``idx`` (indices): the last
    common lower bound in index order, which is topological.  The top for
    an empty ``idx``, None when no node lies below them all."""
    mask = sum(1 << j for j in set(idx))
    return next((i for i in reversed(range(len(lat)))
                 if (lat.up[i] | 1 << i) & mask == mask), None)


def lattice_data(lat, label, basis_str):
    """The frozen JSON ``lattice`` object of a report."""
    nodes = [{"dim": n.dim, "label": label(n), "basis": [basis_str(b) for b in n.basis]}
             for n in lat.nodes]
    return {"nodes": nodes, "covers": sorted(lat.covers), "length": lat.length}
