"""The poset [R, S] of intermediate rings, shared by both engines.

The number-field and finite-algebra sides only produce the nodes and,
for each node, some nodes above it; this module builds the Hasse
diagram.  Nodes arrive sorted by ``key()``, dimension first, so a node
can only lie inside a later one and index order is a topological order.
Strict inclusion is kept as int bitsets: bit j of ``up[i]`` is set
when nodes[i] is a proper subring of nodes[j].

``from_edges`` takes, for each node i, a bitset ``gen[i]`` of nodes
above it that generates the order: the nodes above i are those of
gen[i] and the nodes above them.  The finite-algebra side passes the
adjunction edges T -> T[s]; every node above T is reached by a chain of
them.  The field side passes the full up-sets from pairwise inclusion,
which generate the order trivially.  Every cover i < j lies in any
generating set of i (j is above i, and not above any node above i), so
the covers of i are the j in gen[i] above no other node of gen[i].
``meet`` reads greatest lower bounds off the finished up-sets.
"""


class Lattice:
    def __init__(self, nodes, up, covers, length):
        self.nodes = nodes          # sorted by key(): bottom first, top last
        self.up = up
        self.covers = covers        # set of (i, j): nodes[i] covered by nodes[j]
        self.length = length        # edges on the longest chain, bottom to top
        # finite-algebra side: (s, index of R[s]) for one s per point of
        # the projective space of S/R, R the bottom; None on the field side
        self.points = None

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

    ``up`` is filled from the top, with the covers of i (the j in gen[i]
    outside the up-sets of gen[i]) and the longest chain upwards from i.
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
