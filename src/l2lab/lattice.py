"""The poset [R, S] of intermediate rings, shared by both engines.

The number-field and finite-algebra sides only produce the nodes; this
module builds the Hasse diagram.  Nodes arrive sorted by ``key()``,
dimension first, so a node can only lie inside a later one and index
order is a topological order.  Strict inclusion is kept as int bitsets:
bit j of ``up[i]`` (and bit i of ``down[j]``) is set when nodes[i] is a
proper subring of nodes[j].
"""


class Lattice:
    def __init__(self, nodes, up, down, covers, length):
        self.nodes = nodes          # sorted by key(): bottom first, top last
        self.up = up
        self.down = down
        self.covers = covers        # set of (i, j): nodes[i] covered by nodes[j]
        self.length = length        # edges on the longest chain, bottom to top

    @property
    def bottom(self):
        return self.nodes[0]

    @property
    def top(self):
        return self.nodes[-1]

    def __len__(self):
        return len(self.nodes)


def bits(x):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def hasse(nodes, contains):
    """Inclusions, covering pairs and longest chain of nodes sorted by key().

    ``contains(b, a)`` decides whether node b contains node a; it is only
    asked when a.dim < b.dim.
    """
    n = len(nodes)
    up = [0] * n
    down = [0] * n
    for i, a in enumerate(nodes):
        for j in range(i + 1, n):
            if a.dim < nodes[j].dim and contains(nodes[j], a):
                up[i] |= 1 << j
                down[j] |= 1 << i
    covers = set()
    dist = [0] * n
    for i in range(n):
        above = 0
        for w in bits(up[i]):
            above |= up[w]
        for j in bits(up[i] & ~above):
            covers.add((i, j))
            dist[j] = max(dist[j], dist[i] + 1)
    return Lattice(nodes, up, down, covers, dist[-1] if nodes else 0)


def lattice_data(lat, label, basis_str):
    """The frozen JSON ``lattice`` object of a report."""
    nodes = [{"dim": n.dim, "label": label(n), "basis": [basis_str(b) for b in n.basis]}
             for n in lat.nodes]
    return {"nodes": nodes, "covers": sorted(lat.covers), "length": lat.length}
