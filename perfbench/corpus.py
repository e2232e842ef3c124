"""Benchmark inputs: the named corpus, the seeded random extensions, and
the independent checks their reports must pass.

Every named input carries the lattice size (`count_observed`) and, where
theory fixes it, the `length` that its report must show.  These values
are written by hand from the mathematics, never produced by l2lab:

* the diagonal F_2 < F_2^n has the partition lattice of an n-set, with
  B_n nodes (Bell numbers B5 = 52, B6 = 203) and rank n - 1;
* F_2 < F_64 has one node per divisor of 6, d(6) = 4, and length 2;
* F_8 x F_8 over F_2 has 4 split subalgebras B1 x B2 (Bi in {F2, F8}),
  the diagonal F_2, and 3 glued copies {(x, s(x))} of F_8, s in Gal;
* the co-pointwise plane F_q[X,Y]/(X^2,XY,Y^2) has q + 3 nodes;
* the six fields have 3, 5, 2, 6, 4 and 4 subfields.

The random extensions follow the recipe of the acceptance suite's
property test (dimension 2 to 4, random generators for R) and are
emitted as explicit structure-constant documents, so the benchmark's own
brute-force enumeration below can check them without l2lab.
"""

import json
import random

FIELDS = [
    # (id, polynomial, count_observed, length)
    ("x4-2", "X^4-2", 3, 2),
    ("x4-10x2+1", "X^4-10*X^2+1", 5, 2),
    ("x3-3x+1", "X^3-3*X+1", 2, 1),
    ("x6+108", "X^6+108", 6, 2),
    ("x6-2", "X^6-2", 4, 2),
    ("x8-2", "X^8-2", 4, 3),
]

ALG_SPLIT = [
    # (id, algebra document, count_observed or None, length or None)
    ("f2^6", {"q": 2, "product": ["F2"] * 6, "R": "diagonal"}, 203, 5),
    ("f2^5", {"q": 2, "product": ["F2"] * 5, "R": "diagonal"}, 52, 4),
    ("f8xf8", {"q": 2, "product": ["F8", "F8"], "R": "diagonal"}, 8, 3),
    ("f64", {"q": 2, "product": ["F64"], "R": "diagonal"}, 4, 2),
    ("f2xf4", {"q": 2, "product": ["F2", "F4"], "R": "diagonal"}, 3, 2),
    ("f4xf4-crosswise", {"q": 2, "product": ["F4", "F4"], "R": ["(1,0)"]}, 4, 2),
]

ALG_LOCAL = [
    ("f2[x]/x^8", {"q": 2, "quotient": "F2[X]/(X^8)", "R": "diagonal"}, None, None),
    ("f3[x]/x^5", {"q": 3, "quotient": "F3[X]/(X^5)", "R": "diagonal"}, None, None),
    ("f4[x]/x^4", {"q": 4, "quotient": "F4[X]/(X^4)", "R": "diagonal"}, None, None),
    ("f2[x,y]/(x^3,y^2)", {"q": 2, "quotient": "F2[X,Y]/(X^3,Y^2)", "R": "diagonal"},
     None, None),
    ("f3-copointwise", {"q": 3, "quotient": "F3[X,Y]/(X^2,X*Y,Y^2)", "R": "diagonal"},
     6, 2),
    ("f2-spir", {"q": 2, "quotient": "F2[T,Y]/(T^2,Y^2+Y)", "R": ["T"]}, 3, 2),
    ("f4[x]/x^2-over-x", {"q": 2, "quotient": "F2[U,X]/(U^2+U+1,X^2)", "R": ["X"]},
     3, 2),
]

WORKLOADS = ("fields", "alg-split", "alg-local")
RANDOM_EXTENSIONS = 3


class Input:
    """One CLI invocation: its id, arguments, stdin and expected values."""

    def __init__(self, ident, argv, stdin=None, count=None, length=None,
                 oracle=None):
        self.id = ident
        self.argv = argv
        self.stdin = stdin
        self.count = count
        self.length = length
        self.oracle = oracle    # (count, length, node dims) of a random input

    @property
    def named(self):
        return self.oracle is None


def _algebra_input(ident, doc, count=None, length=None, oracle=None):
    return Input(ident, ["classify", "--json", "--algebra", "-"],
                 json.dumps(doc, sort_keys=True).encode(), count, length, oracle)


def named_inputs(workload):
    if workload == "fields":
        return [Input(i, ["classify", "--json", f], None, c, n)
                for i, f, c, n in FIELDS]
    table = {"alg-split": ALG_SPLIT, "alg-local": ALG_LOCAL}[workload]
    return [_algebra_input(i, d, c, n) for i, d, c, n in table]


def workload_inputs(workload, seed):
    """The inputs of one pass, in the order the seed gives."""
    inputs = named_inputs(workload)
    if workload != "fields":
        inputs += random_extensions(seed)
    random.Random("order:%d" % seed).shuffle(inputs)
    return inputs


# ---------------------------------------------------------------------------
# Random extensions: the acceptance suite's recipe over the prime fields
# F_2, F_3, written out as structure constants.

_QUADRATIC_TAIL = {2: (1, 1), 3: (1, 0)}   # u^2 = a + b*u: u^2+u+1, u^2+1


def _product_table(q, degrees):
    d = sum(degrees)
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    unit = [0] * d
    off = 0
    for k in degrees:
        unit[off] = 1
        table[off][off][off] = 1
        if k == 2:
            u = off + 1
            table[off][u][u] = table[u][off][u] = 1
            a, b = _QUADRATIC_TAIL[q]
            table[u][u][off] = a
            table[u][u][u] = b
        off += k
    return table, unit


def _monomial_quotient_table(exps, extra_y):
    # basis 1, x, ..., x^(a-1) [, y] for F_q[x(,y)]/(x^a(, xy, y^2))
    a = exps
    d = a + (1 if extra_y else 0)
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(a):
        for j in range(a):
            if i + j < a:
                table[i][j][i + j] = 1
    if extra_y:
        y = a
        table[0][y][y] = table[y][0][y] = 1
    unit = [0] * d
    unit[0] = 1
    return table, unit


def _random_table(rng):
    q = rng.choice([2, 2, 3])
    kind = rng.randrange(3)
    if kind == 0:
        degrees = [rng.choice([1, 1, 2]) for _ in range(rng.randrange(2, 4))]
        while sum(degrees) > 4:
            degrees.pop()
        table, unit = _product_table(q, degrees or [1])
    elif kind == 1:
        table, unit = _monomial_quotient_table(rng.choice([2, 3]), True)
    else:
        table, unit = _monomial_quotient_table(rng.choice([2, 3, 4]), False)
    return q, table, unit


def random_extensions(seed, count=RANDOM_EXTENSIONS):
    rng = random.Random("extensions:%d" % seed)
    out = []
    while len(out) < count:
        q, table, unit = _random_table(rng)     # dimension 2 to 4
        d = len(unit)
        gens = [tuple(rng.randrange(q) for _ in range(d))
                for _ in range(rng.randrange(0, 3))]
        alg = BruteAlgebra(q, table, unit)
        if len(alg.closure(gens)) == q ** d:
            gens = []                      # R would be S: use the prime ring
        doc = {"q": q, "table": {"unit": unit, "table": table},
               "R": ["(%s)" % ",".join(map(str, g)) for g in gens] or "diagonal"}
        out.append(_algebra_input("random-%d-%d" % (seed, len(out)), doc,
                                  oracle=alg.lattice_summary(gens)))
    return out


class BruteAlgebra:
    """A commutative F_q-algebra (q prime) given by structure constants,
    with subalgebras as explicit element sets."""

    def __init__(self, q, table, unit):
        self.q = q
        self.table = table
        self.unit = tuple(unit)
        self.dim = len(unit)

    def mul(self, u, v):
        out = [0] * self.dim
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        c = ui * vj
                        for k, t in enumerate(self.table[i][j]):
                            if t:
                                out[k] += c * t
        return tuple(x % self.q for x in out)

    def closure(self, gens):
        """The element set of the subalgebra generated by gens and 1."""
        q = self.q
        elems = {tuple([0] * self.dim)}
        basis = []
        pending = [self.unit] + list(gens)
        while pending:
            for g in pending:
                if g not in elems:
                    basis.append(g)
                    elems = {tuple((a + c * b) % q for a, b in zip(e, g))
                             for e in elems for c in range(q)}
            pending = [self.mul(a, b) for a in basis for b in basis]
            pending = [p for p in pending if p not in elems]
        return frozenset(elems)

    def lattice_summary(self, gens):
        """(node count, longest chain, sorted node dimensions) of [R, S]."""
        bottom = self.closure(gens)
        whole = self.closure([tuple(int(i == k) for i in range(self.dim))
                              for k in range(self.dim)])
        found = {bottom: list(gens)}
        todo = [bottom]
        while todo:
            A = todo.pop()
            for s in whole - A:
                B = self.closure(found[A] + [s])
                if B not in found:
                    found[B] = found[A] + [s]
                    todo.append(B)
        nodes = sorted(found, key=len)
        chain = {}
        for A in nodes:
            chain[A] = max([chain[B] + 1 for B in nodes if B < A] or [0])
        dims = sorted(_log(len(A), self.q) for A in nodes)
        return len(nodes), chain[whole], dims


def _log(n, q):
    k = 0
    while n > 1:
        n //= q
        k += 1
    return k
