"""Length-2 classification of finite integral extensions R < S over F_q.

The analysis computes the canonical decomposition
R <= seminormalization <= t-closure <= S, the support, and the full
lattice [R, S] (enumerated by one-element adjunctions).  One walk then
goes down the exhaustive case list (trivial; minimal; support of three
or more; two-element support; and with one crucial ideal M: t-closure
proper; t-closed, which reduces to a residue field extension; and the
infra-integral cases, seminormal, seminormalization proper and
subintegral) and evaluates each applicable theorem once.  That one
value is both the theorem's entry in the predicate battery of the
report and what the case label and the predicted count are read from.
A battery entry that fails against the enumeration, or a check that
only its case makes, raises ConsistencyError, which the command line
reports as exit code 3.  The subintegral "some / every x" questions
read R[s] once per point s of S/R; no element is listed.  A cover's
type is read off one cover of its orbit under the automorphisms of S
over R (``cover_types``).
"""

from .errors import ConsistencyError
from .exact import intersection, prime_factors
from .finitealg import (
    Subalgebra, _minimal_type_of_pair, conductor,
    crucial_ideal, enumerate_subalgebras, is_simple_extension,
    maximal_ideals, maximal_ideals_over, msupp, primitive_idempotents, radical,
    seminormalize, t_close,
)


class ExtensionAnalysis:
    """Everything computed about one extension R < S."""

    def __init__(self, R, S):
        self.R = R
        self.S = S
        self.lattice = enumerate_subalgebras(R, S)
        self.whole = self.lattice.nodes[-1]      # S, the top node
        self.count = len(self.lattice)
        self.length = self.lattice.length
        self.conductor = conductor(R, self.whole)
        self.max_R = maximal_ideals(R)
        self.max_S = maximal_ideals(self.whole)
        self.support = msupp(R, self.whole, self.conductor)
        self.crucial = (crucial_ideal(R, self.conductor, self.support)
                        if len(self.support) == 1 else None)
        self.seminormalization = seminormalize(R, self.whole)
        self.t_closure = t_close(R, self.whole)
        _check_canonical_decomposition(self)

    @property
    def is_trivial(self):
        return self.R.is_whole()

    @property
    def is_minimal(self):
        return self.count == 2

    def residue_size(self, M):
        return self.S.field.q ** (self.R.dim - M.dim)


def _check_canonical_decomposition(a):
    P, T = a.seminormalization, a.t_closure
    if not (P.contains_sub(a.R) and T.contains_sub(P)):
        raise ConsistencyError("canonical decomposition order violated")


def ideal_MS(a):
    """The extension ideal M*S for the crucial maximal ideal M: the span
    of the products m*b, m in M and b in a basis of S, in one pass.  That
    span is an ideal of S already: S contains 1, so it contains M, and S
    is closed under multiplication, so s*(m*b) = m*(s*b) lies in it."""
    S = a.S
    return S.span([S.mul(m, b) for m in a.crucial for b in a.whole.basis])


def module_length_at(a, V):
    """Composition length over R of the module V/M, for the crucial
    ideal M and an ideal V of S that contains it.

    Uses the M-adic filtration; every layer is an R/M-vector space, so
    its length is an exact dimension ratio.
    """
    S = a.S
    M = a.crucial
    resdim = a.R.dim - M.dim
    cur = V
    total = 0
    guard = 0
    while len(cur) != len(M):
        nxt = S.span([S.mul(m, v) for m in M for v in cur] + list(M))
        layer = len(cur) - len(nxt)
        if layer % resdim != 0:
            raise ConsistencyError("module layer is not an R/M-vector space")
        total += layer // resdim
        cur = nxt
        guard += 1
        if guard > S.dim + 1:
            raise ConsistencyError("module is not supported only at M")
    return total


def is_locally_minimal(a):
    """R_M < S_M is minimal for every M in MSupp(S/R): the interval
    [``local_base(a, M)``, S] of the lattice has two nodes, that is,
    S is the only node above the local base."""
    lat = a.lattice
    bases = [local_base(a, M) for M in a.support]
    if any(T not in lat.nodes for T in bases):
        raise ConsistencyError("local base is not a node of the lattice")
    return all(lat.up[lat.nodes.index(T)] == 1 << (len(lat) - 1) for T in bases)


def local_base(a, M):
    """R + (1-e)S, for the primitive idempotent e of R outside M, whose
    interval in S is [R_M, S_M].

    S is the product eS x (1-e)S, and R_M < S_M is eR < eS.  A ring
    between R + (1-e)S and S is eT x (1-e)S with eR <= eT <= eS, so
    T |-> eT maps [R + (1-e)S, S] onto [R_M, S_M]."""
    S = a.S
    e = next((e for e in primitive_idempotents(a.R) if not M.contains(e)), None)
    if e is None:
        raise ConsistencyError("no primitive idempotent outside M")
    f = S.field.ops.sub(S.unit, 1, e)
    return Subalgebra(S, a.R.basis.extend([S.mul(f, b) for b in a.whole.basis]))


def is_copointwise_minimal(a):
    """R[x] < S is minimal for every x outside R: every R[s], one per
    point s of S/R as the enumeration walked them, is a coatom of [R, S]
    (so none is S itself)."""
    lat = a.lattice
    top = 1 << (len(lat) - 1)
    return all(lat.up[j] == top for _, j in lat.points)


def copointwise_shape_check(a, ms, N):
    """Prop-2.4-style structural test for the subintegral co-pointwise case:
    M*S = M and S/M isomorphic to k[X,Y]/(X^2, XY, Y^2).  ``ms`` is M*S
    (``ideal_MS``) and ``N`` its radical, so once M*S = M, N/M is the
    nilradical of S/M."""
    M = a.crucial
    S = a.S
    if ms != M:
        return False
    resdim = a.R.dim - M.dim
    if S.dim - M.dim != 3 * resdim:
        return False
    if len(N) - M.dim != 2 * resdim:
        return False
    return all(M.contains(S.mul(u, v)) for u in N for v in N)


def cover_types(a):
    """Minimal-extension type of every covering edge of the lattice, with
    one cover typed per orbit of the automorphisms of S over R that
    ``_transpositions`` finds.

    Let g be an F_q-linear ring automorphism of S with g(R) = R.  It maps
    a ring R <= T <= S to the ring g(T), again in [R, S], and keeps
    inclusion both ways, so it permutes the nodes and maps a cover
    lo < hi to the cover g(lo) < g(hi).  It carries the conductor
    (lo : hi) to (g(lo) : g(hi)), Max(lo) to Max(g(lo)), the ideals of hi
    over M to those of g(hi) over g(M), and N^2 <= M to g(N)^2 <= g(M),
    and keeps every dimension over F_q.  So each check of
    ``_minimal_type_of_pair`` reads the same on both covers, and they
    have one type.  The covers are taken in order; the first of an orbit
    is typed with all the checks, and a walk from it through the images
    under the generators gives its type to the rest of the orbit.  With
    no generator each cover is its own orbit.  Every image is looked up:
    a node image that is not a node, or a cover image that is not a
    cover, is a consistency error, as the generator is then no
    automorphism.
    """
    nodes, covers = a.lattice.nodes, a.lattice.covers
    index = {n.basis: k for k, n in enumerate(nodes)}
    images = []
    for x, y in _transpositions(a.R, a.S):
        image = [index.get(_swapped_span(a.S, n.basis, x, y)) for n in nodes]
        if None in image:
            raise ConsistencyError("automorphism check: swapping basis vectors %d and %d "
                                   "maps a node of [R, S] to no node" % (x, y))
        images.append(image)
    types = {}
    for c in sorted(covers):
        if c in types:
            continue
        t = types[c] = _minimal_type_of_pair(nodes[c[0]], nodes[c[1]])
        orbit = [c]
        while orbit:
            i, j = orbit.pop()
            for image in images:
                d = (image[i], image[j])
                if d not in types:
                    if d not in covers:
                        raise ConsistencyError("automorphism check: a generator maps "
                                               "a cover to no cover")
                    types[d] = t
                    orbit.append(d)
    return types


def _transpositions(R, S):
    """Transpositions (x y) of S's basis vectors that are automorphisms of
    S over R: each fixes the unit, respects the structure constants
    (``_respects_table``) and maps every row of R's basis into R.  (A
    bijection that respects products fixes 1 anyway; comparing the unit's
    entries only rejects most transpositions of a quotient's monomials
    first.)  Only a
    transposition that joins two classes of the ones kept so far is
    tried, so at most dim S - 1 are returned; as transpositions generate
    the symmetric group of each class they connect, these generate the
    group that all the passing transpositions generate."""
    label = list(range(S.dim))
    out = []
    for x in range(S.dim):
        for y in range(x + 1, S.dim):
            if (label[x] != label[y] and S.unit[x] == S.unit[y]
                    and _respects_table(S, x, y)
                    and all(R.member(_swap(r, x, y)) for r in R.basis)):
                label = [label[x] if k == label[y] else k for k in label]
                out.append((x, y))
    return out


def _swap(v, x, y):
    w = list(v)
    w[x], w[y] = v[y], v[x]
    return tuple(w)


def _swapped_span(S, span, x, y):
    """The image of ``span`` when basis vectors x and y of S trade
    places: the span itself when every row agrees at x and y."""
    if all(r[x] == r[y] for r in span):
        return span
    return S.span([_swap(r, x, y) for r in span])


def _respects_table(S, x, y):
    """Whether trading basis vectors x and y of S maps each product
    table[i][j] to the product of the images, table[p(i)][p(j)]."""
    p = list(range(S.dim))
    p[x], p[y] = y, x
    T = S.table
    return all(T[p[i]][p[j]] == _swap(T[i][j], x, y)
               for i in range(S.dim) for j in range(i, S.dim))


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def analyze_extension(R, S):
    return ExtensionAnalysis(R, S)


def classify_extension(a):
    """Theorem 3.19 verdict for the finite-algebra engine.

    Returns a dict with the case label, predicted and observed counts,
    the predicate battery and the witnesses; raises ConsistencyError when
    a prediction and the enumerated lattice disagree.
    """
    out = {
        "engine": "finite-algebra",
        "count_observed": a.count,
        "length": a.length,
        "support_size": len(a.support),
        "minimal": a.is_minimal,
    }
    out["predicates"] = check_length_two_predicates(a, out)
    pred = out.get("count_predicted")
    if pred is not None and pred != a.count:
        raise ConsistencyError("predicted count %s != observed %d" % (pred, a.count))
    out["witnesses"] = _witnesses(a)
    return out


def _witnesses(a):
    S = a.S
    def ideal_str(I):
        return [S.element_str(b) for b in I]
    w = {
        "R_basis": [S.element_str(b) for b in a.R.basis],
        "conductor": ideal_str(a.conductor),
        "max_R": [ideal_str(M) for M in a.max_R],
        "max_S": [ideal_str(N) for N in a.max_S],
        "support": [ideal_str(M) for M in a.support],
        "seminormalization": [S.element_str(b) for b in a.seminormalization.basis],
        "t_closure": [S.element_str(b) for b in a.t_closure.basis],
    }
    if a.crucial is not None:
        w["crucial_ideal"] = ideal_str(a.crucial)
    return w


# ---------------------------------------------------------------------------
# The walk down the case list: the predicate battery (each entry: name,
# applicable, holds, details) and the case verdict in one pass

def check_length_two_predicates(a, out):
    """Walk the case list once and return the predicate battery.

    Each applicable theorem is evaluated once; its value becomes its
    battery entry and sets the verdict fields of ``out`` (case,
    count_predicted and the case's own flags).  A check that only one
    case makes raises at once; a battery entry that is applicable but
    fails raises at the end of the walk, the first in battery order.
    """
    checks = []
    l2 = a.length == 2

    def entry(name, holds, details=None, applicable=True):
        checks.append({"name": name, "applicable": applicable, "holds": holds,
                       "details": {} if details is None else details})

    entry("Prop 2.3: length 2 => |Supp| <= 2", (not l2) or len(a.support) <= 2,
          applicable=l2)
    entry("Thm 2.1: length 2 <=> minimal pair <=> co-minimal pair",
          _theorem_2_1_dual_path(a), applicable=not a.is_trivial and not a.is_minimal)
    types = cover_types(a)
    if not a.is_trivial:
        entry("Def 3.4 / Prop 3.5: closures are extremal for their chain types",
              _closure_extremality(a, types))

    if a.is_trivial:
        out["case"] = "trivial (R = S)"
        out["count_predicted"] = 1
    elif a.is_minimal:
        out["minimal_type"] = types[(0, 1)]
        out["case"] = "not length 2 (minimal extension)"
        out["count_predicted"] = 2
    elif len(a.support) >= 3:
        out["case"] = "not length 2"
    elif len(a.support) == 2:
        lm = is_locally_minimal(a)
        out["locally_minimal"] = lm
        entry("Prop 3.1: two-element support: length 2 <=> locally "
              "minimal <=> count 4", l2 == lm == (a.count == 4), {"locally_minimal": lm})
        _case(out, l2, "(1)", 4)
    else:
        _crucial_case(a, l2, out, entry)

    for c in checks:
        if c["applicable"] and not c["holds"]:
            raise ConsistencyError("theorem predicate failed: %s %r"
                                   % (c["name"], c["details"]))
    return checks


def _case(out, l2, label, predicted):
    out["case"] = label if l2 else "not length 2"
    if l2:
        out["count_predicted"] = predicted


def _crucial_case(a, l2, out, entry):
    """The M-crucial cases: MSupp(S/R) = {M}, R < S not minimal."""
    M = a.crucial
    P, T = a.seminormalization, a.t_closure
    cond_is_M = a.conductor == M

    if not T.is_whole() and T != a.R:
        entry("Prop 3.6: t-closure proper: length 2 <=> count 3", l2 == (a.count == 3))
        if (a.lattice.nodes.index(T), len(a.lattice) - 1) in a.lattice.covers:
            vms = maximal_ideals_over(a.whole, ideal_MS(a))
            if len(vms) == 1:
                lr = module_length_at(a, vms[0])
                cond62 = (lr == 1)
                det = {"V(MS)": 1, "L_R(N/M)": lr}
            elif len(vms) == 2:
                cond62 = intersection(vms[0], vms[1]) == M
                det = {"V(MS)": 2, "M_is_intersection": cond62}
            else:
                cond62 = False
                det = {"V(MS)": len(vms)}
            entry("Cor 3.62: proper t-closure with minimal top step", l2 == cond62, det)
        _case(out, l2, "(4)", 3)
        return

    if T == a.R:
        # t-closed: reduces to the residue field extension at M = (R:S)
        entry("t-closed crucial: M = (R:S)", cond_is_M)
        resdim = a.R.dim - M.dim
        sdim = a.S.dim - M.dim
        if sdim % resdim != 0:
            raise ConsistencyError("residue extension dimension mismatch")
        m = sdim // resdim
        ndiv = divisor_count(m)
        if (len(prime_factors(m)) == 2) != l2:
            raise ConsistencyError("t-closed residue case mismatch")
        out["residue_degree"] = m
        out["count_predicted"] = ndiv
        out["t"] = ndiv - 1
        out["case"] = "(8d)" if l2 else "not length 2"
        return

    # infra-integral: T = S.  A maximal ideal of S contains M iff it
    # contains M*S iff it contains N = sqrt(M*S), so V(M) = V(MS) = V(N).
    ms = ideal_MS(a)
    N = radical(a.whole, ms)
    lr = module_length_at(a, N)
    vn = maximal_ideals_over(a.whole, N)
    entry("Prop 3.63: infra-integral: length 2 <=> L_R(N/M) + |V(N)| = 3",
          l2 == (lr + len(vn) == 3), {"L_R(N/M)": lr, "|V(N)|": len(vn)})

    if P == a.R:
        entry("Prop 3.141: seminormal infra-integral: length 2 <=> "
              "|V(MS)| = 3 <=> count 5",
              l2 == (len(vn) == 3) == (a.count == 5), {"|V(MS)|": len(vn)})
        _case(out, l2, "(7)", 5)
    elif not P.is_whole():
        rule = (3 <= a.count <= 4) and (a.count != 4 or cond_is_M)
        extra_ok = not (l2 and a.count == 3 and cond_is_M)
        entry("Prop 3.7: seminormalization proper: length 2 <=> "
              "count in {3,4}, conductor = M when count 4",
              (l2 == rule) and extra_ok, {"count": a.count, "conductor_is_M": cond_is_M})
        _case(out, l2, "(5)", 4 if cond_is_M else 3)
    else:
        gens = is_simple_extension(a.lattice)
        simple = bool(gens)
        copw = is_copointwise_minimal(a)
        out["simple"] = simple
        out["copointwise"] = copw
        if simple and copw:
            raise ConsistencyError("simple and co-pointwise are exclusive")
        copw_count = a.residue_size(M) + 3
        if not simple:
            if copw and a.count != copw_count:
                raise ConsistencyError("co-pointwise count formula fails")
            if copw and not copointwise_shape_check(a, ms, N):
                raise ConsistencyError("co-pointwise structural test fails")
            if copw != l2:
                raise ConsistencyError("subintegral case mismatch")
        expected = (simple and a.count == 3) or (copw and a.count == copw_count)
        entry("Prop 3.81: subintegral: length 2 <=> (simple, count 3) "
              "or (co-pointwise, count |R/M|+3)",
              l2 == expected, {"simple": simple, "copointwise": copw})
        if simple:
            # subintegral: V(M) = V(N) is the one maximal ideal over M
            entry(*_cor_3_132(a, l2, ms, vn[0], gens))
        _case(out, l2, "(6)", 3 if simple else copw_count)


def _closure_extremality(a, types):
    """Seminormalization and t-closure are the greatest subintegral and
    infra-integral subextensions, read off the lattice by the
    chain-type characterization (all covers ramified / all covers
    ramified-or-decomposed).

    Every cover u < v inside [R, k] lies inside [R, i] for some lower
    cover i of k, or is the edge i < k itself: if v < k, a maximal chain
    from v to k ends in a lower cover i >= v.  So whether [R, k] has a
    cover that is not ramified (not ramified or decomposed) is an OR over
    the lower covers i of k, of the flag of i and the type of i < k,
    taken in index order, which is a topological order
    (``_chain_type_flags``).  ``types`` is ``cover_types(a)``: a type
    for every cover, read off the one cover of its orbit that ran all
    the checks of ``_minimal_type_of_pair``.
    """
    not_sub, not_infra = _chain_type_flags(a.lattice, types)
    return all(not_sub[k] != a.seminormalization.contains_sub(n)
               and not_infra[k] != a.t_closure.contains_sub(n)
               for k, n in enumerate(a.lattice.nodes))


def _chain_type_flags(lat, types):
    """For each node k, whether [R, k] has a cover that is not ramified,
    and whether it has one that is neither ramified nor decomposed, given
    the ``types`` of the covers: one pass over the covers, by lower cover
    (see ``_closure_extremality``)."""
    lower = [[] for _ in lat.nodes]
    for (i, j), t in types.items():
        lower[j].append((i, t))
    not_sub = [False] * len(lat)
    not_infra = [False] * len(lat)
    for k in range(len(lat)):
        for i, t in lower[k]:
            not_sub[k] = not_sub[k] or not_sub[i] or t != "ramified"
            not_infra[k] = (not_infra[k] or not_infra[i]
                            or t not in ("ramified", "decomposed"))
    return not_sub, not_infra


def _theorem_2_1_dual_path(a):
    if a.is_trivial or a.is_minimal:
        return True
    nodes = a.lattice.nodes
    bot, top = 0, len(nodes) - 1
    mids = [i for i in range(len(nodes)) if i not in (bot, top)]
    pair_property = all((bot, i) in a.lattice.covers and (i, top) in a.lattice.covers
                        for i in mids)
    return pair_property == (a.length == 2)


def _cor_3_132(a, l2, ms, N, gens):
    """Simple subintegral crucial case: the three-subcase criterion.
    ``ms`` is M*S (``ideal_MS``), ``N`` the one maximal ideal of S over M
    and ``gens`` the generating points of S/R (``is_simple_extension``).

    Subcases (2) and (3) each ask for some generator y in N with
    R[y] = S.  As R/M = S/N, a generating point s of S/R has one
    representative y_s = s - r in N up to M (r in R, s = r mod N).  R
    meets N in M and s lies outside R, so R + F*s = R + F*y_s meets N in
    M + F*y_s: any row of that intersection outside M is c*y_s + m, and
    the generators in N are the y = c*(y_s + m), c != 0, m in M.  For
    them M + M*y = M + M*y_s, as M*m lies in M, and
    y^2 = c^2 (y_s^2 + 2 y_s m + m^2) with m^2 in M and 2 y_s m in MS.
    So some m puts y^2 in R iff y_s^2 lies in R + 2 y_s M, every m does
    iff y_s^2 and 2 y_s M lie in R, and for y^2 outside R (so outside M)
    M + F*y^2 = MS iff y_s^2 lies in MS and dim MS = dim M + 1.
    """
    S, R = a.S, a.R
    M = a.crucial
    C = a.conductor
    msq = S.span([S.mul(x, y) for x in M for y in M])
    m2_in_C = C.contains_span(msq)
    C_in_M = M.contains_span(C)
    cond_is_M = C == M
    n2 = S.span([S.mul(x, y) for x in N for y in N])
    n3 = S.span([S.mul(x, y) for x in n2 for y in N])
    # (1): C = M, N^2 not inside M, N^3 inside M
    sub1 = cond_is_M and not M.contains_span(n2) and M.contains_span(n3)
    sub2 = sub3 = False
    if not cond_is_M:
        # (2): y^2 outside R, M + F*y^2 = MS = M + N^2 < N, M*N^2 inside M
        sub2_free = (ms == M.extend(n2) and M.dim + 1 == ms.dim < N.dim
                     and all(M.contains(S.mul(x, v)) for x in M for v in n2))
        ops = S.field.ops
        for s in gens:
            y = next((y for y in intersection(N, R.basis.extend([s]))
                      if not M.contains(y)), None)
            if y is None:
                raise ConsistencyError("R/M does not map onto S/N")
            y2 = S.mul(y, y)
            two_y = ops.sub(y, ops.neg(ops.one), y)
            two_yM = [S.mul(two_y, x) for x in M]
            sub2 = sub2 or (sub2_free and ms.contains(y2)
                            and not (R.member(y2) and all(map(R.member, two_yM))))
            # (3): y^2 in R, (M + M*y)/M of dimension [R/M : F]
            my = M.extend([S.mul(x, y) for x in M])
            sub3 = sub3 or (R.basis.extend(two_yM).contains(y2)
                            and len(my) - M.dim == R.dim - M.dim)
    subcases = {1: sub1, 2: sub2, 3: sub3}
    criterion = m2_in_C and C_in_M and (sub1 or sub2 or sub3)
    holds = (l2 == criterion)
    details = {"M2_in_C": m2_in_C, "C_in_M": C_in_M, "subcases": subcases}
    if l2:
        expected_nodes = {R.key(),
                          Subalgebra.from_generators(S, list(R.basis) + list(n2)).key(),
                          a.whole.key()}
        got = {n.key() for n in a.lattice.nodes}
        holds = holds and (expected_nodes == got)
        details["lattice_is_R_RN2_S"] = expected_nodes == got
    return ("Cor 3.132: simple subintegral criterion", holds, details)
