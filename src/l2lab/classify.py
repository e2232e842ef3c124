"""Length-2 classification of finite integral extensions R < S over F_q.

The dispatcher computes the canonical decomposition
R <= seminormalization <= t-closure <= S, the support, and the
brute-force lattice, then matches the extension against the exhaustive
case list (two-element support; t-closure proper; seminormalization
proper; subintegral; seminormal infra-integral; t-closed, which reduces
to a residue field extension).  Every applicable theorem predicate is
evaluated and compared with the enumeration; any disagreement raises
ConsistencyError, which the command line reports as exit code 3.
"""

from .errors import ConsistencyError
from .exact import Echelon, intersection, prime_factors
from .finitealg import (
    Ideal, Subalgebra, _minimal_type_of_pair, conductor, crucial_ideal,
    enumerate_subalgebras, ideal_generated, is_simple_extension, localize,
    maximal_ideals, msupp, radical, seminormalize, t_close, whole_algebra,
)


class ExtensionAnalysis:
    """Everything computed about one extension R < S."""

    def __init__(self, R, S):
        self.R = R
        self.S = S
        self.whole = whole_algebra(S)
        self.lattice = enumerate_subalgebras(R, S)
        self.count = len(self.lattice)
        self.length = self.lattice.length
        self.conductor = conductor(R, self.whole)
        self.max_R = maximal_ideals(R)
        self.max_S = maximal_ideals(self.whole)
        self.support = msupp(R, self.whole, self.conductor)
        self.crucial = (crucial_ideal(R, self.conductor, self.support)
                        if len(self.support) == 1 else None)
        self.seminormalization = seminormalize(R, S)
        self.t_closure = t_close(R, S)
        self._once = {}
        _check_canonical_decomposition(self)

    def once(self, fn):
        """fn(self), computed at most once per analysis: the element scans
        serve both the predicate battery and the case dispatcher."""
        if fn not in self._once:
            self._once[fn] = fn(self)
        return self._once[fn]

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
    """The extension ideal M*S for the crucial maximal ideal M."""
    return Ideal(a.whole, ideal_generated(a.S, a.whole.basis, list(a.crucial.basis)))


def v_of_ideal(a, ideal):
    """Maximal ideals of S containing the given ideal of S."""
    return [N for N in a.max_S if all(N.member(b) for b in ideal.basis)]


def module_length_at(a, M, V, W):
    """Composition length over R of the module V/W, supported at M.

    Uses the M-adic filtration; every layer is an R/M-vector space, so
    its length is an exact dimension ratio.
    """
    S = a.S
    resdim = a.R.dim - M.dim
    cur = Echelon(list(V) + list(W))
    floor = Echelon(W)
    total = 0
    guard = 0
    while len(cur) != len(floor):
        nxt = Echelon([S.mul(m, v) for m in M.basis for v in cur] + list(floor))
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
    for M in a.support:
        SM, RM = localize(a.R, a.whole, M)
        if len(enumerate_subalgebras(RM, SM)) != 2:
            return False
    return True


def _simple_generator(a):
    """A generator x with S = R[x], or None."""
    return is_simple_extension(a.R, a.S)


def is_copointwise_minimal(a):
    """Brute force: R[x] < S is minimal for every x outside R."""
    R, S = a.R, a.S
    node_index = {n.key(): i for i, n in enumerate(a.lattice.nodes)}
    for x in S.elements("co-pointwise check"):
        if R.member(x):
            continue
        T = Subalgebra.from_generators(S, list(R.basis) + [x])
        if T.is_whole():
            return False
        if a.lattice.up[node_index[T.key()]] != 1 << (len(a.lattice) - 1):
            return False
    return True


def copointwise_shape_check(a):
    """Prop-2.4-style structural test for the subintegral co-pointwise case:
    M*S = M and S/M isomorphic to k[X,Y]/(X^2, XY, Y^2)."""
    M = a.crucial
    if M is None:
        return False
    S = a.S
    ms = a.once(ideal_MS)
    if ms.key() != M.key():
        return False
    resdim = a.R.dim - M.dim
    if S.dim - M.dim != 3 * resdim:
        return False
    N = radical(a.whole, M.basis)      # N/M is the nilradical of S/M
    if len(N) - M.dim != 2 * resdim:
        return False
    return all(M.member(S.mul(u, v)) for u in N for v in N)


def cover_types(a):
    """Minimal-extension type of every covering edge of the lattice."""
    nodes = a.lattice.nodes
    return {(i, j): _minimal_type_of_pair(nodes[i], nodes[j])
            for (i, j) in a.lattice.covers}


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def analyze_extension(R, S):
    return ExtensionAnalysis(R, S)


def classify_extension(a):
    """Theorem 3.19 verdict for the finite-algebra engine.

    Returns a dict with the case label, predicted and observed counts,
    and the witnesses; raises ConsistencyError when a prediction and the
    brute-force lattice disagree.
    """
    S = a.S
    out = {
        "engine": "finite-algebra",
        "count_observed": a.count,
        "length": a.length,
        "support_size": len(a.support),
        "minimal": a.is_minimal,
        "predicates": check_length_two_predicates(a),
    }
    if a.is_trivial:
        out["case"] = "trivial (R = S)"
        out["count_predicted"] = 1
        _settle(out, a)
        return out
    if a.is_minimal:
        out["minimal_type"] = _minimal_type_of_pair(a.R, a.whole)
        out["case"] = "not length 2 (minimal extension)"
        out["count_predicted"] = 2
        _settle(out, a)
        return out
    P, T = a.seminormalization, a.t_closure
    if len(a.support) >= 3:
        out["case"] = "not length 2"
        if a.length == 2:
            raise ConsistencyError("length 2 with support larger than 2")
        _settle(out, a)
        return out
    if len(a.support) == 2:
        locally_min = a.once(is_locally_minimal)
        out["locally_minimal"] = locally_min
        if a.length == 2:
            out["case"] = "(1)"
            out["count_predicted"] = 4
        else:
            out["case"] = "not length 2"
        if locally_min != (a.length == 2) or locally_min != (a.count == 4):
            raise ConsistencyError("two-element-support equivalences fail")
        _settle(out, a)
        return out
    # M-crucial from here on
    M = a.crucial
    out["crucial"] = True
    if not T.is_whole() and T != a.R:
        l2 = a.count == 3
        out["case"] = "(4)" if l2 else "not length 2"
        if l2:
            out["count_predicted"] = 3
        if l2 != (a.length == 2):
            raise ConsistencyError("t-closure-proper case count/length mismatch")
    elif T.is_whole() and P != a.R and not P.is_whole():
        cond_is_M = a.conductor.key() == M.key()
        l2 = a.count == 3 or (a.count == 4 and cond_is_M)
        out["case"] = "(5)" if l2 else "not length 2"
        if l2:
            out["count_predicted"] = 4 if cond_is_M else 3
            if a.count == 3 and cond_is_M:
                raise ConsistencyError("count 3 requires (R:S) != M in the "
                                       "seminormalization-proper case")
        if l2 != (a.length == 2):
            raise ConsistencyError("seminormalization-proper case mismatch")
    elif P.is_whole():
        simple = a.once(_simple_generator)
        copw = a.once(is_copointwise_minimal)
        out["simple"] = simple is not None
        out["copointwise"] = copw
        if simple is not None and copw:
            raise ConsistencyError("simple and co-pointwise are exclusive")
        if simple is not None:
            l2 = a.count == 3
            if l2:
                out["count_predicted"] = 3
        else:
            predicted = a.residue_size(M) + 3
            l2 = copw
            if l2:
                out["count_predicted"] = predicted
                if a.count != predicted:
                    raise ConsistencyError("co-pointwise count formula fails")
                if not copointwise_shape_check(a):
                    raise ConsistencyError("co-pointwise structural test fails")
        out["case"] = "(6)" if l2 else "not length 2"
        if l2 != (a.length == 2):
            raise ConsistencyError("subintegral case mismatch")
    elif T.is_whole() and P == a.R:
        l2 = a.count == 5
        vms = v_of_ideal(a, a.once(ideal_MS))
        out["v_of_MS"] = len(vms)
        out["case"] = "(7)" if l2 else "not length 2"
        if l2:
            out["count_predicted"] = 5
        if l2 != (a.length == 2) or l2 != (len(vms) == 3):
            raise ConsistencyError("seminormal infra-integral case mismatch")
    else:
        # t-closed: reduces to the residue field extension at M = (R:S)
        if a.conductor.key() != M.key():
            raise ConsistencyError("t-closed crucial extension must have M = (R:S)")
        resdim = a.R.dim - M.dim
        sdim = S.dim - M.dim
        if sdim % resdim != 0:
            raise ConsistencyError("residue extension dimension mismatch")
        m = sdim // resdim
        ndiv = divisor_count(m)
        out["residue_degree"] = m
        out["count_predicted"] = ndiv
        out["t"] = ndiv - 1
        l2 = len(prime_factors(m)) == 2
        out["case"] = "(8d)" if l2 else "not length 2"
        if a.count != ndiv:
            raise ConsistencyError("finite-field residue lattice count mismatch")
        if l2 != (a.length == 2):
            raise ConsistencyError("t-closed residue case mismatch")
    _settle(out, a)
    return out


def _settle(out, a):
    pred = out.get("count_predicted")
    out["ok"] = pred is None or pred == a.count
    if not out["ok"]:
        raise ConsistencyError("predicted count %s != observed %d" % (pred, a.count))
    out["witnesses"] = _witnesses(a)


def _witnesses(a):
    S = a.S
    def ideal_str(I):
        return [S.element_str(b) for b in I.basis]
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
# The predicate battery (each entry: name, applicable, holds, details)

def check_length_two_predicates(a):
    checks = []
    l2 = a.length == 2

    checks.append(("Prop 2.3: length 2 => |Supp| <= 2",
                   l2, (not l2) or len(a.support) <= 2, {}))

    mid_ok = _theorem_2_1_dual_path(a)
    checks.append(("Thm 2.1: length 2 <=> minimal pair <=> co-minimal pair",
                   not a.is_trivial and not a.is_minimal, mid_ok, {}))

    if not a.is_trivial:
        checks.append(_closure_extremality(a))

    if len(a.support) == 2:
        lm = a.once(is_locally_minimal)
        checks.append(("Prop 3.1: two-element support: length 2 <=> locally "
                       "minimal <=> count 4",
                       True, (l2 == lm == (a.count == 4)), {"locally_minimal": lm}))
    if a.crucial is not None and not a.is_minimal and not a.is_trivial:
        checks.extend(_crucial_predicates(a, l2))

    for name, applicable, holds, details in checks:
        if applicable and not holds:
            raise ConsistencyError("theorem predicate failed: %s %r" % (name, details))
    return [{"name": n, "applicable": ap, "holds": h, "details": d}
            for (n, ap, h, d) in checks]


def _closure_extremality(a):
    """Seminormalization and t-closure are the greatest subintegral and
    infra-integral subextensions, read off the lattice by the
    chain-type characterization (all covers ramified / all covers
    ramified-or-decomposed)."""
    types = cover_types(a)
    lat = a.lattice

    ok = True
    for k, n in enumerate(lat.nodes):
        inside = lat.down[k] | 1 << k
        ets = [t for (i, j), t in types.items() if inside >> i & 1 and inside >> j & 1]
        subint = all(t == "ramified" for t in ets)
        infra = all(t in ("ramified", "decomposed") for t in ets)
        if subint != a.seminormalization.contains_sub(n):
            ok = False
        if infra != a.t_closure.contains_sub(n):
            ok = False
    return ("Def 3.4 / Prop 3.5: closures are extremal for their chain types",
            True, ok, {})


def _theorem_2_1_dual_path(a):
    if a.is_trivial or a.is_minimal:
        return True
    nodes = a.lattice.nodes
    bot, top = 0, len(nodes) - 1
    mids = [i for i in range(len(nodes)) if i not in (bot, top)]
    pair_property = all((bot, i) in a.lattice.covers and (i, top) in a.lattice.covers
                        for i in mids)
    return pair_property == (a.length == 2)


def _crucial_predicates(a, l2):
    S = a.S
    M = a.crucial
    P, T = a.seminormalization, a.t_closure
    checks = []
    infra = T.is_whole()
    subint = P.is_whole()
    seminormal = (P == a.R)
    tclosed = (T == a.R)

    if T != a.R and not T.is_whole():
        holds = (l2 == (a.count == 3))
        checks.append(("Prop 3.6: t-closure proper: length 2 <=> count 3",
                       True, holds, {}))
        if _is_minimal_pair_nodes(a, T):
            vms = v_of_ideal(a, a.once(ideal_MS))
            if len(vms) == 1:
                lr = module_length_at(a, M, vms[0].basis, M.basis)
                cond62 = (lr == 1)
                det = {"V(MS)": 1, "L_R(N/M)": lr}
            elif len(vms) == 2:
                cond62 = intersection(vms[0].basis, vms[1].basis) == M.basis
                det = {"V(MS)": 2, "M_is_intersection": cond62}
            else:
                cond62 = False
                det = {"V(MS)": len(vms)}
            checks.append(("Cor 3.62: proper t-closure with minimal top step",
                           True, l2 == cond62, det))

    if infra and not tclosed:
        N = Ideal(a.whole, radical(a.whole, a.once(ideal_MS).basis))
        vn = v_of_ideal(a, N)
        lr = module_length_at(a, M, N.basis, M.basis)
        holds = (l2 == (lr + len(vn) == 3))
        checks.append(("Prop 3.63: infra-integral: length 2 <=> L_R(N/M) + |V(N)| = 3",
                       True, holds, {"L_R(N/M)": lr, "|V(N)|": len(vn)}))

    if infra and P != a.R and not P.is_whole():
        cond_is_M = a.conductor.key() == M.key()
        rule = (3 <= a.count <= 4) and (a.count != 4 or cond_is_M)
        extra_ok = True
        if l2 and a.count == 3 and cond_is_M:
            extra_ok = False
        checks.append(("Prop 3.7: seminormalization proper: length 2 <=> "
                       "count in {3,4}, conductor = M when count 4",
                       True, (l2 == rule) and extra_ok,
                       {"count": a.count, "conductor_is_M": cond_is_M}))

    if seminormal and infra and not subint:
        vms = v_of_ideal(a, a.once(ideal_MS))
        holds = (l2 == (len(vms) == 3) == (a.count == 5))
        checks.append(("Prop 3.141: seminormal infra-integral: length 2 <=> "
                       "|V(MS)| = 3 <=> count 5",
                       True, holds, {"|V(MS)|": len(vms)}))

    if subint:
        simple = a.once(_simple_generator)
        copw = a.once(is_copointwise_minimal)
        expected = (simple is not None and a.count == 3) or \
                   (copw and a.count == a.residue_size(M) + 3)
        checks.append(("Prop 3.81: subintegral: length 2 <=> (simple, count 3) "
                       "or (co-pointwise, count |R/M|+3)",
                       True, l2 == expected,
                       {"simple": simple is not None, "copointwise": copw}))
        if simple is not None:
            sub = _cor_3_132(a, l2)
            if sub is not None:
                checks.append(sub)

    if tclosed:
        cond_is_M = a.conductor.key() == M.key()
        checks.append(("t-closed crucial: M = (R:S)", True, cond_is_M, {}))
    return checks


def _is_minimal_pair_nodes(a, T):
    """Is T < S minimal inside the enumerated lattice?"""
    nodes = a.lattice.nodes
    ti = next((i for i, n in enumerate(nodes) if n.key() == T.key()), None)
    if ti is None:
        return False
    return (ti, len(nodes) - 1) in a.lattice.covers


def _cor_3_132(a, l2):
    """Simple subintegral crucial case: the three-subcase criterion."""
    S = a.S
    M = a.crucial
    over = v_of_ideal(a, M)
    if len(over) != 1:
        return None
    N = over[0]
    C = a.conductor
    msq = Echelon([S.mul(x, y) for x in M.basis for y in M.basis])
    m2_in_C = all(C.member(v) for v in msq)
    C_in_M = all(M.member(v) for v in C.basis)
    cond_is_M = C.key() == M.key()
    n2 = Echelon([S.mul(x, y) for x in N.basis for y in N.basis])
    n3 = Echelon([S.mul(x, y) for x in n2 for y in N.basis])
    subcases = {}
    # (1): C = M, N^2 not inside M, N^3 inside M
    subcases[1] = (cond_is_M and not all(M.member(v) for v in n2)
                   and all(M.member(v) for v in n3))
    # (2) and (3) quantify over a generator y in N with S = R[y]
    sub2 = sub3 = False
    if not cond_is_M:
        ms = a.once(ideal_MS).basis
        for y in _generators_in(a, N):
            y2 = S.mul(y, y)
            if not a.R.member(y2):
                m_n2 = Echelon(list(M.basis) + list(n2))
                m_ry2 = Echelon(list(M.basis) + [y2])
                mn2 = [S.mul(x, v) for x in M.basis for v in n2]
                if (ms == m_n2 and ms == m_ry2 and len(ms) < N.dim
                        and all(M.member(v) for v in mn2)):
                    sub2 = True
                    break
            else:
                my = Echelon(list(M.basis) + [S.mul(x, y) for x in M.basis])
                resdim = a.R.dim - M.dim
                if (len(my) - M.dim) == resdim:
                    sub3 = True
                    break
    subcases[2] = sub2
    subcases[3] = sub3
    criterion = m2_in_C and C_in_M and (subcases[1] or subcases[2] or subcases[3])
    holds = (l2 == criterion)
    details = {"M2_in_C": m2_in_C, "C_in_M": C_in_M, "subcases": subcases}
    if l2:
        expected_nodes = {a.R.key(),
                          Subalgebra.from_generators(S, list(a.R.basis) + list(n2)).key(),
                          a.whole.key()}
        got = {n.key() for n in a.lattice.nodes}
        holds = holds and (expected_nodes == got)
        details["lattice_is_R_RN2_S"] = expected_nodes == got
    return ("Cor 3.132: simple subintegral criterion", True, holds, details)


def _generators_in(a, N):
    S = a.S
    for y in S.elements("generator scan"):
        if not N.member(y):
            continue
        if a.R.member(y):
            continue
        T = Subalgebra.from_generators(S, list(a.R.basis) + [y])
        if T.is_whole():
            yield y
