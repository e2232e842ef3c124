"""The complete poset [k, L] built from principal subfields.

Every proper intermediate field is an intersection of the E_beta, so the
node set is the intersection closure of {E_1, ..., E_t} plus L itself;
``lattice.hasse`` computes covering edges and the longest chain on it.
"""

from .errors import CapExceeded, ConsistencyError
from .exact import prime_factors
from .lattice import hasse
from .numberfield import Subfield, intersect_subfields, prime_subfield, whole_field
from .principal import index_set_I
from .poly import Poly

NODE_CAP = 4096


def build_lattice(ps):
    """All intersections of the E_beta, plus k and L, with covering edges."""
    L = ps.field
    seen = {}
    for sub in [prime_subfield(L), whole_field(L)] + list(ps.E):
        seen[sub.key()] = sub
    work = list(seen.values())
    while work:
        cur = work.pop()
        for other in list(seen.values()):
            meet = intersect_subfields(cur, other)
            if meet.key() not in seen:
                if len(seen) >= NODE_CAP:
                    raise CapExceeded("lattice exceeds %d nodes" % NODE_CAP)
                seen[meet.key()] = meet
                work.append(meet)
    nodes = sorted(seen.values(), key=lambda s: s.key())
    return hasse(nodes, Subfield.contains_subfield)


def is_minimal_extension(ps, lat=None):
    """t = 1, cross-checked against the lattice having exactly two nodes."""
    if lat is None:
        lat = build_lattice(ps)
    by_t = ps.t == 1
    by_lattice = len(lat) == 2
    if by_t != by_lattice:
        raise ConsistencyError("t = 1 disagrees with the two-node lattice test")
    return by_t


def is_length_two(ps, lat=None):
    """Theorem test: t > 1 and all pairwise E-intersections equal k.

    Returns (verdict, info); info carries whether k itself is one of the
    E_beta and the predicted |[k, L]| (t+1 or t+2) when the verdict
    holds.  The verdict is asserted equal to the direct chain length.
    """
    if lat is None:
        lat = build_lattice(ps)
    verdict = ps.t > 1
    if verdict:
        for i in range(ps.t):
            for j in range(i + 1, ps.t):
                if intersect_subfields(ps.E[i], ps.E[j]).dim != 1:
                    verdict = False
                    break
            if not verdict:
                break
    info = {"t": ps.t}
    if verdict:
        k_in_E = any(e.dim == 1 for e in ps.E)
        info["k_in_E"] = k_in_E
        info["predicted_count"] = ps.t + 1 if k_in_E else ps.t + 2
    if verdict != (lat.length == 2):
        raise ConsistencyError("length-2 predicate disagrees with chain length")
    return verdict, info


def galois_length_two_check(lat, ps):
    """Checks for Galois extensions: f splits over L, degree = product
    of two primes forces length 2, and |[k,L]| <= n + 1."""
    L = ps.field
    n = L.n
    splits = all(f.degree == 1 for f in ps.system.factors) and ps.system.r == n - 1
    if not splits:
        raise ValueError("not Galois: defining polynomial does not split over L")
    primes = prime_factors(n)
    report = {"galois": True, "degree": n, "degree_primes": primes,
              "count_observed": len(lat), "bound_n_plus_1": n + 1,
              "bound_ok": len(lat) <= n + 1}
    if len(primes) == 2:
        report["two_prime_degree"] = True
        if lat.length != 2:
            raise ConsistencyError("Galois of two-prime degree must have length 2")
        report["length"] = 2
        # Abelian refinement (count 3 for p*p, 4 for p*q) is only recorded
        # when the lattice itself shows it; no group computation is done.
        p, q = primes
        expected = 3 if p == q else 4
        report["abelian_count_witnessed"] = (len(lat) == expected)
    else:
        report["two_prime_degree"] = False
    return report


def verify_minpoly_product_identity(ps, lat):
    """Thm-style identity on every node: f_K = (X - x) prod_{a in I(K)} f_a."""
    L = ps.field
    xlin = Poly(L, [-L.gen(), L.one])
    for K in lat.nodes:
        if K.is_full():
            if K.min_poly != xlin:
                raise ConsistencyError("f_L != X - x")
            continue
        prod = xlin
        for a in sorted(index_set_I(K, ps.system)):
            prod = prod * ps.system.factors[a]
        if prod != K.min_poly:
            raise ConsistencyError("product identity fails for a lattice node")
    return True
