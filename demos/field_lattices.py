#!/usr/bin/env python3
# Walk through the intermediate-field lattices of three classic fields.
#
# Run from the repository root:  python3 demos/field_lattices.py

from l2lab import (build_lattice, compute_principal_subfields, galois_length_two_check,
                   is_length_two, make_field, parse_polynomial)
from l2lab.numberfield import poly_str
from l2lab.report import galois_line


def walk(name):
    print("=" * 64)
    print("f =", name)
    L = make_field(parse_polynomial(name))
    ps = compute_principal_subfields(L)

    # f factors over its own root field as (X - x) f_1 ... f_r
    print("over L = Q[x]/(f):  f = (X - x)", end="")
    for g in ps.system.factors:
        print(" * (%s)" % poly_str(g), end="")
    print()

    # each factor pins down a principal subfield; duplicates collapse
    print("t = %d distinct principal subfields:" % ps.t)
    for b, e in enumerate(ps.E):
        print("  E_%d = %-22s dim %d   f_K = %s"
              % (b + 1, e.describe(), e.dim, poly_str(e.min_poly)))

    # every intermediate field is an intersection of the E_beta
    lat = build_lattice(ps)
    l2, info = is_length_two(ps, lat)
    print("lattice: %d fields, longest chain %d, length two: %s"
          % (len(lat), lat.length, l2))
    if l2:
        print("  count formula: t + %d = %d"
              % (1 if info["k_in_E"] else 2, info["predicted_count"]))
    g = galois_length_two_check(lat, ps)
    if g is None:
        print("  (not Galois: f does not split over L)")
    else:
        print("  Galois of " + galois_line(g))


# the positive real fourth root of 2: three fields, one of them Q(sqrt 2)
walk("X^4 - 2")

# sqrt2 + sqrt3: the biquadratic diamond with three quadratic subfields
walk("X^4 - 10*X^2 + 1")

# the splitting field of X^3 - 2, degree 6: four proper subfields
walk("X^6 + 108")

# a cyclic cubic is already minimal: no intermediate fields at all
walk("X^3 - 3*X + 1")
