"""Enumeration size caps.

The element cap bounds |S| = q^dim of every algebra built, and q^2 of
the F_q tables; L2LAB_CAP overrides it (lowering is always safe).  A
quotient is bounded while its basis is listed.
The candidate cap bounds the number of points s the subalgebra
enumeration walks, one T[s] each, whether T[s] is computed by
adjunction or read off an earlier walk.  The norm degree cap bounds the
degree deg(fL) * deg(f) of the Trager norm, checked before any norm is
computed.  The node cap bounds the nodes of the field lattice [k, L],
checked before each new node is built.  The subset cap bounds the
subsets of lifted factors that Zassenhaus recombination tries, counted
as they are tried.
"""

import os

from .errors import CapExceeded, ParseError

DEFAULT_ELEMENT_CAP = 4096
CANDIDATE_CAP = 100_000
NORM_DEGREE_CAP = 1024
NODE_CAP = 4096
SUBSET_CAP = 1_000_000


def element_cap():
    v = os.environ.get("L2LAB_CAP")
    if v is None:
        return DEFAULT_ELEMENT_CAP
    try:
        return int(v)
    except ValueError:
        raise ParseError("L2LAB_CAP must be an integer, got %r" % v)


def check_elements(q, dim, what):
    """The element cap on q^dim; dim may be a lower bound found so far."""
    cap = element_cap()
    if q ** dim > cap:
        raise CapExceeded("%s needs at least %d^%d elements, cap is %d "
                          "(raise L2LAB_CAP to override)" % (what, q, dim, cap))


def check_candidates(count, what):
    if count > CANDIDATE_CAP:
        raise CapExceeded("%s needs at least %d adjunctions, cap is %d"
                          % (what, count, CANDIDATE_CAP))


def check_norm_degree(degree):
    if degree > NORM_DEGREE_CAP:
        raise CapExceeded("Trager norm needs degree %d, cap is %d"
                          % (degree, NORM_DEGREE_CAP))


def check_nodes(count):
    if count > NODE_CAP:
        raise CapExceeded("lattice exceeds %d nodes" % NODE_CAP)


def check_subsets(count):
    if count > SUBSET_CAP:
        raise CapExceeded("Zassenhaus recombination needs more than %d subsets"
                          % SUBSET_CAP)
