"""Enumeration size caps.

The element cap bounds |S| = q^dim wherever an operation walks every
element of an algebra; L2LAB_CAP overrides it (lowering is always safe).
The candidate cap bounds the number of echelon bases the subalgebra
enumeration may examine.
"""

import os

from .errors import CapExceeded, ParseError

DEFAULT_ELEMENT_CAP = 4096
CANDIDATE_CAP = 1_000_000


def element_cap():
    v = os.environ.get("L2LAB_CAP")
    if v is None:
        return DEFAULT_ELEMENT_CAP
    try:
        return int(v)
    except ValueError:
        raise ParseError("L2LAB_CAP must be an integer, got %r" % v)


def check_elements(count, what):
    cap = element_cap()
    if count > cap:
        raise CapExceeded("%s needs %d element enumeration, cap is %d "
                          "(raise L2LAB_CAP to override)" % (what, count, cap))


def check_candidates(count, what):
    if count > CANDIDATE_CAP:
        raise CapExceeded("%s would examine %d candidate subspaces, cap is %d"
                          % (what, count, CANDIDATE_CAP))
