"""Exact intermediate-ring lattices and length-2 classification.

Two engines share an exact-arithmetic core:

* number fields  -- principal subfields of Q < Q[x]/(f), the complete
  lattice of intermediate fields, minimality and length;
* finite algebras -- conductors, crucial ideals, seminormalization,
  t-closure and the subalgebra lattice over F_q, enumerated by
  one-element adjunctions T[s], with the exhaustive length-2 case
  classification.

Each export loads its module on first use (PEP 562), so ``import l2lab``
compiles neither engine.
"""

_EXPORTS = {
    "errors": ["CapExceeded", "ConsistencyError", "ParseError"],
    "exact": ["next_prime"],
    "poly": ["Factorization", "Poly", "factor_mod_p", "factor_over_Q",
             "factor_over_number_field", "poly_gcd"],
    "numberfield": ["NumberField", "Subfield", "make_field"],
    "principal": ["FactorSystem", "PrincipalSubfieldSet", "compute_principal_subfields",
                  "principal_subfield_of_factor"],
    "fieldlattice": ["build_lattice", "galois_length_two_check", "is_length_two",
                     "is_minimal_extension"],
    "finitealg": ["FiniteAlgebra", "Subalgebra", "conductor", "crucial_ideal",
                  "enumerate_subalgebras", "maximal_ideals", "product_algebra",
                  "quotient_algebra", "seminormalize", "small_field", "t_close"],
    "classify": ["analyze_extension", "check_length_two_predicates", "classify_extension"],
    "parsing": ["parse_algebra", "parse_polynomial"],
    "report": ["algebra_report", "field_report"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(__import__(_HOME[name], globals(), None, [name], 1), name)
