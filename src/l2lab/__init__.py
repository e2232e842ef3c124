"""Exact intermediate-ring lattices and length-2 classification.

Two engines share an exact-arithmetic core:

* number fields  -- principal subfields of Q < Q[x]/(f), the complete
  lattice of intermediate fields, minimality and length;
* finite algebras -- conductors, crucial ideals, seminormalization,
  t-closure and brute-force subalgebra enumeration over F_q, with the
  exhaustive length-2 case classification.
"""

from .errors import CapExceeded, ConsistencyError, ParseError
from .exact import next_prime
from .poly import (QQ, Factorization, Poly, factor_mod_p, factor_over_Q,
                   factor_over_number_field, is_separable, poly_gcd)
from .numberfield import (NFElement, NumberField, Subfield, intersect_subfields,
                          make_field, subfield_generated)
from .principal import (FactorSystem, PrincipalSubfieldSet, K_g_of_product,
                        compute_principal_subfields, index_set_I,
                        principal_subfield_of_factor)
from .fieldlattice import (build_lattice, galois_length_two_check, is_length_two,
                           is_minimal_extension)
from .finitealg import (FiniteAlgebra, Ideal, Subalgebra, classify_minimal_type,
                        conductor, crucial_ideal, enumerate_subalgebras,
                        field_algebra, maximal_ideals, product_algebra,
                        quotient_algebra, seminormalize, small_field, t_close)
from .classify import analyze_extension, check_length_two_predicates, classify_extension
from .parsing import parse_algebra, parse_polynomial
from .report import algebra_report, field_report

__version__ = "0.1.0"
