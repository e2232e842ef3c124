#!/usr/bin/env python3
# Emit Hasse diagrams as DOT digraphs (pipe into `dot -Tpng` if Graphviz
# is installed; the text itself is readable enough without it).
#
# Run from the repository root:  python3 demos/lattice_graphs.py

from l2lab import field_report, parse_algebra, parse_polynomial
from l2lab.report import algebra_report, lattice_to_dot

print("// the biquadratic diamond")
rep = field_report(parse_polynomial("X^4 - 10*X^2 + 1"), "X^4 - 10*X^2 + 1")
print(lattice_to_dot(rep["lattice"], title=rep["input"]))

print("// the Bell-number lattice of F2 inside F2^3")
S, R = parse_algebra({"q": 2, "product": ["F2", "F2", "F2"], "R": "diagonal"})
rep, _ = algebra_report(S, R, "F2 diagonal in F2^3")
print(lattice_to_dot(rep["lattice"], title=rep["input"]))
