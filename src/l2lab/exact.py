"""Exact arithmetic kernels: rationals, prime-field residues, linear algebra.

Everything here is exact; no floating point is used anywhere in the
package.  Rationals are ``fractions.Fraction`` (arbitrary precision,
always reduced, positive denominator).  The row-reduction routines are
generic over any field whose elements support ``+ - * /``, truth-test
as "nonzero" and ``==``; they are shared by the rational, prime-field
and number-field layers.
"""

from fractions import Fraction

Rational = Fraction


class ModularInt:
    """A residue in Z/pZ for a prime p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, ModularInt):
            if other.p != self.p:
                raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModularInt(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModularInt(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModularInt(w - self.v, self.p)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModularInt(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModularInt(self.v * pow(w, -1, self.p), self.p)

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModularInt(w * pow(self.v, -1, self.p), self.p)

    def __neg__(self):
        return ModularInt(-self.v, self.p)

    def __pow__(self, e):
        return ModularInt(pow(self.v, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, ModularInt):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __lt__(self, other):
        return self.v < self._coerce(other)

    def __repr__(self):
        return "%d" % self.v


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime(n):
    """Smallest prime strictly greater than n (trial division)."""
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Generic exact row reduction.  Rows are lists of field elements; the
# pivot is always the first nonzero entry of each column (deterministic
# tie-break) so the reduced form, hence every derived basis, is canonical.

def rref(rows):
    """Reduced row-echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        src = None
        for i in range(r, len(m)):
            if m[i][c]:
                src = i
                break
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + [[x - x for x in row] for row in m[r:]], pivots


def row_space_basis(rows):
    """Nonzero rows of the reduced echelon form, as tuples."""
    red, pivots = rref(rows)
    return [tuple(red[i]) for i in range(len(pivots))]


def kernel(rows, ncols, one):
    """Reduced-echelon basis of the right null space of the matrix.

    ``one`` is the multiplicative identity of the coefficient field
    (needed to build unit vectors when the matrix has no rows).
    """
    zero = one - one
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs, one):
    """One exact solution x of rows·x = rhs, or None if inconsistent."""
    zero = one - one
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


def rank(rows):
    return len(rref(rows)[1])


def in_row_space(vec, echelon_rows):
    """Membership of vec in the span of rows already in reduced echelon form."""
    v = list(vec)
    for row in echelon_rows:
        pc = next((j for j, x in enumerate(row) if x), None)
        if pc is None:
            continue
        if v[pc]:
            f = v[pc] / row[pc]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)
