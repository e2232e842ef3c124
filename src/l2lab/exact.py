"""Exact arithmetic kernels: primes and linear algebra over any exact field.

Everything here is exact; no floating point is used anywhere in the
package.  Rationals are ``fractions.Fraction`` (arbitrary precision,
always reduced, positive denominator).  The row-reduction routines are
generic over any field whose elements support ``+ - * /``, truth-test
as "nonzero" and ``==``; they are shared by the rational, finite-field
and number-field layers.

Every subspace in the package -- subfields over Q, subalgebras, ideals
and quotients over F_q -- is an ``Echelon``: the nonzero rows of its
reduced row-echelon form together with their pivot columns, as ``rref``
finds them.  Row i is 1 at its own pivot and 0 at every other pivot, so
one reduction (``Echelon.residue``) decides membership, gives the
coordinates of a member (the vector read at the pivots) and projects
onto the quotient (the residue read off the non-pivot columns).
``intersection`` and ``Echelon.combine`` are the only intersection and
linear-combination routines.
"""


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


class Echelon(tuple):
    """A subspace: the nonzero rows of its reduced row-echelon form, as a
    tuple of tuples, with their pivot columns in ``pivots``.

    Equal subspaces give equal tuples, so an ``Echelon`` serves directly
    as a canonical basis and key.
    """

    def __new__(cls, vectors):
        red, pivots = rref(vectors)
        span = super().__new__(cls, (tuple(row) for row in red[:len(pivots)]))
        span.pivots = tuple(pivots)
        return span

    def residue(self, v):
        """v minus its part in the span: zero at every pivot, and zero
        everywhere exactly when v lies in the span."""
        v = list(v)
        for row, p in zip(self, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, row)]
        return v

    def contains(self, v):
        return not any(self.residue(v))

    def coords(self, v):
        """Coefficients of v over the rows, or None if v is outside."""
        if any(self.residue(v)):
            return None
        return tuple(v[p] for p in self.pivots)

    def project(self, v):
        """The image of v in the quotient by the span, in coordinates on
        the non-pivot columns (ascending)."""
        r = self.residue(v)
        for p in reversed(self.pivots):
            del r[p]
        return tuple(r)

    def combine(self, coeffs):
        """sum_i coeffs[i] * row_i, over a nonzero span."""
        one = self[0][self.pivots[0]]
        v = [one - one] * len(self[0])
        for c, row in zip(coeffs, self):
            if c:
                v = [a + c * b for a, b in zip(v, row)]
        return tuple(v)


def intersection(A, B):
    """A meet B for two Echelon spans of the same space.

    A kernel vector (x, y) of the matrix whose columns are the rows of A
    and then of B gives sum x_i A_i = -sum y_j B_j, and these sums span
    the intersection.
    """
    if not A or not B:
        return Echelon(())
    one = A[0][A.pivots[0]]
    rows = [[a[c] for a in A] + [b[c] for b in B] for c in range(len(A[0]))]
    k = len(A)
    return Echelon(A.combine(v[:k]) for v in kernel(rows, k + len(B), one))


def prime_factors(n):
    """Prime factors of n with multiplicity, ascending (trial division);
    empty for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
