"""Exact arithmetic kernels: primes and linear algebra over any exact field.

Everything here is exact; no floating point is used anywhere in the
package.  Rationals are ``fractions.Fraction`` (arbitrary precision,
always reduced, positive denominator).

The row-reduction routines are shared by every layer and take their
arithmetic from one small field protocol, an object with
  * ``zero`` and ``one``, the field's constants;
  * ``neg(c)``, the negative of one entry;
  * ``sub(v, c, row)``, the list v - c*row, for entries c and vectors v, row;
  * ``div(v, c)``, the list v / c, for an entry c != 0.
Entries truth-test as "nonzero" and compare with ``==``.  ``Ops(one)``
is the protocol of a field whose elements carry their own ``+ - * /``
(``QQ_OPS`` over ``Fraction``, and number-field coordinates).  Over F_q
the vectors are tuples of element indices, the one form of an F_q
element, and ``finitealg.SmallField.ops`` reads the same four operations
off the field's lookup tables; plain ``+ - *`` on such entries would
compute over Z, so no routine here applies them to entries.

There is one elimination loop, ``_insert``: it reduces each new vector
by the rows so far and, if anything is left, makes the residue a row
and clears its pivot column from the others.  ``rref`` runs it from the
empty span and ``Echelon.extend`` from the rows a span already has.

Every subspace in the package -- subfields over Q, subalgebras, ideals
and quotients over F_q -- is an ``Echelon``: the nonzero rows of its
reduced row-echelon form together with their pivot columns, as ``rref``
finds them, and the protocol it was reduced with.  Row i is 1 at its
own pivot and 0 at every other pivot, so one reduction
(``Echelon.residue``) decides membership, gives the coordinates of a
member (the vector read at the pivots) and projects onto the quotient
(the residue read off the non-pivot columns).  ``intersection`` and
``Echelon.combine`` are the only intersection and linear-combination
routines; ``Echelon.subspace`` turns a reduced basis of coordinates
over the rows into the reduced span, so no span is reduced twice.
"""

from fractions import Fraction


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
# Exact row reduction.  Rows are sequences of field entries; a span has
# one reduced row-echelon form, so every derived basis is canonical
# whatever order the vectors come in.

class Ops:
    """The field protocol for entries with their own ``+ - * /``."""

    def __init__(self, one):
        self.one = one
        self.zero = one - one

    @staticmethod
    def neg(c):
        return -c

    @staticmethod
    def sub(v, c, row):
        return [a - c * b if b else a for a, b in zip(v, row)]

    @staticmethod
    def div(v, c):
        return [x / c for x in v]


QQ_OPS = Ops(Fraction(1))


def rref(rows, ops):
    """Reduced row-echelon form.  Returns (new_rows, pivot_columns): the
    nonzero rows, ordered by pivot, then one zero row for each row that
    reduced to zero."""
    rows = [list(r) for r in rows]
    red, pivots = _insert([], [], rows, ops)
    ncols = len(rows[0]) if rows else 0
    return red + [[ops.zero] * ncols for _ in rows[len(red):]], pivots


def kernel(rows, ncols, ops):
    """Reduced-echelon basis of the right null space of the matrix, over
    the field of ``ops`` (whose ``one`` builds the unit vectors when the
    matrix has no rows)."""
    red, pivots = rref(rows, ops)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for i, pc in enumerate(pivots):
            v[pc] = ops.neg(red[i][fc])
        basis.append(tuple(v))
    return basis


def _residue(rows, pivots, v, sub):
    """v reduced by rows that are each 1 at their own pivot and 0 at the
    other pivots."""
    v = list(v)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = sub(v, c, row)
    return v


def _insert(rows, pivots, vectors, ops):
    """The one elimination loop.  ``rows`` are reduced and 1 at their
    ``pivots``; each vector's residue that is not zero becomes a row,
    scaled to 1 at its first nonzero column, which is cleared from the
    other rows.  Returns the rows and pivots, ordered by pivot."""
    sub = ops.sub
    for v in vectors:
        r = _residue(rows, pivots, v, sub)
        p = next((j for j, c in enumerate(r) if c), None)
        if p is None:
            continue
        if r[p] != ops.one:
            r = ops.div(r, r[p])
        for i, row in enumerate(rows):
            c = row[p]
            if c:
                rows[i] = sub(row, c, r)
        rows.append(r)
        pivots.append(p)
    merged = sorted(zip(pivots, rows))
    return [row for _, row in merged], [p for p, _ in merged]


class Echelon(tuple):
    """A subspace: the nonzero rows of its reduced row-echelon form, as a
    tuple of tuples, with their pivot columns in ``pivots`` and the field
    protocol in ``ops``.

    Equal subspaces give equal tuples, so an ``Echelon`` serves directly
    as a canonical basis and key.
    """

    def __new__(cls, vectors, ops):
        if not vectors:
            return cls._reduced((), (), ops)
        red, pivots = rref(vectors, ops)
        return cls._reduced(red[:len(pivots)], pivots, ops)

    @classmethod
    def _reduced(cls, rows, pivots, ops):
        span = super().__new__(cls, (tuple(row) for row in rows))
        span.pivots = tuple(pivots)
        span.ops = ops
        return span

    def extend(self, vectors):
        """The span of the rows and ``vectors``, reducing only the new
        vectors."""
        rows, pivots = _insert(list(self), list(self.pivots), vectors, self.ops)
        if len(rows) == len(self):
            return self
        return self._reduced(rows, pivots, self.ops)

    @property
    def dim(self):
        return len(self)

    def subspace(self, coords):
        """The span of the combinations of the rows by ``coords``, a
        reduced echelon basis of coefficient vectors, with no reduction: a
        combination is its i-th coefficient at the i-th pivot and the rows
        are ordered by pivot, so a coefficient vector led by 1 at j, and 0
        at the other leading columns of ``coords``, gives a vector led by 1
        at pivot j and 0 at the other pivots so taken."""
        pivots = [self.pivots[next(j for j, c in enumerate(x) if c)] for x in coords]
        return self._reduced([self.combine(x) for x in coords], pivots, self.ops)

    def residue(self, v):
        """v minus its part in the span: zero at every pivot, and zero
        everywhere exactly when v lies in the span."""
        return _residue(self, self.pivots, v, self.ops.sub)

    def contains(self, v):
        return not any(self.residue(v))

    def contains_span(self, other):
        """Whether the span ``other``, an Echelon of the same space, lies
        in this one.  The pivots of a subspace are pivots of the whole (a
        vector's first nonzero column is a pivot of any span holding
        it), so most spans that are not inside fail on the pivots alone,
        before any row is reduced."""
        return set(other.pivots) <= set(self.pivots) and all(map(self.contains, other))

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
        ops = self.ops
        v = [ops.zero] * len(self[0])
        for c, row in zip(coeffs, self):
            if c:
                v = ops.sub(v, ops.neg(c), row)
        return tuple(v)


def intersection(A, B):
    """A meet B for two Echelon spans of the same space, over A's field.

    A kernel vector (x, y) of the matrix whose columns are the rows of A
    and then of B gives sum x_i A_i = -sum y_j B_j, and these sums span
    the intersection.
    """
    ops = A.ops
    if not A or not B:
        return Echelon((), ops)
    rows = [[a[c] for a in A] + [b[c] for b in B] for c in range(len(A[0]))]
    k = len(A)
    return Echelon([A.combine(v[:k]) for v in kernel(rows, k + len(B), ops)], ops)


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
