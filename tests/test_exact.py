import random
from fractions import Fraction

import pytest

from l2lab.exact import QQ_OPS, Echelon, kernel, next_prime, prime_factors, rref


def _rows(nrows, ncols, entries):
    """Row-major entries as an nrows x ncols list of Fraction rows."""
    entries = [Fraction(e) for e in entries]
    return [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]


def _mul_vector(rows, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def test_kernel_full_rank_1x1():
    assert kernel(_rows(1, 1, [1]), 1, QQ_OPS) == []


def test_kernel_of_empty_matrix_is_standard_basis():
    assert kernel([], 3, QQ_OPS) == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_kernel_1x2_symmetry():
    assert kernel(_rows(1, 2, [1, -1]), 2, QQ_OPS) == [(Fraction(1), Fraction(1))]


def test_kernel_2x3_hand_elimination():
    # [[1,0,1],[0,1,1]] is already reduced; the free column gives (-1,-1,1).
    assert kernel(_rows(2, 3, [1, 0, 1, 0, 1, 1]), 3, QQ_OPS) == [
        (Fraction(-1), Fraction(-1), Fraction(1))]


def test_echelon_identity():
    m = _rows(2, 2, [1, 0, 0, 1])
    assert rref(m, QQ_OPS) == (m, [0, 1])


def test_echelon_scaling():
    assert rref(_rows(1, 2, [2, 4]), QQ_OPS) == (_rows(1, 2, [1, 2]), [0])


def test_echelon_duplicate_row():
    assert rref(_rows(2, 2, [1, 1, 1, 1]), QQ_OPS) == (_rows(2, 2, [1, 1, 0, 0]), [0])


@pytest.mark.parametrize("n,expected", [(1, 2), (7, 11), (100, 101), (0, 2), (2, 3)])
def test_next_prime(n, expected):
    assert next_prime(n) == expected


def test_next_prime_against_trial_division():
    def is_prime_naive(k):
        return k >= 2 and all(k % d for d in range(2, k))
    for n in range(0, 200):
        p = next_prime(n)
        assert is_prime_naive(p)
        assert all(not is_prime_naive(k) for k in range(n + 1, p))


def _random_matrix(rng, rows, cols):
    return _rows(rows, cols, [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                              for _ in range(rows * cols)])


def test_kernel_exactness_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        m = _random_matrix(rng, rows, cols)
        basis = kernel(m, cols, QQ_OPS)
        for v in basis:
            assert all(x == 0 for x in _mul_vector(m, v))
        assert len(rref(m, QQ_OPS)[1]) + len(basis) == cols


def test_echelon_idempotent():
    rng = random.Random(13)
    for _ in range(25):
        m = _random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        e, pivots = rref(m, QQ_OPS)
        assert rref(e, QQ_OPS) == (e, pivots)


def test_subspace_carries_a_reduced_basis_over_unreduced():
    """``Echelon.subspace`` combines the rows by a reduced coordinate
    basis and reduces nothing; the result is what reducing the
    combinations once more would give, rows and pivots alike."""
    rng = random.Random(29)
    for _ in range(40):
        ncols = rng.randrange(1, 6)
        E = Echelon(_random_matrix(rng, rng.randrange(1, 5), ncols), QQ_OPS)
        if not E:
            continue
        C = Echelon(_random_matrix(rng, rng.randrange(1, 4), E.dim), QQ_OPS)
        got = E.subspace(C)
        want = Echelon([E.combine(c) for c in C], QQ_OPS)
        assert got == want and got.pivots == want.pivots
        assert got.dim == C.dim and E.contains_span(got)


def test_in_row_space():
    red = Echelon([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], QQ_OPS)
    assert red.contains([Fraction(3), Fraction(4)])
    red2 = Echelon([[Fraction(1), Fraction(1)]], QQ_OPS)
    assert red2.contains([Fraction(2), Fraction(2)])
    assert not red2.contains([Fraction(1), Fraction(0)])


def test_prime_factors_against_naive_oracle():
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, p))]

    def naive(n):
        out = []
        for p in primes:
            while n % p == 0:
                out.append(p)
                n //= p
        return out
    assert prime_factors(0) == prime_factors(1) == []
    for n in range(1, 2001):
        assert prime_factors(n) == naive(n), n


# --- Gauss-Jordan elimination: the oracle of the one insertion loop ----------

def gauss_jordan_rref(rows, ops):
    """Reduced row-echelon form by column-by-column Gauss-Jordan
    elimination, the pivot of each column taken from the first row below
    the last pivot row that is nonzero there; the zero rows stay at the
    bottom.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        src = next((i for i in range(r, len(m)) if m[i][c]), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        m[r] = ops.div(m[r], m[r][c])
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = ops.sub(m[i], m[i][c], m[r])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + [[ops.zero] * ncols for _ in m[r:]], pivots


def _oracle_fields():
    from l2lab.finitealg import small_field
    rational = (QQ_OPS, lambda rng: Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)))
    return [rational] + [(small_field(q).ops, lambda rng, q=q: rng.randrange(q))
                         for q in (2, 3, 4)]


def _oracle_matrices(rng, entry, ops):
    """Square, tall, wide and rank-deficient matrices, and a zero one."""
    for nrows, ncols in ((3, 3), (5, 2), (2, 5), (4, 4), (1, 3), (3, 1)):
        yield [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    for nrows, ncols, rank in ((5, 4, 2), (4, 6, 1), (6, 3, 2)):
        base = [[entry(rng) for _ in range(ncols)] for _ in range(rank)]
        rows = []
        for _ in range(nrows):
            v = [ops.zero] * ncols
            for b in base:
                v = ops.sub(v, entry(rng), b)
            rows.append(v)
        yield rows
    yield [[ops.zero] * 3 for _ in range(2)]


def _kernel_from(red, pivots, ncols, ops):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for i, pc in enumerate(pivots):
            v[pc] = ops.neg(red[i][fc])
        basis.append(tuple(v))
    return basis


@pytest.mark.parametrize("field", range(4), ids=["Q", "F2", "F3", "F4"])
def test_insertion_loop_matches_gauss_jordan(field):
    """``rref``, ``Echelon`` (built at once and by ``extend`` in two
    parts) and ``kernel`` against Gauss-Jordan elimination, on
    seeded random matrices and the empty one."""
    ops, entry = _oracle_fields()[field]
    rng = random.Random(2300 + field)
    assert rref([], ops) == gauss_jordan_rref([], ops) == ([], [])
    assert Echelon([], ops) == ()
    for _ in range(20):
        for rows in _oracle_matrices(rng, entry, ops):
            ncols = len(rows[0])
            red, pivots = gauss_jordan_rref(rows, ops)
            assert rref(rows, ops) == (red, pivots)
            rank = len(pivots)
            want = tuple(tuple(r) for r in red[:rank])
            cut = rng.randrange(len(rows) + 1)
            for E in (Echelon(rows, ops), Echelon(rows[:cut], ops).extend(rows[cut:])):
                assert E == want and E.pivots == tuple(pivots)
            assert kernel(rows, ncols, ops) == _kernel_from(red, pivots, ncols, ops)
