import random
from fractions import Fraction

import pytest

from l2lab.exact import Echelon, kernel, next_prime, prime_factors, rref, solve

ONE = Fraction(1)


def _rows(nrows, ncols, entries):
    """Row-major entries as an nrows x ncols list of Fraction rows."""
    entries = [Fraction(e) for e in entries]
    return [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]


def _mul_vector(rows, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def test_kernel_full_rank_1x1():
    assert kernel(_rows(1, 1, [1]), 1, ONE) == []


def test_kernel_of_empty_matrix_is_standard_basis():
    assert kernel([], 3, ONE) == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_kernel_1x2_symmetry():
    assert kernel(_rows(1, 2, [1, -1]), 2, ONE) == [(Fraction(1), Fraction(1))]


def test_kernel_2x3_hand_elimination():
    # [[1,0,1],[0,1,1]] is already reduced; the free column gives (-1,-1,1).
    assert kernel(_rows(2, 3, [1, 0, 1, 0, 1, 1]), 3, ONE) == [
        (Fraction(-1), Fraction(-1), Fraction(1))]


def test_echelon_identity():
    m = _rows(2, 2, [1, 0, 0, 1])
    assert rref(m) == (m, [0, 1])


def test_echelon_scaling():
    assert rref(_rows(1, 2, [2, 4])) == (_rows(1, 2, [1, 2]), [0])


def test_echelon_duplicate_row():
    assert rref(_rows(2, 2, [1, 1, 1, 1])) == (_rows(2, 2, [1, 1, 0, 0]), [0])


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
        basis = kernel(m, cols, ONE)
        for v in basis:
            assert all(x == 0 for x in _mul_vector(m, v))
        assert len(rref(m)[1]) + len(basis) == cols


def test_echelon_idempotent():
    rng = random.Random(13)
    for _ in range(25):
        m = _random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        e, pivots = rref(m)
        assert rref(e) == (e, pivots)


def test_solve_roundtrip():
    rng = random.Random(99)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = _random_matrix(rng, rows, cols)
        x = [Fraction(rng.randrange(-4, 5)) for _ in range(cols)]
        rhs = _mul_vector(m, x)
        got = solve(m, rhs, ONE)
        assert got is not None
        assert _mul_vector(m, got) == rhs


def test_solve_inconsistent():
    assert solve([[Fraction(1)], [Fraction(1)]], [Fraction(1), Fraction(2)],
                 Fraction(1)) is None


def test_in_row_space():
    red = Echelon([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert red.contains([Fraction(3), Fraction(4)])
    red2 = Echelon([[Fraction(1), Fraction(1)]])
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
