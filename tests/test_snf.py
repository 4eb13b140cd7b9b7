from __future__ import annotations

from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from poslink.snf import rank, snf_divisors as _snf_divisors


def sparse(matrix):
    """Dense rows -> the sparse rows snf_divisors takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def snf_divisors(matrix):
    return _snf_divisors(sparse(matrix))


def rational_rank(matrix):
    """Independent rank oracle: fraction-exact Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


class TestKnownForms:
    def test_empty(self):
        assert snf_divisors([]) == []
        assert snf_divisors([[0, 0], [0, 0]]) == []

    def test_identity(self):
        assert snf_divisors([[1, 0], [0, 1]]) == [1, 1]

    def test_diagonal_gcd(self):
        assert snf_divisors([[2, 0], [0, 3]]) == [1, 6]
        assert snf_divisors([[2, 0], [0, 2]]) == [2, 2]

    def test_single_entries(self):
        assert snf_divisors([[5]]) == [5]
        assert snf_divisors([[-5]]) == [5]

    def test_rank_deficient(self):
        assert snf_divisors([[2, 4], [4, 8]]) == [2]

    def test_torsion(self):
        assert snf_divisors([[6, 4], [4, 4]]) == [2, 4]

    def test_rectangular(self):
        assert snf_divisors([[1, 2, 3]]) == [1]
        assert snf_divisors([[2], [4], [6]]) == [2]


matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)

unit_heavy = st.integers(2, 12).flatmap(
    lambda n: st.integers(2, 12).flatmap(
        lambda m: st.lists(
            st.lists(
                st.sampled_from([0, 0, 0, 0, 1, -1, 2]), min_size=m, max_size=m
            ),
            min_size=n,
            max_size=n,
        )
    )
)


class TestProperties:
    @given(matrix=matrices)
    @settings(max_examples=150, deadline=None)
    def test_divisor_chain_and_rank(self, matrix):
        divisors = snf_divisors(matrix)
        assert all(d > 0 for d in divisors)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        assert len(divisors) == rational_rank(matrix)

    @given(matrix=matrices)
    @settings(max_examples=100, deadline=None)
    def test_square_determinant(self, matrix):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            return
        det = _det(matrix)
        divisors = snf_divisors(matrix)
        if det == 0:
            assert len(divisors) < n
        else:
            assert prod(divisors) == abs(det)

    @given(matrix=unit_heavy)
    @settings(max_examples=100, deadline=None)
    def test_sparse_unit_heavy(self, matrix):
        # larger, mostly zero matrices of +-1 with a few 2s: several unit
        # sweeps, fill-in, and sometimes a dense remainder
        divisors = snf_divisors(matrix)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        assert len(divisors) == rational_rank(matrix)

    def test_input_rows_untouched(self):
        rows = [{0: 1, 1: 2}, {0: 1, 1: 4, 2: 0}]
        snapshot = [dict(row) for row in rows]
        assert _snf_divisors(rows) == [1, 2]
        assert rows == snapshot

    def test_rank_helper(self):
        assert rank(sparse([[1, 2], [2, 4]])) == 1


def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _det(minor)
    return total
