from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from poslink.snf import invariant_factors, snf_divisors as _snf_divisors


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


def minor_gcd(matrix, k):
    """gcd of the k x k minors, for k in (1, 2)."""
    if k == 1:
        return gcd(*(v for row in matrix for v in row))
    cols = range(len(matrix[0]))
    return gcd(*(
        r[a] * s[b] - r[b] * s[a]
        for r, s in itertools.combinations(matrix, 2)
        for a, b in itertools.combinations(cols, 2)
    ))


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
        # no unit anywhere: every pivot needs Euclidean steps
        assert snf_divisors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]

    def test_rectangular(self):
        assert snf_divisors([[1, 2, 3]]) == [1]
        assert snf_divisors([[2], [4], [6]]) == [2]
        # the pivot row reduced modulo the pivot leaves the unit 1
        assert snf_divisors([[2, 3]]) == [1]


def grids(entries, lo, hi, *, square=False):
    """Matrices of lo..hi rows and columns, entries drawn from ``entries``."""

    def shaped(n, m):
        return st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)

    if square:
        return st.integers(lo, hi).flatmap(lambda n: shaped(n, n))
    return st.integers(lo, hi).flatmap(
        lambda n: st.integers(lo, hi).flatmap(lambda m: shaped(n, m))
    )


matrices = grids(st.integers(-9, 9), 1, 5)
unit_heavy = grids(st.sampled_from([0, 0, 0, 0, 1, -1, 2]), 2, 12)
# no +-1 entries, so every pivot needs Euclidean steps
UNIT_FREE = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, 6, -9])
unit_free = grids(UNIT_FREE, 2, 14)


class TestProperties:
    @given(matrix=st.one_of(matrices, unit_free))
    @settings(max_examples=150, deadline=None)
    def test_divisor_chain_and_rank(self, matrix):
        divisors = snf_divisors(matrix)
        assert all(d > 0 for d in divisors)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        assert len(divisors) == rational_rank(matrix)
        # d1 * ... * dk is the gcd of the k x k minors
        for k in range(1, min(2, len(divisors)) + 1):
            assert prod(divisors[:k]) == minor_gcd(matrix, k)

    @given(matrix=st.one_of(matrices, grids(UNIT_FREE, 2, 14, square=True)))
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
        # larger, mostly zero matrices of +-1 with a few 2s: several
        # sweeps, fill-in, and sometimes a unit-free rest that needs
        # Euclidean steps
        divisors = snf_divisors(matrix)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        assert len(divisors) == rational_rank(matrix)

    @given(matrix=st.one_of(unit_heavy, unit_free), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, matrix, data):
        # the pivot order follows the row order and the column counts:
        # neither may change the divisors
        rows = data.draw(st.permutations(matrix))
        order = data.draw(st.permutations(range(len(matrix[0]))))
        permuted = [[row[c] for c in order] for row in rows]
        assert snf_divisors(permuted) == snf_divisors(matrix)

    def test_first_row_without_unit(self):
        # the sweep pivots on 2 before it reaches the unit rows below; the
        # determinant is -14
        matrix = [[2, 4, 0], [1, 0, 3], [0, -1, 5]]
        assert snf_divisors(matrix) == [1, 1, 14]
        assert snf_divisors(matrix[::-1]) == [1, 1, 14]

    @given(st.lists(st.integers(1, 60), max_size=8))
    @settings(max_examples=200)
    def test_invariant_factors_are_the_primary_decomposition(self, orders):
        # the k-th factor from the top holds the k-th largest power of
        # each prime, found here by trial division
        powers: dict[int, list[int]] = {}
        for x in orders:
            for p in range(2, x + 1):
                e = 0
                while x % p == 0:
                    x, e = x // p, e + 1
                if e:
                    powers.setdefault(p, []).append(p**e)
        depth = max((len(v) for v in powers.values()), default=0)
        tops = [sorted(v, reverse=True) + [1] * (depth - len(v)) for v in powers.values()]
        expected = [prod(col) for col in zip(*tops)][::-1]
        assert invariant_factors(orders) == expected
        assert invariant_factors(sorted(orders, reverse=True)) == expected

    def test_invariant_factors_of_long_runs(self):
        # one bisection per entry: a quadratic exchange takes minutes here
        assert invariant_factors([2] * 50000 + [3] * 50000) == [6] * 50000
        assert invariant_factors([4, 2] * 20000) == [2] * 20000 + [4] * 20000

    def test_input_rows_untouched(self):
        rows = [{0: 1, 1: 2}, {0: 1, 1: 4, 2: 0}]
        snapshot = [dict(row) for row in rows]
        assert _snf_divisors(rows) == [1, 2]
        assert rows == snapshot


def _det(matrix):
    """Fraction-exact determinant by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return int(det)
