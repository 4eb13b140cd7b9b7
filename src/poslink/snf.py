"""Smith normal form over the integers, exact arithmetic only.

Input is sparse: a list of rows, each a dict sending a column index to its
coefficient (absent columns and zero values are zero).  Boundary maps of
resolution cubes come in this form and are mostly zero.  The elimination
works on the same sparse rows, with a map from each column to the live
rows holding it kept in step, and follows one rule.

Sweep the live rows, and sweep again while any are left.  At each row,
pivot on its entry of least magnitude, on ties the one whose column has
the fewest live rows.  Reduce the pivot's column by row operations with
floor quotients; a nonzero remainder is smaller than the pivot and moves
the pivot to the least one in the column.  Once the column holds only the
pivot, reduce the pivot row modulo the pivot (the column is zero
elsewhere, so these column operations touch that row only), and move the
pivot to the least leftover in the row.  A pivot alone in its row and
column is a diagonal entry, and its row and column are dropped.  A +-1
pivot divides everything: it clears its column and its row at once,
leaving the Schur complement, and the sparsest column keeps fill-in down.

The diagonal entries greater than 1 are then put in divisor-chain form by
:func:`invariant_factors`; the 1s go in front.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Iterable

SparseRows = list[dict[int, int]]
_Rows = dict[int, dict[int, int]]
_Cols = dict[int, set[int]]


def snf_divisors(matrix: SparseRows) -> list[int]:
    """Nonzero diagonal of the Smith normal form, each dividing the next.

    The length of the result is the rank; entries greater than 1 are the
    torsion orders of the cokernel.  The input rows are not modified.
    """
    rows: _Rows = {}
    cols: _Cols = {}
    for r, row in enumerate(matrix):
        data = {c: v for c, v in row.items() if v}
        if data:
            rows[r] = data
            for c in data:
                cols.setdefault(c, set()).add(r)

    diagonal = []
    while rows:
        for r in list(rows):
            prow = rows.get(r)
            if prow is None:
                continue  # emptied or finished earlier in this sweep
            c = min(prow, key=lambda c2: (abs(prow[c2]), len(cols[c2])))
            while True:
                _reduce_column(rows, cols, r, c)
                prow = rows[r]
                p = prow[c]
                rest = cols[c] - {r}
                if rest:
                    r = min(rest, key=lambda r2: abs(rows[r2][c]))
                    continue
                for c2 in list(prow):
                    if c2 != c:
                        v = prow[c2] % p
                        if v:
                            prow[c2] = v
                        else:
                            del prow[c2]
                            cols[c2].discard(r)
                            if not cols[c2]:
                                del cols[c2]
                if len(prow) > 1:
                    c = min((c2 for c2 in prow if c2 != c), key=lambda c2: abs(prow[c2]))
                    continue
                diagonal.append(abs(p))
                _drop(rows, cols, r)
                break

    chain = invariant_factors(diagonal)
    return [1] * (len(diagonal) - len(chain)) + chain


def invariant_factors(orders: Iterable[int]) -> list[int]:
    """Invariant factors of the sum of the groups Z/k, k in orders: the
    orders > 1 of an isomorphic sum, each dividing the next.

    Each x is carried down the chain by the exchange Z/a + Z/b =
    Z/gcd(a, b) + Z/lcm(a, b), the lcm staying and the gcd going on; at
    each prime that is insertion into a sorted list.  The entries dividing
    x are a prefix of the chain and those x divides a suffix, which the
    exchange leaves alone; bisection finds both, so a long run of one order
    costs a logarithm per entry."""
    chain: list[int] = []
    for x in orders:
        k = len(chain)
        while x > 1:
            m = bisect_left(chain, True, 0, k, key=lambda c: x % c != 0)
            k = bisect_left(chain, True, m, k, key=lambda c: c % x == 0)
            if k == m:
                chain.insert(k, x)
                break
            k -= 1
            g = gcd(chain[k], x)
            chain[k], x = chain[k] // g * x, g
    return chain


def _reduce_column(rows: _Rows, cols: _Cols, r: int, c: int) -> None:
    """Subtract from every other row holding column c the multiple of row r
    that leaves its entry there a remainder modulo the pivot (floor
    quotient), keeping cols in step; a row left empty is dropped."""
    prow = rows[r]
    p = prow[c]
    for r2 in list(cols[c]):
        if r2 == r:
            continue
        row2 = rows[r2]
        m = row2[c] // p
        if not m:
            continue
        for c2, pv in prow.items():
            nv = row2.get(c2, 0) - m * pv
            if nv:
                if c2 not in row2:
                    cols.setdefault(c2, set()).add(r2)
                row2[c2] = nv
            elif c2 in row2:
                del row2[c2]
                cols[c2].discard(r2)  # still holds row r, so never empty
        if not row2:
            del rows[r2]


def _drop(rows: _Rows, cols: _Cols, r: int) -> None:
    """Remove a finished row and every column left without live rows."""
    for c2 in rows.pop(r):
        live = cols[c2]
        live.discard(r)
        if not live:
            del cols[c2]
