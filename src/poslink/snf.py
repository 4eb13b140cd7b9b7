"""Smith normal form over the integers, exact arithmetic only.

Input is sparse: a list of rows, each a dict sending a column index to its
coefficient (absent columns and zero values are zero).  Boundary maps of
resolution cubes come in this form, are mostly zero, and are dominated by
+-1 entries.  Both phases below work on the same sparse rows, with a map
from each column to the live rows holding it kept in step.

1. Unit elimination.  Sweep the live rows in order; at each row holding a
   +-1, pivot on the unit whose column has the fewest live entries, clear
   that column from the other rows (each pivot contributes an invariant
   factor 1 and drops one row and one column, leaving the Schur
   complement), and go on to the next row.  Sweeps repeat until one finds
   no unit.  Choosing the sparsest column of a row keeps fill-in down
   without a global search over all rows.  The complexes that
   :mod:`poslink.tangle` builds arrive with no unit entry left, so this
   phase serves general input, such as the full cube of resolutions the
   tests compare against.
2. Euclidean elimination.  Whatever survives holds no unit.  Pivot on an
   entry of least magnitude and reduce its column by row operations with
   floor quotients; once the column holds only the pivot, reduce the pivot
   row modulo the pivot (the column is zero elsewhere, so these column
   operations touch that row only).  A nonzero remainder is smaller than
   the pivot and becomes the next one.  A pivot alone in its row and
   column is a diagonal entry, and its row and column are dropped.

The diagonal is then put in divisor-chain form by the exchange
Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).
"""

from __future__ import annotations

from math import gcd

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

    unit_count = 0
    pivoted = True
    while pivoted:
        pivoted = False
        for r in list(rows):
            prow = rows.get(r)
            if prow is None:
                continue  # emptied by an earlier pivot of this sweep
            c = None
            for c2, v in prow.items():
                if (v == 1 or v == -1) and (c is None or len(cols[c2]) < len(cols[c])):
                    c = c2
            if c is None:
                continue
            _reduce_column(rows, cols, r, c)  # a unit divides exactly: c clears
            _drop(rows, cols, r)
            unit_count += 1
            pivoted = True

    diagonal = []
    while rows:
        r, c = min(
            ((r, c) for r, row in rows.items() for c in row),
            key=lambda rc: abs(rows[rc[0]][rc[1]]),
        )
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

    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            g = gcd(a, b)
            diagonal[i], diagonal[j] = g, a // g * b
    return [1] * unit_count + diagonal


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
