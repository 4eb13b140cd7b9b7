"""Smith normal form over the integers, exact arithmetic only.

Input is sparse: a list of rows, each a dict sending a column index to its
coefficient (absent columns and zero values are zero).  Boundary maps of
resolution cubes come in this form, are mostly zero, and are dominated by
+-1 entries, so the work happens in two phases.

1. Unit elimination.  Sweep the live rows in order; at each row holding a
   +-1, pivot on the unit whose column has the fewest live entries, clear
   that column from the other rows (each pivot contributes an invariant
   factor 1 and drops one row and one column, leaving the Schur
   complement), and go on to the next row.  Sweeps repeat until one finds
   no unit.  Choosing the sparsest column of a row keeps fill-in down
   without a global search over all rows.
2. Dense remainder.  Whatever survives holds no unit; it is packed into a
   dense matrix and reduced classically.
"""

from __future__ import annotations

IntMatrix = list[list[int]]
SparseRows = list[dict[int, int]]


def snf_divisors(matrix: SparseRows) -> list[int]:
    """Nonzero diagonal of the Smith normal form, each dividing the next.

    The length of the result is the rank; entries greater than 1 are the
    torsion orders of the cokernel.  The input rows are not modified.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, row in enumerate(matrix):
        data = {c: v for c, v in row.items() if v}
        if data:
            rows[r] = data
            for c in data:
                cols.setdefault(c, set()).add(r)

    units = 0
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
            v = prow[c]
            for r2 in list(cols[c]):
                if r2 == r:
                    continue
                row2 = rows[r2]
                m = row2[c] * v  # 1/v == v for units
                for c2, pv in prow.items():
                    nv = row2.get(c2, 0) - m * pv
                    if nv:
                        if c2 not in row2:
                            cols.setdefault(c2, set()).add(r2)
                        row2[c2] = nv
                    elif c2 in row2:
                        del row2[c2]
                        cols[c2].discard(r2)
                if not row2:
                    del rows[r2]
            for c2 in prow:
                live = cols.get(c2)
                if live is not None:
                    live.discard(r)
                    if not live:
                        del cols[c2]
            del rows[r]
            units += 1
            pivoted = True

    if not rows:
        return [1] * units

    live_cols = sorted({c for data in rows.values() for c in data})
    index = {c: i for i, c in enumerate(live_cols)}
    dense = []
    for r in sorted(rows):
        row = [0] * len(live_cols)
        for c, v in rows[r].items():
            row[index[c]] = v
        dense.append(row)
    return [1] * units + _dense_snf_divisors(dense)


def _dense_snf_divisors(m: IntMatrix) -> list[int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    divisors: list[int] = []
    t = 0
    while True:
        pivot = _smallest_pivot(m, t, rows, cols)
        if pivot is None:
            break
        r, c = pivot
        m[t], m[r] = m[r], m[t]
        for row in m:
            row[t], row[c] = row[c], row[t]
        _clear(m, t, rows, cols)
        if m[t][t] < 0:
            m[t] = [-v for v in m[t]]
        # pivot must divide the rest of the submatrix for the divisor chain
        while True:
            bad = _nondivisible(m, t, rows, cols)
            if bad is None:
                break
            for j in range(cols):
                m[t][j] += m[bad][j]
            _clear(m, t, rows, cols)
            if m[t][t] < 0:
                m[t] = [-v for v in m[t]]
        divisors.append(m[t][t])
        t += 1
    return divisors


def _smallest_pivot(m: IntMatrix, t: int, rows: int, cols: int) -> tuple[int, int] | None:
    best = None
    best_mag = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = m[i][j]
            if v:
                mag = abs(v)
                if best_mag is None or mag < best_mag:
                    best, best_mag = (i, j), mag
                    if mag == 1:
                        return best
    return best


def _clear(m: IntMatrix, t: int, rows: int, cols: int) -> None:
    """Zero out row and column t below/right of the pivot by gcd steps."""
    while True:
        again = False
        for i in range(t + 1, rows):
            while m[i][t]:
                q = m[i][t] // m[t][t]
                for j in range(cols):
                    m[i][j] -= q * m[t][j]
                if m[i][t]:
                    m[t], m[i] = m[i], m[t]
        for j in range(t + 1, cols):
            while m[t][j]:
                q = m[t][j] // m[t][t]
                for i in range(rows):
                    m[i][j] -= q * m[i][t]
                if m[t][j]:
                    for i in range(rows):
                        m[i][t], m[i][j] = m[i][j], m[i][t]
                    again = True  # column swaps may refill the pivot column
        if not again:
            for i in range(t + 1, rows):
                if m[i][t]:
                    again = True
                    break
        if not again:
            return


def _nondivisible(m: IntMatrix, t: int, rows: int, cols: int) -> int | None:
    p = m[t][t]
    for i in range(t + 1, rows):
        for j in range(t + 1, cols):
            if m[i][j] % p:
                return i
    return None


def rank(matrix: SparseRows) -> int:
    return len(snf_divisors(matrix))
