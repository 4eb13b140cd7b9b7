"""Conway polynomial: the exported :func:`conway`, which picks the route,
and the route for braid closures through the reduced Burau matrix.

A diagram built by :func:`~poslink.diagram.braid_closure` keeps its word
(``Diagram.braid``), and :func:`conway` reads nabla off that word; every
other diagram, PD input included, goes to :func:`poslink.seifert.conway`,
which is imported on first use.  The word is first cut into the factors
of a connected sum (:func:`_factors`), each a word on n strands that
uses every generator at least twice, so with c letters 2n <= c + 2: its
(n - 1)-row Burau matrix is never larger than the (c - n + 1)-row
Seifert matrix of its closure.  On random words of 4 to 24 strands and
n + 1 to 2n + 4 letters, 16 words for each (n, c), this route's mean
time was a median 0.8 of the Seifert route's, and above it only on
words of under 0.5 ms (in process, shared 2-core VM, Python 3.11.7).

For a braid on n strands with reduced Burau matrix B (Burau, *Über
Zopfgruppen und gleichsinnig verdrillte Verkettungen*, 1936;
Kassel-Turaev, *Braid Groups*, GTM 247, 2008, ch. 3), det(I - B) is
1 + t + ... + t^(n-1) times the Alexander polynomial, up to a unit.  With
the matrices of :func:`burau_conway`, dividing, replacing t by t^-1 and
multiplying by t^((w - n + 1)/2), w the exponent sum of the word, gives
the Conway-normalized Delta(t) = nabla(t^(1/2) - t^(-1/2)), symmetric in
t^(1/2), which is expanded in z.  Both routes take their determinant
over Z[t] with :func:`_poly_det`: one integer determinant, by the
fraction-free elimination :func:`_bareiss_det`, at a point t so large
that its digits are the coefficients (Kronecker substitution).
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING

from .laurent import LaurentPoly

if TYPE_CHECKING:
    from .diagram import BraidWord, Diagram


def conway(d: Diagram) -> LaurentPoly:
    """Conway polynomial in z: nabla(L+) - nabla(L-) = z * nabla(L0),
    normalized to 1 on the unknot and 0 on split links."""
    if d.braid is None:
        from . import seifert

        return seifert.conway(d)
    factors = _factors(d.braid)
    if factors is None:
        return LaurentPoly.zero()
    nabla = LaurentPoly.one()
    for n, letters in factors:  # nabla is multiplicative under connected sum
        nabla = nabla * burau_conway(n, letters)
    return nabla


def lead_coeff_conway(d: Diagram) -> int:
    """Top-degree coefficient of the Conway polynomial."""
    return conway(d).lead_coeff()


def _factors(word: BraidWord) -> list[tuple[int, list[int]]] | None:
    """Words (n, letters) on n >= 2 strands, each using every generator
    at least twice, whose closures' connected sum is the closure of
    ``word``; None when that closure is split.

    A word that leaves some sigma_i out closes to a split link: no strand
    crosses from one side of i to the other.  When sigma_i occurs once,
    the letters below i commute with those above, so the word is conjugate
    to L sigma_i^(+-1) R, with L the letters below i on strands 1..i and
    R those above on strands i+1..n.  L sigma_i^(+-1) closes to the closure
    of L (a Markov destabilization), R to its own closure, and the two
    share strand i + 1: the closure is their connected sum.  So the
    generators that occur once cut the word into factors, and a factor
    between two cuts keeps the counts it had in the word: every generator
    in it occurs at least twice.  A factor on one strand, where a top or
    a bottom generator occurs once, is the unknot and is dropped."""
    n = word.strand_count
    counts = [0] * n
    for k in word.letters:
        counts[abs(k)] += 1
    if not all(counts[1:]):
        return None
    cuts = [0, *(i for i in range(1, n) if counts[i] == 1), n]
    return [
        (high - low, [k - low if k > 0 else k + low for k in word.letters if low < abs(k) < high])
        for low, high in zip(cuts, cuts[1:])
        if high - low > 1
    ]


# (column offset, exponent of t, sign) of the three terms of
# the new column |letter| - 1 of B, for a negative and for a positive letter
_COLUMN_STEPS = (((-1, 0, 1), (0, -1, -1), (1, -1, 1)), ((-1, 1, 1), (0, 1, -1), (1, 0, 1)))


def burau_conway(n: int, letters: list[int]) -> LaurentPoly:
    """Conway polynomial of the closure of a word on n strands that uses
    every generator, from its reduced Burau matrix B.

    B is the product of the matrices of the letters, each the identity
    except in column c = |letter| - 1, which is (t, -t, 1) in rows c - 1,
    c, c + 1 for sigma_(c+1) and (1, -t^-1, t^-1) for its inverse, cut to
    the n - 1 rows.  So each letter rewrites one column of B:

        col c <- t col(c - 1) - t col(c) + col(c + 1)          (sigma)
        col c <- col(c - 1) - t^-1 col(c) + t^-1 col(c + 1)    (inverse)

    Raises ArithmeticError when det(I - B) is not divisible by
    1 + t + ... + t^(n-1), or the quotient is not symmetric.
    """
    size = n - 1
    # column c of B as {row: {exponent of t: coefficient}}; each letter
    # only adds shifted copies of columns
    columns: list[dict[int, dict[int, int]]] = [{c: {0: 1}} for c in range(size)]
    for letter in letters:
        c = abs(letter) - 1
        new: dict[int, dict[int, int]] = {}
        for offset, power, sign in _COLUMN_STEPS[letter > 0]:
            if 0 <= c + offset < size:
                for row, entry in columns[c + offset].items():
                    poly = new.setdefault(row, {})
                    for k, x in entry.items():
                        poly[k + power] = poly.get(k + power, 0) + sign * x
        columns[c] = {row: {k: x for k, x in poly.items() if x} for row, poly in new.items()}
    rows = [{r: {0: 1}} for r in range(size)]  # I - B
    for c, column in enumerate(columns):
        for r, entry in column.items():
            diff = rows[r].setdefault(c, {})
            for k, x in entry.items():
                diff[k] = diff.get(k, 0) - x
    # each row times the power of t that makes its least exponent 0
    low = 0  # det(I - B) = t^low det(rows)
    for i, row in enumerate(rows):
        row = {c: p for c, entry in row.items() if (p := {k: x for k, x in entry.items() if x})}
        least = min((min(p) for p in row.values()), default=0)
        low += least
        rows[i] = {c: {k - least: x for k, x in p.items()} for c, p in row.items()}
    det = LaurentPoly._raw({2 * (k + low): x for k, x in _poly_det(rows).items()})
    delta = det // LaurentPoly._raw({2 * e: 1 for e in range(n)})
    # t -> t^-1, times t^((w - n + 1)/2), on half-step keys
    shift = sum(1 if k > 0 else -1 for k in letters) - n + 1
    return _expand_in_z({shift - k: x for k, x in delta.halves()})


def _poly_det(rows: list[dict[int, dict[int, int]]]) -> dict[int, int]:
    """Determinant, as {power of t: coefficient}, of the matrix over Z[t]
    whose row i holds its nonzero entries as ``rows[i] = {column: {power
    of t: coefficient}}``, by one integer determinant (Kronecker
    substitution).

    On |t| = 1 an entry is at most the sum of its coefficients' absolute
    values, so by Hadamard's inequality |det| <= B = isqrt(product over
    rows of the sum of their entries' squared bounds) there.  Each
    coefficient of det is the mean of det t^-k over that circle, so it is
    at most B too, and the coefficients are the balanced digits, in
    -B..B, of the integer det at t = 2B + 1.
    """
    bound, top = 1, 0
    for row in rows:
        bound *= sum(sum(map(abs, p.values())) ** 2 for p in row.values())
        top += max((max(p) for p in row.values()), default=0)
    bound = isqrt(bound)
    base = 2 * bound + 1
    powers = [1]
    while len(powers) <= top:
        powers.append(powers[-1] * base)
    det = _bareiss_det([{j: sum(x * powers[k] for k, x in p.items()) for j, p in row.items()} for row in rows])
    coeffs = {}
    for k in range(top + 1):  # det has no power of t above top
        det, digit = divmod(det + bound, base)
        if digit != bound:
            coeffs[k] = digit - bound
    return coeffs


def _expand_in_z(halves: dict[int, int]) -> LaurentPoly:
    """The polynomial in z = t^(1/2) - t^(-1/2) equal to the Laurent
    polynomial in t^(1/2) with ``halves[k]`` the coefficient of t^(k/2):
    subtract c z^k for the top term c t^(k/2) until nothing is left.
    Raises ArithmeticError unless the input is symmetric under
    t^(1/2) -> -t^(-1/2), as every Conway-normalized Delta is."""
    nabla: dict[int, int] = {}
    while halves:
        top = max(halves)
        c = halves[top]
        if top < 0 or min(halves) != -top:
            raise ArithmeticError("Delta is not symmetric in t^(1/2)")
        nabla[2 * top] = c  # z^top, on half-step keys
        binomial = c
        for j in range(top + 1):  # less c (t^(1/2) - t^(-1/2))^top
            x = halves.pop(top - 2 * j, 0) - binomial
            if x:
                halves[top - 2 * j] = x
            binomial = -binomial * (top - j) // (j + 1)
    return LaurentPoly._raw(nabla)


def _bareiss_det(rows: list[dict[int, int]]) -> int:
    """Exact determinant of the matrix whose row i holds its nonzero
    entries as ``rows[i] = {column: value}``, by fraction-free elimination
    (Bareiss, *Sylvester's identity and multistep integer-preserving
    Gaussian elimination*, Math. Comp. 1968), over the integers.  The rows
    are consumed.

    Step k rewrites only the rows below k with a nonzero in column k:

        a'[i][j] = (a[i][j] * p_k - a[i][k] * a[k][j]) / p_(k-1)

    for the pivots p_k, with p_(-1) = 1.  A row with a zero in column k
    would only be scaled by p_k / p_(k-1), so it is left as it is and
    remembers the step t it was last rewritten at: its entries are those
    of step k times p_(t-1) / p_(k-1), and it divides by p_(t-1) instead
    when it is next rewritten.  Every entry of every step is a minor of the
    matrix (Sylvester's identity), so each division is exact.  A zero pivot
    swaps in the first row below with a nonzero in its column.
    """
    n = len(rows)
    pivots = [1]  # pivots[k] = p_(k-1)
    level = [0] * n  # step at which each row was last rewritten
    sign = 1
    for k in range(n):
        if not rows[k].get(k):
            for r in range(k + 1, n):
                if rows[r].get(k):
                    rows[k], rows[r] = rows[r], rows[k]
                    level[k], level[r] = level[r], level[k]
                    sign = -sign
                    break
            else:
                return 0
        tail = rows[k]
        if level[k] < k:
            scale, old = pivots[k], pivots[level[k]]
            tail = {j: x * scale // old for j, x in tail.items()}
        pivot = tail.pop(k)
        for i in range(k + 1, n):
            row = rows[i]
            a = row.pop(k, 0)
            if not a:
                continue
            old = pivots[level[i]]
            new = {j: x * pivot // old for j, x in row.items() if j not in tail}
            for j, y in tail.items():
                x = (row.get(j, 0) * pivot - a * y) // old
                if x:
                    new[j] = x
            rows[i] = new
            level[i] = k + 1
        pivots.append(pivot)
    return sign * pivots[n]
