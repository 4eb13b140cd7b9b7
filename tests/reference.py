"""Slow, direct implementations that the tests compare poslink against.

* :func:`cube_states`: every vertex of the cube of resolutions, with its
  circles.
* :func:`cube_slices`: the full cube of resolutions, every generator and
  every edge, with no cancellation.
* :func:`per_map_homology`: homology of that cube with each boundary map
  reduced by its own ``snf_divisors`` call.
* :func:`kauffman_bracket_states`: the bracket as a sum over all 2^c states,
  and :func:`jones_states`, the Jones polynomial from it.
* :func:`contraction_order`: the bracket's crossing order, by rescanning
  every remaining crossing at each step.
* :class:`Skein`: a diagram with explicit orientation, and the crossing
  switches and oriented resolutions of the skein relation.
* :func:`conway_skein`: the Conway polynomial by the descending-diagram
  skein recursion.
* :func:`bareiss_det`: the determinant of a dense integer matrix by
  fraction-free elimination that rewrites every row below the pivot.
* :func:`burau_conway`: the Conway polynomial of a braid closure from its
  reduced Burau matrix, with no diagram and no Seifert surface.
* :func:`survey_words`: the survey's words, one per conjugacy key, by
  keying every positive word by all of its rotations and flips.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterator, Sequence

from poslink import BigradedGroups, BraidWord, Diagram, LaurentPoly
from poslink.batch import positive_braid_words
from poslink.diagram import (
    A_SMOOTHING,
    B_SMOOTHING,
    Crossing,
    _far_ends,
    _shadow_components,
    crossing_signs,
    smoothing_pairs,
)
from poslink.errors import OrientationInconsistent
from poslink.khovanov import ChainSlice
from poslink.snf import snf_divisors


def cube_states(d: Diagram) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Every vertex of the cube of resolutions, as ``(mask, circles, labels)``.

    Bit e of ``mask`` set means crossing e is B-smoothed; masks ascend.
    ``circles`` excludes free circles.  ``labels`` has entry a the least arc
    on arc a's circle (entry 0 is 0 and unused).

    The walk smooths crossings c-1 .. 0 depth-first.  A join relabels the
    smaller of the two arc classes it merges, and the next mask undoes and
    redoes only the crossings whose bits change: two on average.
    """
    joins = [
        (smoothing_pairs(t, A_SMOOTHING), smoothing_pairs(t, B_SMOOTHING))
        for t in d.crossings
    ]
    n = d.arc_count
    owner = list(range(n + 1))  # arc -> id of its class
    members = [[a] for a in range(n + 1)]  # class id -> its arcs
    least = list(range(n + 1))  # class id -> least arc of the class
    merges: list[tuple[int, int, int]] = []  # (kept id, merged id, old least)
    marks: list[int] = []  # len(merges) before each smoothed crossing

    def smooth(pairs) -> None:
        marks.append(len(merges))
        for x, y in pairs:
            keep, gone = owner[x], owner[y]
            if keep != gone:
                if len(members[keep]) < len(members[gone]):
                    keep, gone = gone, keep
                merges.append((keep, gone, least[keep]))
                for a in members[gone]:
                    owner[a] = keep
                members[keep] += members[gone]
                if least[gone] < least[keep]:
                    least[keep] = least[gone]

    for e in reversed(range(len(joins))):
        smooth(joins[e][0])
    for mask in range(1 << len(joins)):
        if mask:
            # bit k turns on and the bits below it turn off
            k = (mask & -mask).bit_length() - 1
            mark = marks[-k - 1]
            del marks[-k - 1:]
            while len(merges) > mark:
                keep, gone, low = merges.pop()
                moved = members[gone]
                del members[keep][-len(moved):]
                for a in moved:
                    owner[a] = gone
                least[keep] = low
            smooth(joins[k][1])
            for e in reversed(range(k)):
                smooth(joins[e][0])
        yield mask, n - len(merges), tuple(map(least.__getitem__, owner))


def cube_slices(d: Diagram) -> dict[int, ChainSlice]:
    """The full cube as independent per-quantum-grading complexes.

    Each cube edge has one rule: ``image[s]`` is the bit of the target
    circle of source circle s, and a labeling's untouched circles map to
    ``mapped[bits] = mapped[bits ^ low] | image[low]`` (low the lowest set
    bit).  Merges send 1.1 -> 1, 1.x -> x, x.x -> 0; splits send
    x -> x.x and 1 -> 1.x + x.1.  Signs are the parity of B-smoothings at
    lower coordinates.
    """
    signs = crossing_signs(d)
    qn = signs.negative_count
    shift = signs.positive_count - 2 * qn

    # per vertex: circle[a], the bit of arc a's circle (entry 0 is 0, the
    # free circles follow the arcs), and the index of each labeling within
    # its (i, j) slot
    circle: list[list[int]] = []
    offsets: list[list[int]] = []
    counts: dict[tuple[int, int], int] = {}
    for mask, crossed, labels in cube_states(d):
        bit = {least: 1 << k for k, least in enumerate(sorted(set(labels[1:])))}
        bit[0] = 0
        n = crossed + d.free_circles
        circle.append([bit[a] for a in labels] + [1 << k for k in range(crossed, n)])
        i = mask.bit_count() - qn
        top = n + mask.bit_count() + shift
        local = []
        for bits in range(1 << n):
            key = (i, top - 2 * bits.bit_count())
            pos = counts.get(key, 0)
            counts[key] = pos + 1
            local.append(pos)
        offsets.append(local)

    slices: dict[int, ChainSlice] = {}
    for (i, j), n in sorted(counts.items()):
        sl = slices.setdefault(j, ChainSlice(j, {}, {}))
        sl.generator_counts[i] = n
        sl.boundaries[i] = [{} for _ in range(counts.get((i + 1, j), 0))]

    for mask, src in enumerate(circle):
        cols = offsets[mask]
        n = len(cols).bit_length() - 1
        i = mask.bit_count() - qn
        top = n + mask.bit_count() + shift
        rows_at = [slices[top - 2 * w].boundaries[i] for w in range(n + 1)]
        for e, (a, b, c_arc, _) in enumerate(d.crossings):
            edge = 1 << e
            if mask & edge:
                continue
            dst = circle[mask | edge]
            targets = offsets[mask | edge]
            sign = -1 if (mask & (edge - 1)).bit_count() & 1 else 1
            image = dict(zip(src, dst))
            s1, s2 = src[a], src[b]
            merge = s1 != s2
            if not merge:
                t1, t2 = dst[a], dst[c_arc]
                image[s1] = 0
            mapped = [0] * len(cols)
            for bits, col in enumerate(cols):
                low = bits & -bits
                out = mapped[bits] = mapped[bits ^ low] | image[low]
                rows = rows_at[bits.bit_count()]
                if merge:
                    if not (bits & s1 and bits & s2):
                        rows[targets[out]][col] = sign
                elif bits & s1:
                    rows[targets[out | t1 | t2]][col] = sign
                else:
                    rows[targets[out | t2]][col] = sign
                    rows[targets[out | t1]][col] = sign
    return slices


def per_map_homology(d: Diagram) -> BigradedGroups:
    """Homology of the full cube, each boundary map of each quantum grading
    reduced by its own snf_divisors call, nothing cancelled between maps."""
    entries = {}
    for j, sl in cube_slices(d).items():
        divisors = {i: snf_divisors(m) for i, m in sl.boundaries.items()}
        for i, n in sl.generator_counts.items():
            incoming = divisors.get(i - 1, [])
            free = n - len(divisors.get(i, ())) - len(incoming)
            torsion = tuple(t for t in incoming if t > 1)
            if free or torsion:
                entries[(i, j)] = (free, torsion)
    return BigradedGroups(entries)


def kauffman_bracket_states(d: Diagram) -> LaurentPoly:
    """State sum over all 2^c smoothings: sum of A^(#A - #B) *
    delta^(circles - 1) over the vertices of the cube."""
    if not d.crossings and not d.free_circles:
        return LaurentPoly.one()
    c = d.crossing_count
    # (#B, circles) -> number of states
    profile = Counter((mask.bit_count(), circles) for mask, circles, _ in cube_states(d))
    delta = LaurentPoly({2: -1, -2: -1})
    result = LaurentPoly.zero()
    for (b_count, circles), n in profile.items():
        result = result + LaurentPoly.term(n, c - 2 * b_count) * delta ** (
            circles + d.free_circles - 1
        )
    return result


def jones_states(d: Diagram) -> LaurentPoly:
    """V(t) = (-A^3)^(-w) <D> at A = t^(-1/4), the bracket taken from
    :func:`kauffman_bracket_states`."""
    w = crossing_signs(d).writhe
    normalized = kauffman_bracket_states(d) * LaurentPoly.term((-1) ** w, -3 * w)
    # A^e is t^(-e/4), and e is even: V has half-integer exponents
    out = {}
    for exp, coeff in normalized.terms():
        assert exp % 2 == 0, exp
        out[-exp / 4] = coeff
    return LaurentPoly(out)


def contraction_order(d: Diagram) -> list[int]:
    """The bracket's crossing order: each next crossing shares the most
    arcs with the open boundary, ties go to the one with more incoming arcs
    open, then to the lowest index.  Every step rescans all crossings left."""
    signs = crossing_signs(d).signs
    incoming = [(t[0], t[1] if s > 0 else t[3]) for t, s in zip(d.crossings, signs)]
    open_arcs: set[int] = set()
    left = list(range(d.crossing_count))
    order = []
    while left:
        k = max(left, key=lambda i: (
            sum(arc in open_arcs for arc in d.crossings[i]),
            sum(arc in open_arcs for arc in incoming[i]),
        ))
        left.remove(k)
        order.append(k)
        for arc in d.crossings[k]:
            open_arcs ^= {arc}
    return order


class Skein:
    """A diagram's PD data with its over-strand entry slots, closed under
    the skein surgeries: switches and resolutions relabel arcs freely, and
    the carried slots keep the orientation through them.

    ``over_in[k]`` is 1 when the over-strand of crossing k runs b -> d
    (positive) and 3 when it runs d -> b (negative).
    """

    __slots__ = ("crossings", "over_in", "free_circles")

    def __init__(
        self,
        crossings: Sequence[Crossing],
        over_in: Sequence[int],
        free_circles: int,
    ) -> None:
        self.crossings = list(crossings)
        self.over_in = list(over_in)
        self.free_circles = free_circles

    def entry_walk(self) -> list[list[int]]:
        """Entry positions ``4 * k + s`` (slot 0 or ``over_in[k]``) of each
        crossed component in traversal order, components ordered by and
        starting at their least arc."""
        other = _far_ends(self.crossings)
        label = [arc for t in self.crossings for arc in t]
        todo = {4 * k + s for k, oi in enumerate(self.over_in) for s in (0, oi)}
        walks = []
        for start in sorted(todo, key=label.__getitem__):
            if start not in todo:
                continue
            walk = []
            pos = start
            while pos in todo:
                todo.remove(pos)
                walk.append(pos)
                pos = other[pos ^ 2]
            if pos != start:
                raise OrientationInconsistent(f"arc {label[pos]} leaves crossings at both ends")
            walks.append(walk)
        return walks

    def to_diagram(self) -> Diagram:
        """Relabel arcs consecutively along each oriented component."""
        ren: dict[int, int] = {}
        for walk in self.entry_walk():
            for pos in walk:
                ren[self.crossings[pos >> 2][pos & 3]] = len(ren) + 1
        return Diagram(
            tuple(tuple(ren[v] for v in t) for t in self.crossings),
            self.free_circles,
        )

    @classmethod
    def of(cls, d: Diagram) -> "Skein":
        return cls(d.crossings, d._orientation[0], d.free_circles)

    def sign(self, k: int) -> int:
        return 1 if self.over_in[k] == 1 else -1

    def key(self) -> tuple:
        """Hashable form with arcs densely relabeled, order preserved."""
        labels = sorted({lab for t in self.crossings for lab in t})
        ren = {lab: i + 1 for i, lab in enumerate(labels)}
        return (
            tuple(tuple(ren[v] for v in t) for t in self.crossings),
            tuple(self.over_in),
            self.free_circles,
        )

    def component_count(self) -> int:
        return len(self.entry_walk()) + self.free_circles

    def first_defect(self) -> int | None:
        """First crossing reached on its under-strand before its over-strand."""
        visited: set[int] = set()
        for walk in self.entry_walk():
            for pos in walk:
                k = pos >> 2
                if k not in visited:
                    visited.add(k)
                    if pos & 3 == 0:
                        return k
        return None

    def switch(self, k: int) -> "Skein":
        """Exchange over- and under-strand at crossing k (sign flips)."""
        t = self.crossings[k]
        xs = list(self.crossings)
        oi = list(self.over_in)
        if oi[k] == 1:
            xs[k] = (t[1], t[2], t[3], t[0])
            oi[k] = 3
        else:
            xs[k] = (t[3], t[0], t[1], t[2])
            oi[k] = 1
        return Skein(xs, oi, self.free_circles)

    def resolve(self, k: int) -> "Skein":
        """Oriented resolution: both strands continue, the crossing is gone."""
        a, b, c, d = self.crossings[k]
        joins = [{a, d}, {b, c}] if self.over_in[k] == 1 else [{a, b}, {c, d}]
        # a kink such as X[3,3,4,2] chains both joins through one arc
        if joins[0] & joins[1]:
            joins = [joins[0] | joins[1]]
        ren = {v: min(arcs) for arcs in joins for v in arcs}
        xs = []
        oi = []
        for i, (t, o) in enumerate(zip(self.crossings, self.over_in)):
            if i == k:
                continue
            xs.append(tuple(ren.get(v, v) for v in t))
            oi.append(o)
        used = {v for t in xs for v in t}
        closed = set(ren.values()) - used
        return Skein(xs, oi, self.free_circles + len(closed))


DEFAULT_NODE_BUDGET = 10**6


class RecursionBudgetExceeded(RuntimeError):
    """The skein recursion visited more nodes than its budget."""


def conway_skein(d: Diagram, *, node_budget: int = DEFAULT_NODE_BUDGET) -> LaurentPoly:
    """Conway polynomial by the descending-diagram skein recursion.

    It walks each component from a basepoint and switches the first
    crossing reached on its under-strand before its over-strand.  Switching
    strictly reduces the number of such defects and resolving strictly
    reduces crossings, so the tree terminates: descending diagrams are
    unlinks, giving 1 for a knot and 0 for a split link.  Subtrees are
    shared through a memo table keyed by a densely-relabeled encoding.
    Exponential in general; raises RecursionBudgetExceeded after
    ``node_budget`` distinct subdiagrams."""
    z = LaurentPoly.term(1, 1)
    memo: dict[tuple, LaurentPoly] = {}
    nodes = 0

    def evaluate(od: Skein) -> LaurentPoly:
        nonlocal nodes
        key = od.key()
        cached = memo.get(key)
        if cached is not None:
            return cached
        nodes += 1
        if nodes > node_budget:
            raise RecursionBudgetExceeded(
                f"skein recursion exceeded {node_budget} nodes"
            )
        if not od.crossings:
            # crossing-free: a single circle is the unknot, more are split
            result = LaurentPoly.one() if od.free_circles == 1 else LaurentPoly.zero()
        elif od.free_circles > 0 or _shadow_components(_far_ends(od.crossings)) > 1:
            result = LaurentPoly.zero()
        else:
            k = od.first_defect()
            if k is None:
                # descending connected diagram: an unknot
                result = (
                    LaurentPoly.one()
                    if od.component_count() == 1
                    else LaurentPoly.zero()
                )
            else:
                sign = od.sign(k)
                skein = z * evaluate(od.resolve(k))
                switched = evaluate(od.switch(k))
                result = switched + skein if sign > 0 else switched - skein
        memo[key] = result
        return result

    return evaluate(Skein.of(d))


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a dense integer matrix by fraction-free
    elimination (Bareiss); the rows are consumed."""
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1:]
        for i in range(k + 1, n):
            row = rows[i]
            a = row[k]
            row[k + 1:] = [(x * pivot - a * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * rows[-1][-1] if n else 1


def survey_words(max_strands: int, max_length: int) -> list[BraidWord]:
    """Every positive word of :func:`positive_braid_words`, keyed by its
    strand count n and the least word among the rotations of its letters
    and of their images under i -> n - i; the first word of each key, in
    that order."""
    seen: set[tuple[int, tuple[int, ...]]] = set()
    out = []
    for word in positive_braid_words(max_strands, max_length):
        n, letters = word.strand_count, word.letters
        flipped = tuple(n - k for k in letters)
        key = (n, min(w[i:] + w[:i] for w in (letters, flipped) for i in range(len(w))))
        if key not in seen:
            seen.add(key)
            out.append(word)
    return out


# Laurent polynomials in t as {exponent: coefficient}, zero terms left out


def _poly_sum(polys: Iterator[dict[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    return _poly_sum({e + f: c * g} for e, c in a.items() for f, g in b.items())


def _poly_sub(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    return _poly_sum((a, {e: -c for e, c in b.items()}))


def _poly_div(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The exact quotient a / b in Z[t, t^-1], by long division from the
    top degree; ArithmeticError when b does not divide a."""
    work, quotient = dict(a), {}
    top, low = max(b), min(a, default=0) - min(b)
    while work:
        e = max(work) - top
        q, r = divmod(work[max(work)], b[top])
        if r or e < low:
            raise ArithmeticError("inexact Laurent polynomial division")
        quotient[e] = q
        work = _poly_sub(work, {f + e: c * q for f, c in b.items()})
    return quotient


def _identity(size: int) -> list[list[dict[int, int]]]:
    return [[{0: 1} if r == k else {} for k in range(size)] for r in range(size)]


def _reduced_burau(n: int, letter: int) -> list[list[dict[int, int]]]:
    """The reduced Burau matrix of sigma_|letter| on n strands, or of its
    inverse when the letter is negative: the identity except in column
    c = |letter| - 1, which is (t, -t, 1) in rows c - 1, c, c + 1 for the
    generator and (1, -t^-1, t^-1) for its inverse, cut to the n - 1 rows."""
    c = abs(letter) - 1
    column = {c - 1: {1: 1}, c: {1: -1}, c + 1: {0: 1}}
    if letter < 0:
        column = {c - 1: {0: 1}, c: {-1: -1}, c + 1: {-1: 1}}
    m = _identity(n - 1)
    for r, entry in column.items():
        if 0 <= r < n - 1:
            m[r][c] = entry
    return m


def _laurent_det(rows: list[list[dict[int, int]]]) -> dict[int, int]:
    """Determinant over Z[t, t^-1] by Bareiss elimination, every division
    exact; the rows are consumed."""
    n = len(rows)
    sign, prev = 1, {0: 1}
    for k in range(n - 1):
        if not rows[k][k]:
            for r in range(k + 1, n):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return {}
        pivot = rows[k][k]
        for i in range(k + 1, n):
            a = rows[i][k]
            rows[i][k + 1:] = [
                _poly_div(_poly_sub(_poly_mul(x, pivot), _poly_mul(a, y)), prev)
                for x, y in zip(rows[i][k + 1:], rows[k][k + 1:])
            ]
        prev = pivot
    det = rows[-1][-1] if n else {0: 1}
    return {e: sign * c for e, c in det.items()}


def burau_conway(word: BraidWord) -> LaurentPoly:
    """Conway polynomial of the closure of ``word`` from its reduced Burau
    matrix B (Burau 1935; Kassel-Turaev, *Braid Groups*, ch. 3).

    det(I - B) is 1 + t + ... + t^(n-1) times the Alexander polynomial up
    to a unit.  Dividing, substituting t -> t^-1 and multiplying by
    t^((w - n + 1)/2), w the exponent sum of the word, gives the
    Conway-normalized Delta(t) = nabla(t^(1/2) - t^(-1/2)), symmetric in
    t^(1/2), which is then expanded in z.  A split closure has
    det(I - B) = 0, and a Delta that is not symmetric raises
    ArithmeticError."""
    n = word.strand_count
    size = range(n - 1)
    product = _identity(n - 1)
    for letter in word.letters:
        b = _reduced_burau(n, letter)
        product = [
            [_poly_sum(_poly_mul(row[j], b[j][k]) for j in size) for k in size] for row in product
        ]
    minor = [
        [_poly_sub(one, entry) for one, entry in zip(i_row, p_row)]
        for i_row, p_row in zip(_identity(n - 1), product)
    ]
    delta = _poly_div(_laurent_det(minor), {e: 1 for e in range(n)})
    # on half-step keys: t^e -> t^-e, times t^((w - n + 1)/2)
    shift = sum(1 if k > 0 else -1 for k in word.letters) - n + 1
    halves = {shift - 2 * e: c for e, c in delta.items()}
    nabla: dict[int, int] = {}
    while halves:
        top = max(halves)
        if top < 0 or min(halves) != -top:
            raise ArithmeticError(f"{word!r}: Delta is not symmetric in t^(1/2)")
        c = nabla[2 * top] = halves[top]  # the coefficient of z^top
        # less c (t^(1/2) - t^(-1/2))^top, by the binomial theorem
        power = {top - 2 * j: c * comb(top, j) * (-1) ** j for j in range(top + 1)}
        halves = _poly_sub(halves, power)
    return LaurentPoly._raw(nabla)
