"""Slow, direct implementations that the tests compare poslink against.

* :func:`cube_states`: every vertex of the cube of resolutions, with its
  circles.
* :func:`cube_slices`: the full cube of resolutions, every generator and
  every edge, with no cancellation.
* :func:`per_map_homology`: homology of that cube with each boundary map
  reduced by its own ``snf_divisors`` call.
* :func:`kauffman_bracket_states`: the bracket as a sum over all 2^c states.
* :func:`contraction_order`: the bracket's crossing order, by rescanning
  every remaining crossing at each step.
* :func:`conway_skein`: the Conway polynomial by the descending-diagram
  skein recursion.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from poslink import BigradedGroups, Diagram, LaurentPoly
from poslink.diagram import (
    A_SMOOTHING,
    B_SMOOTHING,
    _Oriented,
    _shadow_components,
    crossing_signs,
    smoothing_pairs,
)
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

    def evaluate(od: _Oriented) -> LaurentPoly:
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
        elif od.free_circles > 0 or _shadow_components(od.crossings) > 1:
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

    return evaluate(_Oriented.of(d))
