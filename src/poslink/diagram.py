"""Oriented link diagrams given by PD codes, plus braid-word input.

A diagram is a list of crossings ``X[a,b,c,d]`` listing the four incident
arcs counterclockwise from the incoming under-strand ``a`` (so the
under-strand runs ``a -> c``), together with a count of crossing-free
circles (``O[]`` tokens).  Arc labels run 1..2c, consecutively along each
component in the direction of its orientation, wrapping once per component.

Conventions, fixed empirically so that the Knot Atlas code of 3_1
``PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]`` denotes the *positive* trefoil
(Jones polynomial t + t^3 - t^4, writhe +3):

  * a crossing is positive when its over-strand runs b -> d, negative
    when it runs d -> b;
  * the A-smoothing of ``X[a,b,c,d]`` joins a<->d and b<->c, the
    B-smoothing joins a<->b and c<->d.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from functools import cached_property
from itertools import accumulate, repeat
from typing import Iterable, Sequence

from .errors import (
    ArcMultiplicity,
    ArityError,
    GeneratorOutOfRange,
    MalformedBraid,
    MalformedPD,
    OrientationInconsistent,
    Value,
    ZeroLetter,
)

Crossing = tuple[int, int, int, int]

A_SMOOTHING = "A"
B_SMOOTHING = "B"


def smoothing_pairs(crossing: Sequence[int], label: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Arc identifications made by smoothing one crossing."""
    a, b, c, d = crossing
    if label == A_SMOOTHING:
        return (a, d), (b, c)
    if label == B_SMOOTHING:
        return (a, b), (c, d)
    raise ValueError(f"state labels must be {A_SMOOTHING!r} or {B_SMOOTHING!r}, got {label!r}")


class Diagram:
    """An oriented link diagram: crossing tuples plus crossing-free circles.

    Diagrams compare and hash by ``crossings`` and ``free_circles``.
    Construction also keeps, outside the compared fields, the far-end table
    of the crossings (``_far``, see :func:`_far_ends`), which every walk
    over the diagram reads, and the number of connected pieces of its
    shadow (``_shadow_pieces``, see :func:`_shadow_components`).  A
    diagram made by :func:`braid_closure` keeps its word as ``braid``,
    also outside the compared fields, and None otherwise.  The class has
    no ``__slots__``: the tables derived later are cached properties, kept
    in the instance ``__dict__``.
    """

    def __init__(self, crossings: Iterable[Sequence[int]] = (), free_circles: int = 0):
        normalized = []
        for t in crossings:
            t = tuple(t)
            if len(t) != 4:
                raise ArityError(f"crossing {t!r} must list exactly 4 arcs")
            if not all(isinstance(v, int) and v >= 1 for v in t):
                raise MalformedPD(f"arc labels must be positive integers: {t!r}")
            normalized.append(t)
        self.crossings: tuple[Crossing, ...] = tuple(normalized)
        if not isinstance(free_circles, int) or free_circles < 0:
            raise MalformedPD("free_circles must be a nonnegative integer")
        self.free_circles = free_circles
        counts = Counter(lab for t in self.crossings for lab in t)
        expected = range(1, 2 * len(self.crossings) + 1)
        if sorted(counts) != list(expected) or any(v != 2 for v in counts.values()):
            raise ArcMultiplicity(
                "arc labels must be 1..2c with each label used exactly twice"
            )
        other = tuple(_far_ends(self.crossings))
        pieces = _shadow_components(other)
        self._far = other
        self._shadow_pieces = pieces
        self.braid: BraidWord | None = None
        # V - E + F = 2 on the sphere for each connected piece of the
        # shadow, which has c vertices and 2c edges in all
        if _face_count(other) - len(self.crossings) != 2 * pieces:
            raise MalformedPD("PD code is not planar")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.crossings == other.crossings and self.free_circles == other.free_circles

    def __hash__(self) -> int:
        return hash((self.crossings, self.free_circles))

    def __repr__(self) -> str:
        return f"Diagram(crossings={self.crossings!r}, free_circles={self.free_circles!r})"

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def arc_count(self) -> int:
        return 2 * len(self.crossings)

    @cached_property
    def _orientation(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        return _orient(self.crossings, self._far)

    @property
    def component_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Arc labels of each crossed component, in traversal order."""
        return self._orientation[1]

    @cached_property
    def _signs(self) -> CrossingSigns:
        return CrossingSigns(tuple(1 if oi == 1 else -1 for oi in self._orientation[0]))

    @cached_property
    def _a_circles(self) -> int:
        return state_circles(self, all_a_state(self))

    @cached_property
    def _b_circles(self) -> int:
        return state_circles(self, all_b_state(self))

    @cached_property
    def contraction_order(self) -> tuple[int, ...]:
        """Crossing indices in the order the Kauffman bracket and the
        Khovanov tangle builder add them (:func:`_contraction_order`),
        computed once per diagram."""
        return _contraction_order(self.crossings, self._signs.signs)

    @cached_property
    def contraction_crossings(self) -> tuple[Crossing, ...]:
        """The crossings in :attr:`contraction_order`, with the arcs
        renumbered 1, 2, ... in the order the crossings first use them.
        The first k entries name the tangle of the first k crossings up to
        its arc labels, so two diagrams that agree on them build the same
        Khovanov complex for those k steps, and a relabelled copy of a
        diagram has the same tuple."""
        names: dict[int, int] = {}
        return tuple(
            tuple(names.setdefault(arc, len(names) + 1) for arc in self.crossings[k])
            for k in self.contraction_order
        )


def _far_ends(crossings: Sequence[Crossing]) -> list[int]:
    """Slot s of crossing k is position ``4 * k + s``; entry ``pos`` is the
    position at the far end of the arc at ``pos``."""
    other = [0] * (4 * len(crossings))
    near: dict[int, int] = {}
    for pos, arc in enumerate(arc for t in crossings for arc in t):
        if arc in near:
            other[pos], other[near[arc]] = near[arc], pos
        else:
            near[arc] = pos
    return other


def _orient(
    crossings: Sequence[Crossing], other: Sequence[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Infer over-strand entry slots and oriented component cycles.

    Walking the link alternates a pass through a crossing (position
    ``pos ^ 2``: slot 0<->2 under, 1<->3 over) with a jump to the far end of
    the exit arc, so it steps ``pos -> other[pos ^ 2]`` over entry positions.
    Each orbit traverses one component in one direction; the orbit of the
    ``pos ^ 2`` positions is the same component the other way.  The
    under-strand constraint (entries at slot 0, never slot 2) picks the real
    direction.  Components that never pass under are oriented by the label
    convention instead: prefer the direction where exit = entry + 1,
    wrapping max -> min, then the one holding the least position.
    ``other`` is the far-end table of the crossings (:func:`_far_ends`).
    """
    label = [arc for t in crossings for arc in t]
    seen = [False] * len(other)
    over_in = [0] * len(crossings)
    cycles = []
    for start in range(len(other)):
        if seen[start]:
            continue
        orbit = []
        pos = start
        while not seen[pos]:
            seen[pos] = seen[pos ^ 2] = True
            orbit.append(pos)
            pos = other[pos ^ 2]
        back = [p ^ 2 for p in reversed(orbit)]
        slots = {p & 3 for p in orbit}
        if 2 in slots:
            if 0 in slots:
                raise OrientationInconsistent(
                    "no direction is compatible with the under-strand passages"
                )
            orbit = back
        elif 0 not in slots:
            lo = min(label[p] for p in orbit)
            hi = max(label[p] for p in orbit)

            def score(o: list[int]) -> int:
                return sum(
                    label[p ^ 2] == label[p] + 1 or (label[p] == hi and label[p ^ 2] == lo)
                    for p in o
                )

            orbit = min(orbit, back, key=lambda o: (-score(o), min(o)))
        arcs = [label[p] for p in orbit]
        shift = arcs.index(min(arcs))
        cycles.append(tuple(arcs[shift:] + arcs[:shift]))
        for p in orbit:
            if p & 1:
                over_in[p >> 2] = p & 3
    return tuple(over_in), tuple(sorted(cycles))


# --------------------------------------------------------------------------
# parsing


def parse_pd(text: str) -> Diagram:
    """Parse ``PD[X[i,j,k,l], ..., O[]]`` into a validated Diagram."""
    m = re.fullmatch(r"\s*PD\[(.*)\]\s*", text, re.S)
    if not m:
        raise MalformedPD(f"not a PD expression: {text!r}")
    body = m.group(1)
    if not body.strip():
        raise MalformedPD("PD[] must contain at least one X[...] or O[] item")
    # a body whose brackets do not balance, or with a blank item, is malformed
    # before any item is read; depth[i] is the bracket depth after body[i],
    # and a blank item follows the start or a comma at depth 0
    depth = list(accumulate(map(_BRACKET_STEP.get, body, repeat(0))))
    blanks = re.finditer(r"(?:^|,)(?=\s*(?:,|\Z))", body)
    if min(depth) < 0 or depth[-1] or any(depth[b.start()] == 0 for b in blanks):
        raise MalformedPD(f"unbalanced brackets or an empty item in {text!r}")
    next_item = re.compile(_PD_ITEM).match
    crossings = []
    free = pos = 0
    while pos < len(body):
        item = next_item(body, pos)
        if not item:
            raise MalformedPD(f"unrecognized item at {body[pos:]!r}")
        pos = item.end()
        if item["arcs"] is None:
            free += 1
            continue
        crossing = f"X[{item['arcs']}]"
        entries = [e.strip() for e in item["arcs"].split(",")]
        if len(entries) != 4:
            raise ArityError(f"crossing {crossing!r} must list exactly 4 arcs")
        if not all(re.fullmatch(r"\d+", e) for e in entries):
            raise MalformedPD(f"arc labels must be base-10 positive integers: {crossing!r}")
        labels = tuple(int(e) for e in entries)
        if min(labels) < 1:
            raise MalformedPD(f"arc labels must be positive: {crossing!r}")
        crossings.append(labels)
    return Diagram(tuple(crossings), free)


_BRACKET_STEP = {"[": 1, "]": -1}
_PD_ITEM = r"\s*(?:O\[\s*\]|X\[(?P<arcs>[^\[\]]*)\])\s*(?:,|\Z)"


class BraidWord(Value):
    """A braid word: letter k stands for sigma_|k| with sign(k) the crossing sign."""

    __slots__ = ("strand_count", "letters")

    def __init__(self, strand_count: int, letters: Iterable[int] = ()):
        if strand_count < 1:
            raise MalformedBraid("strand count must be >= 1")
        self.strand_count = strand_count
        self.letters: tuple[int, ...] = tuple(letters)
        for k in self.letters:
            if k == 0:
                raise ZeroLetter("0 names no braid generator")
            if abs(k) >= strand_count:
                raise GeneratorOutOfRange(
                    f"letter {k} needs at least {abs(k) + 1} strands, have {strand_count}"
                )


def parse_braid(text: str) -> BraidWord:
    """Parse ``strands=<n>; <k> <k> ...`` (letters comma or space separated)."""
    m = re.fullmatch(r"\s*strands\s*=\s*(\d+)\s*;(.*)", text, re.S)
    if not m:
        raise MalformedBraid(f"expected 'strands=<n>; <letters>': {text!r}")
    strand_count = int(m.group(1))
    letters = []
    for token in m.group(2).replace(",", " ").split():
        if not re.fullmatch(r"[+-]?\d+", token):
            raise MalformedBraid(f"bad braid letter {token!r}")
        letters.append(int(token))
    return BraidWord(strand_count, tuple(letters))


def braid_closure(b: BraidWord) -> Diagram:
    """Close a braid word into a diagram; crossing signs equal letter signs.

    Letter t is crossing t.  Each strand is walked down the word from the
    least top position not yet visited, wrapping at the bottom to the same
    top position, until it returns.  A positive letter takes the left strand
    in at slot 1 and out at slot 3 and the right strand from 0 to 2; a
    negative one takes the left strand from 0 to 2 and the right from 3 to
    1, so the over-strand runs b -> d exactly when the letter is positive.
    The arcs of each component get consecutive labels from its first visit,
    and a position that no letter touches closes to a free circle.  The
    diagram keeps the word as ``braid``.
    """
    # (entry, exit) slots of the left and of the right strand, at a
    # negative letter and at a positive one
    slots = (((0, 2), (3, 1)), ((1, 3), (0, 2)))
    crossings = [[0] * 4 for _ in b.letters]
    visited = [False] * b.strand_count
    free = 0
    label = 1
    for start in range(b.strand_count):
        if visited[start]:
            continue
        visits = []
        pos = start
        while not visited[pos]:
            visited[pos] = True
            for k, letter in enumerate(b.letters):
                left = abs(letter) - 1
                if pos - left in (0, 1):
                    entry, out = slots[letter > 0][pos - left]
                    visits.append((crossings[k], entry, out))
                    pos = 2 * left + 1 - pos
        if not visits:
            free += 1
        for v, (t, entry, out) in enumerate(visits):
            t[entry] = label + v
            t[out] = label + (v + 1) % len(visits)
        label += len(visits)
    d = Diagram(tuple(map(tuple, crossings)), free)
    d.braid = b
    return d


# --------------------------------------------------------------------------
# diagram operations


class CrossingSigns(Value):
    """Per-crossing signs of an oriented diagram."""

    __slots__ = ("signs",)

    def __init__(self, signs: tuple[int, ...]):
        self.signs = signs

    @property
    def writhe(self) -> int:
        return sum(self.signs)

    @property
    def positive_count(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    @property
    def negative_count(self) -> int:
        return sum(1 for s in self.signs if s < 0)


def crossing_signs(d: Diagram) -> CrossingSigns:
    """Signs per crossing; positive means the over-strand runs b -> d."""
    return d._signs


def writhe(d: Diagram) -> int:
    return crossing_signs(d).writhe


def components(d: Diagram) -> int:
    """Number of link components: arc-following orbits plus free circles."""
    return len(d.component_cycles) + d.free_circles


def is_positive(d: Diagram) -> bool:
    """True iff every crossing is positive (vacuously true without crossings).

    A False answer says nothing about the underlying link, only about this
    diagram of it.
    """
    return all(s == 1 for s in crossing_signs(d).signs)


State = tuple[str, ...]


def all_a_state(d: Diagram) -> State:
    return (A_SMOOTHING,) * d.crossing_count


def all_b_state(d: Diagram) -> State:
    return (B_SMOOTHING,) * d.crossing_count


def state_circles(d: Diagram, state: Sequence[str]) -> int:
    """Number of circles after smoothing every crossing as the state says."""
    if len(state) != d.crossing_count:
        raise ValueError(
            f"state length {len(state)} != crossing count {d.crossing_count}"
        )
    # join[pos] is the slot that the smoothing joins to slot pos at its
    # crossing; a circle crossed in each direction is two orbits
    join = [0] * (4 * d.crossing_count)
    for k, label in enumerate(state):
        for x, y in smoothing_pairs(range(4 * k, 4 * k + 4), label):
            join[x], join[y] = y, x
    other = d._far
    return _orbit_count([other[j] for j in join]) // 2 + d.free_circles


def a_state_circles(d: Diagram) -> int:
    return d._a_circles


def b_state_circles(d: Diagram) -> int:
    return d._b_circles


def _contraction_order(crossings: Sequence[Crossing], signs: Sequence[int]) -> tuple[int, ...]:
    """Crossing indices in the order a tangle contraction adds them.

    Each next crossing shares the most arcs with the open boundary; ties go
    to the one with more of its incoming arcs open, so the sweep follows
    the orientation (down a braid closure, adding each crossing below the
    boundary), and then to the lowest index.  The pair is kept as one
    score per crossing, 3 * shared + incoming, updated through an
    arc -> crossings index when an arc opens or closes.  A heap of
    crossings per score value gives the lowest index; entries whose score
    has changed since they were pushed are dropped when met.
    """
    weights: dict[int, list[tuple[int, int]]] = {}  # arc -> (crossing, weight)
    for k, (t, s) in enumerate(zip(crossings, signs)):
        for arc in t:
            weights.setdefault(arc, []).append((k, 3))
        for arc in (t[0], t[1] if s > 0 else t[3]):
            weights[arc].append((k, 1))
    score = [0] * len(crossings)  # -1 once added
    top = 3 * 4 + 2
    heaps: list[list[int]] = [list(range(len(crossings)))] + [[] for _ in range(top)]
    is_open: set[int] = set()
    order: list[int] = []
    for _ in range(len(crossings)):
        for value in range(top, -1, -1):
            heap = heaps[value]
            while heap and score[heap[0]] != value:
                heapq.heappop(heap)
            if heap:
                k = heapq.heappop(heap)
                break
        order.append(k)
        score[k] = -1
        for arc in crossings[k]:
            step = -1 if arc in is_open else 1
            is_open ^= {arc}
            for i, weight in weights[arc]:
                if score[i] >= 0:
                    score[i] += step * weight
                    heapq.heappush(heaps[score[i]], i)
    return tuple(order)


def _shadow_components(other: Sequence[int]) -> int:
    """Connected pieces of the underlying curve arrangement (free circles
    excluded), from its far-end table (:func:`_far_ends`): a search from
    crossing to crossing along their arcs."""
    seen = [False] * (len(other) // 4)
    pieces = 0
    for k in range(len(seen)):
        if seen[k]:
            continue
        pieces += 1
        seen[k] = True
        stack = [k]
        while stack:
            j = stack.pop()
            for end in other[4 * j:4 * j + 4]:
                if not seen[end >> 2]:
                    seen[end >> 2] = True
                    stack.append(end >> 2)
    return pieces


def _face_count(other: Sequence[int]) -> int:
    """Faces of the shadow drawn with the PD code's cyclic orders, from its
    far-end table (:func:`_far_ends`): the orbits of "run along the arc to
    its far end, then turn to the next slot" over the corners, the corner
    at position ``4 * k + s`` lying between slots s - 1 and s (mod 4) of
    crossing k."""
    return _orbit_count([end - end % 4 + (end + 1) % 4 for end in other])


def _orbit_count(step: Sequence[int]) -> int:
    """Number of orbits of the permutation ``pos -> step[pos]``."""
    seen = [False] * len(step)
    orbits = 0
    for start in range(len(step)):
        if seen[start]:
            continue
        orbits += 1
        pos = start
        while not seen[pos]:
            seen[pos] = True
            pos = step[pos]
    return orbits
