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

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from typing import Sequence

from .errors import (
    ArcMultiplicity,
    ArityError,
    GeneratorOutOfRange,
    MalformedBraid,
    MalformedPD,
    OrientationInconsistent,
    ZeroLetter,
)

Crossing = tuple[int, int, int, int]

A_SMOOTHING = "A"
B_SMOOTHING = "B"


class _DisjointLabels:
    """Union-find over arc labels with minimum-label representatives."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller label as representative: deterministic output
            if rx > ry:
                rx, ry = ry, rx
            self._parent[ry] = rx


def smoothing_pairs(crossing: Sequence[int], label: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Arc identifications made by smoothing one crossing."""
    a, b, c, d = crossing
    if label == A_SMOOTHING:
        return (a, d), (b, c)
    if label == B_SMOOTHING:
        return (a, b), (c, d)
    raise ValueError(f"state labels must be {A_SMOOTHING!r} or {B_SMOOTHING!r}, got {label!r}")


@dataclass(frozen=True)
class Diagram:
    """An oriented link diagram: crossing tuples plus crossing-free circles."""

    crossings: tuple[Crossing, ...] = ()
    free_circles: int = 0

    def __post_init__(self) -> None:
        normalized = []
        for t in self.crossings:
            t = tuple(t)
            if len(t) != 4:
                raise ArityError(f"crossing {t!r} must list exactly 4 arcs")
            if not all(isinstance(v, int) and v >= 1 for v in t):
                raise MalformedPD(f"arc labels must be positive integers: {t!r}")
            normalized.append(t)
        object.__setattr__(self, "crossings", tuple(normalized))
        if not isinstance(self.free_circles, int) or self.free_circles < 0:
            raise MalformedPD("free_circles must be a nonnegative integer")
        counts = Counter(lab for t in self.crossings for lab in t)
        expected = range(1, 2 * len(self.crossings) + 1)
        if sorted(counts) != list(expected) or any(v != 2 for v in counts.values()):
            raise ArcMultiplicity(
                "arc labels must be 1..2c with each label used exactly twice"
            )
        # V - E + F = 2 on the sphere for each connected piece of the
        # shadow, which has c vertices and 2c edges in all
        faces = len(set(_corner_faces(self.crossings)))
        if faces - len(self.crossings) != 2 * _shadow_components(self.crossings):
            raise MalformedPD("PD code is not planar")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def arc_count(self) -> int:
        return 2 * len(self.crossings)

    @cached_property
    def _orientation(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        return _orient(self.crossings)

    @property
    def component_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Arc labels of each crossed component, in traversal order."""
        return self._orientation[1]


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


def _orient(crossings: Sequence[Crossing]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
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
    """
    other = _far_ends(crossings)
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


@dataclass(frozen=True)
class BraidWord:
    """A braid word: letter k stands for sigma_|k| with sign(k) the crossing sign."""

    strand_count: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strand_count < 1:
            raise MalformedBraid("strand count must be >= 1")
        object.__setattr__(self, "letters", tuple(self.letters))
        for k in self.letters:
            if k == 0:
                raise ZeroLetter("0 names no braid generator")
            if abs(k) >= self.strand_count:
                raise GeneratorOutOfRange(
                    f"letter {k} needs at least {abs(k) + 1} strands, have {self.strand_count}"
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


# --------------------------------------------------------------------------
# explicit-orientation working form


class _Oriented:
    """PD data with the over-strand entry slot carried explicitly.

    A braid closure merges arc labels freely, which would defeat
    re-inference of orientation from the labeling convention; carrying
    entry slots sidesteps that entirely.
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


def braid_closure(b: BraidWord) -> Diagram:
    """Close a braid word into a diagram; crossing signs equal letter signs."""
    current = list(range(1, b.strand_count + 1))
    nxt = b.strand_count + 1
    crossings: list[Crossing] = []
    over_in: list[int] = []
    for k in b.letters:
        i = abs(k) - 1
        left, right = current[i], current[i + 1]
        out_left, out_right = nxt, nxt + 1
        nxt += 2
        if k > 0:
            # right strand dives under, heading left; left strand passes over
            crossings.append((right, left, out_left, out_right))
            over_in.append(1)
        else:
            crossings.append((left, out_left, out_right, right))
            over_in.append(3)
        current[i], current[i + 1] = out_left, out_right
    dj = _DisjointLabels()
    for p in range(b.strand_count):
        dj.union(p + 1, current[p])
    merged = [tuple(dj.find(v) for v in t) for t in crossings]
    used = {v for t in merged for v in t}
    top_reps = {dj.find(p + 1) for p in range(b.strand_count)}
    free = len(top_reps - used)
    return _Oriented(merged, over_in, free).to_diagram()


# --------------------------------------------------------------------------
# diagram operations


@dataclass(frozen=True)
class CrossingSigns:
    """Per-crossing signs of an oriented diagram."""

    signs: tuple[int, ...]

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
    over_in, _ = d._orientation
    return CrossingSigns(tuple(1 if oi == 1 else -1 for oi in over_in))


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
    dj = _DisjointLabels()
    for t, label in zip(d.crossings, state):
        for x, y in smoothing_pairs(t, label):
            dj.union(x, y)
    roots = {dj.find(lab) for lab in range(1, d.arc_count + 1)}
    return len(roots) + d.free_circles


def a_state_circles(d: Diagram) -> int:
    return state_circles(d, all_a_state(d))


def b_state_circles(d: Diagram) -> int:
    return state_circles(d, all_b_state(d))


def _shadow_components(crossings: Sequence[Crossing]) -> int:
    """Connected pieces of the underlying curve arrangement (free circles
    excluded): a search from crossing to crossing along their arcs."""
    other = _far_ends(crossings)
    seen = [False] * len(crossings)
    pieces = 0
    for k in range(len(crossings)):
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


def _corner_faces(crossings: Sequence[Crossing]) -> list[int]:
    """Face of every corner of the shadow drawn with the PD code's cyclic
    orders.  Faces are the orbits of "run along the arc to its far end, then
    turn to the next slot"; entry ``4 * k + s`` is the face at the corner
    of crossing k between slots s - 1 and s (mod 4)."""
    other = _far_ends(crossings)
    face = [-1] * len(other)
    faces = 0
    for start in range(len(other)):
        if face[start] >= 0:
            continue
        pos = start
        while face[pos] < 0:
            face[pos] = faces
            end = other[pos]
            pos = end - end % 4 + (end + 1) % 4
        faces += 1
    return face
