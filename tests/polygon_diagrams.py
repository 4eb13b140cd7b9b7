"""Seeded random link diagrams drawn from random closed polygons.

Each component is a closed polygon on an integer grid.  Every proper
crossing of two edges becomes a crossing with a random strand on top, and
arcs are numbered consecutively along each component, so the PD codes are
planar by construction and their Seifert circles come nested and side by
side in every arrangement a polygon can make.  All geometry is exact
integer and rational arithmetic; a draw with a degenerate position (three
collinear points, crossings at a vertex or at one point) is discarded.
"""

from __future__ import annotations

import random
from fractions import Fraction

from poslink import Diagram, crossing_signs

GRID = 1000


def _cross(o, p, q) -> int:
    """z-component of (p - o) x (q - o)."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _draw(rng: random.Random, components: int) -> list[list[tuple[int, int]]]:
    return [
        [(rng.randrange(GRID), rng.randrange(GRID)) for _ in range(rng.randint(3, 6))]
        for _ in range(components)
    ]


def _crossings(polygons):
    """Proper crossings as ((poly, edge, t), (poly, edge, t), point), or None
    when the drawing is degenerate."""
    edges = []
    for pi, poly in enumerate(polygons):
        if len(set(poly)) != len(poly):
            return None
        for ei in range(len(poly)):
            edges.append((pi, ei, poly[ei], poly[(ei + 1) % len(poly)]))
    found = []
    for i, (pi, ei, p1, p2) in enumerate(edges):
        for pj, ej, q1, q2 in edges[i + 1:]:
            adjacent = pi == pj and (
                ej == ei + 1 or (ei == 0 and ej == len(polygons[pi]) - 1)
            )
            if adjacent:
                # edges sharing a vertex meet only there unless collinear
                if _cross(p1, p2, q2 if q1 in (p1, p2) else q1) == 0:
                    return None
                continue
            d1, d2 = _cross(q1, q2, p1), _cross(q1, q2, p2)
            d3, d4 = _cross(p1, p2, q1), _cross(p1, p2, q2)
            if 0 in (d1, d2, d3, d4):
                return None
            if (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
                t = Fraction(d1, d1 - d2)
                u = Fraction(d3, d3 - d4)
                point = (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))
                found.append(((pi, ei, t), (pj, ej, u), point))
    if len({point for _, _, point in found}) != len(found):
        return None
    return found


def polygon_diagram(
    rng: random.Random, max_crossings: int = 14, max_components: int = 3, *, positive: bool = False
) -> Diagram:
    """A random diagram with 1..max_components components and
    1..max_crossings crossings; with ``positive``, the same draw with each
    negative crossing switched.

    Switching X[a,b,c,d] turns it to X[b,c,d,a] or X[d,a,b,c], whichever
    has sign +1: either keeps the cyclic order of the arcs and puts the
    other strand under.  A negative crossing's over-strand runs d -> b, so
    X[d,a,b,c] is the one: d is the new incoming under-arc, and the old
    under-strand a -> c is over, running from slot b to slot d."""
    while True:
        polygons = _draw(rng, rng.randint(1, max_components))
        found = _crossings(polygons)
        if found is None or not 1 <= len(found) <= max_crossings:
            continue
        d = _to_diagram(rng, polygons, found)
        if positive:
            signs = crossing_signs(d).signs
            switched = (t if s > 0 else (t[3], *t[:3]) for t, s in zip(d.crossings, signs))
            d = Diagram(tuple(switched), d.free_circles)
        return d


def _to_diagram(rng, polygons, found) -> Diagram:
    # passages of each component in traversal order: (edge, t, crossing, strand)
    passages: list[list[tuple[int, Fraction, int, int]]] = [[] for _ in polygons]
    for k, ends in enumerate(found):
        for strand, (pi, ei, t) in enumerate(ends[:2]):
            passages[pi].append((ei, t, k, strand))
    # arc number of the arc leaving each (crossing, strand) passage
    leaving: dict[tuple[int, int], int] = {}
    entering: dict[tuple[int, int], int] = {}
    label = 0
    free = 0
    for seq in passages:
        if not seq:
            free += 1
            continue
        seq.sort()
        base = label
        for i, (_, _, k, strand) in enumerate(seq):
            leaving[k, strand] = base + i + 1
            entering[k, strand] = base + (i - 1) % len(seq) + 1
        label += len(seq)

    crossings = []
    for k, (end0, end1, _) in enumerate(found):
        under = rng.randrange(2)
        direction = []
        for pi, ei, _ in (end0, end1):
            poly = polygons[pi]
            p, q = poly[ei], poly[(ei + 1) % len(poly)]
            direction.append((q[0] - p[0], q[1] - p[1]))
        u, o = direction[under], direction[1 - under]
        a, c = entering[k, under], leaving[k, under]
        o_in, o_out = entering[k, 1 - under], leaving[k, 1 - under]
        # counterclockwise from the incoming under-arc, which arrives from -u
        if -u[0] * o[1] + u[1] * o[0] > 0:
            crossings.append((a, o_out, c, o_in))
        else:
            crossings.append((a, o_in, c, o_out))
    return Diagram(tuple(crossings), free)
