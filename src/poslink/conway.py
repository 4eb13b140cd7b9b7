"""Conway polynomial from a Seifert matrix.

:func:`conway` runs Seifert's algorithm on the PD code.  Smoothing every
crossing along the orientation gives the Seifert circles (the same arc
joins as ``_Oriented.resolve``).  Each circle bounds a disk, a circle
nested inside another is stacked above it, and every crossing becomes a
half-twisted band joining its two circles.  H_1 of that surface has as a
basis the fundamental cycles of the Seifert graph (circles as vertices,
crossings as edges): c - m + 1 cycles for m circles.  The Seifert form
V[i][j] = lk(g_i, g_j^+) is assembled from the crossings of the projected
curves, and

    nabla(z) = det(t^(-1/2) V - t^(1/2) V^T),   z = t^(1/2) - t^(-1/2)

(Lickorish, *An Introduction to Knot Theory*, ch. 6).  The determinant is
taken exactly: integer determinants by Bareiss elimination at a few
points, then interpolation.  Everything is polynomial in the crossing
count.

Geometry.  The regions between the circles are the classes of (circle,
side) pairs glued at each crossing; with any region taken as the outer
one they form a tree, which fixes whether each circle runs clockwise and
which bands reach it from the inside.  The PD order a, b, c, d is read
clockwise seen from above, the frame in which a crossing whose
over-strand runs b -> d is right-handed, matching :func:`crossing_signs`.
The Seifert form splits as V = (S + I) / 2 with S(x, y) = lk(x, y^+) +
lk(x, y^-) and I(x, y) = lk(x, y^+) - lk(x, y^-), each a function of the
homology classes alone, so each may use its own drawing of the curves:

* I is the intersection number on the surface: paths through one disk
  are chords, and two chords meet when their endpoints interleave.
* S counts crossings of x and y in the projection where the two are at
  different heights: once in every band both cross (-sign * d_x * d_y,
  d = +-1 the direction of crossing the band), and wherever a band that
  reaches a circle from the inside passes over the other curve's path
  along that circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import Diagram, _DisjointLabels, _shadow_components
from .laurent import LaurentPoly


def conway(d: Diagram) -> LaurentPoly:
    """Conway polynomial in z: nabla(L+) - nabla(L-) = z * nabla(L0),
    normalized to 1 on the unknot and 0 on split links."""
    if not d.crossings:
        return LaurentPoly.one() if d.free_circles == 1 else LaurentPoly.zero()
    if d.free_circles or _shadow_components(d.crossings) > 1:
        return LaurentPoly.zero()
    return _conway_from_seifert(seifert_matrix(d))


def lead_coeff_conway(d: Diagram) -> int:
    """Top-degree coefficient of the Conway polynomial."""
    return conway(d).lead_coeff()


# --------------------------------------------------------------------------
# Seifert surface


@dataclass(frozen=True)
class _Surface:
    """The canonical Seifert surface of a connected diagram.

    Crossing k is a band from circle ``first[k]`` (through its incoming
    under-arc) to circle ``second[k]``; ``slot[k][C]`` is its place in the
    cyclic order of bands along circle C, and ``ramp[k]`` the circle it
    reaches from the inside, if any.  ``turn[C]`` is +1 when C runs
    counterclockwise.
    """

    sign: tuple[int, ...]
    first: tuple[int, ...]
    second: tuple[int, ...]
    slot: tuple[dict[int, int], ...]
    ramp: tuple[int | None, ...]
    length: tuple[int, ...]
    turn: tuple[int, ...]


@dataclass(frozen=True)
class _Cycle:
    """A closed curve on the surface: ``bands[k]`` is +1 when it crosses
    band k from ``first[k]`` to ``second[k]``; ``visits[C]`` is the
    (incoming, outgoing) band pair of its path across the disk of C."""

    bands: dict[int, int]
    visits: dict[int, tuple[int, int]]


def seifert_matrix(d: Diagram, outer: int = 0) -> list[list[int]]:
    """Seifert matrix of the canonical Seifert surface of a connected
    diagram, on the fundamental cycles of its Seifert graph.

    ``outer`` picks which region between the Seifert circles is the
    unbounded one (0 <= outer <= number of circles); every choice gives a
    Seifert matrix of the same link.
    """
    if not d.crossings or d.free_circles or _shadow_components(d.crossings) > 1:
        raise ValueError("the Seifert matrix is built for connected diagrams only")
    surface = _surface(d, outer)
    cycles = _fundamental_cycles(surface)
    n = len(cycles)
    matrix = [[0] * n for _ in range(n)]
    for i, x in enumerate(cycles):
        # a fundamental cycle meets each circle once, so it crosses its
        # push-offs only in the half twists of its own bands
        matrix[i][i] = -sum(surface.sign[k] for k in x.bands) // 2
        for j in range(i):
            s, cut = _pair_form(surface, x, cycles[j])
            matrix[i][j] = (s + cut) // 2
            matrix[j][i] = (s - cut) // 2
    return matrix


def _surface(d: Diagram, outer: int) -> _Surface:
    over_in = d._orientation[0]
    succ: dict[int, int] = {}  # incoming arc -> outgoing arc of its smoothing
    head: dict[int, int] = {}  # arc -> crossing it enters
    entries: list[tuple[int, int]] = []  # (under-strand in, over-strand in)
    sign = []
    for k, ((a, b, c, e), oi) in enumerate(zip(d.crossings, over_in)):
        if oi == 1:
            succ[a], succ[b] = e, c
            entries.append((a, b))
        else:
            succ[a], succ[e] = b, c
            entries.append((a, e))
        sign.append(1 if oi == 1 else -1)
        for arc in entries[-1]:
            head[arc] = k

    circle_of: dict[int, int] = {}
    slot: list[dict[int, int]] = [{} for _ in d.crossings]
    length: list[int] = []
    for start in sorted(succ):
        if start in circle_of:
            continue
        circle = len(length)
        arc, place = start, 0
        while arc not in circle_of:
            circle_of[arc] = circle
            slot[head[arc]][circle] = place
            place += 1
            arc = succ[arc]
        length.append(place)
    m = len(length)
    if not 0 <= outer <= m:
        raise ValueError(f"outer region must be in 0..{m}, got {outer}")
    first = tuple(circle_of[u] for u, _ in entries)
    second = tuple(circle_of[o] for _, o in entries)

    # A band lies on the left (side 0) of the circle through its incoming
    # under-arc when the crossing is positive, and on the right otherwise;
    # it lies on the other side of the other circle.
    sides = [(0, 1) if s > 0 else (1, 0) for s in sign]
    joined = _DisjointLabels()  # over (circle, side) = 2 * circle + side
    for k, (s1, s2) in enumerate(sides):
        joined.union(2 * first[k] + s1, 2 * second[k] + s2)
    roots = sorted({joined.find(x) for x in range(2 * m)})
    number = {r: i for i, r in enumerate(roots)}
    region = [number[joined.find(x)] for x in range(2 * m)]
    circles_at: list[list[int]] = [[] for _ in roots]
    for x, r in enumerate(region):
        circles_at[r].append(x >> 1)

    # walk the region tree from the outer region: the side of each circle
    # facing away from it is the inside
    inside: list[int | None] = [None] * m
    queue = [outer]
    for r in queue:
        for circle in circles_at[r]:
            if inside[circle] is not None:
                continue
            inside[circle] = 1 if region[2 * circle] == r else 0
            queue.append(region[2 * circle + inside[circle]])

    ramp = []
    for k, (s1, s2) in enumerate(sides):
        if inside[first[k]] == s1:
            ramp.append(first[k])
        elif inside[second[k]] == s2:
            ramp.append(second[k])
        else:
            ramp.append(None)
    return _Surface(
        sign=tuple(sign),
        first=first,
        second=second,
        slot=tuple(slot),
        ramp=tuple(ramp),
        length=tuple(length),
        # inside on the left means counterclockwise
        turn=tuple(1 if side == 0 else -1 for side in inside),
    )


def _fundamental_cycles(surface: _Surface) -> list[_Cycle]:
    """One cycle per crossing outside a breadth-first spanning tree of the
    Seifert graph, in crossing order."""
    m = len(surface.length)
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for k, (u, v) in enumerate(zip(surface.first, surface.second)):
        neighbours[u].append((k, v))
        neighbours[v].append((k, u))
    up: list[tuple[int, int] | None] = [None] * m  # circle -> (band, parent circle)
    depth = [0] * m
    in_tree = set()
    order = [0]
    seen = {0}
    for circle in order:
        for k, other in neighbours[circle]:
            if other not in seen:
                seen.add(other)
                up[other] = (k, circle)
                depth[other] = depth[circle] + 1
                in_tree.add(k)
                order.append(other)

    cycles = []
    for k, (u, v) in enumerate(zip(surface.first, surface.second)):
        if k in in_tree:
            continue
        # cross band k from u to v, then return to u through the tree
        climb, descend = [], []
        x, y = v, u
        while x != y:
            if depth[x] >= depth[y]:
                band, p = up[x]
                climb.append((band, x, p))
                x = p
            else:
                band, p = up[y]
                descend.append((band, p, y))
                y = p
        steps = [(k, u, v)] + climb + descend[::-1]
        bands = {b: 1 if frm == surface.first[b] else -1 for b, frm, _ in steps}
        visits = {
            to: (b, steps[(i + 1) % len(steps)][0])
            for i, (b, _, to) in enumerate(steps)
        }
        cycles.append(_Cycle(bands, visits))
    return cycles


def _pair_form(surface: _Surface, x: _Cycle, y: _Cycle) -> tuple[int, int]:
    """(S(x, y), I(x, y)) for two distinct cycles, so that
    lk(x, y^+) = (S + I) / 2 and lk(y, x^+) = (S - I) / 2."""
    shared = x.bands.keys() & y.bands.keys()
    curves = (x, y)

    def point(which: int, k: int, circle: int) -> int:
        # In a band both curves cross, x comes before y along the band's
        # first circle and after it along the second, whose boundary runs
        # the other way across the band.
        lane = which ^ (circle != surface.first[k]) if k in shared else 0
        return 2 * surface.slot[k][circle] + lane

    s = sum(-surface.sign[k] * x.bands[k] * y.bands[k] for k in shared)

    # a band reaching a circle from the inside passes over the paths along
    # that circle, each drawn forward from its incoming to its outgoing band;
    # stacking nested disks below instead would flip the sign of these
    # crossings and give another Seifert matrix of the same link
    for which in (0, 1):
        over, under = curves[which], curves[1 - which]
        for k, direction in over.bands.items():
            circle = surface.ramp[k]
            if circle is None or circle not in under.visits:
                continue
            enter, leave = under.visits[circle]
            start = point(1 - which, enter, circle)
            span = 2 * surface.length[circle]
            offset = (point(which, k, circle) - start) % span
            if 0 < offset < (point(1 - which, leave, circle) - start) % span:
                inward = 1 if (direction > 0) == (circle == surface.first[k]) else -1
                s -= surface.turn[circle] * inward

    cut = 0
    for circle, (x_in, x_out) in x.visits.items():
        if circle not in y.visits:
            continue
        y_in, y_out = y.visits[circle]
        span = 2 * surface.length[circle]
        start = point(0, x_in, circle)
        end = (point(0, x_out, circle) - start) % span
        y_from = (point(1, y_in, circle) - start) % span
        y_to = (point(1, y_out, circle) - start) % span
        if y_from < end < y_to:
            cut -= 1
        elif y_to < end < y_from:
            cut += 1
    return s, cut


# --------------------------------------------------------------------------
# determinant


def _conway_from_seifert(v: list[list[int]]) -> LaurentPoly:
    """nabla(z) = det(s^-1 V - s V^T) with z = s - 1/s, by interpolation.

    nabla has only powers z^j with j = n mod 2, so nabla(z) = z^(n mod 2)
    R(z^2) with deg R <= n // 2.  At s = 1, 2, ... (s = 1 skipped when n is
    odd) R is read off the integer determinant det(V - s^2 V^T), and
    Newton interpolation in w = z^2 recovers its coefficients exactly.
    """
    n = len(v)
    odd = n % 2
    nodes: list[Fraction] = []
    values: list[Fraction] = []
    s = 1 + odd
    while len(nodes) <= n // 2:
        u = s * s
        det = _bareiss_det([[v[i][j] - u * v[j][i] for j in range(n)] for i in range(n)])
        z = Fraction(u - 1, s)
        nodes.append(z * z)
        values.append(Fraction(det, s**n) / z**odd)
        s += 1
    # divided differences, then expand the Newton form
    coeffs = list(values)
    for level in range(1, len(nodes)):
        for i in range(len(nodes) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (nodes[i] - nodes[i - level])
    poly = [coeffs[-1]]
    for i in range(len(nodes) - 2, -1, -1):
        # poly * (w - nodes[i]) + coeffs[i]
        shifted = [Fraction(0)] + poly
        for j, c in enumerate(poly):
            shifted[j] -= nodes[i] * c
        shifted[0] += coeffs[i]
        poly = shifted
    terms = {}
    for j, c in enumerate(poly):
        if c.denominator != 1:
            raise ArithmeticError("Seifert determinant did not interpolate to integers")
        terms[2 * j + odd] = c.numerator
    return LaurentPoly(terms)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
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
