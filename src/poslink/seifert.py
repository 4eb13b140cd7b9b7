"""Conway polynomial from a Seifert matrix.

This is the route of :func:`poslink.conway` for every diagram that is not
a braid closure, PD codes included (:mod:`poslink.burau`, which imports
this module on first use, reads braid closures off their words).
:func:`conway` runs Seifert's algorithm on the PD code.  Smoothing every
crossing along the orientation gives the Seifert circles (X[a,b,c,d]
joins a to d and b to c when positive, a to b and c to d when negative).
Each circle bounds a disk, a circle nested inside another is stacked
above it, and every crossing becomes a half-twisted band joining its two
circles.  H_1 of that surface has rank c - m + 1 for m circles, one
cycle per band outside a spanning tree of the Seifert graph (circles as
vertices, crossings as edges).  The cycle of such a band returns through
the latest earlier band joining the same two circles, and through the
tree only when there is none.  On a braid closure every cycle is then
two bands between the same two strands, next to each other along the
braid, and meets only the cycles of nearby bands: in the closures of
random 3- and 4-braids each row of V + V^T has at most 5 and 7 nonzeros,
where a spanning-tree basis fills every row.  The Seifert
form V[i][j] = lk(g_i, g_j^+) is assembled from the crossings of the
projected curves (only for pairs of cycles that visit a common circle:
every other pair has a zero form), and

    nabla(z) = det(t^(-1/2) V - t^(1/2) V^T),   z = t^(1/2) - t^(-1/2)

(Lickorish, *An Introduction to Knot Theory*, ch. 6).  The determinant is
taken exactly: integer determinants at a few points, then interpolation.
Each determinant is the fraction-free elimination on sparse rows that
the Burau route also runs (:func:`poslink.burau._bareiss_det`), which
rewrites only the rows with a nonzero in the pivot column.  On n rows
with the nonzeros within b columns of the diagonal that is about n b^2
products of integers of O(n) digits, where dense elimination takes n^3,
at each of the n // 2 + 1 points: the closure of the 120-crossing
(1 -2)^60 takes about 0.3 s.  Everything is polynomial in the crossing
count.

Geometry.  The circles are walked on the diagram's far-end table
(``Diagram._far``).  Node 2C + side stands for the region on the left
(side 0) or right (side 1) of circle C; a band joins two nodes of one
region, and the two sides of a circle lie in adjacent regions.  With any
node's region taken as the outer one, the regions form a tree, and a
level-order walk out from it fixes whether each circle runs clockwise and
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

from fractions import Fraction

from .burau import _bareiss_det
from .diagram import Diagram
from .laurent import LaurentPoly


def conway(d: Diagram) -> LaurentPoly:
    """Conway polynomial in z of any diagram, from its Seifert matrix:
    nabla(L+) - nabla(L-) = z * nabla(L0), normalized to 1 on the unknot
    and 0 on split links."""
    if not d.crossings:
        return LaurentPoly.one() if d.free_circles == 1 else LaurentPoly.zero()
    if d.free_circles or d._shadow_pieces > 1:
        return LaurentPoly.zero()
    return _conway_from_seifert(seifert_matrix(d))


# --------------------------------------------------------------------------
# Seifert surface


def seifert_matrix(d: Diagram, outer: int = 0) -> list[list[int]]:
    """Seifert matrix of the canonical Seifert surface of a connected
    diagram, on the cycles of :func:`_cycle_basis`, in crossing order.

    ``outer`` picks the unbounded region between the Seifert circles: the
    one on side ``outer & 1`` of circle ``outer >> 1`` (0 <= outer < 2m
    for m circles, see :func:`_surface`).  Every choice gives a Seifert
    matrix of the same link.
    """
    if not d.crossings or d.free_circles or d._shadow_pieces > 1:
        raise ValueError("the Seifert matrix is built for connected diagrams only")
    surface = _surface(d, outer)
    sign = surface[0]
    cycles = _cycle_basis(surface)
    n = len(cycles)
    matrix = [[0] * n for _ in range(n)]
    on_circle: dict[int, list[int]] = {}  # circle -> the earlier cycles visiting it
    for i, x in enumerate(cycles):
        bands, visits = x
        # a cycle meets each circle at most once, so it crosses its
        # push-offs only in the half twists of its own bands
        matrix[i][i] = -sum(sign[k] for k in bands) // 2
        # two cycles that visit no circle in common share no band, no
        # ramp of one passes over the other's path and no chords
        # interleave, so their form is (0, 0)
        met = set()
        for circle in visits:
            met.update(on_circle.setdefault(circle, []))
            on_circle[circle].append(i)
        for j in met:
            s, cut = _pair_form(surface, x, cycles[j])
            matrix[i][j] = (s + cut) // 2
            matrix[j][i] = (s - cut) // 2
    return matrix


def _surface(d: Diagram, outer: int) -> tuple:
    """The canonical Seifert surface of a connected diagram, as the tuple
    ``(sign, first, second, slot, ramp, length, turn)``.

    Crossing k is a band from circle ``first[k]`` (through its incoming
    under-strand) to circle ``second[k]`` (through its incoming
    over-strand); ``slot[k]`` is the pair of its places in the cyclic order
    of bands along those two circles, and ``ramp[k]`` the circle it reaches
    from the inside, if any.  ``length[C]`` counts the bands along circle
    C, and ``turn[C]`` is +1 when C runs counterclockwise.

    The circles are walked on the far-end table ``d._far`` over incoming
    positions: 4k is the under-strand of crossing k and 4k + over_in[k] its
    over-strand.  The Seifert smoothing sends slot 0 out at slot
    over_in[k] ^ 2 and the over-strand out at slot 2, and the far end of
    the outgoing arc is the next incoming position.  Side 0 of a circle is
    its left, side 1 its right, and node 2C + side stands for the region
    on that side of circle C; ``outer`` is the node whose region is the
    unbounded one.
    """
    far = d._far
    over_in = d._orientation[0]
    step = [0] * len(far)  # incoming position -> the next one on its circle
    for k, oi in enumerate(over_in):
        step[4 * k] = far[4 * k + (oi ^ 2)]
        step[4 * k + oi] = far[4 * k + 2]
    circle_at = [-1] * len(far)
    place_at = [0] * len(far)
    length: list[int] = []
    for k, oi in enumerate(over_in):
        for start in (4 * k, 4 * k + oi):
            pos, place = start, 0
            while circle_at[pos] < 0:
                circle_at[pos], place_at[pos] = len(length), place
                place += 1
                pos = step[pos]
            if place:
                length.append(place)
    m = len(length)
    if not 0 <= outer < 2 * m:
        raise ValueError(f"outer must be a node in 0..{2 * m - 1}, got {outer}")
    sign = tuple(1 if oi == 1 else -1 for oi in over_in)
    first = tuple(circle_at[4 * k] for k in range(len(over_in)))
    second = tuple(circle_at[4 * k + oi] for k, oi in enumerate(over_in))
    slot = tuple((place_at[4 * k], place_at[4 * k + oi]) for k, oi in enumerate(over_in))

    # A band lies on the left (side 0) of its first circle when the
    # crossing is positive, and on the right otherwise; it lies on the
    # other side of its second circle.  Both ends face one region.
    ends = [
        (2 * u + (s < 0), 2 * v + (s > 0)) for s, u, v in zip(sign, first, second)
    ]
    joined: list[list[int]] = [[] for _ in range(2 * m)]
    for x, y in ends:
        joined[x].append(y)
        joined[y].append(x)
    # level-order walk out from the outer region: a band stays in its
    # region, and crossing a circle steps to the adjacent one, so the side
    # of each circle at the higher level is its inside
    level = [-1] * (2 * m)
    level[outer] = 0
    region = [outer]
    while region:
        for x in region:  # the list grows to the whole level as it is read
            for y in joined[x]:
                if level[y] < 0:
                    level[y] = level[x]
                    region.append(y)
        region = [x ^ 1 for x in region if level[x ^ 1] < 0]
        for x in region:
            level[x] = level[x ^ 1] + 1

    ramp = tuple(
        u if level[x] > level[x ^ 1] else v if level[y] > level[y ^ 1] else None
        for (x, y), u, v in zip(ends, first, second)
    )
    # inside on the left means counterclockwise
    turn = tuple(1 if level[2 * c] > level[2 * c + 1] else -1 for c in range(m))
    return sign, first, second, slot, ramp, tuple(length), turn


def _cycle_basis(surface: tuple) -> list[tuple[dict, dict]]:
    """A basis of H_1 of the surface, one cycle per crossing outside a
    breadth-first spanning tree of the Seifert graph, in crossing order.

    The cycle of band k from circle u to circle v returns to u through the
    latest earlier band joining the same two circles, and through the tree
    only when there is none.  It is the fundamental cycle of k minus that
    of the earlier band, so the change of basis is unimodular, and each
    cycle still meets each circle at most once.  On a braid closure every
    cycle is two bands between the same two strands, so the Seifert matrix
    is banded.

    A cycle is the pair (bands, visits): ``bands[k]`` is +1 when it
    crosses band k from ``first[k]`` to ``second[k]``, and ``visits[C]``
    is the (incoming, outgoing) band pair of its path across the disk of
    C."""
    _, first, second, _, _, length, _ = surface
    m = len(length)
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for k, (u, v) in enumerate(zip(first, second)):
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

    latest: dict[tuple[int, int], int] = {}  # pair of circles -> band
    cycles = []
    for k, (u, v) in enumerate(zip(first, second)):
        pair = (u, v) if u < v else (v, u)
        back = latest.get(pair)
        latest[pair] = k
        if k in in_tree:
            continue
        # cross band k from u to v, then return to u
        if back is not None:
            steps = [(k, u, v), (back, v, u)]
        else:
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
        bands = {b: 1 if frm == first[b] else -1 for b, frm, _ in steps}
        visits = {
            to: (b, steps[(i + 1) % len(steps)][0])
            for i, (b, _, to) in enumerate(steps)
        }
        cycles.append((bands, visits))
    return cycles


def _pair_form(surface: tuple, x: tuple[dict, dict], y: tuple[dict, dict]) -> tuple[int, int]:
    """(S(x, y), I(x, y)) for two distinct cycles, so that
    lk(x, y^+) = (S + I) / 2 and lk(y, x^+) = (S - I) / 2."""
    sign, first, _, slot, ramp, length, turn = surface
    (x_bands, x_visits), (y_bands, y_visits) = curves = (x, y)
    shared = x_bands.keys() & y_bands.keys()

    def point(which: int, k: int, circle: int) -> int:
        # In a band both curves cross, x comes before y along the band's
        # first circle and after it along the second, whose boundary runs
        # the other way across the band.
        other_end = circle != first[k]
        lane = which ^ other_end if k in shared else 0
        return 2 * slot[k][other_end] + lane

    s = sum(-sign[k] * x_bands[k] * y_bands[k] for k in shared)

    # a band reaching a circle from the inside passes over the paths along
    # that circle, each drawn forward from its incoming to its outgoing band;
    # stacking nested disks below instead would flip the sign of these
    # crossings and give another Seifert matrix of the same link
    for which in (0, 1):
        (over, _), (_, under) = curves[which], curves[1 - which]
        for k, direction in over.items():
            circle = ramp[k]
            if circle is None or circle not in under:
                continue
            enter, leave = under[circle]
            start = point(1 - which, enter, circle)
            span = 2 * length[circle]
            offset = (point(which, k, circle) - start) % span
            if 0 < offset < (point(1 - which, leave, circle) - start) % span:
                inward = 1 if (direction > 0) == (circle == first[k]) else -1
                s -= turn[circle] * inward

    cut = 0
    for circle, (x_in, x_out) in x_visits.items():
        if circle not in y_visits:
            continue
        y_in, y_out = y_visits[circle]
        span = 2 * length[circle]
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
    # V - u V^T is nonzero only where V or V^T is, for every u
    pattern = [[j for j in range(n) if row[j] or v[j][i]] for i, row in enumerate(v)]
    nodes: list[Fraction] = []
    values: list[Fraction] = []
    s = 1 + odd
    while len(nodes) <= n // 2:
        u = s * s
        det = _bareiss_det([
            {j: x for j in cols if (x := v[i][j] - u * v[j][i])} for i, cols in enumerate(pattern)
        ])
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
