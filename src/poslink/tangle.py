"""Bar-Natan's local algorithm (*Khovanov's homology for tangles and
cobordisms*, Geom. Topol. 2005; *Fast Khovanov homology computations*,
JKTR 2007): the crossings join a tangle in the bracket's order, and the
tangle's complex has one object per (planar matching of its open ends, h,
q), h the B-smoothings so far and q the 1-labels minus the x-labels, plus
h.  An entry of the differential is a combination of dotted cobordisms,
one disk per cycle of the two matchings, keyed by the mask of dotted
disks (:func:`_neck_cut`).  After each crossing every entry that is +-1
times the identity of a matching is cancelled (Gaussian elimination).
The build starts from one object, the empty tangle: a free circle meets
no crossing, and :mod:`poslink.khovanov` tensors it in afterwards.

The builder reads the crossings as :attr:`Diagram.contraction_crossings`
gives them, with the arcs renumbered in the order the crossings meet
them, so a relabelled copy of a diagram builds the same complex.  The
matchings it meets are interned as small ints (:data:`_MATCHINGS`), so
objects and memos key on ints, not on tuples of arc pairs.  A glued
cobordism is cut by its shape: the disk count, the gluings and the
boundary circles as disk numbers, and the counts of circles kept open
and of source loops delooped.  The shape names no arc, so gluings that
differ only in their arc labels share one neck cut, computed once per
(shape, dots).  The two label-free tables, the shapes (:data:`_SHAPES`)
and the delooped neck cuts (:data:`_CUTS`), live for the whole process,
so each diagram of a survey cuts only the shapes that no earlier one
met.  A cut is a function of its shape and dots alone, so no result
depends on what the tables hold.  The cycles and composition shapes of
a pair or triple of matchings, and the glued shape of each piece at one
crossing, live and die inside one call.

The complex after k steps is a function of the first k renumbered
crossings alone: they fix the tangle, its open ends and their labels,
and each step's objects are numbered in the order of the step before.
So :data:`_CHAIN` keeps, for the last diagram built, one (renumbered
crossing, reduced complex after it) pair per step, and the next call
takes the complexes of the steps its own crossings share with that
chain (:func:`poslink.diagram.shared_steps`, the helper the Kauffman
bracket's own chain matches with), cuts the chain at the first crossing
that differs and builds on from there.  A complex joins the chain only
once its cancellation is done; a later step reads it to build a new
complex and never hands it to the cancellation, which works in place,
so a complex the chain holds is never changed, and a call that raises
leaves a chain of finished steps.  The matchings stay interned with the
chain because its complexes name them by id.  :func:`poslink.batch.cmd_survey` builds its records in the
sorted order of their renumbered crossings, so each one shares the
longest prefix possible with the one built just before it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .diagram import Diagram, shared_steps
from .laurent import _SLOT_PAIRS, _smoothings


class _Interned(dict):
    """Small int ids for hashable values, in order of first lookup;
    ``value[i]`` is the value of id i."""

    def __init__(self) -> None:
        super().__init__()
        self.value: list = []

    def __missing__(self, x) -> int:
        i = self[x] = len(self.value)
        self.value.append(x)
        return i


# shape -> id, and (shape id, dots) -> delooped neck cut, for the whole
# process: both are functions of label-free shapes alone
_SHAPES = _Interned()
_CUTS: dict[tuple[int, int], tuple[tuple[int, int, tuple], ...]] = {}
# planar matching -> id, and the last diagram's (renumbered crossing,
# (objects, differential) after it) per step, whose objects name
# matchings by those ids; the chain is replaced whole, never changed in
# place, so each value it takes is one build's finished steps
_MATCHINGS = _Interned()
_CHAIN: tuple[tuple[tuple[int, ...], tuple[dict, dict]], ...] = ()


def _cut(shape: int, dots: int) -> tuple[tuple[int, int, tuple], ...]:
    """The neck cut of a shape with these disks dotted, delooped, as
    (source labels, target labels, (mask, coefficient) terms)."""
    key = (shape, dots)
    if key not in _CUTS:
        disks, gluings, circles, width, inputs = _SHAPES.value[shape]
        terms = _deloop(_neck_cut(disks, dots, gluings, circles), width, inputs)
        _CUTS[key] = tuple((l1, l2, tuple(g.items())) for (l1, l2), g in terms.items())
    return _CUTS[key]


def reduced_complex(d: Diagram) -> tuple[dict[int, tuple[int, int]], dict[int, dict]]:
    """The complex of the diagram's crossings, with the homology of their
    cube of resolutions over Z: (h, q) per generator, and per generator its
    nonzero coefficients on the generators one degree up.  Free circles
    are left out; the caller tensors them in.  Steps the diagram's
    renumbered crossings share with the last diagram built are taken from
    :data:`_CHAIN`, not rebuilt."""
    matchings = _MATCHINGS
    memo: dict[tuple, object] = {}  # cycles and composition shapes, by ids

    def cycles(i1: int, i2: int) -> tuple[dict[int, int], list[int]]:
        # the cycle of each end in matchings i1 and i2 together, numbered
        # by least end, and that least end of each cycle
        key = (i1, i2)
        if key not in memo:
            m1 = matchings.value[i1]
            p1, p2 = dict(m1), dict(matchings.value[i2])
            cycle, least = {}, []
            for e, _ in m1:
                if e not in cycle:
                    least.append(e)
                    while e not in cycle:
                        cycle[e] = cycle[p1[e]] = len(least) - 1
                        e = p2[p1[e]]
            memo[key] = cycle, least
        return memo[key]

    def compose(i1: int, i2: int, i3: int, f: dict, g: dict) -> dict[int, int]:
        # g o f for f: i1 -> i2 and g: i2 -> i3, glued along the arcs of i2
        key = (i1, i2, i3)
        if key not in memo:
            first, arcs = cycles(i1, i2)
            second, more = cycles(i2, i3)
            n = len(arcs)
            gluings = tuple((first[e], n + second[e]) for e, p in matchings.value[i2] if e < p)
            circles = tuple(first[e] for e in cycles(i1, i3)[1])
            memo[key] = _SHAPES[n + len(more), gluings, circles, len(circles), 0], n
        shape, n = memo[key]
        out: dict[int, int] = {}
        for a, x in f.items():
            for b, y in g.items():
                for _, _, terms in _cut(shape, a | b << n):  # no loops: one entry
                    for mask, z in terms:
                        out[mask] = out.get(mask, 0) + x * y * z
        return out

    global _CHAIN
    crossings = d.contraction_crossings
    chain = _CHAIN
    k = shared_steps(chain, crossings)
    objects, out = chain[k - 1][1] if k else ({0: (matchings[()], 0, 0)}, {0: {}})
    for crossing in crossings[k:]:
        objects, out = _add_crossing(objects, out, crossing, matchings, cycles)
        _cancel_isomorphisms(objects, out, compose)
        chain = _CHAIN = chain[:k] + ((crossing, (objects, out)),)
        k += 1
    return (
        {o: (h, q) for o, (_, h, q) in objects.items()},
        {o: {t: f[0] for t, f in row.items()} for o, row in out.items()},
    )


def _neck_cut(
    disks: int, dots: int, gluings: Sequence[tuple[int, int]], circles: Sequence[int]
) -> list[tuple[int, int]]:
    """A surface glued from disks, in the basis of one disk per boundary
    circle with or without a dot, as (mask of dotted circles, coefficient)
    terms.

    ``dots`` is the mask of dotted disks, each gluing joins two disks
    along an interval, and ``circles[i]`` is a disk on boundary circle i.
    A component with m circles has chi = disks - gluings and genus
    g = (2 - chi - m) / 2.  Cutting its necks (a neck is the sum of its two
    one-sided dottings, a dot squares to 0, a dotted sphere is 1 and a
    sphere 0) leaves, with k its dots: 0 if g + k >= 2; all its circles
    dotted, times 2^g, if g + k = 1; and the sum over its circles i of all
    but circle i dotted if g + k = 0.
    """
    root = list(range(disks))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for u, v in gluings:
        root[find(u)] = find(v)
    parts: dict[int, list[int]] = {}  # root -> [chi, dots, mask of its circles]
    for x in range(disks):
        part = parts.setdefault(find(x), [0, 0, 0])
        part[0] += 1
        part[1] += dots >> x & 1
    for u, _ in gluings:
        parts[find(u)][0] -= 1
    for i, x in enumerate(circles):
        parts[find(x)][2] |= 1 << i
    terms = [(0, 1)]
    for chi, k, full in parts.values():
        genus = (2 - chi - full.bit_count()) // 2
        if genus + k > 1:
            return []
        if genus + k:
            options = [(full, 2 if genus else 1)]
        else:
            options = [(full ^ 1 << i, 1) for i in range(full.bit_length()) if full >> i & 1]
        terms = [(a | b, x * y) for a, x in terms for b, y in options]
    return terms


def _add_crossing(
    objects: dict, out: dict, crossing, matchings: _Interned, cycles
) -> tuple[dict, dict]:
    """The complex with one more crossing, before reduction: each object
    splits into its A- and B-smoothing, one object per labelling of the
    loops that close, each entry f is glued to the identity on either, and
    the saddle joins the two copies of each object, with sign (-1)^h.
    Gluing joins, along an interval, the disk of each open end the crossing
    closes to the disk of its slot, and the two slots of a kink's arc."""
    slot = {arc: -1 - s for s, arc in enumerate(crossing)}
    kinks = [(-1 - s, slot[arc]) for s, arc in enumerate(crossing) if slot[arc] != -1 - s]
    joined = {
        i: [(matchings[m], loops) for m, loops in _smoothings(matchings.value[i], crossing)]
        for i in {m for m, _, _ in objects.values()}
    }
    objs: dict[int, tuple] = {}
    first: dict[int, list[int]] = {}  # object -> id of each smoothing's label 0
    for o, (m, h, q) in objects.items():
        first[o] = []
        for b, (m2, loops) in enumerate(joined[m]):
            first[o].append(len(objs))
            for lab in range(1 << len(loops)):
                objs[len(objs)] = (m2, h + b, q + b + len(loops) - 2 * lab.bit_count())
    glued: dict[tuple, int] = {}

    def glue(i1: int, i2: int, b1: int, b2: int) -> int:
        # the shape of the cobordism glued to the piece b1 -> b2
        key = (i1, i2, b1, b2)
        if key not in glued:
            cycle, least = cycles(i1, i2)
            n = len(least)
            # the disk of each slot: one strip per smoothing arc of the
            # identity, one disk for the saddle
            pairs = _SLOT_PAIRS[b1] if b1 == b2 else [range(-4, 0)]
            disk = {x: n + i for i, pair in enumerate(pairs) for x in pair}
            (n1, loops1), (n2, loops2) = joined[i1][b1], joined[i2][b2]
            ends = cycles(n1, n2)[1]
            gluings = [(cycle[arc], disk[slot[arc]]) for arc in crossing if arc in cycle]
            gluings += [(disk[x], disk[y]) for x, y in kinks]
            circles = [cycle[e] if e in cycle else disk[slot[e]] for e in ends]
            circles += [disk[x] for x in loops1 + loops2]
            glued[key] = _SHAPES[n + len(pairs), tuple(gluings), tuple(circles), len(ends), len(loops1)]
        return glued[key]

    new: dict[int, dict[int, dict[int, int]]] = {o: {} for o in objs}

    def add(o1: int, b1: int, o2: int, b2: int, f: dict, sign: int) -> None:
        shape = glue(objects[o1][0], objects[o2][0], b1, b2)
        s1, s2 = first[o1][b1], first[o2][b2]
        for mask, x in f.items():
            for l1, l2, terms in _cut(shape, mask):
                _add_to(new[s1 + l1], s2 + l2, terms, sign * x)

    for o1, row in out.items():
        for o2, f in row.items():
            add(o1, 0, o2, 0, f, 1)
            add(o1, 1, o2, 1, f, 1)
    for o, (_, h, _) in objects.items():
        add(o, 0, o, 1, {0: 1}, -1 if h & 1 else 1)
    return objs, new


def _deloop(terms: list[tuple[int, int]], width: int, inputs: int) -> dict[tuple, dict]:
    """Neck-cut terms over ``width`` circles, then ``inputs`` source loops,
    then target loops, split by the labels of the loops (bit set: x).  A
    source loop labelled 1 (a cup) keeps the terms where it is dotted, one
    labelled x (a dotted cup) those where it is not, and a dotted target
    loop is labelled x (the cap picks it out)."""
    ones = (1 << inputs) - 1
    out: dict[tuple[int, int], dict[int, int]] = {}
    for term, z in terms:
        labels = (term >> width & ones ^ ones, term >> width >> inputs)
        out.setdefault(labels, {})[term & (1 << width) - 1] = z
    return out


def _add_to(row: dict, t: int, terms: Iterable[tuple[int, int]], factor: int) -> bool:
    """row[t] += factor * terms ((mask, coefficient) pairs), dropping zero
    terms and an empty row[t]; whether row[t] is left."""
    acc = row.pop(t, {})
    for a, z in terms:
        z = acc.get(a, 0) + factor * z
        if z:
            acc[a] = z
        else:
            acc.pop(a, None)
    if acc:
        row[t] = acc
    return bool(acc)


def _cancel_isomorphisms(objects: dict, out: dict, compose) -> None:
    """Gaussian elimination of every entry that is +-1 times the identity
    of one matching, in place, until none is left."""
    into: dict[int, set[int]] = {o: set() for o in objects}
    for o, row in out.items():
        for t in row:
            into[t].add(o)
    work = list(objects)
    while work:
        b1 = work.pop()
        if b1 not in objects:
            continue
        m = objects[b1][0]
        isos = [
            t for t, phi in out[b1].items()
            if len(phi) == 1 and phi.get(0) in (1, -1) and objects[t][0] == m
        ]
        if not isos:
            continue
        b2 = isos[0]
        sign = out[b1][b2][0]  # phi^-1 = phi
        gammas = [(e, g) for e, g in out[b1].items() if e != b2]
        for o in into[b2] - {b1}:
            row = out[o]
            for e, gamma in gammas:
                correction = compose(objects[o][0], m, objects[e][0], row[b2], gamma)
                if _add_to(row, e, correction.items(), -sign):
                    into[e].add(o)
                else:
                    into[e].discard(o)
            work.append(o)
        for x in (b1, b2):
            for t in out.pop(x):
                into[t].discard(x)
            for o in into.pop(x):
                del out[o][x]
            del objects[x]
