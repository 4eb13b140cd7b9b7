"""Bar-Natan's local algorithm (*Khovanov's homology for tangles and
cobordisms*, Geom. Topol. 2005; *Fast Khovanov homology computations*,
JKTR 2007): the crossings join a tangle in the bracket's order, and the
tangle's complex has one object per (planar matching of its open ends, h,
q), h the B-smoothings so far and q the 1-labels minus the x-labels, plus
h.  An entry of the differential is a combination of dotted cobordisms,
one disk per cycle of the two matchings, keyed by the mask of dotted
disks (:func:`_neck_cut`).  Each step leaves no entry that is +-1 times
the identity of a matching (Gaussian elimination).
The build starts from one object, the empty tangle: a free circle meets
no crossing, and :mod:`poslink.khovanov` tensors it in afterwards.

The builder reads the crossings as :attr:`Diagram.contraction_crossings`
gives them and numbers the tangle's open ends by position: 0..w-1 after
each step, the ends the crossing left open in their order, then its new
arcs that stay open (:func:`_positions`).  A matching is the tuple
of each end's partner, interned as a small int (:data:`_MATCHINGS`), and
a crossing is named by the positions of its four arcs, new arcs
numbered w, w+1, ... .  So matchings, smoothings, glued shapes, cycles
and composition shapes name no arc, and their memos hang on the matching
interner and last as long as its ids.  A glued cobordism is cut by its
shape: the disk count, the gluings and the boundary circles as disk
numbers, and the counts of circles kept open and of source loops
delooped.  The shapes (:data:`_SHAPES`) and their delooped neck cuts
(:data:`_CUTS`) live for the whole process too.  Every memo holds a
function of its key alone, so no result depends on what the tables hold.

A crossing splits each object into its A- and B-smoothing, and the
saddle between the two is a block that depends on the object's matching
and the crossing alone.  Where both smoothings leave one matching, the
block holds +-1 identity pieces, and :func:`_saddle_pairs` picks a set of
them whose block is diagonal.  Those objects are never made: each pair
x -> y, with phi its coefficient, adds -phi (x -> b)(a -> y) to every
entry a -> b of the new complex, which cancels all pairs at once, and
exactly.  An elimination reads only the entries into its y and out of
its x, and writes only entries from a source of y to a target of x.  An
entry glued from the complex before keeps its smoothing side, A -> A or
B -> B, and a saddle joins only the two sides of one object, whose
chosen block is diagonal.  So no correction writes into a cancelled
B-object or out of a cancelled A-object, and each pair eliminates from
the entries the step made, as it would alone.
:func:`_cancel_isomorphisms` then cancels whatever +-1 identity entry
is left, in row order.

The complex after k steps is a function of the first k renumbered
crossings alone: they fix the tangle, its open ends and their positions,
and each step's objects are numbered in the order of the step before.
So :data:`_CHAIN` keeps, for the last diagram built, one (renumbered
crossing, state after it) pair per step, the state being the reduced
complex and the arc at each open end, and the next call takes the
states of the steps its own crossings share with that chain
(:func:`poslink.diagram.shared_steps`, the helper the Kauffman bracket's
own chain matches with), cuts the chain at the first crossing that
differs and builds on from there.  A complex joins the chain only once
its cancellation is done; a later step reads it to build a new complex
and never hands it to the cancellation, which works in place, so a
complex the chain holds is never changed, and a call that raises leaves
a chain of finished steps.  The matchings stay interned with the chain
because its complexes name them by id.
:func:`poslink.batch.cmd_survey` builds its records in the sorted order
of their renumbered crossings, so each one shares the longest prefix
possible with the one built just before it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .diagram import _SLOT_PAIRS, Diagram, _smoothings, shared_steps


class _Interned(dict):
    """Small int ids for hashable values, in order of first lookup;
    ``value[i]`` is the value of id i.  The memos of functions of
    interned matchings hang on the table that numbers them, keyed by
    its ids; the shape table leaves them empty."""

    def __init__(self) -> None:
        super().__init__()
        self.value: list = []
        self.cycles: dict = {}  # (m1, m2) -> _cycles
        self.composed: dict = {}  # (m1, m2, m3) -> composition shape, width
        self.glued: dict = {}  # (m1, m2, local crossing) -> _glued
        self.steps: dict = {}  # (m, local crossing) -> _step

    def __missing__(self, x) -> int:
        i = self[x] = len(self.value)
        self.value.append(x)
        return i


# shape -> id, and (shape id, dots) -> delooped neck cut, for the whole
# process: both are functions of label-free shapes alone
_SHAPES = _Interned()
_CUTS: dict[tuple[int, int], tuple[tuple[int, int, tuple], ...]] = {}
# planar matching (each end's partner) -> id, and the last diagram's
# (renumbered crossing, (objects, differential, arc at each open end) after
# it) per step, whose objects name matchings by those ids; the chain is
# replaced whole, never changed in place, so each value it takes is one
# build's finished steps
_MATCHINGS = _Interned()
_CHAIN: tuple[tuple[tuple[int, ...], tuple[dict, dict, tuple[int, ...]]], ...] = ()


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
    global _CHAIN
    matchings = _MATCHINGS
    crossings = d.contraction_crossings
    chain = _CHAIN
    k = shared_steps(chain, crossings)
    objects, out, ends = chain[k - 1][1] if k else ({0: (matchings[()], 0, 0)}, {0: {}}, ())
    for crossing in crossings[k:]:
        local, ends = _positions(crossing, ends)
        objects, out = _add_crossing(objects, out, local, matchings)
        _cancel_isomorphisms(objects, out, matchings)
        chain = _CHAIN = chain[:k] + ((crossing, (objects, out, ends)),)
        k += 1
    return (
        {o: (h, q) for o, (_, h, q) in objects.items()},
        {o: {t: f[0] for t, f in row.items()} for o, row in out.items()},
    )


def _positions(crossing: Sequence[int], ends: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The crossing with its arcs named by position, and the arc at each
    open end after it.  ``ends`` holds the arc at each open end before it:
    such an arc is named by its position 0..w-1, and an arc the crossing
    meets first by w, w+1, ... in the order it meets them.  The open ends
    after it are the ones it left open, in order, then its new arcs that
    stay open."""
    new = [arc for i, arc in enumerate(crossing) if arc not in ends and arc not in crossing[:i]]
    w = len(ends)
    local = tuple(ends.index(arc) if arc in ends else w + new.index(arc) for arc in crossing)
    kept = tuple(arc for arc in ends if arc not in crossing)
    return local, kept + tuple(arc for arc in new if crossing.count(arc) == 1)


def _cycles(matchings: _Interned, i1: int, i2: int) -> tuple[list[int], list[int]]:
    """The cycle of each end in matchings i1 and i2 together, numbered by
    least end, and that least end of each cycle."""
    key = (i1, i2)
    if key not in matchings.cycles:
        p1, p2 = matchings.value[i1], matchings.value[i2]
        cycle, least = [-1] * len(p1), []
        for e in range(len(p1)):
            if cycle[e] < 0:
                least.append(e)
                while cycle[e] < 0:
                    cycle[e] = cycle[p1[e]] = len(least) - 1
                    e = p2[p1[e]]
        matchings.cycles[key] = cycle, least
    return matchings.cycles[key]


def _compose(matchings: _Interned, i1: int, i2: int, i3: int, f: dict, g: dict) -> dict[int, int]:
    """g o f for f: i1 -> i2 and g: i2 -> i3, glued along the ends of i2."""
    key = (i1, i2, i3)
    if key not in matchings.composed:
        first, arcs = _cycles(matchings, i1, i2)
        second, more = _cycles(matchings, i2, i3)
        n = len(arcs)
        middle = enumerate(matchings.value[i2])
        gluings = tuple((first[e], n + second[e]) for e, p in middle if e < p)
        circles = tuple(first[e] for e in _cycles(matchings, i1, i3)[1])
        matchings.composed[key] = _SHAPES[n + len(more), gluings, circles, len(circles), 0], n
    shape, n = matchings.composed[key]
    out: dict[int, int] = {}
    for a, x in f.items():
        for b, y in g.items():
            for _, _, terms in _cut(shape, a | b << n):  # no loops: one entry
                for mask, z in terms:
                    out[mask] = out.get(mask, 0) + x * y * z
    return out


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


def _step(matchings: _Interned, m: int, local: tuple[int, ...]) -> tuple:
    """What the crossing ``local`` does to an object of matching m: per
    side, A then B, the matching left and the slots of the loops that
    close, and the (label, q shift) of each object made; the saddle's
    pieces (A-label, B-label, terms) before the sign (-1)^h; and the pairs
    it cancels (A-label, B-label, coefficient), whose objects are not
    made."""
    key = (m, local)
    if key not in matchings.steps:
        smoothed = _smoothings(tuple(enumerate(matchings.value[m])), local)
        rank = {e: i for i, (e, _) in enumerate(smoothed[0][0])}  # open ends, then new arcs
        sides = [(matchings[tuple(rank[p] for _, p in pairs)], loops) for pairs, loops in smoothed]
        saddle = _cut(_glue(matchings, m, m, local, [(*sides, [range(-4, 0)])])[0], 0)
        pairs = _saddle_pairs(saddle) if sides[0][0] == sides[1][0] else ()
        made = tuple(
            tuple(
                (lab, b + len(loops) - 2 * lab.bit_count())
                for lab in range(1 << len(loops))
                if lab not in [pair[b] for pair in pairs]
            )
            for b, (_, loops) in enumerate(sides)
        )
        matchings.steps[key] = sides, made, saddle, pairs
    return matchings.steps[key]


def _glue(
    matchings: _Interned, i1: int, i2: int, local: tuple[int, ...], pieces: Iterable[tuple]
) -> tuple[int, ...]:
    """The shape of the cobordism i1 -> i2 glued to each piece of the
    crossing, given as its source and target smoothing and the slots that
    each of its disks joins: the identity has one strip per smoothing arc,
    the saddle one disk.  Gluing joins, along an interval, the disk of each
    open end the crossing closes to the disk of its slot, and the two slots
    of a kink's arc."""
    cycle, least = _cycles(matchings, i1, i2)
    n, w = len(least), len(cycle)
    slot = {p: -1 - s for s, p in enumerate(local)}
    closed = [(cycle[p], -1 - s) for s, p in enumerate(local) if p < w]
    kinks = [(-1 - s, slot[p]) for s, p in enumerate(local) if slot[p] != -1 - s]
    # the old name of each end after the crossing
    labels = [p for p in range(w) if p not in slot]
    labels += [p for p in slot if p >= w and local.count(p) == 1]
    shapes = []
    for (n1, loops1), (n2, loops2), pairs in pieces:
        disk = {x: n + i for i, pair in enumerate(pairs) for x in pair}
        gluings = [(c, disk[x]) for c, x in closed] + [(disk[x], disk[y]) for x, y in kinks]
        ends = _cycles(matchings, n1, n2)[1]
        circles = [cycle[p] if p < w else disk[slot[p]] for p in (labels[e] for e in ends)]
        circles += [disk[x] for x in loops1 + loops2]
        shapes.append(_SHAPES[n + len(pairs), tuple(gluings), tuple(circles), len(ends), len(loops1)])
    return tuple(shapes)


def _glued(matchings: _Interned, i1: int, i2: int, local: tuple[int, ...]) -> tuple[int, ...]:
    """The shapes of the cobordism i1 -> i2 glued to the identity of the
    A- and of the B-smoothing."""
    key = (i1, i2, local)
    if key not in matchings.glued:
        sides1, sides2 = _step(matchings, i1, local)[0], _step(matchings, i2, local)[0]
        identities = [(sides1[b], sides2[b], _SLOT_PAIRS[b]) for b in (0, 1)]
        matchings.glued[key] = _glue(matchings, i1, i2, local, identities)
    return matchings.glued[key]


def _saddle_pairs(saddle: Sequence[tuple[int, int, tuple]]) -> tuple[tuple[int, int, int], ...]:
    """The saddle's +-1 identity pieces that one step cancels, when both
    smoothings leave the same matching: the first ones in order such that
    no other piece joins two chosen labels, so their block is diagonal."""
    pairs: list[tuple[int, int, int]] = []
    joined = {(l1, l2) for l1, l2, _ in saddle}
    for l1, l2, terms in saddle:
        if len(terms) == 1 and terms[0][0] == 0 and terms[0][1] in (1, -1) and all(
            (l1, y) not in joined and (x, l2) not in joined for x, y, _ in pairs
        ):
            pairs.append((l1, l2, terms[0][1]))
    return tuple(pairs)


def _add_crossing(
    objects: dict, out: dict, local: tuple[int, ...], matchings: _Interned
) -> tuple[dict, dict]:
    """The complex with one more crossing, its saddle pairs cancelled:
    each object splits into its A- and B-smoothing, one object per
    labelling of the loops that close, each entry f is glued to the
    identity on either, and the saddle joins the two copies of each
    object, with sign (-1)^h.  The objects of the pairs :func:`_step`
    cancels are not made; each pair x -> y, phi, adds
    -phi (x -> b)(a -> y) to the entries a -> b it joins."""
    steps = {m: _step(matchings, m, local) for m in {m for m, _, _ in objects.values()}}
    objs: dict[int, tuple] = {}
    ids: dict[int, list[list]] = {}  # object -> new id per label per side, None if cancelled
    for o, (m, h, q) in objects.items():
        sides, made, _, _ = steps[m]
        ids[o] = []
        for b, ((m2, loops), kept) in enumerate(zip(sides, made)):
            side = [None] * (1 << len(loops))
            for lab, shift in kept:
                side[lab] = len(objs)
                objs[len(objs)] = (m2, h + b, q + shift)
            ids[o].append(side)
    new: dict[int, dict[int, dict[int, int]]] = {o: {} for o in objs}
    # entries into each cancelled B-object and out of each cancelled
    # A-object, from and to the objects kept, by (object, label)
    into: dict[tuple[int, int], dict] = {}
    onto: dict[tuple[int, int], dict] = {}
    glued = matchings.glued
    for o1, row in out.items():
        m1 = objects[o1][0]
        for o2, f in row.items():
            m2 = objects[o2][0]
            shapes = glued.get((m1, m2, local)) or _glued(matchings, m1, m2, local)
            for b, shape in enumerate(shapes):
                ids1, ids2 = ids[o1][b], ids[o2][b]
                for mask, x in f.items():
                    for l1, l2, terms in _cut(shape, mask):
                        s, t = ids1[l1], ids2[l2]
                        if s is not None and t is not None:
                            _add_to(new[s], t, terms, x)
                        elif t is not None and not b:
                            _add_to(onto.setdefault((o1, l1), {}), t, terms, x)
                        elif s is not None and b:
                            _add_to(into.setdefault((o2, l2), {}), s, terms, x)
    for o, (m, h, _) in objects.items():
        sides, _, saddle, pairs = steps[m]
        sign = -1 if h & 1 else 1
        ids1, ids2 = ids[o]
        for l1, l2, terms in saddle:
            s, t = ids1[l1], ids2[l2]
            if s is not None and t is not None:
                _add_to(new[s], t, terms, sign)
            elif t is not None:
                _add_to(onto.setdefault((o, l1), {}), t, terms, sign)
            elif s is not None:
                _add_to(into.setdefault((o, l2), {}), s, terms, sign)
        mid = sides[0][0]
        for l1, l2, phi in pairs:
            ins, outs = into.get((o, l2)), onto.get((o, l1))
            if ins and outs:
                for s, f in ins.items():
                    row, m1 = new[s], objs[s][0]
                    for t, g in outs.items():
                        correction = _compose(matchings, m1, mid, objs[t][0], f, g)
                        _add_to(row, t, correction.items(), -sign * phi)
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


def _cancel_isomorphisms(objects: dict, out: dict, matchings: _Interned) -> None:
    """Gaussian elimination of every entry that is +-1 times the identity
    of one matching, in place, until none is left."""
    into: dict[int, set[int]] = {}  # the sources of each entry, once a pair is found
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
        if not into:
            into = {o: set() for o in objects}
            for o, row in out.items():
                for t in row:
                    into[t].add(o)
        b2 = isos[0]
        sign = out[b1][b2][0]  # phi^-1 = phi
        gammas = [(e, g) for e, g in out[b1].items() if e != b2]
        for o in into[b2] - {b1}:
            row = out[o]
            for e, gamma in gammas:
                correction = _compose(matchings, objects[o][0], m, objects[e][0], row[b2], gamma)
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
