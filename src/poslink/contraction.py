"""The contraction engine of the Kauffman bracket (:mod:`poslink.laurent`)
and of the Khovanov tangle builder (:mod:`poslink.tangle`).

Both add a diagram's crossings to a tangle one at a time, as
:attr:`Diagram.contraction_crossings` gives them, and keep their state per
planar matching of the tangle's open ends.  The open ends are numbered
by position: 0..w-1 after each step, the ends the crossing left open in
their order, then its new arcs that stay open (:func:`_positions`).  A
matching is the tuple of each end's partner, interned as a small int
(:data:`_MATCHINGS`), and a crossing is named by the positions of its
four arcs, new arcs numbered w, w+1, ... .  So a matching and its
smoothings (:func:`_smoothings`) name no arc, and their memos hang on the
matching interner and last as long as its ids.  Every memo holds a
function of its key alone, so no result depends on what the tables hold.

The state after k steps is a function of the first k renumbered
crossings alone.  So :func:`contract` keeps, per step function, the chain
of the last diagram contracted: one (renumbered crossing, (state after
it, arc at each open end)) pair per step.  The next call takes the
states of the steps its own crossings share with that chain, cuts the
chain at the first crossing that differs and contracts on from there.
The chains hang on the interner, because their states name matchings by
its ids: a new interner starts with no chain and no memo.  A state joins
the chain once its step is done, and a step never changes the state it
is given, so a state the chain holds is never changed, and a call that
raises leaves a chain of finished steps.
:func:`poslink.batch.cmd_survey` contracts its records in the sorted
order of their renumbered crossings, so each one shares the longest
prefix possible with the one contracted just before it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .diagram import A_SMOOTHING, B_SMOOTHING, smoothing_pairs

# the crossing's own four ends are -1..-4, so no position can clash
_SLOT_PAIRS = [smoothing_pairs((-1, -2, -3, -4), label) for label in (A_SMOOTHING, B_SMOOTHING)]


class _Interned(dict):
    """Small int ids for hashable values, in order of first lookup;
    ``value[i]`` is the value of id i.  The memos of functions of
    interned matchings, and the chains whose states name them, hang on
    the table that numbers them, keyed by its ids; the tangle builder's
    shape table leaves them empty."""

    def __init__(self) -> None:
        super().__init__()
        self.value: list = []
        self.smoothings: dict = {}  # (m, local crossing) -> _smoothings
        self.chains: dict = {}  # step function -> its chain (contract)
        self.cycles: dict = {}  # (m1, m2) -> tangle._cycles
        self.composed: dict = {}  # (m1, m2, m3) -> composition shape, width
        self.glued: dict = {}  # (m1, m2, local crossing) -> tangle._glued
        self.steps: dict = {}  # (m, local crossing) -> tangle._step

    def __missing__(self, x) -> int:
        i = self[x] = len(self.value)
        self.value.append(x)
        return i


# planar matching (each end's partner) -> id, for the whole process
_MATCHINGS = _Interned()


def contract(crossings: Sequence[tuple[int, ...]], add: Callable, start: Callable):
    """The state after the renumbered ``crossings``: ``start(id of the
    empty matching)`` before any, and ``add(state, local crossing,
    matchings)`` for each, which returns a new state.  The steps the
    crossings share with the last contraction by ``add`` are taken from
    its chain, not redone."""
    matchings = _MATCHINGS
    chain = matchings.chains.get(add, ())
    k, n = 0, min(len(chain), len(crossings))
    while k < n and chain[k][0] == crossings[k]:
        k += 1
    state, ends = chain[k - 1][1] if k else (start(matchings[()]), ())
    for crossing in crossings[k:]:
        local, ends = _positions(crossing, ends)
        state = add(state, local, matchings)
        chain = matchings.chains[add] = chain[:k] + ((crossing, (state, ends)),)
        k += 1
    return state


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


def _smoothings(matchings: _Interned, m: int, local: tuple[int, ...]) -> tuple:
    """The matchings left when the crossing ``local`` joins a tangle of
    matching m, for its A- and its B-smoothing, each with one slot
    (-1..-4) on every loop that closes.  An open crossing arc joins the
    tangle there; a new arc stays open.  The ends left are numbered by
    position, as :func:`_positions` numbers them."""
    key = (m, local)
    if key not in matchings.smoothings:
        ends = dict(enumerate(matchings.value[m]))
        for slot, arc in enumerate(local):
            far = ends.pop(arc, arc)
            ends[-1 - slot] = far
            ends[far] = -1 - slot
        rank = {e: i for i, e in enumerate(sorted(e for e in ends if e >= 0))}
        sides = []
        for pairs in _SLOT_PAIRS:
            partner = dict(ends)
            loops = []
            for x, y in pairs:
                u, v = partner.pop(x), partner.pop(y)
                if u == y:
                    loops.append(x)
                else:
                    partner[u], partner[v] = v, u
            sides.append((matchings[tuple(rank[partner[e]] for e in rank)], loops))
        matchings.smoothings[key] = tuple(sides)
    return matchings.smoothings[key]
