from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslink import (
    BraidWord,
    Diagram,
    a_state_circles,
    b_state_circles,
    braid_closure,
    components,
    crossing_signs,
    is_positive,
    jones_V,
    parse_braid,
    parse_pd,
    state_circles,
    writhe,
)
from poslink.diagram import _far_ends, _shadow_components, smoothing_pairs
from poslink.errors import (
    ArcMultiplicity,
    ArityError,
    GeneratorOutOfRange,
    MalformedBraid,
    MalformedPD,
    OrientationInconsistent,
    ZeroLetter,
)

from conftest import SEVEN4_PD, TREFOIL_PD
from polygon_diagrams import polygon_diagram
from reference import cube_states


@st.composite
def signed_words(draw):
    """A strand count of 1-6 and up to 14 signed letters on it."""
    strands = draw(st.integers(1, 6))
    letter = st.tuples(st.integers(1, max(strands - 1, 1)), st.sampled_from((1, -1)))
    letters = draw(st.lists(letter, max_size=14 if strands > 1 else 0))
    return strands, [g * sign for g, sign in letters]


def seeded_polygon_diagrams():
    """160 seeded random diagrams with 1-3 components and up to 14 crossings."""
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(40):
            yield polygon_diagram(rng, max_crossings=14)


class TestParsePD:
    def test_trefoil(self, trefoil):
        assert trefoil.crossing_count == 3
        assert trefoil.arc_count == 6
        assert trefoil.free_circles == 0

    def test_unknot_token(self):
        d = parse_pd("PD[O[]]")
        assert d.crossing_count == 0
        assert d.free_circles == 1

    def test_whitespace_insignificant(self, trefoil):
        assert parse_pd("PD[ X[1,4,2,5] , X[3,6,4,1] ,X[ 5,2 ,6,3] ]") == trefoil

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse_pd("PD[X[1,2,3]]")

    def test_multiplicity_error(self):
        with pytest.raises(ArcMultiplicity):
            parse_pd("PD[X[1,1,2,3]]")

    @pytest.mark.parametrize(
        "text",
        [
            "PD[]",
            "PD[Y[1,2,3,4]]",
            "X[1,2,3,4]",
            "PD[X[1,2,3,4]",
            "PD[X[a,b,c,d]]",
            "PD[X[1,2,3,4],]",
            "PD[,X[1,2,3,4]]",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedPD):
            parse_pd(text)

    def test_items_are_checked_in_order_after_the_brackets(self):
        # a blank item or an unbalanced bracket anywhere is a MalformedPD,
        # ahead of any item; otherwise the first bad item decides
        for text in ("PD[X[1,2,3],]", "PD[X[1,2,3],X[1]]]", "PD[X[1,2,3],,O[]]"):
            with pytest.raises(MalformedPD) as exc:
                parse_pd(text)
            assert type(exc.value) is MalformedPD
        for text in ("PD[X[1,2,3],Y[1]]", "PD[O[],X[1,2,3],X[[4]]]"):
            with pytest.raises(ArityError):
                parse_pd(text)

    def test_deep_nesting_is_rejected_in_linear_time(self):
        # collapsing innermost bracket groups until none is left would take
        # one pass per level: about 10^10 steps here
        start = time.perf_counter()
        nest = "[" * 100000 + "]" * 100000
        with pytest.raises(MalformedPD):
            parse_pd("PD[" + nest + "]")
        with pytest.raises(ArityError):
            parse_pd("PD[X[1,2,3]," + nest + "]")
        assert time.perf_counter() - start < 5

    def test_rejects_non_planar_codes(self):
        # the first two draw their shadow on a torus, not on a sphere; the
        # third adds a planar trefoil beside the first, so the Euler
        # characteristic must be checked per piece of the shadow
        torus = ((1, 2, 3, 4), (2, 3, 4, 1))
        trefoil = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))

        def shifted(crossings, by):
            return tuple(tuple(a + by for a in t) for t in crossings)

        for crossings in (torus, ((1, 1, 2, 3), (2, 4, 3, 4)), torus + shifted(trefoil, 4)):
            text = "PD[" + ",".join("X[%d,%d,%d,%d]" % t for t in crossings) + "]"
            with pytest.raises(MalformedPD, match="not planar"):
                parse_pd(text)
            with pytest.raises(MalformedPD, match="not planar"):
                Diagram(crossings)
        # two planar pieces side by side are fine
        assert components(Diagram(trefoil + shifted(trefoil, 6))) == 2

    def test_direct_construction_validates(self):
        with pytest.raises(ArcMultiplicity):
            Diagram(((1, 2, 3, 5),))
        with pytest.raises(ArityError):
            Diagram(((1, 2, 3),))


class TestParseBraid:
    def test_basic(self):
        b = parse_braid("strands=2; 1 1 1")
        assert b == BraidWord(2, (1, 1, 1))

    def test_commas(self):
        assert parse_braid("strands=3; 1, -2, 1") == BraidWord(3, (1, -2, 1))

    def test_empty_word(self):
        assert parse_braid("strands=1;") == BraidWord(1, ())

    def test_zero_letter(self):
        with pytest.raises(ZeroLetter):
            parse_braid("strands=2; 0")

    def test_out_of_range(self):
        with pytest.raises(GeneratorOutOfRange):
            parse_braid("strands=2; 2")

    def test_malformed(self):
        with pytest.raises(MalformedBraid):
            parse_braid("2 strands: 1 1")


class TestOrientation:
    def test_trefoil_signs(self, trefoil):
        assert crossing_signs(trefoil).signs == (1, 1, 1)
        assert writhe(trefoil) == 3

    def test_mirror_trefoil_signs(self, mirror_trefoil):
        assert crossing_signs(mirror_trefoil).signs == (-1, -1, -1)
        assert writhe(mirror_trefoil) == -3

    def test_no_crossings(self, unknot):
        assert crossing_signs(unknot).signs == ()
        assert writhe(unknot) == 0

    def test_sign_counts_sum(self, seven4, perturbed_trefoil):
        for d in (seven4, perturbed_trefoil):
            cs = crossing_signs(d)
            assert cs.positive_count + cs.negative_count == d.crossing_count

    def test_inconsistent(self):
        # arc 1 would have to enter both crossings as the under-strand
        with pytest.raises(OrientationInconsistent):
            crossing_signs(parse_pd("PD[X[1,2,3,4],X[1,4,3,2]]"))

    def test_polygon_components_run_along_their_labels(self):
        # the polygon drawings number arcs consecutively along each drawn
        # component in its direction, independently of the orientation walk
        for d in seeded_polygon_diagrams():
            cycles = d.component_cycles
            for cycle in cycles:
                assert cycle == tuple(range(cycle[0], cycle[0] + len(cycle))), d
            assert sorted(a for cycle in cycles for a in cycle) == list(range(1, d.arc_count + 1))


class TestComponents:
    def test_knots(self, trefoil, seven4):
        assert components(trefoil) == 1
        assert components(seven4) == 1

    def test_hopf(self, hopf):
        assert components(hopf) == 2

    def test_free_circle(self, unknot):
        assert components(unknot) == 1

    def test_split_union(self):
        d = braid_closure(parse_braid("strands=3; 1"))
        assert components(d) == 2  # kinked unknot plus a free circle


class TestStates:
    def test_trefoil_extremes(self, trefoil):
        assert a_state_circles(trefoil) == 2
        assert b_state_circles(trefoil) == 3

    def test_seven4_extremes(self, seven4):
        assert a_state_circles(seven4) == 6
        assert b_state_circles(seven4) == 3

    def test_empty_state(self, unknot):
        assert state_circles(unknot, ()) == 1

    def test_wrong_length(self, trefoil):
        with pytest.raises(ValueError):
            state_circles(trefoil, ("A",))

    def test_bad_label(self, trefoil):
        with pytest.raises(ValueError):
            state_circles(trefoil, ("A", "B", "C"))

    def test_single_flip_changes_by_one(self, trefoil, seven4, hopf):
        for d in (trefoil, seven4, hopf):
            for state in itertools.product("AB", repeat=d.crossing_count):
                n = state_circles(d, state)
                for k in range(d.crossing_count):
                    flipped = list(state)
                    flipped[k] = "B" if state[k] == "A" else "A"
                    assert abs(state_circles(d, flipped) - n) == 1

    def test_circle_count_bounds(self, trefoil, seven4):
        for d in (trefoil, seven4):
            for state in itertools.product("AB", repeat=d.crossing_count):
                n = state_circles(d, state)
                assert 1 <= n <= d.crossing_count + 1


CUBE_DIAGRAMS = {
    "unknot": "PD[O[]]",
    "hopf": "strands=2; 1 1",
    "trefoil": TREFOIL_PD,
    "seven4": SEVEN4_PD,
    "mixed 4-braid": "strands=4; 1 -2 3 -1 2 -3 1 2 -3 -2",
    "split closure": "strands=3; 1 1",
}


class TestCubeStates:
    """The reference's walk over the cube of resolutions, against
    ``state_circles`` and the smoothing rule."""

    @pytest.fixture(params=sorted(CUBE_DIAGRAMS))
    def diagram(self, request):
        text = CUBE_DIAGRAMS[request.param]
        return parse_pd(text) if text.startswith("PD[") else braid_closure(parse_braid(text))

    @staticmethod
    def state_of(d, mask):
        return tuple("B" if mask >> e & 1 else "A" for e in range(d.crossing_count))

    def test_masks_ascend_over_the_whole_cube(self, diagram):
        masks = [mask for mask, _, _ in cube_states(diagram)]
        assert masks == list(range(2 ** diagram.crossing_count))

    def test_circles_match_state_circles(self, diagram):
        for mask, circles, _ in cube_states(diagram):
            state = self.state_of(diagram, mask)
            assert circles + diagram.free_circles == state_circles(diagram, state), mask

    def test_labels_are_least_arcs_of_circles(self, diagram):
        arcs = range(1, diagram.arc_count + 1)
        for mask, circles, labels in cube_states(diagram):
            assert len(labels) == diagram.arc_count + 1
            # arcs joined by a smoothing share a label ...
            for t, label in zip(diagram.crossings, self.state_of(diagram, mask)):
                for x, y in smoothing_pairs(t, label):
                    assert labels[x] == labels[y], mask
            # ... there is one label per circle, so each label class is a circle ...
            assert len({labels[a] for a in arcs}) == circles
            # ... and each label is the least arc of its class
            for a in arcs:
                assert labels[labels[a]] == labels[a] <= a, mask


class TestPositivity:
    def test_trefoil(self, trefoil):
        assert is_positive(trefoil)

    def test_mirror(self, mirror_trefoil):
        assert not is_positive(mirror_trefoil)

    def test_vacuous(self, unknot):
        assert is_positive(unknot)


class TestBraidClosure:
    def test_trefoil_structure(self):
        d = braid_closure(parse_braid("strands=2; 1 1 1"))
        assert d.crossing_count == 3
        assert crossing_signs(d).signs == (1, 1, 1)
        assert components(d) == 1

    def test_signs_match_letters(self):
        word = parse_braid("strands=3; 1 -2 1 2 -1")
        d = braid_closure(word)
        assert crossing_signs(d).signs == (1, -1, 1, 1, -1)

    def test_empty_word_is_circle(self):
        d = braid_closure(parse_braid("strands=1;"))
        assert d == Diagram((), 1)

    def test_closure_keeps_its_word_outside_equality(self):
        word = parse_braid("strands=3; 1 -2 1 -2")
        closure = braid_closure(word)
        assert closure.braid == word
        same = parse_pd(
            "PD[" + ",".join("X[{},{},{},{}]".format(*t) for t in closure.crossings) + "]"
        )
        assert same.braid is None
        assert same == closure and closure == same
        assert hash(same) == hash(closure)
        assert len({same, closure}) == 1

    def test_untouched_strands_become_free_circles(self):
        d = braid_closure(parse_braid("strands=4; 1"))
        assert d.crossing_count == 1
        assert d.free_circles == 2

    @pytest.mark.parametrize(
        "text, crossings, free",
        [
            ("strands=3; 1 2 1 2", ((4, 1, 5, 2), (7, 2, 8, 3), (8, 5, 1, 6), (3, 6, 4, 7)), 0),
            ("strands=3; 1 -2", ((4, 1, 1, 2), (2, 4, 3, 3)), 0),
            ("strands=4; 1 -3 1", ((3, 1, 4, 2), (5, 5, 6, 6), (2, 4, 1, 3)), 0),
            ("strands=3; 1 1", ((3, 1, 4, 2), (2, 4, 1, 3)), 1),
        ],
    )
    def test_pinned_labels(self, text, crossings, free):
        assert braid_closure(parse_braid(text)) == Diagram(crossings, free)

    @given(word=signed_words())
    @settings(max_examples=200, deadline=None)
    def test_components_are_label_runs_in_top_strand_order(self, word):
        # the crossings each top strand passes, found by swapping strand
        # names down the word; the strand that ends at position p closes up
        # into top strand p.  Cycles with a crossing, by least top strand,
        # must own the label runs in order.
        strands, letters = word
        at = list(range(strands))
        passes = [[] for _ in range(strands)]
        for t, k in enumerate(letters):
            i = abs(k) - 1
            passes[at[i]].append(t)
            passes[at[i + 1]].append(t)
            at[i], at[i + 1] = at[i + 1], at[i]
        cycles, seen = [], set()
        for start in range(strands):
            if start in seen:
                continue
            strand, passed = start, []
            while strand not in seen:
                seen.add(strand)
                passed += passes[strand]
                strand = at.index(strand)
            cycles.append(passed)
        crossed = [passed for passed in cycles if passed]

        d = braid_closure(BraidWord(strands, tuple(letters)))
        assert d.free_circles == len(cycles) - len(crossed)
        assert len(d.component_cycles) == len(crossed)
        for run, passed in zip(d.component_cycles, crossed):
            assert run == tuple(range(run[0], run[0] + len(run)))
            assert len(run) == len(passed)
            assert {t for t, x in enumerate(d.crossings) if set(x) & set(run)} == set(passed)

    @given(
        strands=st.integers(2, 4),
        letters=st.lists(
            st.tuples(st.integers(1, 3), st.booleans()), min_size=0, max_size=7
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_component_count_is_permutation_cycles(self, strands, letters):
        word = []
        for gen, positive in letters:
            if gen >= strands:
                gen = strands - 1
            word.append(gen if positive else -gen)
        perm = list(range(strands))
        for k in word:
            i = abs(k) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        cycles = 0
        seen = set()
        for i in range(strands):
            if i in seen:
                continue
            cycles += 1
            j = i
            while j not in seen:
                seen.add(j)
                j = perm[j]
        d = braid_closure(BraidWord(strands, tuple(word)))
        assert components(d) == cycles


def shadow_pieces(crossings):
    """Pieces of the shadow by union-find over each crossing's arcs."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b, c, d in crossings:
        for x in (b, c, d):
            rx, ry = find(a), find(x)
            if rx != ry:
                parent[rx] = ry
    return len({find(v) for t in crossings for v in t})


class TestShadowComponents:
    """The Seifert geometry behind ``conway`` reads the piece count that a
    Diagram keeps from _shadow_components; a union-find over each
    crossing's four arcs is the reference."""

    @pytest.mark.parametrize(
        "text",
        ["PD[X[1,1,2,2]]", "PD[X[2,1,1,2]]", TREFOIL_PD[:-1] + ",O[]]", SEVEN4_PD],
    )
    def test_matches_union_find(self, text):
        d = parse_pd(text)
        assert d._shadow_pieces == shadow_pieces(d.crossings)
        assert _shadow_components(_far_ends(d.crossings)) == d._shadow_pieces

    def test_matches_union_find_on_polygon_diagrams(self):
        for d in seeded_polygon_diagrams():
            assert d._shadow_pieces == shadow_pieces(d.crossings), d

    @given(
        strands=st.integers(2, 5),
        letters=st.lists(st.tuples(st.integers(1, 4), st.booleans()), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_union_find_on_braids(self, strands, letters):
        word = tuple(min(g, strands - 1) * (1 if up else -1) for g, up in letters)
        d = braid_closure(BraidWord(strands, word))
        assert d._shadow_pieces == shadow_pieces(d.crossings), d


class TestKinks:
    """A kink (Reidemeister I) changes neither the link nor its invariants."""

    def test_components_invariant(self, stabilized_trefoil, trefoil):
        assert components(stabilized_trefoil) == components(trefoil)

    def test_jones_invariant(self, stabilized_trefoil, trefoil):
        assert jones_V(stabilized_trefoil) == jones_V(trefoil)
