from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslink import (
    BigradedGroups,
    Diagram,
    LinkRecord,
    braid_closure,
    chain_slices,
    cmd_compute,
    cmd_survey,
    components,
    euler_characteristic,
    extreme_gradings,
    format_kh_polynomial,
    format_poly,
    jones_V,
    kh1_rank,
    khovanov_homology,
    parse_braid,
    parse_kh_polynomial,
    parse_pd,
    parse_poly,
    survey_corpus,
    v_to_unnormalized,
)
from poslink.diagram import BraidWord
from poslink.errors import EmptyHomology, HomologyTooLarge, MalformedKhPolynomial
from poslink import contraction, khovanov, laurent, tangle
from poslink.tangle import _deloop, _neck_cut, reduced_complex

from conftest import mirror
from polygon_diagrams import polygon_diagram
from reference import cube_slices, jones_states, per_map_homology

TREFOIL_KH = BigradedGroups(
    {
        (0, 1): (1, ()),
        (0, 3): (1, ()),
        (2, 5): (1, ()),
        (3, 7): (0, (2,)),
        (3, 9): (1, ()),
    }
)

KNOTINFO_12N749_KH = (
    "(1 + t)q^3 + q^5 + (2t^2 + t^3)q^7 + t^4 q^9 + (t^3 + 2t^4 + t^5)q^11"
    " + (t^5 + t^6)q^13 + (t^5 + t^6)q^15 + (t^7 + t^8)q^17 + t^9 q^21"
    " + t^2 q^5 T^2 + t^3 q^9 T^2 + t^4 q^9 T^2 + t^6 q^13 T^2"
    " + t^7 q^15 T^2 + t^9 q^19 T^2"
)


class TestHomology:
    def test_unknot(self, unknot):
        kh = khovanov_homology(unknot)
        assert dict(kh.items()) == {(0, -1): (1, ()), (0, 1): (1, ())}

    def test_trefoil(self, trefoil):
        assert khovanov_homology(trefoil) == TREFOIL_KH

    def test_hopf(self, hopf):
        kh = khovanov_homology(hopf)
        assert dict(kh.items()) == {
            (0, 0): (1, ()),
            (0, 2): (1, ()),
            (2, 4): (1, ()),
            (2, 6): (1, ()),
        }

    def test_torus_link_2_4(self):
        # published integral homology of the positive (2,4) torus link
        from poslink import braid_closure, parse_braid

        d = braid_closure(parse_braid("strands=2; 1 1 1 1"))
        assert dict(khovanov_homology(d).items()) == {
            (0, 2): (1, ()),
            (0, 4): (1, ()),
            (2, 6): (1, ()),
            (3, 8): (0, (2,)),
            (3, 10): (1, ()),
            (4, 10): (1, ()),
            (4, 12): (1, ()),
        }

    def test_mirror_relation(self, trefoil, mirror_trefoil):
        assert khovanov_homology(mirror_trefoil) == khovanov_homology(trefoil).mirror()

    def test_invariance_under_moves(
        self, trefoil, perturbed_trefoil, stabilized_trefoil
    ):
        kh = khovanov_homology(trefoil)
        assert khovanov_homology(perturbed_trefoil) == kh
        assert khovanov_homology(stabilized_trefoil) == kh

    def test_invariance_under_r3(self):
        from poslink import braid_closure, parse_braid

        a = braid_closure(parse_braid("strands=3; 1 2 1"))
        b = braid_closure(parse_braid("strands=3; 2 1 2"))
        assert khovanov_homology(a) == khovanov_homology(b)

    def test_cap(self, monkeypatch, trefoil):
        # the builder's object budget, not the crossing count, refuses:
        # the trefoil's last crossing makes its 6 objects
        empty_tables(monkeypatch)
        monkeypatch.setattr(tangle, "MAX_TANGLE_OBJECTS", 5)
        with pytest.raises(HomologyTooLarge, match="6 tangle objects exceed the budget of 5"):
            khovanov_homology(trefoil)
        monkeypatch.setattr(tangle, "MAX_TANGLE_OBJECTS", 6)
        assert khovanov_homology(trefoil) == TREFOIL_KH

    def test_quantum_parity_matches_components(self, trefoil, hopf, seven4):
        for d in (trefoil, hopf, seven4):
            parity = components(d) % 2
            for (_, j), _ in khovanov_homology(d).items():
                assert j % 2 == parity


# Homology of larger cubes, where pivot order, fill-in and the dense
# torsion remainder all matter: the T^2 classes below survive unit
# elimination.  T(3,5) and (1 2)^5 1 were captured with a dense-matrix
# SNF of the full cube, T(3,7) with the cube built with only crossing 0's
# unit pairs cancelled.
LARGE_CUBE_KH = {
    "strands=3; 1 2 1 2 1 2 1 2 1 2": (  # T(3,5), 10 crossings
        "q^7 + q^9 + t^2 q^11 + t^4 q^13 + (t^3 + t^4)q^15 + (t^5 + t^6)q^17"
        " + t^5 q^19 + t^7 q^21 + t^3 q^13 T^2 + t^7 q^19 T^2"
    ),
    "strands=3; 1 2 1 2 1 2 1 2 1 2 1": (  # (1 2)^5 1, 11 crossings
        "q^8 + q^10 + t^2 q^12 + t^4 q^14 + (t^3 + t^4)q^16 + (t^5 + t^6)q^18"
        " + t^5 q^20 + (t^7 + t^8)q^22 + t^8 q^24 + t^3 q^14 T^2 + t^7 q^20 T^2"
    ),
    "strands=3; 1 2 1 2 1 2 1 2 1 2 1 2 1 2": (  # T(3,7), 14 crossings
        "q^11 + q^13 + t^2 q^15 + t^4 q^17 + (t^3 + t^4)q^19 + (t^5 + t^6)q^21"
        " + (t^5 + t^8)q^23 + (t^7 + t^8)q^25 + t^9 q^27 + t^9 q^29"
        " + t^3 q^17 T^2 + t^7 q^23 T^2"
    ),
}


class TestLargeCubes:
    @pytest.mark.parametrize("word", sorted(LARGE_CUBE_KH))
    def test_pinned_homology(self, word):
        from poslink import braid_closure, parse_braid

        kh = khovanov_homology(braid_closure(parse_braid(word)))
        assert format_kh_polynomial(kh) == LARGE_CUBE_KH[word]
        # the text form writes every torsion class as T^2: check the orders
        assert parse_kh_polynomial(LARGE_CUBE_KH[word]) == kh

    @pytest.mark.parametrize("word", [
        "strands=3; " + "1 2 " * 8,  # T(3,8), 16 crossings
        "strands=3; " + "1 2 " * 9,  # T(3,9), 18 crossings
    ])
    def test_positive_braids_beyond_the_cube(self, word):
        # past the reach of a full cube: chi(Kh) = (q + 1/q) V, and j_lower
        # is the potential, as on every positive diagram
        d = braid_closure(parse_braid(word))
        kh = khovanov_homology(d)
        assert euler_characteristic(kh) == v_to_unnormalized(jones_V(d))
        g = extreme_gradings(kh, d)
        assert g.j_lower == g.j_min_potential


T45 = "strands=4; " + " ".join(["1 2 3"] * 5)
T56 = "strands=5; " + " ".join(["1 2 3 4"] * 6)
# torsion of order other than 2, as printed by compute --kh
ODD_TORSION_KH = {
    T45: (  # T(4,5), 15 crossings: a Z/4
        "q^11 + q^13 + t^2 q^15 + t^4 q^17 + (t^3 + t^4 + t^6)q^19 + (t^5 + t^6)q^21"
        " + (t^5 + t^7 + t^8)q^23 + t^7 q^25 + t^9 q^27 + t^3 q^17 T^2 + t^7 q^21 T^2"
        " + t^7 q^23 T^2 + t^9 q^25 T^4 + t^10 q^27 T^2 + t^10 q^29 T^2"
    ),
    T56: (  # T(5,6), 24 crossings: a Z/3 and two Z/10 = Z/2 + Z/5
        "q^19 + q^21 + t^2 q^23 + t^4 q^25 + (t^3 + t^4 + t^6)q^27 + (t^5 + t^6 + t^8)q^29"
        " + (t^5 + t^7 + 2t^8)q^31 + (t^7 + t^9 + t^10)q^33 + (2t^9 + t^12)q^35"
        " + (2t^11 + t^12)q^37 + t^13 q^39 + (t^12 + t^13)q^41 + t^3 q^25 T^2"
        " + t^7 q^29 T^2 + t^7 q^31 T^2 + t^9 q^33 T^2 + t^10 q^35 T^2 + t^11 q^35 T^10"
        " + t^10 q^37 T^2 + t^12 q^39 T^10 + t^14 q^43 T^3"
    ),
}
ODD_TORSION = {
    T45: {(9, 25): (4,)},
    T56: {(11, 35): (10,), (12, 39): (10,), (14, 43): (3,)},
}


class TestOddTorsion:
    """Positive torus knots carry torsion of orders 3, 4 and 10, which the
    text form writes and reads back.  Two routes check each table: the
    Euler characteristic and the homology of the mirror diagram."""

    @pytest.mark.parametrize("word", [T45, T56])
    def test_pinned_homology(self, word):
        d = braid_closure(parse_braid(word))
        kh = khovanov_homology(d)
        assert format_kh_polynomial(kh) == ODD_TORSION_KH[word]
        assert parse_kh_polynomial(ODD_TORSION_KH[word]) == kh
        odd = {(i, j): t for (i, j), (_, t) in kh.items() if set(t) - {2}}
        assert odd == ODD_TORSION[word]
        assert euler_characteristic(kh) == v_to_unnormalized(jones_V(d))
        assert khovanov_homology(mirror(d)) == kh.mirror()


def has_torsion(kh: BigradedGroups) -> bool:
    return any(torsion for _, (_, torsion) in kh.items())


def assert_no_unit_entry(d: Diagram) -> None:
    _, differential = reduced_complex(d)
    assert all(abs(f[0]) != 1 for row in differential.values() for f in row.values()), d


def random_braid(rng: random.Random, strands: tuple[int, int], letters: int) -> BraidWord:
    """A signed braid word on a random strand count in ``strands`` with at
    most ``letters`` letters."""
    n = rng.randint(*strands)
    word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, letters))]
    return BraidWord(n, word)


MIXED_4_BRAID = "strands=4; 1 -2 3 -1 2 -3 1 2 -3 -2"


class TestCancellation:
    """The reduced complex keeps no +-1 entry, so no unit reaches the Smith
    normal form, and gives the homology of the full cube with every map
    reduced on its own."""

    def test_fixtures(
        self, unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil,
        stabilized_trefoil,
    ):
        corpus = [
            unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil,
            stabilized_trefoil,
            Diagram(trefoil.crossings, 1),
            braid_closure(parse_braid("strands=3; 1 1")),
            braid_closure(parse_braid(MIXED_4_BRAID)),
        ]
        for d in corpus:
            assert_no_unit_entry(d)
            assert khovanov_homology(d) == per_map_homology(d)
        assert has_torsion(khovanov_homology(trefoil))

    def test_polygon_diagrams(self):
        # 160 seeded diagrams of up to 8 crossings: the reference reduces
        # every map in full, which makes 14-crossing cubes too slow here
        with_torsion = 0
        for seed in range(4):
            rng = random.Random(seed)
            for _ in range(40):
                d = polygon_diagram(rng, max_crossings=8)
                assert_no_unit_entry(d)
                kh = khovanov_homology(d)
                assert kh == per_map_homology(d)
                with_torsion += has_torsion(kh)
        assert with_torsion >= 10

    # up to 8 letters: with 10 the per-map reference takes up to 2 s a word
    @given(
        strands=st.integers(2, 5),
        letters=st.lists(st.tuples(st.integers(1, 4), st.booleans()), max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_braids(self, strands, letters):
        word = tuple(min(g, strands - 1) * (1 if up else -1) for g, up in letters)
        d = braid_closure(BraidWord(strands, word))
        assert_no_unit_entry(d)
        assert khovanov_homology(d) == per_map_homology(d)

    def test_with_and_without_saddle_pairs(self, monkeypatch):
        # _saddle_pairs picks the pairs each step cancels as it adds a
        # crossing; without it _cancel_isomorphisms finds every pair in
        # the whole product.  The memos hold each step's pairs, so each
        # build starts from empty tables.
        local = tangle._saddle_pairs
        rng = random.Random(28)
        corpus = [braid_closure(random_braid(rng, (2, 5), 10)) for _ in range(80)]
        corpus += polygon_corpus(28, 40, 9)
        for d in corpus:
            built = []
            for rule in (local, lambda saddle: ()):
                empty_tables(monkeypatch)
                monkeypatch.setattr(tangle, "_saddle_pairs", rule)
                assert_no_unit_entry(d)
                built.append(khovanov_homology(d))
            assert built[0] == built[1], d

    def test_saddle_pairs_keep_their_block_diagonal(self):
        # pieces as (A-label, B-label, (mask, coefficient) terms)
        identity, dotted = ((0, 1),), ((1, 1),)
        assert tangle._saddle_pairs([(0, 0, identity), (1, 1, identity)]) == ((0, 0, 1), (1, 1, 1))
        # 1 -> 0 joins the labels of two identity pieces, so the second
        # cannot go with the first at once
        assert tangle._saddle_pairs([(0, 0, identity), (1, 0, dotted), (1, 1, identity)]) == (
            (0, 0, 1),
        )
        assert tangle._saddle_pairs([(0, 0, ((0, -1),)), (0, 1, identity)]) == ((0, 0, -1),)
        assert tangle._saddle_pairs([(0, 0, ((0, 2),)), (0, 1, dotted)]) == ()

    def test_few_pairs_are_left_to_the_search(self, monkeypatch):
        empty_tables(monkeypatch)
        cancel = tangle._cancel_isomorphisms
        left = Counter()

        def counting(objects, out, matchings):
            before = len(objects)
            cancel(objects, out, matchings)
            left["pairs"] += (before - len(objects)) // 2

        monkeypatch.setattr(tangle, "_cancel_isomorphisms", counting)
        assert cmd_survey(3, 8).all_ok
        # of the 1,114 pairs the survey's builds cancel
        assert left["pairs"] == 113
        left.clear()
        reduced_complex(braid_closure(parse_braid("strands=4; " + "1 -2 3 " * 5)))
        assert left["pairs"] == 0


def euler_by_grading(slices) -> dict[int, int]:
    return {
        j: sum(-n if i & 1 else n for i, n in sl.generator_counts.items())
        for j, sl in slices.items()
    }


@pytest.fixture
def reduction_corpus(trefoil, hopf, seven4, mirror_trefoil, stabilized_trefoil):
    """Diagrams with crossings: free circles, a split closure, kinks and a
    mixed braid whose corrections cancel entries."""
    return [
        trefoil, hopf, seven4, mirror_trefoil, stabilized_trefoil,
        Diagram(trefoil.crossings, 1),
        braid_closure(parse_braid("strands=3; 1 1")),
        braid_closure(parse_braid("strands=2; 1")),
        braid_closure(parse_braid(MIXED_4_BRAID)),
        parse_pd("PD[X[1,1,2,2]]"),
    ]


# two disks glued along two intervals: an annulus with circles 0 and 1,
# or a torus when no boundary circle is listed
ANNULUS = [(0, 1), (1, 0)]
# one disk glued to itself twice: a pair of pants, its three circles on
# disk 0
PANTS = [(0, 0), (0, 0)]


class TestCobordisms:
    """The dotted cobordism rules chain_slices works by: _neck_cut writes a
    glued surface as one disk per boundary circle, dotted or not, and
    _deloop reads each loop's label (bit set: x) off its disk's dot."""

    def test_sphere_and_dotted_sphere(self):
        # a cap on a source loop: labelled 1 the loop is a cup, which the
        # cap closes into a sphere (0); labelled x it is a dotted cup, which
        # closes into a dotted sphere (1)
        assert _deloop(_neck_cut(1, 0, [], [0]), 0, 1) == {(1, 0): {0: 1}}
        # a dotted cap: a dotted sphere on the cup, two dots on the dotted cup
        assert _deloop(_neck_cut(1, 1, [], [0]), 0, 1) == {(0, 0): {0: 1}}

    def test_closed_surfaces(self):
        assert _neck_cut(2, 0, ANNULUS, []) == [(0, 2)]  # torus = 2
        assert _neck_cut(2, 0b10, ANNULUS, []) == []  # dotted torus
        assert _neck_cut(1, 0, PANTS + [(0, 0)], []) == []  # genus 2
        # a handle on a disk is twice the dotted disk
        assert _neck_cut(1, 0, PANTS, [0]) == [(1, 2)]

    def test_neck_cutting(self):
        # a cylinder is the sum of its two one-sided dottings; a dotted one
        # has both sides dotted
        assert sorted(_neck_cut(2, 0, ANNULUS, [0, 1])) == [(0b01, 1), (0b10, 1)]
        assert _neck_cut(2, 0b01, ANNULUS, [0, 1]) == [(0b11, 1)]
        assert sorted(_neck_cut(1, 0, PANTS, [0, 0, 0])) == [(0b011, 1), (0b101, 1), (0b110, 1)]

    def test_cylinder_is_the_identity_on_a_delooped_loop(self):
        assert _deloop(_neck_cut(2, 0, ANNULUS, [0, 1]), 0, 1) == {
            (0, 0): {0: 1},
            (1, 1): {0: 1},
        }
        # a dotted cylinder multiplies by x: 1 -> x, x -> 0
        assert _deloop(_neck_cut(2, 1, ANNULUS, [0, 1]), 0, 1) == {(0, 1): {0: 1}}

    def test_pants_are_the_frobenius_algebra(self):
        # merge: 1.1 -> 1, 1.x -> x, x.1 -> x, x.x -> 0
        assert _deloop(_neck_cut(1, 0, PANTS, [0, 0, 0]), 0, 2) == {
            (0b00, 0): {0: 1},
            (0b01, 1): {0: 1},
            (0b10, 1): {0: 1},
        }
        # split: 1 -> 1.x + x.1, x -> x.x
        assert _deloop(_neck_cut(1, 0, PANTS, [0, 0, 0]), 0, 1) == {
            (0, 0b10): {0: 1},
            (0, 0b01): {0: 1},
            (1, 0b11): {0: 1},
        }

    def test_open_ends_keep_their_masks(self):
        # a strip between two matchings is the identity, and the bits below
        # the loops are the mask over the cycles of the open ends
        assert _deloop(_neck_cut(1, 0, [], [0]), 1, 0) == {(0, 0): {0: 1}}
        # a strip with a cup on it is the strip, with a dotted cup the
        # dotted strip
        assert _deloop(_neck_cut(2, 0, ANNULUS, [0, 1]), 1, 1) == {
            (0, 0): {0: 1},
            (1, 0): {1: 1},
        }


def times_free_circles(euler: dict[int, int], f: int) -> dict[int, int]:
    """A per-grading Euler characteristic times (q + q^-1)^f."""
    for _ in range(f):
        out: dict[int, int] = {}
        for j, n in euler.items():
            for k in (j - 1, j + 1):
                out[k] = out.get(k, 0) + n
        euler = out
    return {j: n for j, n in euler.items() if n}


class TestReducedComplex:
    """chain_slices returns a complex of the crossings alone with the
    cube's alternating sum of generator counts per quantum grading, once
    each free circle multiplies it by q + q^-1."""

    def test_euler_characteristic_per_grading(self, unknot, reduction_corpus):
        for d in (unknot, parse_pd("PD[O[],O[]]"), *reduction_corpus):
            reduced = times_free_circles(euler_by_grading(chain_slices(d)), d.free_circles)
            full = {j: n for j, n in euler_by_grading(cube_slices(d)).items() if n}
            assert reduced == full


def polygon_corpus(seed: int, count: int, max_crossings: int) -> list[Diagram]:
    rng = random.Random(seed)
    return [polygon_diagram(rng, max_crossings=max_crossings) for _ in range(count)]


def generator_count(d: Diagram) -> int:
    return sum(sum(sl.generator_counts.values()) for sl in chain_slices(d).values())


def jones_l1(d: Diagram) -> int:
    """The sum of the absolute coefficients of V of the crossed part."""
    return sum(abs(c) for _, c in jones_V(Diagram(d.crossings, 0)).terms())


class TestFreeCircles:
    """Free circles are not built: khovanov_homology tensors each in as
    Z at q^-1 and q (Kh(L + O) = Kh(L) (x) Z{q^-1, q}), where the full cube
    of the reference builds them as circles of every state."""

    def test_kunneth(
        self, unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil,
        stabilized_trefoil,
    ):
        fixtures = [
            unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil,
            stabilized_trefoil,
        ]
        for d in fixtures + polygon_corpus(18, 40, 7):
            for f in (1, 2):
                e = Diagram(d.crossings, f)
                assert khovanov_homology(e) == per_map_homology(e), (d, f)

    def test_torsion_factor_limit(self, monkeypatch, trefoil):
        # the trefoil's one Z/2 doubles with each free circle: 2^10 factors
        # fit a limit of 1,024, and 2^11 do not
        monkeypatch.setattr(khovanov, "MAX_TORSION_FACTORS", 1024)
        kh = khovanov_homology(Diagram(trefoil.crossings, 10))
        # Z{q^-1, q}^(x10) puts C(10, k) copies of each group at j - 10 + 2k
        assert kh == BigradedGroups(
            ((i, j - 10 + 2 * k), (rank * comb(10, k), torsion * comb(10, k)))
            for (i, j), (rank, torsion) in TREFOIL_KH.items()
            for k in range(11)
        )
        assert sum(len(t) for _, (_, t) in kh.items()) == 1024
        with pytest.raises(HomologyTooLarge, match="1 x 2\\^11 torsion factors"):
            khovanov_homology(Diagram(trefoil.crossings, 11))
        # a record refused by either limit gets one flag and keeps the rest
        for word, budget, skipped in [
            ("strands=13; 1 1 1", 100_000, "1 x 2^11 torsion factors"),
            ("strands=2; 1 1 1", 2, "3 tangle objects exceed the budget of 2"),
        ]:
            empty_tables(monkeypatch)  # or the trefoil's steps come from the chain
            monkeypatch.setattr(tangle, "MAX_TANGLE_OBJECTS", budget)
            record = LinkRecord("t", braid=parse_braid(word))
            (result,) = cmd_compute([record])
            assert result.error is None
            (flag,) = result.flags
            assert flag.startswith(f"kh: skipped: {skipped}")
            assert result.invariants["jones"] == format_poly(jones_V(record.diagram()), "t")
            assert "kh" not in result.invariants


class TestGeneratorFloor:
    """Over Z, N generators give dim Kh(L; F_2) <= N, and Shumakovitch's
    Kh(L; F_2) = Khr(L; F_2) (x) F_2[x]/x^2 gives dim Kh(L; F_2) >= 2 |V|_1:
    so the complex of the crossings keeps at least 2 |V|_1 generators."""

    def test_polygon_diagrams(self):
        for d in polygon_corpus(19, 80, 9):
            assert generator_count(d) >= 2 * jones_l1(d), d

    @given(
        strands=st.integers(2, 5),
        letters=st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_mixed_braids(self, strands, letters):
        word = tuple(min(g, strands - 1) * (1 if up else -1) for g, up in letters)
        d = braid_closure(BraidWord(strands, word))
        assert generator_count(d) >= 2 * jones_l1(d), word

    @pytest.mark.parametrize(
        "word, floor",
        [
            ("strands=4; " + "1 -2 3 " * 4, 768),
            ("strands=4; " + "1 -2 3 " * 5, 3_610),
            ("strands=5; " + "1 -2 3 -4 " * 4, 7_018),
        ],
    )
    def test_alternating_braids_reach_the_floor(self, word, floor):
        # cancelling each crossing's saddle pairs as it joins leaves no
        # generator above the floor; cancelling the whole tensor product
        # in row order left 772 on the first, and the last two took 27 s
        # and 49 s
        d = braid_closure(parse_braid(word))
        assert 2 * jones_l1(d) == floor
        assert generator_count(d) == floor


def relabel(d: Diagram, rng: random.Random) -> Diagram:
    """The same diagram with its arc labels permuted at random."""
    arcs = range(1, d.arc_count + 1)
    ren = dict(zip(arcs, rng.sample(arcs, len(arcs))))
    return Diagram(tuple(tuple(ren[a] for a in t) for t in d.crossings), d.free_circles)


SRC = Path(__file__).resolve().parent.parent / "src"
FRESH_CALL = (
    "import sys\n"
    "from poslink import braid_closure, parse_braid\n"
    "from poslink.tangle import reduced_complex\n"
    "print(repr(reduced_complex(braid_closure(parse_braid(sys.argv[1])))))\n"
)


def fresh_reduced_complex(word: str) -> str:
    """repr of reduced_complex on a braid closure, in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CALL, word],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def count_calls(monkeypatch, name: str = "_neck_cut") -> Counter:
    """Count calls of the tangle function ``name`` under the key "calls"."""
    count: Counter = Counter()
    fn = getattr(tangle, name)

    def counting(*args):
        count["calls"] += 1
        return fn(*args)

    monkeypatch.setattr(tangle, name, counting)
    return count


def empty_tables(monkeypatch) -> None:
    """Give the tangle builder fresh, empty process-wide state: the
    label-free tables, and the matching interner with the memos and the
    chains that hang on it."""
    monkeypatch.setattr(tangle, "_SHAPES", contraction._Interned())
    monkeypatch.setattr(tangle, "_CUTS", {})
    monkeypatch.setattr(contraction, "_MATCHINGS", contraction._Interned())


def fresh_build(d: Diagram) -> tuple:
    """reduced_complex(d) from an empty matching interner, whose memos and
    chains start empty with it; the engine's own interner is put back
    afterwards."""
    saved = contraction._MATCHINGS
    contraction._MATCHINGS = contraction._Interned()
    try:
        return reduced_complex(d)
    finally:
        contraction._MATCHINGS = saved


def builder_chain() -> tuple:
    """The tangle builder's chain: (crossing, (complex, ends)) per step."""
    return contraction._MATCHINGS.chains.get(tangle._add_crossing, ())


class TestMemos:
    """reduced_complex computes each neck cut once per label-free shape of
    the glued surface.  From one call to the next the builder keeps the
    label-free tables (the shapes and their delooped neck cuts), the
    interned matchings and the chain of the last diagram built, and no
    result depends on what they hold."""

    def test_arc_labels_do_not_matter(self, unknot, perturbed_trefoil, reduction_corpus):
        rng = random.Random(0)
        polygons = random.Random(15)
        corpus = [unknot, perturbed_trefoil, *reduction_corpus]
        corpus += [polygon_diagram(polygons, max_crossings=10) for _ in range(50)]
        for d in corpus:
            e = relabel(d, rng)
            assert khovanov_homology(e) == khovanov_homology(d), d
            assert Counter(reduced_complex(e)[0].values()) == Counter(reduced_complex(d)[0].values()), d

    def test_no_state_between_calls(self):
        # the survey fills the process-wide tables first
        assert cmd_survey(3, 8).all_ok
        words = ["strands=3; " + "1 2 " * 5, MIXED_4_BRAID]
        d1, d2 = (braid_closure(parse_braid(w)) for w in words)
        runs = [repr(reduced_complex(d)) for d in (d1, d2, d1)]
        fresh = [fresh_reduced_complex(w) for w in words]
        assert runs == [fresh[0], fresh[1], fresh[0]]

    def test_neck_cuts_per_shape(self, monkeypatch):
        empty_tables(monkeypatch)
        count = count_calls(monkeypatch)
        reduced_complex(braid_closure(parse_braid("strands=3; " + "1 2 " * 9)))
        # 865 when the memos were keyed by arc-labelled matchings
        assert 0 < count["calls"] <= 250

    def test_relabelled_copy_reuses_every_cut(self, monkeypatch):
        empty_tables(monkeypatch)
        d = braid_closure(parse_braid(MIXED_4_BRAID))
        e = relabel(d, random.Random(4))
        assert e.crossings != d.crossings and e.contraction_order == d.contraction_order
        first = reduced_complex(d)
        # without the chain, which would hand e every step of d
        monkeypatch.delitem(contraction._MATCHINGS.chains, tangle._add_crossing)
        count = count_calls(monkeypatch)
        assert reduced_complex(e) == first
        assert count["calls"] == 0

    def test_survey_cuts_once_per_shape(self, monkeypatch):
        empty_tables(monkeypatch)
        count = count_calls(monkeypatch)
        assert cmd_survey(3, 8).all_ok
        # 2,655 when the tables lasted one call, 425 before arcs were
        # renumbered in order of first use
        assert count["calls"] <= 250
        assert count["calls"] == len(tangle._CUTS)

    def test_second_survey_adds_nothing(self, monkeypatch):
        # every memo names matchings and crossings by position, so a
        # second pass over the same records finds every entry it needs
        empty_tables(monkeypatch)
        # the bracket smooths its matchings through the memo that the
        # builder's steps read too
        jones_V(braid_closure(parse_braid(MIXED_4_BRAID)))
        assert table_sizes()["smoothings"] and not table_sizes()["steps"]
        assert cmd_survey(3, 8).all_ok
        sizes = table_sizes()
        smoothings = Counter()
        smooth = contraction._smoothings

        def counting(matchings, m, local):
            smoothings["calls"] += 1
            smoothings["new"] += (m, local) not in matchings.smoothings
            return smooth(matchings, m, local)

        monkeypatch.setattr(laurent, "_smoothings", counting)
        monkeypatch.setattr(tangle, "_smoothings", counting)
        assert cmd_survey(3, 8).all_ok
        # neither the bracket nor the builder smooths a matching anew
        assert smoothings["calls"] > 0 and smoothings["new"] == 0
        assert table_sizes() == sizes

    def test_empty_tables_reset_the_memos(self, monkeypatch):
        reduced_complex(braid_closure(parse_braid(MIXED_4_BRAID)))
        assert all(table_sizes().values())
        empty_tables(monkeypatch)
        assert not any(table_sizes().values())
        d = braid_closure(parse_braid("strands=3; 1 -2 1"))
        fresh_build(d)
        names = ("matchings", "smoothings", "chains", "steps", "glued")
        assert not any(table_sizes()[name] for name in names)


def table_sizes() -> dict[str, int]:
    """The entry count of every process-wide table of the contraction
    engine and the tangle builder."""
    m = contraction._MATCHINGS
    names = ("smoothings", "chains", "cycles", "composed", "glued", "steps")
    return {
        "shapes": len(tangle._SHAPES),
        "cuts": len(tangle._CUTS),
        "matchings": len(m),
        **{name: len(getattr(m, name)) for name in names},
    }


class TestChain:
    """reduced_complex takes from the chain of the last diagram built
    every step that its own renumbered crossings share with that diagram,
    so a run of diagrams in sorted order builds each prefix once, and no
    result depends on what the chain holds."""

    def test_survey_builds_each_prefix_once(self, monkeypatch):
        empty_tables(monkeypatch)
        count = count_calls(monkeypatch, "_add_crossing")
        assert cmd_survey(3, 8).all_ok
        # the distinct prefixes of the 59 records' crossings; 361 steps
        # when each record built from the empty tangle
        assert count["calls"] == 135
        corpus = [d for _, d in survey_corpus(3, 8)]
        count.clear()
        reduced_complex(max(corpus, key=lambda d: d.contraction_crossings))
        assert count["calls"] == 0
        # the chain holds the last diagram alone, which shares no step
        # with the first one in sorted order
        assert cmd_survey(3, 8).all_ok
        assert count["calls"] == 135

    @given(
        strands=st.integers(2, 4),
        words=st.lists(
            st.tuples(
                st.integers(0, 10),
                st.lists(st.tuples(st.integers(1, 3), st.booleans()), max_size=10),
            ),
            min_size=2,
            max_size=4,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_chain_builds_what_a_fresh_build_does(self, strands, words):
        # each word keeps a prefix of the one before, so builds share steps
        letters: tuple[int, ...] = ()
        for keep, tail in words:
            signed = tuple(min(g, strands - 1) * (1 if up else -1) for g, up in tail)
            letters = (letters[:keep] + signed)[:10]
            d = braid_closure(BraidWord(strands, letters))
            assert repr(reduced_complex(d)) == repr(fresh_build(d)), letters

    def test_failed_build_leaves_finished_steps(self, monkeypatch):
        empty_tables(monkeypatch)
        cancel = tangle._cancel_isomorphisms
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third crossing")
            cancel(*args)

        monkeypatch.setattr(tangle, "_cancel_isomorphisms", failing)
        d = braid_closure(parse_braid(MIXED_4_BRAID))
        with pytest.raises(RuntimeError, match="third crossing"):
            reduced_complex(d)
        assert len(builder_chain()) == 2
        monkeypatch.setattr(tangle, "_cancel_isomorphisms", cancel)
        words = [MIXED_4_BRAID, "strands=4; 1 -2 3 -1 -2", "strands=4; 1 -2", MIXED_4_BRAID]
        for w in words:
            e = braid_closure(parse_braid(w))
            assert repr(reduced_complex(e)) == repr(fresh_build(e)), w
        # the budget refuses the sixth crossing, which makes 10 objects
        # (2, 4, 7, 8, 6 before it), before any entry: the chain keeps
        # the five steps before it, and builds on from them
        empty_tables(monkeypatch)
        monkeypatch.setattr(tangle, "MAX_TANGLE_OBJECTS", 9)
        with pytest.raises(HomologyTooLarge, match="10 tangle objects exceed the budget of 9"):
            reduced_complex(d)
        assert len(builder_chain()) == 5
        assert [c for c, _ in builder_chain()] == list(d.contraction_crossings[:5])
        monkeypatch.setattr(tangle, "MAX_TANGLE_OBJECTS", 10)
        for w in words:
            e = braid_closure(parse_braid(w))
            assert repr(reduced_complex(e)) == repr(fresh_build(e)), w

    def test_new_matching_table_starts_with_no_chain(self, monkeypatch):
        # both chains hang on the matching interner, so replacing it alone
        # cannot leave a chain whose states name ids of the old table
        words = [MIXED_4_BRAID, "strands=4; 1 -2 3 -1 -2", "strands=4; 1 -2 3 -1 2 2"]
        corpus = [braid_closure(parse_braid(w)) for w in words]
        empty_tables(monkeypatch)
        fresh = [(jones_V(d), repr(fresh_build(d)), khovanov_homology(d)) for d in corpus]
        # the old table numbers the matchings in another order than a
        # new one does, and its chains end at the first diagram
        for d in [*polygon_corpus(36, 10, 8), corpus[0]]:
            jones_V(d)
            khovanov_homology(d)
        monkeypatch.setattr(contraction, "_MATCHINGS", contraction._Interned())
        for d, (v, complex_, kh) in zip(corpus, fresh):
            assert jones_V(d) == v == jones_states(d)
            assert repr(reduced_complex(d)) == complex_
            assert khovanov_homology(d) == kh == per_map_homology(d)


class TestChainComplex:
    """The reduced complex is a chain complex of the declared shapes."""

    def test_boundary_squares_to_zero(
        self, trefoil, hopf, seven4, mirror_trefoil, perturbed_trefoil
    ):
        # free circles: a split closure and a trefoil beside an O[]
        extra = [
            braid_closure(parse_braid("strands=3; 1 1")),
            Diagram(trefoil.crossings, 1),
            braid_closure(parse_braid(MIXED_4_BRAID)),
        ]
        assert [d.free_circles for d in extra] == [1, 1, 0]
        for d in (trefoil, hopf, seven4, mirror_trefoil, perturbed_trefoil, *extra):
            for j, sl in chain_slices(d).items():
                for i, m in sl.boundaries.items():
                    nxt = sl.boundaries.get(i + 1)
                    if nxt is None:
                        continue
                    # every entry of d^(i+1) o d^i, composed row by row
                    for r, row in enumerate(nxt):
                        composed = {}
                        for k, a in row.items():
                            for c, b in m[k].items():
                                composed[c] = composed.get(c, 0) + a * b
                        for c in range(sl.generator_counts[i]):
                            assert composed.get(c, 0) == 0, (
                                f"d^2 != 0 at j={j}, i={i}, row {r}, column {c}"
                            )

    def test_every_boundary_map_holds_an_entry(self, reduction_corpus):
        # a degree pair whose map would be zero gets no map: the homology
        # reads it as rank 0 and still matches the full cube's
        skipped = 0
        for d in (*reduction_corpus, braid_closure(parse_braid("strands=3; " + "1 2 " * 4))):
            for sl in chain_slices(d).values():
                for i, m in sl.boundaries.items():
                    assert any(m), f"map {i} at j={sl.quantum_grading} has no entry"
                counts = sl.generator_counts
                skipped += sum(1 for i in counts if i + 1 in counts and i not in sl.boundaries)
            assert khovanov_homology(d) == per_map_homology(d)
        assert skipped > 0

    def test_generator_counts_match_matrix_shapes(self, trefoil):
        # the mixed braid's corrections cancel entries: none may stay as 0
        for d in (trefoil, braid_closure(parse_braid(MIXED_4_BRAID))):
            for sl in chain_slices(d).values():
                for i, m in sl.boundaries.items():
                    assert len(m) == sl.generator_counts.get(i + 1, 0)
                    for row in m:
                        assert all(0 <= c < sl.generator_counts[i] for c in row)
                        assert all(row.values())


class TestEulerCharacteristic:
    def test_matches_unnormalized_jones(
        self, unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil
    ):
        for d in (unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil):
            kh = khovanov_homology(d)
            assert euler_characteristic(kh) == v_to_unnormalized(jones_V(d))

    def test_unknot_value(self, unknot):
        kh = khovanov_homology(unknot)
        assert euler_characteristic(kh) == parse_poly("q^-1 + q", "q")


class TestExtremeGradings:
    def test_trefoil(self, trefoil):
        g = extreme_gradings(khovanov_homology(trefoil), trefoil)
        assert (g.j_lower, g.j_upper) == (1, 9)
        assert (g.j_min_potential, g.j_max_potential) == (1, 9)

    def test_unknot(self, unknot):
        g = extreme_gradings(khovanov_homology(unknot), unknot)
        assert (g.j_lower, g.j_upper, g.j_min_potential, g.j_max_potential) == (
            -1, 1, -1, 1,
        )

    def test_mirror_trefoil(self, mirror_trefoil):
        g = extreme_gradings(khovanov_homology(mirror_trefoil), mirror_trefoil)
        assert (g.j_lower, g.j_upper) == (-9, -1)
        assert (g.j_min_potential, g.j_max_potential) == (-9, -1)

    def test_sandwich_on_nonextremal_diagram(self, perturbed_trefoil):
        g = extreme_gradings(khovanov_homology(perturbed_trefoil), perturbed_trefoil)
        assert g.j_min_potential <= g.j_lower <= g.j_upper <= g.j_max_potential

    def test_positive_diagram_potentials(self, trefoil, seven4):
        # all-positive diagrams: lower potential is attained and the upper
        # potential simplifies to 2c + |s_B|
        from poslink import a_state_circles, b_state_circles

        for d in (trefoil, seven4):
            g = extreme_gradings(khovanov_homology(d), d)
            c = d.crossing_count
            assert g.j_lower == g.j_min_potential == c - a_state_circles(d)
            assert g.j_max_potential == 2 * c + b_state_circles(d)

    def test_empty_rejected(self, unknot):
        with pytest.raises(EmptyHomology):
            extreme_gradings(BigradedGroups({}), unknot)


class TestKh1Rank:
    def test_values(self, unknot, trefoil, seven4):
        assert kh1_rank(khovanov_homology(unknot)) == 0
        assert kh1_rank(khovanov_homology(trefoil)) == 0
        assert kh1_rank(khovanov_homology(seven4)) == 2


class TestTextForm:
    def test_two_term_parse(self):
        kh = parse_kh_polynomial("(1+t)q^3")
        assert dict(kh.items()) == {(0, 3): (1, ()), (1, 3): (1, ())}

    def test_torsion_term(self):
        kh = parse_kh_polynomial("t^2 q^5 T^2")
        assert dict(kh.items()) == {(2, 5): (0, (2,))}

    def test_knotinfo_12n749(self):
        kh = parse_kh_polynomial(KNOTINFO_12N749_KH)
        assert kh.j_range() == (3, 21)
        assert kh1_rank(kh) == 1
        assert kh.rank(9, 21) == 1
        assert kh.torsion(9, 19) == (2,)
        # internal consistency: the Euler characteristic must divide down
        # to the knot's Jones polynomial
        from poslink import unnormalized_to_v

        v = parse_poly("t^3 + t^5 - t^6 + t^7 - t^8 + t^9 - t^10")
        assert unnormalized_to_v(euler_characteristic(kh)) == v

    def test_braced_exponents(self):
        assert parse_kh_polynomial("t^{2} q^{5} T^{2}") == parse_kh_polynomial(
            "t^2 q^5 T^2"
        )

    def test_bare_q_powers(self):
        kh = parse_kh_polynomial("q^-1 + q")
        assert dict(kh.items()) == {(0, -1): (1, ()), (0, 1): (1, ())}

    @pytest.mark.parametrize("mult", [10**19, 10**9])
    def test_oversized_torsion_multiplicity_is_malformed(self, mult):
        # 10^19 factors once ended a batch with an OverflowError, and 10^9
        # would have been a list of a billion orders
        with pytest.raises(MalformedKhPolynomial, match="torsion factors"):
            parse_kh_polynomial(f"{mult} t^3 q^7 T^2")

    def test_torsion_ceiling_counts_the_whole_table(self, monkeypatch):
        from poslink import khovanov

        monkeypatch.setattr(khovanov, "MAX_TORSION_FACTORS", 4)
        assert parse_kh_polynomial("4 q T^2").torsion(0, 1) == (2, 2, 2, 2)
        assert parse_kh_polynomial("2 q T^2 + 2 t q^3 T^3").torsion(1, 3) == (3, 3)
        for bad in ("5 q T^2", "3 q T^2 + 2 t q^3 T^3", "(2 + 3t)q T^2"):
            with pytest.raises(MalformedKhPolynomial, match="more than 4 torsion factors"):
                parse_kh_polynomial(bad)
        # a free rank is one number whatever its size
        assert parse_kh_polynomial(f"{10**19} q + 4 q T^2").rank(0, 1) == 10**19

    def test_unsupported_torsion(self):
        # every order k >= 2 reads back; a bare T or k < 2 names no group
        assert parse_kh_polynomial("t^2 q^5 T^3") == BigradedGroups({(2, 5): (0, (3,))})
        for bad in ("t^2 q^5 T", "t^2 q^5 T^1", "t^2 q^5 T^0", "t^2 q^5 T^-2"):
            with pytest.raises(MalformedKhPolynomial):
                parse_kh_polynomial(bad)

    def test_malformed(self):
        for bad in (
            "", "wibble", "q^2 + q^3", "t^2", "(1+t", "q - 2q",
            # text between a group and its q, once read as (1 + t^2)q^3
            "(1 + t^2)2q^3", "(1 + t^2)t q^3", "(2t^2 + t^3)x q^3",
            # unbalanced or mismatched exponent brackets, the empty group
            "q^3)", "q^(3]", "(t^2/2 + q^3)", "()q^5",
            # runs of signs, a half-integer grading, the t-part's own errors
            "- + q^3", "q^3 -+ q", "q^(4/2)", "t^(1/2) q^3", "(z)q",
        ):
            with pytest.raises(MalformedKhPolynomial):
                parse_kh_polynomial(bad)

    def test_long_space_runs_are_rejected_in_linear_time(self):
        # a term pattern whose spaces split several ways backtracks in
        # about n^4 steps here: minutes, where one pass takes milliseconds
        start = time.perf_counter()
        for head in ("2", "q +", "(1)", "t^"):
            with pytest.raises(MalformedKhPolynomial):
                parse_kh_polynomial(head + " " * 20000 + "x")
        assert time.perf_counter() - start < 5

    def test_accepts_what_the_grammar_allows(self):
        assert parse_kh_polynomial("(1 + t^(2))*q^3 + 2 * t^{-1} * q^[5] + *q") == (
            parse_kh_polynomial("(1 + t^2)q^3 + 2t^-1 q^5 + q")
        )
        assert parse_kh_polynomial("t^2/2 q + 0q^3 + (0)q") == parse_kh_polynomial("t q")

    @given(
        st.dictionaries(
            st.tuples(st.integers(-6, 6), st.integers(-9, 9)),
            st.tuples(st.integers(0, 3), st.lists(st.integers(2, 12), max_size=4)),
            max_size=12,
        ),
        st.integers(0, 1),
    )
    @settings(max_examples=150)
    def test_roundtrip_random_groups(self, cells, parity):
        kh = BigradedGroups(
            {(i, 2 * j + parity): group for (i, j), group in cells.items()}
        )
        assert parse_kh_polynomial(format_kh_polynomial(kh)) == kh

    def test_roundtrip_computed(self, trefoil, seven4, hopf, mirror_trefoil):
        for d in (trefoil, seven4, hopf, mirror_trefoil):
            kh = khovanov_homology(d)
            assert parse_kh_polynomial(format_kh_polynomial(kh)) == kh

    def test_roundtrip_canonical_text(self):
        texts = [
            "q + q^3 + t^2 q^5 + t^3 q^9 + t^3 q^7 T^2",
            "q^0 + q^2 + t^2 q^4 + t^2 q^6",
            "(1 + t)q^3 + t^9 q^21",
            "0",
        ]
        for text in texts:
            assert format_kh_polynomial(parse_kh_polynomial(text)) == text

    def test_negative_gradings(self):
        kh = parse_kh_polynomial("t^-3 q^-9 + 2t^-2 q^-5 T^2")
        assert kh.rank(-3, -9) == 1
        assert kh.torsion(-2, -5) == (2, 2)
        assert format_kh_polynomial(kh) == "t^-3 q^-9 + 2t^-2 q^-5 T^2"

    def test_each_torsion_order_is_its_own_term(self):
        # Z/3 at (2, 5), Z/2 + Z/4 at (3, 7): once all printed as T^2, which
        # read back as Z/2 and Z/2 + Z/2
        kh = BigradedGroups({(2, 5): (1, (3,)), (3, 7): (0, (2, 4))})
        text = format_kh_polynomial(kh)
        assert text == "t^2 q^5 + t^2 q^5 T^3 + t^3 q^7 T^2 + t^3 q^7 T^4"
        assert parse_kh_polynomial(text) == kh
        # equality is isomorphism at each (i, j): groups are stored by
        # their invariant factors, and groups given at one (i, j) are summed
        def at(*orders, rank=0):
            return BigradedGroups({(3, 7): (rank, orders)})

        assert at(10) == at(2, 5) == parse_kh_polynomial("t^3 q^7 T^2 + t^3 q^7 T^5")
        assert format_kh_polynomial(at(2, 5)) == "t^3 q^7 T^10"
        assert at(3, 10) == at(30) == at(2, 3, 5) and at(3, 10).torsion(3, 7) == (30,)
        assert at(2, 2) != at(4) and at(2, 2).torsion(3, 7) == (2, 2)
        assert at(6, 4) == at(2, 12)
        two_copies = BigradedGroups([((0, 1), (1, ())), ((0, 1), (1, (2,))), ((0, 1), (0, (3,)))])
        assert two_copies.rank(0, 1) == 2 and two_copies.torsion(0, 1) == (6,)
