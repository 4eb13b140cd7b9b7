from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslink import (
    BigradedGroups,
    Diagram,
    braid_closure,
    chain_slices,
    components,
    euler_characteristic,
    extreme_gradings,
    format_kh_polynomial,
    jones_V,
    kh1_rank,
    khovanov_homology,
    parse_braid,
    parse_kh_polynomial,
    parse_pd,
    parse_poly,
    v_to_unnormalized,
)
from poslink.diagram import BraidWord
from poslink.errors import (
    CrossingCapExceeded,
    EmptyHomology,
    MalformedKhPolynomial,
    UnsupportedTorsionExponent,
)
from poslink.tangle import _deloop, _neck_cut, reduced_complex

from polygon_diagrams import polygon_diagram
from reference import cube_slices, per_map_homology

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

    def test_cap(self, trefoil):
        with pytest.raises(CrossingCapExceeded):
            khovanov_homology(trefoil, cap=2)

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
        kh = khovanov_homology(d, cap=18)
        assert euler_characteristic(kh) == v_to_unnormalized(jones_V(d))
        g = extreme_gradings(kh, d)
        assert g.j_lower == g.j_min_potential


def has_torsion(kh: BigradedGroups) -> bool:
    return any(torsion for _, (_, torsion) in kh.items())


def assert_no_unit_entry(d: Diagram) -> None:
    _, differential = reduced_complex(d)
    assert all(abs(v) != 1 for row in differential.values() for v in row.values()), d


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


class TestReducedComplex:
    """chain_slices returns a complex with the cube's alternating sum of
    generator counts per quantum grading."""

    def test_euler_characteristic_per_grading(self, unknot, reduction_corpus):
        for d in (unknot, parse_pd("PD[O[],O[]]"), *reduction_corpus):
            reduced = {j: n for j, n in euler_by_grading(chain_slices(d)).items() if n}
            full = {j: n for j, n in euler_by_grading(cube_slices(d)).items() if n}
            assert reduced == full


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

    def test_unsupported_torsion(self):
        with pytest.raises(UnsupportedTorsionExponent):
            parse_kh_polynomial("t^2 q^5 T^3")
        with pytest.raises(UnsupportedTorsionExponent):
            parse_kh_polynomial("t^2 q^5 T")

    def test_malformed(self):
        for bad in ("", "wibble", "q^2 + q^3", "t^2", "(1+t", "q - 2q"):
            with pytest.raises(MalformedKhPolynomial):
                parse_kh_polynomial(bad)

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
