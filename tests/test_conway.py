from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslink import (
    BraidWord,
    Diagram,
    LaurentPoly,
    a_state_circles,
    braid_closure,
    components,
    conway,
    crossing_signs,
    ingest_csv,
    is_positive,
    lead_coeff_conway,
    parse_braid,
    parse_pd,
    parse_poly,
    state_circles,
)
from poslink.batch import _conway_mirror
from poslink.conway import _conway_from_seifert, _surface, seifert_matrix

from conftest import DATA_DIR, lucas, mirror
from polygon_diagrams import polygon_diagram
from reference import RecursionBudgetExceeded, Skein, conway_skein

Z = parse_poly("z", "z")


def circle_count(d: Diagram) -> int:
    """Seifert circles that :func:`_surface` walks."""
    _, _, _, _, _, length, _ = _surface(d, 0)
    return len(length)


def agrees_with_skein_at_every_outer_region(d: Diagram) -> None:
    """conway(d) equals the skein recursion, and so does the Seifert
    determinant for every choice of the outer region: the region on
    either side of each Seifert circle."""
    expected = conway_skein(d)
    assert conway(d) == expected
    if d.crossings and not d.free_circles and d._shadow_pieces == 1:
        for outer in range(2 * circle_count(d)):
            assert _conway_from_seifert(seifert_matrix(d, outer)) == expected, outer


class TestValues:
    def test_unknot(self, unknot):
        assert conway(unknot) == LaurentPoly.one()

    def test_hopf(self, hopf):
        assert conway(hopf) == Z

    def test_trefoil(self, trefoil):
        assert conway(trefoil) == parse_poly("1 + z^2", "z")

    def test_seven4(self, seven4):
        assert conway(seven4) == parse_poly("1 + 4z^2", "z")

    def test_seven4_alexander_substitution(self, seven4):
        # z = t^(1/2) - t^(-1/2) must turn 1 + 4z^2 into 4t - 7 + 4/t
        z = parse_poly("-t^(-1/2) + t^(1/2)")
        nabla = conway(seven4)
        alexander = LaurentPoly.zero()
        for exp, coeff in nabla.terms():
            assert exp.denominator == 1
            alexander = alexander + coeff * z ** int(exp)
        assert alexander == parse_poly("4t^-1 - 7 + 4t")

    def test_split_links_vanish(self):
        assert conway(parse_pd("PD[O[],O[]]")).is_zero
        assert conway(braid_closure(parse_braid("strands=3; 1"))).is_zero

    def test_unlink_many(self):
        assert conway(parse_pd("PD[O[],O[],O[]]")).is_zero


class TestLeadCoeff:
    def test_values(self, unknot, hopf, trefoil, seven4):
        assert lead_coeff_conway(unknot) == 1
        assert lead_coeff_conway(hopf) == 1
        assert lead_coeff_conway(trefoil) == 1
        assert lead_coeff_conway(seven4) == 4


class TestStructure:
    def test_knot_constant_term_one_and_even_powers(
        self, trefoil, seven4, perturbed_trefoil
    ):
        for d in (trefoil, seven4, perturbed_trefoil):
            nabla = conway(d)
            assert nabla.coeff(0) == 1
            assert all(exp.numerator % 2 == 0 for exp, _ in nabla.terms())

    def test_link_power_parity(self, hopf):
        # n-component links only see powers >= n-1 of matching parity
        nabla = conway(hopf)
        n = components(hopf)
        for exp, _ in nabla.terms():
            assert exp >= n - 1
            assert (exp.numerator - (n - 1)) % 2 == 0

    def test_invariant_under_moves(self, trefoil, perturbed_trefoil, stabilized_trefoil):
        nabla = conway(trefoil)
        assert conway(perturbed_trefoil) == nabla
        assert conway(stabilized_trefoil) == nabla

    def test_mirror_invariance_for_knots(self, trefoil, mirror_trefoil):
        # knots only see even powers of z, so mirroring changes nothing
        assert conway(mirror_trefoil) == conway(trefoil)

    def test_connected_sum_multiplies(self, trefoil):
        granny = braid_closure(parse_braid("strands=4; 1 1 1 2 3 3 3"))
        assert conway(granny) == conway(trefoil) * conway(trefoil)


class TestSkeinRelation:
    def test_every_crossing(self, hopf, trefoil, seven4, perturbed_trefoil):
        # conway(D) - conway(switch k) = sign(k) * z * conway(resolve k)
        for d in (hopf, trefoil, seven4, perturbed_trefoil):
            od = Skein.of(d)
            for k in range(d.crossing_count):
                lhs = conway(d) - conway(od.switch(k).to_diagram())
                rhs = od.sign(k) * Z * conway(od.resolve(k).to_diagram())
                assert lhs == rhs, f"skein relation fails at crossing {k}"


class TestBudget:
    def test_budget_exceeded(self, trefoil):
        with pytest.raises(RecursionBudgetExceeded):
            conway_skein(trefoil, node_budget=2)


class TestSeifertMatrix:
    def test_hopf(self, hopf):
        assert seifert_matrix(hopf) == [[-1]]

    def test_size_is_first_betti_number(self, trefoil, seven4):
        # c - m + 1 for c crossings and m Seifert circles; the canonical
        # surface of a positive diagram has minimal genus, so the size is
        # also the degree of nabla
        for d, circles in ((trefoil, 2), (seven4, 6)):
            assert circle_count(d) == circles
            size = len(seifert_matrix(d))
            assert size == d.crossing_count - circles + 1
            assert conway(d).max_deg() == size

    def test_disconnected_and_crossing_free_diagrams(self, hopf):
        with pytest.raises(ValueError):
            seifert_matrix(parse_pd("PD[O[]]"))
        assert conway(braid_closure(parse_braid("strands=4; 1 1 3 3"))).is_zero
        # the Hopf link has two Seifert circles, so nodes 0..3
        for outer in (-1, 2 * circle_count(hopf)):
            with pytest.raises(ValueError):
                seifert_matrix(hopf, outer=outer)


class TestCirclesAgainstStateEngine:
    """The Seifert circles that :func:`_surface` walks are the circles of
    the Seifert state, which smooths positive crossings A and negative
    ones B, as the diagram's state engine counts them."""

    @staticmethod
    def check(d: Diagram) -> bool:
        if not d.crossings or d.free_circles or d._shadow_pieces > 1:
            return False
        seifert = tuple("A" if s > 0 else "B" for s in crossing_signs(d).signs)
        assert circle_count(d) == state_circles(d, seifert)
        if is_positive(d):
            assert circle_count(d) == a_state_circles(d)
        return True

    def test_polygon_diagrams(self):
        rng = random.Random(7)
        checked = sum(self.check(polygon_diagram(rng)) for _ in range(60))
        positive = sum(self.check(polygon_diagram(rng, positive=True)) for _ in range(60))
        assert checked >= 30 and positive >= 30

    def test_mixed_sign_braids(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 5)
            word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 12)))
            checked += self.check(braid_closure(BraidWord(n, word)))
        assert checked >= 100


class TestAgainstSkein:
    def test_fixtures_and_mirrors(
        self, unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil, stabilized_trefoil
    ):
        for d in (unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil, stabilized_trefoil):
            agrees_with_skein_at_every_outer_region(d)
            agrees_with_skein_at_every_outer_region(mirror(d))

    def test_mirror_sends_z_to_minus_z(self, hopf, seven4):
        for d in (hopf, seven4, braid_closure(parse_braid("strands=3; 1 1 2 2 2"))):
            assert conway(mirror(d)) == _conway_mirror(conway(d))

    def test_knots_table(self):
        columns = {"name": "Name", "pd": "PD Notation", "braid": "Braid Notation", "conway": "Conway"}
        checked = 0
        for record in ingest_csv(str(DATA_DIR / "knots.csv"), columns):
            d = record.diagram()
            if d is None:
                continue
            agrees_with_skein_at_every_outer_region(d)
            assert conway(d) == record.conway
            checked += 1
        assert checked == 3

    @given(
        strands=st.integers(2, 5),
        letters=st.lists(st.tuples(st.integers(1, 4), st.booleans()), max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_mixed_sign_braids(self, strands, letters):
        word = tuple(min(g, strands - 1) * (1 if up else -1) for g, up in letters)
        agrees_with_skein_at_every_outer_region(braid_closure(BraidWord(strands, word)))

    @pytest.mark.parametrize("seed", range(4))
    def test_polygon_diagrams(self, seed):
        # 1-3 components, up to 14 crossings, nested and side-by-side circles
        rng = random.Random(seed)
        for _ in range(40):
            agrees_with_skein_at_every_outer_region(polygon_diagram(rng, max_crossings=14))

    def test_polygon_diagrams_cover_both_kinds_of_band(self):
        rng = random.Random(0)
        nested = side_by_side = 0
        for _ in range(40):
            d = polygon_diagram(rng)
            if d.free_circles or d._shadow_pieces > 1:
                continue
            _, _, _, _, ramps, _, _ = _surface(d, 0)
            nested += any(r is not None for r in ramps)
            side_by_side += any(r is None for r in ramps)
        assert nested >= 10 and side_by_side >= 10


class TestLargeDiagrams:
    def test_alternating_40_crossing_3_braid(self):
        # (1 -2)^20 was out of reach of the skein recursion's node budget
        nabla = conway(braid_closure(BraidWord(3, (1, -2) * 20)))
        assert nabla.coeff(0) == 1
        at_2i = sum(c * (-4) ** (int(e) // 2) for e, c in nabla.terms())
        assert abs(at_2i) == lucas(40) - 2

    def test_torus_knot_3_11(self):
        # the skein recursion's value
        assert conway(braid_closure(BraidWord(3, (1, 2) * 11))) == parse_poly(
            "1 + 40z^2 + 390z^4 + 1443z^6 + 2665z^8 + 2782z^10 + 1742z^12"
            " + 666z^14 + 152z^16 + 19z^18 + z^20",
            "z",
        )
