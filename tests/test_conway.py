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
from poslink import burau, seifert
from poslink.batch import _conway_mirror
from poslink.burau import _expand_in_z, _factors, burau_conway as library_burau
from poslink.seifert import _bareiss_det, _conway_from_seifert, _surface, seifert_matrix

from conftest import DATA_DIR, lucas, mirror
from polygon_diagrams import polygon_diagram
from reference import (
    RecursionBudgetExceeded,
    Skein,
    _laurent_det,
    bareiss_det,
    burau_conway,
    conway_skein,
)

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


class TestBandedBasis:
    """Each cycle returns through the latest earlier band joining the same
    two circles, so on a 3-braid closure a cycle meets at most four others
    and every row of V + V^T has at most five nonzeros (a spanning-tree
    basis fills every row)."""

    @pytest.mark.parametrize("k", (5, 10, 20, 40))
    @pytest.mark.parametrize("letters", ((1, 2), (1, -2)))
    def test_rows_of_the_symmetrized_form(self, letters, k):
        v = seifert_matrix(braid_closure(BraidWord(3, letters * k)))
        n = len(v)
        assert n == 2 * k - 2
        assert max(sum(1 for j in range(n) if v[i][j] + v[j][i]) for i in range(n)) <= 5


def sparse_rows(rows: list[list[int]]) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@st.composite
def integer_matrices(draw):
    """Square matrices of size 0-12 with entries -3..3: dense, with a zero
    diagonal (every pivot needs a swap unless an earlier step filled it),
    singular (one row the sum of two others), or banded with entries in
    the first and last columns, whose rows are rewritten in the first steps
    and then go untouched until the band reaches them."""
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("dense", "zero diagonal", "singular", "banded")))
    entry = st.integers(-3, 3)
    width = draw(st.integers(0, 2))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        if kind == "zero diagonal":
            row[i] = 0
        elif kind == "banded":
            for j in range(1, n - 1):
                if abs(i - j) > width:
                    row[j] = 0
    if kind == "singular" and n >= 3:
        a, b, c = draw(st.permutations(range(n)))[:3]
        rows[c] = [x + y for x, y in zip(rows[a], rows[b])]
    return rows


class TestDeterminant:
    """The sparse elimination against the dense Bareiss elimination of
    :func:`reference.bareiss_det`."""

    @given(integer_matrices())
    @settings(max_examples=300, deadline=None)
    def test_random_matrices(self, rows):
        assert _bareiss_det(sparse_rows(rows)) == bareiss_det([list(r) for r in rows])

    def test_rows_left_behind(self):
        # step 0 rewrites row 5, steps 1-3 leave it alone and step 4
        # rewrites it again; step 1 swaps in row 2, which no step rewrote
        rows = [
            [2, 0, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 0],
            [0, 1, 2, 1, 0, 0],
            [0, 0, 1, 2, 1, 0],
            [0, 0, 0, 1, 2, 1],
            [1, 0, 0, 0, 1, 3],
        ]
        assert _bareiss_det(sparse_rows(rows)) == bareiss_det([list(r) for r in rows]) == -11

    def test_empty_and_zero_rows(self):
        assert _bareiss_det([]) == 1
        assert _bareiss_det([{0: 2, 1: 1}, {}]) == 0
        assert _bareiss_det([{1: 5}, {1: 7}]) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_every_interpolation_node(self, seed, trefoil, seven4, hopf):
        # det(V - u V^T) at each u = s^2 that _conway_from_seifert reads
        rng = random.Random(seed)
        diagrams = [trefoil, seven4, hopf, braid_closure(BraidWord(3, (1, -2) * 6))]
        diagrams += [polygon_diagram(rng, max_crossings=14) for _ in range(10)]
        checked = 0
        for d in diagrams:
            if not d.crossings or d.free_circles or d._shadow_pieces > 1:
                continue
            v = seifert_matrix(d)
            n = len(v)
            for s in range(1 + n % 2, 2 + n % 2 + n // 2):
                rows = [[v[i][j] - s * s * v[j][i] for j in range(n)] for i in range(n)]
                assert _bareiss_det(sparse_rows(rows)) == bareiss_det(rows)
            checked += 1
        assert checked >= 5


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


class TestAgainstBurau:
    """The reference's reduced Burau route reads only the braid word, so it
    shares no code with the Seifert matrix of the closure, and it shares
    none with the library's Burau route either.  Every check here calls
    the Seifert route by name: :func:`poslink.conway` takes braid closures
    through the library's Burau route."""

    @pytest.mark.parametrize("text, expected", [
        ("strands=1;", "1"),
        ("strands=2; 1 1 1", "1 + z^2"),
        ("strands=2; -1 -1 -1", "1 + z^2"),
        ("strands=2; 1 1", "z"),
        ("strands=2; -1 -1", "-z"),
        ("strands=3; 1 -2 1 -2", "1 - z^2"),
        ("strands=3; 1 1 2 2 2", "z + z^3"),
        ("strands=3; 1 1", "0"),
        ("strands=4;", "0"),
    ])
    def test_values(self, text, expected):
        word = parse_braid(text)
        assert burau_conway(word) == parse_poly(expected, "z")
        assert seifert.conway(braid_closure(word)) == parse_poly(expected, "z")

    @given(
        strands=st.integers(1, 6),
        letters=st.lists(st.tuples(st.integers(1, 5), st.booleans()), max_size=14),
        split_at=st.integers(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_mixed_sign_braids(self, strands, letters, split_at):
        # a split_at in 1 .. strands - 1 leaves that generator out of the
        # word, so no strand crosses from one side of it to the other and
        # the closure is split
        word = tuple(
            min(g, strands - 1) * (1 if up else -1)
            for g, up in letters
            if strands > 1 and min(g, strands - 1) != split_at
        )
        braid = BraidWord(strands, word)
        assert seifert.conway(braid_closure(braid)) == burau_conway(braid)

    def test_split_closures_vanish(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(3, 6)
            gap = rng.randint(1, n - 1)
            gens = [g for g in range(1, n) if g != gap]
            braid = BraidWord(n, tuple(rng.choice((1, -1)) * rng.choice(gens) for _ in range(10)))
            assert burau_conway(braid) == LaurentPoly.zero() == seifert.conway(braid_closure(braid))

    def test_alternating_40_crossing_3_braid(self):
        braid = BraidWord(3, (1, -2) * 20)
        assert burau_conway(braid) == seifert.conway(braid_closure(braid))


@st.composite
def braid_words(draw):
    """Signed words on 1-10 strands: using every generator, or leaving
    some out (a split closure) or the top ones out (untouched strands);
    optionally stabilized once more at the top or at the bottom, which
    splits off an unknot factor.  Short words on many strands, where a
    generator occurs once, split into several factors."""
    n = draw(st.integers(1, 10))
    gens = list(range(1, n))
    kind = draw(st.sampled_from(("all", "subset", "lower")))
    if kind == "subset" and gens:
        gens = sorted(draw(st.sets(st.sampled_from(gens))))
    elif kind == "lower" and gens:
        gens = gens[: draw(st.integers(0, len(gens)))]
    letters = draw(st.lists(st.sampled_from(gens), max_size=18)) if gens else []
    letters = [k * draw(st.sampled_from((1, -1))) for k in letters]
    stabilize = draw(st.sampled_from((None, "top", "bottom")))
    if stabilize is not None:
        at = draw(st.integers(0, len(letters)))
        if stabilize == "top":
            letters.insert(at, draw(st.sampled_from((n, -n))))
        else:
            letters = [k + 1 if k > 0 else k - 1 for k in letters]
            letters.insert(at, draw(st.sampled_from((1, -1))))
        n += 1
    return BraidWord(n, letters)


class TestBurauRoute:
    """:func:`poslink.conway` on a braid closure against the Seifert route
    of the same diagram."""

    @given(braid_words())
    @settings(max_examples=400, deadline=None)
    def test_random_braids(self, braid):
        d = braid_closure(braid)
        expected = seifert.conway(d)
        assert conway(d) == expected
        factors = _factors(braid)
        if factors is None:
            assert expected.is_zero
        else:
            product = LaurentPoly.one()
            for n, letters in factors:
                assert 2 * n <= len(letters) + 2
                # each factor on its own: the Seifert route of its closure
                alone = seifert.conway(braid_closure(BraidWord(n, letters)))
                assert library_burau(n, letters) == alone
                product = product * alone
            assert product == expected

    @pytest.mark.parametrize("text, factors", [
        ("strands=1;", []),
        ("strands=2; -1", []),
        # every generator once: the unknot
        ("strands=24; " + " ".join(str(k) for k in range(1, 24)), []),
        ("strands=4; 1 1 2 3", [(2, [1, 1])]),
        ("strands=3; 2 1 -2 -2", [(2, [1, -1, -1])]),
        ("strands=4; -1 2 2 3 3", [(3, [1, 1, 2, 2])]),
        ("strands=3; 1 -2 1 -2", [(3, [1, -2, 1, -2])]),
        # sigma_2 once in the middle: two Hopf links, and a trefoil and a
        # figure eight on 3 strands each
        ("strands=4; 1 1 2 3 3", [(2, [1, 1]), (2, [1, 1])]),
        ("strands=6; 1 -2 1 -2 3 4 5 4 5", [(3, [1, -2, 1, -2]), (3, [1, 2, 1, 2])]),
        ("strands=4; 1 1 3 3", None),
        ("strands=3; 1 1", None),
        ("strands=3;", None),
        ("strands=5; 1 1 2 3 3", None),
    ])
    def test_factors(self, text, factors):
        assert _factors(parse_braid(text)) == factors

    def test_every_braid_takes_the_burau_route(self, monkeypatch):
        seen = []

        def seifert_route(d):
            seen.append(d)
            return LaurentPoly.zero()

        monkeypatch.setattr(seifert, "conway", seifert_route)
        assert conway(braid_closure(parse_braid("strands=3; 1 -2 1 -2"))) == parse_poly(
            "1 - z^2", "z"
        )
        assert conway(braid_closure(parse_braid("strands=4; 1 1 3 3"))).is_zero
        # 4 strands and 5 letters, a 2-row Seifert matrix: two Hopf links
        assert conway(braid_closure(parse_braid("strands=4; 1 1 2 3 3"))) == Z * Z
        # the figure eight and the trefoil, 6 strands and 9 letters
        assert conway(braid_closure(parse_braid("strands=6; 1 -2 1 -2 3 4 5 4 5"))) == parse_poly(
            "1 - z^4", "z"
        )
        assert seen == []
        trefoil = parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]")
        conway(trefoil)
        assert seen == [trefoil] and trefoil.braid is None

    def test_large_words(self):
        braid = BraidWord(3, (1, -2) * 30)
        assert conway(braid_closure(braid)) == burau_conway(braid)
        rng = random.Random(11)
        braid = BraidWord(5, tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(60)))
        assert conway(braid_closure(braid)) == burau_conway(braid)

    def test_inexact_division_and_asymmetry_raise(self):
        t = LaurentPoly.term(1, 1)
        one = LaurentPoly.one()
        with pytest.raises(ArithmeticError):
            (one + t) // LaurentPoly.term(2, 0)
        with pytest.raises(ArithmeticError):
            (one + t * t) // (one + t)
        assert (one - t * t) // (one + t) == one - t
        # half-step exponents divide as well
        root = LaurentPoly.term(1, "1/2")
        assert (root * root - one) // (root - one) == root + one
        with pytest.raises(ArithmeticError):
            _expand_in_z({2: 1})  # t alone
        assert _expand_in_z({2: 1, 0: -1, -2: 1}) == parse_poly("1 + z^2", "z")


@st.composite
def laurent_matrices(draw):
    """Square matrices of size 0-5 over Z[t, t^-1], entries of up to three
    terms with exponents -2..2, about half of them zero."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(
        st.just({}),
        st.dictionaries(st.integers(-2, 2), st.integers(-3, 3).filter(bool), max_size=3),
    )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


class TestLaurentDeterminant:
    """The shared sparse elimination over Z[t, t^-1] against the dense
    Bareiss elimination of :func:`reference._laurent_det`."""

    @given(laurent_matrices())
    @settings(max_examples=200, deadline=None)
    def test_random_matrices(self, rows):
        sparse = [{j: LaurentPoly(x) for j, x in enumerate(row) if x} for row in rows]
        det = _laurent_det([[dict(x) for x in row] for row in rows])
        assert burau._bareiss_det(sparse, LaurentPoly.one()) == LaurentPoly(det)


class TestLargeDiagrams:
    @staticmethod
    def check_alternating_3_braid(k: int) -> None:
        # a knot, whose determinant |nabla(2i)| is the Lucas number L_2k - 2
        nabla = conway(braid_closure(BraidWord(3, (1, -2) * k)))
        assert nabla.coeff(0) == 1
        at_2i = sum(c * (-4) ** (int(e) // 2) for e, c in nabla.terms())
        assert abs(at_2i) == lucas(2 * k) - 2

    def test_alternating_40_crossing_3_braid(self):
        # (1 -2)^20 was out of reach of the skein recursion's node budget
        self.check_alternating_3_braid(20)

    def test_alternating_80_crossing_3_braid(self):
        # a dense elimination of its 78-row Seifert matrix takes seconds
        self.check_alternating_3_braid(40)

    def test_torus_knot_3_11(self):
        # the skein recursion's value
        assert conway(braid_closure(BraidWord(3, (1, 2) * 11))) == parse_poly(
            "1 + 40z^2 + 390z^4 + 1443z^6 + 2665z^8 + 2782z^10 + 1742z^12"
            " + 666z^14 + 152z^16 + 19z^18 + z^20",
            "z",
        )
