from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslink import (
    BraidWord,
    LaurentPoly,
    braid_closure,
    components,
    format_poly,
    jones_summary,
    jones_V,
    kauffman_bracket,
    lickorish_bounds,
    parse_braid,
    parse_pd,
    parse_poly,
    unnormalized_to_v,
    v_to_unnormalized,
)
from poslink import contraction, laurent
from poslink.batch import survey_corpus
from poslink.errors import (
    MalformedPolynomial,
    MixedParity,
    NotDivisible,
    NotPositiveDiagram,
    ZeroPolynomial,
)

from conftest import TREFOIL_PD, lucas, mirror
from polygon_diagrams import polygon_diagram
from reference import contraction_order, jones_states, kauffman_bracket_states

TREFOIL_V = parse_poly("t + t^3 - t^4")
SEVEN4_V = parse_poly("t - 2t^2 + 3t^3 - 2t^4 + 3t^5 - 2t^6 + t^7 - t^8")


def halfstep_polys(min_key=-8, max_key=8, max_coeff=6):
    return st.builds(
        LaurentPoly._raw,
        st.dictionaries(
            st.integers(min_key, max_key), st.integers(-max_coeff, max_coeff)
        ),
    )


class TestArithmetic:
    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({2: 0, 3: 1}) == LaurentPoly({3: 1})
        assert not LaurentPoly({1: 0})

    def test_half_exponents(self):
        p = LaurentPoly({Fraction(1, 2): 1})
        assert p.min_deg() == Fraction(1, 2)
        with pytest.raises(MalformedPolynomial):
            LaurentPoly({Fraction(1, 3): 1})

    def test_degrees_and_lead(self):
        p = parse_poly("2t^-1 + t^3")
        assert p.min_deg() == -1
        assert p.max_deg() == 3
        assert p.lead_coeff() == 1
        with pytest.raises(ZeroPolynomial):
            LaurentPoly.zero().min_deg()

    def test_pow(self):
        p = parse_poly("1 + t")
        assert p**3 == parse_poly("1 + 3t + 3t^2 + t^3")
        assert p**0 == LaurentPoly.one()

    @given(p=halfstep_polys(), q=halfstep_polys(), r=halfstep_polys())
    @settings(max_examples=80)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert p + LaurentPoly.zero() == p
        assert p * LaurentPoly.one() == p
        assert p - p == LaurentPoly.zero()
        assert p - q == p + (-q)

    @given(p=halfstep_polys(), q=halfstep_polys(), shift=st.integers(-3, 3))
    @settings(max_examples=80)
    def test_exact_division(self, p, q, shift):
        if not q:
            return
        assert (p * q) // q == p
        # 2q divides only polynomials with even coefficients
        r = LaurentPoly._raw({shift: 1})
        with pytest.raises(ArithmeticError):
            (p * q * 2 + r) // (q * 2)


class TestTextForm:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-2",
            "t",
            "-t",
            "t + t^3 - t^4",
            "t - 2t^2 + 3t^3",
            "-t^(1/2) - t^(5/2)",
            "t^(-3/2) + 2t^-1",
            "1 + z^2",
        ],
    )
    def test_roundtrip_canonical(self, text):
        var = "z" if "z" in text else "t"
        assert format_poly(parse_poly(text, var), var) == text

    @given(p=halfstep_polys())
    @settings(max_examples=80)
    def test_parse_format_inverse(self, p):
        assert parse_poly(format_poly(p, "t"), "t") == p

    def test_accepts_unnormalized_input(self):
        assert parse_poly("t^3+t^5-t^6") == parse_poly("t^3 + t^5 - t^6")
        assert parse_poly("3*t^2") == parse_poly("3t^2")
        assert parse_poly("t + t") == parse_poly("2t")
        for text in ("t^(3)", "t^{3}", "t^[3]", "t^ ( 3 )", "t^6/2"):
            assert parse_poly(text) == parse_poly("t^3")

    def test_rejects_garbage(self):
        for bad in ("", "t +", "q^2", "t^^2", "t^(1/3)", "2 2",
                    "t^3)", "t^(3", "t^{3]", "1 + t^2)", "t^(3 + t)"):
            with pytest.raises(MalformedPolynomial):
                parse_poly(bad, "t")


class TestBracket:
    def test_unknot(self, unknot):
        assert kauffman_bracket(unknot) == LaurentPoly.one()

    def test_two_circle_unlink(self):
        d = parse_pd("PD[O[],O[]]")
        assert kauffman_bracket(d) == LaurentPoly({2: -1, -2: -1})


def agrees_with_state_sum(d) -> None:
    assert kauffman_bracket(d) == kauffman_bracket_states(d), d


class TestBracketAgainstStateSum:
    def test_fixtures_and_mirrors(
        self, unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil, stabilized_trefoil
    ):
        for d in (unknot, hopf, trefoil, mirror_trefoil, seven4, perturbed_trefoil, stabilized_trefoil):
            agrees_with_state_sum(d)
            agrees_with_state_sum(mirror(d))

    @pytest.mark.parametrize(
        "text",
        [
            "PD[O[]]",
            "PD[O[],O[],O[]]",
            TREFOIL_PD[:-1] + ",O[],O[]]",
            "strands=5; 1 1 1",
        ],
    )
    def test_free_circles(self, text):
        d = parse_pd(text) if text.startswith("PD") else braid_closure(parse_braid(text))
        assert d.free_circles
        agrees_with_state_sum(d)

    @pytest.mark.parametrize(
        "text",
        ["PD[X[1,1,2,2]]", "PD[X[2,1,1,2]]", "strands=3; 1 1 1 2", "strands=3; 1 -1 -1 -2"],
    )
    def test_kinked_crossing(self, text):
        d = parse_pd(text) if text.startswith("PD") else braid_closure(parse_braid(text))
        assert any(len(set(t)) < 4 for t in d.crossings)
        agrees_with_state_sum(d)

    def test_split_diagram(self, trefoil):
        shifted = ",".join(
            "X[" + ",".join(str(a + 6) for a in t) + "]" for t in trefoil.crossings
        )
        d = parse_pd(TREFOIL_PD[:-1] + "," + shifted + "]")
        agrees_with_state_sum(d)
        # <D1 u D2> = delta <D1><D2>
        delta = LaurentPoly({2: -1, -2: -1})
        assert kauffman_bracket(d) == delta * kauffman_bracket(trefoil) ** 2

    @given(
        strands=st.integers(2, 5),
        letters=st.lists(st.tuples(st.integers(1, 4), st.booleans()), max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_mixed_sign_braids(self, strands, letters):
        word = tuple(min(g, strands - 1) * (1 if up else -1) for g, up in letters)
        agrees_with_state_sum(braid_closure(BraidWord(strands, word)))

    @pytest.mark.parametrize("seed", range(4))
    def test_polygon_diagrams(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            agrees_with_state_sum(polygon_diagram(rng, max_crossings=14))


def torus_knot_jones(p: int, q: int) -> LaurentPoly:
    """t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)."""
    numerator = Counter({0: 1, p + 1: -1, q + 1: -1, p + q: 1})
    quotient: dict[int, int] = {}
    for k in range(p + q - 1):
        # the quotient has degree p + q - 2; (1 - t^2) Q = N term by term
        quotient[k] = numerator[k] + quotient.get(k - 2, 0)
    return LaurentPoly({k + (p - 1) * (q - 1) // 2: c for k, c in quotient.items()})


class TestLargeDiagrams:
    """Inputs the 2^c state sum cannot reach in test time."""

    def test_alternating_40_crossing_3_braid(self):
        v = jones_V(braid_closure(BraidWord(3, (1, -2) * 20)))
        # reduced alternating and amphichiral: span c, symmetric, and
        # |V(-1)| is the determinant L_40 - 2
        assert (v.min_deg(), v.max_deg()) == (-20, 20)
        assert v == v.substitute_inverse()
        assert abs(sum(c * (-1) ** int(e) for e, c in v.terms())) == lucas(40) - 2

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 4), (3, 11), (4, 5), (5, 6)])
    def test_torus_knots(self, p, q):
        d = braid_closure(BraidWord(p, tuple(range(1, p)) * q))
        assert jones_V(d) == torus_knot_jones(p, q)


class TestContractionOrder:
    """The scored order equals the reference's rescan of every crossing
    left at each step, tie-breaks included."""

    def test_polygon_diagrams_match_the_rescan(self):
        for seed in range(4):
            rng = random.Random(seed)
            for _ in range(40):
                d = polygon_diagram(rng, max_crossings=14)
                assert d.contraction_order == tuple(contraction_order(d)), d

    @given(
        strands=st.integers(2, 6),
        letters=st.lists(st.tuples(st.integers(1, 5), st.booleans()), max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_mixed_braids_match_the_rescan(self, strands, letters):
        word = tuple(min(g, strands - 1) * (1 if up else -1) for g, up in letters)
        d = braid_closure(BraidWord(strands, word))
        assert d.contraction_order == tuple(contraction_order(d))

    def test_open_boundary_at_most_two_arcs_per_strand(self):
        # 2n open arcs leave at most Catalan(n) planar matchings live, so the
        # bracket of an n-strand closure costs linear time in its length
        rng = random.Random(0)
        words = [
            (3, (1, 2) * 20), (3, (1, -2) * 20), (4, (1, 2, 3) * 13),
            (5, (1, -2, 3, -4) * 10), (6, (1, 2, 3, 4, 5) * 8), (6, (5, 4, 3, 2, 1) * 8),
            # breaking ties by index alone opens 12 ends here
            (5, (-1, 4, 3, -1, -4, -3, -4, 1, -1, 4, -3, 4, -2, 3, 4, 1, -4, -1, -3,
                 -2, 2, -3, 1, 1, -2, -3, -2, -1, -4, -4, 2, -4, -3, 4, 4, 3, 3, 2)),
        ]
        for _ in range(300):
            n = rng.randint(2, 6)
            length = rng.randint(1, 40)
            words.append((n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))))
        for n, word in words:
            d = braid_closure(BraidWord(n, word))
            order = d.contraction_order
            assert sorted(order) == list(range(d.crossing_count))
            open_arcs: set[int] = set()
            for k in order:
                for arc in d.crossings[k]:
                    open_arcs ^= {arc}
                assert len(open_arcs) <= 2 * n, (n, word)
            assert not open_arcs


class TestJones:
    def test_trefoil(self, trefoil):
        assert jones_V(trefoil) == TREFOIL_V

    def test_seven4(self, seven4):
        assert jones_V(seven4) == SEVEN4_V

    def test_unknot(self, unknot):
        assert jones_V(unknot) == LaurentPoly.one()

    def test_kinked_unknot(self):
        d = braid_closure(parse_braid("strands=2; 1"))
        assert jones_V(d) == LaurentPoly.one()

    def test_mirror_trefoil(self, mirror_trefoil):
        assert jones_V(mirror_trefoil) == parse_poly("-t^-4 + t^-3 + t^-1")

    def test_hopf(self, hopf):
        assert jones_V(hopf) == parse_poly("-t^(1/2) - t^(5/2)")

    def test_value_at_one(self, trefoil, seven4, hopf, unknot):
        for d in (trefoil, seven4, hopf, unknot):
            assert jones_V(d).evaluate_at_one() == (-2) ** (components(d) - 1)

    def test_exponent_parity_matches_components(self, trefoil, hopf):
        assert jones_V(trefoil).exponent_parities() == {0}
        assert jones_V(hopf).exponent_parities() == {1}
        # three components: integer exponents again
        three = braid_closure(parse_braid("strands=3; 1 1"))
        assert components(three) == 3
        assert jones_V(three).exponent_parities() == {0}

    def test_invariance_under_moves(self, trefoil, perturbed_trefoil, stabilized_trefoil):
        v = jones_V(trefoil)
        assert jones_V(perturbed_trefoil) == v
        assert jones_V(stabilized_trefoil) == v

    def test_invariance_under_r3(self):
        # the braid relation realizes a third Reidemeister move
        a = braid_closure(parse_braid("strands=3; 1 2 1"))
        b = braid_closure(parse_braid("strands=3; 2 1 2"))
        assert jones_V(a) == jones_V(b)


class TestConversions:
    def test_seven4_unnormalized(self):
        expected = parse_poly("q - q^3 + q^5 + q^7 + q^9 + q^11 - q^13 - q^17", "q")
        assert v_to_unnormalized(SEVEN4_V) == expected

    def test_unknot(self):
        assert v_to_unnormalized(LaurentPoly.one()) == parse_poly("q^-1 + q", "q")

    def test_trefoil(self):
        assert v_to_unnormalized(TREFOIL_V) == parse_poly("q + q^3 + q^5 - q^9", "q")

    def test_back_direction(self):
        j = parse_poly("q + q^3 + q^5 - q^9", "q")
        assert unnormalized_to_v(j) == TREFOIL_V
        assert unnormalized_to_v(parse_poly("q^-1 + q", "q")) == LaurentPoly.one()

    def test_roundtrip(self, trefoil, seven4, hopf, mirror_trefoil):
        for d in (trefoil, seven4, hopf, mirror_trefoil):
            v = jones_V(d)
            assert unnormalized_to_v(v_to_unnormalized(v)) == v

    def test_mixed_parity_rejected(self):
        with pytest.raises(MixedParity):
            v_to_unnormalized(parse_poly("t + t^(1/2)"))

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            unnormalized_to_v(parse_poly("q^2", "q"))
        with pytest.raises(NotDivisible):
            unnormalized_to_v(parse_poly("q + q^5", "q"))

    @given(
        keys=st.sets(st.integers(-6, 6), min_size=1, max_size=5),
        coeffs=st.lists(st.integers(-4, 4), min_size=5, max_size=5),
        odd=st.booleans(),
    )
    @settings(max_examples=60)
    def test_roundtrip_property(self, keys, coeffs, odd):
        data = {2 * k + (1 if odd else 0): c for k, c in zip(sorted(keys), coeffs)}
        v = LaurentPoly._raw(data)
        if v.is_zero:
            return
        assert unnormalized_to_v(v_to_unnormalized(v)) == v


class TestSummary:
    def test_seven4(self):
        s = jones_summary(SEVEN4_V)
        assert (s.min_deg, s.max_deg, s.second_coeff, s.p1) == (1, 8, -2, 2)

    def test_trefoil_absent_second(self):
        s = jones_summary(TREFOIL_V)
        assert (s.min_deg, s.max_deg, s.second_coeff, s.p1) == (1, 4, 0, 0)

    def test_12n749(self):
        v = parse_poly("t^3 + t^5 - t^6 + t^7 - t^8 + t^9 - t^10")
        s = jones_summary(v)
        assert (s.min_deg, s.max_deg, s.second_coeff, s.p1) == (3, 10, 0, 0)

    def test_half_integer_degrees(self, hopf):
        s = jones_summary(jones_V(hopf))
        assert s.min_deg == Fraction(1, 2)
        assert s.max_deg == Fraction(5, 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            jones_summary(LaurentPoly.zero())


class TestLickorishBounds:
    def test_trefoil(self, trefoil):
        assert lickorish_bounds(trefoil) == (1, 4)

    def test_unknot(self, unknot):
        assert lickorish_bounds(unknot) == (0, 0)

    def test_seven4(self, seven4):
        assert lickorish_bounds(seven4) == (1, 8)

    def test_rejects_negative_diagram(self, mirror_trefoil):
        with pytest.raises(NotPositiveDiagram):
            lickorish_bounds(mirror_trefoil)

    def test_min_deg_exact_max_deg_bounded(self, trefoil, seven4):
        for d in (trefoil, seven4):
            lo, hi = lickorish_bounds(d)
            s = jones_summary(jones_V(d))
            assert s.min_deg == lo
            assert s.max_deg <= hi


def chain_corpus() -> list:
    """Diagrams whose contractions share prefixes: survey closures, random
    mixed braids, polygon diagrams, free circles and kinks."""
    rng = random.Random(11)
    corpus = [d for _, d in survey_corpus(3, 6)]
    for _ in range(40):
        n = rng.randint(2, 4)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 9)))
        corpus.append(braid_closure(BraidWord(n, word)))
    corpus += [polygon_diagram(rng, max_crossings=8) for _ in range(20)]
    texts = ["strands=5; 1 1 1", "strands=3; 1 1 1 2", "strands=3; 1 -1 -1 -2"]
    corpus += [braid_closure(parse_braid(t)) for t in texts]
    corpus += [parse_pd("PD[X[1,1,2,2]]"), parse_pd(TREFOIL_PD[:-1] + ",O[]]"), parse_pd("PD[O[]]")]
    return corpus


def bracket_chain() -> tuple:
    """The bracket's chain: (crossing, (states, ends)) per step."""
    return contraction._MATCHINGS.chains.get(laurent._add_crossing, ())


class TestBracketChain:
    """kauffman_bracket takes from the chain of the last diagram contracted
    every step that its own renumbered crossings share with it, so a run
    of diagrams in sorted order contracts each prefix once, and no result
    depends on what the chain holds."""

    def test_any_order_matches_the_state_sum(self, monkeypatch):
        monkeypatch.setattr(contraction, "_MATCHINGS", contraction._Interned())
        corpus = chain_corpus()
        expected = {id(d): jones_states(d) for d in corpus}
        shuffled = corpus[:]
        random.Random(5).shuffle(shuffled)
        in_survey_order = sorted(corpus, key=lambda d: d.contraction_crossings)
        twice = [d for d in corpus for _ in range(2)]
        for order in (shuffled, in_survey_order, twice, corpus[::-1]):
            for d in order:
                assert jones_V(d) == expected[id(d)], d

    def test_sorted_run_contracts_each_prefix_once(self, monkeypatch):
        monkeypatch.setattr(contraction, "_MATCHINGS", contraction._Interned())
        add = laurent._add_crossing
        steps = []

        def counting(*args):
            steps.append(None)
            return add(*args)

        monkeypatch.setattr(laurent, "_add_crossing", counting)
        corpus = sorted((d for _, d in survey_corpus(3, 8)), key=lambda d: d.contraction_crossings)
        for d in corpus:
            kauffman_bracket(d)
        runs = [d.contraction_crossings for d in corpus]
        prefixes = {c[:k] for c in runs for k in range(1, len(c) + 1)}
        assert len(steps) == len(prefixes) < sum(map(len, runs))

    @pytest.mark.parametrize("fail_at", [0, 2, 5])
    def test_failed_contraction_leaves_an_exact_chain(self, monkeypatch, fail_at):
        monkeypatch.setattr(contraction, "_MATCHINGS", contraction._Interned())
        smoothings = laurent._smoothings

        def failing(matchings, m, local):
            # the chain holds one entry per finished step
            if len(bracket_chain()) == fail_at:
                raise RuntimeError("contraction stopped")
            return smoothings(matchings, m, local)

        monkeypatch.setattr(laurent, "_smoothings", failing)
        d = braid_closure(parse_braid("strands=4; 1 -2 3 -1 -2 3 1 2"))
        with pytest.raises(RuntimeError, match="contraction stopped"):
            kauffman_bracket(d)
        assert len(bracket_chain()) == fail_at
        assert [c for c, _ in bracket_chain()] == list(d.contraction_crossings[:fail_at])
        monkeypatch.setattr(laurent, "_smoothings", smoothings)
        texts = ["strands=4; 1 -2 3 -1 -2 3 1 2", "strands=4; 1 -2 3 -1", "strands=4; 1 -2 3 -1 -2 3 1 2"]
        for text in texts:
            e = braid_closure(parse_braid(text))
            assert kauffman_bracket(e) == kauffman_bracket_states(e), text

    def test_delta_division_is_exact(self):
        for exps in ({4: 1}, {4: -1, -4: 2}, {8: 3, 0: -1, -12: 5}):
            q = LaurentPoly._raw(exps)
            delta = LaurentPoly({2: -1, -2: -1})
            assert (delta * q) // delta == q
        with pytest.raises(ArithmeticError):
            LaurentPoly._raw({4: 1}) // LaurentPoly({2: -1, -2: -1})
